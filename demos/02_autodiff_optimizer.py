"""
The autodiff tape and the optimizer
===================================

Fit a two-class softmax classifier on four points using the same
reverse-mode tape and adaptive optimizer the relation model trains
with, and verify the gradients against finite differences.
"""

import numpy as np

from pathrel.autodiff import (
    ParamStore,
    Tensor,
    add,
    backward,
    finite_difference_check,
    matmul,
    softmax_array,
    softmax_cross_entropy,
)
from pathrel.optim import AdaDeltaState, adadelta_step

# four 3-feature points, two per class
POINTS = np.array([
    [1.0, 0.2, -0.5],
    [0.8, -0.1, -0.4],
    [-0.9, 0.4, 1.1],
    [-1.2, 0.3, 0.9],
])
LABELS = [0, 0, 1, 1]

store = ParamStore({"w": np.zeros((2, 3))})


def batch_loss():
    total = Tensor(0.0)
    for x, y in zip(POINTS, LABELS):
        total = add(total, softmax_cross_entropy(matmul(store["w"], Tensor(x)), y))
    return total


# with w = 0 both classes are equally likely, so the starting loss is
# exactly 4 * ln 2
loss = batch_loss()
print(f"initial loss {float(loss.data):.6f}  (4 ln 2 = {4 * np.log(2):.6f})")

# the tape's gradients agree with central differences to ~1e-9
records = finite_difference_check(batch_loss, store, rng=0)
worst = max(r[-1] for r in records)
print(f"finite-difference check on {len(records)} coordinates: "
      f"worst relative error {worst:.2e}")

# the optimizer needs no learning rate; step sizes adapt per coordinate
state = AdaDeltaState(store)
for step in range(1, 201):
    loss = batch_loss()
    backward(loss)
    adadelta_step(store, state)
    if step % 40 == 0 or step == 1:
        print(f"step {step:3d}: loss {float(loss.data):.6f}")

dist = softmax_array(store["w"].data @ POINTS[0])
print("class distribution for the first point:", np.round(dist, 4))
