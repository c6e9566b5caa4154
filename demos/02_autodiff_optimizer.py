"""
The autodiff tape and the optimizer
===================================

Fit a tiny relation model to a dozen synthetic sentences using the same
reverse-mode autodiff and adaptive optimizer the full-size model trains
with, and verify its gradients against finite differences.  Each
example's loss is one recorded node: the three cross-entropies plus the
L2 term, over the model's fused channel and conv-pool nodes.  There is
no graph walk: backward seeds the loss node, whose closure hands each
pooled gradient to its conv-pool node's closure, which hands the states'
gradients on to its two channel nodes' closures.
"""

import math

import numpy as np

from pathrel.autodiff import backward, finite_difference_check
from pathrel.labels import synth_schema
from pathrel.model import ModelConfig, RelationModel
from pathrel.optim import AdaDeltaState, adadelta_step
from pathrel.structreg import CutRule
from pathrel.synth import SynthConfig, generate
from pathrel.training import build_vocabs, prepare_paths

K = 2  # relation types: 2K+1 fine classes, K+1 coarse ones
examples = prepare_paths(generate(SynthConfig(n=12, k_types=K, seed=0)), CutRule(variant="prep"))
words, rels = build_vocabs(examples)
config = ModelConfig(word_dim=6, rel_dim=4, conv_dim=6, keep_prob=1.0, l2_lambda=1e-3)
model = RelationModel(config, synth_schema(K), words, rels, seed=0)
store = model.store


def mean_loss():
    return sum(float(model.loss(ex.path, ex.label).data) for ex in examples) / len(examples)


# with the head weights zeroed every class is equally likely, so each
# example's loss is exactly the L2 term plus 2 ln(2K+1) + ln(K+1)
for name in store.spans:
    if name.startswith(("fine_", "coarse/")):
        store[name].data[...] = 0.0
first = examples[0]
l2, _ = store.l2_penalty(config.l2_lambda)
uniform = 2 * math.log(2 * K + 1) + math.log(K + 1)
print(f"initial loss {float(model.loss(first.path, first.label).data):.6f}  "
      f"(L2 {l2:.6f} + 2 ln {2 * K + 1} + ln {K + 1} = {l2 + uniform:.6f})")

# the optimizer needs no learning rate; step sizes adapt per coordinate
state = AdaDeltaState(store)
print(f"epoch  0: mean loss {mean_loss():.6f}")
for epoch in range(1, 101):
    for ex in examples:
        backward(model.loss(ex.path, ex.label))
        adadelta_step(store, state)
    if epoch % 25 == 0:
        print(f"epoch {epoch:2d}: mean loss {mean_loss():.6f}")

# the trained model's gradients agree with central differences
records = finite_difference_check(lambda: model.loss(first.path, first.label), store, rng=0)
worst = max(records, key=lambda r: r[-1])
print(f"finite-difference check on {len(records)} coordinates: "
      f"worst relative error {worst[-1]:.2e} ({worst[0]})")

label, pred = model.predict(first.path)
print(f"gold {first.label}, predicted {label}")
print("decoded distribution:", np.round(pred.y_test, 4))
hits = sum(model.predict(ex.path)[0] == ex.label for ex in examples)
print(f"{hits} of {len(examples)} training examples decoded correctly")
