"""AdaDelta parameter updates over a ParamStore."""

from __future__ import annotations

import numpy as np

from .autodiff import ParamStore

# Elements per pass of the dense update: the block's working arrays stay in cache.
BLOCK = 16384


class AdaDeltaState:
    """Per-parameter running averages of squared gradients and updates.

    rho and epsilon default to the values from the method's original
    description; both accumulators start at zero and stay nonnegative.
    The 2-D tables named in row_sparse (embeddings) update only the rows
    whose gradient is nonzero: a row untouched for k steps owes its
    accumulators k decays by rho, which the next step that touches it
    applies at once as rho**k.  A table's accumulator rows are therefore
    current as of row_step, not of steps.
    """

    def __init__(self, store: ParamStore, rho: float = 0.95, epsilon: float = 1e-6, row_sparse=()):
        if not 0.0 < rho < 1.0:
            raise ValueError(f"rho {rho} outside (0, 1)")
        if epsilon <= 0.0:
            raise ValueError(f"epsilon {epsilon} must be positive")
        self.rho = rho
        self.epsilon = epsilon
        self.sq_grad = {name: np.zeros_like(t.data) for name, t in store.items()}
        self.sq_update = {name: np.zeros_like(t.data) for name, t in store.items()}
        self.steps = 0
        # per row of each row-sparse table: the step its accumulators are current to
        self.row_step = {name: np.zeros(len(store[name].data), dtype=np.int64) for name in row_sparse}
        size = min(BLOCK, max((t.data.size for _, t in store.items()), default=1))
        self._scratch = (np.empty(size), np.empty(size))


def _update(x, g, eg2, edx2, rho, eps, t1, t2) -> None:
    """The AdaDelta rule in place on equal-length 1-D arrays; t1, t2 are scratch.

    Operation for operation the same arithmetic as the textbook form, with
    t1 holding -dx, so every value rounds identically.
    """
    eg2 *= rho
    np.multiply(g, 1.0 - rho, out=t1)
    t1 *= g
    eg2 += t1
    np.add(edx2, eps, out=t1)
    np.sqrt(t1, out=t1)
    np.add(eg2, eps, out=t2)
    np.sqrt(t2, out=t2)
    t1 /= t2
    t1 *= g
    edx2 *= rho
    np.multiply(t1, 1.0 - rho, out=t2)
    t2 *= t1
    edx2 += t2
    x -= t1


def _dense_update(x, g, eg2, edx2, state: AdaDeltaState) -> None:
    x, g, eg2, edx2 = (a.reshape(-1) for a in (x, g, eg2, edx2))
    s1, s2 = state._scratch
    for lo in range(0, x.size, BLOCK):
        hi = min(lo + BLOCK, x.size)
        n = hi - lo
        _update(x[lo:hi], g[lo:hi], eg2[lo:hi], edx2[lo:hi], state.rho, state.epsilon, s1[:n], s2[:n])


def adadelta_step(store: ParamStore, state: AdaDeltaState) -> None:
    """Apply one accumulated-gradient update and zero the gradients.

    Per coordinate: E[g2] <- rho E[g2] + (1-rho) g2;
    dx = -(sqrt(E[dx2]+eps) / sqrt(E[g2]+eps)) g;
    E[dx2] <- rho E[dx2] + (1-rho) dx2;  x <- x + dx.
    Parameters with no accumulated gradient decay their E[g2] and move
    nowhere, matching g = 0.
    """
    state.steps += 1
    for name, tensor in store.items():
        g = tensor.grad if tensor.grad is not None else np.zeros_like(tensor.data)
        eg2, edx2 = state.sq_grad[name], state.sq_update[name]
        last = state.row_step.get(name)
        if last is None:
            _dense_update(tensor.data, g, eg2, edx2, state)
            continue
        rows = np.flatnonzero(g.any(axis=1))
        owed = state.steps - 1 - last[rows]
        if len(rows) == len(last):  # every row moves, as when L2 covers the table
            if owed.any():
                decay = (state.rho ** owed)[:, None]
                eg2 *= decay
                edx2 *= decay
            _dense_update(tensor.data, g, eg2, edx2, state)
        else:
            decay = (state.rho ** owed)[:, None]
            x_r, eg2_r, edx2_r = tensor.data[rows], eg2[rows] * decay, edx2[rows] * decay
            _dense_update(x_r, g[rows], eg2_r, edx2_r, state)
            tensor.data[rows], eg2[rows], edx2[rows] = x_r, eg2_r, edx2_r
        last[rows] = state.steps
    store.zero_grad()
