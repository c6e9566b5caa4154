"""AdaDelta parameter updates over a ParamStore."""

from __future__ import annotations

import numpy as np

from .autodiff import ParamStore

# Elements per pass of the dense update: the block's working arrays stay in cache.
BLOCK = 16384


class AdaDeltaState:
    """Running averages of squared gradients and updates, laid out as the store's arena.

    rho and epsilon default to the values from the method's original
    description; both accumulators start at zero and stay nonnegative.
    The store's tables (embeddings) update only the rows whose gradient
    is nonzero: a row untouched for k steps owes its accumulators k
    decays by rho, which the next step that touches it applies at once as
    rho**k.  A table's accumulator rows are therefore current as of
    row_step, not of steps.
    """

    def __init__(self, store: ParamStore, rho: float = 0.95, epsilon: float = 1e-6):
        if not 0.0 < rho < 1.0:
            raise ValueError(f"rho {rho} outside (0, 1)")
        if not 0.0 < epsilon < np.inf:
            raise ValueError(f"epsilon {epsilon} must be finite and positive")
        self.rho = rho
        self.epsilon = epsilon
        self.sq_grad = np.zeros(store.data.size)
        self.sq_update = np.zeros(store.data.size)
        self.steps = 0
        # per row of each table: the step its accumulators are current to
        self.row_step = {name: np.zeros(len(store[name].data), dtype=np.int64) for name in store.tables}
        size = min(BLOCK, store.data.size)
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
    """The rule over x block by block, zeroing each gradient block after use."""
    x, g, eg2, edx2 = (a.reshape(-1) for a in (x, g, eg2, edx2))
    s1, s2 = state._scratch
    for lo in range(0, x.size, BLOCK):
        hi = min(lo + BLOCK, x.size)
        n = hi - lo
        _update(x[lo:hi], g[lo:hi], eg2[lo:hi], edx2[lo:hi], state.rho, state.epsilon, s1[:n], s2[:n])
        g[lo:hi] = 0.0


def adadelta_step(store: ParamStore, state: AdaDeltaState) -> None:
    """Apply one accumulated-gradient update and zero the gradients it consumed.

    Per coordinate: E[g2] <- rho E[g2] + (1-rho) g2;
    dx = -(sqrt(E[dx2]+eps) / sqrt(E[g2]+eps)) g;
    E[dx2] <- rho E[dx2] + (1-rho) dx2;  x <- x + dx.
    The ranges between the tables update and zero whole; a table's gradient
    only at the rows it updated, since its other rows hold zeros already.
    """
    state.steps += 1
    arrays = (store.data, store.grad, state.sq_grad, state.sq_update)
    for span in store.dense:
        _dense_update(*(a[span] for a in arrays), state)
    for name, last in state.row_step.items():
        table, span = store[name], store.spans[name]
        g = table.grad
        eg2, edx2 = (a[span].reshape(g.shape) for a in (state.sq_grad, state.sq_update))
        rows = np.flatnonzero(g.any(axis=1))
        decay = (state.rho ** (state.steps - 1 - last[rows]))[:, None]
        x_r, eg2_r, edx2_r = table.data[rows], eg2[rows] * decay, edx2[rows] * decay
        _dense_update(x_r, g[rows], eg2_r, edx2_r, state)
        table.data[rows], eg2[rows], edx2[rows] = x_r, eg2_r, edx2_r
        g[rows] = 0.0
        last[rows] = state.steps
