"""AdaDelta parameter updates over a ParamStore."""

from __future__ import annotations

import numpy as np

from .autodiff import ParamStore

# Elements per pass of an arena-wide update: the block's working arrays stay in cache.
BLOCK = 16384

# The decay rate and conditioning constant of the method's original description (Zeiler 2012).
RHO = 0.95
EPSILON = 1e-6


class AdaDeltaState:
    """Running averages of squared gradients and updates, laid out as the store's arena.

    The rule's constants are RHO and EPSILON; both accumulators start at
    zero and stay nonnegative.  The store's tables (embeddings) update
    only the rows whose gradient is nonzero: a row untouched for k steps
    owes its accumulators k decays by RHO, which the next step that
    touches it applies at once as RHO**k.  A table's accumulator rows are
    therefore current as of row_step, not of steps.

    The optimizer alone writes the gradient of the L2 penalty, whose value
    is store.l2_penalty(l2_lambda): creating the state sets each dense
    gradient range to 0.0 + 2 * l2_lambda * w, and every step leaves that
    there for the next one, so a backward pass adds only the data term.
    """

    def __init__(self, store: ParamStore, l2_lambda: float = 0.0):
        if not 0.0 <= l2_lambda < np.inf:
            raise ValueError(f"l2_lambda {l2_lambda} must be finite and >= 0")
        self.l2_lambda = l2_lambda
        self.sq_grad = np.zeros(store.data.size)
        self.sq_update = np.zeros(store.data.size)
        self.steps = 0
        # per row of each table: the step its accumulators are current to
        self.row_step = {name: np.zeros(len(store[name].data), dtype=np.int64) for name in store.tables}
        size = min(BLOCK, store.data.size)
        self._scratch = (np.empty(size), np.empty(size))
        if l2_lambda:
            for span in store.dense:
                _fill(store.data[span], store.grad[span], 2.0 * l2_lambda)


def _update(x, g, eg2, edx2, t1, t2) -> None:
    """The AdaDelta rule in place on equal-length 1-D arrays; t1, t2 are scratch.

    One square root of the quotient, sqrt((E[dx2]+eps) / (E[g2]+eps)),
    stands for the textbook's quotient of two roots: the same rule in
    exact arithmetic, with its rounding moved.  t1 ends holding -dx.
    """
    eg2 *= RHO
    np.multiply(g, 1.0 - RHO, out=t1)
    t1 *= g
    eg2 += t1
    np.add(edx2, EPSILON, out=t1)
    np.add(eg2, EPSILON, out=t2)
    t1 /= t2
    np.sqrt(t1, out=t1)
    t1 *= g
    edx2 *= RHO
    np.multiply(t1, 1.0 - RHO, out=t2)
    t2 *= t1
    edx2 += t2
    x -= t1


def _fill(x, g, c: float) -> None:
    """g = 0.0 + c * x in place, with no temporary; zeros when c is 0."""
    if c:
        np.multiply(x, c, out=g)
        g += 0.0  # -0.0 becomes 0.0, as in 0.0 + c * x
    else:
        g[...] = 0.0


def _dense_update(x, g, eg2, edx2, state: AdaDeltaState, c: float) -> None:
    """The rule over x block by block; then each gradient block holds 0.0 + c * x."""
    x, g, eg2, edx2 = (a.reshape(-1) for a in (x, g, eg2, edx2))
    s1, s2 = state._scratch
    for lo in range(0, x.size, BLOCK):
        hi = min(lo + BLOCK, x.size)
        n = hi - lo
        _update(x[lo:hi], g[lo:hi], eg2[lo:hi], edx2[lo:hi], s1[:n], s2[:n])
        _fill(x[lo:hi], g[lo:hi], c)  # while the block is still in cache


def adadelta_step(store: ParamStore, state: AdaDeltaState) -> None:
    """Apply one accumulated-gradient update and reset the gradients it consumed.

    Per coordinate, with rho = RHO and eps = EPSILON: E[g2] <- rho E[g2] + (1-rho) g2;
    dx = -sqrt((E[dx2]+eps) / (E[g2]+eps)) g;
    E[dx2] <- rho E[dx2] + (1-rho) dx2;  x <- x + dx.
    The ranges between the tables update whole, each gradient block left
    holding the next step's L2 term, 0.0 + 2 * l2_lambda * x (zeros at
    l2_lambda = 0); a table's gradient only at the rows it updated, since
    its other rows hold zeros already.
    """
    state.steps += 1
    arrays = (store.data, store.grad, state.sq_grad, state.sq_update)
    for span in store.dense:
        _dense_update(*(a[span] for a in arrays), state, 2.0 * state.l2_lambda)
    for name, last in state.row_step.items():
        table, span = store[name], store.spans[name]
        g = table.grad
        eg2, edx2 = (a[span].reshape(g.shape) for a in (state.sq_grad, state.sq_update))
        rows = np.flatnonzero(g.any(axis=1))
        decay = (RHO ** (state.steps - 1 - last[rows]))[:, None]
        x_r, eg2_r, edx2_r = table.data[rows], eg2[rows] * decay, edx2[rows] * decay
        _dense_update(x_r, g[rows], eg2_r, edx2_r, state, 0.0)
        table.data[rows], eg2[rows], edx2[rows] = x_r, eg2_r, edx2_r
        g[rows] = 0.0
        last[rows] = state.steps
