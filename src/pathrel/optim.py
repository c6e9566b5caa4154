"""AdaDelta parameter updates over a ParamStore."""

from __future__ import annotations

import contextvars
import os
from concurrent import futures

import numpy as np

from .autodiff import ParamStore

# Elements per pass of an arena-wide update: the block's working arrays stay in cache.
BLOCK = 32768

# Dense elements per step from which one worker thread takes every other block, when
# more than one CPU is available; below it the thread's hand-off costs more than it saves.
SPLIT_MIN = 4 * BLOCK

# The decay rate and conditioning constant of the method's original description (Zeiler 2012).
RHO = 0.95
EPSILON = 1e-6

_worker: futures.ThreadPoolExecutor | None = None
_worker_pid = 0


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
        self._blocks = _blocks(store.dense)
        size = min(BLOCK, store.data.size)
        # the caller's scratch and the worker's; pages untouched until a block is written
        self._scratch = [(np.empty(size), np.empty(size)) for _ in range(2)]
        if l2_lambda:
            for span in store.dense:
                _fill(store.data[span], store.grad[span], 2.0 * l2_lambda)


def _blocks(spans) -> list[tuple[int, int]]:
    """The (lo, hi) bounds of spans cut into BLOCK-element pieces, in order."""
    return [(lo, min(lo + BLOCK, span.stop)) for span in spans for lo in range(span.start, span.stop, BLOCK)]


def _cpus() -> int:
    """The CPUs this process may run on."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _pool() -> futures.ThreadPoolExecutor:
    """The process's one worker thread, made on first use and again in a forked child,
    which inherits the executor but not its thread."""
    global _worker, _worker_pid
    if _worker is None or _worker_pid != os.getpid():
        _worker, _worker_pid = futures.ThreadPoolExecutor(1, thread_name_prefix="adadelta"), os.getpid()
    return _worker


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


def _update_blocks(arrays, blocks, scratch, c: float) -> None:
    """The rule over the given blocks of the flat (x, g, E[g2], E[dx2]) arrays;
    then each gradient block holds 0.0 + c * x."""
    x, g, eg2, edx2 = arrays
    s1, s2 = scratch
    for lo, hi in blocks:
        n = hi - lo
        _update(x[lo:hi], g[lo:hi], eg2[lo:hi], edx2[lo:hi], s1[:n], s2[:n])
        _fill(x[lo:hi], g[lo:hi], c)  # while the block is still in cache


def _update_tables(store: ParamStore, state: AdaDeltaState) -> None:
    """The rule over each table's rows with a nonzero gradient, which it then zeroes."""
    for name, last in state.row_step.items():
        table, span = store[name], store.spans[name]
        g = table.grad
        eg2, edx2 = (a[span].reshape(g.shape) for a in (state.sq_grad, state.sq_update))
        rows = np.flatnonzero(g.any(axis=1))
        decay = (RHO ** (state.steps - 1 - last[rows]))[:, None]
        x_r, eg2_r, edx2_r = table.data[rows], eg2[rows] * decay, edx2[rows] * decay
        _update_blocks([a.reshape(-1) for a in (x_r, g[rows], eg2_r, edx2_r)],
                       _blocks([slice(0, x_r.size)]), state._scratch[0], 0.0)
        table.data[rows], eg2[rows], edx2[rows] = x_r, eg2_r, edx2_r
        g[rows] = 0.0
        last[rows] = state.steps


def adadelta_step(store: ParamStore, state: AdaDeltaState) -> None:
    """Apply one accumulated-gradient update and reset the gradients it consumed.

    Per coordinate, with rho = RHO and eps = EPSILON: E[g2] <- rho E[g2] + (1-rho) g2;
    dx = -sqrt((E[dx2]+eps) / (E[g2]+eps)) g;
    E[dx2] <- rho E[dx2] + (1-rho) dx2;  x <- x + dx.
    The ranges between the tables update whole, each gradient block left
    holding the next step's L2 term, 0.0 + 2 * l2_lambda * x (zeros at
    l2_lambda = 0); a table's gradient only at the rows it updated, since
    its other rows hold zeros already.

    When the dense ranges hold at least SPLIT_MIN elements and more than
    one CPU is available, a worker thread takes every other block, in a
    copy of the caller's context (numpy's error state with it), while the
    caller takes the rest and then the tables.  Each block is written by
    one thread with the same arithmetic, so the result does not depend on
    the split, and the step returns or raises only after the worker is done.
    """
    state.steps += 1
    arrays = (store.data, store.grad, state.sq_grad, state.sq_update)
    blocks, c = state._blocks, 2.0 * state.l2_lambda
    if sum(hi - lo for lo, hi in blocks) < SPLIT_MIN or _cpus() < 2:
        _update_blocks(arrays, blocks, state._scratch[0], c)
        _update_tables(store, state)
        return
    odd = _pool().submit(contextvars.copy_context().run,
                         _update_blocks, arrays, blocks[1::2], state._scratch[1], c)
    try:
        _update_blocks(arrays, blocks[::2], state._scratch[0], c)
        _update_tables(store, state)
    finally:
        futures.wait((odd,))
    odd.result()
