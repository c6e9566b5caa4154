"""Parameters and recorded nodes for reverse-mode automatic differentiation.

A parameter (Param) is two views into its ParamStore's arenas: its
float64 values and its gradient, which starts zeroed and adds up across
backward calls until the optimizer consumes it (leaving zeros, or with an
L2 weight the next step's L2 gradient, which the optimizer alone writes)
or ParamStore.zero_grad zeroes it.
A recorded node (Node) is a value plus the backward closure that writes
its parameters' gradients and hands its inputs' gradients straight to
the closures of the nodes that made them (model.py); its _parents name
those input nodes.  backward() seeds the loss node and walks no graph.

numpy supplies the array arithmetic only; the parameter store, dropout,
the finite-difference checker and the array kernels the model's nodes
share (softmax, log-sum-exp cross-entropy) live here.
"""

from __future__ import annotations

import mmap
import sys
from typing import NamedTuple

import numpy as np

if sys.platform.startswith("linux"):
    # a private anonymous page dropped by MADV_DONTNEED reads as zeros when next touched
    _GRAD_PAGES, _DROP_PAGES = {"flags": mmap.MAP_PRIVATE | mmap.MAP_ANONYMOUS}, mmap.MADV_DONTNEED
else:
    _GRAD_PAGES, _DROP_PAGES = {}, None


class NonScalarLoss(ValueError):
    pass


class Param(NamedTuple):
    """A trainable parameter: its values and its gradient, views into a store's arenas."""

    data: np.ndarray
    grad: np.ndarray


class Node:
    """A recorded value, the closure that runs its reverse pass, and the nodes it read."""

    __slots__ = ("data", "_backward", "_parents")

    def __init__(self, data, backward, parents=()):
        self.data = data
        self._backward = backward
        self._parents = parents


def softmax_array(z: np.ndarray) -> np.ndarray:
    """Softmax over the last axis (max-shifted for stability): one row or a batch of rows."""
    e = np.exp(z - z.max(axis=-1, keepdims=True))
    return e / e.sum(axis=-1, keepdims=True)


def cross_entropy_array(z: np.ndarray, target: int):
    """(-log softmax(z)[target], softmax(z) - onehot(target)) for 1-D logits z.

    Computed by log-sum-exp, so both stay finite for any finite logits.
    """
    shifted = z - z.max()
    lse = np.log(np.exp(shifted).sum())
    grad = np.exp(shifted - lse)
    grad[target] -= 1.0
    return lse - shifted[target], grad


# ---------------------------------------------------------------------------
# reverse pass


def backward(loss: Node) -> None:
    """Accumulate d(loss)/d(parameter) into the parameters' gradients.

    Each recorded node runs its inputs' backward closures itself (model.py),
    so seeding the root with 1 runs them all.  Gradients add up across
    backward calls until zeroed.
    """
    if loss.data.shape != ():
        raise NonScalarLoss(f"loss must be a scalar, got shape {loss.data.shape}")
    loss._backward(np.asarray(1.0))


# ---------------------------------------------------------------------------
# parameters


class ParamStore:
    """Named trainable parameters laid out once in one float64 arena, in sorted-name order.

    store.data holds every parameter's values and store.grad their
    gradients, zeroed; each Param's data and grad are views into them,
    at the slice spans[name].  Arrays that are already consecutive views
    of one writable float64 vector, in sorted-name order (a loaded
    checkpoint's), make that vector the arena uncopied.  tables names the
    row-sparse 2-D tables (embeddings): a step touches only some of their
    rows.  dense holds the nonempty arena ranges around them.
    """

    def __init__(self, params, tables=()):
        names = sorted(params)
        arrays = [np.asarray(params[name], dtype=np.float64) for name in names]
        size = sum(a.size for a in arrays)
        self.data = _arena(arrays, size)
        # anonymous pages, mapped on first write, so an eval-only model never touches
        # them; np.zeros may reuse freed heap memory, which calloc must clear
        self._grad_pages = mmap.mmap(-1, max(8 * size, 1), **_GRAD_PAGES)
        self.grad = np.frombuffer(self._grad_pages, np.float64, size)
        self.spans: dict[str, slice] = {}
        self._params: dict[str, Param] = {}
        lo = 0
        for name, arr in zip(names, arrays):
            span = self.spans[name] = slice(lo, lo + arr.size)
            self._params[name] = Param(*(a[span].reshape(arr.shape) for a in (self.data, self.grad)))
            lo = span.stop
        self.tables = tuple(tables)
        cuts = sorted(i for name in self.tables for i in (self.spans[name].start, self.spans[name].stop))
        edges = [0, *cuts, size]
        self.dense = [slice(lo, hi) for lo, hi in zip(edges[::2], edges[1::2]) if hi > lo]

    def __getitem__(self, name: str) -> Param:
        return self._params[name]

    def items(self):
        return list(self._params.items())

    def zero_grad(self):
        """Zero every gradient; on Linux the arena's pages also go back to the system."""
        if _DROP_PAGES is None:
            self.grad.fill(0.0)
        else:
            self._grad_pages.madvise(_DROP_PAGES)

    def l2_penalty(self, weight: float) -> float:
        """weight * the sum of squared entries outside the tables; its gradient over
        the dense ranges is AdaDeltaState(store, l2_lambda=weight)'s to write."""
        total = 0.0
        for name, t in self.items():
            if name not in self.tables:
                flat = t.data.reshape(-1)
                total += float(np.dot(flat, flat))
        return weight * total


def _arena(arrays, size: int) -> np.ndarray:
    """The float64 vector that arrays already tile in order, or a new one of their values."""
    base = arrays[0].base if arrays else None
    if isinstance(base, np.ndarray) and base.dtype == np.float64 and base.shape == (size,) \
            and base.flags.c_contiguous and base.flags.writeable:
        starts = base.ctypes.data + 8 * np.cumsum([0] + [a.size for a in arrays])
        if all(a.base is base and a.flags.c_contiguous and a.ctypes.data == at
               for a, at in zip(arrays, starts)):
            return base
    return np.concatenate([np.empty(0), *(a.reshape(-1) for a in arrays)])


def dropout_mask(shape, keep_prob: float, rng: np.random.Generator) -> np.ndarray:
    """Inverted-dropout mask of {0, 1/keep_prob} from rng's next draws.

    keep_prob = 1 yields an all-ones mask; evaluation code simply applies
    no mask at all.
    """
    if not 0.0 < keep_prob <= 1.0:
        raise ValueError(f"keep_prob {keep_prob} outside (0, 1]")
    keep = rng.random(shape) < keep_prob
    return keep.astype(np.float64) / keep_prob


# ---------------------------------------------------------------------------
# finite-difference gradient checking


def finite_difference_check(loss_fn, store: ParamStore, h=1e-5, max_coords=5, rng=None, names=None):
    """Compare analytic gradients with central differences.

    loss_fn must deterministically rebuild the forward graph from the
    store's current values and return the scalar loss node.  Up to
    max_coords coordinates per parameter are sampled.  Returns a list of records
    (name, flat_index, analytic, numeric, rel_err) with
    rel_err = |a - n| / max(|a|, |n|, 1e-6); the floor keeps FD noise on
    near-zero gradients from registering as disagreement.
    """
    rng = rng if isinstance(rng, np.random.Generator) else np.random.default_rng(rng)
    wanted = set(names) if names is not None else None

    store.zero_grad()
    loss = loss_fn()
    backward(loss)
    analytic = store.grad.copy()

    records = []
    for name, span in store.spans.items():
        if wanted is not None and name not in wanted:
            continue
        flat, grad = store.data[span], analytic[span]
        coords = rng.choice(flat.size, size=min(max_coords, flat.size), replace=False)
        for idx in sorted(int(c) for c in coords):
            original = flat[idx]
            flat[idx] = original + h
            up = float(loss_fn().data)
            flat[idx] = original - h
            down = float(loss_fn().data)
            flat[idx] = original
            numeric = (up - down) / (2.0 * h)
            a = float(grad[idx])
            rel = abs(a - numeric) / max(abs(a), abs(numeric), 1e-6)
            records.append((name, idx, a, numeric, rel))
    store.zero_grad()
    return records
