"""Dense float64 tensors with reverse-mode automatic differentiation.

Every forward op records its inputs and a backward closure on the value
it returns; backward() walks that tape in reverse topological order and
accumulates gradients into leaf tensors.  Gradients add up across
backward calls until explicitly zeroed, so one parameter store can
collect a whole batch.

numpy supplies the array arithmetic only; the tape, the ops' derivative
rules, dropout, and the finite-difference checker live here.
"""

from __future__ import annotations

import numpy as np


class ShapeMismatch(ValueError):
    pass


class NonScalarLoss(ValueError):
    pass


class Tensor:
    """A float64 array plus the tape bookkeeping for reverse mode."""

    __slots__ = ("data", "grad", "requires_grad", "_parents", "_backward")

    def __init__(self, data, requires_grad=False, _parents=(), _backward=None):
        self.data = np.asarray(data, dtype=np.float64)
        self.grad = None
        self.requires_grad = requires_grad
        self._parents = _parents
        self._backward = _backward

    @property
    def shape(self):
        return self.data.shape

    def add_grad(self, g, fresh: bool = False):
        """Accumulate g into the gradient slot.

        fresh=True hands over an array that nothing else references: an
        empty slot then takes it as is instead of a copy.
        """
        if self.grad is not None:
            self.grad += g
        elif fresh:
            self.grad = g
        else:
            self.grad = np.array(g, dtype=np.float64)

    def zero_grad(self):
        self.grad = None

    def __repr__(self):
        return f"Tensor(shape={self.data.shape}, grad={'set' if self.grad is not None else 'none'})"


def constant(data) -> Tensor:
    """A tensor outside the differentiation tape."""
    return Tensor(data)


def _as_tensor(x) -> Tensor:
    return x if isinstance(x, Tensor) else Tensor(x)


def _require_same_shape(a: Tensor, b: Tensor, op: str):
    if a.data.shape != b.data.shape:
        raise ShapeMismatch(f"{op}: shapes {a.data.shape} and {b.data.shape} differ")


# ---------------------------------------------------------------------------
# forward ops


def matmul(a: Tensor, b: Tensor) -> Tensor:
    """Matrix product: (m,n)@(n,) -> (m,) or (m,n)@(n,k) -> (m,k)."""
    a, b = _as_tensor(a), _as_tensor(b)
    if a.data.ndim != 2 or b.data.ndim not in (1, 2) or a.data.shape[1] != b.data.shape[0]:
        raise ShapeMismatch(f"matmul: shapes {a.data.shape} and {b.data.shape} incompatible")
    out = Tensor(a.data @ b.data, _parents=(a, b))

    def backward(g):
        if b.data.ndim == 1:
            a.add_grad(np.outer(g, b.data))
            b.add_grad(a.data.T @ g)
        else:
            a.add_grad(g @ b.data.T)
            b.add_grad(a.data.T @ g)

    out._backward = backward
    return out


def add(a: Tensor, b: Tensor) -> Tensor:
    a, b = _as_tensor(a), _as_tensor(b)
    _require_same_shape(a, b, "add")
    out = Tensor(a.data + b.data, _parents=(a, b))

    def backward(g):
        a.add_grad(g)
        b.add_grad(g)

    out._backward = backward
    return out


def mul(a: Tensor, b: Tensor) -> Tensor:
    """Elementwise product of same-shape tensors."""
    a, b = _as_tensor(a), _as_tensor(b)
    _require_same_shape(a, b, "mul")
    out = Tensor(a.data * b.data, _parents=(a, b))

    def backward(g):
        a.add_grad(g * b.data)
        b.add_grad(g * a.data)

    out._backward = backward
    return out


def concat(parts) -> Tensor:
    """Concatenate 1-D tensors."""
    parts = [_as_tensor(p) for p in parts]
    if not parts:
        raise ShapeMismatch("concat: no inputs")
    for p in parts:
        if p.data.ndim != 1:
            raise ShapeMismatch(f"concat: expected 1-D inputs, got shape {p.data.shape}")
    out = Tensor(np.concatenate([p.data for p in parts]), _parents=tuple(parts))
    sizes = [p.data.shape[0] for p in parts]

    def backward(g):
        offset = 0
        for p, size in zip(parts, sizes):
            p.add_grad(g[offset : offset + size])
            offset += size

    out._backward = backward
    return out


def tanh(a: Tensor) -> Tensor:
    a = _as_tensor(a)
    out = Tensor(np.tanh(a.data), _parents=(a,))

    def backward(g):
        a.add_grad(g * (1.0 - out.data**2))

    out._backward = backward
    return out


def sigmoid_array(x: np.ndarray) -> np.ndarray:
    """Logistic function that never overflows: 1/(1+e^-x) for x >= 0, e^x/(1+e^x) below."""
    e = np.exp(-np.abs(x))
    return np.where(x >= 0, 1.0, e) / (1.0 + e)


def sigmoid(a: Tensor) -> Tensor:
    a = _as_tensor(a)
    out = Tensor(sigmoid_array(a.data), _parents=(a,))

    def backward(g):
        a.add_grad(g * out.data * (1.0 - out.data))

    out._backward = backward
    return out


def max_over(parts) -> Tensor:
    """Elementwise max over a sequence of same-shape 1-D tensors.

    The gradient routes entirely to the position holding the max; ties go
    to the first occurrence.
    """
    parts = [_as_tensor(p) for p in parts]
    if not parts:
        raise ShapeMismatch("max_over: no inputs")
    for p in parts[1:]:
        _require_same_shape(parts[0], p, "max_over")
    stacked = np.stack([p.data for p in parts])
    winner = np.argmax(stacked, axis=0)  # first occurrence on ties
    out = Tensor(stacked[winner, np.arange(stacked.shape[1])], _parents=tuple(parts))

    def backward(g):
        for k, p in enumerate(parts):
            mask = winner == k
            if mask.any():
                p.add_grad(np.where(mask, g, 0.0))

    out._backward = backward
    return out


def softmax(a: Tensor) -> Tensor:
    """Softmax over a 1-D logit vector (max-shifted for stability)."""
    a = _as_tensor(a)
    if a.data.ndim != 1:
        raise ShapeMismatch(f"softmax: expected 1-D logits, got shape {a.data.shape}")
    shifted = a.data - a.data.max()
    e = np.exp(shifted)
    y = e / e.sum()
    out = Tensor(y, _parents=(a,))

    def backward(g):
        a.add_grad(y * (g - np.dot(g, y)))

    out._backward = backward
    return out


def softmax_cross_entropy(logits: Tensor, target: int) -> Tensor:
    """-log softmax(logits)[target], by log-sum-exp; finite for any finite logits.

    The gradient is softmax(logits) - onehot(target).
    """
    logits = _as_tensor(logits)
    if logits.data.ndim != 1:
        raise ShapeMismatch(f"softmax_cross_entropy: expected 1-D logits, got {logits.data.shape}")
    target = int(target)
    shifted = logits.data - logits.data.max()
    lse = np.log(np.exp(shifted).sum())
    out = Tensor(lse - shifted[target], _parents=(logits,))

    def backward(g):
        grad = np.exp(shifted - lse)
        grad[target] -= 1.0
        logits.add_grad(g * grad)

    out._backward = backward
    return out


def gather_rows(table: Tensor, rows) -> Tensor:
    """The (T, D) rows of a 2-D table; the gradient scatter-adds back into it."""
    if table.data.ndim != 2:
        raise ShapeMismatch(f"gather_rows: expected a 2-D table, got {table.data.shape}")
    rows = np.asarray(rows, dtype=np.intp)
    out = Tensor(table.data[rows], _parents=(table,))

    def backward(g):
        if table.grad is None:
            table.grad = np.zeros_like(table.data)
        np.add.at(table.grad, rows, g)

    out._backward = backward
    return out


# ---------------------------------------------------------------------------
# reverse pass


def backward(loss: Tensor) -> None:
    """Accumulate d(loss)/d(leaf) into every reachable tensor's grad slot.

    Leaf gradients (requires_grad tensors, e.g. ParamStore entries) add up
    across backward calls until zeroed; tape-internal gradients are
    transient and reset on every call.
    """
    if loss.data.shape != ():
        raise NonScalarLoss(f"loss must be a scalar, got shape {loss.data.shape}")
    order = []
    seen = set()
    stack = [(loss, False)]
    while stack:
        node, expanded = stack.pop()
        if expanded:
            order.append(node)
            continue
        if id(node) in seen:
            continue
        seen.add(id(node))
        stack.append((node, True))
        for parent in node._parents:
            if id(parent) not in seen:
                stack.append((parent, False))
    for node in order:
        if not node.requires_grad:
            node.grad = None
    loss.add_grad(np.asarray(1.0))
    for node in reversed(order):
        if node._backward is not None and node.grad is not None:
            node._backward(node.grad)


# ---------------------------------------------------------------------------
# parameters


class ParamStore:
    """Named trainable tensors with matching gradient slots."""

    def __init__(self):
        self._params: dict[str, Tensor] = {}

    def add(self, name: str, data) -> Tensor:
        if name in self._params:
            raise ValueError(f"parameter {name!r} already registered")
        t = Tensor(np.array(data, dtype=np.float64), requires_grad=True)
        self._params[name] = t
        return t

    def __getitem__(self, name: str) -> Tensor:
        return self._params[name]

    def __contains__(self, name: str) -> bool:
        return name in self._params

    def names(self) -> list[str]:
        return sorted(self._params)

    def items(self):
        return [(name, self._params[name]) for name in self.names()]

    def zero_grad(self):
        for t in self._params.values():
            t.zero_grad()

    def l2_penalty(self, weight: float, include=None) -> Tensor:
        """weight * sum of squared entries over the selected parameters.

        include defaults to every parameter; pass a predicate on names to
        exclude e.g. embedding tables.  One tape node: its backward adds
        2 * weight * w to each selected parameter's gradient.
        """
        params = [t for name, t in self.items() if include is None or include(name)]
        total = 0.0
        for t in params:
            flat = t.data.reshape(-1)
            total += float(np.dot(flat, flat))
        out = Tensor(weight * total, _parents=tuple(params))

        def backward(g):
            c = 2.0 * weight * g
            for t in params:
                t.add_grad(c * t.data, fresh=True)

        out._backward = backward
        return out


def dropout_mask(shape, keep_prob: float, seed) -> np.ndarray:
    """Inverted-dropout mask of {0, 1/keep_prob}; same seed, same mask.

    seed may be an integer or a numpy Generator.  keep_prob = 1 yields an
    all-ones mask; evaluation code simply applies no mask at all.
    """
    if not 0.0 < keep_prob <= 1.0:
        raise ValueError(f"keep_prob {keep_prob} outside (0, 1]")
    rng = seed if isinstance(seed, np.random.Generator) else np.random.default_rng(seed)
    keep = rng.random(shape) < keep_prob
    return keep.astype(np.float64) / keep_prob


# ---------------------------------------------------------------------------
# finite-difference gradient checking


def finite_difference_check(loss_fn, store: ParamStore, h=1e-5, max_coords=5, rng=None, names=None):
    """Compare analytic gradients with central differences.

    loss_fn must deterministically rebuild the forward graph from the
    store's current values and return the scalar loss tensor.  Up to
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
    analytic = {
        name: (t.grad.copy() if t.grad is not None else np.zeros_like(t.data))
        for name, t in store.items()
    }

    records = []
    for name, tensor in store.items():
        if wanted is not None and name not in wanted:
            continue
        size = tensor.data.size
        count = min(max_coords, size)
        coords = rng.choice(size, size=count, replace=False)
        flat = tensor.data.reshape(-1)
        for idx in sorted(int(c) for c in coords):
            original = flat[idx]
            flat[idx] = original + h
            up = float(loss_fn().data)
            flat[idx] = original - h
            down = float(loss_fn().data)
            flat[idx] = original
            numeric = (up - down) / (2.0 * h)
            a = float(analytic[name].reshape(-1)[idx])
            rel = abs(a - numeric) / max(abs(a), abs(numeric), 1e-6)
            records.append((name, idx, a, numeric, rel))
    store.zero_grad()
    return records
