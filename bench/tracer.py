"""In-memory span tracer for the benchmark's traced run.

The tracer wraps pathrel functions where their callers look them up: a
module-level function is replaced in every pathrel module that holds it
(``training.backward``, ``model.lstm_step``, ...), a method in its class
dictionary.  Each wrapped call appends one span ``[name, start, end,
parent]`` to a list, and ``installed()`` puts every original back when it
exits.  Nothing in ``src`` knows about the tracer.
"""

from __future__ import annotations

import contextlib
import importlib
import statistics
import sys
import time

PACKAGE = "pathrel"


class Tracer:
    """Collects spans; ``parent`` is the index of the enclosing span or -1."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans: list[list] = []
        self._stack: list[int] = []

    def wrap(self, name: str, fn, observe=None):
        """fn wrapped to record a span; observe(args, result) runs after it."""
        tracer = self

        def traced(*args, **kwargs):
            spans, stack = tracer.spans, tracer._stack
            span = [name, 0.0, 0.0, stack[-1] if stack else -1]
            stack.append(len(spans))
            spans.append(span)
            span[1] = tracer.clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = tracer.clock()
                stack.pop()
            if observe is not None:
                observe(args, result)
            return result

        traced.__name__ = getattr(fn, "__name__", name)
        traced.__qualname__ = getattr(fn, "__qualname__", name)
        traced.__doc__ = fn.__doc__
        traced.__wrapped__ = fn
        traced.bench_span = name
        return traced

    @contextlib.contextmanager
    def installed(self, names, observers=None):
        """Wrap every function in ``names`` (e.g. ``"model.RelationModel.loss"``)."""
        observers = observers or {}
        patches = []
        try:
            for name in names:
                patches.extend(self._patch(name, observers.get(name)))
            yield self
        finally:
            for owner, attr, original in reversed(patches):
                setattr(owner, attr, original)

    def _patch(self, name: str, observe):
        module_name, *attrs = name.split(".")
        module = importlib.import_module(f"{PACKAGE}.{module_name}")
        if len(attrs) == 2:
            cls = getattr(module, attrs[0])
            raw = cls.__dict__[attrs[1]]
            if isinstance(raw, classmethod):
                wrapped = classmethod(self.wrap(name, raw.__func__, observe))
            else:
                wrapped = self.wrap(name, raw, observe)
            setattr(cls, attrs[1], wrapped)
            return [(cls, attrs[1], raw)]
        original = getattr(module, attrs[0])
        wrapped = self.wrap(name, original, observe)
        patches = []
        for owner in pathrel_modules():
            for attr, value in list(vars(owner).items()):
                if value is original:
                    setattr(owner, attr, wrapped)
                    patches.append((owner, attr, original))
        return patches


def pathrel_modules():
    return [
        mod for key, mod in sorted(sys.modules.items())
        if mod is not None and (key == PACKAGE or key.startswith(PACKAGE + "."))
    ]


def leftover_wrappers() -> list[str]:
    """Names of pathrel attributes that are still tracer wrappers."""
    found = []
    for mod in pathrel_modules():
        for attr, value in vars(mod).items():
            if hasattr(value, "bench_span"):
                found.append(f"{mod.__name__}.{attr}")
            if isinstance(value, type) and value.__module__ == mod.__name__:
                for cattr, cvalue in vars(value).items():
                    inner = cvalue.__func__ if isinstance(cvalue, classmethod) else cvalue
                    if hasattr(inner, "bench_span"):
                        found.append(f"{mod.__name__}.{attr}.{cattr}")
    return found


# ---------------------------------------------------------------------------
# aggregation


def _covered(intervals) -> float:
    """Length of the union of (start, end) intervals."""
    total = 0.0
    cur_start = cur_end = None
    for start, end in sorted(intervals):
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def self_times(spans) -> list[float]:
    """Per span: its duration minus the part of it that child spans cover."""
    children = [[] for _ in spans]
    for _, start, end, parent in spans:
        if parent >= 0:
            children[parent].append((start, end))
    out = []
    for (_, start, end, _), kids in zip(spans, children):
        clipped = [(max(s, start), min(e, end)) for s, e in kids if min(e, end) > max(s, start)]
        out.append((end - start) - _covered(clipped))
    return out


def percentile(values, q: float) -> float:
    """Inclusive linear-interpolation percentile; 0.0 for no values."""
    if not values:
        return 0.0
    if len(values) == 1:
        return float(values[0])
    cuts = statistics.quantiles(values, n=100, method="inclusive")
    return float(cuts[int(round(q)) - 1])


def summarize(spans, own=None) -> dict[str, dict]:
    """name -> {"calls", "self_s", "durations"}; own is self_times(spans) if known."""
    out: dict[str, dict] = {}
    for span, self_s in zip(spans, self_times(spans) if own is None else own):
        entry = out.setdefault(span[0], {"calls": 0, "self_s": 0.0, "durations": []})
        entry["calls"] += 1
        entry["self_s"] += self_s
        entry["durations"].append(span[2] - span[1])
    return out


def has_ancestor(spans, index: int, name: str) -> bool:
    parent = spans[index][3]
    while parent >= 0:
        if spans[parent][0] == name:
            return True
        parent = spans[parent][3]
    return False
