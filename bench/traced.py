"""The traced run: what it wraps, what it counts, and the per-layer metrics it yields.

The spanned functions are read off BENCHMARK.json's per_layer names:
``<function>.calls`` names a spanned function, and ``<function>.ms_p50``
one called once per record, path or example, which also gets latency
percentiles.
"""

from __future__ import annotations

import json

import oracles
from tracer import Tracer, has_ancestor, percentile, self_times, summarize


def tape_size(loss) -> int:
    """Tensors reachable from the loss through the tape."""
    seen = {id(loss)}
    stack = [loss]
    while stack:
        for parent in stack.pop()._parents:
            if id(parent) not in seen:
                seen.add(id(parent))
                stack.append(parent)
    return len(seen)


def spanned_functions(per_layer_names) -> tuple[list[str], set[str]]:
    """(every spanned function, the per-example ones) from the per-layer metric names."""
    spanned = [n[: -len(".calls")] for n in per_layer_names if n.endswith(".calls")]
    per_example = {n[: -len(".ms_p50")] for n in per_layer_names if n.endswith(".ms_p50")}
    return spanned, per_example


class TracedRun:
    """Spans and counts accumulated over the traced rounds of one run."""

    def __init__(self, per_layer_names):
        self.spanned, self.per_example = spanned_functions(per_layer_names)
        self.tracer = Tracer()
        self.obs = {"tape": [], "paths": [], "bytes": [], "params": []}
        self.wall = 0.0
        obs = self.obs
        self.observers = {
            "autodiff.backward": lambda a, r: obs["tape"].append(tape_size(a[0])),
            "structreg.extract_sr_sdp":
                lambda a, r: obs["paths"].append((a[0].base, a[1], a[2], len(r.nodes))),
            "checkpoint.checkpoint_bytes": lambda a, r: obs["bytes"].append(len(r)),
            "model.RelationModel.save":
                lambda a, r: obs["params"].append(sum(t.data.size for _, t in a[0].store.items())),
        }

    def run(self, body, rnd) -> None:
        """body() with every spanned function wrapped; rnd.wall joins the traced wall time."""
        with self.tracer.installed(self.spanned, self.observers):
            body()
        self.wall += rnd.wall

    def metrics(self) -> dict[str, float]:
        return layer_metrics(self.tracer.spans, self.obs, self.wall,
                             self.spanned, self.per_example)


def _mean(values) -> float:
    return sum(values) / len(values) if values else 0.0


def layer_metrics(spans, obs, wall: float, spanned, per_example) -> dict[str, float]:
    own = self_times(spans)
    summary = summarize(spans, own)
    empty = {"calls": 0, "self_s": 0.0, "durations": []}
    m: dict[str, float] = {}
    for name in spanned:
        entry = summary.get(name, empty)
        m[f"{name}.calls"] = entry["calls"]
        m[f"{name}.self_s"] = entry["self_s"]
        if name in per_example:
            m[f"{name}.ms_p50"] = percentile(entry["durations"], 50) * 1e3
            m[f"{name}.ms_p99"] = percentile(entry["durations"], 99) * 1e3

    def total(name):
        return sum(summary.get(name, empty)["durations"])

    examples = m["model.RelationModel.loss.calls"] + m["model.RelationModel.predict.calls"]
    plain = [
        len(oracles.bfs_path(*oracles.tree_parents(tree), h1, h2)[0])
        for tree, h1, h2, _ in obs["paths"]
    ]
    sr = [n for *_, n in obs["paths"]]
    step = total("model.RelationModel.loss") + total("autodiff.backward") + total("optim.adadelta_step")

    paths_layers = ("structreg.", "depgraph.")
    paths_in_train = sum(
        own[i] for i, s in enumerate(spans)
        if s[0].startswith(paths_layers) and has_ancestor(spans, i, "training.train")
    )
    train = total("training.train")
    model_layers = sum(e["self_s"] for n, e in summary.items()
                       if n.startswith(("model.", "autodiff.", "optim.")))

    m.update({
        "autodiff.tape_nodes_per_example": _mean(obs["tape"]),
        "model.lstm_steps_per_example": m["model.lstm_step.calls"] / examples if examples else 0.0,
        "structreg.sr_path_nodes_mean": _mean(sr),
        "depgraph.plain_path_nodes_mean": _mean(plain),
        "structreg.sr_longer_than_plain": sum(a > b for a, b in zip(sr, plain)),
        "data.load_dataset.path_between_calls": sum(
            1 for i, s in enumerate(spans)
            if s[0] == "depgraph.path_between" and has_ancestor(spans, i, "data.load_dataset")
        ),
        "checkpoint.bytes": obs["bytes"][-1] if obs["bytes"] else 0,
        "model.params": obs["params"][-1] if obs["params"] else 0,
        "share.optim_of_step": summary.get("optim.adadelta_step", empty)["self_s"] / step if step else 0.0,
        "share.structreg_depgraph_of_train": paths_in_train / train if train else 0.0,
        "share.model_autodiff_optim_of_wall": model_layers / wall,
    })
    return m


def write_spans(tracer: Tracer, path: str) -> None:
    """Spans as [name, start, end, parent], times relative to the first start."""
    base = tracer.spans[0][1] if tracer.spans else 0.0
    with open(path, "w", encoding="utf-8") as fh:
        json.dump([[n, s - base, e - base, p] for n, s, e, p in tracer.spans], fh)
