"""File formats: JSON-lines datasets, path files, and entity-pair files.

A dataset is one JSON object per line:

    {"id": "s1", "conllu": "<one CoNLL-U sentence>",
     "e1": [start, end], "e2": [start, end], "label": "Use(e1,e2)"}

Spans are inclusive 1-based token indices.  Writing sorts keys and uses
compact separators, so equal datasets are byte-identical.

Extracted paths are written either as text lines

    e1_head e2_head<TAB>tok:3 UP:nsubj tok:5 DOWN:dobj tok:8

or as a JSON-lines variant that also carries forms and POS tags.
"""

from __future__ import annotations

import json
import logging
from collections import Counter

from .depgraph import (
    ConlluError,
    EntitySpan,
    Instance,
    PathEdge,
    SdpPath,
    entity_head,
    parse_conllu,
    path_between,
    serialize_conllu,
)
from .labels import LabelSchema, UnknownLabel

logger = logging.getLogger(__name__)


class DatasetError(ValueError):
    pass


# ---------------------------------------------------------------------------
# dataset records


def instance_to_record(inst: Instance) -> dict:
    return {
        "id": inst.sid or "",
        "conllu": serialize_conllu([inst.tree]),
        "e1": [inst.e1.start, inst.e1.end],
        "e2": [inst.e2.start, inst.e2.end],
        "label": inst.label,
    }


def record_to_instance(doc: dict, schema: LabelSchema | None = None) -> Instance:
    missing = {"id", "conllu", "e1", "e2", "label"} - set(doc)
    if missing:
        raise DatasetError(f"record missing keys {sorted(missing)}")
    trees = parse_conllu(doc["conllu"])
    if len(trees) != 1:
        raise DatasetError(f"record must hold exactly one sentence, got {len(trees)}")
    if schema is not None:
        schema.fine_index(doc["label"])  # raises UnknownLabel
    (s1, t1), (s2, t2) = doc["e1"], doc["e2"]
    return Instance(
        tree=trees[0],
        e1=EntitySpan(int(s1), int(t1), "e1"),
        e2=EntitySpan(int(s2), int(t2), "e2"),
        label=doc["label"],
        sid=str(doc["id"]) or None,
    )


def save_dataset(path, instances) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for inst in instances:
            fh.write(json.dumps(instance_to_record(inst), sort_keys=True, separators=(",", ":")))
            fh.write("\n")


def load_dataset(path, schema: LabelSchema | None = None, fail_fast: bool = True) -> list[Instance]:
    """Read and validate a JSON-lines dataset.

    With fail_fast (the default) the first bad record raises with its line
    number; otherwise bad records are logged and skipped.  Logs a class
    histogram and a plain-SDP length histogram of the loaded instances.
    """
    instances = []
    with open(path, "r", encoding="utf-8") as fh:
        for line_no, line in enumerate(fh, start=1):
            if not line.strip():
                continue
            try:
                doc = json.loads(line)
                if not isinstance(doc, dict):
                    raise DatasetError("record is not a JSON object")
                instances.append(record_to_instance(doc, schema))
            except (ValueError, KeyError, TypeError) as err:
                # ValueError covers json decode, Conllu, UnknownLabel, span errors
                if fail_fast:
                    cls = type(err) if isinstance(err, (DatasetError, ConlluError, UnknownLabel)) else DatasetError
                    raise cls(f"{path}:{line_no}: {err}") from None
                logger.error("%s:%d: skipping bad record: %s", path, line_no, err)
    if not instances:
        logger.warning("%s: dataset is empty", path)
        return instances

    if logger.isEnabledFor(logging.INFO):  # the histograms extract every plain path
        labels = Counter(inst.label for inst in instances)
        lengths = Counter(
            len(path_between(i.tree, entity_head(i.tree, i.e1), entity_head(i.tree, i.e2)))
            for i in instances
        )
        logger.info("%s: %d instances", path, len(instances))
        logger.info("class histogram: %s", dict(sorted(labels.items())))
        logger.info("plain path-length histogram: %s", dict(sorted(lengths.items())))
    return instances


# ---------------------------------------------------------------------------
# extracted-path files


def format_path_line(e1_head: int, e2_head: int, path: SdpPath) -> str:
    parts = [f"tok:{path.nodes[0]}"]
    for edge, node in zip(path.edges, path.nodes[1:]):
        parts.append(f"{edge.direction}:{edge.deprel}")
        parts.append(f"tok:{node}")
    return f"{e1_head} {e2_head}\t" + " ".join(parts)


def parse_path_line(line: str) -> tuple[int, int, SdpPath]:
    """Inverse of format_path_line (token indices and edges only)."""
    head_part, _, body = line.rstrip("\n").partition("\t")
    e1_head, e2_head = (int(v) for v in head_part.split())
    nodes = []
    edges = []
    for item in body.split(" "):
        kind, _, value = item.partition(":")
        if kind == "tok":
            nodes.append(int(value))
        elif kind in ("UP", "DOWN"):
            edges.append(PathEdge(value, kind))
        else:
            raise DatasetError(f"bad path item {item!r}")
    return e1_head, e2_head, SdpPath(nodes=tuple(nodes), edges=tuple(edges))


def path_record(e1_head: int, e2_head: int, path: SdpPath) -> dict:
    return {
        "e1_head": e1_head,
        "e2_head": e2_head,
        "nodes": list(path.nodes),
        "edges": [[e.deprel, e.direction] for e in path.edges],
        "forms": list(path.forms),
        "pos": list(path.pos),
    }


def write_paths(path, rows, as_json: bool = False) -> None:
    """rows: iterable of (e1_head, e2_head, SdpPath)."""
    with open(path, "w", encoding="utf-8") as fh:
        for e1_head, e2_head, sdp in rows:
            if as_json:
                fh.write(json.dumps(path_record(e1_head, e2_head, sdp), sort_keys=True, separators=(",", ":")))
            else:
                fh.write(format_path_line(e1_head, e2_head, sdp))
            fh.write("\n")


# ---------------------------------------------------------------------------
# entity-pair files


def load_entity_pairs(path) -> list[tuple[EntitySpan, EntitySpan]]:
    """One `e1_start e1_end e2_start e2_end` line per sentence, in order.

    Blank lines and lines starting with '#' are skipped.
    """
    pairs = []
    with open(path, "r", encoding="utf-8") as fh:
        for line_no, line in enumerate(fh, start=1):
            body = line.strip()
            if not body or body.startswith("#"):
                continue
            fields = body.split()
            if len(fields) != 4:
                raise DatasetError(f"{path}:{line_no}: expected 4 integers, got {len(fields)} fields")
            try:
                a, b, c, d = (int(v) for v in fields)
            except ValueError:
                raise DatasetError(f"{path}:{line_no}: non-integer span bound") from None
            pairs.append((EntitySpan(a, b, "e1"), EntitySpan(c, d, "e2")))
    return pairs
