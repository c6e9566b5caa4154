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

from .atomic import atomic_open
from .depgraph import (
    ConlluError,
    EntitySpan,
    Instance,
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


def read_lines(path, encoding="utf-8"):
    """The file's UTF-8 lines, any line end read as LF.

    encoding="utf-8-sig" also drops one leading byte-order mark.  A file
    that is not UTF-8 raises ValueError naming it.
    """
    with open(path, "r", encoding=encoding) as fh:
        try:
            yield from fh
        except UnicodeDecodeError as err:
            raise ValueError(f"{path}: not UTF-8 ({err})") from None


def read_text(path, encoding="utf-8") -> str:
    """The whole UTF-8 file in one read, every line end kept as stored; as read_lines otherwise."""
    with open(path, "r", encoding=encoding, newline="") as fh:
        try:
            return fh.read()
        except UnicodeDecodeError as err:
            raise ValueError(f"{path}: not UTF-8 ({err})") from None


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


def _span(doc: dict, key: str) -> EntitySpan:
    span = doc[key]
    # JSON integers only: bool is an int subclass, and int() would take floats and digit strings
    if not (isinstance(span, list) and len(span) == 2 and all(type(v) is int for v in span)):
        raise DatasetError(f"{key} must be two integers, got {json.dumps(span)}")
    return EntitySpan(*span)


def record_to_instance(doc: dict, schema: LabelSchema | None = None) -> Instance:
    missing = {"id", "conllu", "e1", "e2", "label"} - set(doc)
    if missing:
        raise DatasetError(f"record missing keys {sorted(missing)}")
    for key in ("id", "conllu", "label"):
        if not isinstance(doc[key], str):
            raise DatasetError(f"{key} must be a string, got {json.dumps(doc[key])}")
    trees = parse_conllu(doc["conllu"])
    if len(trees) != 1:
        raise DatasetError(f"record must hold exactly one sentence, got {len(trees)}")
    if schema is not None:
        schema.fine_index(doc["label"])  # raises UnknownLabel
    return Instance(
        tree=trees[0],
        e1=_span(doc, "e1"),
        e2=_span(doc, "e2"),
        label=doc["label"],
        sid=doc["id"] or None,
    )


def save_dataset(path, instances) -> None:
    with atomic_open(path, "w", encoding="utf-8") as fh:
        for inst in instances:
            fh.write(json.dumps(instance_to_record(inst), sort_keys=True, separators=(",", ":")))
            fh.write("\n")


def load_dataset(path, schema: LabelSchema | None = None) -> list[Instance]:
    """Read and validate a JSON-lines dataset.

    The first bad record raises with its line number.  Logs a class
    histogram and a plain-SDP length histogram of the loaded instances.
    """
    instances = []
    for line_no, line in enumerate(read_lines(path), start=1):
        if not line.strip():
            continue
        try:
            doc = json.loads(line)
            if not isinstance(doc, dict):
                raise DatasetError("record is not a JSON object")
            instances.append(record_to_instance(doc, schema))
        except (ValueError, KeyError, TypeError) as err:
            # ValueError covers json decode, Conllu, UnknownLabel, span errors
            cls = type(err) if isinstance(err, (DatasetError, ConlluError, UnknownLabel)) else DatasetError
            raise cls(f"{path}:{line_no}: {err}") from None
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


def format_path_line(path: SdpPath) -> str:
    """`e1_head e2_head<TAB>tok:i DIR:deprel tok:j ...`, the heads being the path's two ends."""
    nodes = path.nodes
    steps = "".join(map(" {}:{} tok:{}".format, path.directions, path.deprels, nodes[1:]))
    return f"{nodes[0]} {nodes[-1]}\ttok:{nodes[0]}{steps}"


def path_record(path: SdpPath) -> dict:
    """The path's JSON record; e1_head and e2_head are its two ends."""
    return {
        "e1_head": path.nodes[0],
        "e2_head": path.nodes[-1],
        "nodes": list(path.nodes),
        "edges": list(map(list, zip(path.deprels, path.directions))),
        "forms": list(path.forms),
        "pos": list(path.pos),
    }


_PATH_JSON = json.JSONEncoder(sort_keys=True, separators=(",", ":"))


def format_paths(paths, as_json: bool = False) -> str:
    """One text or JSON line per path, as format_path_line or path_record writes it."""
    lines = (map(_PATH_JSON.encode, map(path_record, paths)) if as_json
             else map(format_path_line, paths))
    return "".join(line + "\n" for line in lines)


# ---------------------------------------------------------------------------
# entity-pair files


def load_entity_pairs(path) -> list[tuple[EntitySpan, EntitySpan]]:
    """One `e1_start e1_end e2_start e2_end` line per sentence, in order.

    Blank lines and lines starting with '#' are skipped, and so is one
    leading byte-order mark.
    """
    pairs = []
    for line_no, line in enumerate(read_lines(path, encoding="utf-8-sig"), start=1):
        body = line.strip()
        if not body or body.startswith("#"):
            continue
        fields = body.split()
        if len(fields) != 4:
            raise DatasetError(f"{path}:{line_no}: expected 4 integers, got {len(fields)} fields")
        try:
            if not all(v.isascii() and "_" not in v for v in fields):
                raise ValueError  # int() also reads `1_0` and non-ASCII digits
            a, b, c, d = (int(v) for v in fields)
        except ValueError:
            raise DatasetError(f"{path}:{line_no}: non-integer span bound") from None
        try:
            pairs.append((EntitySpan(a, b), EntitySpan(c, d)))
            if not (b < c or d < a):
                raise ValueError("entity spans overlap")
        except ValueError as err:
            raise DatasetError(f"{path}:{line_no}: {err}") from None
    return pairs
