"""One strict JSON codec for the documents pathrel reads and writes: the
cut rule, the label schema, the model config and the experiment config."""

from __future__ import annotations

import dataclasses
import functools
import json
import types
import typing

_hints = functools.cache(typing.get_type_hints)  # once per document class; callers only read


class DocumentError(ValueError):
    pass


def _plain(value):
    if isinstance(value, Document):
        return value.to_dict()
    if isinstance(value, frozenset):
        return sorted(value)
    if isinstance(value, tuple):
        return list(value)
    return value


def _matches(value, hint) -> bool:
    """Whether a JSON value can stand for a field annotated hint."""
    origin, args = typing.get_origin(hint), typing.get_args(hint)
    if origin in (typing.Union, types.UnionType):
        return any(_matches(value, arg) for arg in args)
    if origin in (tuple, frozenset):
        return isinstance(value, list) and all(_matches(v, args[0]) for v in value)
    if hint in (int, float):  # an int stands for a float; a bool for neither
        return isinstance(value, (int, hint)) and not isinstance(value, bool)
    return isinstance(value, hint)


class Document:
    """to_dict/from_dict/load for a dataclass whose fields are JSON values or Documents.

    to_dict writes tuples as lists, frozensets as sorted lists and nested
    documents as dicts.  from_dict rejects a non-object, an unknown or
    missing field, a value of the wrong JSON type or one the constructor
    refuses with a DocumentError that names source (a file name, if
    given), the document and the field.  Absent fields take their defaults.
    """

    @classmethod
    def load(cls, path):
        """from_dict over a JSON file; a file that is not JSON raises a DocumentError naming it."""
        with open(path, "r", encoding="utf-8") as fh:
            try:
                doc = json.load(fh)
            except ValueError as err:  # UnicodeDecodeError and JSONDecodeError alike
                raise DocumentError(f"{path}: not UTF-8 JSON ({err})") from None
        return cls.from_dict(doc, source=str(path))

    def to_dict(self) -> dict:
        return {f.name: _plain(getattr(self, f.name)) for f in dataclasses.fields(self)}

    @classmethod
    def from_dict(cls, doc, source: str | None = None):
        where = f"{source}: {cls.__name__}" if source else cls.__name__
        if not isinstance(doc, dict):
            raise DocumentError(f"{where} must be a JSON object, got {type(doc).__name__}")
        fields = {f.name: f for f in dataclasses.fields(cls)}
        unknown = sorted(set(doc) - set(fields))
        if unknown:
            raise DocumentError(f"{where} has unknown field {unknown[0]!r}")
        missing = [n for n, f in fields.items() if n not in doc and f.default is dataclasses.MISSING]
        if missing:
            raise DocumentError(f"{where} is missing field {missing[0]!r}")
        hints = _hints(cls)
        kwargs = dict(doc)
        for name, value in doc.items():
            if isinstance(hints[name], type) and issubclass(hints[name], Document):
                kwargs[name] = hints[name].from_dict(value, f"{where}.{name}")
            elif not _matches(value, hints[name]):
                raise DocumentError(f"{where}.{name} must be {fields[name].type}, got {value!r}")
        try:
            return cls(**kwargs)  # lists become tuples and frozensets here
        except (TypeError, ValueError) as err:
            raise DocumentError(f"{where}: {err}") from None
