"""Relation label schemas and the fine/coarse class index layouts.

A schema holds K directed relation types plus one undirected residual
class.  Fine-grained classes (2K+1): index 0 is the residual, then each
type contributes its (e1,e2) and (e2,e1) variants at 2i+1 and 2i+2.
Coarse classes (K+1): residual at 0, type i at i+1.  flip() swaps the two
directed variants of every type and fixes the residual; it is the
involution used to align backward-path predictions with forward labels.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

from .codec import Document


class UnknownLabel(ValueError):
    pass


@dataclass(frozen=True)
class LabelSchema(Document):
    name: str
    types: tuple[str, ...]
    residual: str = "Other"

    def __post_init__(self):
        object.__setattr__(self, "types", tuple(self.types))
        if not self.types:
            raise ValueError("a schema needs at least one relation type")
        if len(set(self.types)) != len(self.types):
            raise ValueError("duplicate relation types")
        if self.residual in self.types:
            raise ValueError("residual class must be distinct from the relation types")
        if self.residual in {f"{t}({d})" for t in self.types for d in ("e1,e2", "e2,e1")}:
            raise ValueError(f"residual class {self.residual!r} is also a directed label")

    @property
    def k(self) -> int:
        return len(self.types)

    @property
    def fine_size(self) -> int:
        return 2 * self.k + 1

    @property
    def coarse_size(self) -> int:
        return self.k + 1

    # -- label strings <-> indices ------------------------------------

    def parse(self, label: str) -> tuple[str | None, bool]:
        """Split a label into (type, e1->e2?); residual returns (None, True)."""
        if label == self.residual:
            return None, True
        for suffix, fwd in (("(e1,e2)", True), ("(e2,e1)", False)):
            if label.endswith(suffix):
                t = label[: -len(suffix)]
                if t in self.types:
                    return t, fwd
        raise UnknownLabel(f"label {label!r} not in schema {self.name!r}")

    def fine_index(self, label: str) -> int:
        t, fwd = self.parse(label)
        if t is None:
            return 0
        i = self.types.index(t)
        return 2 * i + (1 if fwd else 2)

    def fine_label(self, index: int) -> str:
        if index == 0:
            return self.residual
        i, off = divmod(index - 1, 2)
        return f"{self.types[i]}({'e1,e2' if off == 0 else 'e2,e1'})"

    def coarse_index(self, label: str) -> int:
        t, _ = self.parse(label)
        return 0 if t is None else self.types.index(t) + 1

    # -- direction swap ------------------------------------------------

    def flip(self, index: int) -> int:
        """Swap a fine class with its direction mirror; residual is fixed."""
        if index == 0:
            return 0
        return index + 1 if index % 2 == 1 else index - 1

    def flip_distribution(self, dist):
        """Permute a fine distribution, or (B, K) stacked rows of them (array-like), by
        the direction swap; a new ndarray."""
        import numpy as np  # here, so that reading schemas and data needs no numpy

        dist = np.asarray(dist)
        if dist.ndim not in (1, 2) or dist.shape[-1] != self.fine_size:
            raise ValueError(f"expected shape ({self.fine_size},) or (B, {self.fine_size}), "
                             f"got {dist.shape}")
        out = dist.copy()  # the residual class 0 stays; 2k-1 and 2k swap, as in flip
        out[..., 1::2], out[..., 2::2] = dist[..., 2::2], dist[..., 1::2]
        return out


# The nine directed Sanwen relation types plus Null.
SANWEN = LabelSchema(
    name="sanwen",
    types=(
        "Located",
        "Near",
        "Part-Whole",
        "Family",
        "Social",
        "Create",
        "Use",
        "Ownership",
        "General-Special",
    ),
    residual="Null",
)

# The nine directed SemEval-2010 Task 8 relation types plus Other.
SEMEVAL = LabelSchema(
    name="semeval",
    types=(
        "Cause-Effect",
        "Component-Whole",
        "Content-Container",
        "Entity-Destination",
        "Entity-Origin",
        "Message-Topic",
        "Member-Collection",
        "Instrument-Agency",
        "Product-Agency",
    ),
    residual="Other",
)

BUILTIN_SCHEMAS = {"sanwen": SANWEN, "semeval": SEMEVAL}


def synth_schema(k: int) -> LabelSchema:
    """Generic schema used by the synthetic corpus: Rel1..RelK + Other."""
    return LabelSchema(name=f"synth-k{k}", types=tuple(f"Rel{i + 1}" for i in range(k)))


def load_schema(spec: str) -> LabelSchema:
    """Resolve a schema: builtin name, synth-k<K>, or a JSON file path."""
    if spec in BUILTIN_SCHEMAS:
        return BUILTIN_SCHEMAS[spec]
    m = re.fullmatch(r"synth-k(\d+)", spec)
    if m:
        return synth_schema(int(m.group(1)))
    return LabelSchema.load(spec)
