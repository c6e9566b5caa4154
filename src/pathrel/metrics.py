"""Evaluation metrics over the directed fine-grained class layout.

Scoring is direction-sensitive: a prediction counts as a true positive
for a relation type only when both the type and the argument order match
the gold fine class.  Precision and recall for a type pool both directed
variants; the residual class never contributes to the macro average.
"""

from __future__ import annotations

import numpy as np

from .labels import LabelSchema


def _safe_div(num: float, den: float) -> float:
    return num / den if den > 0 else 0.0


def f1_score(precision: float, recall: float) -> float:
    return _safe_div(2.0 * precision * recall, precision + recall)


class ConfusionMatrix:
    """Gold-by-predicted counts over all 2K+1 fine classes."""

    def __init__(self, schema: LabelSchema):
        self.schema = schema
        self.counts = np.zeros((schema.fine_size, schema.fine_size), dtype=np.int64)

    @classmethod
    def from_pairs(cls, schema: LabelSchema, pairs) -> "ConfusionMatrix":
        """Build from an iterable of (gold_label, predicted_label)."""
        cm = cls(schema)
        for gold, pred in pairs:
            cm.add(gold, pred)
        return cm

    def add(self, gold: str, pred: str) -> None:
        self.counts[self.schema.fine_index(gold), self.schema.fine_index(pred)] += 1

    @property
    def total(self) -> int:
        return int(self.counts.sum())

    def accuracy(self) -> float:
        return _safe_div(float(np.trace(self.counts)), float(self.total))

    # -- per relation type (direction-sensitive) ---------------------------

    def _type_rows(self, type_index: int) -> tuple[int, int]:
        if not 0 <= type_index < self.schema.k:
            raise IndexError(f"type index {type_index} outside 0..{self.schema.k - 1}")
        return 2 * type_index + 1, 2 * type_index + 2

    def type_precision(self, type_index: int) -> float:
        a, b = self._type_rows(type_index)
        tp = float(self.counts[a, a] + self.counts[b, b])
        predicted = float(self.counts[:, a].sum() + self.counts[:, b].sum())
        return _safe_div(tp, predicted)

    def type_recall(self, type_index: int) -> float:
        a, b = self._type_rows(type_index)
        tp = float(self.counts[a, a] + self.counts[b, b])
        gold = float(self.counts[a, :].sum() + self.counts[b, :].sum())
        return _safe_div(tp, gold)

    def type_f1(self, type_index: int) -> float:
        return f1_score(self.type_precision(type_index), self.type_recall(type_index))

    def type_support(self, type_index: int) -> int:
        a, b = self._type_rows(type_index)
        return int(self.counts[a, :].sum() + self.counts[b, :].sum())

    def macro_f1(self) -> float:
        """Unweighted mean of the K per-type F1 scores (residual excluded)."""
        return float(np.mean([self.type_f1(i) for i in range(self.schema.k)]))

    def summary(self) -> dict:
        types = {}
        for i, name in enumerate(self.schema.types):
            types[name] = {
                "precision": self.type_precision(i),
                "recall": self.type_recall(i),
                "f1": self.type_f1(i),
                "support": self.type_support(i),
            }
        return {
            "total": self.total,
            "accuracy": self.accuracy(),
            "macro_f1": self.macro_f1(),
            "types": types,
        }


def macro_f1(schema: LabelSchema, pairs) -> float:
    """Macro-averaged direction-sensitive F1 over (gold, predicted) labels."""
    return ConfusionMatrix.from_pairs(schema, pairs).macro_f1()
