import numpy as np
import pytest

from pathrel.labels import UnknownLabel, synth_schema
from pathrel.metrics import ConfusionMatrix, f1_score, macro_f1


def oracle_macro_f1(counts, k):
    """Per-type macro F1 computed straight from the counts matrix."""
    scores = []
    for i in range(k):
        a, b = 2 * i + 1, 2 * i + 2
        tp = float(counts[a, a] + counts[b, b])
        predicted = float(counts[:, a].sum() + counts[:, b].sum())
        gold = float(counts[a, :].sum() + counts[b, :].sum())
        p = tp / predicted if predicted > 0 else 0.0
        r = tp / gold if gold > 0 else 0.0
        scores.append(2.0 * p * r / (p + r) if p + r > 0 else 0.0)
    return float(np.mean(scores))


class TestBasics:
    def test_f1_score(self):
        assert f1_score(1.0, 1.0) == 1.0
        assert f1_score(0.5, 0.5) == 0.5
        assert f1_score(0.0, 0.0) == 0.0
        assert f1_score(1.0, 0.5) == pytest.approx(2 / 3)

    def test_perfect_predictions(self):
        schema = synth_schema(3)
        pairs = [(schema.fine_label(i),) * 2 for i in range(schema.fine_size) for _ in range(2)]
        cm = ConfusionMatrix.from_pairs(schema, pairs)
        assert cm.macro_f1() == 1.0
        assert cm.accuracy() == 1.0
        assert cm.total == 2 * schema.fine_size

    def test_unknown_label_rejected(self):
        cm = ConfusionMatrix(synth_schema(2))
        with pytest.raises(UnknownLabel):
            cm.add("Rel9(e1,e2)", "Other")


class TestHandWorkedExample:
    # Rel1 perfectly predicted, Rel2 at P = R = 1/2, Rel3 never found:
    # per-type F1 [1.0, 0.5, 0.0] and macro 0.5 exactly.
    PAIRS = [
        ("Rel1(e1,e2)", "Rel1(e1,e2)"),
        ("Rel1(e2,e1)", "Rel1(e2,e1)"),
        ("Rel2(e1,e2)", "Rel2(e1,e2)"),
        ("Rel2(e1,e2)", "Other"),
        ("Other", "Rel2(e1,e2)"),
        ("Rel3(e1,e2)", "Other"),
    ]

    def test_per_type_and_macro(self):
        schema = synth_schema(3)
        cm = ConfusionMatrix.from_pairs(schema, self.PAIRS)
        assert [cm.type_f1(i) for i in range(3)] == [1.0, 0.5, 0.0]
        assert cm.macro_f1() == 0.5
        assert macro_f1(schema, self.PAIRS) == 0.5

    def test_supports(self):
        cm = ConfusionMatrix.from_pairs(synth_schema(3), self.PAIRS)
        assert [cm.type_support(i) for i in range(3)] == [2, 2, 1]


class TestDirectionSensitivity:
    def test_reversed_direction_is_an_error(self):
        schema = synth_schema(2)
        cm = ConfusionMatrix.from_pairs(schema, [("Rel1(e1,e2)", "Rel1(e2,e1)")])
        assert cm.type_f1(0) == 0.0
        assert cm.accuracy() == 0.0

    def test_direction_confusion_pools_into_both_denominators(self):
        schema = synth_schema(1)
        pairs = [
            ("Rel1(e1,e2)", "Rel1(e1,e2)"),
            ("Rel1(e1,e2)", "Rel1(e2,e1)"),
        ]
        cm = ConfusionMatrix.from_pairs(schema, pairs)
        assert cm.type_precision(0) == 0.5
        assert cm.type_recall(0) == 0.5
        assert cm.type_f1(0) == 0.5

    def test_both_directions_count_as_hits(self):
        schema = synth_schema(1)
        pairs = [
            ("Rel1(e1,e2)", "Rel1(e1,e2)"),
            ("Rel1(e2,e1)", "Rel1(e2,e1)"),
        ]
        assert macro_f1(schema, pairs) == 1.0


class TestResidualExclusion:
    def test_residual_never_scores(self):
        schema = synth_schema(2)
        pairs = [("Other", "Other")] * 10
        cm = ConfusionMatrix.from_pairs(schema, pairs)
        assert cm.accuracy() == 1.0
        assert cm.macro_f1() == 0.0  # no type support, residual ignored

    def test_residual_errors_still_hit_type_scores(self):
        schema = synth_schema(1)
        # false positive against a residual gold lowers type precision
        pairs = [
            ("Rel1(e1,e2)", "Rel1(e1,e2)"),
            ("Other", "Rel1(e1,e2)"),
        ]
        cm = ConfusionMatrix.from_pairs(schema, pairs)
        assert cm.type_precision(0) == 0.5
        assert cm.type_recall(0) == 1.0


class TestRandomMatrixOracle:
    def test_matches_oracle_exactly(self):
        schema = synth_schema(9)
        rng = np.random.default_rng(123)
        for _ in range(300):
            cm = ConfusionMatrix(schema)
            cm.counts[:] = rng.integers(0, 12, size=cm.counts.shape)
            assert cm.macro_f1() == oracle_macro_f1(cm.counts, schema.k)

    def test_sparse_matrices(self):
        schema = synth_schema(4)
        rng = np.random.default_rng(7)
        for _ in range(200):
            cm = ConfusionMatrix(schema)
            n = cm.schema.fine_size
            for _ in range(rng.integers(0, 6)):
                cm.counts[rng.integers(n), rng.integers(n)] += 1
            assert cm.macro_f1() == oracle_macro_f1(cm.counts, schema.k)


class TestSummary:
    def test_summary_shape(self):
        schema = synth_schema(2)
        cm = ConfusionMatrix.from_pairs(
            schema, [("Rel1(e1,e2)", "Rel1(e1,e2)"), ("Rel2(e2,e1)", "Other")]
        )
        doc = cm.summary()
        assert doc["total"] == 2
        assert doc["macro_f1"] == cm.macro_f1()
        assert set(doc["types"]) == {"Rel1", "Rel2"}
        assert doc["types"]["Rel1"] == {
            "precision": 1.0,
            "recall": 1.0,
            "f1": 1.0,
            "support": 1,
        }
        assert doc["types"]["Rel2"]["support"] == 1
        assert doc["types"]["Rel2"]["f1"] == 0.0

    def test_index_bounds(self):
        cm = ConfusionMatrix(synth_schema(2))
        with pytest.raises(IndexError):
            cm.type_f1(2)
        with pytest.raises(IndexError):
            cm.type_f1(-1)
