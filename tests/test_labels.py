import json

import numpy as np
import pytest
from helpers import oracle_coarse_index, oracle_fine_index, oracle_fine_label
from hypothesis import given, settings
from hypothesis import strategies as st

from pathrel.labels import (
    BUILTIN_SCHEMAS,
    SANWEN,
    SEMEVAL,
    LabelSchema,
    UnknownLabel,
    load_schema,
    synth_schema,
)


@pytest.fixture(params=["sanwen", "semeval"])
def schema(request):
    return BUILTIN_SCHEMAS[request.param]


class TestLayout:
    def test_builtin_sizes(self, schema):
        assert schema.k == 9
        assert schema.fine_size == 19
        assert schema.coarse_size == 10

    def test_residual_names(self):
        assert SANWEN.residual == "Null"
        assert SEMEVAL.residual == "Other"

    def test_fine_index_layout(self, schema):
        assert schema.fine_index(schema.residual) == 0
        for i, t in enumerate(schema.types):
            assert schema.fine_index(f"{t}(e1,e2)") == 2 * i + 1
            assert schema.fine_index(f"{t}(e2,e1)") == 2 * i + 2

    def test_fine_label_round_trip(self, schema):
        for idx in range(schema.fine_size):
            assert schema.fine_index(schema.fine_label(idx)) == idx

    def test_coarse_layout(self, schema):
        assert schema.coarse_index(schema.residual) == 0
        for i, t in enumerate(schema.types):
            assert schema.coarse_index(f"{t}(e1,e2)") == i + 1
            assert schema.coarse_index(f"{t}(e2,e1)") == i + 1


def _schema_or_none(name, types, residual):
    try:
        return LabelSchema(name=name, types=types, residual=residual)
    except ValueError:
        return None


def _outcome(f, *args):
    """f's value, or the message of the UnknownLabel it raises."""
    try:
        return "value", f(*args)
    except UnknownLabel as err:
        return "unknown", str(err)


class TestParse:
    def test_residual(self, schema):
        assert schema.fine_index(schema.residual) == 0
        assert schema.coarse_index(schema.residual) == 0

    def test_directed(self):
        assert SEMEVAL.fine_index("Cause-Effect(e1,e2)") == 1
        assert SEMEVAL.fine_index("Cause-Effect(e2,e1)") == 2
        assert SEMEVAL.coarse_index("Cause-Effect(e1,e2)") == 1
        assert SEMEVAL.coarse_index("Cause-Effect(e2,e1)") == 1

    def test_unknown_labels(self, schema):
        for bad in ["Nope(e1,e2)", "Cause-Effect", "Located", "", "(e1,e2)"]:
            with pytest.raises(UnknownLabel):
                schema.fine_index(bad)

    def test_cross_schema_labels_rejected(self):
        for schema, label, message in (
            (SANWEN, "Cause-Effect(e1,e2)", "label 'Cause-Effect(e1,e2)' not in schema 'sanwen'"),
            (SEMEVAL, "Null", "label 'Null' not in schema 'semeval'"),
        ):
            for index in (schema.fine_index, schema.coarse_index):
                with pytest.raises(UnknownLabel) as err:
                    index(label)
                assert str(err.value) == message

    # type names and residuals from pieces that put parentheses, empty names and
    # direction suffixes inside a name, or any short text
    NAMES = st.one_of(
        st.lists(st.sampled_from(("A", "B", "Other", "(", ")", "e1,e2", "(e1,e2)", "(e2,e1)", "")),
                 max_size=3).map("".join),
        st.text(max_size=3),
    )
    SCHEMAS = st.builds(_schema_or_none, st.sampled_from(("x", "y")),
                        st.lists(NAMES, min_size=1, max_size=4, unique=True), NAMES
                        ).filter(lambda schema: schema is not None)

    @settings(max_examples=300, deadline=None)
    @given(schema=SCHEMAS, other=SCHEMAS, data=st.data())
    def test_table_agrees_with_suffix_parser(self, schema, other, data):
        """fine_label, fine_index and coarse_index give what the suffix parser gives on
        a schema's own labels, on near misses of them and on another schema's labels: the
        same index, or UnknownLabel with the same message."""
        labels = [oracle_fine_label(schema, i) for i in range(schema.fine_size)]
        assert [schema.fine_label(i) for i in range(schema.fine_size)] == labels
        label = data.draw(st.sampled_from(labels))
        probes = data.draw(st.lists(st.one_of(
            st.sampled_from(labels),
            st.sampled_from(schema.types),
            st.sampled_from([oracle_fine_label(other, i) for i in range(other.fine_size)]),
            st.sampled_from([label[:-1], label[1:], label.replace("e1", "e2"), label + ")"]),
            st.tuples(self.NAMES, self.NAMES).map(lambda ab: ab[0] + label + ab[1]),
            self.NAMES,
        ), min_size=1, max_size=8))
        for probe in probes:
            assert _outcome(schema.fine_index, probe) == _outcome(oracle_fine_index, schema, probe)
            assert _outcome(schema.coarse_index, probe) == _outcome(oracle_coarse_index, schema, probe)


class TestFlip:
    def test_fixed_point_and_pairs(self, schema):
        assert schema.flip(0) == 0
        for i in range(schema.k):
            assert schema.flip(2 * i + 1) == 2 * i + 2
            assert schema.flip(2 * i + 2) == 2 * i + 1

    def test_involution(self, schema):
        for idx in range(schema.fine_size):
            assert schema.flip(schema.flip(idx)) == idx

    def test_flip_label(self):
        def flip_label(label):
            return SANWEN.fine_label(SANWEN.flip(SANWEN.fine_index(label)))

        assert flip_label("Located(e1,e2)") == "Located(e2,e1)"
        assert flip_label("Located(e2,e1)") == "Located(e1,e2)"
        assert flip_label("Null") == "Null"

    def test_flip_distribution_permutes(self, schema):
        rng = np.random.default_rng(0)
        dist = rng.random(schema.fine_size)
        flipped = schema.flip_distribution(dist)
        for idx in range(schema.fine_size):
            assert flipped[schema.flip(idx)] == dist[idx]
        assert np.array_equal(schema.flip_distribution(flipped), dist)
        assert flipped.sum() == pytest.approx(dist.sum())

    def test_flip_distribution_shape_check(self, schema):
        with pytest.raises(ValueError):
            schema.flip_distribution(np.zeros(schema.fine_size + 1))

    def test_flip_distribution_takes_a_list(self, schema):
        dist = [float(i) for i in range(schema.fine_size)]
        flipped = schema.flip_distribution(dist)
        assert isinstance(flipped, np.ndarray)
        assert np.array_equal(flipped, schema.flip_distribution(np.array(dist)))
        assert dist == [float(i) for i in range(schema.fine_size)]

    def test_flip_distribution_returns_a_new_array(self, schema):
        dist = np.arange(schema.fine_size, dtype=float)
        flipped = schema.flip_distribution(dist)
        assert flipped is not dist and not np.shares_memory(flipped, dist)
        assert np.array_equal(dist, np.arange(schema.fine_size))

    def test_flip_distribution_wrong_shape_message(self):
        for bad, shape in (([[0.0] * 20] * 2, r"\(2, 20\)"), ([[[0.0] * 19]], r"\(1, 1, 19\)"),
                           (0.0, r"\(\)")):
            with pytest.raises(ValueError, match=rf"^expected shape \(19,\) or \(B, 19\), got {shape}$"):
                SANWEN.flip_distribution(bad)

    def test_flip_distribution_flips_stacked_rows(self, schema):
        """(B, K) rows flip as each row alone would, bit for bit."""
        rows = np.random.default_rng(1).random((3, schema.fine_size))
        flipped = schema.flip_distribution(rows)
        assert flipped.shape == rows.shape and not np.shares_memory(flipped, rows)
        for got, row in zip(flipped, rows):
            assert got.tobytes() == schema.flip_distribution(row).tobytes()


class TestConstruction:
    def test_validation(self):
        with pytest.raises(ValueError):
            LabelSchema(name="x", types=())
        with pytest.raises(ValueError):
            LabelSchema(name="x", types=("A", "A"))
        with pytest.raises(ValueError):
            LabelSchema(name="x", types=("Other",))
        for residual in ("A(e1,e2)", "A(e2,e1)", "B(e1,e2)"):
            with pytest.raises(ValueError, match="directed label"):
                LabelSchema(name="x", types=("A", "B"), residual=residual)

    # labels built from pieces that can make a residual, a type and a directed label collide
    LABELS = st.lists(st.sampled_from(("A", "B", "Other", "(e1,e2)", "(e2,e1)", "e1,e2", "")),
                      max_size=3).map("".join)

    @settings(max_examples=300, deadline=None)
    @given(types=st.lists(LABELS, max_size=4), residual=LABELS)
    def test_every_schema_that_constructs_indexes_one_to_one(self, types, residual):
        """A schema constructs unless its types are empty or repeat, or its residual is a
        type or a directed label; one that constructs maps every fine class to a label
        that indexes back to it, and flip is an involution."""
        directed = {f"{t}({d})" for t in types for d in ("e1,e2", "e2,e1")}
        valid = types and len(set(types)) == len(types) and residual not in {*types, *directed}
        try:
            schema = LabelSchema(name="x", types=types, residual=residual)
        except ValueError:
            assert not valid
            return
        assert valid
        labels = [schema.fine_label(i) for i in range(schema.fine_size)]
        assert [schema.fine_index(label) for label in labels] == list(range(schema.fine_size))
        assert all(schema.flip(schema.flip(i)) == i for i in range(schema.fine_size))

    def test_synth_schema(self):
        s = synth_schema(4)
        assert s.name == "synth-k4"
        assert s.types == ("Rel1", "Rel2", "Rel3", "Rel4")
        assert s.residual == "Other"
        assert s.fine_size == 9 and s.coarse_size == 5

    def test_dict_round_trip(self, schema):
        assert LabelSchema.from_dict(schema.to_dict()) == schema

    def test_label_table_is_not_a_field(self):
        a = LabelSchema(name="x", types=("A", "B"))
        b = LabelSchema(name="x", types=["A", "B"])
        assert a.to_dict() == {"name": "x", "types": ["A", "B"], "residual": "Other"}
        assert a == b and hash(a) == hash(b)
        assert repr(a) == "LabelSchema(name='x', types=('A', 'B'), residual='Other')"
        assert a != LabelSchema(name="x", types=("B", "A"))


class TestLoadSchema:
    def test_builtin_names(self):
        assert load_schema("sanwen") is SANWEN
        assert load_schema("semeval") is SEMEVAL

    def test_synth_pattern(self):
        assert load_schema("synth-k7") == synth_schema(7)

    def test_json_file(self, tmp_path):
        path = tmp_path / "custom.json"
        custom = LabelSchema(name="tiny", types=("Alpha", "Beta"), residual="None-of-these")
        path.write_text(json.dumps(custom.to_dict()), encoding="utf-8")
        assert load_schema(str(path)) == custom

    def test_missing_file(self, tmp_path):
        with pytest.raises(OSError):
            load_schema(str(tmp_path / "nope.json"))
