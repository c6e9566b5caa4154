import json
import logging

import pytest
from helpers import parse_path_line

from pathrel import data
from pathrel.data import (
    DatasetError,
    format_path_line,
    format_paths,
    instance_to_record,
    load_dataset,
    load_entity_pairs,
    path_record,
    record_to_instance,
    save_dataset,
)
from pathrel.depgraph import (
    ConlluError,
    EntitySpan,
    Instance,
    SdpPath,
    parse_conllu,
    path_between,
)
from pathrel.labels import UnknownLabel, load_schema
from pathrel.synth import SynthConfig, generate

CONLLU = (
    "1\tdogs\t_\tNOUN\t_\t_\t2\tnsubj\t_\t_\n"
    "2\tchase\t_\tVERB\t_\t_\t0\troot\t_\t_\n"
    "3\tcats\t_\tNOUN\t_\t_\t2\tdobj\t_\t_\n"
)


def make_instance(label="Rel1(e1,e2)"):
    tree = parse_conllu(CONLLU)[0]
    return Instance(
        tree=tree,
        e1=EntitySpan(1, 1),
        e2=EntitySpan(3, 3),
        label=label,
        sid="s1",
    )


class TestRecords:
    def test_round_trip(self):
        inst = make_instance()
        back = record_to_instance(instance_to_record(inst))
        assert back.label == inst.label
        assert back.sid == inst.sid
        assert (back.e1.start, back.e1.end) == (1, 1)
        assert (back.e2.start, back.e2.end) == (3, 3)
        assert back.tree.tokens == inst.tree.tokens

    def test_missing_key_rejected(self):
        doc = instance_to_record(make_instance())
        del doc["e2"]
        with pytest.raises(DatasetError, match="e2"):
            record_to_instance(doc)

    def test_schema_validates_label(self):
        doc = instance_to_record(make_instance(label="NotALabel(e1,e2)"))
        with pytest.raises(UnknownLabel):
            record_to_instance(doc, load_schema("synth-k4"))

    def test_multi_sentence_conllu_rejected(self):
        doc = instance_to_record(make_instance())
        doc["conllu"] = CONLLU + "\n" + CONLLU
        with pytest.raises(DatasetError, match="exactly one"):
            record_to_instance(doc)


class TestDatasetFiles:
    def test_save_load_round_trip(self, tmp_path):
        instances = generate(SynthConfig(n=25, k_types=4, seed=3))
        p = tmp_path / "data.jsonl"
        save_dataset(p, instances)
        back = load_dataset(p, load_schema("synth-k4"))
        assert len(back) == 25
        for a, b in zip(instances, back):
            assert a.label == b.label
            assert a.tree.tokens == b.tree.tokens

    def test_byte_determinism(self, tmp_path):
        instances = generate(SynthConfig(n=10, k_types=3, seed=1))
        p1, p2 = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
        save_dataset(p1, instances)
        save_dataset(p2, list(instances))
        assert p1.read_bytes() == p2.read_bytes()

    def test_fail_fast_reports_path_and_line(self, tmp_path):
        p = tmp_path / "data.jsonl"
        good = json.dumps(instance_to_record(make_instance()))
        p.write_text(good + "\n" + "{not json}\n")
        with pytest.raises(DatasetError, match=rf"{p.name}:2: "):
            load_dataset(p)

    def test_fail_fast_preserves_error_type(self, tmp_path):
        doc = instance_to_record(make_instance())
        doc["conllu"] = "1\tbroken\n"
        p = tmp_path / "data.jsonl"
        p.write_text(json.dumps(doc) + "\n")
        with pytest.raises(ConlluError, match=rf"{p.name}:1: "):
            load_dataset(p)
        doc = instance_to_record(make_instance(label="Bogus(e1,e2)"))
        p.write_text(json.dumps(doc) + "\n")
        with pytest.raises(UnknownLabel, match=rf"{p.name}:1: "):
            load_dataset(p, load_schema("synth-k4"))

    def test_histograms_logged(self, tmp_path, caplog):
        p = tmp_path / "data.jsonl"
        save_dataset(p, generate(SynthConfig(n=8, k_types=2, seed=5)))
        with caplog.at_level(logging.INFO, logger="pathrel.data"):
            load_dataset(p)
        text = " ".join(rec.getMessage() for rec in caplog.records)
        assert "class histogram" in text
        assert "path-length histogram" in text

    def test_no_paths_extracted_at_warning(self, tmp_path, caplog, monkeypatch):
        p = tmp_path / "data.jsonl"
        save_dataset(p, generate(SynthConfig(n=8, k_types=2, seed=5)))
        calls = []

        def counting(*args):
            calls.append(args)
            return path_between(*args)

        monkeypatch.setattr(data, "path_between", counting)
        with caplog.at_level(logging.WARNING, logger="pathrel.data"):
            assert len(load_dataset(p)) == 8
        assert calls == []
        with caplog.at_level(logging.INFO, logger="pathrel.data"):
            load_dataset(p)
        assert len(calls) == 8

    def test_empty_file_warns(self, tmp_path, caplog):
        p = tmp_path / "data.jsonl"
        p.write_text("\n\n")
        with caplog.at_level(logging.WARNING, logger="pathrel.data"):
            out = load_dataset(p)
        assert out == []
        assert any("empty" in rec.getMessage() for rec in caplog.records)


class TestPathFiles:
    PATH = SdpPath(
        nodes=(3, 5, 8),
        deprels=("nsubj", "dobj"),
        directions=("UP", "DOWN"),
        forms=("a", "b", "c"),
        pos=("NOUN", "VERB", "NOUN"),
    )

    def test_format_line(self):
        line = format_path_line(self.PATH)
        assert line == "3 8\ttok:3 UP:nsubj tok:5 DOWN:dobj tok:8"

    def test_parse_inverts_format(self):
        e1, e2, back = parse_path_line(format_path_line(self.PATH))
        assert (e1, e2) == (3, 8)
        assert back.nodes == self.PATH.nodes
        assert back.edges == self.PATH.edges

    def test_single_node_path(self):
        path = SdpPath(nodes=(4,), deprels=(), directions=(), forms=("d",), pos=("NOUN",))
        e1, e2, back = parse_path_line(format_path_line(path))
        assert (e1, e2) == (4, 4)
        assert back.nodes == (4,)
        assert back.edges == ()

    def test_bad_item_rejected(self):
        with pytest.raises(DatasetError, match="rel:nsubj"):
            parse_path_line("1 2\ttok:1 rel:nsubj tok:2")

    def test_write_text_and_json(self):
        paths = [self.PATH]
        assert format_paths(paths) == "3 8\ttok:3 UP:nsubj tok:5 DOWN:dobj tok:8\n"
        text = format_paths(paths, as_json=True)
        assert text.endswith("\n") and text.count("\n") == 1
        doc = json.loads(text)
        assert doc == path_record(self.PATH)
        assert (doc["e1_head"], doc["e2_head"]) == (3, 8)
        assert doc["forms"] == ["a", "b", "c"]
        assert doc["edges"] == [["nsubj", "UP"], ["dobj", "DOWN"]]


class TestEntityPairs:
    def test_parses_spans_in_order(self, tmp_path):
        p = tmp_path / "pairs.txt"
        p.write_text("# header comment\n1 2 5 5\n\n3 3 7 8\n")
        pairs = load_entity_pairs(p)
        assert len(pairs) == 2
        (a1, a2), (b1, b2) = pairs
        assert (a1.start, a1.end, a2.start, a2.end) == (1, 2, 5, 5)
        assert (b1.start, b1.end, b2.start, b2.end) == (3, 3, 7, 8)

    def test_wrong_field_count(self, tmp_path):
        p = tmp_path / "pairs.txt"
        p.write_text("1 2 3\n")
        with pytest.raises(DatasetError, match=":1:"):
            load_entity_pairs(p)

    def test_non_integer(self, tmp_path):
        p = tmp_path / "pairs.txt"
        p.write_text("1 2 3 x\n")
        with pytest.raises(DatasetError, match="non-integer"):
            load_entity_pairs(p)
