import contextlib
import io
import json
import math
import os
import subprocess
import sys
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest
from helpers import (
    bfs_path,
    cut_oracle,
    edit_header,
    entity_head_by_scan,
    lined_by_hand,
    parse_conllu_reference,
    parse_path_line,
    random_tree,
    split_checkpoint,
)
from hypothesis import example, given, settings
from hypothesis import strategies as st

from pathrel import cli, training
from pathrel.autodiff import NonScalarLoss
from pathrel.cli import main
from pathrel.data import format_paths, instance_to_record, load_dataset
from pathrel.depgraph import ConlluError, EntitySpan, entity_head, serialize_conllu
from pathrel.model import EmptyPath, ModelConfig
from pathrel.structreg import CutRule, cut_and_line, extract_sr_sdp, select_cuts
from pathrel.synth import SynthConfig, generate
from pathrel.training import ExperimentConfig, prepare_paths, train

SRC = str(Path(__file__).resolve().parent.parent / "src")

CONLLU = (
    "1\tdogs\t_\tNOUN\t_\t_\t2\tnsubj\t_\t_\n"
    "2\tsleep\t_\tVERB\t_\t_\t0\troot\t_\t_\n"
    "3\ton\t_\tADP\t_\t_\t2\tprep\t_\t_\n"
    "4\tmats\t_\tNOUN\t_\t_\t3\tpobj\t_\t_\n"
)


@pytest.fixture
def dataset(tmp_path):
    p = tmp_path / "train.jsonl"
    assert main(["synth", "--out", str(p), "--n", "14", "--k", "2", "--seed", "3",
                 "--blocks", "1", "--fillers", "1", "--residual-frac", "0.0"]) == 0
    return p


def tiny_config_file(tmp_path, **kw):
    cfg = ExperimentConfig(
        model=ModelConfig(word_dim=6, rel_dim=4, conv_dim=6, keep_prob=1.0, l2_lambda=0.0),
        schema="synth-k2",
        epochs=1,
        **kw,
    )
    p = tmp_path / "config.json"
    cfg.save(p)
    return p


def pathrel_under_hash_seed(hash_seed, *args):
    """`python -m pathrel args` in a fresh process under PYTHONHASHSEED hash_seed; must exit 0."""
    env = {**os.environ, "PYTHONHASHSEED": hash_seed, "PYTHONWARNINGS": "error",
           "PYTHONPATH": os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run([sys.executable, "-m", "pathrel", *args],
                          env=env, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr


def random_corpus(rng, count):
    """count random trees of 2-15 tokens, each with two disjoint entity spans in random order."""
    trees, spans = [], []
    for _ in range(count):
        tree = random_tree(rng, n=int(rng.integers(2, 16)))
        a, b = sorted(int(x) for x in rng.choice(np.arange(1, tree.n + 1), 2, replace=False))
        pair = [(int(rng.integers(1, a + 1)), a), (b, int(rng.integers(b, tree.n + 1)))]
        trees.append(tree)
        spans.append(pair[::-1] if rng.random() < 0.5 else pair)
    return trees, spans


def write_corpus(directory, trees, spans):
    """The CoNLL-U file and the pair file of a corpus; spans as ((s1, t1), (s2, t2)) per tree."""
    conllu, pairs = directory / "s.conllu", directory / "pairs.txt"
    conllu.write_text(serialize_conllu(trees), encoding="utf-8")
    pairs.write_text("".join(f"{s1} {t1} {s2} {t2}\n" for (s1, t1), (s2, t2) in spans))
    return conllu, pairs


def whole_corpus_output(text, spans, rule, as_json):
    """extract-sdp's output by a second route: the trees of parse_conllu_reference,
    cut by one select_cuts pass over the whole corpus, through format_paths."""
    trees = parse_conllu_reference(text)
    paths = []
    for tree, cuts, ((s1, t1), (s2, t2)) in zip(trees, select_cuts(trees, rule), spans):
        heads = entity_head(tree, EntitySpan(s1, t1)), entity_head(tree, EntitySpan(s2, t2))
        paths.append(extract_sr_sdp(cut_and_line(tree, cuts), *heads))
    return format_paths(paths, as_json)


class TestParser:
    def test_version_exits_zero(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["--version"])
        assert exc.value.code == 0
        assert "pathrel" in capsys.readouterr().out

    def test_no_command_is_usage_error(self):
        with pytest.raises(SystemExit) as exc:
            main([])
        assert exc.value.code == 2

    def test_unknown_command_is_usage_error(self):
        with pytest.raises(SystemExit) as exc:
            main(["frobnicate"])
        assert exc.value.code == 2

    def test_missing_required_flag(self):
        with pytest.raises(SystemExit) as exc:
            main(["eval", "--data", "x.jsonl"])
        assert exc.value.code == 2


class TestParserOncePerProcess:
    """main() reuses one parser, and one call leaves nothing behind for the next."""

    @pytest.fixture
    def corpus(self, tmp_path):
        trees, spans = random_corpus(np.random.default_rng(4), 12)
        conllu, pairs = write_corpus(tmp_path, trees, spans)
        return conllu, pairs, spans

    def test_usage_error_then_a_good_call(self, tmp_path, capsys):
        text, dictionary = tmp_path / "t.txt", tmp_path / "d.txt"
        text.write_text("abab", encoding="utf-8")
        dictionary.write_text("ab\n", encoding="utf-8")
        with pytest.raises(SystemExit) as exc:
            main(["dict-match", "--text", str(text)])
        assert exc.value.code == 2
        assert "the following arguments are required: --dictionary" in capsys.readouterr().err
        assert main(["dict-match", "--text", str(text), "--dictionary", str(dictionary)]) == 0
        assert capsys.readouterr() == ("0\t2\tab\n2\t4\tab\n", "")

    def test_cut_flag_without_rule_then_with_rule(self, corpus, capsys):
        conllu, pairs, spans = corpus
        argv = ["extract-sdp", "--conllu", str(conllu), "--pairs", str(pairs), "--cut-p", "0.4"]
        assert_cut_flag_refused(argv, "--cut-p", capsys)
        assert main(argv + ["--rule", "random"]) == 0
        expected = whole_corpus_output(conllu.read_text(encoding="utf-8"), spans,
                                       CutRule("random", p=0.4), False)
        assert capsys.readouterr() == (expected, "")

    def test_json_call_then_a_text_call(self, corpus, capsys):
        conllu, pairs, spans = corpus
        argv = ["extract-sdp", "--conllu", str(conllu), "--pairs", str(pairs), "--rule", "prep"]
        text = conllu.read_text(encoding="utf-8")
        for as_json in (True, False):
            assert main(argv + ["--json"] * as_json) == 0
            assert capsys.readouterr() == (whole_corpus_output(text, spans, CutRule("prep"), as_json), "")

    @pytest.mark.parametrize("command", [[], ["extract-sdp"], ["synth"], ["train"], ["eval"],
                                         ["dict-match"]])
    def test_help_equals_a_fresh_parsers_help(self, capsys, command):
        assert cli.build_parser() is cli.build_parser()
        helps = []
        for parse in (main, cli.build_parser.__wrapped__().parse_args):
            with pytest.raises(SystemExit) as exc:
                parse([*command, "-h"])
            assert exc.value.code == 0
            helps.append(capsys.readouterr())
        assert helps[0] == helps[1] and helps[0].out.startswith("usage: pathrel")


# numpy and the model stack: what a data command must not load
MODEL_STACK = {"numpy", "pathrel.model", "pathrel.training", "pathrel.autodiff", "pathrel.optim",
               "pathrel.checkpoint", "pathrel.synth"}


def run_pathrel(*argv):
    """`python -W error -X importtime -m pathrel *argv` in a fresh process.

    Returns the exit code, stdout, stderr less the import-time lines, and
    the names of the modules those lines report loaded.
    """
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run([sys.executable, "-W", "error", "-X", "importtime", "-m", "pathrel",
                           *map(str, argv)], env=env, capture_output=True, text=True, timeout=120)
    loaded, err = set(), []
    for line in proc.stderr.splitlines(keepends=True):
        if line.startswith("import time:"):
            loaded.add(line.rpartition("|")[2].strip())
        else:
            err.append(line)
    return proc.returncode, proc.stdout, "".join(err), loaded


class TestCommandsLoadOnlyWhatTheyUse:
    @pytest.fixture
    def inputs(self, tmp_path):
        trees, spans = random_corpus(np.random.default_rng(6), 30)
        conllu, pairs = write_corpus(tmp_path, trees, spans)
        text, dictionary = tmp_path / "doc.txt", tmp_path / "dict.txt"
        text.write_text("山上有白杨树。\ndogs sleep\n", encoding="utf-8")
        dictionary.write_text("白杨树\ndogs\n", encoding="utf-8")
        return {"conllu": conllu, "pairs": pairs, "spans": spans, "text": text,
                "dictionary": dictionary}

    def extract_sdp(self, inputs, *rule_args):
        return ["extract-sdp", "--conllu", inputs["conllu"], "--pairs", inputs["pairs"], *rule_args]

    @pytest.mark.parametrize("command", ["--version", "dict-match", "extract-sdp"])
    def test_data_commands_load_no_numpy_nor_model_stack(self, inputs, command):
        if command == "--version":
            argv, expected = ["--version"], "pathrel 0.1.0\n"
        elif command == "dict-match":
            argv = ["dict-match", "--text", inputs["text"], "--dictionary", inputs["dictionary"]]
            expected = "3\t6\t白杨树\n8\t12\tdogs\n"
        else:
            argv = self.extract_sdp(inputs, "--rule", "prep")
            expected = whole_corpus_output(inputs["conllu"].read_text(encoding="utf-8"),
                                           inputs["spans"], CutRule("prep"), False)
        code, out, err, loaded = run_pathrel(*argv)
        assert (code, out, err) == (0, expected, "")
        assert "pathrel.cli" in loaded and sorted(loaded & MODEL_STACK) == []

    def test_random_rule_loads_numpy_alone_and_writes_the_same_bytes(self, inputs):
        argv = self.extract_sdp(inputs, "--rule", "random", "--cut-p", "0.4", "--cut-seed", "9",
                                "--json")
        code, out, err, loaded = run_pathrel(*argv)
        expected = whole_corpus_output(inputs["conllu"].read_text(encoding="utf-8"),
                                       inputs["spans"], CutRule("random", p=0.4, seed=9), True)
        assert (code, out, err) == (0, expected, "")
        assert loaded & MODEL_STACK == {"numpy"}

    def test_non_utf8_dictionary_exits_3_without_numpy(self, inputs):
        bad = inputs["dictionary"]
        bad.write_bytes(b"\xff" + bad.read_bytes())
        code, out, err, loaded = run_pathrel("dict-match", "--text", inputs["text"],
                                             "--dictionary", bad)
        assert (code, out) == (3, "")
        assert err == (f"error: {bad}: not UTF-8 ('utf-8' codec can't decode byte 0xff in "
                       "position 0: invalid start byte)\n")
        assert sorted(loaded & MODEL_STACK) == []


CUT_FLAGS = [("--cut-p", "0.9"), ("--cut-seed", "3"), ("--cut-tags", "NOUN")]


def assert_cut_flag_refused(argv, flag, capsys):
    """A cut flag without --rule is a usage error (exit 2) that names the flag."""
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert f"argument {flag}: not allowed without argument --rule" in capsys.readouterr().err


class TestCutFlagsNeedRule:
    @pytest.mark.parametrize("flag, value", CUT_FLAGS)
    def test_extract_sdp(self, tmp_path, capsys, flag, value):
        conllu, pairs, out = tmp_path / "s.conllu", tmp_path / "pairs.txt", tmp_path / "p.txt"
        conllu.write_text(CONLLU)
        pairs.write_text("1 1 4 4\n")
        argv = ["extract-sdp", "--conllu", str(conllu), "--pairs", str(pairs), "--out", str(out)]
        assert_cut_flag_refused(argv + [flag, value], flag, capsys)
        assert not out.exists()
        assert main(argv + ["--rule", "random", flag, value]) == 0

    @pytest.mark.parametrize("flag, value", CUT_FLAGS)
    def test_train(self, tmp_path, dataset, capsys, flag, value):
        ck = tmp_path / "m.ckpt"
        assert_cut_flag_refused(["train", "--config", str(tiny_config_file(tmp_path)), "--train",
                                 str(dataset), "--checkpoint", str(ck), flag, value], flag, capsys)
        assert not ck.exists()

    @pytest.mark.parametrize("flag, value", CUT_FLAGS)
    def test_eval(self, tmp_path, dataset, capsys, flag, value):
        ck, report = tmp_path / "m.ckpt", tmp_path / "report.json"
        assert main(["train", "--config", str(tiny_config_file(tmp_path)), "--train", str(dataset),
                     "--checkpoint", str(ck), "--rule", "prep"]) == 0
        assert_cut_flag_refused(["eval", "--checkpoint", str(ck), "--data", str(dataset),
                                 "--out", str(report), flag, value], flag, capsys)
        assert not report.exists()


class TestExtractSdp:
    def write_inputs(self, tmp_path, pairs="1 1 4 4\n"):
        conllu = tmp_path / "s.conllu"
        conllu.write_text(CONLLU)
        pf = tmp_path / "pairs.txt"
        pf.write_text(pairs)
        return conllu, pf

    def test_text_output(self, tmp_path, capsys):
        conllu, pairs = self.write_inputs(tmp_path)
        assert main(["extract-sdp", "--conllu", str(conllu), "--pairs", str(pairs)]) == 0
        line = capsys.readouterr().out.strip()
        e1, e2, path = parse_path_line(line)
        assert (e1, e2) == (1, 4)
        assert path.nodes == (1, 2, 3, 4)

    def test_prep_rule_shortens_path(self, tmp_path, capsys):
        conllu, pairs = self.write_inputs(tmp_path)
        assert main(["extract-sdp", "--conllu", str(conllu), "--pairs", str(pairs),
                     "--rule", "prep"]) == 0
        _, _, path = capsys.readouterr().out.strip().partition("\t")
        _, _, sdp = parse_path_line("1 4\t" + path)
        assert any(e.deprel == "SR-LINK" for e in sdp.edges)

    def test_json_output_to_file(self, tmp_path):
        conllu, pairs = self.write_inputs(tmp_path)
        out = tmp_path / "paths.jsonl"
        assert main(["extract-sdp", "--conllu", str(conllu), "--pairs", str(pairs),
                     "--json", "--out", str(out)]) == 0
        doc = json.loads(out.read_text())
        assert doc["forms"] == ["dogs", "sleep", "on", "mats"]
        assert doc["e1_head"] == 1 and doc["e2_head"] == 4

    def test_forms_holding_other_line_breaks(self, tmp_path):
        """LF ends a line; CR, U+2028, U+0085, form feed and the separators are form characters."""
        forms = ["dogs\u2028", "\x85", "o\rn\x0c\x0b", "\x1c\x1d\x1emats\u2029"]
        conllu, pairs = self.write_inputs(tmp_path)
        text = conllu.read_text(encoding="utf-8")
        for old, new in zip(["dogs", "sleep", "on", "mats"], forms):
            text = text.replace(f"\t{old}\t", f"\t{new}\t")
        out = tmp_path / "paths.jsonl"
        for ending in ("\n", "\r\n"):
            conllu.write_bytes(text.replace("\n", ending).encode("utf-8"))
            assert main(["extract-sdp", "--conllu", str(conllu), "--pairs", str(pairs),
                         "--json", "--out", str(out)]) == 0
            assert json.loads(out.read_text(encoding="utf-8"))["forms"] == forms, repr(ending)

    @pytest.mark.parametrize("json_flag", [[], ["--json"]])
    def test_byte_order_marks_dropped(self, tmp_path, capsys, json_flag):
        """A CoNLL-U file and a pair file saved with a BOM give the same bytes as without it."""
        text = CONLLU + "\n" + CONLLU
        conllu, pairs = self.write_inputs(tmp_path, pairs="# c\n1 1 4 4\n2 2 3 3\n")
        conllu.write_text(text, encoding="utf-8")
        bom_conllu, bom_pairs = tmp_path / "bom.conllu", tmp_path / "p_bom.txt"
        bom_conllu.write_text("\ufeff" + text, encoding="utf-8")
        bom_pairs.write_text("\ufeff" + pairs.read_text(encoding="utf-8"), encoding="utf-8")
        outputs = []
        for c, p in ((conllu, pairs), (bom_conllu, bom_pairs)):
            assert main(["extract-sdp", "--conllu", str(c), "--pairs", str(p), *json_flag]) == 0
            outputs.append(capsys.readouterr().out.encode("utf-8"))
        assert outputs[0] == outputs[1] and outputs[0].count(b"\n") == 2

    def test_count_mismatch_exits_3(self, tmp_path, capsys):
        conllu, pairs = self.write_inputs(tmp_path, pairs="1 1 4 4\n1 1 2 2\n")
        assert main(["extract-sdp", "--conllu", str(conllu), "--pairs", str(pairs)]) == 3
        err = capsys.readouterr().err
        assert err.startswith(f"error: {pairs}: 2 entity-pair lines but {conllu} has 1 sentences")

    def test_span_out_of_range_exits_3(self, tmp_path, capsys):
        conllu, pairs = self.write_inputs(tmp_path, pairs="1 1 9 9\n")
        assert main(["extract-sdp", "--conllu", str(conllu), "--pairs", str(pairs)]) == 3
        assert capsys.readouterr().err.startswith(f"error: {pairs}: sentence 1: span [9, 9] exceeds")

    @pytest.mark.parametrize("line, message", [
        ("2 1 3 3", "bad span [2, 1]"),
        ("0 0 2 3", "bad span [0, 0]"),
        ("1 1 3 2", "bad span [3, 2]"),
        ("1 2 2 3", "entity spans overlap"),
        ("3 4 1 3", "entity spans overlap"),
        ("2 2 2 2", "entity spans overlap"),
        ("1_0 1_0 2 2", "non-integer span bound"),
        ("\u0661 1 +3 3", "non-integer span bound"),
    ])
    def test_bad_or_overlapping_spans_exit_3(self, tmp_path, capsys, line, message):
        conllu, pairs = self.write_inputs(tmp_path, pairs=f"# e1 e2\n{line}\n")
        assert main(["extract-sdp", "--conllu", str(conllu), "--pairs", str(pairs)]) == 3
        assert capsys.readouterr().err == f"error: {pairs}:2: {message}\n"

    def test_missing_file_exits_3(self, tmp_path):
        assert main(["extract-sdp", "--conllu", str(tmp_path / "no.conllu"),
                     "--pairs", str(tmp_path / "no.txt")]) == 3

    def test_bad_head_names_the_conllu_file(self, tmp_path, capsys):
        conllu, pairs = self.write_inputs(tmp_path, pairs="1 1 2 2\n")
        conllu.write_text("1\ta\t_\tX\t_\t_\t0\troot\t_\t_\n"
                          "2\tb\t_\tX\t_\t_\t5\tdep\t_\t_\n")
        assert main(["extract-sdp", "--conllu", str(conllu), "--pairs", str(pairs)]) == 3
        err = capsys.readouterr().err
        assert err.startswith(f"error: {conllu}: sentence 1 (starting line 1): token 2 has head 5")

    def test_malformed_id_names_file_and_line(self, tmp_path, capsys):
        """An ID that is neither N, N-M nor N.M is reported, by extract-sdp and by
        dataset loading, rather than skipped."""
        conllu, pairs = self.write_inputs(tmp_path)
        lines = CONLLU.splitlines(keepends=True)
        bad = "".join(lines[:1] + ["-1\tjunk\t_\tX\t_\t_\t2\tdep\t_\t_\n"] + lines[1:])
        conllu.write_text(bad)
        assert main(["extract-sdp", "--conllu", str(conllu), "--pairs", str(pairs)]) == 3
        message = "line 2: ID '-1' is not N, a range N-M or an empty node N.M"
        assert capsys.readouterr().err == f"error: {conllu}: {message}\n"
        data = tmp_path / "train.jsonl"
        data.write_text(json.dumps({"id": "s1", "conllu": bad, "e1": [1, 1], "e2": [4, 4],
                                    "label": "Other"}) + "\n")
        assert main(["train", "--train", str(data), "--schema", "synth-k2", "--epochs", "1"]) == 3
        assert capsys.readouterr().err == f"error: {data}:1: {message}\n"

    def test_tab_line_missing_a_column_names_file_and_line(self, tmp_path, capsys):
        """Split on whitespace, this line would have ten columns: FORM New, LEMMA York."""
        conllu, pairs = self.write_inputs(tmp_path)
        conllu.write_text(CONLLU.replace("1\tdogs\t_\t", "1\tNew York\t", 1))
        assert main(["extract-sdp", "--conllu", str(conllu), "--pairs", str(pairs)]) == 3
        assert capsys.readouterr().err == f"error: {conllu}: line 1: expected 10 columns, got 9\n"

    @pytest.mark.parametrize("rule", CutRule.VARIANTS)
    def test_every_record_matches_bfs_over_structure_lined_by_hand(self, tmp_path, rule):
        """extract-sdp's text and JSON heads and paths against a per-sentence
        oracle: the scalar cut set, lined by hand, then BFS."""
        trees, spans = random_corpus(np.random.default_rng(12), 50)
        assert {"ADP", "PUNCT"} <= {tag for tree in trees for tag in tree.pos}
        conllu, pairs = write_corpus(tmp_path, trees, spans)
        outputs = {}
        for fmt, extra in (("text", []), ("json", ["--json"])):
            outputs[fmt] = tmp_path / f"p.{fmt}"
            assert main(["extract-sdp", "--conllu", str(conllu), "--pairs", str(pairs), "--rule",
                         rule, "--cut-p", "0.4", "--cut-seed", "11", "--out", str(outputs[fmt]),
                         *extra]) == 0
        records = [json.loads(line) for line in outputs["json"].read_text(encoding="utf-8").splitlines()]
        lines = outputs["text"].read_text(encoding="utf-8").splitlines()
        assert len(records) == len(lines) == len(trees)
        cut_rule = CutRule(rule, p=0.4, seed=11)
        for ordinal, (tree, ((s1, t1), (s2, t2)), rec, line) in enumerate(
                zip(trees, spans, records, lines)):
            h1, h2 = entity_head_by_scan(tree, s1, t1), entity_head_by_scan(tree, s2, t2)
            nodes, edges = bfs_path(lined_by_hand(tree, cut_oracle(tree, cut_rule, ordinal)), h1, h2)
            assert (rec["e1_head"], rec["e2_head"]) == (h1, h2)
            assert rec["nodes"] == nodes and [tuple(e) for e in rec["edges"]] == edges
            assert rec["forms"] == [f"w{i}" for i in nodes]
            assert rec["pos"] == [tree.pos[i] for i in nodes]
            e1, e2, path = parse_path_line(line)
            assert (e1, e2, list(path.nodes), list(path.edges)) == (h1, h2, nodes, edges)

    @pytest.mark.parametrize("rule", CutRule.VARIANTS)
    def test_empty_inputs_exit_0_and_write_nothing(self, tmp_path, capsys, rule):
        conllu, pairs = tmp_path / "s.conllu", tmp_path / "pairs.txt"
        conllu.write_text("")
        pairs.write_text("")
        for extra in ([], ["--json"]):
            capsys.readouterr()
            assert main(["extract-sdp", "--conllu", str(conllu), "--pairs", str(pairs),
                         "--rule", rule, *extra]) == 0
            assert capsys.readouterr() == ("", "")


class TestExtractSdpChunks:
    """extract-sdp parses, cuts, extracts and writes cli.CHUNK sentences at a time."""

    RULE_ARGS = ["--rule", "random", "--cut-p", "0.4", "--cut-seed", "11"]
    RULE = CutRule("random", p=0.4, seed=11)

    @pytest.fixture(scope="class")
    def work(self, tmp_path_factory):
        return tmp_path_factory.mktemp("chunks")

    @settings(max_examples=12, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), count=st.integers(0, 40))
    def test_chunk_boundaries_change_nothing(self, work, seed, count):
        """Every chunk size gives the output of one pass over the whole corpus, under every rule."""
        trees, spans = random_corpus(np.random.default_rng(seed), count)
        conllu, pairs = write_corpus(work, trees, spans)
        text = conllu.read_text(encoding="utf-8")
        for variant in CutRule.VARIANTS:
            rule = CutRule(variant, p=0.4, seed=seed % 1000)
            argv = ["extract-sdp", "--conllu", str(conllu), "--pairs", str(pairs), "--rule", variant,
                    "--cut-p", "0.4", "--cut-seed", str(rule.seed)]
            for as_json in (False, True):
                expected = whole_corpus_output(text, spans, rule, as_json)
                for chunk in (1, 2, 3, count + 1):
                    out = io.StringIO()
                    with pytest.MonkeyPatch.context() as mp, contextlib.redirect_stdout(out):
                        mp.setattr(cli, "CHUNK", chunk)
                        assert main(argv + ["--json"] * as_json) == 0
                    assert out.getvalue() == expected, (variant, as_json, chunk)

    CHUNK, SENTENCES = 2, 7  # chunks: sentences 1-2, 3-4, 5-6 and 7

    def run_with_fault(self, tmp_path, monkeypatch, capsys, trees, spans, text, message, finished):
        """Exit 3 with message: no --out file is left, an existing one keeps its bytes, and
        stdout holds the lines of the first `finished` sentences, the chunks done before the fault."""
        monkeypatch.setattr(cli, "CHUNK", self.CHUNK)
        conllu, pairs = write_corpus(tmp_path, trees, spans)
        conllu.write_text(text, encoding="utf-8")
        message = message.format(conllu=conllu, pairs=pairs)
        argv = ["extract-sdp", "--conllu", str(conllu), "--pairs", str(pairs), *self.RULE_ARGS]
        new, old = tmp_path / "new.out", tmp_path / "old.out"
        old.write_bytes(b"old bytes\n")
        for out in (["--out", str(new)], ["--out", str(old)], []):
            capsys.readouterr()
            assert main(argv + out) == 3
            got = capsys.readouterr()
            assert got.err == f"error: {message}\n"
            if not out:
                good = serialize_conllu(trees[:finished])
                assert got.out == whole_corpus_output(good, spans, self.RULE, False)
                assert got.out.count("\n") == finished
        assert not new.exists() and old.read_bytes() == b"old bytes\n"
        assert sorted(p.name for p in tmp_path.iterdir()) == ["old.out", "pairs.txt", "s.conllu"]

    @pytest.mark.parametrize("where", [0, 3, 6])
    def test_conllu_fault_in_a_chunk(self, tmp_path, monkeypatch, capsys, where):
        trees, spans = random_corpus(np.random.default_rng(where), self.SENTENCES)
        blocks = serialize_conllu(trees).split("\n\n")
        tree = trees[where]
        child = next(i for i in range(1, tree.n + 1) if i != tree.root)
        lines = blocks[where].split("\n")
        cols = lines[child - 1].split("\t")
        cols[6] = "99"
        lines[child - 1] = "\t".join(cols)
        blocks[where] = "\n".join(lines)
        text = "\n\n".join(blocks)
        with pytest.raises(ConlluError) as want:
            parse_conllu_reference(text)
        assert f"token {child} has head 99" in str(want.value)
        self.run_with_fault(tmp_path, monkeypatch, capsys, trees, spans, text,
                            "{conllu}: " + str(want.value), where // self.CHUNK * self.CHUNK)

    @pytest.mark.parametrize("where", [0, 3, 6])
    def test_span_past_its_sentence_in_a_chunk(self, tmp_path, monkeypatch, capsys, where):
        trees, spans = random_corpus(np.random.default_rng(where), self.SENTENCES)
        n = trees[where].n
        spans[where] = ((1, 1), (n + 1, n + 1))
        self.run_with_fault(tmp_path, monkeypatch, capsys, trees, spans, serialize_conllu(trees),
                            f"{{pairs}}: sentence {where + 1}: span [{n + 1}, {n + 1}] exceeds length {n}",
                            where // self.CHUNK * self.CHUNK)

    @pytest.mark.parametrize("fewer", [1, 3, 6])
    def test_fewer_pairs_than_sentences(self, tmp_path, monkeypatch, capsys, fewer):
        """The pairs run out in the first, a middle or the last chunk."""
        trees, spans = random_corpus(np.random.default_rng(fewer), self.SENTENCES)
        self.run_with_fault(tmp_path, monkeypatch, capsys, trees, spans[:fewer], serialize_conllu(trees),
                            f"{{pairs}}: {fewer} entity-pair lines but {{conllu}} has {self.SENTENCES} "
                            "sentences; they must correspond 1:1",
                            fewer // self.CHUNK * self.CHUNK)

    @pytest.mark.parametrize("fewer", [1, 3, 6])
    def test_fewer_sentences_than_pairs(self, tmp_path, monkeypatch, capsys, fewer):
        """The sentences end in the first, a middle or the last chunk: all of them are written."""
        trees, spans = random_corpus(np.random.default_rng(fewer), self.SENTENCES)
        self.run_with_fault(tmp_path, monkeypatch, capsys, trees[:fewer], spans,
                            serialize_conllu(trees[:fewer]),
                            f"{{pairs}}: {self.SENTENCES} entity-pair lines but {{conllu}} has {fewer} "
                            "sentences; they must correspond 1:1",
                            fewer)

    def test_out_may_name_the_conllu_file(self, tmp_path, monkeypatch):
        """The CoNLL-U text is read whole before the output replaces it."""
        monkeypatch.setattr(cli, "CHUNK", self.CHUNK)
        trees, spans = random_corpus(np.random.default_rng(1), self.SENTENCES)
        conllu, pairs = write_corpus(tmp_path, trees, spans)
        text = conllu.read_text(encoding="utf-8")
        assert main(["extract-sdp", "--conllu", str(conllu), "--pairs", str(pairs), *self.RULE_ARGS,
                     "--json", "--out", str(conllu)]) == 0
        assert conllu.read_text(encoding="utf-8") == whole_corpus_output(text, spans, self.RULE, True)

    def test_peak_memory_grows_with_the_text_not_the_trees(self, tmp_path, monkeypatch):
        """extract-sdp holds the CoNLL-U text, the pairs and one chunk.  Reading the
        file holds its bytes and its text at once, so four times the sentences raise
        the traced peak by twice the file's growth, and the pair list adds a little;
        holding every tree, path and output line raised it by about ten times."""
        monkeypatch.setattr(cli, "CHUNK", 8)
        rng = np.random.default_rng(5)
        trees = [random_tree(rng, n=30) for _ in range(40)]
        sizes, peaks = [], []
        for count in (250, 1000):
            conllu, pairs = write_corpus(tmp_path, (trees * 25)[:count], [((1, 1), (30, 30))] * count)
            tracemalloc.start()
            try:
                assert main(["extract-sdp", "--conllu", str(conllu), "--pairs", str(pairs),
                             "--rule", "random", "--json", "--out", str(tmp_path / "p.jsonl")]) == 0
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
            sizes.append(conllu.stat().st_size)
        assert peaks[1] - peaks[0] <= 2.5 * (sizes[1] - sizes[0]), (peaks, sizes)


class TestSynth:
    def test_writes_loadable_dataset(self, dataset):
        insts = load_dataset(dataset)
        assert len(insts) == 14

    def test_reports_count_and_schema(self, tmp_path, capsys):
        out = tmp_path / "d.jsonl"
        main(["synth", "--out", str(out), "--n", "5", "--k", "3"])
        msg = capsys.readouterr().out
        assert "wrote 5 instances" in msg and "synth-k3" in msg

    def test_bad_knob_exits_3(self, tmp_path, capsys):
        out = tmp_path / "d.jsonl"
        assert main(["synth", "--out", str(out), "--n", "0"]) == 3
        assert "error:" in capsys.readouterr().err


class TestTrainEval:
    def test_train_writes_checkpoint_and_log(self, tmp_path, dataset, capsys):
        ck, log = tmp_path / "m.ckpt", tmp_path / "m.log"
        code = main(["train", "--config", str(tiny_config_file(tmp_path)),
                     "--train", str(dataset), "--checkpoint", str(ck), "--log", str(log),
                     "--rule", "prep"])
        assert code == 0
        out = capsys.readouterr().out
        assert "best epoch 1" in out and str(ck) in out
        assert ck.exists() and log.exists()
        row = json.loads(log.read_text().splitlines()[0])
        assert row["epoch"] == 1

        report = tmp_path / "report.json"
        assert main(["eval", "--checkpoint", str(ck), "--data", str(dataset),
                     "--out", str(report)]) == 0
        doc = json.loads(report.read_text())
        assert 0.0 <= doc["macro_f1"] <= 1.0
        assert doc["rule"]["variant"] == "prep"  # meta rule wins without a flag

    def test_train_is_byte_identical_across_processes(self, tmp_path, dataset):
        """Two `python -m pathrel train` processes under different hash seeds write the same bytes."""
        config = tmp_path / "config.json"
        ExperimentConfig(model=ModelConfig(word_dim=6, rel_dim=4, conv_dim=6, keep_prob=0.5,
                                           l2_lambda=1e-4),
                         rule=CutRule(variant="random", seed=2), schema="synth-k2", seed=5,
                         epochs=2, val_size=4).save(config)
        outputs = []
        for hash_seed in ("0", "1"):
            ck, log = tmp_path / f"{hash_seed}.ckpt", tmp_path / f"{hash_seed}.log"
            pathrel_under_hash_seed(hash_seed, "train", "--config", str(config),
                                    "--train", str(dataset), "--checkpoint", str(ck), "--log", str(log))
            outputs.append((ck.read_bytes(), log.read_bytes()))
        assert outputs[0] == outputs[1]

    def test_eval_is_byte_identical_across_processes(self, tmp_path):
        """Two `python -m pathrel eval` processes under different hash seeds write the same
        report, on a dataset of several path lengths that share words."""
        data = tmp_path / "data.jsonl"
        assert main(["synth", "--out", str(data), "--n", "60", "--k", "2", "--seed", "4",
                     "--prep-density", "0.6", "--bridge-prob", "0.3"]) == 0
        ck = tmp_path / "m.ckpt"
        assert main(["train", "--config", str(tiny_config_file(tmp_path, rule=CutRule("prep"))),
                     "--train", str(data), "--checkpoint", str(ck)]) == 0
        lengths = {len(ex.path.nodes) for ex in prepare_paths(load_dataset(data), CutRule("prep"))}
        assert len(lengths) > 1
        reports = []
        for hash_seed in ("0", "1"):
            out = tmp_path / f"{hash_seed}.json"
            pathrel_under_hash_seed(hash_seed, "eval", "--checkpoint", str(ck), "--data", str(data),
                                    "--out", str(out))
            reports.append(out.read_bytes())
        assert reports[0] == reports[1]

    def test_eval_flag_overrides_meta_rule(self, tmp_path, dataset, capsys):
        ck = tmp_path / "m.ckpt"
        main(["train", "--config", str(tiny_config_file(tmp_path)),
              "--train", str(dataset), "--checkpoint", str(ck), "--rule", "prep"])
        capsys.readouterr()
        assert main(["eval", "--checkpoint", str(ck), "--data", str(dataset),
                     "--rule", "none"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["rule"]["variant"] == "none"

    def test_eval_defaults_to_none_without_meta(self, tmp_path, dataset, capsys):
        insts = load_dataset(dataset)
        res = train(
            ExperimentConfig(
                model=ModelConfig(word_dim=6, rel_dim=4, conv_dim=6, keep_prob=1.0,
                                  l2_lambda=0.0),
                schema="synth-k2", epochs=1),
            train_instances=insts,
        )
        ck = tmp_path / "bare.ckpt"
        res.model.save(ck)  # no rule recorded
        assert main(["eval", "--checkpoint", str(ck), "--data", str(dataset)]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["rule"]["variant"] == "none"

    def test_schema_mismatch_exits_4(self, tmp_path, dataset, capsys):
        ck = tmp_path / "m.ckpt"
        main(["train", "--config", str(tiny_config_file(tmp_path)),
              "--train", str(dataset), "--checkpoint", str(ck)])
        alien = tmp_path / "alien.jsonl"
        from pathrel.data import save_dataset

        save_dataset(alien, generate(SynthConfig(n=30, k_types=6, seed=2, residual_frac=0.0)))
        capsys.readouterr()
        assert main(["eval", "--checkpoint", str(ck), "--data", str(alien)]) == 4
        assert "schema mismatch" in capsys.readouterr().err

    @pytest.mark.parametrize("alpha", ["1.5", "-3", "nan"])
    def test_alpha_outside_unit_interval_exits_3(self, tmp_path, dataset, capsys, alpha):
        ck, report = tmp_path / "m.ckpt", tmp_path / "report.json"
        train_args = ["train", "--config", str(tiny_config_file(tmp_path)), "--train", str(dataset)]
        assert main([*train_args, "--checkpoint", str(ck)]) == 0
        for command in ([*train_args, "--alpha", alpha],
                        ["eval", "--checkpoint", str(ck), "--data", str(dataset), "--alpha", alpha,
                         "--out", str(report)]):
            capsys.readouterr()
            assert main(command) == 3, command[0]
            assert capsys.readouterr().err == f"error: alpha {float(alpha)} outside [0, 1]\n"
        assert not report.exists()

    def test_alpha_bounds_accepted(self, tmp_path, dataset, capsys):
        ck = tmp_path / "m.ckpt"
        main(["train", "--config", str(tiny_config_file(tmp_path)), "--train", str(dataset),
              "--checkpoint", str(ck)])
        for alpha in ("0", "1"):
            assert main(["eval", "--checkpoint", str(ck), "--data", str(dataset),
                         "--alpha", alpha]) == 0

    def test_train_missing_data_exits_3(self, tmp_path):
        assert main(["train", "--config", str(tiny_config_file(tmp_path)),
                     "--train", str(tmp_path / "no.jsonl")]) == 3

    def test_corrupt_checkpoint_exits_3(self, tmp_path, dataset):
        bad = tmp_path / "bad.ckpt"
        bad.write_text('{"format": "something-else"}')
        assert main(["eval", "--checkpoint", str(bad), "--data", str(dataset)]) == 3

    @pytest.mark.parametrize("damage", [
        "no-tensors", "no-shape", "no-data", "no-config", "no-schema", "no-words", "no-deprels",
        "bad-shape", "bad-data",
    ])
    def test_malformed_checkpoint_exits_3(self, tmp_path, dataset, capsys, damage):
        ck = tmp_path / "m.ckpt"
        assert main(["train", "--config", str(tiny_config_file(tmp_path)),
                     "--train", str(dataset), "--checkpoint", str(ck)]) == 0
        kind, _, key = damage.partition("-")
        field = {"data": "data_offsets"}.get(key, key)  # version 3 keeps byte offsets, not data

        def edit(header):
            if kind == "bad":
                header["tensors"]["fine_fwd/b"][field] = 5 if key == "shape" else ["x"]
            elif key == "tensors":
                del header["tensors"]
            elif key in ("shape", "data"):
                del header["tensors"]["fine_fwd/b"][field]
            else:
                del header["meta"][key]

        edit_header(ck, edit)
        capsys.readouterr()
        assert main(["eval", "--checkpoint", str(ck), "--data", str(dataset)]) == 3
        assert (key if kind == "no" else "fine_fwd/b") in capsys.readouterr().err

    # each malformed document, and the field or fault its error message must name
    DOCUMENT_CASES = {
        "schema-no-types": "'types'",
        "schema-not-json": "not UTF-8 JSON (Expecting",
        "config-truncated": "not UTF-8 JSON (Expecting",
        "config-unknown-key": "'bogus'",
        "config-word-dim-text": "word_dim",
        "config-test-path": "'test_path'",
        "meta-config-unknown-key": "'bogus'",
        "meta-rule-string": "rule",
        "meta-schema-no-types": "'types'",
        "meta-words-number": "words",
    }

    @pytest.mark.parametrize("case", DOCUMENT_CASES)
    def test_malformed_document_exits_3(self, tmp_path, dataset, capsys, case):
        config = tiny_config_file(tmp_path)
        ck = tmp_path / "m.ckpt"
        assert main(["train", "--config", str(config), "--train", str(dataset),
                     "--checkpoint", str(ck), "--rule", "prep"]) == 0
        cfg = json.loads(config.read_text())
        bad = tmp_path / f"{case}.json"
        argv = ["train", "--config", str(bad), "--train", str(dataset)]
        if case.startswith("schema"):
            bad.write_text(json.dumps({"name": "x", "residual": "Other"})
                           if case == "schema-no-types" else "types: Rel1, Rel2\n")
            argv = ["train", "--config", str(config), "--train", str(dataset), "--schema", str(bad)]
        elif case == "config-truncated":
            bad.write_text(json.dumps(cfg)[:-1])
        elif case == "config-unknown-key":
            bad.write_text(json.dumps({**cfg, "bogus": 1}))
        elif case == "config-word-dim-text":
            cfg["model"]["word_dim"] = "abc"
            bad.write_text(json.dumps(cfg))
        elif case == "config-test-path":
            bad.write_text(json.dumps({**cfg, "test_path": "test.jsonl"}))
        else:
            def edit(header):
                meta = header["meta"]
                if case == "meta-config-unknown-key":
                    meta["config"]["bogus"] = 1
                elif case == "meta-rule-string":
                    meta["rule"] = "prep"
                elif case == "meta-schema-no-types":
                    del meta["schema"]["types"]
                else:
                    meta["words"] = 5

            edit_header(ck, edit, out=bad)
            argv = ["eval", "--checkpoint", str(bad), "--data", str(dataset)]
        capsys.readouterr()
        assert main(argv) == 3
        err = capsys.readouterr().err
        assert err.startswith(f"error: {bad}: ") and self.DOCUMENT_CASES[case] in err

    @pytest.mark.parametrize("error", [NonScalarLoss, EmptyPath])
    def test_internal_error_exits_1(self, tmp_path, dataset, capsys, monkeypatch, error):
        """The library's internal ValueErrors are failures of pathrel, not malformed input."""
        ck = tmp_path / "m.ckpt"
        assert main(["train", "--config", str(tiny_config_file(tmp_path)),
                     "--train", str(dataset), "--checkpoint", str(ck)]) == 0

        def failing_evaluate(*args, **kwargs):
            raise error("raised inside evaluate")

        monkeypatch.setattr(training, "evaluate", failing_evaluate)  # cmd_eval reads it there
        capsys.readouterr()
        assert main(["eval", "--checkpoint", str(ck), "--data", str(dataset)]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"internal error: {error.__name__}: raised inside evaluate")


    def test_non_finite_loss_exits_3_and_writes_nothing(self, tmp_path, dataset, capsys,
                                                         monkeypatch):
        """A NaN embedding for a training word makes the first loss NaN.

        The embeddings reader refuses NaN, so the row is written past it.
        """
        forms = [f for ex in prepare_paths(load_dataset(dataset), CutRule()) for f in ex.path.forms]
        word = max(set(forms), key=forms.count)
        emb = tmp_path / "emb.txt"
        emb.write_text(f"{word} 0 0 0 0 0 0\n", encoding="utf-8")

        def nan_row(path, vocab, table):
            table[vocab.index(word)] = np.nan

        monkeypatch.setattr(training, "load_word_embeddings", nan_row)
        ck, log = tmp_path / "m.ckpt", tmp_path / "m.log"
        capsys.readouterr()
        assert main(["train", "--config", str(tiny_config_file(tmp_path)), "--train", str(dataset),
                     "--embeddings", str(emb), "--checkpoint", str(ck), "--log", str(log)]) == 3
        err = capsys.readouterr().err
        assert err.startswith("error: epoch 1: instance ") and "loss is nan" in err
        assert not ck.exists() and not log.exists()

    def test_overflowing_optimizer_state_exits_3_and_writes_nothing(self, tmp_path, dataset,
                                                                     capsys):
        """At l2_lambda 1e300 the squared L2 gradient overflows the AdaDelta accumulators,
        which would freeze those coordinates for good; the epoch-end check stops the run
        instead, naming the parameters, and numpy warns about nothing on the way."""
        config = tmp_path / "config.json"
        ExperimentConfig(model=ModelConfig(word_dim=6, rel_dim=4, conv_dim=6, keep_prob=1.0,
                                           l2_lambda=1e300),
                         schema="synth-k2", epochs=1).save(config)
        ck, log = tmp_path / "m.ckpt", tmp_path / "m.log"
        capsys.readouterr()
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code = main(["train", "--config", str(config), "--train", str(dataset),
                         "--checkpoint", str(ck), "--log", str(log)])
        assert code == 3 and caught == []
        err = capsys.readouterr().err
        assert err.startswith("error: epoch 1: optimizer state not finite: bwd/conv/b, ")
        assert "fwd/word_cell/w" in err and "emb/" not in err
        assert not ck.exists() and not log.exists()

    @pytest.mark.parametrize("command", ["train", "eval"])
    @pytest.mark.parametrize("field, value", [
        pytest.param("id", 5, id="id-int"),
        pytest.param("conllu", 5, id="conllu-int"),
        pytest.param("label", 5, id="label-int"),
        pytest.param("label", None, id="label-null"),
        pytest.param("e1", [1.7, 1], id="e1-float"),
        pytest.param("e1", ["1", "1"], id="e1-strings"),
        pytest.param("e2", [True, True], id="e2-bools"),
        pytest.param("e2", [1], id="e2-one-int"),
        pytest.param("e2", 1, id="e2-int"),
    ])
    def test_mistyped_record_exits_3(self, tmp_path, dataset, capsys, command, field, value):
        """A record field of the wrong JSON type names the file and the line."""
        config = tiny_config_file(tmp_path)
        ck = tmp_path / "m.ckpt"
        assert main(["train", "--config", str(config), "--train", str(dataset),
                     "--checkpoint", str(ck)]) == 0
        lines = dataset.read_text(encoding="utf-8").splitlines()
        doc = json.loads(lines[2])
        doc[field] = value
        lines[2] = json.dumps(doc)
        bad = tmp_path / "bad.jsonl"
        bad.write_text("\n".join(lines) + "\n", encoding="utf-8")
        argv = (["train", "--config", str(config), "--train", str(bad)] if command == "train"
                else ["eval", "--checkpoint", str(ck), "--data", str(bad)])
        capsys.readouterr()
        assert main(argv) == 3
        err = capsys.readouterr().err
        assert f"{bad}:3: {field} must be" in err

    @pytest.mark.parametrize("vectors, line", [
        pytest.param("cat 0.5 0.5 0.5 0.5 0.5 0.5\nzzz nan 0 0 0 0 0\n", 2, id="nan"),
        pytest.param("zzz 0 0 0 inf 0 0\n", 1, id="inf"),
        pytest.param("cat 0.5 0.5 0.5 0.5 0.5 0.5\ndog 1 2 3\n", 2, id="ragged"),
        pytest.param("cat 1_0 0 0 0 0 0\n", 1, id="underscore"),
        pytest.param("cat 0.5 0.5 0.5 0.5 0.5 0.5\ndog 0 \u0661 0 0 0 0\n", 2, id="non-ascii-digit"),
    ])
    def test_malformed_embeddings_exit_3(self, tmp_path, dataset, capsys, vectors, line):
        """NaN, infinite and ragged vectors, and values float() reads but that are not
        ASCII numbers, are refused at load, even for unused words."""
        emb = tmp_path / "emb.txt"
        emb.write_text(vectors, encoding="utf-8")
        capsys.readouterr()
        assert main(["train", "--config", str(tiny_config_file(tmp_path)), "--train", str(dataset),
                     "--embeddings", str(emb)]) == 3
        assert f"{emb}:{line}: vector for" in capsys.readouterr().err

    @pytest.mark.parametrize("in_vocab", [True, False])
    def test_embeddings_of_another_length_than_word_dim_exit_3(self, tmp_path, dataset, capsys,
                                                               in_vocab):
        """A vector whose length is not the model's word_dim (6) names the file and line."""
        word = prepare_paths(load_dataset(dataset)[:1], CutRule())[0].path.forms[0] if in_vocab else "zzz"
        emb = tmp_path / "emb.txt"
        emb.write_text(f"{word} 0.5 0.5 0.5\n", encoding="utf-8")
        capsys.readouterr()
        assert main(["train", "--config", str(tiny_config_file(tmp_path)), "--train", str(dataset),
                     "--embeddings", str(emb)]) == 3
        err = capsys.readouterr().err
        assert err.startswith(f"error: {emb}:1:") and "3 values, expected word_dim 6" in err

    @pytest.mark.parametrize("route", ["train-flag", "config-file", "synth-flag"])
    def test_negative_seed_exits_3_naming_the_field(self, tmp_path, dataset, capsys, route):
        config = tiny_config_file(tmp_path)
        where = ""
        if route == "train-flag":
            argv = ["train", "--config", str(config), "--train", str(dataset), "--seed", "-1"]
        elif route == "config-file":
            bad = tmp_path / "bad.json"
            bad.write_text(json.dumps({**json.loads(config.read_text()), "seed": -1}))
            argv = ["train", "--config", str(bad), "--train", str(dataset)]
            where = f"{bad}: ExperimentConfig: "
        else:
            argv = ["synth", "--out", str(tmp_path / "d.jsonl"), "--seed", "-1"]
        capsys.readouterr()
        assert main(argv) == 3
        assert capsys.readouterr().err == f"error: {where}seed -1 must be >= 0\n"

    @pytest.mark.parametrize("damage", ["not-utf8", "not-json", "nan", "infinity"])
    def test_unreadable_or_non_finite_checkpoint_exits_3(self, tmp_path, dataset, capsys, damage):
        ck = tmp_path / "m.ckpt"
        assert main(["train", "--config", str(tiny_config_file(tmp_path)),
                     "--train", str(dataset), "--checkpoint", str(ck)]) == 0
        if damage == "not-utf8":
            ck.write_bytes(b"\xff\xfe" + ck.read_bytes())
        elif damage == "not-json":
            ck.write_bytes(ck.read_bytes()[:-1])
        else:  # the first value of coarse/b in the payload
            raw = ck.read_bytes()
            header, payload = split_checkpoint(raw)
            at = len(raw) - len(payload) + header["tensors"]["coarse/b"]["data_offsets"][0]
            value = np.array([{"nan": math.nan, "infinity": math.inf}[damage]], "<f8").tobytes()
            ck.write_bytes(raw[:at] + value + raw[at + 8:])
        capsys.readouterr()
        assert main(["eval", "--checkpoint", str(ck), "--data", str(dataset)]) == 3
        err = capsys.readouterr().err
        assert err.startswith(f"error: {ck}: ")
        if damage not in ("not-utf8", "not-json"):
            assert "'coarse/b' holds a NaN or infinite value" in err

    @pytest.mark.parametrize("field, value", [
        ("l2_lambda", math.nan), ("l2_lambda", -1e-5), ("l2_lambda", math.inf),
        ("init_scale", math.nan), ("init_scale", math.inf), ("init_scale", 0.0), ("init_scale", -0.1),
        ("init_scale", 1e308),
    ])
    @pytest.mark.parametrize("route", ["config", "meta"])
    def test_bad_l2_lambda_or_init_scale_exits_3(self, tmp_path, dataset, capsys, field, value,
                                                 route):
        """A NaN or negative penalty and a scale that is not finite and positive name the field."""
        config = tiny_config_file(tmp_path)
        bad = tmp_path / "bad.json"
        if route == "config":
            cfg = json.loads(config.read_text())
            cfg["model"][field] = value
            bad.write_text(json.dumps(cfg))
            argv = ["train", "--config", str(bad), "--train", str(dataset)]
        else:
            ck = tmp_path / "m.ckpt"
            assert main(["train", "--config", str(config), "--train", str(dataset),
                         "--checkpoint", str(ck)]) == 0
            edit_header(ck, lambda header: header["meta"]["config"].__setitem__(field, value),
                        out=bad)
            argv = ["eval", "--checkpoint", str(bad), "--data", str(dataset)]
        capsys.readouterr()
        assert main(argv) == 3
        err = capsys.readouterr().err
        assert err.startswith(f"error: {bad}: ") and f"ModelConfig: {field} {value}" in err

    @pytest.mark.parametrize("which", [
        "eval-data", "extract-conllu", "extract-pairs", "train-embeddings", "dict-text",
        "dict-dictionary",
    ])
    def test_non_utf8_input_exits_3_naming_the_file(self, tmp_path, dataset, capsys, which):
        conllu, pairs = tmp_path / "s.conllu", tmp_path / "pairs.txt"
        conllu.write_text(CONLLU)
        pairs.write_text("1 1 4 4\n")
        text, dictionary = tmp_path / "doc.txt", tmp_path / "dict.txt"
        text.write_text("dogs sleep on mats\n")
        dictionary.write_text("dogs\n")
        emb = tmp_path / "emb.txt"
        emb.write_text("dogs 0 0 0 0 0 0\n")
        ck = tmp_path / "m.ckpt"
        assert main(["train", "--config", str(tiny_config_file(tmp_path)),
                     "--train", str(dataset), "--checkpoint", str(ck)]) == 0
        command, bad = {
            "eval-data": (["eval", "--checkpoint", str(ck), "--data", str(dataset)], dataset),
            "extract-conllu": (["extract-sdp", "--conllu", str(conllu), "--pairs", str(pairs)], conllu),
            "extract-pairs": (["extract-sdp", "--conllu", str(conllu), "--pairs", str(pairs)], pairs),
            "train-embeddings": (["train", "--config", str(tiny_config_file(tmp_path)),
                                  "--train", str(dataset), "--embeddings", str(emb)], emb),
            "dict-text": (["dict-match", "--text", str(text), "--dictionary", str(dictionary)], text),
            "dict-dictionary": (["dict-match", "--text", str(text), "--dictionary", str(dictionary)],
                                dictionary),
        }[which]
        bad.write_bytes(b"\xff" + bad.read_bytes())
        capsys.readouterr()
        assert main(command) == 3
        err = capsys.readouterr().err
        assert err.startswith(f"error: {bad}: not UTF-8 (")

    @pytest.mark.parametrize("damage", [
        "float-shape", "string-shape", "bool-shape", "negative-shape", "renamed", "transposed",
        "words-one-short", "meta-shares-heads",
    ])
    def test_checkpoint_shape_and_names_exit_3_naming_the_file(self, tmp_path, dataset, capsys,
                                                               damage):
        """Shapes are lists of non-negative JSON integers matching the meta's model; every load
        error names the file."""
        ck = tmp_path / "m.ckpt"
        assert main(["train", "--config", str(tiny_config_file(tmp_path)),
                     "--train", str(dataset), "--checkpoint", str(ck)]) == 0

        def edit(header):
            spec = header["tensors"]["coarse/w_fwd"]
            rows, cols = spec["shape"]
            if damage == "renamed":  # still between coarse/w_fwd's neighbours in sorted order
                header["tensors"]["coarse/w_fwd2"] = header["tensors"].pop("coarse/w_fwd")
            elif damage == "words-one-short":
                header["meta"]["words"].pop()
            elif damage == "meta-shares-heads":  # the tensors hold two fine heads
                header["meta"]["config"]["share_fine_heads"] = True
            else:
                spec["shape"] = {
                    "float-shape": [rows + 0.9, cols],
                    "string-shape": [str(rows), str(cols)],
                    "bool-shape": [True, rows * cols],
                    "negative-shape": [-rows, -cols],
                    "transposed": [cols, rows],
                }[damage]

        edit_header(ck, edit)
        capsys.readouterr()
        assert main(["eval", "--checkpoint", str(ck), "--data", str(dataset)]) == 3
        err = capsys.readouterr().err
        assert err.startswith(f"error: {ck}: ")
        if damage in ("renamed", "meta-shares-heads"):
            assert "parameter names differ" in err
        else:
            assert ("'emb/word'" if damage == "words-one-short" else "'coarse/w_fwd'") in err


class TestCheckpointFuzz:
    """Truncated or bit-flipped version-3 checkpoints through `pathrel eval`."""

    @pytest.fixture(scope="class")
    def trained(self, tmp_path_factory):
        work = tmp_path_factory.mktemp("fuzz")
        data, ck = work / "train.jsonl", work / "m.ckpt"
        assert main(["synth", "--out", str(data), "--n", "14", "--k", "2", "--seed", "3",
                     "--blocks", "1", "--fillers", "1", "--residual-frac", "0.0"]) == 0
        assert main(["train", "--config", str(tiny_config_file(work)), "--train", str(data),
                     "--checkpoint", str(ck), "--rule", "prep"]) == 0
        return work, data, ck.read_bytes()

    @settings(max_examples=120, deadline=None)
    @given(data=st.data())
    def test_damaged_checkpoint_never_exits_1(self, trained, data):
        """Never exit 1 and never a traceback: damage is either harmless or reported as
        malformed input (exit 3).  Exit 4 is allowed too: a flipped letter of a label in the
        meta's schema is a schema mismatch with the dataset, which the CLI reports as such."""
        work, dataset, raw = trained
        _, payload = split_checkpoint(raw)
        regions = {"preamble": (0, 16), "header": (16, len(raw) - len(payload)),
                   "payload": (len(raw) - len(payload), len(raw))}
        lo, hi = regions[data.draw(st.sampled_from(sorted(regions)), label="region")]
        at = data.draw(st.integers(lo, hi - 1), label="at")
        if data.draw(st.booleans(), label="truncate"):
            damaged = raw[:at]
        else:
            flip = data.draw(st.integers(1, 255), label="xor")
            damaged = raw[:at] + bytes([raw[at] ^ flip]) + raw[at + 1:]
        ck = work / "damaged.ckpt"
        ck.write_bytes(damaged)
        err = io.StringIO()
        with contextlib.redirect_stderr(err):
            code = main(["eval", "--checkpoint", str(ck), "--data", str(dataset),
                         "--out", str(work / "report.json")])
        assert code in (0, 3, 4), err.getvalue()
        assert "Traceback" not in err.getvalue()
        if code:
            assert err.getvalue().startswith(f"error: {ck}: " if code == 3 else "schema mismatch: ")


JUNK = ("-1", "1.x", "_", "0", str(10**30), "")


@st.composite
def mutated_lines(draw, lines, junk=JUNK, sep="\t"):
    """lines with 1-3 of: a sep-separated column replaced by junk, a line dropped,
    duplicated or split, a CR or a blank line inserted."""
    lines = list(lines)
    for _ in range(draw(st.integers(1, 3))):
        i = draw(st.integers(0, len(lines) - 1))
        line = lines[i]
        at = draw(st.integers(0, len(line)))
        kind = draw(st.sampled_from(("junk", "drop", "duplicate", "split", "cr", "blank")))
        if kind == "junk":
            cols = line.split(sep)
            cols[draw(st.integers(0, len(cols) - 1))] = draw(st.sampled_from(junk))
            lines[i] = sep.join(cols)
        elif kind == "drop":
            del lines[i]
        elif kind == "duplicate":
            lines.insert(i, line)
        elif kind == "split":
            lines[i:i + 1] = [line[:at], line[at:]]
        elif kind == "cr":
            lines[i] = line[:at] + "\r" + line[at:]
        else:
            lines.insert(i, "")
    return "\n".join(lines) + "\n"


class TestConlluFuzz:
    """A small valid CoNLL-U file, mutated line by line, through `extract-sdp`."""

    SENTENCES = (
        "# sent_id = 1\n" + CONLLU + "\n"
        "# sent_id = 2\n"
        "1\tcats\t_\tNOUN\t_\t_\t3\tnsubj\t_\t_\n"
        "2-3\tdon't\t_\t_\t_\t_\t_\t_\t_\t_\n"
        "2\tdo\t_\tAUX\t_\t_\t3\taux\t_\t_\n"
        "3\tn't\t_\tVERB\t_\t_\t0\troot\t_\t_\n"
        "3.1\tsee\t_\tVERB\t_\t_\t_\t_\t0:root\t_\n"
        "4\t,\t_\tPUNCT\t_\t_\t3\tpunct\t_\t_\n"
        "5\tdogs\t_\tNOUN\t_\t_\t3\tobj\t_\t_\n"
    )

    @pytest.fixture(scope="class")
    def work(self, tmp_path_factory):
        work = tmp_path_factory.mktemp("conllu-fuzz")
        (work / "pairs.txt").write_text("1 1 4 4\n1 1 5 5\n")
        return work

    @settings(max_examples=100, deadline=None)
    @given(text=mutated_lines(SENTENCES.split("\n")[:-1]))
    def test_mutated_conllu_never_exits_1(self, work, text):
        """Every rule exits 0, or 3 with a message naming the CoNLL-U or the pair file."""
        conllu, pairs, out = work / "s.conllu", work / "pairs.txt", work / "p.jsonl"
        conllu.write_bytes(text.encode("utf-8"))
        for rule in CutRule.VARIANTS:
            err = io.StringIO()
            with contextlib.redirect_stderr(err):
                code = main(["extract-sdp", "--conllu", str(conllu), "--pairs", str(pairs),
                             "--rule", rule, "--cut-p", "0.4", "--json", "--out", str(out)])
            assert code in (0, 3), err.getvalue()
            assert "Traceback" not in err.getvalue()
            if code:
                assert err.getvalue().startswith((f"error: {conllu}: ", f"error: {pairs}: "))


JSON_JUNK = (None, True, -1, 0, 1, 2.5, 10**30, "", "x", "Other", "Rel1(e1,e2)", "Rel9(e1,e2)",
             [], [1], [1, 1], [2, 2], [0, 1], [3, 1], [1, 99], [1, 2, 3], [1.0, 2.0], ["1", "2"],
             {}, {"e1": [1, 1]})
CELL_JUNK = JUNK + ("1", "2", "99", "root", "punct", "PUNCT", "ADP", "a b", " ")


@st.composite
def mutated_records(draw, records):
    """records with one JSON value, or one cell of one record's CoNLL-U, replaced by junk."""
    records = [dict(r) for r in records]
    record = records[draw(st.integers(0, len(records) - 1))]
    key = draw(st.sampled_from(sorted(record)))
    if key == "conllu" and draw(st.booleans()):
        lines = record["conllu"].split("\n")
        i = draw(st.integers(0, len(lines) - 1))
        cols = lines[i].split("\t")
        cols[draw(st.integers(0, len(cols) - 1))] = draw(st.sampled_from(CELL_JUNK))
        lines[i] = "\t".join(cols)
        record["conllu"] = "\n".join(lines)
    else:
        record[key] = draw(st.sampled_from(JSON_JUNK))
    return "".join(json.dumps(r, sort_keys=True) + "\n" for r in records)


class TestDatasetFuzz:
    """A tiny dataset with one mutated record value or CoNLL-U cell, through `pathrel eval`
    against a 4/3/4 checkpoint and through `pathrel train --epochs 1`."""

    RECORDS = [instance_to_record(inst) for inst in
               generate(SynthConfig(n=4, k_types=2, seed=5, blocks=1, fillers=1))]

    @pytest.fixture(scope="class")
    def work(self, tmp_path_factory):
        work = tmp_path_factory.mktemp("dataset-fuzz")
        data, ck = work / "train.jsonl", work / "m.ckpt"
        data.write_text("".join(json.dumps(r) + "\n" for r in self.RECORDS), encoding="utf-8")
        config = ExperimentConfig(model=ModelConfig(word_dim=4, rel_dim=3, conv_dim=4),
                                  schema="synth-k2", epochs=1)
        config.save(work / "config.json")
        assert main(["train", "--config", str(work / "config.json"), "--train", str(data),
                     "--checkpoint", str(ck), "--rule", "prep"]) == 0
        return work

    @settings(max_examples=150, deadline=None)
    @given(text=mutated_records(RECORDS))
    def test_mutated_record_never_exits_1(self, work, text):
        """Exit 0, 3 naming the dataset, or 4 (a label outside the schema); never 1,
        never a traceback."""
        data = work / "mutated.jsonl"
        data.write_text(text, encoding="utf-8")
        for argv in (["eval", "--checkpoint", str(work / "m.ckpt"), "--data", str(data),
                      "--out", str(work / "report.json")],
                     ["train", "--config", str(work / "config.json"), "--train", str(data)]):
            err = io.StringIO()
            with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
                code = main(argv)
            assert code in (0, 3, 4), (argv[0], err.getvalue())
            assert "Traceback" not in err.getvalue()
            if code:
                assert err.getvalue().startswith(f"error: {data}:" if code == 3
                                                 else "schema mismatch: "), err.getvalue()


CONFIG_JUNK = (0, -1, 1e308, math.nan, None, True, "x", [], {"x": 1})
# their defaults would train 10 epochs or 200-wide layers
KEPT = {("model",), ("epochs",), ("model", "word_dim"), ("model", "rel_dim"), ("model", "conv_dim")}


@st.composite
def mutated_configs(draw, config):
    """config with one field, top-level or in a nested document, set to junk or removed, or
    with an unknown key added beside it."""
    config = json.loads(json.dumps(config))
    fields = [(key,) for key in config]
    fields += [(key, sub) for key in config if isinstance(config[key], dict) for sub in config[key]]
    where = draw(st.sampled_from(sorted(fields)))
    doc = config if len(where) == 1 else config[where[0]]
    kind = draw(st.sampled_from(("junk", "unknown", "missing")))
    if kind == "unknown":
        doc["bogus"] = 1
    elif kind == "missing" and where not in KEPT:
        del doc[where[-1]]
    else:
        doc[where[-1]] = draw(st.sampled_from(CONFIG_JUNK))
    return config


def write_tiny_dataset(path, **synth) -> list:
    """A few synthetic k=2 records, written to path as a dataset; returns the instances."""
    instances = generate(SynthConfig(k_types=2, seed=5, blocks=1, fillers=1, **{"n": 4, **synth}))
    path.write_text("".join(json.dumps(instance_to_record(inst)) + "\n" for inst in instances),
                    encoding="utf-8")
    return instances


class TestConfigFuzz:
    """A 4/3/4, one-epoch experiment config with one field mutated, through `pathrel train`."""

    @pytest.fixture(scope="class")
    def work(self, tmp_path_factory):
        work = tmp_path_factory.mktemp("config-fuzz")
        write_tiny_dataset(work / "train.jsonl")
        return work

    CONFIG = ExperimentConfig(model=ModelConfig(word_dim=4, rel_dim=3, conv_dim=4),
                              schema="synth-k2", epochs=1, train_path="train.jsonl").to_dict()

    @settings(max_examples=60, deadline=None)
    @given(config=mutated_configs(CONFIG))
    @example(config={**CONFIG, "model": {**CONFIG["model"], "init_scale": 1e308}})
    @example(config={**CONFIG, "model": {**CONFIG["model"], "l2_lambda": 1e308}})
    @example(config={**CONFIG, "model": {**CONFIG["model"], "l2_lambda": 1e300}})
    def test_mutated_config_never_exits_1(self, work, config):
        """Exit 0, 3 or 4 (a schema the dataset's labels do not fit); never 1, never a
        traceback.  Paths are relative to the work directory."""
        path = work / "config.json"
        path.write_text(json.dumps(config))
        err = io.StringIO()
        with contextlib.chdir(work), contextlib.redirect_stderr(err), \
                contextlib.redirect_stdout(io.StringIO()):
            code = main(["train", "--config", str(path)])
        assert code in (0, 3, 4), err.getvalue()
        assert "Traceback" not in err.getvalue()
        if code:
            assert err.getvalue().startswith("error: " if code == 3 else "schema mismatch: ")


LABEL_POOL = ("Rel1", "Rel2", "Rel3", "Other", "Null", "", "Rel1(e1,e2)", "Rel2(e2,e1)",
              "Other(e1,e2)", "Rel1(e1,e2)(e2,e1)")


@st.composite
def mutated_schemas(draw, schema):
    """schema with its types edited (a label inserted, one dropped or replaced, or the
    order reversed), then one field set to junk or a label, or removed, or an unknown key
    added; either step may leave the schema as it was."""
    schema = json.loads(json.dumps(schema))
    types = schema["types"]
    edit = draw(st.sampled_from(("keep", "insert", "drop", "replace", "reverse")))
    if edit == "insert":
        types.insert(draw(st.integers(0, len(types))), draw(st.sampled_from(LABEL_POOL)))
    elif edit == "drop":
        del types[draw(st.integers(0, len(types) - 1))]
    elif edit == "replace":
        types[draw(st.integers(0, len(types) - 1))] = draw(st.sampled_from(LABEL_POOL + JSON_JUNK))
    elif edit == "reverse":
        types.reverse()
    field = draw(st.sampled_from(sorted(schema)))
    kind = draw(st.sampled_from(("keep", "junk", "label", "missing", "unknown")))
    if kind == "junk":
        schema[field] = draw(st.sampled_from(JSON_JUNK))
    elif kind == "label":
        schema[field] = draw(st.sampled_from(LABEL_POOL))
    elif kind == "missing":
        del schema[field]
    elif kind == "unknown":
        schema["bogus"] = 1
    return schema


class TestSchemaFuzz:
    """A schema file that fits a tiny dataset's labels, mutated, through `pathrel train
    --schema` with a 4/3/4, one-epoch config."""

    SCHEMA = {"name": "tiny", "types": ["Rel1", "Rel2"], "residual": "Other"}

    @pytest.fixture(scope="class")
    def work(self, tmp_path_factory):
        work = tmp_path_factory.mktemp("schema-fuzz")
        instances = write_tiny_dataset(work / "train.jsonl", n=6, residual_frac=0.3)
        assert {inst.label for inst in instances} >= {"Other", "Rel1(e1,e2)", "Rel2(e1,e2)"}
        ExperimentConfig(model=ModelConfig(word_dim=4, rel_dim=3, conv_dim=4),
                         epochs=1).save(work / "config.json")
        assert self.run(work, self.SCHEMA) == (0, "")
        return work

    def run(self, work, schema) -> tuple[int, str]:
        path = work / "schema.json"
        path.write_text(json.dumps(schema), encoding="utf-8")
        err = io.StringIO()
        with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
            code = main(["train", "--config", str(work / "config.json"),
                         "--train", str(work / "train.jsonl"), "--schema", str(path)])
        return code, err.getvalue()

    @pytest.mark.parametrize("residual", ["Rel1(e1,e2)", "Rel2(e2,e1)"])
    def test_residual_equal_to_a_directed_label_exits_3(self, work, residual):
        code, err = self.run(work, {**self.SCHEMA, "residual": residual})
        assert code == 3 and err.startswith(f"error: {work / 'schema.json'}: ")
        assert "directed label" in err

    @settings(max_examples=60, deadline=None)
    @given(schema=mutated_schemas(SCHEMA))
    def test_mutated_schema_never_exits_1(self, work, schema):
        """Exit 0, 3 naming the schema file or the dataset (a label the schema does not
        hold), or 4 (a schema mismatch); never 1, never a traceback."""
        code, err = self.run(work, schema)
        assert code in (0, 3, 4), err
        assert "Traceback" not in err
        if code:
            assert err.startswith("schema mismatch: " if code == 4 else
                                  (f"error: {work / 'schema.json'}: ",
                                   f"error: {work / 'train.jsonl'}:")), err


EMBEDDINGS_JUNK = JUNK + ("nan", "inf", "-inf", "1e400", "1e300", "-1e300", "0x1p3", "1_0",
                          "word", "\u00a0", "\ufeff", "0.5 0.5")


class TestEmbeddingsFuzz:
    """A word-embeddings file for a 4/3/4 model, mutated line by line, through `pathrel
    train --embeddings` for one epoch."""

    @pytest.fixture(scope="class")
    def work(self, tmp_path_factory):
        work = tmp_path_factory.mktemp("embeddings-fuzz")
        write_tiny_dataset(work / "train.jsonl")
        ExperimentConfig(model=ModelConfig(word_dim=4, rel_dim=3, conv_dim=4),
                         schema="synth-k2", epochs=1).save(work / "config.json")
        assert self.run(work, "\n".join(self.LINES) + "\n") == (0, "")
        return work

    # three words of the training vocabulary and one outside it
    LINES = ("ent7 0.1 -0.2 0.3 -0.4", "verb_1_f 1 2 3 4", "prep0 0 0 0 0", "zebra 0.5 0.5 0.5 0.5")

    def run(self, work, text) -> tuple[int, str]:
        path = work / "emb.txt"
        path.write_text(text, encoding="utf-8")
        err = io.StringIO()
        with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
            code = main(["train", "--config", str(work / "config.json"),
                         "--train", str(work / "train.jsonl"), "--embeddings", str(path)])
        return code, err.getvalue()

    @settings(max_examples=60, deadline=None)
    @given(text=mutated_lines(LINES, EMBEDDINGS_JUNK, " "))
    def test_mutated_embeddings_never_exit_1(self, work, text):
        """Exit 0, 3 naming the embeddings file, or 4 (a schema mismatch); never 1,
        never a traceback."""
        code, err = self.run(work, text)
        assert code in (0, 3, 4), err
        assert "Traceback" not in err
        if code:
            assert err.startswith(f"error: {work / 'emb.txt'}:" if code == 3
                                  else "schema mismatch: "), err


class TestDictMatch:
    def test_standoff_output(self, tmp_path, capsys):
        text = tmp_path / "t.txt"
        text.write_text("山上有白杨树。", encoding="utf-8")
        dic = tmp_path / "d.txt"
        dic.write_text("树\n白杨树\n", encoding="utf-8")
        assert main(["dict-match", "--text", str(text), "--dictionary", str(dic)]) == 0
        assert capsys.readouterr().out == "3\t6\t白杨树\n"

    def test_offsets_index_crlf_text_as_stored(self, tmp_path, capsys):
        text, dic = tmp_path / "t.txt", tmp_path / "d.txt"
        text.write_bytes(b"ab\r\ncd\r\nxx cd\r\n")
        dic.write_bytes(b"cd\r\nx\r\n")
        assert main(["dict-match", "--text", str(text), "--dictionary", str(dic)]) == 0
        rows = [line.split("\t") for line in capsys.readouterr().out.splitlines()]
        assert rows == [["4", "6", "cd"], ["8", "9", "x"], ["9", "10", "x"], ["11", "13", "cd"]]
        raw = text.read_bytes().decode("utf-8")
        assert all(raw[int(start):int(end)] == surface for start, end, surface in rows)

    def test_dictionary_byte_order_mark_dropped(self, tmp_path, capsys):
        """A dictionary saved with a BOM still matches its first entry."""
        text, dic = tmp_path / "t.txt", tmp_path / "d.txt"
        text.write_text("ent100 ent101", encoding="utf-8")
        dic.write_text("\ufeffent100\nent101\n", encoding="utf-8")
        assert main(["dict-match", "--text", str(text), "--dictionary", str(dic)]) == 0
        assert capsys.readouterr().out == "0\t6\tent100\n7\t13\tent101\n"

    def test_output_file(self, tmp_path):
        text = tmp_path / "t.txt"
        text.write_text("abab", encoding="utf-8")
        dic = tmp_path / "d.txt"
        dic.write_text("ab\n", encoding="utf-8")
        out = tmp_path / "m.tsv"
        assert main(["dict-match", "--text", str(text), "--dictionary", str(dic),
                     "--out", str(out)]) == 0
        assert out.read_text(encoding="utf-8") == "0\t2\tab\n2\t4\tab\n"
