import json

import pytest

from pathrel.cli import main
from pathrel.data import load_dataset, parse_path_line
from pathrel.model import ModelConfig
from pathrel.structreg import CutRule
from pathrel.synth import SynthConfig, generate
from pathrel.training import ExperimentConfig, train

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

    def test_count_mismatch_exits_3(self, tmp_path, capsys):
        conllu, pairs = self.write_inputs(tmp_path, pairs="1 1 4 4\n1 1 2 2\n")
        assert main(["extract-sdp", "--conllu", str(conllu), "--pairs", str(pairs)]) == 3
        assert "1:1" in capsys.readouterr().err

    def test_span_out_of_range_exits_3(self, tmp_path, capsys):
        conllu, pairs = self.write_inputs(tmp_path, pairs="1 1 9 9\n")
        assert main(["extract-sdp", "--conllu", str(conllu), "--pairs", str(pairs)]) == 3
        assert "exceeds" in capsys.readouterr().err

    def test_missing_file_exits_3(self, tmp_path):
        assert main(["extract-sdp", "--conllu", str(tmp_path / "no.conllu"),
                     "--pairs", str(tmp_path / "no.txt")]) == 3


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
        doc = json.loads(ck.read_text())
        kind, _, key = damage.partition("-")
        if kind == "bad":
            doc["tensors"]["fine_fwd/b"][key] = 5 if key == "shape" else ["x"]
        elif key == "tensors":
            del doc["tensors"]
        elif key in ("shape", "data"):
            del doc["tensors"]["fine_fwd/b"][key]
        else:
            del doc["meta"][key]
        ck.write_text(json.dumps(doc))
        capsys.readouterr()
        assert main(["eval", "--checkpoint", str(ck), "--data", str(dataset)]) == 3
        assert (key if kind == "no" else "fine_fwd/b") in capsys.readouterr().err


class TestDictMatch:
    def test_standoff_output(self, tmp_path, capsys):
        text = tmp_path / "t.txt"
        text.write_text("山上有白杨树。", encoding="utf-8")
        dic = tmp_path / "d.txt"
        dic.write_text("树\n白杨树\n", encoding="utf-8")
        assert main(["dict-match", "--text", str(text), "--dictionary", str(dic)]) == 0
        assert capsys.readouterr().out == "3\t6\t白杨树\n"

    def test_output_file(self, tmp_path):
        text = tmp_path / "t.txt"
        text.write_text("abab", encoding="utf-8")
        dic = tmp_path / "d.txt"
        dic.write_text("ab\n", encoding="utf-8")
        out = tmp_path / "m.tsv"
        assert main(["dict-match", "--text", str(text), "--dictionary", str(dic),
                     "--out", str(out)]) == 0
        assert out.read_text(encoding="utf-8") == "0\t2\tab\n2\t4\tab\n"
