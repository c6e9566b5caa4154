import json
import math

import pytest

from pathrel.codec import DocumentError
from pathrel.labels import SANWEN, LabelSchema
from pathrel.model import ModelConfig
from pathrel.structreg import CutRule
from pathrel.training import ExperimentConfig

MODEL_DICT = {
    "word_dim": 200, "rel_dim": 50, "conv_dim": 200, "alpha": 0.5, "l2_lambda": 1e-5,
    "keep_prob": 0.5, "lstm_variant": "standard", "share_fine_heads": False,
    "l2_include_embeddings": False, "init_scale": 0.1,
}
RULE_DICT = {"variant": "none", "p": 0.5, "seed": 0, "tag_set": ["ADP", "IN", "P"]}


class TestToDict:
    def test_model_config(self):
        assert ModelConfig().to_dict() == MODEL_DICT

    def test_cut_rule_sorts_tag_set(self):
        assert CutRule().to_dict() == RULE_DICT
        assert CutRule("prep", tag_set=frozenset({"b", "a"})).to_dict()["tag_set"] == ["a", "b"]

    def test_label_schema(self):
        assert SANWEN.to_dict() == {
            "name": "sanwen",
            "types": ["Located", "Near", "Part-Whole", "Family", "Social", "Create", "Use",
                      "Ownership", "General-Special"],
            "residual": "Null",
        }

    def test_experiment_config_nests(self):
        assert ExperimentConfig().to_dict() == {
            "model": MODEL_DICT, "rule": RULE_DICT, "schema": "semeval", "seed": 0,
            "epochs": 10, "val_size": 0, "train_path": None,
            "embeddings_path": None, "checkpoint_path": None, "log_path": None,
        }

    def test_json_round_trip(self):
        cfg = ExperimentConfig(model=ModelConfig(word_dim=8, alpha=1),
                               rule=CutRule("random", p=1, seed=3), train_path="t.jsonl")
        assert ExperimentConfig.from_dict(json.loads(json.dumps(cfg.to_dict()))) == cfg


class TestFromDict:
    def test_absent_fields_take_defaults(self):
        assert ExperimentConfig.from_dict({}) == ExperimentConfig()
        assert ExperimentConfig.from_dict({"model": {"word_dim": 8}}).model == ModelConfig(word_dim=8)
        assert LabelSchema.from_dict({"name": "x", "types": ["A"]}).residual == "Other"

    def test_lists_become_tuples_and_sets(self):
        assert LabelSchema.from_dict({"name": "x", "types": ["A", "B"]}).types == ("A", "B")
        assert CutRule.from_dict({"tag_set": ["ADP"]}).tag_set == frozenset({"ADP"})

    @pytest.mark.parametrize("cls, doc, message", [
        (ModelConfig, [], "ModelConfig must be a JSON object, got list"),
        (CutRule, {"variant": "prep", "tags": ["ADP"]}, "CutRule has unknown field 'tags'"),
        (LabelSchema, {"name": "x"}, "LabelSchema is missing field 'types'"),
        (ModelConfig, {"word_dim": "abc"}, "ModelConfig.word_dim must be int, got 'abc'"),
        (ModelConfig, {"word_dim": 2.0}, "ModelConfig.word_dim must be int"),
        (ModelConfig, {"share_fine_heads": 1}, "ModelConfig.share_fine_heads must be bool"),
        (CutRule, {"seed": True}, "CutRule.seed must be int"),
        (CutRule, {"p": "0.5"}, "CutRule.p must be float"),
        (LabelSchema, {"name": "x", "types": "AB"}, "LabelSchema.types must be tuple[str, ...]"),
        (LabelSchema, {"name": "x", "types": ["A", 2]}, "LabelSchema.types must be"),
        (ExperimentConfig, {"train_path": 5}, "ExperimentConfig.train_path must be str | None"),
        (ExperimentConfig, {"model": {"bogus": 1}},
         "ExperimentConfig.model: ModelConfig has unknown field 'bogus'"),
        (ExperimentConfig, {"rule": "prep"},
         "ExperimentConfig.rule: CutRule must be a JSON object, got str"),
        (ModelConfig, {"alpha": 1.5}, "ModelConfig: alpha 1.5 outside [0, 1]"),
        (ExperimentConfig, {"epochs": 0}, "ExperimentConfig: epochs must be >= 1"),
        (ModelConfig, {"l2_lambda": math.nan}, "ModelConfig: l2_lambda nan must be finite and >= 0"),
        (ModelConfig, {"l2_lambda": -1e-5}, "ModelConfig: l2_lambda -1e-05 must be finite and >= 0"),
        (ModelConfig, {"l2_lambda": math.inf}, "ModelConfig: l2_lambda inf must be finite"),
        (ModelConfig, {"init_scale": math.nan}, "ModelConfig: init_scale nan must be finite and > 0"),
        (ModelConfig, {"init_scale": -math.inf}, "ModelConfig: init_scale -inf must be finite"),
        (ModelConfig, {"init_scale": 0}, "ModelConfig: init_scale 0 must be finite and > 0"),
        (ModelConfig, {"init_scale": -0.1}, "ModelConfig: init_scale -0.1 must be finite and > 0"),
        (ExperimentConfig, {"seed": -1}, "ExperimentConfig: seed -1 must be >= 0"),
        (ModelConfig, {"init_scale": 1e308}, "ModelConfig: init_scale 1e+308 must be finite and > 0, "
         "as must twice it"),
    ])
    def test_rejects_with_document_and_field(self, cls, doc, message):
        with pytest.raises(DocumentError) as exc:
            cls.from_dict(doc)
        assert str(exc.value).startswith(message)

    def test_source_prefixes_message(self):
        with pytest.raises(DocumentError, match=r"^cfg\.json: CutRule has unknown field 'x'$"):
            CutRule.from_dict({"x": 1}, source="cfg.json")
