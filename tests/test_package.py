"""The package namespace: its public names, and what `import pathrel` loads."""

import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import pathrel

SRC = str(Path(__file__).resolve().parent.parent / "src")

# each public name by the module that defines it
HOMES = {
    "autodiff": ["ParamStore", "backward", "finite_difference_check"],
    "checkpoint": ["load_checkpoint", "save_checkpoint"],
    "data": ["load_dataset", "save_dataset"],
    "depgraph": ["DependencyTree", "EntitySpan", "Instance", "PathEdge", "SdpPath", "Token",
                 "entity_head", "parse_conllu", "path_between", "serialize_conllu"],
    "dictmatch": ["Match", "dict_match"],
    "labels": ["SANWEN", "SEMEVAL", "LabelSchema", "load_schema", "synth_schema"],
    "metrics": ["ConfusionMatrix", "macro_f1"],
    "model": ["ModelConfig", "Prediction", "RelationModel", "decode"],
    "optim": ["AdaDeltaState", "adadelta_step"],
    "structreg": ["SR_LINK", "CutRule", "RegularizedTree", "cut_and_line", "extract_sr_sdp",
                  "select_cut_nodes"],
    "synth": ["SynthConfig", "generate"],
    "training": ["ExperimentConfig", "SchemaMismatch", "evaluate", "prepare_paths", "train"],
}
HOME = {name: module for module, names in HOMES.items() for name in names}

PUBLIC = ["__version__", *HOME]  # the package's `__all__`, 46 entries

CONLLU = (
    "1\tdogs\t_\tNOUN\t_\t_\t2\tnsubj\t_\t_\n"
    "2\tchase\t_\tVERB\t_\t_\t0\troot\t_\t_\n"
    "3\tcats\t_\tNOUN\t_\t_\t2\tdobj\t_\t_\n"
)

# data work through the package only, then one training name
DATA_ONLY = """
import sys
import pathrel

schema = pathrel.load_schema("synth-k3")
(inst,) = pathrel.load_dataset(sys.argv[1], schema)
(tree,) = pathrel.parse_conllu(sys.argv[2])
path = pathrel.path_between(tree, pathrel.entity_head(tree, inst.e1), pathrel.entity_head(tree, inst.e2))
assert path.forms == ("dogs", "chase", "cats"), path
assert pathrel.dict_match("dogs chase cats", ["cats"]) == [pathrel.Match(11, 15, "cats")]
print(" ".join(sorted(sys.modules)))
pathrel.train
print(" ".join(sorted(sys.modules)))
"""

MODEL_STACK = ["numpy", "pathrel.model", "pathrel.training", "pathrel.autodiff", "pathrel.optim",
               "pathrel.checkpoint", "pathrel.synth", "pathrel.structreg"]


def test_data_work_loads_no_numpy_and_no_model(tmp_path):
    dataset = tmp_path / "d.jsonl"
    record = {"id": "s1", "conllu": CONLLU, "e1": [1, 1], "e2": [3, 3], "label": "Rel1(e2,e1)"}
    dataset.write_text(json.dumps(record) + "\n", encoding="utf-8")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run([sys.executable, "-W", "error", "-c", DATA_ONLY, str(dataset), CONLLU],
                          env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    before, after = (set(line.split()) for line in proc.stdout.splitlines())
    assert {"pathrel.labels", "pathrel.data", "pathrel.depgraph", "pathrel.dictmatch"} <= before
    assert sorted(before & set(MODEL_STACK)) == []
    assert {"pathrel.training", "numpy"} <= after


def test_public_names_unchanged():
    assert len(PUBLIC) == 46
    assert sorted(pathrel.__all__) == sorted(PUBLIC)
    assert len(set(pathrel.__all__)) == len(pathrel.__all__)
    assert set(PUBLIC) <= set(dir(pathrel))


@pytest.mark.parametrize("name", sorted(HOME))
def test_each_name_is_its_home_modules_object(name):
    value = getattr(pathrel, name)
    assert value is getattr(importlib.import_module(f"pathrel.{HOME[name]}"), name)
    assert getattr(pathrel, name) is value  # kept after the first access


def test_star_import_binds_every_name():
    namespace = {}
    exec("from pathrel import *", namespace)
    assert set(namespace) - {"__builtins__"} == set(PUBLIC)
    assert all(namespace[name] is getattr(pathrel, name) for name in PUBLIC)


def test_unknown_name_is_an_attribute_error():
    with pytest.raises(AttributeError, match=r"^module 'pathrel' has no attribute 'nope'$"):
        pathrel.nope
    assert not hasattr(pathrel, "nope")


def test_submodules_still_import_from_the_package():
    from pathrel import model

    assert model is sys.modules["pathrel.model"]
    assert model.RelationModel is pathrel.RelationModel
