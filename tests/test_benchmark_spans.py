"""Every function BENCHMARK.json's traced run spans still exists under its name.

The traced run (`bench/run.py --trace 1`) wraps each `<function>` named by a
`<function>.calls` per-layer metric; a rename in pathrel would break it.  Its
observers also read pathrel objects: the parameter count off
`model.store.items()`, the tape size off the loss node's `_parents`, and the
SR and plain path lengths off `extract_sr_sdp`'s first argument's `.base` (the
`DependencyTree` it was cut from) and its result's `.nodes`.  Its oracles
(`bench/oracles.py`) read each parsed token's `index`, `head` and `deprel`.  Its
save/reload stages and its `reload_bit_identical` check call the model's
persistence and prediction API the way the last tests here do; its
`checkpoint.bytes` is len() of what `checkpoint.checkpoint_bytes` returns.
"""

import importlib
import json
import os
from pathlib import Path

import numpy as np
import pytest
from helpers import tape_nodes

from pathrel import checkpoint
from pathrel.autodiff import Node
from pathrel.depgraph import DependencyTree, PathEdge, SdpPath, parse_conllu
from pathrel.labels import synth_schema
from pathrel.model import ModelConfig, Prediction, RelationModel, RelationVocabulary, Vocabulary
from pathrel.structreg import CutRule, cut_and_line, extract_sr_sdp, select_cut_nodes

BENCHMARK = Path(__file__).resolve().parents[1] / "BENCHMARK.json"


def spanned_functions() -> list[str]:
    per_layer = json.loads(BENCHMARK.read_text(encoding="utf-8"))["per_layer"]
    return [m["name"][: -len(".calls")] for m in per_layer if m["name"].endswith(".calls")]


def test_benchmark_spans_some_functions():
    assert len(spanned_functions()) > 10


@pytest.mark.parametrize("name", spanned_functions())
def test_spanned_function_resolves(name):
    module_name, *attrs = name.split(".")
    owner = importlib.import_module(f"pathrel.{module_name}")
    assert len(attrs) in (1, 2), name
    if len(attrs) == 2:
        owner = getattr(owner, attrs[0])
        assert isinstance(owner, type), f"{name}: {attrs[0]} is not a class"
        assert attrs[1] in vars(owner), f"{name}: {attrs[0]} defines no {attrs[1]}"
    assert callable(getattr(owner, attrs[-1], None)), f"{name} is not a function"


def small_model() -> RelationModel:
    config = ModelConfig(word_dim=4, rel_dim=3, conv_dim=5)
    return RelationModel(config, synth_schema(2), Vocabulary(["a", "b"]),
                         RelationVocabulary(["nsubj"]), seed=0)


def test_store_items_count_every_parameter():
    store = small_model().store
    items = store.items()
    assert items and all(isinstance(name, str) for name, _ in items)
    assert sum(t.data.size for _, t in items) == store.data.size


PATH = SdpPath(nodes=(1, 2), edges=(PathEdge("nsubj", "UP"),), forms=("a", "b"), pos=("X", "X"))


def test_loss_node_exposes_its_parents():
    """The walk of _parents from the loss, as the traced run's tape count makes it,
    finds the heads, the 2 conv-pools and their 4 channel nodes, which read only
    parameters: 7 nodes, and no parameter."""
    model = small_model()
    node = model.loss(PATH, model.schema.fine_label(0), dropout_rng=np.random.default_rng(0))
    assert len(node._parents) == 2
    channels = [channel for pool in node._parents for channel in pool._parents]
    assert len(channels) == 4 and all(channel._parents == () for channel in channels)
    nodes = tape_nodes(node)
    assert len(nodes) == 7
    params = {id(param) for _, param in model.store.items()}
    assert all(isinstance(n, Node) and id(n) not in params for n in nodes)


CONLLU = (
    "1\tdogs\t_\tNOUN\t_\t_\t2\tnsubj\t_\t_\n"
    "2\tsleep\t_\tVERB\t_\t_\t0\troot\t_\t_\n"
    "3\ton\t_\tADP\t_\t_\t2\tprep\t_\t_\n"
    "4\tmats\t_\tNOUN\t_\t_\t3\tpobj\t_\t_\n"
)


def test_parsed_tokens_expose_what_the_oracles_read():
    (tree,) = parse_conllu(CONLLU)
    assert [(t.index, t.head, t.deprel) for t in tree.tokens] == [
        (1, 2, "nsubj"), (2, 0, "root"), (3, 2, "prep"), (4, 3, "pobj")]


def test_extract_sr_sdp_exposes_its_base_tree_and_nodes():
    (tree,) = parse_conllu(CONLLU)
    rt = cut_and_line(tree, select_cut_nodes(tree, CutRule(variant="prep")))
    assert isinstance(rt.base, DependencyTree) and rt.base is tree
    assert extract_sr_sdp(rt, 1, 4).nodes == (1, 2, 3, 4)


def test_save_reload_and_predict_as_the_benchmark_does(tmp_path):
    model = small_model()
    rule = CutRule(variant="prep")
    path = str(tmp_path / "model.ckpt")
    model.save(path, extra_meta={"rule": rule.to_dict()})
    reloaded = RelationModel.load(path)
    assert reloaded.meta["rule"] == rule.to_dict()
    assert len(reloaded.word_vocab) == len(model.word_vocab) == 3
    (label, pred), (label0, pred0) = reloaded.predict(PATH), model.predict(PATH)
    assert isinstance(pred, Prediction) and label == label0
    for name in ("y_fwd", "y_bwd", "y_coarse", "y_test"):
        assert getattr(pred, name).tobytes() == getattr(pred0, name).tobytes(), name


def test_save_builds_the_file_once_and_load_reads_it_once(tmp_path, monkeypatch):
    """Through the module attributes the traced run wraps: save builds the file with one
    checkpoint_bytes call whose len() is the size written, and load reads it with one
    load_checkpoint call."""
    sizes, loads = [], []
    build, load = checkpoint.checkpoint_bytes, checkpoint.load_checkpoint

    def counted_build(*args, **kwargs):
        raw = build(*args, **kwargs)
        sizes.append(len(raw))
        return raw

    def counted_load(*args, **kwargs):
        loads.append(args)
        return load(*args, **kwargs)

    monkeypatch.setattr(checkpoint, "checkpoint_bytes", counted_build)
    monkeypatch.setattr(checkpoint, "load_checkpoint", counted_load)
    path = str(tmp_path / "model.ckpt")
    small_model().save(path)
    assert sizes == [os.path.getsize(path)]
    RelationModel.load(path)
    assert loads == [(path,)]
