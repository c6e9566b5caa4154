"""Every function BENCHMARK.json's traced run spans still exists under its name.

The traced run (`bench/run.py --trace 1`) wraps each `<function>` named by a
`<function>.calls` per-layer metric; a rename in pathrel would break it.  Its
observers also read pathrel objects: the parameter count off
`model.store.items()`, the tape size off the loss node's `_parents`, and the
SR and plain path lengths off `extract_sr_sdp`'s first argument's `.base` (the
`DependencyTree` it was cut from) and its result's `.nodes`, so extract-sdp and
`prepare_paths` call it once per sentence.  Its oracles
(`bench/oracles.py`) read each parsed token's `index`, `head` and `deprel`.  Its
save/reload stages and its `reload_bit_identical` check call the model's
persistence and prediction API the way the last tests here do; its
`checkpoint.bytes` is len() of what `checkpoint.checkpoint_bytes` returns.
"""

import gc
import importlib
import json
import os
import sys
from pathlib import Path

import numpy as np
import pytest
from helpers import tape_nodes

from pathrel import checkpoint, optim, structreg
from pathrel.autodiff import Node, ParamStore
from pathrel.cli import main
from pathrel.depgraph import DependencyTree, PathEdge, SdpPath, parse_conllu
from pathrel.labels import synth_schema
from pathrel.model import ModelConfig, Prediction, RelationModel, RelationVocabulary, Vocabulary
from pathrel.structreg import CutRule, cut_and_line, extract_sr_sdp, select_cut_nodes
from pathrel.synth import SynthConfig, generate
from pathrel.training import ExperimentConfig, prepare_paths, train

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


PATH = SdpPath(nodes=(1, 2), deprels=("nsubj",), directions=("UP",), forms=("a", "b"),
               pos=("X", "X"))


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


def record_calls(monkeypatch, fn) -> list:
    """(arguments, result) of every call of fn, wrapped where the traced run
    wraps it: in every pathrel module that holds it."""
    calls = []

    def recorded(*args):
        result = fn(*args)
        calls.append((args, result))
        return result

    for key, module in list(sys.modules.items()):
        if key == "pathrel" or key.startswith("pathrel."):
            for attr, value in list(vars(module).items()):
                if value is fn:
                    monkeypatch.setattr(module, attr, recorded)
    return calls


@pytest.mark.parametrize("rule", CutRule.VARIANTS)
def test_extract_sdp_calls_extract_sr_sdp_once_per_sentence(tmp_path, monkeypatch, rule):
    text = CONLLU + "\n" + CONLLU.replace("mats", "rugs") + "\n" + CONLLU
    conllu, pairs = tmp_path / "s.conllu", tmp_path / "pairs.txt"
    conllu.write_text(text)
    pairs.write_text("1 1 4 4\n2 2 4 4\n4 4 1 1\n")
    calls = record_calls(monkeypatch, structreg.extract_sr_sdp)
    assert main(["extract-sdp", "--conllu", str(conllu), "--pairs", str(pairs), "--rule", rule,
                 "--out", str(tmp_path / "p.txt")]) == 0
    trees = parse_conllu(text)
    assert [(type(rt.base), rt.base, h1, h2) for (rt, h1, h2), _ in calls] == [
        (DependencyTree, trees[0], 1, 4), (DependencyTree, trees[1], 2, 4),
        (DependencyTree, trees[2], 4, 1)]


def test_prepare_paths_calls_extract_sr_sdp_once_per_instance(monkeypatch):
    instances = generate(SynthConfig(n=12, k_types=2, seed=1))
    calls = record_calls(monkeypatch, structreg.extract_sr_sdp)
    prepared = prepare_paths(instances, CutRule(variant="random", seed=2))
    assert len(calls) == len(instances)
    assert all(args[0].base is inst.tree for (args, _), inst in zip(calls, instances))
    assert [path.nodes for _, path in calls] == [ex.path.nodes for ex in prepared]


@pytest.mark.parametrize("l2_lambda", [1e-3, 0.0])
def test_train_calls_l2_penalty_once_per_step(monkeypatch, l2_lambda):
    """ParamStore.l2_penalty, wrapped on the class as the traced run wraps it, runs once
    per training step (each adadelta_step call) when l2_lambda > 0 and never at 0."""
    penalties, penalty = [], ParamStore.l2_penalty

    def counted(store, weight):
        penalties.append(weight)
        return penalty(store, weight)

    monkeypatch.setattr(ParamStore, "l2_penalty", counted)
    steps = record_calls(monkeypatch, optim.adadelta_step)
    model = ModelConfig(word_dim=4, rel_dim=3, conv_dim=5, l2_lambda=l2_lambda)
    train(ExperimentConfig(model=model, schema="synth-k2", epochs=2),
          train_instances=generate(SynthConfig(n=6, k_types=2, seed=1)))
    assert len(steps) == 12
    assert penalties == ([l2_lambda] * 12 if l2_lambda > 0.0 else [])


def test_prepared_paths_hold_no_path_edges():
    """A path holds its edges as columns: preparing a corpus adds no PathEdge
    for the collector to track."""
    def path_edges():
        return sum(type(o) is PathEdge for o in gc.get_objects())

    instances = generate(SynthConfig(n=60, k_types=2, seed=3))
    gc.collect()
    before = path_edges()
    prepared = prepare_paths(instances, CutRule(variant="random", seed=5))
    assert sum(len(ex.path) - 1 for ex in prepared) > 60
    assert path_edges() == before


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
