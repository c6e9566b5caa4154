"""Tests for the benchmark's tracer and traced run.

    python3 -m pytest -q bench/tests
"""

import json
import os
import signal
import sys
import time

import pytest

BENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT = os.path.dirname(BENCH)
sys.path[:0] = [BENCH, os.path.join(ROOT, "src")]

import run  # noqa: E402
import speed  # noqa: E402
import traced  # noqa: E402
from tracer import Tracer, leftover_wrappers, self_times, summarize  # noqa: E402
from workloads import ACCEPTANCE_GEN, EPOCHS, Workload, generate_inputs  # noqa: E402

import pathrel  # noqa: E402
from pathrel import autodiff, checkpoint, model, optim, structreg, training  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as _fh:
    PER_LAYER = json.load(_fh)["per_layer"]
PER_LAYER_NAMES = [m["name"] for m in PER_LAYER]
SPANNED, _ = traced.spanned_functions(PER_LAYER_NAMES)

TINY = Workload(
    name="tiny",
    gen=dict(ACCEPTANCE_GEN),
    model=dict(word_dim=6, rel_dim=4, conv_dim=6, keep_prob=0.5, l2_lambda=1e-5),
    rule="prep",
    chunk_fit=12, chunk_eval=6, val_size=4,
    n_train=24, n_test=12, n_extract=12, n_text=6, n_dict=20,
)


def test_self_time_subtracts_covered_child_time():
    # root [0, 10] holds a [1, 3] and b [4, 8]; b holds c [5, 6] and d [5.5, 7],
    # which overlap, so b's children cover 2 units, not 2.5
    spans = [
        ["root", 0.0, 10.0, -1],
        ["a", 1.0, 3.0, 0],
        ["b", 4.0, 8.0, 0],
        ["c", 5.0, 6.0, 2],
        ["d", 5.5, 7.0, 2],
    ]
    assert self_times(spans) == pytest.approx([4.0, 2.0, 2.0, 1.0, 1.5])
    summary = summarize(spans + [["a", 8.5, 9.0, 0]])
    assert summary["a"]["calls"] == 2
    assert summary["a"]["self_s"] == pytest.approx(2.5)
    assert summary["root"]["self_s"] == pytest.approx(3.5)


def test_child_time_outside_parent_is_not_subtracted():
    spans = [["p", 0.0, 2.0, -1], ["c", 1.5, 3.0, 0]]
    assert self_times(spans) == pytest.approx([1.5, 1.5])


def test_wrap_records_nesting_and_returns_result():
    ticks = iter(range(100))
    tracer = Tracer(clock=lambda: float(next(ticks)))
    inner = tracer.wrap("inner", lambda x: x + 1)
    outer = tracer.wrap("outer", lambda x: inner(x) * 2)
    assert outer(3) == 8
    assert tracer.spans == [["outer", 0.0, 3.0, -1], ["inner", 1.0, 2.0, 0]]


def test_spanned_functions_come_from_benchmark_json():
    spanned, per_example = traced.spanned_functions(PER_LAYER_NAMES)
    assert "optim.adadelta_step" in spanned and "optim.adadelta_step" in per_example
    assert "training.train" in spanned and "training.train" not in per_example
    assert per_example <= set(spanned)
    # the derived counts and shares are not spanned functions
    assert "autodiff.tape_nodes_per_example" not in spanned


def _inputs(tmp_path):
    files = generate_inputs(TINY, 5, str(tmp_path / "inputs"))
    work = {
        "dir": str(tmp_path),
        "paths": str(tmp_path / "paths.jsonl"),
        "matches": str(tmp_path / "matches.tsv"),
        "checkpoint": str(tmp_path / "model.ckpt"),
    }
    return files, work


def test_traced_and_untraced_runs_agree(tmp_path):
    files, work = _inputs(tmp_path)
    plain = run.Round()
    run.run_round(TINY, files, work, plain)
    runs = []
    for _ in range(2):
        tracing = traced.TracedRun(PER_LAYER_NAMES)
        rnd = run.Round()
        tracing.run(lambda: run.run_round(TINY, files, work, rnd), rnd)
        assert rnd.result.history == plain.result.history
        assert rnd.cm.macro_f1() == plain.cm.macro_f1()
        runs.append(tracing.metrics())

    assert set(runs[0]) | {"trace.overhead_frac"} == set(PER_LAYER_NAMES)
    counts = [m["name"] for m in PER_LAYER if m["unit"] == "count" and m["name"] in runs[0]]
    assert [runs[0][n] for n in counts] == [runs[1][n] for n in counts]

    m = runs[0]
    steps = EPOCHS * TINY.fit_examples
    assert m["training.train.calls"] == 1
    assert m["optim.adadelta_step.calls"] == steps
    assert m["autodiff.ParamStore.l2_penalty.calls"] == steps
    assert m["data.load_dataset.path_between_calls"] == TINY.n_train + TINY.n_test
    assert m["autodiff.tape_nodes_per_example"] > 0
    assert m["model.lstm_steps_per_example"] > 0

    assert leftover_wrappers() == []
    checks, info = run.check_outputs(TINY, files, work, [plain])
    assert all(checks.values()), checks
    assert info["round_train_loss"] == plain.result.history[-1]["loss"]


def test_wrappers_removed_after_traced_run():
    originals = {
        "training.backward": training.backward,
        "training.adadelta_step": training.adadelta_step,
        "model.lstm_step": model.lstm_step,
        "structreg.path_between": structreg.path_between,
        "checkpoint.load_checkpoint": checkpoint.load_checkpoint,
        "pathrel.train": pathrel.train,
    }
    load_raw = model.RelationModel.__dict__["load"]
    loss_raw = model.RelationModel.__dict__["loss"]
    tracer = Tracer()
    with tracer.installed(SPANNED):
        assert training.backward is not originals["training.backward"]
        assert leftover_wrappers()
    assert leftover_wrappers() == []
    assert training.backward is autodiff.backward is originals["training.backward"]
    assert training.adadelta_step is optim.adadelta_step
    assert model.lstm_step is originals["model.lstm_step"]
    assert structreg.path_between is originals["structreg.path_between"]
    assert checkpoint.load_checkpoint is originals["checkpoint.load_checkpoint"]
    assert pathrel.train is originals["pathrel.train"]
    assert model.RelationModel.__dict__["load"] is load_raw
    assert model.RelationModel.__dict__["loss"] is loss_raw

    # also after a round that raises inside the traced region
    with pytest.raises(RuntimeError):
        with tracer.installed(SPANNED):
            raise RuntimeError("stage failed")
    assert leftover_wrappers() == []


def test_sampler_ticks_inside_the_call_and_restores_sigalrm():
    def busy():
        end = time.perf_counter() + 4 * speed.PERIOD_S
        while time.perf_counter() < end:
            pass
        return "done"

    before = signal.getsignal(signal.SIGALRM)
    sampler = speed.Sampler()
    out, elapsed, machine_speed = sampler.measure(busy)
    assert out == "done"
    assert len(sampler.loops) > 2 * speed.EDGE_LOOPS  # some loops ran inside the call
    assert sampler.overhead > 0 and elapsed > 0 and machine_speed > 0
    assert signal.getsignal(signal.SIGALRM) is before
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)

    with pytest.raises(ZeroDivisionError):
        sampler.measure(lambda: 1 / 0)
    assert signal.getsignal(signal.SIGALRM) is before
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
