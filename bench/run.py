"""pathrel benchmark: one workload as a single-process, closed-loop batch job.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

The benchmark generates the workload's input files from the seed, times
`import pathrel` plus reading them in fresh processes (setup_s), runs the
untimed quality stage (train_loss, test_nll, test_macro_f1), then runs
rounds of the workload's seven-stage pipeline until S seconds have
passed (a stage shorter than MIN_STAGE_S repeats within its round) and
reports the median of each stage's figure over all repetitions, restated
at the machine's nominal speed (speed.py).  Outputs are checked
against the oracles in oracles.py.  With --trace 1 it instead runs
TRACE_PAIRS pairs of rounds, untraced then traced, whatever S says, so
that every count repeats exactly: the per-layer metrics come from the
traced rounds and trace.overhead_frac compares the two kinds.  Metric names,
units and the spanned functions come from BENCHMARK.json.  The last line
of standard output is one JSON object: {"correct", "attempted",
"failed", "metrics"}.
"""

from __future__ import annotations

import os
import sys

BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

import argparse  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402

import oracles  # noqa: E402
import speed  # noqa: E402
import traced  # noqa: E402
from workloads import (  # noqa: E402
    EPOCHS, EXTRACT_RULE, QUALITY, SCHEMA, WORKLOADS, input_paths, sha256,
)

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
BENCHMARK_JSON = os.path.join(ROOT, "BENCHMARK.json")

STAGES = ("load", "extract", "dict", "train", "save", "reload", "eval")
MIN_STAGE_S = 2.0  # untraced rounds repeat a shorter stage, up to MAX_REPS times
MAX_REPS = 10
SETUP_PROBES = 15
TRACE_PAIRS = 1
CHECK_SAMPLE = 50
# the quality stage must end below this share of the loss (and of the test
# NLL) of a model that predicts uniformly
LEARNED_FRAC = 0.6


def fail(message: str, code: int = 2):
    print(f"bench: {message}", file=sys.stderr)
    sys.exit(code)


# ---------------------------------------------------------------------------
# one round of the pipeline


class Round:
    """Times and outputs of one pass over the seven stages."""

    def __init__(self):
        self.times: dict[str, list[float]] = {}  # one entry per repetition
        self.speeds: dict[str, list[float]] = {}  # machine speed during each repetition
        self.wall = 0.0
        self.result = self.reloaded = self.cm = self.eval_set = None
        self.checkpoint_bytes = 0


def run_round(wl, files, work, rnd: Round, sampler=None, min_stage_s: float = 0.0) -> None:
    """Run the stages in order, filling rnd; an exception leaves later stages untimed.

    A stage repeats until its repetitions took min_stage_s, at most
    MAX_REPS times.  A speed.Sampler, when given, times each repetition
    and the machine's speed during it (rnd.speeds).  Every pathrel function is
    looked up on its module at call time, so the traced run's wrappers see
    these calls too.
    """
    from pathrel import cli, data, labels, model, structreg, training

    schema = labels.load_schema(SCHEMA)
    rule = structreg.CutRule(variant=wl.rule)
    clock = time.perf_counter

    def timed(stage, fn):
        samples, speeds = [], []
        while not samples or (sum(samples) < min_stage_s and len(samples) < MAX_REPS):
            if sampler is None:
                t = clock()
                out = fn()
                samples.append(clock() - t)
            else:
                out, elapsed, machine_speed = sampler.measure(fn)
                samples.append(elapsed)
                speeds.append(machine_speed)
        rnd.times[stage] = samples
        if speeds:
            rnd.speeds[stage] = speeds
        return out

    start = clock()
    train_set, test_set = timed("load", lambda: (
        data.load_dataset(files["train"], schema), data.load_dataset(files["test"], schema)))
    timed("extract", lambda: _cli(cli, [
        "extract-sdp", "--conllu", files["conllu"], "--pairs", files["pairs"],
        "--rule", EXTRACT_RULE, "--json", "--out", work["paths"]]))
    timed("dict", lambda: _cli(cli, [
        "dict-match", "--text", files["text"], "--dictionary", files["dictionary"],
        "--out", work["matches"]]))
    config = training.ExperimentConfig(
        model=model.ModelConfig(**wl.model), rule=rule, schema=SCHEMA,
        seed=0, epochs=EPOCHS, val_size=wl.val_size,
    )
    fit_set = train_set[: wl.chunk_fit]
    rnd.result = timed("train", lambda: training.train(config, train_instances=fit_set))
    timed("save", lambda: rnd.result.model.save(
        work["checkpoint"], extra_meta={"rule": rule.to_dict()}))
    rnd.checkpoint_bytes = os.path.getsize(work["checkpoint"])
    rnd.reloaded = timed("reload", lambda: model.RelationModel.load(work["checkpoint"]))
    rnd.eval_set = test_set[: wl.chunk_eval]
    rnd.cm = timed("eval", lambda: training.evaluate(rnd.reloaded, rnd.eval_set, rule))
    rnd.wall = clock() - start


def _cli(cli, argv) -> None:
    code = cli.main(argv)
    if code != 0:
        raise RuntimeError(f"pathrel {argv[0]} exited {code}")


def run_quality(files) -> tuple[dict[str, bool], dict]:
    """Train and evaluate the fixed-seed quality model; checks and figures."""
    from pathrel import data, labels, model, structreg, training

    q = QUALITY
    schema = labels.load_schema(q.schema)
    rule = structreg.CutRule(variant=q.rule)
    config = training.ExperimentConfig(
        model=model.ModelConfig(**q.model), rule=rule, schema=q.schema,
        seed=0, epochs=q.epochs, val_size=q.val_size,
    )
    result = training.train(config, train_instances=data.load_dataset(files["quality_train"], schema))
    test_set = data.load_dataset(files["quality_test"], schema)
    cm = training.evaluate(result.model, test_set, rule)
    nll = -statistics.fmean(
        math.log(result.model.predict(ex.path)[1].y_test[schema.fine_index(ex.label)])
        for ex in training.prepare_paths(test_set, rule)
    )
    losses = [h["loss"] for h in result.history]
    # the fine heads score both directions, the coarse head scores once
    uniform = 2 * math.log(schema.fine_size) + math.log(schema.coarse_size)
    checks = {
        "quality_loss_finite": all(math.isfinite(x) for x in losses) and math.isfinite(nll),
        "quality_learned": losses[-1] < LEARNED_FRAC * uniform
        and nll < LEARNED_FRAC * math.log(schema.fine_size),
    }
    info = {"train_loss": losses[-1], "test_nll": nll, "test_macro_f1": cm.macro_f1(),
            "quality_history": result.history, "uniform_loss": uniform}
    return checks, info


def nominal_times(rnd: Round) -> dict[str, list[float]]:
    """Each repetition's time restated at nominal speed."""
    return {stage: [t * v for t, v in zip(times, rnd.speeds[stage])]
            for stage, times in rnd.times.items()}


def round_figures(wl, chars: int, times: dict[str, list[float]]) -> dict[str, list[float]]:
    """Each end-to-end figure of every repetition in a round, from its stage times."""

    def per_s(work, stage):
        return [work / t for t in times[stage]]

    return {
        "train_examples_per_s": per_s(EPOCHS * wl.fit_examples, "train"),
        "eval_examples_per_s": per_s(wl.chunk_eval, "eval"),
        "checkpoint_save_s": times["save"],
        "checkpoint_load_s": times["reload"],
        "extract_sentences_per_s": per_s(wl.n_extract, "extract"),
        "load_records_per_s": per_s(wl.n_train + wl.n_test, "load"),
        "dict_match_chars_per_s": per_s(chars, "dict"),
    }


# ---------------------------------------------------------------------------
# output checks, each against an independent oracle


def check_outputs(wl, files, work, rounds) -> tuple[dict[str, bool], dict]:
    """name -> passed, plus values the checks compute on the way.

    Model checks use the first round; extract-sdp and dict-match write the
    same files every round.
    """
    from pathrel import cli, depgraph, structreg, training

    first = rounds[0]
    checks: dict[str, bool] = {}
    info: dict = {}

    losses = [h["loss"] for r in rounds for h in r.result.history]
    checks["loss_finite"] = all(math.isfinite(x) for x in losses)

    # the reloaded checkpoint predicts bit-identically
    prepared = training.prepare_paths(first.eval_set[:CHECK_SAMPLE],
                                      structreg.CutRule(variant=wl.rule))
    same = True
    for ex in prepared:
        label, pred = first.reloaded.predict(ex.path)
        label0, pred0 = first.result.model.predict(ex.path)
        same &= label == label0 and all(
            a.tobytes() == b.tobytes()
            for a, b in ((pred.y_fwd, pred0.y_fwd), (pred.y_bwd, pred0.y_bwd),
                         (pred.y_coarse, pred0.y_coarse), (pred.y_test, pred0.y_test))
        )
    checks["reload_bit_identical"] = bool(same)
    info["round_train_loss"] = first.result.history[-1]["loss"]
    info["round_macro_f1"] = first.cm.macro_f1()
    info["word_vocab"] = len(first.reloaded.word_vocab)
    if wl.min_vocab:
        checks["word_vocab"] = info["word_vocab"] >= wl.min_vocab

    # extract-sdp: endpoints, the SR path against BFS over the lined structure,
    # and (on a sample) the identity rule against BFS over the plain tree
    with open(files["conllu"], encoding="utf-8") as fh:
        trees = depgraph.parse_conllu(fh.read())
    with open(files["pairs"], encoding="utf-8") as fh:
        pairs = [tuple(map(int, line.split())) for line in fh if not line.startswith("#")]
    with open(work["paths"], encoding="utf-8") as fh:
        records = [json.loads(line) for line in fh]
    extract_rule = structreg.CutRule(variant=EXTRACT_RULE)
    heads_ok = sr_ok = len(records) == len(trees) == len(pairs)
    longer = 0
    for ordinal, (tree, (s1, t1, s2, t2), rec) in enumerate(zip(trees, pairs, records)):
        h1, h2 = oracles.entity_head(tree, s1, t1), oracles.entity_head(tree, s2, t2)
        heads_ok &= (rec["e1_head"], rec["e2_head"]) == (h1, h2)
        heads_ok &= rec["nodes"][0] == h1 and rec["nodes"][-1] == h2
        cuts = structreg.select_cut_nodes(tree, extract_rule, ordinal=ordinal)
        nodes, edges = oracles.bfs_path(*oracles.lined_parents(tree, cuts), h1, h2)
        sr_ok &= rec["nodes"] == nodes and [tuple(e) for e in rec["edges"]] == edges
        plain_nodes, _ = oracles.bfs_path(*oracles.tree_parents(tree), h1, h2)
        longer += len(nodes) > len(plain_nodes)
    checks["extract_heads"] = bool(heads_ok)
    checks["extract_sr_matches_bfs"] = bool(sr_ok)
    info["sr_longer_than_plain"] = longer

    sample_conllu = os.path.join(work["dir"], "sample.conllu")
    sample_pairs = os.path.join(work["dir"], "sample_pairs.txt")
    sample_out = os.path.join(work["dir"], "sample_paths.jsonl")
    with open(sample_conllu, "w", encoding="utf-8") as fh:
        fh.write(depgraph.serialize_conllu(trees[:CHECK_SAMPLE]))
    with open(sample_pairs, "w", encoding="utf-8") as fh:
        fh.write("".join(" ".join(map(str, p)) + "\n" for p in pairs[:CHECK_SAMPLE]))
    plain_ok = cli.main(["extract-sdp", "--conllu", sample_conllu, "--pairs", sample_pairs,
                         "--rule", "none", "--json", "--out", sample_out]) == 0
    if plain_ok:
        with open(sample_out, encoding="utf-8") as fh:
            for tree, (s1, t1, s2, t2), line in zip(trees, pairs, fh):
                rec = json.loads(line)
                h1, h2 = oracles.entity_head(tree, s1, t1), oracles.entity_head(tree, s2, t2)
                nodes, edges = oracles.bfs_path(*oracles.tree_parents(tree), h1, h2)
                plain_ok &= rec["nodes"] == nodes and [tuple(e) for e in rec["edges"]] == edges
    checks["extract_none_matches_bfs"] = bool(plain_ok)

    # dict-match: disjoint spans whose slices equal their surfaces, and on a
    # prefix ending at a newline (no entry spans one) the naive scan's output
    with open(files["text"], encoding="utf-8") as fh:
        text = fh.read()
    with open(files["dictionary"], encoding="utf-8") as fh:
        entries = [line.rstrip("\n") for line in fh if line.strip()]
    with open(work["matches"], encoding="utf-8") as fh:
        matches = [(int(a), int(b), s) for a, b, s in
                   (line.rstrip("\n").split("\t") for line in fh)]
    entry_set = set(entries)
    spans_ok = bool(matches)
    prev_end = 0
    for a, b, surface in matches:
        spans_ok &= prev_end <= a < b and text[a:b] == surface and surface in entry_set
        prev_end = b
    checks["dict_spans"] = spans_ok
    cut = text.find("\n", 1000) + 1 or len(text)
    checks["dict_matches_naive"] = (
        [m for m in matches if m[1] <= cut] == oracles.naive_matches(text[:cut], entries)
    )
    info["dict_matches"] = len(matches)
    return checks, info


# ---------------------------------------------------------------------------
# set-up time and machine facts


def measure_setup(files) -> list[tuple[float, float]]:
    """(seconds, machine speed) of `import pathrel` plus reading the inputs.

    Each measurement runs in a fresh process; the reference loop runs in
    this process right before and after it.
    """
    argv = [sys.executable, os.path.join(HERE, "setup_probe.py"), SRC, SCHEMA,
            files["train"], files["test"], files["conllu"], files["pairs"],
            files["text"], files["dictionary"]]
    out = []
    for _ in range(SETUP_PROBES):
        before = speed.edge()
        proc = subprocess.run(argv, capture_output=True, text=True, timeout=120, check=True)
        out.append((float(proc.stdout.strip().splitlines()[-1]), speed.speed(before + speed.edge())))
    return out


def machine_facts() -> dict:
    import numpy as np

    cpu = ""
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), "")
    except OSError:
        cpu = platform.processor()
    blas = {}
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (KeyError, TypeError):
        pass
    return {
        "nproc": os.cpu_count(),
        "cpu_affinity": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "blas_threads": BLAS_THREADS,
    }


# ---------------------------------------------------------------------------
# main


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "pathrel", "__init__.py")):
        fail(f"no pathrel sources under {SRC}; run from a checkout of the repository")
    sys.path.insert(0, SRC)
    with open(BENCHMARK_JSON, encoding="utf-8") as fh:
        bench = json.load(fh)
    names = {w["name"] for w in bench["workloads"]}
    if args.workload not in names or args.workload not in WORKLOADS:
        fail(f"unknown workload {args.workload!r}; choose from {sorted(names)}")
    wl = WORKLOADS[args.workload]
    load_start = os.getloadavg()
    phases = {"start": time.perf_counter()}  # when each phase of the run ended

    work_dir = os.path.join(HERE, ".work", wl.name)
    # generate in a child process, so that this process's peak RSS is the program's
    files = input_paths(os.path.join(work_dir, "inputs"))
    subprocess.run([sys.executable, os.path.join(HERE, "workloads.py"), SRC, wl.name,
                    str(args.seed), os.path.dirname(files["train"])], check=True, timeout=300)
    work = {
        "dir": work_dir,
        "paths": os.path.join(work_dir, "paths.jsonl"),
        "matches": os.path.join(work_dir, "matches.tsv"),
        "checkpoint": os.path.join(work_dir, "model.ckpt"),
    }
    phases["inputs"] = time.perf_counter()

    checks: dict[str, bool] = {}
    info: dict = {}
    setup: list[tuple[float, float]] = []
    if not args.trace:
        setup = measure_setup(files)
        phases["setup"] = time.perf_counter()
        checks, info = run_quality(files)
        phases["quality"] = time.perf_counter()

    attempted = failed = 0
    plain_rounds: list[Round] = []
    traced_rounds: list[Round] = []
    tracing = traced.TracedRun([m["name"] for m in bench["per_layer"]])
    deadline = time.perf_counter() + args.seconds
    while True:
        # a traced run alternates untraced and traced rounds
        use_trace = bool(args.trace) and len(traced_rounds) < len(plain_rounds)
        rnd = Round()
        attempted += len(STAGES)
        gc.collect()
        try:
            if use_trace:
                tracing.run(lambda: run_round(wl, files, work, rnd), rnd)
            elif args.trace:
                run_round(wl, files, work, rnd)
            else:
                run_round(wl, files, work, rnd, speed.Sampler(), MIN_STAGE_S)
        except Exception:
            traceback.print_exc()
            failed += len(STAGES) - len(rnd.times)
            break
        (traced_rounds if use_trace else plain_rounds).append(rnd)
        if rnd is not plain_rounds[0]:
            # keep the heap the same size from round to round: the checks need
            # only round 0's models and every round's history and scores
            rnd.result.model = rnd.reloaded = rnd.eval_set = None
        if args.trace:
            if len(traced_rounds) == TRACE_PAIRS:
                break
        elif time.perf_counter() >= deadline:
            break

    phases["rounds"] = time.perf_counter()
    if failed == 0:
        round_checks, round_info = check_outputs(wl, files, work, plain_rounds + traced_rounds)
        checks.update(round_checks)
        info.update(round_info)
    if args.trace and failed == 0:
        checks["traced_equals_untraced"] = all(
            p.result.history == t.result.history and p.cm.macro_f1() == t.cm.macro_f1()
            for p, t in zip(plain_rounds, traced_rounds)
        )
    attempted += len(checks)
    failed += sum(not ok for ok in checks.values())

    metrics: dict[str, float] = {}
    table: dict[str, str] = {}
    if failed == 0 and not args.trace:
        with open(files["text"], encoding="utf-8") as fh:
            chars = len(fh.read())
        samples: dict[str, list[float]] = {}
        raw: dict[str, list[float]] = {}
        for r in plain_rounds:
            for name, values in round_figures(wl, chars, r.times).items():
                raw.setdefault(name, []).extend(values)
            for name, values in round_figures(wl, chars, nominal_times(r)).items():
                samples.setdefault(name, []).extend(values)
        metrics = {name: statistics.median(values) for name, values in samples.items()}
        metrics["setup_s"] = statistics.median(s * v for s, v in setup)
        info["raw_medians"] = {name: statistics.median(values) for name, values in raw.items()}
        info["raw_medians"]["setup_s"] = statistics.median(s for s, _ in setup)
        metrics["checkpoint_mb"] = plain_rounds[0].checkpoint_bytes / 1e6
        for name in ("train_loss", "test_nll", "test_macro_f1"):
            metrics[name] = info[name]
        metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        table = {m["name"]: m["unit"] for m in bench["end_to_end"]}
    elif failed == 0:
        metrics = tracing.metrics()
        metrics["trace.overhead_frac"] = (
            sum(r.wall for r in traced_rounds) / sum(r.wall for r in plain_rounds) - 1.0
        )
        traced.write_spans(tracing.tracer, os.path.join(work_dir, "spans.json"))
        table = {m["name"]: m["unit"] for m in bench["per_layer"]}
    if metrics and set(metrics) != set(table):
        fail(f"metric names differ from BENCHMARK.json: {sorted(set(metrics) ^ set(table))}", 1)

    phases["checks"] = time.perf_counter()
    record = {
        "workload": wl.name, "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
        "rounds": len(plain_rounds) + len(traced_rounds),
        "round_stage_s": [r.times for r in plain_rounds + traced_rounds],
        "setup_s_and_speed": setup,
        "round_speeds": [r.speeds for r in plain_rounds if r.speeds],
        "checks": checks, "info": info,
        "phase_end_s": {name: t - phases["start"] for name, t in phases.items()},
        "inputs_sha256": {os.path.basename(p): sha256(p) for p in files.values()},
        "machine": dict(machine_facts(), loadavg_start=load_start, loadavg_end=os.getloadavg()),
    }
    with open(os.path.join(work_dir, f"record-trace{args.trace}.json"), "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1, sort_keys=True)
    print("record " + json.dumps(record, sort_keys=True))
    for name in sorted(metrics):
        print(f"metric {name} {metrics[name]!r} {table[name]}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": table[name]} for name in sorted(metrics)},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
