"""System-level acceptance gate.

Ten end-to-end checks covering gradient fidelity, path extraction against
independent oracles, structural invariants of tree decomposition, the
identity cut rule, optimization, the regularized-vs-plain comparison on a
synthetic corpus, path shortening, metric correctness, schema output
dimensions, and bitwise run determinism.  Each test prints one verdict
line (visible with pytest -s or on failure).
"""

import time

import numpy as np
from helpers import bfs_path, check_lined_tree, components_by_walk, random_cut_set, random_tree

from pathrel.autodiff import backward
from pathrel.depgraph import SdpPath, entity_head, path_between
from pathrel.labels import load_schema, synth_schema
from pathrel.metrics import ConfusionMatrix
from pathrel.model import (
    ModelConfig,
    RelationModel,
    RelationVocabulary,
    Vocabulary,
)
from pathrel.structreg import CutRule, cut_and_line, extract_sr_sdp, select_cut_nodes
from pathrel.synth import SynthConfig, generate
from pathrel.training import (
    ExperimentConfig,
    build_vocabs,
    evaluate,
    prepare_paths,
    train,
)


def verdict(num: int, name: str, ok: bool, detail: str) -> None:
    print(f"acceptance {num:02d} {name}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, f"acceptance {num:02d} {name}: {detail}"


# the regularized-vs-plain comparison corpus, shared by tests 6 and 7
COMPARISON_GEN = dict(
    k_types=9, blocks=3, fillers=3, prep_density=0.7, span2_prob=0.3,
    residual_frac=0.1, distractor_prob=0.9,
)
COMPARISON_MODEL = ModelConfig(
    word_dim=32, rel_dim=16, conv_dim=32, keep_prob=1.0, l2_lambda=0.0
)


def test_01_gradient_fidelity():
    t0 = time.time()
    path = SdpPath(
        nodes=(2, 5, 7, 9),
        deprels=("nsubj", "SR-LINK", "pobj"),
        directions=("UP", "DOWN", "DOWN"),
        forms=("mice", "carry", "in", "crates"),
        pos=("NOUN", "VERB", "ADP", "NOUN"),
    )
    label = "Rel2(e2,e1)"
    h = 1e-5
    worst = 0.0
    checked = 0
    for variant in ("standard", "paper-literal"):
        cfg = ModelConfig(word_dim=5, rel_dim=4, conv_dim=6, keep_prob=1.0,
                          l2_lambda=1e-5, lstm_variant=variant)
        model = RelationModel(
            cfg, synth_schema(3),
            Vocabulary(path.forms),
            RelationVocabulary([e.deprel for e in path.edges]),
            seed=11,
        )
        loss = model.loss(path, label)
        backward(loss)
        grads = {name: t.grad.copy() for name, t in model.store.items()}
        rng = np.random.default_rng(1)
        for name, t in sorted(model.store.items()):
            flat = t.data.reshape(-1)
            for j in rng.choice(flat.size, size=min(4, flat.size), replace=False):
                j = int(j)
                orig = flat[j]
                flat[j] = orig + h
                up = float(model.loss(path, label).data)
                flat[j] = orig - h
                down = float(model.loss(path, label).data)
                flat[j] = orig
                numeric = (up - down) / (2.0 * h)
                analytic = float(grads[name].reshape(-1)[j])
                rel = abs(analytic - numeric) / max(abs(analytic), abs(numeric), 1e-6)
                worst = max(worst, rel)
                checked += 1
    took = time.time() - t0
    verdict(1, "gradient fidelity", worst < 1e-4 and took < 60.0,
            f"{checked} coordinates on a 3-unit linked path, worst rel err "
            f"{worst:.2e}, {took:.1f}s")


def test_02_path_oracle():
    t0 = time.time()
    rng = np.random.default_rng(2)
    trees = 1000
    paths = 0
    for _ in range(trees):
        n = int(rng.integers(1, 21))
        tree = random_tree(rng, n)
        rt = cut_and_line(tree, random_cut_set(rng, tree))
        for a in range(1, n + 1):
            for b in range(a, n + 1):
                nodes, edges = bfs_path(tree, a, b)
                got = path_between(tree, a, b)
                assert got.nodes == tuple(nodes)
                assert [(e.deprel, e.direction) for e in got.edges] == edges
                lined_nodes, lined_edges = bfs_path(rt, a, b)
                sr = extract_sr_sdp(rt, a, b)
                assert sr.nodes == tuple(lined_nodes)
                assert [(e.deprel, e.direction) for e in sr.edges] == lined_edges
                paths += 2
    took = time.time() - t0
    verdict(2, "path extraction vs BFS oracle", took < 60.0,
            f"{trees} trees, {paths} paths matched exactly, {took:.1f}s")


def test_03_structural_invariants():
    rng = np.random.default_rng(3)
    draws = 1000
    for i in range(draws):
        tree = random_tree(rng)
        variant = CutRule.VARIANTS[i % 4]
        rule = CutRule(
            variant=variant,
            p=float(rng.random()),
            seed=int(rng.integers(2**31)),
        )
        cuts = select_cut_nodes(tree, rule, ordinal=i)
        assert tree.root not in cuts
        if variant == "none":
            assert cuts == set()
        if variant == "prep":
            assert cuts == {t.index for t in tree.tokens
                            if t.pos in rule.tag_set and t.index != tree.root}
        rt = cut_and_line(tree, cuts)
        groups = components_by_walk(tree, cuts)
        seen = set()
        for root, members in groups.items():
            assert not (members & seen)  # partition: no node in two components
            seen |= members
            for idx in members:
                assert rt.component_root(idx) == root
        assert seen == set(range(1, tree.n + 1))
        check_lined_tree(tree, rt)  # connectivity + acyclicity by union-find
    verdict(3, "decomposition invariants", True,
            f"{draws} tree/rule draws, zero violations")


def test_04_identity_rule():
    corpus = generate(SynthConfig(
        n=500, seed=41, k_types=5, blocks=2, fillers=2, prep_density=0.8,
        distractor_prob=0.5, bridge_prob=0.3,
    ))
    prepared = prepare_paths(corpus, CutRule(variant="none"))
    plains = []
    for inst, ex in zip(corpus, prepared):
        h1 = entity_head(inst.tree, inst.e1)
        h2 = entity_head(inst.tree, inst.e2)
        plain = path_between(inst.tree, h1, h2)
        assert ex.path == plain  # nodes, edges, forms, and POS all equal
        plains.append(plain)

    words, rels = build_vocabs(prepared)
    model = RelationModel(
        ModelConfig(word_dim=8, rel_dim=6, conv_dim=8, keep_prob=1.0, l2_lambda=1e-5),
        load_schema("synth-k5"), words, rels, seed=5,
    )
    for inst, ex, plain in zip(corpus, prepared, plains):
        a = float(model.loss(ex.path, inst.label).data)
        b = float(model.loss(plain, inst.label).data)
        assert a == b  # bit-identical, not approximately equal
    verdict(4, "identity cut rule", True,
            "500 sentences: regularized path == plain path, losses bit-identical")


def test_05_memorization():
    t0 = time.time()
    corpus = generate(SynthConfig(
        n=8, seed=7, k_types=4, blocks=2, fillers=1, prep_density=0.7,
        residual_frac=0.12,
    ))
    details = []
    ok = True
    for variant in ("standard", "paper-literal"):
        cfg = ExperimentConfig(
            model=ModelConfig(word_dim=16, rel_dim=8, conv_dim=16, keep_prob=1.0,
                              l2_lambda=0.0, lstm_variant=variant),
            rule=CutRule(variant="none"),
            schema="synth-k4",
            seed=1,
            epochs=200,
            val_size=0,
        )
        res = train(cfg, train_instances=corpus)
        crossed = [h["epoch"] for h in res.history if h["loss"] < 0.05]
        acc = evaluate(res.model, corpus, cfg.rule).accuracy()
        ok = ok and bool(crossed) and acc == 1.0
        details.append(
            f"{variant}: loss<0.05 at epoch {crossed[0] if crossed else '>200'}, "
            f"decode accuracy {acc:.2f}"
        )
    took = time.time() - t0
    ok = ok and took < 120.0
    verdict(5, "8-instance memorization", ok, "; ".join(details) + f", {took:.0f}s")


def test_06_regularized_vs_plain():
    t0 = time.time()
    train_set = generate(SynthConfig(n=2000, seed=11, **COMPARISON_GEN))
    test_set = generate(SynthConfig(n=2500, seed=12, **COMPARISON_GEN))[2000:]
    means = {}
    details = []
    for variant in ("prep", "none"):
        rule = CutRule(variant=variant)
        scores = []
        for seed in (0, 1, 2):
            cfg = ExperimentConfig(
                model=COMPARISON_MODEL, rule=rule, schema="synth-k9",
                seed=seed, epochs=3, val_size=200,
            )
            res = train(cfg, train_instances=train_set)
            scores.append(evaluate(res.model, test_set, rule).macro_f1())
        means[variant] = float(np.mean(scores))
        details.append(f"{variant} mean {means[variant]:.4f} " +
                       "[" + " ".join(f"{s:.3f}" for s in scores) + "]")
    took = time.time() - t0
    ok = means["prep"] >= means["none"] and took < 1800.0
    verdict(6, "regularized >= plain macro-F1", ok,
            "; ".join(details) + f"; 2000 train / 500 test, 3 seeds, {took:.0f}s")


def test_07_path_shortening():
    corpus = generate(SynthConfig(n=2000, seed=11, **COMPARISON_GEN))
    prep_len = np.mean([
        len(ex.path.nodes) for ex in prepare_paths(corpus, CutRule(variant="prep"))
    ])
    plain_len = np.mean([
        len(ex.path.nodes) for ex in prepare_paths(corpus, CutRule(variant="none"))
    ])
    verdict(7, "path shortening", prep_len < plain_len,
            f"mean nodes {prep_len:.2f} regularized vs {plain_len:.2f} plain")


def test_08_metric_oracle():
    def oracle(counts, k):
        scores = []
        for i in range(k):
            a, b = 2 * i + 1, 2 * i + 2
            tp = float(counts[a, a] + counts[b, b])
            predicted = float(counts[:, a].sum() + counts[:, b].sum())
            gold = float(counts[a, :].sum() + counts[b, :].sum())
            p = tp / predicted if predicted > 0 else 0.0
            r = tp / gold if gold > 0 else 0.0
            scores.append(2.0 * p * r / (p + r) if p + r > 0 else 0.0)
        return float(np.mean(scores))

    rng = np.random.default_rng(8)
    for i in range(1000):
        k = int(rng.integers(1, 8))
        schema = synth_schema(k)
        size = schema.fine_size
        counts = rng.integers(0, 30, size=(size, size))
        if i % 2:  # sparse variant: mostly-empty matrices
            counts = counts * (rng.random((size, size)) < 0.3)
        cm = ConfusionMatrix(schema)
        cm.counts[...] = counts
        assert cm.macro_f1() == oracle(counts, k)

    # the residual class never contributes a score of its own
    schema = synth_schema(3)
    cm = ConfusionMatrix.from_pairs(schema, [("Other", "Other")] * 5)
    assert cm.accuracy() == 1.0 and cm.macro_f1() == 0.0
    verdict(8, "macro-F1 vs per-class oracle", True,
            "1000 random confusion matrices equal exactly; residual excluded")


def test_09_class_count_contract():
    details = []
    for name in ("semeval", "sanwen"):
        schema = load_schema(name)
        assert schema.fine_size == 19
        assert schema.coarse_size == 10
        model = RelationModel(
            ModelConfig(word_dim=4, rel_dim=3, conv_dim=5, keep_prob=1.0),
            schema, Vocabulary(["w"]), RelationVocabulary(["nsubj"]), seed=0,
        )
        assert model.store["fine_fwd/w"].data.shape[0] == 19
        assert model.store["fine_bwd/w"].data.shape[0] == 19
        assert model.store["coarse/w_fwd"].data.shape[0] == 10
        path = SdpPath(nodes=(1, 2), deprels=("nsubj",), directions=("UP",),
                       forms=("w", "w"), pos=("X", "X"))
        _, pred = model.predict(path)
        assert pred.y_fwd.shape == (19,) and pred.y_test.shape == (19,)
        assert pred.y_coarse.shape == (10,)
        details.append(f"{name} 19/10")
    verdict(9, "fine/coarse output dimensions", True, ", ".join(details))


def test_10_determinism(tmp_path):
    corpus = generate(SynthConfig(n=30, seed=10, k_types=3, blocks=2, fillers=1))
    outputs = []
    for tag in ("first", "second"):
        ck = tmp_path / f"{tag}.ckpt"
        log = tmp_path / f"{tag}.log"
        cfg = ExperimentConfig(
            model=ModelConfig(word_dim=8, rel_dim=6, conv_dim=8, keep_prob=0.5,
                              l2_lambda=1e-5),
            rule=CutRule(variant="prep"),
            schema="synth-k3",
            seed=4,
            epochs=2,
            val_size=8,
            checkpoint_path=str(ck),
            log_path=str(log),
        )
        train(cfg, train_instances=corpus)
        outputs.append((ck.read_bytes(), log.read_bytes()))
    same = outputs[0] == outputs[1]
    verdict(10, "seeded run determinism", same,
            "two identical-seed runs: checkpoints and logs byte-identical"
            if same else "outputs differ between identical-seed runs")
