import json

import numpy as np
import pytest
from helpers import cut_oracle, per_gate_tensors, reference_train

from pathrel.checkpoint import load_checkpoint
from pathrel.data import save_dataset
from pathrel.depgraph import DependencyTree, EntitySpan, Instance, SdpPath, Token, entity_head, path_between
from pathrel.model import ModelConfig
from pathrel.structreg import CutRule, cut_and_line, extract_sr_sdp
from pathrel.synth import SynthConfig, generate
from pathrel import training
from pathrel.training import (
    ExperimentConfig,
    NonFiniteError,
    SchemaMismatch,
    build_vocabs,
    evaluate,
    prepare_paths,
    train,
)

TINY_MODEL = ModelConfig(word_dim=6, rel_dim=4, conv_dim=6, keep_prob=1.0, l2_lambda=0.0)


def tiny_config(**kw):
    base = dict(model=TINY_MODEL, rule=CutRule(), schema="synth-k2", seed=0,
                epochs=2, val_size=0)
    base.update(kw)
    return ExperimentConfig(**base)


def tiny_corpus(n=12, **kw):
    gen = dict(k_types=2, seed=5, blocks=1, fillers=1, residual_frac=0.0)
    gen.update(kw)
    return generate(SynthConfig(n=n, **gen))


class TestPreparation:
    def test_rule_none_reproduces_plain_path(self):
        for inst in tiny_corpus(8):
            (ex,) = prepare_paths([inst], CutRule())
            rt = cut_and_line(inst.tree, set())
            h1, h2 = entity_head(inst.tree, inst.e1), entity_head(inst.tree, inst.e2)
            assert ex.path == extract_sr_sdp(rt, h1, h2)
            plain = path_between(inst.tree, h1, h2)
            assert ex.path.nodes == plain.nodes
            assert ex.path.edges == plain.edges

    def test_entity_heads_come_from_original_tree(self):
        # two-token e2 span; cutting every node re-roots the modifier, so a
        # head search on the cut structure would tie-break to the wrong token
        tokens = (
            Token(1, "a", "NOUN", 2, "nsubj"),
            Token(2, "saw", "VERB", 0, "root"),
            Token(3, "little", "NOUN", 4, "compound"),
            Token(4, "b", "NOUN", 2, "dobj"),
        )
        inst = Instance(
            tree=DependencyTree(tokens),
            e1=EntitySpan(1, 1),
            e2=EntitySpan(3, 4),
            label="Rel1(e1,e2)",
            sid="t",
        )
        (ex,) = prepare_paths([inst], CutRule(variant="random", p=1.0, seed=0))
        assert ex.path.nodes[0] == 1
        assert ex.path.nodes[-1] == 4

    def test_prepare_paths_reports_instance_id(self):
        import copy

        inst = tiny_corpus(1)[0]
        bad = copy.copy(inst)
        object.__setattr__(bad, "e2", EntitySpan(inst.tree.n + 2, inst.tree.n + 2))
        object.__setattr__(bad, "sid", "broken-one")
        with pytest.raises(ValueError, match="broken-one"):
            prepare_paths([inst, bad], CutRule())

    def test_ordinal_drives_random_rule(self):
        """Each instance is cut as the scalar oracle cuts the sentence at its
        corpus position, so reversing the corpus moves the cuts with it."""
        insts = tiny_corpus(20, blocks=2, fillers=2)
        rule = CutRule(variant="random", p=0.5, seed=3)
        for corpus in (insts, insts[::-1]):
            expected = [
                extract_sr_sdp(cut_and_line(inst.tree, cut_oracle(inst.tree, rule, ordinal)),
                               entity_head(inst.tree, inst.e1), entity_head(inst.tree, inst.e2))
                for ordinal, inst in enumerate(corpus)
            ]
            assert [ex.path for ex in prepare_paths(corpus, rule)] == expected
        assert prepare_paths(insts, rule) == prepare_paths(insts, rule)

    @pytest.mark.parametrize("variant", CutRule.VARIANTS)
    def test_prepared_paths_equal_paths_built_from_edges(self, variant):
        for ex in prepare_paths(tiny_corpus(15, blocks=2), CutRule(variant=variant, seed=4)):
            path = ex.path
            deprels, directions = (tuple(e[k] for e in path.edges) for k in (0, 1))
            built = SdpPath(path.nodes, deprels, directions, path.forms, path.pos)
            assert built == path and hash(built) == hash(path)
            assert built.deprels == path.deprels and built.directions == path.directions

    def test_build_vocabs_cover_paths(self):
        prepared = prepare_paths(tiny_corpus(10), CutRule(variant="prep"))
        words, rels = build_vocabs(prepared)
        unk_row = rels.table_size - 1
        for ex in prepared:
            assert all(words.index(f) > 0 for f in ex.path.forms)
            assert all(rels.row(e.deprel, e.direction) != unk_row for e in ex.path.edges)


class TestTrainLoop:
    def test_history_shape_and_keys(self):
        res = train(tiny_config(epochs=3), train_instances=tiny_corpus())
        assert [h["epoch"] for h in res.history] == [1, 2, 3]
        assert all(set(h) == {"epoch", "loss", "macro_f1"} for h in res.history)
        assert 1 <= res.best_epoch <= 3
        assert res.best_macro_f1 == max(h["macro_f1"] for h in res.history)

    def test_equal_scores_keep_latest_epoch(self):
        cfg = tiny_config(epochs=3)
        res = train(cfg, train_instances=tiny_corpus(6, blocks=0))
        scores = [h["macro_f1"] for h in res.history]
        best = max(scores)
        last_best = max(i + 1 for i, s in enumerate(scores) if s == best)
        assert res.best_epoch == last_best

    def test_loss_decreases_on_average(self):
        res = train(tiny_config(epochs=4), train_instances=tiny_corpus())
        assert res.history[-1]["loss"] < res.history[0]["loss"]

    def test_validation_split_respected(self):
        corpus = tiny_corpus(12)
        res = train(tiny_config(val_size=4), train_instances=corpus)
        assert res.best_macro_f1 >= 0.0
        with pytest.raises(ValueError, match="val_size"):
            train(tiny_config(val_size=12), train_instances=corpus)

    def test_empty_training_set_rejected(self):
        with pytest.raises(ValueError, match="empty"):
            train(tiny_config(), train_instances=[])

    def test_missing_train_path_rejected(self):
        with pytest.raises(ValueError, match="train_path"):
            train(tiny_config())

    def test_trains_from_dataset_file(self, tmp_path):
        data = tmp_path / "train.jsonl"
        save_dataset(data, tiny_corpus())
        res = train(tiny_config(train_path=str(data)), train_instances=None)
        assert len(res.history) == 2

    def test_best_epoch_restored_before_writing(self, tmp_path, monkeypatch):
        """Falling scores make epoch 1 the best of 3: its checkpoint is an epochs=1 run's."""
        once = tmp_path / "once.ckpt"
        train(tiny_config(epochs=1, checkpoint_path=str(once)), train_instances=tiny_corpus())

        class Scores:
            falling = iter([0.9, 0.5, 0.1])

            def __init__(self, model, prepared):
                pass

            def macro_f1(self):
                return next(self.falling)

        monkeypatch.setattr(training, "_score_prepared", Scores)
        ck = tmp_path / "best.ckpt"
        res = train(tiny_config(epochs=3, checkpoint_path=str(ck)), train_instances=tiny_corpus())
        assert [h["macro_f1"] for h in res.history] == [0.9, 0.5, 0.1]
        assert res.best_epoch == 1 and res.best_macro_f1 == 0.9
        assert ck.read_bytes() == once.read_bytes()

    def test_best_middle_epoch_restored(self, tmp_path, monkeypatch):
        """Scores 0.1, 0.9, 0.5 make epoch 2 the best of 3: its checkpoint is an epochs=2 run's."""
        twice = tmp_path / "twice.ckpt"
        train(tiny_config(epochs=2, checkpoint_path=str(twice)), train_instances=tiny_corpus())

        class Scores:
            scores = iter([0.1, 0.9, 0.5])

            def __init__(self, model, prepared):
                pass

            def macro_f1(self):
                return next(self.scores)

        monkeypatch.setattr(training, "_score_prepared", Scores)
        ck = tmp_path / "best.ckpt"
        res = train(tiny_config(epochs=3, checkpoint_path=str(ck)), train_instances=tiny_corpus())
        assert res.best_epoch == 2 and res.best_macro_f1 == 0.9
        assert ck.read_bytes() == twice.read_bytes()

    def test_trained_model_gradients_are_zero(self):
        model = train(tiny_config(model=ModelConfig(word_dim=6, rel_dim=4, conv_dim=6)),
                      train_instances=tiny_corpus()).model
        assert model.store.grad.size and not model.store.grad.any()

    def test_non_finite_parameter_stops_the_epoch(self, tmp_path, monkeypatch):
        """A step that leaves a parameter NaN stops train before scoring or writing."""
        step = training.adadelta_step

        def poisoning_step(store, state):
            step(store, state)
            store["coarse/b"].data[0] = np.nan

        monkeypatch.setattr(training, "adadelta_step", poisoning_step)
        ck, log = tmp_path / "m.ckpt", tmp_path / "m.log"
        cfg = tiny_config(val_size=1, checkpoint_path=str(ck), log_path=str(log))
        with pytest.raises(NonFiniteError, match="epoch 1: parameters not finite: coarse/b"):
            train(cfg, train_instances=tiny_corpus(2))
        assert not ck.exists() and not log.exists()


class TestDeterminism:
    def test_same_seed_byte_identical_outputs(self, tmp_path):
        corpus = tiny_corpus()
        outs = []
        for tag in ("a", "b"):
            ck = tmp_path / f"{tag}.ckpt"
            log = tmp_path / f"{tag}.log"
            cfg = tiny_config(checkpoint_path=str(ck), log_path=str(log),
                              rule=CutRule(variant="prep"))
            train(cfg, train_instances=corpus)
            outs.append((ck.read_bytes(), log.read_bytes()))
        assert outs[0] == outs[1]

    def test_different_seed_different_history(self):
        corpus = tiny_corpus()
        r0 = train(tiny_config(seed=0), train_instances=corpus)
        r1 = train(tiny_config(seed=1), train_instances=corpus)
        assert r0.history != r1.history

    def test_checkpoint_meta_records_rule(self, tmp_path):
        ck = tmp_path / "m.ckpt"
        rule = CutRule(variant="prep", tag_set=frozenset({"ADP"}))
        cfg = tiny_config(rule=rule, checkpoint_path=str(ck))
        train(cfg, train_instances=tiny_corpus())
        _, meta = load_checkpoint(ck)
        assert CutRule.from_dict(meta["rule"]) == rule

    def test_log_lines_are_json(self, tmp_path):
        log = tmp_path / "m.log"
        train(tiny_config(log_path=str(log)), train_instances=tiny_corpus())
        rows = [json.loads(line) for line in log.read_text().splitlines()]
        assert [r["epoch"] for r in rows] == [1, 2]


class TestReferenceTrainer:
    """train() against reference_train (tests/helpers.py), the textbook algorithm.

    Over whole runs the two agree to rounding: at most 2.2e-16 absolute on
    any parameter and 0 relative on any epoch loss in these three
    configurations, though the library's sigmoid gates take one tanh and
    its AdaDelta step one square root where the reference takes the exp
    form and two roots.  So the tolerances leave about 450 times that.
    The faults this test is meant to catch move far more: a step that
    leaves no L2 gradient (an epoch loss off by 4e-4 relative), a state
    that writes none when created (2.4e-5), a table decay of rho**(k+1)
    for rho**k (1.5e-7), or the last epoch kept in place of the best one
    (a parameter off by 0.017).
    """

    PARAM_TOL, LOSS_TOL = 1e-13, 1e-13
    MODEL = dict(word_dim=4, rel_dim=3, conv_dim=5, l2_lambda=1e-3, init_scale=0.5)
    CASES = {
        # the tie at epochs 1 and 2 goes to 2
        "shared-heads": (ModelConfig(**MODEL, keep_prob=1.0, share_fine_heads=True), CutRule(), 0),
        "l2-embeddings": (ModelConfig(**MODEL, keep_prob=0.5, l2_include_embeddings=True,
                                      lstm_variant="paper-literal"),
                          CutRule(variant="random", seed=1), 0),
        # macro-F1 by epoch 0.077, 0.1, 0.0: the best epoch is the middle one
        "best-in-the-middle": (ModelConfig(**MODEL, keep_prob=1.0), CutRule(variant="random", seed=1), 19),
    }

    def assert_agrees(self, config):
        """train() and reference_train on one corpus; returns the best epoch."""
        corpus = generate(SynthConfig(n=40, k_types=2, seed=0))
        result = train(config, train_instances=corpus)
        params, history, best_epoch = reference_train(config, corpus)
        assert result.best_epoch == best_epoch
        assert [row["macro_f1"] for row in result.history] == [row["macro_f1"] for row in history]
        for got, want in zip(result.history, history):
            assert abs(got["loss"] - want["loss"]) <= self.LOSS_TOL * want["loss"]
        for name, value in per_gate_tensors(result.model).items():
            assert np.max(np.abs(value - params[name])) <= self.PARAM_TOL, name
        return best_epoch

    @pytest.mark.parametrize("case", CASES)
    def test_train_matches_the_textbook_algorithm(self, case):
        model, rule, seed = self.CASES[case]
        best_epoch = self.assert_agrees(ExperimentConfig(model=model, rule=rule, schema="synth-k2",
                                                         seed=seed, epochs=3, val_size=10))
        assert case != "best-in-the-middle" or best_epoch == 2

    def test_train_with_embeddings_matches_the_textbook_algorithm(self, tmp_path):
        """Pretrained rows from load_word_embeddings, against reference_embeddings' dict
        (tests/helpers.py): after a BOM, two corpus words (one repeated, the later line
        winning), `<unk>`, and two words outside the vocabulary (ent3 is not drawn)."""
        emb = tmp_path / "emb.txt"
        emb.write_text("\ufeffent0 0.5 -0.5 0.25 1\n<unk> 9 9 9 9\nzebra 1 2 3 4\n"
                       "verb_1_f 0.1 0.2 -0.3 0.4\nent3 -2 2 -2 2\nent0 -1 0.75 0 0.5\n",
                       encoding="utf-8")
        self.assert_agrees(ExperimentConfig(model=ModelConfig(**self.MODEL, keep_prob=1.0),
                                            schema="synth-k2", epochs=3, val_size=10,
                                            embeddings_path=str(emb)))


class TestEvaluate:
    def test_eval_determinism_and_range(self):
        corpus = tiny_corpus(16)
        res = train(tiny_config(), train_instances=corpus[:12])
        cm1 = evaluate(res.model, corpus[12:], CutRule())
        cm2 = evaluate(res.model, corpus[12:], CutRule())
        assert cm1.macro_f1() == cm2.macro_f1()
        assert 0.0 <= cm1.macro_f1() <= 1.0

    def test_schema_mismatch_detected(self):
        corpus = tiny_corpus(8)
        res = train(tiny_config(), train_instances=corpus)
        alien = generate(SynthConfig(n=40, k_types=5, seed=1, residual_frac=0.0))
        bad = [i for i in alien if i.label.startswith("Rel5")]
        assert bad, "need an instance outside synth-k2"
        with pytest.raises(SchemaMismatch, match="Rel5"):
            evaluate(res.model, corpus + bad[:1], CutRule())

    def test_rule_changes_eval_paths(self):
        corpus = tiny_corpus(12, blocks=2, fillers=2)
        res = train(tiny_config(rule=CutRule(variant="prep")), train_instances=corpus)
        cm_prep = evaluate(res.model, corpus, CutRule(variant="prep"))
        assert 0.0 <= cm_prep.macro_f1() <= 1.0


class TestConfig:
    def test_round_trip_dict(self):
        cfg = tiny_config(epochs=7, val_size=3, rule=CutRule(variant="punct"))
        assert ExperimentConfig.from_dict(cfg.to_dict()) == cfg

    def test_round_trip_file(self, tmp_path):
        p = tmp_path / "cfg.json"
        cfg = tiny_config(rule=CutRule(variant="random", p=0.25, seed=11))
        cfg.save(p)
        assert ExperimentConfig.load(p) == cfg

    def test_validation(self):
        with pytest.raises(ValueError):
            tiny_config(epochs=0)
        with pytest.raises(ValueError):
            tiny_config(val_size=-1)
