import collections
import dataclasses
import gc
import itertools
import math
import tracemalloc
import warnings
from types import SimpleNamespace
from unittest import mock

import numpy as np
import pytest
from helpers import (
    PerGateReference,
    add,
    adopt,
    as_loss,
    invert_path,
    json_checkpoint_bytes,
    per_gate_tensors,
    random_cut_set,
    random_tree,
    reference_embeddings,
    sigmoid_array,
    sum_squares,
    tape_backward,
    tape_nodes,
)
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from test_acceptance import COMPARISON_GEN, COMPARISON_MODEL

from pathrel import checkpoint as ckpt
from pathrel import model as model_module
from pathrel.autodiff import (
    Node,
    Param,
    ParamStore,
    backward,
    dropout_mask,
    finite_difference_check,
)
from pathrel.cli import main
from pathrel.depgraph import SdpPath, path_between
from pathrel.labels import BUILTIN_SCHEMAS, synth_schema
from pathrel.model import (
    BWD,
    FWD,
    LSTM_PAPER_LITERAL,
    LSTM_STANDARD,
    UNK,
    EmptyPath,
    LstmCell,
    ModelConfig,
    Prediction,
    RelationModel,
    RelationVocabulary,
    Vocabulary,
    conv_pool,
    decode,
    load_word_embeddings,
    lstm_channel,
    lstm_step,
)
from pathrel.optim import AdaDeltaState, adadelta_step
from pathrel.structreg import SR_LINK, CutRule, cut_and_line, extract_sr_sdp
from pathrel.synth import SynthConfig, generate
from pathrel.training import ExperimentConfig, build_vocabs, prepare_paths, train

SMALL = ModelConfig(word_dim=4, rel_dim=3, conv_dim=5, keep_prob=1.0, l2_lambda=0.0)


def make_path(forms=("cat", "chased", "dog"), rels=(("nsubj", "UP"), ("dobj", "DOWN"))):
    return SdpPath(
        nodes=tuple(range(1, len(forms) + 1)),
        deprels=tuple(deprel for deprel, _ in rels),
        directions=tuple(direction for _, direction in rels),
        forms=tuple(forms),
        pos=tuple("X" for _ in forms),
    )


def small_model(config=SMALL, schema=None, seed=0, forms=("cat", "chased", "dog", "park")):
    schema = schema or synth_schema(2)
    return RelationModel(
        config=config,
        schema=schema,
        word_vocab=Vocabulary(forms),
        rel_vocab=RelationVocabulary(["nsubj", "dobj", "prep"]),
        seed=seed,
    )


class TestVocabulary:
    def test_unk_first_rest_sorted(self):
        v = Vocabulary(["zebra", "apple", "apple", UNK])
        assert v.words == [UNK, "apple", "zebra"]
        assert len(v) == 3
        assert v.to_list() == ["apple", "zebra"]

    def test_oov_maps_to_unk(self):
        v = Vocabulary(["apple"])
        assert v.index("apple") == 1
        assert v.index("never-seen") == 0
        assert v.index(UNK) == 0


class TestRelationVocabulary:
    def test_layout(self):
        v = RelationVocabulary(["nsubj"])
        assert v.deprels == [SR_LINK, "nsubj"]
        assert v.table_size == 5
        assert v.row(SR_LINK, "UP") == 0
        assert v.row(SR_LINK, "DOWN") == 1
        assert v.row("nsubj", "UP") == 2
        assert v.row("nsubj", "DOWN") == 3

    def test_unknown_relation_shares_last_row(self):
        v = RelationVocabulary(["nsubj"])
        assert v.row("amod", "UP") == 4
        assert v.row("amod", "DOWN") == 4

    def test_link_label_always_present(self):
        assert SR_LINK in RelationVocabulary([]).deprels


class TestModelConfig:
    def test_defaults(self):
        cfg = ModelConfig()
        assert (cfg.word_dim, cfg.rel_dim, cfg.conv_dim) == (200, 50, 200)
        assert cfg.alpha == 0.5
        assert cfg.keep_prob == 0.5

    def test_validation(self):
        with pytest.raises(ValueError):
            ModelConfig(word_dim=0)
        with pytest.raises(ValueError):
            ModelConfig(alpha=1.5)
        with pytest.raises(ValueError):
            ModelConfig(keep_prob=0.0)
        with pytest.raises(ValueError):
            ModelConfig(lstm_variant="gru")

    def test_dict_round_trip(self):
        cfg = ModelConfig(word_dim=8, lstm_variant=LSTM_PAPER_LITERAL)
        assert ModelConfig.from_dict(cfg.to_dict()) == cfg


SPECIAL_PRE_ACTIVATIONS = (0.0, -0.0, 40.0, -40.0, 745.0, -745.0, 1e308, -1e308)


@st.composite
def gate_rows(draw):
    """A (4H,) row or a (B, 4H) batch of pre-activations, moderate or anywhere in the finite range."""
    n = draw(st.integers(1, 4))
    shape = (4 * n,) if draw(st.booleans()) else (draw(st.integers(1, 3)), 4 * n)
    values = st.one_of(st.floats(-50.0, 50.0), st.floats(allow_nan=False, allow_infinity=False))
    size = math.prod(shape)
    return np.array(draw(st.lists(values, min_size=size, max_size=size))).reshape(shape)


class TestLstmStep:
    @pytest.fixture
    def zero_cell(self):
        store = ParamStore({"c/w": np.zeros((4, 2)), "c/b": np.zeros(4)})
        return store, LstmCell(store, "c")

    @staticmethod
    def step(cell, x, h, s, variant=LSTM_STANDARD):
        z = cell.w.data[:, :1] @ np.array([x]) + cell.b.data  # the input's projection W_x x + b
        hs, ss = np.array([[h], [np.nan]]), np.array([[s], [np.nan]])
        lstm_step(z, cell.w.data[:, 1:].T, hs, ss, 0, variant)
        return hs[1], ss[1]

    def test_all_zero_parameters_standard(self, zero_cell):
        _, cell = zero_cell
        h, s = self.step(cell, 0.7, 0.3, 0.8, LSTM_STANDARD)
        # gates collapse to sigmoid(0) = 1/2 and g = tanh(0) = 0,
        # so the state halves and h = 0.5 * tanh(s)
        assert s[0] == 0.5 * 0.8
        assert h[0] == 0.5 * np.tanh(0.4)

    def test_all_zero_parameters_paper_literal(self, zero_cell):
        _, cell = zero_cell
        h, s = self.step(cell, 0.7, 0.3, 0.8, LSTM_PAPER_LITERAL)
        assert s[0] == 0.5 * 0.8
        assert h[0] == np.tanh(0.4 * 0.5)

    def test_saturated_forget_gate_preserves_state(self, zero_cell):
        store, cell = zero_cell
        store["c/b"].data[2:3] = 40.0  # the f slice of the packed g, i, f, o bias
        _, s = self.step(cell, 0.7, 0.3, 1.0)
        assert abs(s[0] - 1.0) < 1e-6

    @settings(max_examples=300, deadline=None)
    @given(z=gate_rows())
    @example(z=np.tile(SPECIAL_PRE_ACTIVATIONS, 4))
    @example(z=np.tile(SPECIAL_PRE_ACTIVATIONS, (3, 4)))
    def test_gates_match_the_exp_form(self, z):
        """One tanh over the row gives tanh(g) and 0.5 tanh(x/2) + 0.5 for the sigmoid gates."""
        n = z.shape[-1] // 4
        want = np.concatenate([np.tanh(z[..., :n]), sigmoid_array(z[..., n:])], axis=-1)
        acts = z.copy()
        hs = np.zeros((2, *z.shape[:-1], n))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            lstm_step(acts, np.zeros((n, 4 * n)), hs, np.zeros_like(hs), 0)
        assert np.max(np.abs(acts - want)) <= 2.3e-16
        assert np.all((acts[..., n:] >= 0.0) & (acts[..., n:] <= 1.0))


class TestConvPool:
    @staticmethod
    def weights():
        return Param(np.ones((1, 3)), np.zeros((1, 3))), Param(np.zeros(1), np.zeros(1))

    def test_two_unit_max(self):
        words = Node(np.array([[1.0], [-1.0], [0.5]]), None)
        rels = Node(np.array([[0.25], [-0.25]]), None)
        out = conv_pool(words, rels, *self.weights())
        # units tanh(1 + 0.25 - 1) and tanh(-1 - 0.25 + 0.5); max wins
        assert out.data[0] == np.tanh(0.25)

    def test_single_node_pseudo_unit(self):
        out = conv_pool(Node(np.array([[0.3]]), None), Node(np.zeros((0, 1)), None), *self.weights())
        assert out.data[0] == np.tanh(0.6)


PATH_FORMS = ("cat", "chased", "dog", "park", "xyzzy")  # xyzzy is out of vocabulary
PATH_RELS = ("nsubj", "dobj", "prep", SR_LINK, "weird")  # weird is unseen: the UNK row


@st.composite
def sdp_paths(draw):
    n = draw(st.integers(1, 8))
    return make_path(
        forms=draw(st.lists(st.sampled_from(PATH_FORMS), min_size=n, max_size=n)),
        rels=draw(st.lists(st.tuples(st.sampled_from(PATH_RELS), st.sampled_from(["UP", "DOWN"])),
                           min_size=n - 1, max_size=n - 1)),
    )


def rows_in(model, path, direction):
    """The path's (words, rels) rows read in direction, as lists."""
    rows = model._rows(path)
    if direction == BWD:
        rows = model._backward_rows(*rows)
    return tuple(r.tolist() for r in rows)


class TestRows:
    @staticmethod
    def read_off(model, path):
        return (
            [model.word_vocab.index(form) for form in path.forms],
            [model.rel_vocab.row(edge.deprel, edge.direction) for edge in path.edges],
        )

    @settings(max_examples=200, deadline=None)
    @given(path=sdp_paths())
    def test_backward_rows_are_the_inverted_paths(self, path):
        model = small_model()
        for direction, oracle in ((FWD, path), (BWD, invert_path(path))):
            assert rows_in(model, path, direction) == self.read_off(model, oracle)

    def test_unseen_relation_keeps_the_unk_row(self):
        model = small_model()
        path = make_path(rels=(("weird", "UP"), (SR_LINK, "DOWN")))
        unk, link_down = model.rel_vocab.table_size - 1, model.rel_vocab.row(SR_LINK, "DOWN")
        assert rows_in(model, path, BWD)[1] == [link_down - 1, unk]

    def test_loss_reads_each_path_once(self, monkeypatch):
        """loss checks the path and looks up its words and relations once, for both
        directions."""
        model, path = small_model(), make_path()
        counts = collections.Counter()

        def counting(name, fn):
            def spy(*args):
                counts[name] += 1
                return fn(*args)
            return spy

        monkeypatch.setattr(model_module, "_check_path", counting("check", model_module._check_path))
        monkeypatch.setattr(model.word_vocab, "index", counting("word", model.word_vocab.index))
        monkeypatch.setattr(model.rel_vocab, "row", counting("rel", model.rel_vocab.row))
        model.loss(path, model.schema.fine_label(1))
        assert counts == {"check": 1, "word": len(path.forms), "rel": len(path.deprels)}


class TestLstmChannel:
    """One channel node against the per-gate tape: per-step lookups, masks and cells."""

    PATH = make_path(forms=("cat", "chased", "cat", "park", "cat"),
                     rels=(("nsubj", "UP"), (SR_LINK, "DOWN"), ("prep", "DOWN"), ("dobj", "UP")))

    @pytest.mark.parametrize("variant", [LSTM_STANDARD, LSTM_PAPER_LITERAL])
    @pytest.mark.parametrize("direction", [FWD, BWD])
    def test_table_gradient_matches_per_gate_reference(self, variant, direction):
        cfg = ModelConfig(word_dim=4, rel_dim=3, conv_dim=5, keep_prob=0.5, lstm_variant=variant)
        model = small_model(config=cfg, seed=9)
        reference = PerGateReference(model)
        rows = rows_in(model, self.PATH, direction)[0]
        assert len(set(rows)) < len(rows)  # a repeated word accumulates

        rng_node, rng_ref = np.random.default_rng(5), np.random.default_rng(5)
        mask = dropout_mask((len(rows), cfg.word_dim), cfg.keep_prob, rng_node)
        states = lstm_channel(model.cells[(direction, "word")], model.emb_word, rows, mask, variant)
        tape_backward(sum_squares(adopt(states)))
        ref_states = reference._channel(reference._cell(direction, "word"),
                                        reference.params["emb/word"], rows, cfg.word_dim, rng_ref)
        ref_loss = sum_squares(ref_states[0])
        for h in ref_states[1:]:
            ref_loss = add(ref_loss, sum_squares(h))
        tape_backward(ref_loss)

        assert np.max(np.abs(states.data - np.stack([h.data for h in ref_states]))) < 1e-12
        ref_grads = reference.packed_grads()
        for name in ("emb/word", f"{direction}/word_cell/w", f"{direction}/word_cell/b"):
            assert np.max(np.abs(model.store[name].grad - ref_grads[name])) < 1e-12, name

    @pytest.mark.parametrize("variant", [LSTM_STANDARD, LSTM_PAPER_LITERAL])
    def test_finite_differences_with_repeated_rows_and_mask(self, variant):
        model = small_model(seed=3)
        rows = [2, 0, 2]
        mask = dropout_mask((3, model.config.word_dim), 0.5, np.random.default_rng(11))
        cell = model.cells[(FWD, "word")]

        def loss_fn():
            states = lstm_channel(cell, model.emb_word, rows, mask, variant)
            return as_loss(sum_squares(adopt(states)))

        names = ["emb/word", "fwd/word_cell/w", "fwd/word_cell/b"]
        records = finite_difference_check(loss_fn, model.store, max_coords=8, rng=2, names=names)
        assert {r[0] for r in records} == set(names)
        worst = max(records, key=lambda r: r[4])
        assert worst[4] < 1e-4, f"gradient mismatch {worst}"


class TestDimensions:
    @pytest.mark.parametrize("name", ["sanwen", "semeval"])
    def test_builtin_schema_head_shapes(self, name):
        schema = BUILTIN_SCHEMAS[name]
        model = small_model(schema=schema)
        assert model.fine_heads[FWD][0].data.shape == (19, SMALL.conv_dim)
        assert model.fine_heads[BWD][0].data.shape == (19, SMALL.conv_dim)
        assert model.coarse_head[0].data.shape == (10, SMALL.conv_dim)
        assert model.coarse_head[2].data.shape == (10,)

    def test_embedding_shapes(self):
        model = small_model()
        assert model.emb_word.data.shape == (len(model.word_vocab), SMALL.word_dim)
        assert model.emb_rel.data.shape == (model.rel_vocab.table_size, SMALL.rel_dim)

    def test_share_fine_heads(self):
        cfg = ModelConfig(word_dim=4, rel_dim=3, conv_dim=5, share_fine_heads=True)
        model = small_model(config=cfg)
        assert model.fine_heads[FWD] is model.fine_heads[BWD]
        assert not any(n.startswith("fine_bwd/") for n in model.store.spans)


class TestForward:
    def test_distributions_normalized(self):
        model = small_model()
        paths = [make_path(), make_path(forms=("cat",), rels=())]
        for _, pred in [model.predict(make_path()), *model.predict_batch(paths)]:
            for y, size in ((pred.y_fwd, 5), (pred.y_bwd, 5), (pred.y_coarse, 3),
                            (pred.y_test, 5)):
                assert y.shape == (size,)
                assert abs(y.sum() - 1.0) < 1e-12

    def test_uniform_loss_with_zeroed_heads(self):
        schema = BUILTIN_SCHEMAS["semeval"]
        model = small_model(schema=schema)
        for name in model.store.spans:
            if name.startswith(("fine_", "coarse/")):
                model.store[name].data[...] = 0.0
        expected = 2 * math.log(19) + math.log(10)
        assert expected == 8.191463051326927
        for label in ["Other", "Cause-Effect(e1,e2)", "Product-Agency(e2,e1)"]:
            j = model.loss(make_path(), label)
            assert abs(float(j.data) - expected) < 1e-12

    def test_oov_form_equals_unk_form(self):
        model = small_model()
        a = model.loss(make_path(forms=("cat", "xyzzy", "dog")), "Rel1(e1,e2)")
        b = model.loss(make_path(forms=("cat", UNK, "dog")), "Rel1(e1,e2)")
        assert float(a.data) == float(b.data)

    def test_unseen_relation_uses_shared_row(self):
        model = small_model()
        a = model.loss(make_path(rels=(("weird1", "UP"), ("dobj", "DOWN"))), "Rel1(e1,e2)")
        b = model.loss(make_path(rels=(("weird2", "DOWN"), ("dobj", "DOWN"))), "Rel1(e1,e2)")
        assert float(a.data) == float(b.data)

    @pytest.mark.parametrize("shared, l2_lambda, size", [
        (False, 1e-5, 28), (False, 0.0, 28), (True, 1e-5, 26), (True, 0.0, 26),
    ])
    def test_tape_holds_one_heads_node(self, shared, l2_lambda, size):
        """The tape is 7 nodes and no parameter: 4 channels, 2 conv nodes and the
        heads node, which holds no L2 term.  Their closures write all the
        parameters, 21 with separate fine heads: size counts both."""
        cfg = ModelConfig(word_dim=4, rel_dim=3, conv_dim=5, l2_lambda=l2_lambda,
                          share_fine_heads=shared)
        model = small_model(config=cfg)
        loss = model.loss(make_path(), "Rel1(e1,e2)", dropout_rng=np.random.default_rng(0))
        nodes = tape_nodes(loss)
        assert len(nodes) == 7 and all(isinstance(node, Node) for node in nodes)
        backward(loss)
        written = [name for name, param in model.store.items() if param.grad.any()]
        assert written == list(model.store.spans)
        assert len(nodes) + len(written) == size

    @pytest.mark.parametrize("l2_lambda", [1e-3, 0.0])
    def test_l2_penalty_runs_once_per_loss(self, monkeypatch, l2_lambda):
        """The loss node holds no L2 term: training calls l2_penalty once per loss when
        l2_lambda > 0, never at 0, and each epoch's logged loss is the mean of
        l2 + loss, added in that order, bit for bit."""
        calls = []
        penalty, loss = ParamStore.l2_penalty, RelationModel.loss

        def penalty_spy(store, weight):
            calls.append(("l2", penalty(store, weight)))
            return calls[-1][1]

        def loss_spy(model, *args, **kwargs):
            node = loss(model, *args, **kwargs)
            calls.append(("loss", float(node.data)))
            return node

        monkeypatch.setattr(ParamStore, "l2_penalty", penalty_spy)
        monkeypatch.setattr(RelationModel, "loss", loss_spy)
        model = dataclasses.replace(SMALL, l2_lambda=l2_lambda)
        config = ExperimentConfig(model=model, schema="synth-k2", epochs=2)
        result = train(config, train_instances=generate(SynthConfig(n=6, k_types=2, seed=1)))
        losses = [v for kind, v in calls if kind == "loss"]
        penalties = [v for kind, v in calls if kind == "l2"]
        assert len(losses) == 12 and len(penalties) == (12 if l2_lambda > 0.0 else 0)
        if penalties:  # each penalty is taken right after its loss, on the same weights
            assert [kind for kind, _ in calls] == ["loss", "l2"] * 12
        for epoch, row in enumerate(result.history):
            total = 0.0
            for k in range(6 * epoch, 6 * epoch + 6):
                total += penalties[k] + losses[k] if penalties else losses[k]
            assert row["loss"] == total / 6

    def test_l2_term_added(self):
        """The loss is the data term at any l2_lambda; the penalty, l2_penalty, sums the
        squares of every parameter but the embeddings unless they are penalized."""
        base = small_model()
        lam = 1e-3
        path, label = make_path(), "Rel1(e1,e2)"
        plain = float(base.loss(path, label).data)
        for include in (False, True):
            reg = small_model(config=ModelConfig(word_dim=4, rel_dim=3, conv_dim=5, keep_prob=1.0,
                                                 l2_lambda=lam, l2_include_embeddings=include))
            assert float(reg.loss(path, label).data) == plain
            weights = sum(
                float((t.data ** 2).sum())
                for n, t in reg.store.items()
                if include or not n.startswith("emb/")
            )
            assert reg.store.l2_penalty(lam) == pytest.approx(lam * weights)

    def test_dropout_is_deterministic_given_rng(self):
        cfg = ModelConfig(word_dim=4, rel_dim=3, conv_dim=5, keep_prob=0.5, l2_lambda=0.0)
        model = small_model(config=cfg)
        path, label = make_path(), "Rel1(e1,e2)"
        a = float(model.loss(path, label, dropout_rng=np.random.default_rng(42)).data)
        b = float(model.loss(path, label, dropout_rng=np.random.default_rng(42)).data)
        c = float(model.loss(path, label, dropout_rng=np.random.default_rng(43)).data)
        assert a == b
        assert a != c

    def test_eval_mode_ignores_dropout_config(self):
        cfg = ModelConfig(word_dim=4, rel_dim=3, conv_dim=5, keep_prob=0.5, l2_lambda=0.0)
        model = small_model(config=cfg)
        label1, pred1 = model.predict(make_path())
        label2, pred2 = model.predict(make_path())
        assert label1 == label2
        assert np.array_equal(pred1.y_test, pred2.y_test)

    def test_path_without_forms_rejected(self):
        model = small_model()
        bare = SdpPath(nodes=(1, 2), deprels=("nsubj",), directions=("UP",), forms=(), pos=())
        with pytest.raises(ValueError, match="surface forms"):
            model.predict(bare)
        with pytest.raises(ValueError, match="surface forms"):
            model.predict_batch([make_path(), bare])


class TestGradients:
    @pytest.mark.parametrize("variant", [LSTM_STANDARD, LSTM_PAPER_LITERAL])
    def test_finite_differences_full_model(self, variant):
        cfg = ModelConfig(
            word_dim=4, rel_dim=3, conv_dim=5, keep_prob=1.0, l2_lambda=1e-4,
            lstm_variant=variant,
        )
        model = small_model(config=cfg, seed=3)
        path = make_path(
            forms=("cat", "chased", "dog"),
            rels=((SR_LINK, "DOWN"), ("dobj", "DOWN")),
        )

        def loss_fn():
            return model.loss(path, "Rel2(e2,e1)")

        records = finite_difference_check(loss_fn, model.store, max_coords=3, rng=1)
        assert len(records) > 50
        worst = max(records, key=lambda r: r[4])
        assert worst[4] < 1e-4, f"gradient mismatch {worst}"


class TestGradientBuffers:
    """Each parameter owns one gradient array; the optimizer zeroes it in place."""

    CONFIG = ModelConfig(word_dim=4, rel_dim=3, conv_dim=5, keep_prob=0.5, l2_lambda=1e-3)

    def test_step_zeroes_every_gradient_in_place(self):
        model = small_model(config=self.CONFIG, seed=2)
        state = AdaDeltaState(model.store)
        before = {name: t.grad for name, t in model.store.items()}
        loss = model.loss(make_path(), "Rel1(e1,e2)", dropout_rng=np.random.default_rng(0))
        backward(loss)
        assert all(model.store[name].grad.any() for name in model.store.tables)
        adadelta_step(model.store, state)
        for name, t in model.store.items():
            assert t.grad is before[name], name
            assert not t.grad.any(), name

    def test_refilled_l2_steps_equal_written_ones(self):
        """Training under the optimizer's L2 gradient is bit for bit training with
        0.0 + 2 * l2_lambda * w written by hand before each backward."""
        for include in (False, True):
            config = dataclasses.replace(self.CONFIG, l2_include_embeddings=include)
            models = [small_model(config=config, seed=2) for _ in range(2)]
            states = [AdaDeltaState(models[0].store), AdaDeltaState(models[1].store,
                                                                    l2_lambda=config.l2_lambda)]
            for step, label in enumerate(["Rel1(e1,e2)", "Other", "Rel1(e2,e1)"]):
                by_hand = models[0].store
                for span in by_hand.dense:
                    by_hand.grad[span] = 0.0 + 2.0 * config.l2_lambda * by_hand.data[span]
                for model, state in zip(models, states):
                    loss = model.loss(make_path(), label, dropout_rng=np.random.default_rng(step))
                    backward(loss)
                    adadelta_step(model.store, state)
                assert models[0].store.data.tobytes() == models[1].store.data.tobytes()
                assert states[0].sq_update.tobytes() == states[1].sq_update.tobytes()
            assert not models[0].store.grad.any() and models[1].store.grad.any()

    def test_training_steps_reuse_the_table_gradient(self):
        model = small_model(config=self.CONFIG, seed=2)
        state = AdaDeltaState(model.store)
        table_grad = model.emb_word.grad
        for seed in (0, 1):
            loss = model.loss(make_path(), "Rel1(e1,e2)", dropout_rng=np.random.default_rng(seed))
            backward(loss)
            assert model.emb_word.grad is table_grad and table_grad.any()
            adadelta_step(model.store, state)
        assert not table_grad.any()


class TestBackwardPass:
    """pathrel's backward: the loss node runs the model's fixed tree of closures itself."""

    CONFIG = ModelConfig(word_dim=4, rel_dim=3, conv_dim=5, keep_prob=0.5, l2_lambda=0.0)

    def test_repeated_backward_doubles_every_gradient(self):
        """No node keeps a gradient between calls: a second pass over the same
        loss adds the first one's gradient again, exactly where a pass writes an
        entry once (every dense entry without L2), to rounding in the tables,
        whose rows both directions write.  zero_grad clears the arena in place."""
        model = small_model(config=self.CONFIG, seed=2)
        loss = model.loss(make_path(), "Rel1(e1,e2)", dropout_rng=np.random.default_rng(0))
        backward(loss)
        once = model.store.grad.copy()
        backward(loss)
        twice = model.store.grad
        assert once.any()
        for span in model.store.dense:
            assert np.array_equal(twice[span], 2.0 * once[span])
        assert np.allclose(twice, 2.0 * once, rtol=1e-14, atol=0.0)
        grad, views = model.store.grad, {name: t.grad for name, t in model.store.items()}
        model.store.zero_grad()
        assert model.store.grad is grad and not grad.any()
        assert all(t.grad is views[name] for name, t in model.store.items())

    @pytest.mark.parametrize("forms, rels, order", [
        (("cat", "chased", "dog"), (("nsubj", "UP"), ("dobj", "DOWN")),
         ["heads", "conv fwd", "fwd word", "fwd rel", "conv bwd", "bwd word", "bwd rel"]),
        (("cat",), (), ["heads", "conv fwd", "fwd word", "conv bwd", "bwd word"]),
    ])
    def test_closures_run_in_the_order_the_model_writes(self, forms, rels, order):
        """Heads, then each direction's conv-pool and its word channel before its
        relation channel, forward direction first; a single-node path's
        relation channel gets no gradient, so its closure never runs."""
        model = small_model(config=self.CONFIG, seed=2)
        loss = model.loss(make_path(forms, rels), "Rel1(e1,e2)",
                          dropout_rng=np.random.default_rng(0))
        g_fwd, g_bwd = loss._parents[:2]
        nodes = {"heads": loss, "conv fwd": g_fwd, "fwd word": g_fwd._parents[0],
                 "fwd rel": g_fwd._parents[1], "conv bwd": g_bwd,
                 "bwd word": g_bwd._parents[0], "bwd rel": g_bwd._parents[1]}
        calls = []
        for name, node in nodes.items():
            def recorded(g, name=name, inner=node._backward):
                calls.append(name)
                inner(g)
            node._backward = recorded
        backward(loss)
        assert calls == order
        assert not any(hasattr(node, "grad") for node in nodes.values())

    def test_a_dropped_loss_leaves_no_cycle(self):
        """No closure refers to its own node, so reference counting frees an example's
        nodes and their arrays as soon as the loss is dropped; the cycle collector finds
        nothing left."""
        model = small_model(config=self.CONFIG, seed=2)
        gc.collect()
        gc.disable()
        try:
            for seed in range(3):
                rng = np.random.default_rng(seed)
                loss = model.loss(make_path(), "Rel1(e1,e2)", dropout_rng=rng)
                backward(loss)
                del loss
            assert gc.collect() == 0
        finally:
            gc.enable()


class TestPerGateOracle:
    """The fused model against its per-gate tape formulation (tests/helpers.py)."""

    PATHS = {
        "single-node": make_path(forms=("cat",), rels=()),
        "repeated-word": make_path(
            forms=("cat", "chased", "cat", "park"),
            rels=(("nsubj", "UP"), (SR_LINK, "DOWN"), ("prep", "DOWN")),
        ),
    }

    @pytest.mark.parametrize("variant", [LSTM_STANDARD, LSTM_PAPER_LITERAL])
    @pytest.mark.parametrize("dropout", [False, True])
    @pytest.mark.parametrize("path_name", sorted(PATHS))
    def test_loss_gradients_and_probabilities(self, variant, dropout, path_name):
        """Each case runs separate and shared fine heads, with and without L2.

        A shared head takes both fine heads' gradients on top of the L2
        term's, so the heads node's order of accumulation shows here.  The
        L2 term's gradient is the optimizer's (l2_include_embeddings with
        dropout: the tables too), its value l2_penalty's.  loss
        returns no probabilities; the eval-mode ones are checked against the
        oracle's by the predict tests below.
        """
        path, label = self.PATHS[path_name], "Rel2(e2,e1)"
        for shared, l2_lambda in itertools.product((False, True), (0.0, 1e-3)):
            cfg = ModelConfig(
                word_dim=4, rel_dim=3, conv_dim=5, keep_prob=0.5 if dropout else 1.0,
                l2_lambda=l2_lambda, l2_include_embeddings=dropout, lstm_variant=variant,
                share_fine_heads=shared,
            )
            model = small_model(config=cfg, seed=4)
            reference = PerGateReference(model)

            # the reference's loss holds the L2 term; the model's gradient gets 2λw
            # from the optimizer and the data term from the loss node
            AdaDeltaState(model.store, l2_lambda=l2_lambda)
            rng_fused, rng_ref = np.random.default_rng(8), np.random.default_rng(8)
            loss = model.loss(path, label, dropout_rng=rng_fused if dropout else None)
            backward(loss)
            ref_loss = reference.loss(path, label, dropout_rng=rng_ref if dropout else None)
            tape_backward(ref_loss)

            case = f"shared={shared} l2_lambda={l2_lambda}"
            assert rng_fused.random() == rng_ref.random(), case  # the same dropout draws
            objective = model.store.l2_penalty(l2_lambda) + float(loss.data)
            assert abs(objective - float(ref_loss.data)) < 1e-12, case
            ref_grads = reference.packed_grads()
            for name, t in model.store.items():
                assert np.max(np.abs(t.grad - ref_grads[name])) < 1e-12, (case, name)

    def test_version_1_checkpoint_exits_3(self, tmp_path, capsys):
        """Version 1 stored per-gate cell tensors; only version 3 is read."""
        model = small_model()
        meta = {
            "config": model.config.to_dict(),
            "schema": model.schema.to_dict(),
            "words": model.word_vocab.to_list(),
            "deprels": model.rel_vocab.to_list(),
        }
        file = tmp_path / "v1.ckpt"
        file.write_bytes(json_checkpoint_bytes(per_gate_tensors(model), meta, version=1))
        assert main(["eval", "--checkpoint", str(file), "--data", str(tmp_path / "d.jsonl")]) == 3
        err = capsys.readouterr().err
        assert "unsupported version 1" in err and str(file) in err


def assert_predictions_close(got, want, tol=1e-12):
    """Equal labels and every distribution within tol, for (label, Prediction) pairs."""
    (label, pred), (ref_label, ref_pred) = got, want
    assert label == ref_label
    for name in ("y_fwd", "y_bwd", "y_coarse", "y_test"):
        a, b = getattr(pred, name), getattr(ref_pred, name)
        assert a.shape == b.shape, name
        assert np.max(np.abs(a - b)) < tol, name


class TestPredictBatch:
    """The tape-free batched decode against the per-gate tape (tests/helpers.py)."""

    # lengths 1 to 5; five paths of three nodes, so one group spans three slices
    PATHS = [
        make_path(forms=("cat",), rels=()),
        make_path(),
        make_path(forms=("dog", "park"), rels=(("prep", "DOWN"),)),
        make_path(forms=("park", "chased", "cat"), rels=((SR_LINK, "UP"), ("nsubj", "DOWN"))),
        make_path(forms=("cat", "chased", "cat", "park"),
                  rels=(("nsubj", "UP"), (SR_LINK, "DOWN"), ("prep", "DOWN"))),
        make_path(forms=("dog",), rels=()),
        make_path(forms=("xyzzy", "chased", "dog"), rels=(("weird", "UP"), ("dobj", "DOWN"))),
        make_path(forms=("dog", "chased", "cat"), rels=(("dobj", "UP"), ("nsubj", "DOWN"))),
        make_path(forms=("park", "dog", "chased", "cat", "cat2"),
                  rels=(("prep", "UP"), ("dobj", "UP"), ("nsubj", "DOWN"), ("amod", "DOWN"))),
        make_path(forms=("cat", "park", "dog"), rels=(("prep", "DOWN"), (SR_LINK, "UP"))),
    ]

    @pytest.fixture
    def small_slices(self, monkeypatch):
        monkeypatch.setattr(model_module, "PREDICT_BATCH", 2)

    @pytest.mark.usefixtures("small_slices")
    @pytest.mark.parametrize("variant", [LSTM_STANDARD, LSTM_PAPER_LITERAL])
    @pytest.mark.parametrize("shared", [False, True])
    def test_matches_per_gate_reference(self, variant, shared):
        cfg = ModelConfig(word_dim=4, rel_dim=3, conv_dim=5, lstm_variant=variant,
                          share_fine_heads=shared, alpha=0.3)
        model = small_model(config=cfg, seed=6)
        reference = PerGateReference(model)
        assert sum(len(p.nodes) == 3 for p in self.PATHS) > 2 * model_module.PREDICT_BATCH
        for got, path in zip(model.predict_batch(self.PATHS), self.PATHS):
            assert_predictions_close(got, reference.predict(path))
        for got, path in zip(model.predict_batch(self.PATHS, alpha=0.9), self.PATHS):
            assert_predictions_close(got, reference.predict(path, alpha=0.9))

    @pytest.mark.usefixtures("small_slices")
    def test_output_follows_input_order(self):
        model = small_model(seed=2)
        singles = [model.predict(p) for p in self.PATHS]
        order = np.random.default_rng(0).permutation(len(self.PATHS))
        shuffled = model.predict_batch([self.PATHS[i] for i in order])
        for got, i in zip(shuffled, order):
            assert_predictions_close(got, singles[i])

    def test_empty_input(self):
        assert small_model().predict_batch([]) == []

    def test_empty_path_rejected(self):
        empty = SimpleNamespace(nodes=(), edges=(), forms=(), pos=())
        with pytest.raises(EmptyPath):
            small_model().predict_batch([make_path(), empty])
        with pytest.raises(EmptyPath):
            small_model().predict(empty)

    @pytest.mark.usefixtures("small_slices")
    @settings(max_examples=25, deadline=None)
    @given(seed=st.integers(0, 2**16), n=st.integers(1, 40),
           rule=st.sampled_from(["none", "prep"]),
           variant=st.sampled_from([LSTM_STANDARD, LSTM_PAPER_LITERAL]))
    def test_batched_matches_per_example_on_synth_paths(self, seed, n, rule, variant):
        corpus = generate(SynthConfig(n=n, seed=seed, k_types=3, blocks=3, fillers=2,
                                      prep_density=0.6, bridge_prob=0.3))
        prepared = prepare_paths(corpus, CutRule(variant=rule))
        words, rels = build_vocabs(prepared[: max(1, n // 2)])  # the rest sees OOV rows
        model = RelationModel(ModelConfig(word_dim=5, rel_dim=3, conv_dim=4, lstm_variant=variant),
                              synth_schema(3), words, rels, seed=seed)
        paths = [ex.path for ex in prepared]
        for got, path in zip(model.predict_batch(paths), paths):
            assert_predictions_close(got, model.predict(path))

    @pytest.mark.usefixtures("small_slices")
    def test_each_channel_projects_its_distinct_rows_once(self, monkeypatch):
        """One call projects, for each (direction, channel), each distinct row of all
        its paths exactly once, into a table that every slice of every length reads."""
        model, paths = small_model(seed=3), self.PATHS[:8]  # no path here reads prep UP
        calls = []

        def spy(cell, x, project=model_module.project_inputs):
            calls.append((cell, x.copy()))
            return project(cell, x)

        monkeypatch.setattr(model_module, "project_inputs", spy)
        model.predict_batch(paths)
        tables = {"word": model.emb_word.data, "rel": model.emb_rel.data}
        distinct = {
            (direction, channel): {r for p in paths for r in rows_in(model, p, direction)[c]}
            for direction in (FWD, BWD) for c, channel in enumerate(("word", "rel"))
        }
        assert distinct[(BWD, "rel")] != distinct[(FWD, "rel")]  # UP and DOWN swap
        assert sum(len(p.nodes) for p in paths) > len(distinct[(FWD, "word")])
        assert len(calls) == 4
        got = {cell: sorted(row.tobytes() for row in x) for cell, x in calls}
        assert got == {
            model.cells[key]: sorted(tables[key[1]][r].tobytes() for r in rows)
            for key, rows in distinct.items()
        }

    @pytest.mark.usefixtures("small_slices")
    def test_a_call_larger_than_a_chunk_projects_once_per_chunk(self, monkeypatch):
        """PREDICT_CHUNK paths at a time: each chunk projects once per direction and
        channel, and the labels and distributions are an unchunked call's."""
        model, paths = small_model(seed=4), self.PATHS * 3
        monkeypatch.setattr(model_module, "PREDICT_CHUNK", len(paths) + 1)
        whole = model.predict_batch(paths)
        monkeypatch.setattr(model_module, "PREDICT_CHUNK", 7)
        calls = []

        def spy(cell, x, project=model_module.project_inputs):
            calls.append(cell)
            return project(cell, x)

        monkeypatch.setattr(model_module, "project_inputs", spy)
        chunked = model.predict_batch(iter(paths))
        chunks = -(-len(paths) // 7)
        assert chunks == 5 and calls == list(model.cells.values()) * chunks
        for got, want in zip(chunked, whole, strict=True):
            assert_predictions_close(got, want, tol=1e-12)

    def test_paper_dimensions_match_per_path_and_per_gate_reference(self):
        """At 200/50/200, where a GEMM row's rounding can depend on the row count, the
        call-wide tables agree with one-path calls and with the per-gate tape, on
        length groups that share words."""
        corpus = generate(SynthConfig(n=40, seed=3, k_types=3, prep_density=0.6, bridge_prob=0.3))
        prepared = prepare_paths(corpus, CutRule("prep"))
        paths = [ex.path for ex in prepared]
        forms_by_length = {}
        for path in paths:
            forms_by_length.setdefault(len(path.nodes), set()).update(path.forms)
        assert any(a & b for a, b in itertools.combinations(forms_by_length.values(), 2))
        words, rels = build_vocabs(prepared[:30])  # the rest sees OOV rows
        model = RelationModel(ModelConfig(alpha=0.3), synth_schema(3), words, rels, seed=5)
        assert (model.config.word_dim, model.config.rel_dim, model.config.conv_dim) == (200, 50, 200)
        reference = PerGateReference(model)
        for got, path in zip(model.predict_batch(paths), paths):
            assert_predictions_close(got, model.predict(path))
            assert_predictions_close(got, reference.predict(path))

    def test_acceptance_corpora_match_per_gate_reference(self):
        """Acceptance 06's test set under both of its rules, at its model size."""
        corpus = generate(SynthConfig(n=2500, seed=12, **COMPARISON_GEN))[2000:]
        for variant in ("prep", "none"):
            prepared = prepare_paths(corpus, CutRule(variant=variant))
            lengths = [len(ex.path.nodes) for ex in prepared]
            assert max(map(lengths.count, lengths)) > model_module.PREDICT_BATCH
            words, rels = build_vocabs(prepared)
            model = RelationModel(COMPARISON_MODEL, synth_schema(9), words, rels, seed=1)
            reference = PerGateReference(model)
            batched = model.predict_batch([ex.path for ex in prepared])
            for got, ex in zip(batched[::5], prepared[::5]):
                assert_predictions_close(got, reference.predict(ex.path))


class TestPathBoundary:
    """RelationModel checks the columns of a path where it takes one in (model._check_path)."""

    def test_column_count_message(self):
        path = SdpPath(nodes=(1, 2), deprels=(), directions=("UP",), forms=("a", "b"),
                       pos=("X", "X"))
        with pytest.raises(ValueError, match=r"^2 nodes need 1 deprels and directions, got 0 and 1$"):
            model_module._check_path(path)

    @settings(max_examples=60, deadline=None)
    @given(n=st.integers(0, 4), n_deprels=st.integers(0, 5), n_directions=st.integers(0, 5),
           call=st.sampled_from(["loss", "predict"]))
    def test_mismatched_columns_refused_before_numpy_work(self, n, n_deprels, n_directions, call):
        """A path whose relation columns do not hold one entry per step raises ValueError,
        an empty path EmptyPath, before a channel runs or a dropout mask is drawn."""
        assume(n == 0 or not n_deprels == n_directions == n - 1)
        path = SdpPath(tuple(range(1, n + 1)), ("nsubj",) * n_deprels, ("UP",) * n_directions,
                       ("cat",) * n, ("X",) * n)
        model = small_model(config=dataclasses.replace(SMALL, keep_prob=0.5))
        rng = np.random.default_rng(0)
        drawn = rng.bit_generator.state
        refuse = mock.Mock(side_effect=AssertionError("numpy work before the path check"))
        with mock.patch.multiple(model_module, lstm_channel=refuse, project_inputs=refuse,
                                 recur=refuse, dropout_mask=refuse), pytest.raises(ValueError) as err:
            if call == "loss":
                model.loss(path, model.schema.fine_label(0), dropout_rng=rng)
            else:
                model.predict(path)
        if n == 0:
            assert err.type is EmptyPath
        else:
            assert err.type is ValueError
            assert str(err.value) == (f"{n} nodes need {n - 1} deprels and directions, "
                                      f"got {n_deprels} and {n_directions}")
        assert rng.bit_generator.state == drawn and not refuse.called

    @settings(max_examples=30, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1))
    def test_built_paths_pass(self, seed):
        """Every path that path_between and extract_sr_sdp build on a random tree and a
        random cut set of it is scored; a loss is taken on a sample of them."""
        rng = np.random.default_rng(seed)
        tree = random_tree(rng)
        lined = cut_and_line(tree, random_cut_set(rng, tree))
        heads = range(1, tree.n + 1)
        paths = [build(s, a, b) for build, s in ((path_between, tree), (extract_sr_sdp, lined))
                 for a in heads for b in heads]
        model = small_model(config=dataclasses.replace(SMALL, keep_prob=0.5))
        assert len(model.predict_batch(paths)) == len(paths)
        for k in rng.choice(len(paths), size=3):
            path = paths[int(k)]
            model.predict(path)
            assert np.isfinite(model.loss(path, model.schema.fine_label(0), dropout_rng=rng).data)


def mirror_name(name):
    for a, b in [("fwd/", "bwd/"), ("fine_fwd/", "fine_bwd/"), ("coarse/w_fwd", "coarse/w_bwd")]:
        if name.startswith(a):
            return b + name[len(a):]
        if name.startswith(b):
            return a + name[len(b):]
    return name


class TestDirectionSymmetry:
    """Swapping direction-tagged parameters and inverting the path must give
    the same objective on the direction-swapped label, bit for bit."""

    def build_pair(self):
        model = small_model(seed=5)
        mirrored = small_model(seed=5)
        for name in model.store.spans:
            mirrored.store[mirror_name(name)].data[...] = model.store[name].data
        return model, mirrored

    def test_mirror_map_is_a_bijection(self):
        model = small_model()
        names = list(model.store.spans)
        mirrored = sorted(mirror_name(n) for n in names)
        assert mirrored == names

    @pytest.mark.parametrize("label", ["Rel1(e1,e2)", "Rel2(e2,e1)", "Other"])
    def test_loss_bitwise_equal(self, label):
        model, mirrored = self.build_pair()
        path = make_path(rels=(("nsubj", "UP"), (SR_LINK, "DOWN")))
        schema = model.schema
        flipped = schema.fine_label(schema.flip(schema.fine_index(label)))
        a = float(model.loss(path, label).data)
        b = float(mirrored.loss(invert_path(path), flipped).data)
        assert a == b

    def test_prediction_channels_swap(self):
        model, mirrored = self.build_pair()
        path = make_path()
        _, pa = model.predict(path, alpha=0.5)
        _, pb = mirrored.predict(invert_path(path), alpha=0.5)
        assert np.array_equal(pb.y_fwd, pa.y_bwd)
        assert np.array_equal(pb.y_bwd, pa.y_fwd)
        assert np.array_equal(pb.y_test, model.schema.flip_distribution(pa.y_test))


class TestDecode:
    def setup_method(self):
        self.schema = synth_schema(2)

    def test_alpha_one_uses_forward_only(self):
        y_fwd = np.array([0.1, 0.6, 0.1, 0.1, 0.1])
        y_bwd = np.array([0.0, 0.0, 0.9, 0.05, 0.05])
        pred = Prediction(y_fwd, y_bwd, np.ones(3) / 3)
        assert decode(pred, 1.0, self.schema) == "Rel1(e1,e2)"
        assert np.array_equal(pred.y_test, y_fwd)

    def test_alpha_zero_uses_flipped_backward(self):
        y_bwd = np.zeros(5)
        y_bwd[1] = 1.0  # Rel1(e1,e2) seen from the reversed path
        pred = Prediction(np.ones(5) / 5, y_bwd, np.ones(3) / 3)
        assert decode(pred, 0.0, self.schema) == "Rel1(e2,e1)"

    def test_blend(self):
        rng = np.random.default_rng(2)
        y_fwd = rng.dirichlet(np.ones(5))
        y_bwd = rng.dirichlet(np.ones(5))
        pred = Prediction(y_fwd, y_bwd, np.ones(3) / 3)
        decode(pred, 0.7, self.schema)
        expected = 0.7 * y_fwd + (1.0 - 0.7) * self.schema.flip_distribution(y_bwd)
        assert np.array_equal(pred.y_test, expected)

    def test_tie_breaks_to_lowest_index(self):
        y = np.array([0.3, 0.3, 0.2, 0.1, 0.1])
        pred = Prediction(y, np.ones(5) / 5, np.ones(3) / 3)
        assert decode(pred, 1.0, self.schema) == "Other"


class TestPersistence:
    def test_save_load_round_trip(self, tmp_path):
        model = small_model(seed=9)
        file = tmp_path / "model.ckpt"
        model.save(file, extra_meta={"rule": {"variant": "prep"}})
        loaded = RelationModel.load(file)

        assert loaded.config == model.config
        assert loaded.schema == model.schema
        assert loaded.word_vocab.words == model.word_vocab.words
        assert loaded.rel_vocab.deprels == model.rel_vocab.deprels
        path = make_path()
        a = model.predict(path)
        b = loaded.predict(path)
        assert a[0] == b[0]
        assert np.array_equal(a[1].y_test, b[1].y_test)

        _, meta = ckpt.load_checkpoint(file)
        assert meta["rule"] == {"variant": "prep"}

    def test_load_rejects_missing_tensor(self, tmp_path):
        model = small_model()
        file = tmp_path / "model.ckpt"
        model.save(file)
        tensors, meta = ckpt.load_checkpoint(file)
        del tensors["fine_fwd/b"]
        ckpt.save_checkpoint(file, tensors, meta)
        with pytest.raises(ckpt.CheckpointError, match="fine_fwd/b"):
            RelationModel.load(file)

    def test_parameter_name_mismatch_lists_names_sorted(self, tmp_path):
        """The message is the same under every PYTHONHASHSEED: sorted lists, not sets."""
        model = small_model()
        file = tmp_path / "model.ckpt"
        model.save(file)
        tensors, meta = ckpt.load_checkpoint(file)
        ckpt.save_checkpoint(file, {"zz/extra": np.zeros(1), "aa/extra": np.zeros(1)}, meta)
        with pytest.raises(ckpt.CheckpointError) as err:
            RelationModel.load(file)
        expected = f"missing {sorted(tensors)}, extra ['aa/extra', 'zz/extra']"
        assert str(err.value) == f"{file}: parameter names differ ({expected})"

    def test_load_rejects_wrong_shape(self, tmp_path):
        model = small_model()
        file = tmp_path / "model.ckpt"
        model.save(file)
        tensors, meta = ckpt.load_checkpoint(file)
        tensors["fine_fwd/w"] = tensors["fine_fwd/w"][:, :-1]
        ckpt.save_checkpoint(file, tensors, meta)
        with pytest.raises(ckpt.CheckpointError, match="fine_fwd/w"):
            RelationModel.load(file)

    def test_load_draws_nothing(self, tmp_path, monkeypatch):
        model = small_model(config=ModelConfig(word_dim=4, rel_dim=3, conv_dim=5), seed=4)
        file = tmp_path / "model.ckpt"
        model.save(file)

        def no_draw(*args, **kwargs):
            raise AssertionError("load drew random numbers")

        with monkeypatch.context() as patch:
            patch.setattr(model_module.np.random, "default_rng", no_draw)
            loaded = RelationModel.load(file)
        assert np.array_equal(loaded.store.data, model.store.data)
        paths = [make_path(), make_path(forms=("cat",), rels=()),
                 make_path(forms=("zzz", "dog"), rels=(("unseen", "DOWN"),))]
        for (label, pred), (label0, pred0) in zip(loaded.predict_batch(paths),
                                                  model.predict_batch(paths)):
            assert label == label0
            for name in ("y_fwd", "y_bwd", "y_coarse", "y_test"):
                assert getattr(pred, name).tobytes() == getattr(pred0, name).tobytes(), name

    def test_loaded_parameters_view_the_array_the_payload_was_read_into(self, tmp_path,
                                                                         monkeypatch):
        """Nothing is copied after the read: the arena is the array readinto filled, writable."""
        model = small_model(seed=9)
        file = tmp_path / "model.ckpt"
        model.save(file)
        filled = []

        class Recorded:  # the checkpoint file, recording what its payload is read into
            def __init__(self, *args):
                self.fh = open(*args)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                self.fh.close()

            def __getattr__(self, name):
                return getattr(self.fh, name)

            def readinto(self, buffer):
                filled.append(buffer)
                return self.fh.readinto(buffer)

        monkeypatch.setattr(ckpt, "open", Recorded, raising=False)
        loaded = RelationModel.load(file)
        arena = loaded.store.data
        assert arena.flags.writeable and arena.tobytes() == model.store.data.tobytes()
        assert filled and all(buffer.base is arena for buffer in filled)
        assert sum(buffer.nbytes for buffer in filled) == arena.nbytes
        for name, t in loaded.store.items():
            assert t.data.base is arena and t.data.flags.writeable, name

    def test_loaded_model_takes_the_same_training_step(self, tmp_path):
        """One more loss, backward and AdaDelta step on the loaded model ends bit-identical to
        the same step on the model that was saved."""
        config = ModelConfig(word_dim=4, rel_dim=3, conv_dim=5, keep_prob=0.5, l2_lambda=1e-3,
                             l2_include_embeddings=True)
        model = small_model(config=config, seed=2)
        file = tmp_path / "model.ckpt"
        model.save(file)
        saved = model.store.data.copy()
        loaded = RelationModel.load(file)
        for m in (model, loaded):
            state = AdaDeltaState(m.store, l2_lambda=config.l2_lambda)
            backward(m.loss(make_path(), "Rel1(e1,e2)", dropout_rng=np.random.default_rng(0)))
            adadelta_step(m.store, state)
        assert not np.array_equal(model.store.data, saved)
        assert loaded.store.data.tobytes() == model.store.data.tobytes()
        assert loaded.store.grad.tobytes() == model.store.grad.tobytes()

    @pytest.mark.parametrize("share", [False, True])
    def test_layout_is_the_built_models_shapes(self, share):
        config = ModelConfig(word_dim=4, rel_dim=3, conv_dim=5, share_fine_heads=share)
        model = small_model(config=config)
        shapes = model_module.layout(config, model.schema, len(model.word_vocab),
                                     model.rel_vocab.table_size)
        assert shapes == {name: t.data.shape for name, t in model.store.items()}
        assert ("fine_bwd/w" in shapes) is not share


@st.composite
def embedding_files(draw):
    """The text of an embeddings file for a 3-wide table: words in and out of the
    vocabulary, `<unk>` and repeats, trailing whitespace, any line end, now and
    then a byte-order mark, and now and then a fault: a short or long line, or a
    value that is not a finite ASCII number."""
    text = draw(st.sampled_from(["", "", "\ufeff"]))
    for _ in range(draw(st.integers(0, 6))):
        word = draw(st.sampled_from(["cat", "dog", "ent7", "<unk>", "zebra", "", "\x0c", "a\u2028b"]))
        values = draw(st.lists(st.floats(allow_nan=False, allow_infinity=False).map(repr),
                               min_size=3, max_size=3))
        if not draw(st.integers(0, 11)):
            fault = draw(st.sampled_from(["0x1", "", "x", "nan", "-Infinity", "1e400", "1_0",
                                          "\u0661", "\u00a0", "short", "long"]))
            if fault in ("short", "long"):
                values = values[:draw(st.integers(0, 2))] if fault == "short" else [*values, "0"]
            else:
                values[draw(st.integers(0, 2))] = fault
        text += " ".join([word, *values]) + draw(st.sampled_from(["", "", " ", "\t", " \t "]))
        text += draw(st.sampled_from(["\n", "\n", "\r\n", "\r"]))
    return text + draw(st.sampled_from(["", "", "cat 1 2 3", "-0 +.5 1e-320 .0", "\n"]))


# value tokens for the embeddings parser: specials, any float's repr, decimal
# strings of up to 20 digits a side, and strings over the characters numbers use
NUMBER_TOKENS = st.one_of(
    st.sampled_from(["nan", "-Infinity", "1e400", "-1e400", "1e-400", "0x10", "", "+.5", "inf",
                     "-nan", "INF", "1e", ".", "-0", "1_0", "0o7", "1j", "+-1", "\t1", "1\t2",
                     "\x0c2", "1\x1c", "4.9e-324", "2.5e-324", "1.7976931348623157e308"]),
    st.floats().map(repr),
    st.from_regex(r"[+-]?[0-9]{0,20}\.?[0-9]{0,20}([eE][+-]?[0-9]{1,3})?", fullmatch=True),
    st.text(alphabet="0123456789+-.eEinfatyINFATYx_\t", max_size=6),
)


class TestWordEmbeddings:
    def test_load_text_table(self, tmp_path):
        file = tmp_path / "vecs.txt"
        file.write_text("hello 0.25 -1.5\nworld 2.0 0.0\n", encoding="utf-8")
        table = np.zeros((3, 2))
        load_word_embeddings(file, Vocabulary(["hello", "world"]), table)
        assert np.array_equal(table, [[0.0, 0.0], [0.25, -1.5], [2.0, 0.0]])

    def test_byte_order_mark_dropped(self, tmp_path):
        """A file saved with a BOM loads its first word without it."""
        file = tmp_path / "vecs.txt"
        file.write_text("\ufeffent7 1.0 2.0\n", encoding="utf-8")
        table = np.zeros((2, 2))
        load_word_embeddings(file, Vocabulary(["ent7"]), table)
        assert np.array_equal(table[1], [1.0, 2.0])

    def test_malformed_line_reports_position(self, tmp_path):
        file = tmp_path / "vecs.txt"
        file.write_text("hello 1.0\njunk\n", encoding="utf-8")
        with pytest.raises(ValueError, match=r":2: expected `word v1 ... vd`"):
            load_word_embeddings(file, Vocabulary(["hello"]), np.zeros((2, 1)))

    def test_trailing_whitespace_ignored(self, tmp_path):
        """word2vec's text format ends every line with a space."""
        file = tmp_path / "vecs.txt"
        vocab, table = Vocabulary(["hello", "short", "world"]), np.zeros((4, 2))
        file.write_bytes(b"hello 0.25 -1.5 \nworld 2.0 0.0\t \r\n")
        load_word_embeddings(file, vocab, table)
        assert np.array_equal(table[vocab.index("hello")], [0.25, -1.5])
        assert np.array_equal(table[vocab.index("world")], [2.0, 0.0])
        file.write_bytes(b"hello 0.25 -1.5 \nshort 1.0 \n")
        with pytest.raises(ValueError, match=r":2: vector for 'short' has 1 values, expected word_dim 2"):
            load_word_embeddings(file, vocab, table)
        file.write_bytes(b"gap 0.25  -1.5\n")
        with pytest.raises(ValueError, match=r":1: could not convert string to float: ''"):
            load_word_embeddings(file, vocab, table)

    def test_pretrained_rows_injected(self, tmp_path):
        """A vocabulary word's row takes its last line's vector, in place.  Row 0,
        which `<unk>` and every word outside the vocabulary map to, and the rows of
        words without a line keep their values."""
        file = tmp_path / "vecs.txt"
        file.write_text("cat 1 2 3 4\n<unk> 9 9 9 9\nnot-in-vocab 8 8 8 8\ncat 5 6 7 8\n",
                        encoding="utf-8")
        vocab = Vocabulary(["cat", "dog"])
        table = np.random.default_rng(0).uniform(-1, 1, (3, 4))
        want = table.copy()
        want[vocab.index("cat")] = [5.0, 6.0, 7.0, 8.0]
        assert load_word_embeddings(file, vocab, table) is None
        assert table.tobytes() == want.tobytes()

    def test_pretrained_dim_mismatch(self, tmp_path):
        """A vector that is not as wide as the table is refused, kept word or not,
        before its row is written."""
        file = tmp_path / "vecs.txt"
        table = np.ones((2, 4))
        for word in ("cat", "not-in-vocab"):
            file.write_text(f"{word} 0 0 0\n", encoding="utf-8")
            with pytest.raises(ValueError, match=f":1: vector for '{word}' has 3 values, "
                                                 "expected word_dim 4"):
                load_word_embeddings(file, Vocabulary(["cat"]), table)
        assert np.array_equal(table, np.ones((2, 4)))

    @settings(max_examples=300, deadline=None)
    @given(text=embedding_files())
    def test_same_table_or_same_error_as_the_dict_reader(self, tmp_path_factory, text):
        """The loader fills the rows that reference_embeddings (tests/helpers.py) gives
        vectors for, and leaves every other row's bytes as they were; or both raise
        the same message."""
        file = tmp_path_factory.getbasetemp() / "embeddings-property.txt"
        file.write_bytes(text.encode("utf-8"))
        vocab = Vocabulary(["cat", "dog", "ent7"])
        table = np.random.default_rng(1).uniform(-1, 1, (len(vocab), 3))
        want = table.copy()
        try:
            vectors = reference_embeddings(file, vocab.words, 3)
        except ValueError as err:
            with pytest.raises(ValueError) as got:
                load_word_embeddings(file, vocab, table)
            assert str(got.value) == str(err)
            return
        for word, vec in vectors.items():
            want[vocab.words.index(word)] = vec
        load_word_embeddings(file, vocab, table)
        assert table.tobytes() == want.tobytes()

    @settings(max_examples=400, deadline=None)
    @given(lines=st.lists(st.tuples(st.sampled_from(["cat", "dog", "zebra"]),
                                    st.lists(NUMBER_TOKENS, min_size=2, max_size=2)),
                          min_size=1, max_size=3))
    def test_numbers_read_as_float_reads_them(self, tmp_path_factory, lines):
        """Value tokens near the edges of what float() reads give the table bytes, or
        the message, that reference_embeddings gives."""
        file = tmp_path_factory.getbasetemp() / "embeddings-numbers.txt"
        file.write_text("".join(" ".join([word, *values]) + "\n" for word, values in lines),
                        encoding="utf-8")
        vocab = Vocabulary(["cat", "dog"])
        table = np.zeros((len(vocab), 2))
        want = table.copy()
        try:
            vectors = reference_embeddings(file, vocab.words, 2)
        except ValueError as err:
            with pytest.raises(ValueError) as got:
                load_word_embeddings(file, vocab, table)
            assert str(got.value) == str(err)
            return
        for word, vec in vectors.items():
            want[vocab.words.index(word)] = vec
        load_word_embeddings(file, vocab, table)
        assert table.tobytes() == want.tobytes()

    def test_peak_memory_does_not_grow_with_the_file(self, tmp_path):
        """At a fixed vocabulary of 10 words, 8000 lines leave the traced peak within
        256 KiB of 2000 lines'.  A reader that keeps every word's vector in a dict,
        in the vocabulary or not, grows it by 1.44 MiB here."""
        vocab = Vocabulary([f"w{i}" for i in range(10)])
        table = np.zeros((len(vocab), 8))
        peaks = []
        for lines in (2000, 8000):
            file = tmp_path / f"vecs{lines}.txt"
            file.write_text("".join(f"w{i} " + " ".join(["0.125"] * 8) + "\n" for i in range(lines)),
                            encoding="utf-8")
            tracemalloc.start()
            try:
                load_word_embeddings(file, vocab, table)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert peaks[1] - peaks[0] <= 256 * 1024, peaks
