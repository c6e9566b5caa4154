import json
import math

import numpy as np
import pytest
from helpers import PerGateReference, per_gate_tensors

from pathrel import checkpoint as ckpt
from pathrel.autodiff import ParamStore, backward, constant, finite_difference_check
from pathrel.depgraph import PathEdge, SdpPath
from pathrel.labels import BUILTIN_SCHEMAS, synth_schema
from pathrel.model import (
    BWD,
    FWD,
    LSTM_PAPER_LITERAL,
    LSTM_STANDARD,
    UNK,
    LstmCell,
    ModelConfig,
    Prediction,
    RelationModel,
    RelationVocabulary,
    Vocabulary,
    conv_pool,
    decode,
    load_word_embeddings,
    lstm_step,
)
from pathrel.structreg import SR_LINK, invert_path

SMALL = ModelConfig(word_dim=4, rel_dim=3, conv_dim=5, keep_prob=1.0, l2_lambda=0.0)


def make_path(forms=("cat", "chased", "dog"), rels=(("nsubj", "UP"), ("dobj", "DOWN"))):
    return SdpPath(
        nodes=tuple(range(1, len(forms) + 1)),
        edges=tuple(PathEdge(*r) for r in rels),
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
        assert cfg.word_hidden == cfg.word_dim
        assert cfg.rel_hidden == cfg.rel_dim

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


class TestLstmStep:
    @pytest.fixture
    def zero_cell(self):
        store = ParamStore()
        cell = LstmCell(store, "c", 1, 1, np.random.default_rng(0), 0.1)
        for _, t in store.items():
            t.data[...] = 0.0
        return store, cell

    @staticmethod
    def step(cell, x, h, s, variant=LSTM_STANDARD):
        z = cell.w.data[:, :1] @ np.array([x])  # the input's projection W_x x
        return lstm_step(cell, z, np.array([h]), np.array([s]), variant)

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


class TestConvPool:
    def test_two_unit_max(self):
        w = constant(np.ones((1, 3)))
        b = constant(np.zeros(1))
        words = constant([[1.0], [-1.0], [0.5]])
        rels = constant([[0.25], [-0.25]])
        out = conv_pool(words, rels, w, b)
        # units tanh(1 + 0.25 - 1) and tanh(-1 - 0.25 + 0.5); max wins
        assert out.data[0] == np.tanh(0.25)

    def test_single_node_pseudo_unit(self):
        w = constant(np.ones((1, 3)))
        b = constant(np.zeros(1))
        out = conv_pool(constant([[0.3]]), constant(np.zeros((0, 1))), w, b)
        assert out.data[0] == np.tanh(0.6)


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
        assert not any(n.startswith("fine_bwd/") for n in model.store.names())


class TestForward:
    def test_distributions_normalized(self):
        model = small_model()
        y_fwd, y_bwd, y_coarse = model.forward(make_path())
        for y, size in ((y_fwd, 5), (y_bwd, 5), (y_coarse, 3)):
            assert y.data.shape == (size,)
            assert abs(y.data.sum() - 1.0) < 1e-12

    def test_uniform_loss_with_zeroed_heads(self):
        schema = BUILTIN_SCHEMAS["semeval"]
        model = small_model(schema=schema)
        for name in model.store.names():
            if name.startswith(("fine_", "coarse/")):
                model.store[name].data[...] = 0.0
        expected = 2 * math.log(19) + math.log(10)
        assert expected == 8.191463051326927
        for label in ["Other", "Cause-Effect(e1,e2)", "Product-Agency(e2,e1)"]:
            j, _ = model.loss(make_path(), label)
            assert abs(float(j.data) - expected) < 1e-12

    def test_oov_form_equals_unk_form(self):
        model = small_model()
        a, _ = model.loss(make_path(forms=("cat", "xyzzy", "dog")), "Rel1(e1,e2)")
        b, _ = model.loss(make_path(forms=("cat", UNK, "dog")), "Rel1(e1,e2)")
        assert float(a.data) == float(b.data)

    def test_unseen_relation_uses_shared_row(self):
        model = small_model()
        a, _ = model.loss(make_path(rels=(("weird1", "UP"), ("dobj", "DOWN"))), "Rel1(e1,e2)")
        b, _ = model.loss(make_path(rels=(("weird2", "DOWN"), ("dobj", "DOWN"))), "Rel1(e1,e2)")
        assert float(a.data) == float(b.data)

    def test_l2_term_added(self):
        base = small_model()
        lam = 1e-3
        reg = small_model(config=ModelConfig(word_dim=4, rel_dim=3, conv_dim=5,
                                             keep_prob=1.0, l2_lambda=lam))
        path, label = make_path(), "Rel1(e1,e2)"
        plain = float(base.loss(path, label)[0].data)
        penalized = float(reg.loss(path, label)[0].data)
        weights = sum(
            float((t.data ** 2).sum())
            for n, t in reg.store.items()
            if not n.startswith("emb/")
        )
        assert penalized == pytest.approx(plain + lam * weights)

    def test_dropout_is_deterministic_given_rng(self):
        cfg = ModelConfig(word_dim=4, rel_dim=3, conv_dim=5, keep_prob=0.5, l2_lambda=0.0)
        model = small_model(config=cfg)
        path, label = make_path(), "Rel1(e1,e2)"
        a = float(model.loss(path, label, dropout_rng=np.random.default_rng(42))[0].data)
        b = float(model.loss(path, label, dropout_rng=np.random.default_rng(42))[0].data)
        c = float(model.loss(path, label, dropout_rng=np.random.default_rng(43))[0].data)
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
        bare = SdpPath(nodes=(1, 2), edges=(PathEdge("nsubj", "UP"),))
        with pytest.raises(ValueError, match="surface forms"):
            model.forward(bare)


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
            return model.loss(path, "Rel2(e2,e1)")[0]

        records = finite_difference_check(loss_fn, model.store, max_coords=3, rng=1)
        assert len(records) > 50
        worst = max(records, key=lambda r: r[4])
        assert worst[4] < 1e-4, f"gradient mismatch {worst}"


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
        cfg = ModelConfig(
            word_dim=4, rel_dim=3, conv_dim=5, keep_prob=0.5 if dropout else 1.0,
            l2_lambda=1e-3, l2_include_embeddings=dropout, lstm_variant=variant,
        )
        model = small_model(config=cfg, seed=4)
        reference = PerGateReference(model)
        path, label = self.PATHS[path_name], "Rel2(e2,e1)"

        rng_fused, rng_ref = np.random.default_rng(8), np.random.default_rng(8)
        loss, pred = model.loss(path, label, dropout_rng=rng_fused if dropout else None)
        backward(loss)
        ref_loss, ref_pred = reference.loss(path, label, dropout_rng=rng_ref if dropout else None)
        backward(ref_loss)

        assert rng_fused.random() == rng_ref.random()  # the same dropout draws
        assert abs(float(loss.data) - float(ref_loss.data)) < 1e-12
        ref_grads = reference.packed_grads()
        for name, t in model.store.items():
            grad = t.grad if t.grad is not None else np.zeros_like(t.data)
            assert np.max(np.abs(grad - ref_grads[name])) < 1e-12, name
        for a, b in ((pred.y_fwd, ref_pred.y_fwd), (pred.y_bwd, ref_pred.y_bwd),
                     (pred.y_coarse, ref_pred.y_coarse)):
            assert np.max(np.abs(a - b)) < 1e-12

    def test_version_1_checkpoint_loads(self, tmp_path):
        model = small_model(config=ModelConfig(word_dim=4, rel_dim=3, conv_dim=5), seed=7)
        reference = PerGateReference(model)
        meta = {
            "config": model.config.to_dict(),
            "schema": model.schema.to_dict(),
            "words": model.word_vocab.to_list(),
            "deprels": model.rel_vocab.to_list(),
        }
        doc = json.loads(ckpt.checkpoint_bytes(per_gate_tensors(model), meta))
        doc["version"] = 1
        assert "fwd/word_cell/w_gx" in doc["tensors"]
        file = tmp_path / "v1.ckpt"
        file.write_text(json.dumps(doc))

        loaded = RelationModel.load(file)
        for name, t in model.store.items():
            assert np.array_equal(loaded.store[name].data, t.data), name
        for path in [make_path(), *self.PATHS.values()]:
            label, pred = loaded.predict(path)
            ref_label, ref_pred = reference.predict(path)
            assert label == ref_label
            assert np.max(np.abs(pred.y_test - ref_pred.y_test)) < 1e-12

    def test_version_1_checkpoint_missing_gate(self, tmp_path):
        model = small_model()
        tensors = per_gate_tensors(model)
        del tensors["bwd/rel_cell/b_o"]
        doc = json.loads(ckpt.checkpoint_bytes(tensors, {}))
        doc["version"] = 1
        file = tmp_path / "v1.ckpt"
        file.write_text(json.dumps(doc))
        with pytest.raises(ckpt.CheckpointError, match="bwd/rel_cell"):
            ckpt.load_checkpoint(file)


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
        for name in model.store.names():
            mirrored.store[mirror_name(name)].data[...] = model.store[name].data
        return model, mirrored

    def test_mirror_map_is_a_bijection(self):
        model = small_model()
        names = model.store.names()
        mirrored = sorted(mirror_name(n) for n in names)
        assert mirrored == names

    @pytest.mark.parametrize("label", ["Rel1(e1,e2)", "Rel2(e2,e1)", "Other"])
    def test_loss_bitwise_equal(self, label):
        model, mirrored = self.build_pair()
        path = make_path(rels=(("nsubj", "UP"), (SR_LINK, "DOWN")))
        flipped = model.schema.flip_label(label)
        a = float(model.loss(path, label)[0].data)
        b = float(mirrored.loss(invert_path(path), flipped)[0].data)
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

    def test_load_rejects_wrong_shape(self, tmp_path):
        model = small_model()
        file = tmp_path / "model.ckpt"
        model.save(file)
        tensors, meta = ckpt.load_checkpoint(file)
        tensors["fine_fwd/w"] = tensors["fine_fwd/w"][:, :-1]
        ckpt.save_checkpoint(file, tensors, meta)
        with pytest.raises(ckpt.CheckpointError, match="fine_fwd/w"):
            RelationModel.load(file)


class TestWordEmbeddings:
    def test_load_text_table(self, tmp_path):
        file = tmp_path / "vecs.txt"
        file.write_text("hello 0.25 -1.5\nworld 2.0 0.0\n", encoding="utf-8")
        table = load_word_embeddings(file)
        assert set(table) == {"hello", "world"}
        assert np.array_equal(table["hello"], [0.25, -1.5])

    def test_malformed_line_reports_position(self, tmp_path):
        file = tmp_path / "vecs.txt"
        file.write_text("hello 1.0\njunk\n", encoding="utf-8")
        with pytest.raises(ValueError, match="2"):
            load_word_embeddings(file)

    def test_pretrained_rows_injected(self):
        vec = np.array([9.0, 8.0, 7.0, 6.0])
        model = RelationModel(
            config=SMALL,
            schema=synth_schema(2),
            word_vocab=Vocabulary(["cat", "dog"]),
            rel_vocab=RelationVocabulary(["nsubj"]),
            seed=0,
            pretrained={"cat": vec, "not-in-vocab": vec},
        )
        assert np.array_equal(model.emb_word.data[model.word_vocab.index("cat")], vec)

    def test_pretrained_dim_mismatch(self):
        with pytest.raises(ValueError, match="dim"):
            RelationModel(
                config=SMALL,
                schema=synth_schema(2),
                word_vocab=Vocabulary(["cat"]),
                rel_vocab=RelationVocabulary(["nsubj"]),
                pretrained={"cat": np.zeros(3)},
            )
