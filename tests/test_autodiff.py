import math

import numpy as np
import pytest
from helpers import cross_entropy, sum_squares

from pathrel.autodiff import (
    NonScalarLoss,
    ParamStore,
    ShapeMismatch,
    Tensor,
    add,
    backward,
    concat,
    constant,
    dropout_mask,
    finite_difference_check,
    gather_rows,
    matmul,
    max_over,
    mul,
    sigmoid,
    softmax,
    softmax_cross_entropy,
    tanh,
)


def check_store(loss_fn, store, tol=1e-4):
    records = finite_difference_check(loss_fn, store, max_coords=6, rng=0)
    assert records
    worst = max(records, key=lambda r: r[4])
    assert worst[4] < tol, f"gradient mismatch {worst}"


class TestForwardValues:
    def test_matmul_identity(self):
        a = np.arange(12.0).reshape(3, 4)
        out = matmul(constant(np.eye(3)), constant(a))
        assert np.array_equal(out.data, a)

    def test_matmul_vector(self):
        out = matmul(constant([[1.0, 2.0], [3.0, 4.0]]), constant([1.0, 1.0]))
        assert np.array_equal(out.data, [3.0, 7.0])

    def test_softmax_normalized(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            y = softmax(constant(rng.normal(size=7) * 10))
            assert abs(y.data.sum() - 1.0) < 1e-12

    def test_cross_entropy_closed_form(self):
        ce = softmax_cross_entropy(constant([0.0, 0.0]), 0)
        assert abs(float(ce.data) - math.log(2)) < 1e-12

    def test_softmax_ce_translation_invariant(self):
        z = np.array([0.3, -1.2, 2.0, 0.0])
        a = softmax_cross_entropy(constant(z), 2)
        b = softmax_cross_entropy(constant(z + 17.0), 2)
        assert abs(float(a.data) - float(b.data)) < 1e-9

    def test_softmax_ce_matches_log_of_softmax(self):
        rng = np.random.default_rng(4)
        for _ in range(20):
            z = rng.normal(size=6) * 5
            store = ParamStore()
            fused = store.add("z", z)
            ce = softmax_cross_entropy(fused, 3)
            backward(ce)
            ref_z = Tensor(z, requires_grad=True)
            ref = cross_entropy(softmax(ref_z), 3)
            backward(ref)
            assert abs(float(ce.data) - float(ref.data)) < 1e-12
            assert np.max(np.abs(fused.grad - ref_z.grad)) < 1e-12

    def test_softmax_ce_finite_at_large_logit_gap(self):
        # -log of an underflowed probability is inf with a NaN gradient;
        # log-sum-exp keeps both finite
        with np.errstate(divide="ignore"):
            assert not np.isfinite(float(cross_entropy(softmax(constant([0.0, -1e4])), 1).data))
        store = ParamStore()
        logits = store.add("z", [0.0, -1e4])
        ce = softmax_cross_entropy(logits, 1)
        backward(ce)
        assert float(ce.data) == 1e4
        assert np.all(np.isfinite(logits.grad))
        assert np.array_equal(logits.grad, [1.0, -1.0])

    def test_max_over_elementwise(self):
        out = max_over([constant([1.0, -1.0]), constant([0.0, 0.0])])
        assert np.array_equal(out.data, [1.0, 0.0])

    def test_sigmoid_stable_at_extremes(self):
        out = sigmoid(constant([-800.0, 0.0, 800.0]))
        assert np.all(np.isfinite(out.data))
        assert np.array_equal(out.data[[0, 2]], [0.0, 1.0])
        assert out.data[1] == 0.5

    def test_concat(self):
        out = concat([constant([1.0]), constant([2.0, 3.0])])
        assert np.array_equal(out.data, [1.0, 2.0, 3.0])

    def test_shape_mismatch_names_both_shapes(self):
        with pytest.raises(ShapeMismatch, match=r"\(2,\).*\(3,\)"):
            add(constant([1.0, 2.0]), constant([1.0, 2.0, 3.0]))
        with pytest.raises(ShapeMismatch):
            matmul(constant([[1.0]]), constant([1.0, 2.0]))
        with pytest.raises(ShapeMismatch):
            softmax(constant([[1.0]]))


class TestBackward:
    def test_square_gradient(self):
        store = ParamStore()
        x = store.add("x", 3.0)
        loss = mul(x, x)
        backward(loss)
        assert float(x.grad) == 6.0

    def test_additive_accumulation_until_zeroed(self):
        store = ParamStore()
        x = store.add("x", 3.0)
        backward(mul(x, x))
        backward(mul(x, x))
        assert float(x.grad) == 12.0
        store.zero_grad()
        assert x.grad is None

    def test_repeated_backward_same_graph(self):
        # intermediate grads are transient; leaves accumulate exactly
        store = ParamStore()
        x = store.add("x", 2.0)
        loss = mul(mul(x, x), x)  # x^3, grad 12
        backward(loss)
        backward(loss)
        assert float(x.grad) == 24.0

    def test_non_scalar_loss_rejected(self):
        with pytest.raises(NonScalarLoss):
            backward(constant([1.0, 2.0]))

    def test_max_over_routes_to_argmax(self):
        store = ParamStore()
        a = store.add("a", [1.0, 5.0])
        b = store.add("b", [2.0, 3.0])
        backward(sum_squares(max_over([a, b])))
        assert np.array_equal(a.grad, [0.0, 10.0])
        assert np.array_equal(b.grad, [4.0, 0.0])

    def test_max_over_tie_goes_to_first(self):
        store = ParamStore()
        a = store.add("a", [1.0])
        b = store.add("b", [1.0])
        backward(sum_squares(max_over([a, b])))
        assert np.array_equal(a.grad, [2.0])
        assert b.grad is None  # loser receives no contribution at all

    def test_gather_rows_scatters_and_accumulates(self):
        store = ParamStore()
        table = store.add("t", [[1.0, 2.0], [3.0, 4.0]])
        rows = gather_rows(table, [1, 1])
        assert np.array_equal(rows.data, [[3.0, 4.0], [3.0, 4.0]])
        backward(sum_squares(rows))
        assert np.array_equal(table.grad, [[0.0, 0.0], [12.0, 16.0]])

    def test_l2_penalty_gradient_exact(self):
        store = ParamStore()
        w = store.add("w", [[0.5, -2.0], [3.0, 0.25]])
        lam = 1e-5
        backward(store.l2_penalty(lam))
        assert np.array_equal(w.grad, 2.0 * lam * w.data)

    def test_l2_penalty_include_filter(self):
        store = ParamStore()
        store.add("emb/w", [1.0])
        store.add("dense/w", [1.0])
        pen = store.l2_penalty(1.0, include=lambda n: not n.startswith("emb/"))
        assert float(pen.data) == 1.0


class TestFiniteDifferenceAgainstOps:
    def test_dense_chain(self):
        rng = np.random.default_rng(1)
        store = ParamStore()
        w = store.add("w", rng.normal(size=(3, 4)) * 0.3)
        b = store.add("b", rng.normal(size=3) * 0.3)
        x = rng.normal(size=4)

        def loss_fn():
            h = tanh(add(matmul(w, constant(x)), b))
            return softmax_cross_entropy(h, 1)

        check_store(loss_fn, store)

    def test_gates_and_pool(self):
        rng = np.random.default_rng(2)
        store = ParamStore()
        u = store.add("u", rng.normal(size=5) * 0.5)
        v = store.add("v", rng.normal(size=5) * 0.5)
        w = store.add("w", rng.normal(size=5) * 0.5)

        def loss_fn():
            gated = mul(sigmoid(u), tanh(v))
            pooled = max_over([gated, mul(w, constant(np.full(5, 0.9)))])
            return sum_squares(concat([pooled, sigmoid(v)]))

        check_store(loss_fn, store)

    def test_embedding_lookup(self):
        rng = np.random.default_rng(3)
        store = ParamStore()
        table = store.add("emb", rng.normal(size=(4, 3)) * 0.5)
        weights = constant(rng.normal(size=(3, 3)))

        def loss_fn():
            return sum_squares(mul(gather_rows(table, [2, 0, 2]), weights))

        check_store(loss_fn, store)

    def test_checker_detects_wrong_gradient(self):
        store = ParamStore()
        x = store.add("x", 3.0)

        def bad_square():
            out = Tensor(x.data * x.data, _parents=(x,))
            out._backward = lambda g: x.add_grad(g * x.data)  # missing factor 2
            return out

        records = finite_difference_check(bad_square, store, rng=0)
        assert max(r[4] for r in records) > 0.1


class TestDropout:
    def test_keep_prob_one(self):
        assert np.array_equal(dropout_mask((7,), 1.0, 0), np.ones(7))

    def test_values_and_fraction(self):
        mask = dropout_mask((100_000,), 0.5, 42)
        assert set(np.unique(mask)) == {0.0, 2.0}
        assert abs((mask > 0).mean() - 0.5) < 0.01

    def test_same_seed_same_mask(self):
        assert np.array_equal(dropout_mask((50,), 0.5, 7), dropout_mask((50,), 0.5, 7))

    def test_bad_keep_prob(self):
        with pytest.raises(ValueError):
            dropout_mask((3,), 0.0, 0)


class TestParamStore:
    def test_duplicate_name_rejected(self):
        store = ParamStore()
        store.add("w", 1.0)
        with pytest.raises(ValueError, match="already registered"):
            store.add("w", 2.0)

    def test_names_sorted(self):
        store = ParamStore()
        store.add("b", 1.0)
        store.add("a", 1.0)
        assert store.names() == ["a", "b"]
        assert "a" in store and "z" not in store
