import math

import numpy as np
import pytest
from helpers import (
    Tensor,
    add,
    as_loss,
    concat,
    cross_entropy,
    leaves,
    matmul,
    max_over,
    mul,
    sigmoid,
    softmax,
    sum_squares,
    tanh,
    tape_backward,
)

from pathrel.autodiff import (
    Node,
    NonScalarLoss,
    Param,
    ParamStore,
    backward,
    cross_entropy_array,
    dropout_mask,
    finite_difference_check,
)


def check_store(loss_fn, store, tol=1e-4):
    records = finite_difference_check(lambda: as_loss(loss_fn()), store, max_coords=6, rng=0)
    assert records
    worst = max(records, key=lambda r: r[4])
    assert worst[4] < tol, f"gradient mismatch {worst}"


class TestForwardValues:
    def test_matmul_identity(self):
        a = np.arange(12.0).reshape(3, 4)
        out = matmul(Tensor(np.eye(3)), Tensor(a))
        assert np.array_equal(out.data, a)

    def test_matmul_vector(self):
        out = matmul(Tensor([[1.0, 2.0], [3.0, 4.0]]), Tensor([1.0, 1.0]))
        assert np.array_equal(out.data, [3.0, 7.0])

    def test_softmax_normalized(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            y = softmax(Tensor(rng.normal(size=7) * 10))
            assert abs(y.data.sum() - 1.0) < 1e-12

    def test_cross_entropy_closed_form(self):
        value, grad = cross_entropy_array(np.array([0.0, 0.0]), 0)
        assert abs(value - math.log(2)) < 1e-12
        assert np.array_equal(grad, [-0.5, 0.5])

    def test_softmax_ce_translation_invariant(self):
        z = np.array([0.3, -1.2, 2.0, 0.0])
        a, grad_a = cross_entropy_array(z, 2)
        b, grad_b = cross_entropy_array(z + 17.0, 2)
        assert abs(a - b) < 1e-9
        assert np.max(np.abs(grad_a - grad_b)) < 1e-12

    def test_softmax_ce_matches_log_of_softmax(self):
        rng = np.random.default_rng(4)
        for _ in range(20):
            z = rng.normal(size=6) * 5
            value, grad = cross_entropy_array(z, 3)
            ref_z = Tensor(z)
            ref = cross_entropy(softmax(ref_z), 3)
            tape_backward(ref)
            assert abs(value - float(ref.data)) < 1e-12
            assert np.max(np.abs(grad - ref_z.grad)) < 1e-12

    def test_softmax_ce_finite_at_large_logit_gap(self):
        # -log of an underflowed probability is inf with a NaN gradient;
        # log-sum-exp keeps both finite
        with np.errstate(divide="ignore"):
            assert not np.isfinite(float(cross_entropy(softmax(Tensor([0.0, -1e4])), 1).data))
        value, grad = cross_entropy_array(np.array([0.0, -1e4]), 1)
        assert value == 1e4
        assert np.array_equal(grad, [1.0, -1.0])

    def test_max_over_elementwise(self):
        out = max_over([Tensor([1.0, -1.0]), Tensor([0.0, 0.0])])
        assert np.array_equal(out.data, [1.0, 0.0])

    def test_sigmoid_stable_at_extremes(self):
        out = sigmoid(Tensor([-800.0, 0.0, 800.0]))
        assert np.all(np.isfinite(out.data))
        assert np.array_equal(out.data[[0, 2]], [0.0, 1.0])
        assert out.data[1] == 0.5

    def test_concat(self):
        out = concat([Tensor([1.0]), Tensor([2.0, 3.0])])
        assert np.array_equal(out.data, [1.0, 2.0, 3.0])


class TestBackward:
    def test_square_gradient(self):
        x = leaves(ParamStore({"x": 3.0}))["x"]
        loss = mul(x, x)
        tape_backward(loss)
        assert float(x.grad) == 6.0

    def test_additive_accumulation_until_zeroed(self):
        store = ParamStore({"x": 3.0})
        x = leaves(store)["x"]
        tape_backward(mul(x, x))
        tape_backward(mul(x, x))
        assert float(x.grad) == 12.0
        grad = x.grad
        store.zero_grad()
        assert x.grad is grad and float(x.grad) == 0.0

    def test_repeated_backward_same_graph(self):
        # intermediate grads are transient; leaves accumulate exactly
        x = leaves(ParamStore({"x": 2.0}))["x"]
        loss = mul(mul(x, x), x)  # x^3, grad 12
        tape_backward(loss)
        tape_backward(loss)
        assert float(x.grad) == 24.0

    def test_non_scalar_loss_rejected(self):
        with pytest.raises(NonScalarLoss):
            backward(Node(np.array([1.0, 2.0]), None))

    def test_max_over_routes_to_argmax(self):
        a, b = leaves(ParamStore({"a": [1.0, 5.0], "b": [2.0, 3.0]})).values()
        tape_backward(sum_squares(max_over([a, b])))
        assert np.array_equal(a.grad, [0.0, 10.0])
        assert np.array_equal(b.grad, [4.0, 0.0])

    def test_max_over_tie_goes_to_first(self):
        a, b = leaves(ParamStore({"a": [1.0], "b": [1.0]})).values()
        tape_backward(sum_squares(max_over([a, b])))
        assert np.array_equal(a.grad, [2.0])
        assert np.array_equal(b.grad, [0.0])  # loser receives no contribution at all

    def test_l2_penalty_gradient_exact(self):
        store = ParamStore({"w": [[0.5, -2.0], [3.0, 0.25]]})
        w = store["w"]
        lam = 1e-5
        value, write = store.l2_penalty(lam)
        assert value == lam * 13.3125
        write(np.asarray(1.0))
        assert np.array_equal(w.grad, 2.0 * lam * w.data)

    def test_l2_penalty_include_filter(self):
        store = ParamStore({"emb/w": [1.0], "dense/w": [1.0]}, tables=("emb/w",))
        value, write = store.l2_penalty(1.0)
        assert value == 1.0
        write(np.asarray(1.0))
        assert store["emb/w"].grad[0] == 0.0 and store["dense/w"].grad[0] == 2.0
        assert store.l2_penalty(1.0, tables=True)[0] == 2.0


class TestFiniteDifferenceAgainstOps:
    def test_dense_chain(self):
        rng = np.random.default_rng(1)
        store = ParamStore({"w": rng.normal(size=(3, 4)) * 0.3, "b": rng.normal(size=3) * 0.3})
        params = leaves(store)
        w, b = params["w"], params["b"]
        x = rng.normal(size=4)

        def loss_fn():
            h = tanh(add(matmul(w, Tensor(x)), b))
            return cross_entropy(softmax(h), 1)

        check_store(loss_fn, store)

    def test_gates_and_pool(self):
        rng = np.random.default_rng(2)
        store = ParamStore({name: rng.normal(size=5) * 0.5 for name in "uvw"})
        u, v, w = leaves(store).values()

        def loss_fn():
            gated = mul(sigmoid(u), tanh(v))
            pooled = max_over([gated, mul(w, Tensor(np.full(5, 0.9)))])
            return sum_squares(concat([pooled, sigmoid(v)]))

        check_store(loss_fn, store)

    def test_checker_detects_wrong_gradient(self):
        store = ParamStore({"x": 3.0})
        x = store["x"]

        def bad_square():
            def back(g):
                x.grad[...] += g * x.data  # missing factor 2

            return Node(x.data * x.data, back)

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
    SHAPES = {"w": (3, 4), "b": (3,), "a": (), "emb": (5, 2)}

    def store(self):
        rng = np.random.default_rng(0)
        return ParamStore({name: rng.normal(size=shape) for name, shape in self.SHAPES.items()})

    def test_names_sorted(self):
        store = ParamStore({"b": 1.0, "a": 1.0})
        assert list(store.spans) == ["a", "b"]
        assert [name for name, _ in store.items()] == ["a", "b"]

    def test_initial_values_and_shapes_kept(self):
        rng = np.random.default_rng(0)
        params = {name: rng.normal(size=shape) for name, shape in self.SHAPES.items()}
        store = ParamStore(params)
        for name, arr in params.items():
            assert store[name].data.shape == arr.shape and store[name].grad.shape == arr.shape
            assert np.array_equal(store[name].data, arr)
            assert not store[name].grad.any()

    def test_every_parameter_views_the_arena(self):
        store = self.store()
        assert store.data.dtype == store.grad.dtype == np.float64
        for name, t in store.items():
            assert isinstance(t, Param) and t is store[name], name
            assert np.shares_memory(t.data, store.data), name
            assert np.shares_memory(t.grad, store.grad), name
            t.data[...] = 7.0
            t.grad[...] = 3.0
            assert np.all(store.data[store.spans[name]] == 7.0)
            assert np.all(store.grad[store.spans[name]] == 3.0)

    def test_views_tiling_one_vector_in_order_become_the_arena(self):
        """A loaded checkpoint's arrays are adopted uncopied; anything else is copied."""
        vec = np.arange(6.0)
        store = ParamStore({"b": vec[2:].reshape(2, 2), "a": vec[:2]})
        assert store.data is vec and np.shares_memory(store["b"].data, vec)
        read_only = np.arange(6.0)
        read_only.flags.writeable = False
        for params in ({"a": vec[4:], "b": vec[:4]},  # out of sorted-name order
                       {"a": vec[:2], "b": vec[3:]},  # a gap
                       {"a": vec[0::2], "b": vec[1::2]},  # strided
                       {"a": vec[:2], "b": np.ones(4)},  # another array
                       {"a": read_only[:2], "b": read_only[2:]}):
            store = ParamStore(params)
            assert store.data.flags.writeable
            assert not any(np.shares_memory(store.data, arr) for arr in params.values())
            for name, arr in params.items():
                assert np.array_equal(store[name].data, arr), name

    def test_spans_tile_the_arena_in_sorted_name_order(self):
        store = self.store()
        assert list(store.spans) == sorted(self.SHAPES)
        lo = 0
        for name, span in store.spans.items():
            assert span.start == lo and span.stop - span.start == store[name].data.size, name
            lo = span.stop
        assert lo == store.data.size == store.grad.size == sum(
            int(np.prod(shape)) for shape in self.SHAPES.values()
        )

    def test_zero_grad_clears_the_whole_vector(self):
        store = self.store()
        store.grad[...] = 1.0
        grad = store.grad
        store.zero_grad()
        assert store.grad is grad and not store.grad.any()
        assert all(not t.grad.any() for _, t in store.items())

    def test_empty_store(self):
        store = ParamStore({})
        assert store.data.size == store.grad.size == 0 and list(store.spans) == []
