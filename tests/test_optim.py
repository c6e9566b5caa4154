import math

import helpers
import numpy as np
import pytest

from pathrel.autodiff import ParamStore, backward
from pathrel import optim
from pathrel.optim import AdaDeltaState, adadelta_step

# First update with rho=0.95, eps=1e-6, gradient 1, derived by hand from the
# update rule at float64 precision:
#   E[g^2] = rho*0 + (1-rho)*1^2
#   step   = -sqrt(0 + eps) / sqrt(E[g^2] + eps) * 1
RHO, EPS = 0.95, 1e-6
FIRST_EG2 = RHO * 0.0 + (1.0 - RHO) * 1.0 * 1.0
FIRST_STEP = -math.sqrt(0.0 + EPS) / math.sqrt(FIRST_EG2 + EPS) * 1.0


def unit_gradient_step(value=0.0):
    store = ParamStore({"x": value})
    x = store["x"]
    x.grad[...] = 1.0
    state = AdaDeltaState(store)
    adadelta_step(store, state)
    return store, x, state


class TestFirstStep:
    def test_exact_value(self):
        _, x, _ = unit_gradient_step()
        assert float(x.data) == FIRST_STEP
        # closed form -1e-3 / sqrt(0.050001), to float rounding
        assert FIRST_STEP == pytest.approx(-1e-3 / math.sqrt(0.050001), rel=1e-12)

    def test_step_magnitude_bounded(self):
        # sqrt((E[dx^2]+eps)/(E[g^2]+eps)) * g <= |g| * 1 on the first step
        for g in [1e-6, 0.1, 1.0, 100.0]:
            store = ParamStore({"x": 0.0})
            x = store["x"]
            x.grad[...] = g
            adadelta_step(store, AdaDeltaState(store))
            assert abs(float(x.data)) <= g + 1e-12

    def test_accumulators_after_first_step(self):
        _, _, state = unit_gradient_step()
        assert float(state.sq_grad[0]) == FIRST_EG2
        assert float(state.sq_update[0]) == pytest.approx((1.0 - RHO) * FIRST_STEP**2)


class TestZeroGradient:
    def test_params_unchanged_and_decay(self):
        store = ParamStore({"x": 1.5})
        x = store["x"]
        x.grad[...] = 1.0
        state = AdaDeltaState(store)
        adadelta_step(store, state)
        moved = float(x.data)
        sq_g, sq_u = float(state.sq_grad[0]), float(state.sq_update[0])

        x.grad[...] = 0.0
        adadelta_step(store, state)
        assert float(x.data) == moved
        assert float(state.sq_grad[0]) == 0.95 * sq_g
        assert float(state.sq_update[0]) == 0.95 * sq_u

    def test_missing_grad_treated_as_zero(self):
        store = ParamStore({"x": 2.0})
        x = store["x"]
        state = AdaDeltaState(store)
        adadelta_step(store, state)
        assert float(x.data) == 2.0


class TestOptimization:
    def test_quadratic_descends_monotonically(self):
        store = ParamStore({"x": 1.0})
        x = helpers.leaves(store)["x"]
        state = AdaDeltaState(store)
        values = []
        for _ in range(100):
            loss = helpers.mul(x, x)
            values.append(float(loss.data))
            backward(loss)
            adadelta_step(store, state)
        diffs = np.diff(values)
        assert np.all(diffs < 0)
        assert values[-1] < values[0]

    def test_grads_zeroed_after_step(self):
        store, x, _ = unit_gradient_step()
        assert float(x.grad) == 0.0

    def test_accumulators_stay_nonnegative(self):
        rng = np.random.default_rng(5)
        store = ParamStore({"w": rng.normal(size=4)})
        state = AdaDeltaState(store)
        for _ in range(50):
            store["w"].grad[...] = rng.normal(size=4)
            adadelta_step(store, state)
            assert np.all(state.sq_grad >= 0)
            assert np.all(state.sq_update >= 0)


class TestValidation:
    def test_rho_range(self):
        with pytest.raises(ValueError):
            AdaDeltaState(ParamStore({}), rho=1.0)
        with pytest.raises(ValueError):
            AdaDeltaState(ParamStore({}), rho=-0.1)

    def test_epsilon_positive(self):
        for epsilon in (0.0, -1e-6, math.nan, math.inf):
            with pytest.raises(ValueError):
                AdaDeltaState(ParamStore({}), epsilon=epsilon)


class TestRowSparseOracle:
    """Row-sparse tables against the dense rule (tests/helpers.py)."""

    @pytest.mark.parametrize("l2_include_embeddings", [False, True])
    def test_matches_dense_rule(self, l2_include_embeddings):
        # "emb" sorts between "a" and "w": the table splits the arena into two dense ranges
        rng = np.random.default_rng(12)
        store = ParamStore({"a": rng.normal(size=3), "emb": rng.normal(size=(10, 3)),
                            "w": rng.normal(size=(4, 5))}, tables=("emb",))
        table = store["emb"]
        state = AdaDeltaState(store)
        assert store.dense == [store.spans["a"], store.spans["w"]]
        params = {name: t.data.copy() for name, t in store.items()}
        sq_grad = {name: np.zeros_like(x) for name, x in params.items()}
        sq_update = {name: np.zeros_like(x) for name, x in params.items()}
        for _ in range(50):
            g_table = np.zeros_like(table.data)
            rows = rng.choice(10, size=int(rng.integers(0, 4)), replace=False)
            g_table[rows] = rng.normal(size=(len(rows), 3))
            if l2_include_embeddings:  # the penalty's gradient reaches every row
                g_table += 2.0 * 1e-3 * table.data
            grads = {"a": rng.normal(size=3), "emb": g_table, "w": rng.normal(size=(4, 5))}
            for name, g in grads.items():
                store[name].grad[...] = g
            adadelta_step(store, state)
            helpers.dense_adadelta_step(params, grads, sq_grad, sq_update)
            assert not store.grad.any()
        span = store.spans["emb"]
        # the decays the table's untouched rows still owe
        owed = (RHO ** (state.steps - state.row_step["emb"]))[:, None]
        for got, want in ((table.data, params["emb"]),
                          (state.sq_grad[span].reshape(10, 3) * owed, sq_grad["emb"]),
                          (state.sq_update[span].reshape(10, 3) * owed, sq_update["emb"])):
            assert np.max(np.abs(got - want)) < 1e-12
        # dense tensors take the rule operation for operation
        for name in ("a", "w"):
            span = store.spans[name]
            assert np.array_equal(store[name].data, params[name])
            assert np.array_equal(state.sq_grad[span].reshape(params[name].shape), sq_grad[name])
            assert np.array_equal(state.sq_update[span].reshape(params[name].shape), sq_update[name])


class TestArena:
    def test_accumulators_span_the_arena(self):
        store = ParamStore({"b": np.ones(3), "a": np.ones((2, 2))})
        state = AdaDeltaState(store)
        assert state.sq_grad.shape == state.sq_update.shape == store.data.shape == (7,)
        assert store.dense == [slice(0, 7)]

    def test_dense_ranges_skip_tables_at_the_ends(self):
        params = {"a": np.ones((2, 2)), "m": np.ones(3), "z": np.ones((3, 2))}
        store = ParamStore(params, tables=("a", "z"))
        assert store.dense == [store.spans["m"]]
        assert ParamStore(params, tables=("a", "m", "z")).dense == []

    def test_one_dense_update_per_range_and_table(self, monkeypatch):
        rng = np.random.default_rng(3)
        store = ParamStore({name: rng.normal(size=(4, 2)) for name in ("a", "emb1", "emb2", "z")},
                           tables=("emb1", "emb2"))
        state = AdaDeltaState(store)
        calls, update = [], optim._dense_update

        def counting(x, *rest):
            calls.append(x.size)
            update(x, *rest)

        monkeypatch.setattr(optim, "_dense_update", counting)
        store.grad[...] = 1.0
        adadelta_step(store, state)
        assert calls == [8, 8, 8, 8]
        assert not store.grad.any()

    def test_dense_update_zeroes_each_gradient_block(self):
        n = 2 * optim.BLOCK + 5
        store = ParamStore({"w": np.zeros(n)})
        store.grad[...] = 1.0
        adadelta_step(store, AdaDeltaState(store))
        assert not store.grad.any() and np.all(store.data < 0)
