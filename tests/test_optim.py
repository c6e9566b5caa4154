import math

import helpers
import numpy as np
import pytest

from pathrel.autodiff import ParamStore, backward, mul
from pathrel.optim import AdaDeltaState, adadelta_step

# First update with rho=0.95, eps=1e-6, gradient 1, derived by hand from the
# update rule at float64 precision:
#   E[g^2] = rho*0 + (1-rho)*1^2
#   step   = -sqrt(0 + eps) / sqrt(E[g^2] + eps) * 1
RHO, EPS = 0.95, 1e-6
FIRST_EG2 = RHO * 0.0 + (1.0 - RHO) * 1.0 * 1.0
FIRST_STEP = -math.sqrt(0.0 + EPS) / math.sqrt(FIRST_EG2 + EPS) * 1.0


def unit_gradient_step(value=0.0):
    store = ParamStore()
    x = store.add("x", value)
    x.grad = np.asarray(1.0)
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
            store = ParamStore()
            x = store.add("x", 0.0)
            x.grad = np.asarray(g)
            adadelta_step(store, AdaDeltaState(store))
            assert abs(float(x.data)) <= g + 1e-12

    def test_accumulators_after_first_step(self):
        _, _, state = unit_gradient_step()
        assert float(state.sq_grad["x"]) == FIRST_EG2
        assert float(state.sq_update["x"]) == pytest.approx((1.0 - RHO) * FIRST_STEP**2)


class TestZeroGradient:
    def test_params_unchanged_and_decay(self):
        store = ParamStore()
        x = store.add("x", 1.5)
        x.grad = np.asarray(1.0)
        state = AdaDeltaState(store)
        adadelta_step(store, state)
        moved = float(x.data)
        sq_g, sq_u = float(state.sq_grad["x"]), float(state.sq_update["x"])

        x.grad = np.asarray(0.0)
        adadelta_step(store, state)
        assert float(x.data) == moved
        assert float(state.sq_grad["x"]) == 0.95 * sq_g
        assert float(state.sq_update["x"]) == 0.95 * sq_u

    def test_missing_grad_treated_as_zero(self):
        store = ParamStore()
        x = store.add("x", 2.0)
        state = AdaDeltaState(store)
        adadelta_step(store, state)
        assert float(x.data) == 2.0


class TestOptimization:
    def test_quadratic_descends_monotonically(self):
        store = ParamStore()
        x = store.add("x", 1.0)
        state = AdaDeltaState(store)
        values = []
        for _ in range(100):
            loss = mul(x, x)
            values.append(float(loss.data))
            backward(loss)
            adadelta_step(store, state)
        diffs = np.diff(values)
        assert np.all(diffs < 0)
        assert values[-1] < values[0]

    def test_grads_zeroed_after_step(self):
        store, x, _ = unit_gradient_step()
        assert x.grad is None

    def test_accumulators_stay_nonnegative(self):
        rng = np.random.default_rng(5)
        store = ParamStore()
        w = store.add("w", rng.normal(size=4))
        state = AdaDeltaState(store)
        for _ in range(50):
            w.grad = rng.normal(size=4)
            adadelta_step(store, state)
            assert np.all(state.sq_grad["w"] >= 0)
            assert np.all(state.sq_update["w"] >= 0)


class TestValidation:
    def test_rho_range(self):
        with pytest.raises(ValueError):
            AdaDeltaState(ParamStore(), rho=1.0)
        with pytest.raises(ValueError):
            AdaDeltaState(ParamStore(), rho=-0.1)

    def test_epsilon_positive(self):
        with pytest.raises(ValueError):
            AdaDeltaState(ParamStore(), epsilon=0.0)


class TestRowSparseOracle:
    """Row-sparse tables against the dense rule (tests/helpers.py)."""

    @pytest.mark.parametrize("l2_include_embeddings", [False, True])
    def test_matches_dense_rule(self, l2_include_embeddings):
        rng = np.random.default_rng(12)
        store = ParamStore()
        table = store.add("emb", rng.normal(size=(10, 3)))
        w = store.add("w", rng.normal(size=(4, 5)))
        state = AdaDeltaState(store, row_sparse=("emb",))
        params = {name: t.data.copy() for name, t in store.items()}
        sq_grad = {name: np.zeros_like(x) for name, x in params.items()}
        sq_update = {name: np.zeros_like(x) for name, x in params.items()}
        for _ in range(50):
            g_table = np.zeros_like(table.data)
            rows = rng.choice(10, size=int(rng.integers(0, 4)), replace=False)
            g_table[rows] = rng.normal(size=(len(rows), 3))
            if l2_include_embeddings:  # the penalty's gradient reaches every row
                g_table += 2.0 * 1e-3 * table.data
            grads = {"emb": g_table, "w": rng.normal(size=(4, 5))}
            for name, g in grads.items():
                store[name].grad = g.copy()
            adadelta_step(store, state)
            helpers.dense_adadelta_step(params, grads, sq_grad, sq_update)
        # the decays the table's untouched rows still owe
        owed = (RHO ** (state.steps - state.row_step["emb"]))[:, None]
        for got, want in ((table.data, params["emb"]),
                          (state.sq_grad["emb"] * owed, sq_grad["emb"]),
                          (state.sq_update["emb"] * owed, sq_update["emb"])):
            assert np.max(np.abs(got - want)) < 1e-12
        # dense tensors take the rule operation for operation
        assert np.array_equal(w.data, params["w"])
        assert np.array_equal(state.sq_grad["w"], sq_grad["w"])
        assert np.array_equal(state.sq_update["w"], sq_update["w"])
