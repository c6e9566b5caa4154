import math
import os
import subprocess
import sys
import textwrap
import threading
import time
from pathlib import Path

import helpers
import numpy as np
import pytest

from pathrel.autodiff import ParamStore, backward
from pathrel import optim
from pathrel.model import ModelConfig
from pathrel.optim import AdaDeltaState, adadelta_step
from pathrel.synth import SynthConfig, generate
from pathrel.training import ExperimentConfig, NonFiniteError, train

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
    def test_l2_lambda_range(self):
        for lam in (-1e-5, math.nan, math.inf):
            with pytest.raises(ValueError, match="l2_lambda"):
                AdaDeltaState(ParamStore({"w": [1.0]}), l2_lambda=lam)


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

        def rule_state():  # (params, sq_grad, sq_update), starting where the store does
            params = {name: t.data.copy() for name, t in store.items()}
            return params, *({name: np.zeros_like(x) for name, x in params.items()} for _ in range(2))

        # the textbook rule, and its replica with the library's one square root
        (params, sq_grad, sq_update), replica = rule_state(), rule_state()
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
            helpers.dense_adadelta_step(replica[0], grads, *replica[1:], one_sqrt=True)
            assert not store.grad.any()
        span = store.spans["emb"]
        # the decays the table's untouched rows still owe
        owed = (RHO ** (state.steps - state.row_step["emb"]))[:, None]
        for got, want in ((table.data, params["emb"]),
                          (state.sq_grad[span].reshape(10, 3) * owed, sq_grad["emb"]),
                          (state.sq_update[span].reshape(10, 3) * owed, sq_update["emb"])):
            assert np.max(np.abs(got - want)) < 1e-12
        for name in ("a", "w"):
            span = store.spans[name]
            shape = params[name].shape
            got = (store[name].data, state.sq_grad[span].reshape(shape), state.sq_update[span].reshape(shape))
            # the one square root moves the textbook's rounding, and only its rounding
            for g, want in zip(got, (params[name], sq_grad[name], sq_update[name])):
                assert np.max(np.abs(g - want) / np.abs(want)) <= 1e-12
            # dense tensors take the rule operation for operation
            for g, want in zip(got, (rule[name] for rule in replica)):
                assert np.array_equal(g, want)


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
        """Inline, one block loop takes both dense ranges, one block each, and one more
        loop each table's rows."""
        rng = np.random.default_rng(3)
        store = ParamStore({name: rng.normal(size=(4, 2)) for name in ("a", "emb1", "emb2", "z")},
                           tables=("emb1", "emb2"))
        state = AdaDeltaState(store)
        calls, update = [], optim._update_blocks

        def counting(arrays, blocks, *rest):
            calls.append([hi - lo for lo, hi in blocks])
            update(arrays, blocks, *rest)

        monkeypatch.setattr(optim, "_update_blocks", counting)
        store.grad[...] = 1.0
        adadelta_step(store, state)
        assert calls == [[8, 8], [8], [8]]
        assert not store.grad.any()

    def test_dense_update_zeroes_each_gradient_block(self):
        n = 2 * optim.BLOCK + 5
        store = ParamStore({"w": np.zeros(n)})
        store.grad[...] = 1.0
        adadelta_step(store, AdaDeltaState(store))
        assert not store.grad.any() and np.all(store.data < 0)


class TestRefill:
    """A step with an L2 weight updates as a plain one, then leaves the next L2 gradient in place."""

    def stores(self, lam):
        """A plain state and one with l2_lambda lam, on equal stores with dense ranges
        around a table, given equal gradients on the dense ranges and some table rows."""
        rng = np.random.default_rng(4)
        params = {"a/w": rng.normal(size=2 * optim.BLOCK + 3), "b/emb": rng.normal(size=(6, 3)),
                  "c/w": rng.normal(size=(5, 7))}
        params["a/w"][:3] = [-0.0, 0.0, -3e-321]  # zeros of both signs, and a product that underflows
        grad = rng.normal(size=sum(np.size(a) for a in params.values()))
        grad[:3] = 0.0
        out = []
        for weight in (0.0, lam):
            store = ParamStore(params, tables=("b/emb",))
            state = AdaDeltaState(store, l2_lambda=weight)
            store.grad[...] = grad
            store["b/emb"].grad[[0, 2, 3, 5]] = 0.0
            out.append((store, state))
        return out

    def test_refill_equals_a_plain_step_then_the_l2_write(self):
        lam = 3e-4
        (plain, plain_state), (filled, filled_state) = self.stores(lam)
        for _ in range(2):
            adadelta_step(plain, plain_state)
            for span in plain.dense:  # the L2 gradient, by hand
                plain.grad[span] = 0.0 + 2.0 * lam * plain.data[span]
            adadelta_step(filled, filled_state)
            assert plain.data.tobytes() == filled.data.tobytes()
            assert plain.grad.tobytes() == filled.grad.tobytes()
            for a, b in ((plain_state.sq_grad, filled_state.sq_grad),
                         (plain_state.sq_update, filled_state.sq_update)):
                assert a.tobytes() == b.tobytes()
        assert not filled["b/emb"].grad.any()
        assert np.array_equal(filled.grad[:3], [0.0, 0.0, 0.0]) and not np.signbit(filled.grad[:3]).any()


def test_table_with_every_row_touched_updates_as_dense():
    """When every row of a table has a gradient on every step (as with l2_include_embeddings),
    the row-sparse update and the dense one agree bit for bit: the model may hold a
    penalized table as dense."""
    rng = np.random.default_rng(9)
    lam = 1e-3
    params = {"a": rng.normal(size=4), "emb": rng.normal(size=(7, 3)), "w": rng.normal(size=(3, 5))}
    sparse, dense = ParamStore(params, tables=("emb",)), ParamStore(params)
    states = AdaDeltaState(sparse, l2_lambda=lam), AdaDeltaState(dense, l2_lambda=lam)
    for _ in range(20):
        data = {name: rng.normal(size=np.shape(x)) for name, x in params.items()}
        table = sparse["emb"]
        table.grad[...] = 0.0 + 2.0 * lam * table.data  # the penalty's gradient, by hand
        for store in (sparse, dense):
            for name, g in data.items():
                store[name].grad[...] += g
        adadelta_step(sparse, states[0])
        adadelta_step(dense, states[1])
    assert (states[0].row_step["emb"] == 20).all()
    assert sparse.data.tobytes() == dense.data.tobytes()
    for attr in ("sq_grad", "sq_update"):
        assert getattr(states[0], attr).tobytes() == getattr(states[1], attr).tobytes()


def force_split(monkeypatch, on: bool) -> None:
    """Make adadelta_step share every dense update with its worker thread (on) or
    keep it on the caller's thread, whatever the machine's CPUs."""
    monkeypatch.setattr(optim, "SPLIT_MIN", 0 if on else math.inf)
    monkeypatch.setattr(optim, "_cpus", lambda: 2 if on else 1)


def block_threads(monkeypatch) -> list:
    """The thread of every call of the block loop, recorded as adadelta_step makes it."""
    threads, update = [], optim._update_blocks

    def recorded(*args):
        threads.append(threading.current_thread())
        update(*args)

    monkeypatch.setattr(optim, "_update_blocks", recorded)
    return threads


class TestSplit:
    """The worker thread's share of the dense blocks against the caller's thread alone."""

    LAYOUTS = {
        # name -> (shapes, tables); BLOCK is 8 here, so the dense ranges hold 5, 5 and 6 blocks
        "tables-at-the-ends": ({"a/emb": (6, 3), "m/w": (33,), "z/emb": (5, 3)}, ("a/emb", "z/emb")),
        "table-in-the-middle": ({"a/w": (3, 5), "b/emb": (7, 3), "c/w": (24,)}, ("b/emb",)),
        "no-tables": ({"a/w": (4, 10), "b/w": (7,)}, ()),
    }

    def run(self, monkeypatch, split, params, tables, lam):
        """The store and state after 20 updates of a copy of params; each step adds a
        drawn gradient to the dense ranges and to a few rows of each table."""
        force_split(monkeypatch, split)
        store = ParamStore(params, tables=tables)
        state = AdaDeltaState(store, l2_lambda=lam)
        rng = np.random.default_rng(8)
        threads = block_threads(monkeypatch)
        for _ in range(20):
            g = rng.normal(size=store.data.size)
            for span in store.dense:
                store.grad[span] += g[span]
            for name in tables:
                table = store[name]
                rows = rng.choice(len(table.data), size=2, replace=False)
                table.grad[rows] = rng.normal(size=(2, table.data.shape[1]))
            adadelta_step(store, state)
        assert (threading.main_thread() in threads) and (len(set(threads)) == 1 + split)
        return store, state

    def assert_identical(self, a, b):
        (store_a, state_a), (store_b, state_b) = a, b
        for x, y in ((store_a.data, store_b.data), (store_a.grad, store_b.grad),
                     (state_a.sq_grad, state_b.sq_grad), (state_a.sq_update, state_b.sq_update)):
            assert x.tobytes() == y.tobytes()
        assert state_a.row_step.keys() == state_b.row_step.keys()
        for name, rows in state_a.row_step.items():
            assert np.array_equal(rows, state_b.row_step[name])

    @pytest.mark.parametrize("lam", [0.0, 3e-4])
    @pytest.mark.parametrize("layout", LAYOUTS)
    def test_bit_identical_to_inline(self, monkeypatch, layout, lam):
        """Also with the interpreter switching threads every microsecond, so that the
        two threads' blocks interleave as finely as they can."""
        monkeypatch.setattr(optim, "BLOCK", 8)
        shapes, tables = self.LAYOUTS[layout]
        rng = np.random.default_rng(2)
        params = {name: rng.normal(size=shape) for name, shape in shapes.items()}
        inline = self.run(monkeypatch, False, params, tables, lam)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            split = self.run(monkeypatch, True, params, tables, lam)
        finally:
            sys.setswitchinterval(interval)
        self.assert_identical(inline, split)

    @pytest.mark.parametrize("lam", [0.0, 3e-4])
    def test_refill_signed_zeros_and_underflow(self, monkeypatch, lam):
        """TestRefill's stores, at the real BLOCK: zeros of both signs and an
        underflowing product leave the same bytes on either thread."""
        out = []
        for split in (False, True):
            force_split(monkeypatch, split)
            store, state = TestRefill().stores(lam)[1]
            assert len(state._blocks) > 2
            for _ in range(20):
                adadelta_step(store, state)
            assert not np.signbit(store.grad[:3]).any()
            out.append((store, state))
        self.assert_identical(*out)

    @pytest.mark.parametrize("split_min, cpus, split", [(33, 2, False), (32, 1, False), (32, 2, True)])
    def test_split_needs_split_min_elements_and_two_cpus(self, monkeypatch, split_min, cpus, split):
        monkeypatch.setattr(optim, "BLOCK", 8)
        monkeypatch.setattr(optim, "SPLIT_MIN", split_min)
        monkeypatch.setattr(optim, "_cpus", lambda: cpus)
        store = ParamStore({"a/w": np.ones(20), "b/emb": np.ones((2, 3)), "c/w": np.ones(12)},
                           tables=("b/emb",))
        threads = block_threads(monkeypatch)
        adadelta_step(store, AdaDeltaState(store))
        assert len(set(threads)) == 1 + split and threading.main_thread() in threads

    @pytest.mark.parametrize("failing", ["caller", "worker"])
    def test_error_in_either_half_reraises_after_the_worker(self, monkeypatch, failing):
        """An exception from either thread's blocks leaves adadelta_step, and only once
        the worker has finished writing."""
        force_split(monkeypatch, True)
        update, done = optim._update_blocks, []

        def failing_half(*args):
            on_worker = threading.current_thread() is not threading.main_thread()
            if on_worker:
                time.sleep(0.05)  # the caller's half ends first
            if on_worker == (failing == "worker"):
                raise RuntimeError(failing)
            update(*args)
            done.append(on_worker)

        monkeypatch.setattr(optim, "_update_blocks", failing_half)
        store = ParamStore({"w": np.ones(3 * optim.BLOCK)})
        with pytest.raises(RuntimeError, match=f"^{failing}$"):
            adadelta_step(store, AdaDeltaState(store))
        assert done == [failing == "caller"]

    def test_worker_sees_the_callers_error_state(self, monkeypatch):
        """numpy's error state is a context variable: the worker's blocks run in the
        caller's, so an overflow there warns (and under -W error raises) only if the
        caller asks for it."""
        force_split(monkeypatch, True)
        store = ParamStore({"w": np.full(2 * optim.BLOCK, 1e300)})
        state = AdaDeltaState(store)
        threads = block_threads(monkeypatch)
        with np.errstate(over="ignore", invalid="ignore"):
            store.grad[...] = 1e300
            adadelta_step(store, state)
        assert len(set(threads)) == 2
        store.grad[...] = 1e300
        with np.errstate(over="raise"), pytest.raises(FloatingPointError):
            adadelta_step(store, state)

    def test_train_overflow_on_the_worker_raises_non_finite(self, monkeypatch):
        """train() at l2_lambda 1e300 stops with NonFiniteError when the worker takes
        half of every dense update, as it does inline."""
        force_split(monkeypatch, True)
        threads = block_threads(monkeypatch)
        config = ExperimentConfig(model=ModelConfig(word_dim=4, rel_dim=3, conv_dim=5, l2_lambda=1e300),
                                  schema="synth-k2", epochs=1)
        with pytest.raises(NonFiniteError, match="epoch 1: optimizer state not finite"):
            train(config, train_instances=generate(SynthConfig(n=6, k_types=2, seed=1)))
        assert len(set(threads)) == 2


SRC = str(Path(optim.__file__).resolve().parents[1])


def run_python(script: str) -> subprocess.CompletedProcess:
    """script in a fresh interpreter that imports this checkout's pathrel; a hang fails."""
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([SRC, os.environ.get("PYTHONPATH", "")])}
    done = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                          env=env, timeout=120)
    assert done.returncode == 0, done.stderr
    return done


@pytest.mark.skipif(not hasattr(os, "fork"), reason="no fork on this platform")
def test_forked_child_makes_its_own_worker():
    """A child forked after the worker started inherits the executor but not its
    thread; its split steps still finish, on a worker of its own, with the same bytes."""
    run_python(textwrap.dedent("""
        import os
        import signal
        import numpy as np
        from pathrel import optim
        from pathrel.autodiff import ParamStore

        optim.SPLIT_MIN, optim._cpus = 0, lambda: 2

        def steps(n):
            store = ParamStore({"w": np.linspace(-1.0, 1.0, 3 * optim.BLOCK)})
            state = optim.AdaDeltaState(store, l2_lambda=1e-3)
            for _ in range(n):
                store.grad[...] += np.cos(store.data)
                optim.adadelta_step(store, state)
            return store.data.tobytes()

        want = steps(3)
        parent_worker = optim._worker
        pid = os.fork()
        if pid == 0:
            signal.alarm(60)  # a hung child ends, and its parent's wait fails the test
            ok = steps(3) == want and optim._worker is not parent_worker
            os._exit(0 if ok else 1)
        assert os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1]) == 0
        assert optim._worker is parent_worker and steps(1) != want
    """))


def test_import_and_a_small_train_start_no_thread():
    """The worker starts on the first split step: importing the package or the optimizer,
    and training a model whose dense ranges are below SPLIT_MIN, start no thread."""
    done = run_python(textwrap.dedent("""
        import threading
        import pathrel
        assert threading.active_count() == 1, "import pathrel"
        import pathrel.optim
        assert threading.active_count() == 1, "import pathrel.optim"
        from pathrel.model import ModelConfig
        from pathrel.synth import SynthConfig, generate
        from pathrel.training import ExperimentConfig, train
        result = train(ExperimentConfig(model=ModelConfig(word_dim=32, rel_dim=16, conv_dim=32),
                                        schema="synth-k2", epochs=1),
                       train_instances=generate(SynthConfig(n=8, k_types=2, seed=1)))
        assert result.model.store.data.size < pathrel.optim.SPLIT_MIN
        assert threading.active_count() == 1, "train"
        print("ok")
    """))
    assert done.stdout == "ok\n"
