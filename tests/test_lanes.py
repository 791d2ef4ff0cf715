"""Lanes (``_lanes``) for scoring batches and for the passes of a training
step, forced to two lanes (the ``lanes`` fixture) so that the path runs on
a one-CPU machine too."""

import ctypes
import glob
import os
import subprocess
import sys
import threading
import time

import numpy as np
import pytest

from sasvbackend import _lanes, data, models, training
from sasvbackend import tensor as T

try:
    from numpy._core._exceptions import _ArrayMemoryError
except ImportError:  # numpy < 2
    from numpy.core._exceptions import _ArrayMemoryError


def _blas_get_threads():
    """numpy's bundled OpenBLAS thread-count getter, or None."""
    libdir = os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs")
    for path in glob.glob(os.path.join(libdir, "*openblas*")):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                fn.argtypes = []
                return fn
    return None


BLAS_THREADS = _blas_get_threads()
needs_openblas = pytest.mark.skipif(
    BLAS_THREADS is None or _lanes._set_threads is None,
    reason="needs numpy's OpenBLAS with openblas_set_num_threads_local",
)


@pytest.fixture(scope="module")
def toy():
    """21 eval trials over (16, 16, 12)-d embeddings."""
    store, protos = data.generate_synthetic(data.SynthConfig(
        train_speakers=6, dev_speakers=2, eval_speakers=4, utterances_per_speaker=3,
        d_spk=16, d_cm=12, train_trials_per_label=4, dev_trials_per_label=2,
        eval_trials_per_label=7, seed=3,
    ))
    return store, protos["eval"].trials


@pytest.fixture
def traffic(monkeypatch):
    """What the conv blocks and the ops around them were given in the test.
    ``pieces``: (function, lanes sharing the budget, piece count) of every
    call of ``tensor._item_chunks`` and ``tensor._pow2_chunks``.
    ``recipe_inputs``: each ``matmul`` or ``leaky_relu`` call with an input
    that has a recipe. ``whole``: (calling function, its ``shape``) of
    every call that makes a whole ``_Recipe``."""
    seen = {"pieces": [], "recipe_inputs": [], "whole": []}

    def pieces(fn):
        def spy(*args):
            out = fn(*args)
            seen["pieces"].append((fn.__name__, _lanes.SHARE.get(), len(out)))
            return out
        return spy

    def reads(fn):
        def spy(*inputs):
            if any(t.recipe is not None for t in inputs):
                seen["recipe_inputs"].append(fn.__name__)
            return fn(*inputs)
        return spy

    call = T._Recipe.__call__

    def whole(self, blk=None):
        if blk is None:
            caller = sys._getframe(1)
            seen["whole"].append((caller.f_code.co_name, caller.f_locals.get("shape")))
        return call(self, blk)

    for name in ("_item_chunks", "_pow2_chunks"):
        monkeypatch.setattr(T, name, pieces(getattr(T, name)))
    for name in ("matmul", "leaky_relu"):
        monkeypatch.setattr(T, name, reads(getattr(T, name)))
    monkeypatch.setattr(T._Recipe, "__call__", whole)
    return seen


def splits(traffic) -> bool:
    """Whether a conv block of the test was cut into more than one piece."""
    return any(count > 1 for _, _, count in traffic["pieces"])


def is_cnn(name) -> bool:
    return bool(models.PRESETS[name].conv_channels)


@pytest.fixture
def two_blas_threads():
    """OpenBLAS on two threads for the test, where the count can be set."""
    old = _lanes._set_threads(2) if _lanes._set_threads is not None else None
    yield
    if old is not None:
        _lanes._set_threads(old)


class TestScoreBytes:
    # 21 trials at batch 5: five batches, the last of one trial; at 11: two
    # (11 and 10).
    @pytest.mark.parametrize("name", list(models.PRESETS))
    def test_two_lanes_score_the_bytes_of_one(self, toy, lanes, traffic, monkeypatch, name):
        store, trials = toy
        model = models.build(name, (16, 16, 12), seed=1)
        # At the two small budgets most conv blocks run in item chunks, and
        # two lanes (half the budget each) cut them other than one lane.
        default = T._PIECE_BUDGET
        for budget in (default, 1 << 15, 1 << 18):
            monkeypatch.setattr(T, "_PIECE_BUDGET", budget)
            traffic["pieces"].clear()
            for batch_size in (5, 11):
                lanes(1)
                one = training.score_trials(model, trials, store, batch_size)
                lanes(2)
                two = training.score_trials(model, trials, store, batch_size)
                assert two.tobytes() == one.tobytes(), (budget, batch_size)
            if budget != default:
                assert splits(traffic) == is_cnn(name), budget

    def test_a_lane_splits_the_im2col_budget(self, lanes, monkeypatch):
        """Each of two lanes builds im2col matrices of at most half the
        budget; one lane keeps the whole."""
        monkeypatch.setattr(T, "_PIECE_BUDGET", 1000)
        for n, whole in ((2, False), (1, True)):
            lanes(n)
            seen = []
            _lanes.run(lambda i: seen.append(T._item_chunks(10, 100, 4)), range(2))
            assert len(seen) == 2 and seen[0] == seen[1]
            assert (seen[0] == [slice(0, 10)]) is whole
            assert max(s.stop - s.start for s in seen[0]) * 100 <= 1000 // n

    # Shapes whose products OpenBLAS 0.3.31 computes to other bytes on two
    # threads than on one.
    @pytest.mark.parametrize("name, dims, batch", [("Extend512_DNN", (133, 133, 134), 400),
                                                   ("Extend1024_DNN", (150, 150, 100), 250)])
    def test_a_batch_scores_the_same_alone_and_among_others(self, lanes, two_blas_threads,
                                                            name, dims, batch):
        """A lone batch, and every batch of a one-lane run, runs its GEMMs on
        one OpenBLAS thread as a lane does."""
        store, protocols = data.generate_synthetic(data.SynthConfig(
            d_spk=dims[0], d_cm=dims[2], eval_trials_per_label=-(-2 * batch // 3)))
        trials = protocols["eval"].trials[:2 * batch]
        model = models.build(name, dims, seed=1)
        want = training.score_trials(model, trials, store, batch)  # two batches, two lanes
        for n in (1, 2):
            lanes(n)
            for part in (slice(None), slice(0, batch), slice(batch, None)):
                got = training.score_trials(model, trials[part], store, batch)
                assert got.tobytes() == want[part].tobytes(), (n, part)


@needs_openblas
class TestBlasThreads:
    @pytest.mark.parametrize("fails", [False, True])
    def test_caller_count_restored(self, lanes, fails):
        old = _lanes._set_threads(2)
        try:
            counts = []

            def item(i):
                counts.append(BLAS_THREADS())
                if fails and i == 1:
                    raise ValueError("item 1")

            if fails:
                with pytest.raises(ValueError, match="item 1"):
                    _lanes.run(item, range(4))
            else:
                _lanes.run(item, range(4))
            assert BLAS_THREADS() == 2
            assert counts and set(counts) == {1}
        finally:
            _lanes._set_threads(old)

    @needs_openblas
    @pytest.mark.parametrize("name, dims", [("Extend512_DNN", (192, 192, 160)),
                                            ("CNN1D_SE", (64, 64, 48)),
                                            ("CNN2D_SE", (16, 16, 12))])
    def test_one_and_two_threads_train_the_same_bytes(self, name, dims):
        """A one-epoch fit of three steps at batch 30, its GEMMs on one
        OpenBLAS thread and on two: parameter and running-statistic bytes
        equal. Ensemble members trained in one-thread worker processes
        rely on it, so a BLAS or shape where they differ fails here."""
        store, protos = data.generate_synthetic(data.SynthConfig(
            d_spk=dims[0], d_cm=dims[2], train_trials_per_label=30, dev_trials_per_label=1,
            eval_trials_per_label=1, seed=4))
        cfg = training.TrainConfig(batch_size=30, epochs=1, seed=1)
        runs = []
        for threads in (1, 2):
            old = _lanes._set_threads(threads)
            try:
                if BLAS_THREADS() != threads:
                    pytest.skip(f"OpenBLAS cannot run {threads} threads here")
                model = models.build(name, dims, seed=1)
                training.fit(model, protos["train"].trials, cfg, store)
            finally:
                _lanes._set_threads(old)
            runs.append([a.tobytes() for a in model.state_arrays().values()])
        assert runs[1] == runs[0]


@pytest.mark.usefixtures("two_blas_threads")
class TestForkJoin:
    @pytest.mark.parametrize("fails", [False, True])
    def test_no_lane_thread_outlives_its_run(self, lanes, fails):
        before = threading.active_count()

        def item(i):
            if fails and i == 3:
                raise ValueError("item 3")

        if fails:
            with pytest.raises(ValueError, match="item 3"):
                _lanes.run(item, range(4))
        else:
            _lanes.run(item, range(4))
        assert threading.active_count() == before

    def test_a_lane_that_fails_to_start_is_raised_after_the_started_lane_ends(
            self, lanes, monkeypatch):
        """With three lanes the second lane thread cannot start: the run
        raises that error once the first has ended, and only then restores
        OpenBLAS's count."""
        lanes(3)
        started, start = [], threading.Thread.start

        def start_one(thread):
            if started:
                raise RuntimeError("can't start new thread")
            start(thread)
            started.append(thread)

        monkeypatch.setattr(threading.Thread, "start", start_one)
        ran, counts = [], []

        def item(i):
            time.sleep(0.05)
            counts.append(BLAS_THREADS() if BLAS_THREADS is not None else None)
            ran.append(i)

        with pytest.raises(RuntimeError, match="can't start new thread"):
            _lanes.run(item, range(6))
        assert len(started) == 1 and not started[0].is_alive()
        assert ran == [1, 4]  # the started lane's items, run to the end
        if BLAS_THREADS is not None and _lanes._set_threads is not None:
            assert counts == [1, 1] and BLAS_THREADS() == 2


@pytest.fixture
def parks(monkeypatch):
    """Every park of the test, in order with what the items record."""
    events = []
    real = _lanes._park

    def park():
        events.append("park")
        return real()

    monkeypatch.setattr(_lanes, "_park", park)
    return events


@needs_openblas
@pytest.mark.skipif(_lanes._park is None, reason="needs blas_thread_shutdown_")
@pytest.mark.usefixtures("two_blas_threads")
class TestPark:
    def test_parks_before_the_first_lane_starts(self, lanes, parks):
        _lanes.run(parks.append, range(4))
        assert parks[0] == "park" and sorted(parks[1:]) == [0, 1, 2, 3]
        assert BLAS_THREADS() == 2
        ones = np.ones((300, 300))
        assert np.array_equal(ones @ ones, np.full((300, 300), 300.0))

    def test_one_lane_does_not_park(self, lanes, parks):
        lanes(1)
        _lanes.run(parks.append, range(4))
        assert parks == [0, 1, 2, 3]

    def test_a_lane_does_not_park(self, lanes, parks):
        _lanes.run(lambda i: _lanes.run(parks.append, [i]), range(2))
        assert parks.count("park") == 1

    def test_a_count_of_one_is_not_parked(self, lanes, parks):
        _lanes._set_threads(1)
        _lanes.run(parks.append, range(4))
        assert "park" not in parks

    def test_another_thread_stops_the_park(self, lanes, parks):
        """Another thread could be inside a two-thread GEMM."""
        release = threading.Event()
        other = threading.Thread(target=release.wait)
        other.start()
        try:
            _lanes.run(parks.append, range(4))
        finally:
            release.set()
            other.join(timeout=10)
        assert not other.is_alive() and "park" not in parks


@pytest.fixture(scope="module")
def toy_train():
    """12 training and 12 dev trials over (16, 16, 12)-d embeddings."""
    return data.generate_synthetic(data.SynthConfig(
        train_speakers=6, dev_speakers=2, eval_speakers=4, utterances_per_speaker=3,
        d_spk=16, d_cm=12, train_trials_per_label=4, dev_trials_per_label=4,
        eval_trials_per_label=7, seed=3,
    ))


@pytest.fixture
def worker_items(monkeypatch):
    """The first item of every worker lane the test ran."""
    firsts = []
    lane = _lanes._Run.lane

    def recorded(self, first):
        if first:
            firsts.append(first)
        return lane(self, first)

    monkeypatch.setattr(_lanes._Run, "lane", recorded)
    return firsts


class TestTrainingStep:
    CFG = training.TrainConfig(batch_size=6, epochs=2, seed=1)

    # Two epochs of two steps, a dev check after each and the best epoch
    # restored; at the small budget the conv blocks run in chunks. Every
    # preset's traffic is pinned too: dW runs only outside the scoring lanes,
    # no matmul or leaky_relu input has a recipe, and only CNN1D_PA makes a
    # whole recipe, for its feature gate's gradient (one value per feature).
    @pytest.mark.parametrize("name", list(models.PRESETS))
    def test_two_lanes_train_the_bytes_of_one(self, toy_train, lanes, worker_items, traffic,
                                              monkeypatch, tmp_path, name):
        store, protos = toy_train
        default = T._PIECE_BUDGET
        for budget in (default, 1 << 15):
            monkeypatch.setattr(T, "_PIECE_BUDGET", budget)
            traffic["pieces"].clear()
            runs = []
            for n in (1, 2):
                lanes(n)
                model = models.build(name, (16, 16, 12), seed=1)
                result = training.fit(model, protos["train"].trials, self.CFG, store,
                                      dev_trials=protos["dev"].trials)
                path = tmp_path / f"{n}.ckpt"
                models.save_checkpoint(model, str(path))
                runs.append((path.read_bytes(), result))
            assert runs[1] == runs[0], budget
            if budget != default:
                assert splits(traffic) == is_cnn(name)
            assert all(share == 1 for fn, share, _ in traffic["pieces"] if fn == "_pow2_chunks")
        assert worker_items
        assert traffic["recipe_inputs"] == []
        whole = traffic["whole"]
        assert all(caller == "_product_grad" and shape[1] == 1 for caller, shape in whole)
        assert bool(whole) == (name == "CNN1D_PA")

    @pytest.mark.parametrize("k, n, row_block", [(300, 64, 8192), (77, 130, 1 << 20),
                                                 (600, 10, 5000)])
    def test_adam_two_lanes_update_the_bytes_of_one(self, rng, lanes, worker_items,
                                                    k, n, row_block):
        """A linear layer's weight goes to Adam in row blocks of about
        ``row_block`` elements (``_weight_grad``), its bias whole."""
        x, proj = rng.uniform(-1, 1, (6, k)), rng.uniform(-1, 1, (6, n))
        w0, b0 = rng.uniform(-1, 1, (k, n)), rng.uniform(-1, 1, n)
        params = []
        for lane_count in (1, 2):
            lanes(lane_count)
            w, b = (T.Tensor(v.copy(), requires_grad=True) for v in (w0, b0))
            adam = training.Adam([("w", w), ("b", b)])
            for lr in (1e-2, 5e-3, 2e-3):
                tape = T.Tape()
                tape.ROW_BLOCK = row_block
                with T.recording(tape):
                    loss = T.sum_all(T.mul(T.linear(T.Tensor(x), w, b), T.Tensor(proj)))
                adam.step(lr, 1e-3, tape, loss)
            params.append((w.data.tobytes(), b.data.tobytes()))
        assert params[1] == params[0]
        assert worker_items

    def test_overflow_on_a_worker_lane_ends_fit_with_a_runtime_error(self, toy_train, lanes,
                                                                    worker_items, monkeypatch):
        store, protos = toy_train
        grad = T._leaky_relu_grad

        def overflows_off_the_caller(g, nonneg):
            if threading.current_thread() is not threading.main_thread():
                np.float64(1e308) * 10.0
            return grad(g, nonneg)

        monkeypatch.setattr(T, "_leaky_relu_grad", overflows_off_the_caller)
        model = models.build("CNN1D", (16, 16, 12), seed=1)
        with pytest.raises(RuntimeError, match=r"^floating-point overflow .* at epoch 1, step 0$"):
            training.fit(model, protos["train"].trials, self.CFG, store)
        assert worker_items

    @needs_openblas
    def test_gemms_of_another_thread_stay_exact_beside_fit(self):
        """A park while another thread ran a two-thread GEMM gave that GEMM a
        wrong result and hung the thread; with that thread alive, fit's
        lanes must not park. A fresh interpreter runs it, so that a hang
        ends in the timeout."""
        root = os.path.dirname(os.path.dirname(_lanes.__file__))
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            [root] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]))
        child = subprocess.run([sys.executable, "-c", GEMMS_BESIDE_FIT], env=env, text=True,
                               capture_output=True, timeout=60)
        assert child.returncode == 0, child.stderr
        done, wrong, parks = map(int, child.stdout.split())
        assert done and not wrong and not parks


# Two lanes over 4096-element blocks, a thread that loops 400 x 400 GEMMs
# and one CNN1D_SE fit beside it; prints the GEMMs done, those with a
# result of neither one nor two BLAS threads, and the parks.
GEMMS_BESIDE_FIT = """
import threading
import numpy as np
from sasvbackend import _lanes, data, models, training

_lanes.count = lambda: 2
_lanes.BLOCK = 1 << 12
parks, park = [], _lanes._park
_lanes._park = lambda: parks.append(1) or park()
store, protos = data.generate_synthetic(data.SynthConfig(
    train_speakers=6, dev_speakers=2, eval_speakers=4, utterances_per_speaker=3,
    d_spk=16, d_cm=12, train_trials_per_label=4, dev_trials_per_label=4,
    eval_trials_per_label=7, seed=3))
a = np.random.default_rng(0).uniform(-1, 1, (400, 400))
_lanes._set_threads(1)
want = {(a @ a).tobytes()}
_lanes._set_threads(2)
want.add((a @ a).tobytes())
stop, wrong, done = threading.Event(), [], []

def gemms():
    while not stop.is_set():
        if (a @ a).tobytes() not in want:
            wrong.append(len(done))
        done.append(1)

other = threading.Thread(target=gemms)
other.start()
try:
    training.fit(models.build("CNN1D_SE", (16, 16, 12), seed=1), protos["train"].trials,
                 training.TrainConfig(batch_size=6, epochs=2, seed=1), store,
                 dev_trials=protos["dev"].trials)
finally:
    stop.set()
    other.join()
print(len(done), len(wrong), len(parks))
"""


class TestErrors:
    @pytest.mark.parametrize("error", [
        T.DimensionError("batch of another rank"),
        _ArrayMemoryError((128, 9, 256, 64, 64), np.dtype(np.float64)),
    ], ids=["dimension", "memory"])
    def test_worker_lane_error_reaches_the_caller_unchanged(self, toy, lanes, monkeypatch,
                                                            error):
        store, trials = toy
        model = models.build("CNN1D", (16, 16, 12), seed=1)
        forward = model.forward

        def fails_off_the_caller(batch, training=False):
            if threading.current_thread() is not threading.main_thread():
                raise error
            return forward(batch, training)

        monkeypatch.setattr(model, "forward", fails_off_the_caller)
        with pytest.raises(type(error)) as info:
            training.score_trials(model, trials, store, batch_size=4)
        assert info.value is error
        if isinstance(error, MemoryError):
            assert info.value.shape == (128, 9, 256, 64, 64)

    @pytest.mark.parametrize("failing, earliest", [
        ({3, 4, 5}, 3),  # earliest on the worker lane, which is slower
        ({2, 5, 7}, 2),  # earliest on the caller's lane
        ({6, 1}, 1),
    ])
    def test_earliest_failing_item_wins(self, lanes, failing, earliest):
        ran = []

        def item(i):
            if threading.current_thread() is not threading.main_thread():
                time.sleep(0.02)  # the caller's lane runs ahead
            ran.append(i)
            if i in failing:
                raise ValueError(f"item {i}")

        with pytest.raises(ValueError) as info:
            _lanes.run(item, range(10))
        assert str(info.value) == f"item {earliest}"
        assert set(range(earliest)) <= set(ran)

    def test_lanes_stop_after_a_failure(self, lanes):
        ran = []

        def item(i):
            ran.append(i)
            if i == 0:
                raise ValueError("item 0")
            time.sleep(0.02)

        with pytest.raises(ValueError, match="item 0"):
            _lanes.run(item, range(40))
        assert len(ran) < 10

    def test_errstate_holds_on_a_worker_lane(self, lanes):
        def item(i):
            if threading.current_thread() is not threading.main_thread():
                np.float64(1e308) * 10.0

        with np.errstate(over="raise"):
            with pytest.raises(FloatingPointError):
                _lanes.run(item, range(2))
        with np.errstate(over="ignore"):
            _lanes.run(item, range(2))

    def test_a_lane_starts_no_lanes(self, lanes):
        threads = {}

        def outer(i):
            _lanes.run(lambda j: threads.setdefault(i, set()).add(threading.current_thread()),
                       range(3))

        _lanes.run(outer, range(2))
        assert [len(threads[i]) for i in range(2)] == [1, 1]
        assert threads[0] != threads[1]


def test_one_lane_is_the_plain_loop(lanes):
    lanes(1)
    threads = set()
    _lanes.run(lambda i: threads.add(threading.current_thread()), range(5))
    assert threads == {threading.current_thread()}
