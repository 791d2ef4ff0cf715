"""Scoring lanes (``_lanes``), forced to two lanes so that the path runs on
a one-CPU machine too."""

import ctypes
import glob
import os
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


@pytest.fixture
def lanes(monkeypatch):
    """Set the lane count of the test; the default is two."""
    def force(n):
        monkeypatch.setattr(_lanes, "count", lambda: n)
    force(2)
    return force


@pytest.fixture(scope="module")
def toy():
    """21 eval trials over (16, 16, 12)-d embeddings."""
    store, protos = data.generate_synthetic(data.SynthConfig(
        train_speakers=6, dev_speakers=2, eval_speakers=4, utterances_per_speaker=3,
        d_spk=16, d_cm=12, train_trials_per_label=4, dev_trials_per_label=2,
        eval_trials_per_label=7, seed=3,
    ))
    return store, protos["eval"].trials


class TestScoreBytes:
    # 21 trials at batch 5: five batches, the last of one trial; at 11: two
    # (11 and 10).
    @pytest.mark.parametrize("name", list(models.PRESETS))
    def test_two_lanes_score_the_bytes_of_one(self, toy, lanes, monkeypatch, name):
        store, trials = toy
        model = models.build(name, (16, 16, 12), seed=1)
        # At the two small budgets most conv blocks run in item chunks, and
        # two lanes (half the budget each) cut them other than one lane.
        for budget in (T._COLS_BUDGET, 1 << 15, 1 << 18):
            monkeypatch.setattr(T, "_COLS_BUDGET", budget)
            for batch_size in (5, 11):
                lanes(1)
                one = training.score_trials(model, trials, store, batch_size)
                lanes(2)
                two = training.score_trials(model, trials, store, batch_size)
                assert two.tobytes() == one.tobytes(), (budget, batch_size)

    def test_a_lane_splits_the_im2col_budget(self, lanes, monkeypatch):
        """Each of two lanes builds im2col matrices of at most half the
        budget; one lane keeps the whole."""
        monkeypatch.setattr(T, "_COLS_BUDGET", 1000)
        for n, whole in ((2, False), (1, True)):
            lanes(n)
            seen = []
            _lanes.run(lambda i: seen.append(T._item_chunks(10, 100, 4)), range(2))
            assert len(seen) == 2 and seen[0] == seen[1]
            assert (seen[0] == [slice(0, 10)]) is whole
            assert max(s.stop - s.start for s in seen[0]) * 100 <= 1000 // n


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
