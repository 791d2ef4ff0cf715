"""Lanes: work items spread over the CPUs, OpenBLAS on one thread.

``run(fn, items)`` calls ``fn(item)`` for every item on one lane per CPU
in the affinity mask: the calling thread runs lane 0, and the run starts
one thread for each further lane and joins them all before it returns, so
no lane thread outlives its run. Lane ``j`` of ``n`` runs items ``j``,
``j + n``, ... in order, each whole on its thread. Two kinds of work use
it: whole scoring batches (``training.score_trials``), and the passes
between a training step's GEMMs, cut into blocks (the conv block's im2col,
col2im and epilogues, ``Adam.update``); those GEMMs themselves stay on
OpenBLAS's own threads. Starting and joining its thread took a two-lane
run of empty items 96-144 us back to back, against 20-40 us to hand the
lane to a thread kept between runs. But most runs of a training step
follow a two-thread GEMM, and there the same run took 204-227 us
(medians of 40, 2-vCPU box). A training step makes 2-3 runs of two or
more items on ``perfbench`` ``dnn-ensemble``, 26 on ``cnn1d-dev`` and 87
on ``cnn2d-train``, most of them one im2col or col2im per item chunk or
dW run of a conv block (``tensor._PIECE_BUDGET``): about 6% of an 87 ms
``cnn1d-dev`` step and 2% of a 1 s ``cnn2d-train`` one.

For the length of the run OpenBLAS uses one thread, set with
``openblas_set_num_threads_local`` (found through ctypes in numpy's bundled
OpenBLAS) and restored once every lane thread has been joined, also when
one failed to start. Without that call (another BLAS, an older OpenBLAS),
or with one CPU, there is one lane: the plain loop on the caller's thread,
which keeps OpenBLAS's count unless ``pin`` is set (scoring): then it too
runs with one thread, so an item's GEMMs give the bytes they give on a
lane. Despite its name, the call sets the count of the whole process in
OpenBLAS 0.3.31 (a thread started after it reads 1, and its GEMMs run at
one-thread speed), so ``run`` makes it once, on the caller, around all
lanes: lanes that each restored the count they found could leave the
process at one thread. BLAS calls from other threads of the process run
on one thread while a run lasts.

Park: after a GEMM on two threads, OpenBLAS's workers keep spinning for a
while and take the second core from the lanes. So right after setting one
thread, and before any lane starts, ``run`` stops those workers with
``blas_thread_shutdown_``; restoring the count starts them again.
Setting the count, parking and restoring took 75-93 us of a run right
after a two-thread GEMM, and 23-32 us back to back (same box).
It parks only where the caller is the one Python thread
(``threading.active_count() == 1``), so no other can be inside OpenBLAS:
a shutdown while another thread ran two-thread GEMMs gave one of them a
wrong result and then hung that thread. Nor does it park when the count
it found was 1. Without the symbol there is no park.

Block size: a lane holds the GIL between numpy calls, so the ufuncs of an
elementwise pass overlap only while each runs long enough. Two threads
each running a multiply and an add over n elements ran 0.78x as fast as
one at n = 8K, 1.40x at 32K and 1.70x at 128K (same box). Every blocked
pass walks blocks of ``BLOCK`` (64K) elements, on lanes or not: on the
``cnn1d-dev`` conv blocks the backward epilogue took 27.0-27.3 ms per
step at 64K, 26.8-27.9 at 128K and 30.8-31.9 at 32K, and ``Adam.update``
on 1M elements over two lanes 5.08 ms at 64K and at 32K, 5.87 at 128K.

A lane runs in its own copy of the caller's ``contextvars`` context, so
numpy's ``errstate`` holds there as in the caller, and it sets ``SHARE``,
the number of lanes, which splits the conv block's im2col budget between
them. The error ``run`` raises is the one the plain loop would raise, as
raised: the earliest failing item's. A lane stops before an item past
the earliest failure so far, and every earlier item still runs, so no
earlier error is missed; the items after it that other lanes had started
have run as well. A lane never starts lanes, and there ``run`` is the
plain loop: the run's lanes already take every CPU, and ``SHARE`` splits
the im2col budget (``tensor._cols_budget``) over one level of lanes.
"""

from __future__ import annotations

import contextlib
import contextvars
import ctypes
import glob
import os
import threading

import numpy as np

from ._mem import tune_malloc

# Lanes sharing the machine in this context: 1 outside a lane.
SHARE = contextvars.ContextVar("sasvbackend_lane_share", default=1)


def _find_blas():
    """``int openblas_set_num_threads_local(int)`` of numpy's bundled
    OpenBLAS, which sets the thread count and returns the old one, and
    ``int blas_thread_shutdown_(void)`` of the same library, which stops
    its worker threads (None where it is missing), or (None, None)."""
    libdir = os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs")
    for path in glob.glob(os.path.join(libdir, "*openblas*")):
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        set_threads = getattr(lib, "openblas_set_num_threads_local", None)
        if set_threads is not None:
            set_threads.restype = ctypes.c_int
            set_threads.argtypes = [ctypes.c_int]
            park = getattr(lib, "blas_thread_shutdown_", None)
            if park is not None:
                park.restype = ctypes.c_int
                park.argtypes = []
            return set_threads, park
    return None, None


_set_threads, _park = _find_blas()

# Elements per block of a blocked elementwise pass (see the module docstring).
BLOCK = 1 << 16


def count() -> int:
    """Lanes for a ``run``: one per CPU in the affinity mask, or one
    without ``openblas_set_num_threads_local``."""
    if _set_threads is None or not hasattr(os, "sched_getaffinity"):
        return 1
    return len(os.sched_getaffinity(0))


class _Run:
    """The items of one ``run``: lane ``j`` of ``lanes`` takes items ``j``,
    ``j + lanes``, ... in order, and stops at an item past the earliest
    failure so far."""

    def __init__(self, fn, items: list, lanes: int):
        self.fn, self.items, self.lanes = fn, items, lanes
        self.lock = threading.Lock()
        self.errors: dict[int, BaseException] = {}
        self.failed = len(items)  # index of the earliest failure so far

    def lane(self, first: int) -> None:
        SHARE.set(self.lanes)
        for i in range(first, len(self.items), self.lanes):
            if i > self.failed:
                return
            try:
                self.fn(self.items[i])
            except BaseException as exc:
                with self.lock:
                    self.errors[i] = exc
                    self.failed = min(self.failed, i)


@contextlib.contextmanager
def _one_blas_thread():
    """OpenBLAS on one thread for the body, its workers parked where no
    other thread can be inside it; the count found is restored after."""
    old = _set_threads(1) if _set_threads is not None else None
    try:
        # Only the caller exists: no other thread is in OpenBLAS.
        if (_park is not None and old is not None and old > 1
                and threading.active_count() == 1):
            _park()
        yield
    finally:
        if old is not None:
            _set_threads(old)


def run(fn, items, *, pin: bool = False) -> None:
    """Call ``fn(item)`` for each of ``items``, on ``count()`` lanes (one
    inside a lane); raise the error of the earliest item that failed. With
    ``pin`` a run on one lane, too, holds OpenBLAS at one thread."""
    items = list(items)
    lanes = min(count() if SHARE.get() == 1 else 1, len(items))
    if lanes <= 1:
        with _one_blas_thread() if pin else contextlib.nullcontext():
            for item in items:
                fn(item)
        return
    tune_malloc()  # one heap arena before any lane thread allocates
    work = _Run(fn, items, lanes)
    with _one_blas_thread():
        threads = []
        try:
            for first in range(1, lanes):
                thread = threading.Thread(target=contextvars.copy_context().run,
                                          args=(work.lane, first),
                                          name=f"sasvbackend-lane-{first}")
                thread.start()
                threads.append(thread)
            contextvars.copy_context().run(work.lane, 0)
        finally:
            for thread in threads:
                thread.join()
    if work.errors:
        raise work.errors[work.failed]
