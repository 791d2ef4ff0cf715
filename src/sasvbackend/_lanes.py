"""Lanes: work items spread over the CPUs, OpenBLAS on one thread.

``run(fn, items)`` calls ``fn(item)`` for every item on one lane per CPU
in the affinity mask: the calling thread plus one worker thread per extra
CPU, started once and kept. Lane ``j`` of ``n`` runs items ``j``,
``j + n``, ... in order, each whole on its thread. Two kinds of work use
it: whole scoring batches (``training.score_trials``), and the passes
between a training step's GEMMs, cut into blocks (the conv block's im2col,
col2im and epilogues, ``Adam.update``); those GEMMs themselves stay on
OpenBLAS's own threads.

For the length of the run OpenBLAS uses one thread, set with
``openblas_set_num_threads_local`` (found through ctypes in numpy's bundled
OpenBLAS) and restored once the last lane has ended. Without that call
(another BLAS, an older OpenBLAS), or with one CPU, there is one lane: the
plain loop on the caller's thread, which keeps OpenBLAS's count unless
``pin`` is set (scoring): then it too runs with one thread, so an item's
GEMMs give the bytes they give on a lane. Despite its name, the call sets
the count of the whole process in OpenBLAS 0.3.31 (a thread started after
it reads 1, and its GEMMs run at one-thread speed), so ``run`` makes it
once, on the caller, around all lanes: lanes that each restored the count
they found could leave the process at one thread. BLAS calls from other
threads of the process run on one thread while a run lasts.

Park: after a GEMM on two threads, OpenBLAS's workers keep spinning for a
while and take the second core from the lanes. So right after setting one
thread, and before any lane starts, ``run`` stops those workers with
``blas_thread_shutdown_``; restoring the count starts them again. On a
2-vCPU box setting the count and parking took 32 us, the restore 29 us.
It parks only where no thread but the caller and the idle lane workers
exists, so none can be inside OpenBLAS: a shutdown while another thread
ran two-thread GEMMs gave one of them a wrong result and then hung that
thread. Nor does it park when the count it found was 1. Without the
symbol there is no park.

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
have run as well. A lane never starts lanes: a worker waiting for lanes
of its own would wait for itself, so there ``run`` is the plain loop.
"""

from __future__ import annotations

import contextlib
import contextvars
import ctypes
import glob
import os
import queue
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


def width() -> int:
    """Lanes a ``run`` started here spreads its items over: ``count()``
    outside a lane, 1 inside one."""
    return count() if SHARE.get() == 1 else 1


_tasks: queue.SimpleQueue = queue.SimpleQueue()
_workers: list[threading.Thread] = []
_grow_lock = threading.Lock()


def _serve() -> None:
    while True:
        _tasks.get()()


def _grow(n: int) -> None:
    """Start worker threads until there are ``n``."""
    with _grow_lock:
        while len(_workers) < n:
            worker = threading.Thread(target=_serve, daemon=True,
                                      name=f"sasvbackend-lane-{len(_workers) + 1}")
            worker.start()
            _workers.append(worker)


def _forget_workers() -> None:
    """A forked child has none of its parent's threads."""
    global _tasks
    _tasks = queue.SimpleQueue()
    _workers.clear()


if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_forget_workers)


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
        # Only the caller and the idle workers exist: no thread is in OpenBLAS.
        if (_park is not None and old is not None and old > 1
                and threading.active_count() == 1 + len(_workers)):
            _park()
        yield
    finally:
        if old is not None:
            _set_threads(old)


def run(fn, items, *, pin: bool = False) -> None:
    """Call ``fn(item)`` for each of ``items``, on ``width()`` lanes; raise
    the error of the earliest item that failed. With ``pin`` a run on one
    lane, too, holds OpenBLAS at one thread."""
    items = list(items)
    lanes = min(width(), len(items))
    if lanes <= 1:
        with _one_blas_thread() if pin else contextlib.nullcontext():
            for item in items:
                fn(item)
        return
    tune_malloc()  # one heap arena before any worker allocates
    _grow(lanes - 1)
    work = _Run(fn, items, lanes)
    done = [threading.Event() for _ in range(1, lanes)]
    with _one_blas_thread():
        for first, event in enumerate(done, start=1):
            ctx = contextvars.copy_context()

            def task(ctx=ctx, first=first, event=event):
                try:
                    ctx.run(work.lane, first)
                finally:
                    event.set()

            _tasks.put(task)
        contextvars.copy_context().run(work.lane, 0)
        for event in done:
            event.wait()
    if work.errors:
        raise work.errors[work.failed]
