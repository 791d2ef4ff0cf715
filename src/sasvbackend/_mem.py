"""glibc allocator tuning for allocation-heavy training loops.

Each training step and scoring batch allocates hundreds of MB of
short-lived arrays (im2col buffers, activations, gradients); with default
thresholds glibc mmaps and munmaps them every time, paying a page fault
per touched page. Raising the mmap/trim thresholds keeps the blocks on the
heap for reuse. Measured with the tape freeing each rule as it replays and
the blocked Adam step, on ``perfbench`` ``cnn2d-train`` (six alternating
pairs, 2-vCPU box, OpenBLAS): with the tuning 46.8 train and 167.8 score
trials/s, without it 40.8 and 140.3, at the same peak RSS (1461 against
1465 MB).

``M_ARENA_MAX`` is set to 1, so the worker threads of scoring lanes
(``_lanes``) allocate from the main heap too and reuse its freed blocks,
instead of each growing an arena of its own that is never trimmed.
Without it, two-lane scoring raised the peak RSS of ``perfbench``
``cnn2d-train`` from 723 to 790 MB and of ``cnn1d-dev`` from 160 to
200 MB (one job each, seed 41, same score bytes).
"""

from __future__ import annotations

import ctypes

_M_TRIM_THRESHOLD = -1
_M_MMAP_THRESHOLD = -3
_M_ARENA_MAX = -8

_applied: bool | None = None


def tune_malloc() -> bool:
    """Raise glibc's mmap/trim thresholds and keep one heap arena
    (idempotent; no-op off glibc)."""
    global _applied
    if _applied is not None:
        return _applied
    try:
        libc = ctypes.CDLL("libc.so.6", use_errno=True)
        limit = 2**31 - 1
        _applied = (
            libc.mallopt(_M_MMAP_THRESHOLD, limit) == 1
            and libc.mallopt(_M_TRIM_THRESHOLD, limit) == 1
            and libc.mallopt(_M_ARENA_MAX, 1) == 1
        )
    except Exception:
        _applied = False
    return _applied
