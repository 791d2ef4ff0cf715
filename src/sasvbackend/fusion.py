"""Batch embedding fusion.

A trial carries three vectors: the mean enrollment speaker embedding, the
test speaker embedding and the test countermeasure embedding.
``fuse_batch`` gathers them for a batch of compiled trials
(``data.TrialRows``) from the store's matrices and fuses the whole batch
into one C-contiguous float64 array with a leading batch axis:

* ``concat``: flat concatenation, shape Bx(d+b+q) (DNN models).
* ``stack1d``: right zero-padding to D = max(d,b,q), stacked as three
  channels, shape Bx3xD (1D CNN models).
* ``circ2d``: the circulant matrix of each padded vector, shape Bx3xDxD
  (2D CNN models).
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from .data import EmbeddingStore, TrialRows

CONCAT = "concat"
STACK1D = "stack1d"
CIRC2D = "circ2d"

# Spatial axes of each mode's batch after its batch and channel axes: a
# concat row is read as (d+b+q) channels with none.
RANK = {CONCAT: 0, STACK1D: 1, CIRC2D: 2}
MODES = tuple(RANK)


@lru_cache(maxsize=None)
def _circulant_index(n: int) -> np.ndarray:
    """DxD table (j - i) mod D, read-only because it is shared.

    Taking a vector v through it gives v's circulant: row i is v rotated i
    places to the right, entry [i, j] = v[(j - i) mod D], so every row and
    column holds each element of v exactly once.
    """
    idx = (np.arange(n)[None, :] - np.arange(n)[:, None]) % n
    idx.setflags(write=False)
    return idx


def fuse_batch(store: EmbeddingStore, rows: TrialRows, mode: str) -> np.ndarray:
    """Fuse the compiled trials ``rows`` of ``store`` into one batch."""
    if mode not in MODES:
        raise ValueError(f"unknown fusion mode {mode!r}, expected one of {MODES}")
    if len(rows) == 0:
        raise ValueError("cannot fuse an empty batch")
    spk = store.matrix("spk")
    enroll = spk[rows.enroll]
    # a sum over padded slots; -0.0 is the exact additive identity, so the
    # pads change no bit whether a reduction starts from +0.0 or its first term
    enroll[np.arange(rows.enroll.shape[1]) >= rows.count[:, None]] = -0.0
    vectors = (
        enroll.sum(axis=1) / rows.count[:, None],
        spk[rows.test_spk],
        store.matrix("cm")[rows.test_cm],
    )
    if mode == CONCAT:
        return np.hstack(vectors)
    common = max(store.d_spk, store.d_cm)
    stacked = np.zeros((len(rows), 3, common))
    for channel, v in enumerate(vectors):
        stacked[:, channel, : v.shape[1]] = v
    if mode == STACK1D:
        return stacked
    return np.take(stacked, _circulant_index(common), axis=2)
