import subprocess

import numpy as np
import pytest

from sasvbackend import _lanes, data
from sasvbackend._mem import tune_malloc

tune_malloc()


@pytest.fixture
def rng():
    return np.random.default_rng(12345)


@pytest.fixture
def spawned(monkeypatch):
    """Every child process that ``data.load_embeddings`` starts in the test,
    with ``_MIN_PART_BYTES`` at 1 so that even a toy file splits; each child
    must have been waited for by the end of the test."""
    procs = []

    class Recorded(subprocess.Popen):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            procs.append(self)

    monkeypatch.setattr(data.subprocess, "Popen", Recorded)
    monkeypatch.setattr(data, "_MIN_PART_BYTES", 1)
    yield procs
    assert all(p.returncode is not None for p in procs)


@pytest.fixture
def lanes(monkeypatch):
    """Set the lane count of the test, two by default, so that the lanes
    run on a one-CPU machine too. Every blocked pass walks blocks of 4096
    elements, so that toy arrays spread over the lanes as well."""
    def force(n):
        monkeypatch.setattr(_lanes, "count", lambda: n)
    monkeypatch.setattr(_lanes, "BLOCK", 1 << 12)
    force(2)
    return force
