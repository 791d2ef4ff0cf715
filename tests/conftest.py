import numpy as np
import pytest

from sasvbackend._mem import tune_malloc

tune_malloc()


@pytest.fixture
def rng():
    return np.random.default_rng(12345)
