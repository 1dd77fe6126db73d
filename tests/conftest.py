import numpy as np
import pytest
from hypothesis import settings

# Fixed example sequences: the suite gives the same result on every run.
settings.register_profile("legfol", derandomize=True, deadline=None)
settings.load_profile("legfol")


@pytest.fixture
def rng():
    return np.random.default_rng(20240824)
