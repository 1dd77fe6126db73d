import numpy as np
import pytest
from hypothesis import settings

# Fixed example sequences: the suite gives the same result on every run.
settings.register_profile("legfol", derandomize=True, deadline=None)
settings.load_profile("legfol")


@pytest.fixture
def rng():
    return np.random.default_rng(20240824)


@pytest.fixture
def svd_calls(monkeypatch):
    """np.linalg.svd, counted: the list gets the shape of each input."""
    calls = []
    svd = np.linalg.svd

    def counted(a, *args, **kwargs):
        calls.append(np.shape(a))
        return svd(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", counted)
    return calls
