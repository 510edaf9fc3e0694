import numpy as np
import pytest
from hypothesis import settings

# Tier-1 draws the same hypothesis examples on every run, so a tree passes or
# fails reproducibly; `pytest --hypothesis-profile=explore` draws fresh ones.
settings.register_profile("derandomized", derandomize=True)
settings.register_profile("explore", derandomize=False)
settings.load_profile("derandomized")


@pytest.fixture
def rng():
    return np.random.default_rng(1234)
