import numpy as np
import pytest
from scipy.special import ndtri

from qchan import BlochVector, QubitState, state_from_bloch


@pytest.fixture
def rng():
    return np.random.default_rng(20240811)


@pytest.fixture
def random_state(rng):
    """Factory for random (generally mixed) qubit states."""

    def make() -> QubitState:
        direction = rng.normal(size=3)
        direction /= np.linalg.norm(direction)
        radius = rng.uniform(0.0, 1.0) ** (1.0 / 3.0)
        return state_from_bloch(BlochVector.from_array(radius * direction))

    return make


@pytest.fixture
def philox_normals():
    """Reference draws: realization j of stream ``seed`` through numpy's own
    Philox, one generator per realization."""

    def draw(seed, j, count):
        raw = np.random.Philox(key=[np.uint64(seed), np.uint64(j)]).random_raw(count)
        return ndtri((np.right_shift(raw, np.uint64(11)).astype(np.float64) + 0.5) * 2.0**-53)

    return draw
