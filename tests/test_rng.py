import numpy as np
import pytest

from qchan import (
    CosineSumProcess,
    DomainError,
    IsotropicGaussianNoise,
    ResourceError,
    classical_field,
    dephasing,
    monte_carlo_coherence,
    monte_carlo_polarization,
)
from qchan._common import NS_PER_UNIT, WORK_BUDGET_S
from qchan._rng import (
    _CHUNK,
    _DRAW,
    monte_carlo_cost,
    monte_carlo_sums,
    realization_normals,
)


@pytest.mark.parametrize("seed", [0, 42, 2**64 - 1])
@pytest.mark.parametrize("count", [1, 3, 4, 5, 9])
@pytest.mark.parametrize("start", [0, 2**64 - 4])
def test_normals_bit_identical_to_numpy_philox(philox_normals, seed, count, start):
    stop = start + 4
    got = realization_normals(seed, start, stop, count)
    expected = np.array([philox_normals(seed, j, count) for j in range(start, stop)])
    assert got.shape == (4, count)
    assert got.tobytes() == expected.tobytes()


def test_realization_draws_independent_of_range():
    whole = realization_normals(42, 0, 50, 6)
    for j in (0, 1, 17, 49):
        assert np.array_equal(realization_normals(42, j, j + 1, 6)[0], whole[j])
    assert np.array_equal(realization_normals(42, 17, 33, 6), whole[17:33])


def test_sample_depends_only_on_seed_and_indices():
    a = realization_normals(42, 3, 4, 8)[0]
    b = realization_normals(42, 3, 4, 8)[0]
    assert np.array_equal(a, b)
    # sample i is unchanged when more samples are drawn afterwards
    longer = realization_normals(42, 3, 4, 20)[0]
    assert np.array_equal(longer[:8], a)
    assert not np.array_equal(realization_normals(42, 4, 5, 8)[0], a)
    assert not np.array_equal(realization_normals(43, 3, 4, 8)[0], a)


def test_normals_have_standard_moments():
    draws = realization_normals(0, 0, 200, 100)
    assert abs(draws.mean()) <= 0.02
    assert abs(draws.std() - 1.0) <= 0.02


def test_seed_validation():
    with pytest.raises(DomainError):
        realization_normals(-1, 0, 1, 1)
    with pytest.raises(DomainError):
        realization_normals(2**64, 0, 1, 1)


class Drew(Exception):
    pass


def no_draw(*args):
    raise Drew


def test_monte_carlo_cap_checked_before_any_draw():
    # the most Monte Carlo units the work budget allows
    budget = WORK_BUDGET_S * 1e9 / NS_PER_UNIT["monte_carlo"]
    for width, normals in ((1, 3), (400, 3), (201, 400), (5, 2)):
        at_budget = int(budget // monte_carlo_cost(1, width, normals))
        with pytest.raises(Drew):
            monte_carlo_sums(at_budget, width, normals, no_draw, None)
        with pytest.raises(ResourceError, match="above the budget"):
            monte_carlo_sums(at_budget + 1, width, normals, no_draw, None)


def test_monte_carlo_cap_counts_components(monkeypatch):
    # 200 cosine components on 201 points: 10^9 realizations x points, but
    # 3.0e10 units of monte_carlo_cost; at ~1e-8 s a unit that is 5 minutes
    # of work
    monkeypatch.setattr(dephasing, "realization_normals", no_draw)
    process = CosineSumProcess(tuple((1.0, 1.0 + 0.01 * i) for i in range(200)))
    grid = np.linspace(0.0, 10.0, 201)
    with pytest.raises(ResourceError):
        monte_carlo_coherence(process, 1.0, grid, 10**9 // 201, seed=1)


def test_draw_batches_bound_memory(monkeypatch):
    # fig1's run draws once; 200 components take one 1024-realization chunk
    # per draw, the least a chunk's sum can be built from
    sizes = []

    def recording(seed, start, stop, count):
        sizes.append(count * (stop - start))
        return realization_normals(seed, start, stop, count)

    for module in (classical_field, dephasing):
        monkeypatch.setattr(module, "realization_normals", recording)
    fig1 = np.linspace(0.0, 4.0, 400)
    monte_carlo_polarization(IsotropicGaussianNoise(1.0, 1.0), fig1, 10000, seed=5)
    assert sizes == [3 * 10000] and max(sizes) <= _DRAW
    sizes.clear()
    process = CosineSumProcess(tuple((1.0, 1.0 + 0.01 * i) for i in range(200)))
    monte_carlo_coherence(process, 1.0, np.linspace(0.0, 1.0, 5), 2500, seed=1)
    assert sizes == [400 * _CHUNK, 400 * _CHUNK, 400 * 452]
    assert max(sizes) <= max(_DRAW, 400 * _CHUNK)
