import numpy as np
import pytest

from qchan import (
    CosineSumProcess,
    DomainError,
    IsotropicGaussianNoise,
    ResourceError,
    _rng,
    monte_carlo_coherence,
    monte_carlo_polarization,
)
from qchan._common import NS_PER_UNIT, WORK_BUDGET_S
from qchan._rng import _CHUNK, monte_carlo_cost, monte_carlo_sums
from qchan.cli import main


@pytest.mark.parametrize("seed", [0, 42, 2**64 - 1])
@pytest.mark.parametrize("count", [1, 3, 4, 5, 9])
@pytest.mark.parametrize("start", [0, 2**64 - 4])
def test_normals_bit_identical_to_numpy_philox(chunk_normals, seed, count, start):
    # chunks [start, start + 4): the chunk is the key's second word, up to 2^64 - 1
    for chunk in range(start, start + 4):
        got = _rng.chunk_normals(seed, chunk, 3, count)
        assert got.shape == (3, count)
        assert got.tobytes() == chunk_normals(seed, chunk, 3, count).tobytes()


def _drawn_rows(seed, n, normals):
    """The rows of draws that monte_carlo_sums hands to its samples, in order."""
    seen = []

    def samples(rows):
        seen.append(rows.copy())
        return (np.zeros((len(rows), 1)),)

    monte_carlo_sums(seed, n, 1, normals, samples)
    return np.concatenate(seen)


@pytest.mark.parametrize("seed", [0, 42, 2**64 - 1])
def test_chunk_draws_are_numpys_philox_normals(chunk_normals, seed):
    n = 2 * _CHUNK + 5
    expected = np.concatenate([chunk_normals(seed, 0, _CHUNK, 3), chunk_normals(seed, 1, _CHUNK, 3),
                               chunk_normals(seed, 2, 5, 3)])
    assert _drawn_rows(seed, n, 3).tobytes() == expected.tobytes()


def test_realization_draws_independent_of_range(monkeypatch):
    # a run's first n rows do not change when n grows, nor with the block size
    whole = _drawn_rows(42, 3000, 6)
    for n in (2, 5, _CHUNK, _CHUNK + 1, 2100):
        assert np.array_equal(_drawn_rows(42, n, 6), whole[:n])
    monkeypatch.setattr(_rng, "_BLOCK", 1)
    assert np.array_equal(_drawn_rows(42, 2100, 6), whole[:2100])


def test_sample_depends_only_on_seed_and_indices():
    a = _rng.chunk_normals(42, 3, 4, 8)
    assert np.array_equal(_rng.chunk_normals(42, 3, 4, 8), a)
    # rows are filled in order: more rows leave the first ones as they were
    assert np.array_equal(_rng.chunk_normals(42, 3, 40, 8)[:4], a)
    assert not np.array_equal(_rng.chunk_normals(42, 4, 4, 8), a)
    assert not np.array_equal(_rng.chunk_normals(43, 3, 4, 8), a)


def test_normals_have_standard_moments():
    draws = _rng.chunk_normals(0, 0, 200, 100)
    assert abs(draws.mean()) <= 0.02
    assert abs(draws.std() - 1.0) <= 0.02


class Drew(Exception):
    pass


def no_draw(*args):
    raise Drew


def test_seed_validation(monkeypatch, tmp_path):
    monkeypatch.setattr(_rng, "chunk_normals", no_draw)
    for seed in (-1, 2**64):
        with pytest.raises(DomainError, match=r"seed must be in \[0, 2\^64\)"):
            monte_carlo_sums(seed, 10, 1, 3, None)
        for argv in (["depol-classical"], ["dephasing-classical", "--cosine", "1:1"]):
            run = [*argv, "--steps", "5", "--mc", "10", "--seed", str(seed)]
            assert main([*run, "--out", str(tmp_path / "x.csv")]) == 2
    for seed in (0, 2**64 - 1):
        with pytest.raises(Drew):
            monte_carlo_sums(seed, 10, 1, 3, None)


def test_monte_carlo_cap_checked_before_any_draw(monkeypatch):
    monkeypatch.setattr(_rng, "chunk_normals", no_draw)
    # the most Monte Carlo units the work budget allows
    budget = WORK_BUDGET_S * 1e9 / NS_PER_UNIT["monte_carlo"]
    for width, normals in ((1, 3), (400, 3), (201, 400), (5, 2)):
        at_budget = int(budget // monte_carlo_cost(1, width, normals))
        with pytest.raises(Drew):
            monte_carlo_sums(1, at_budget, width, normals, None)
        with pytest.raises(ResourceError, match="above the budget"):
            monte_carlo_sums(1, at_budget + 1, width, normals, None)


def test_monte_carlo_cap_counts_components(monkeypatch):
    # 200 cosine components on 201 points: 10^9 realizations x points, but
    # 1.4e10 units of monte_carlo_cost; at ~1e-8 s a unit that is 2-3 minutes
    # of work
    monkeypatch.setattr(_rng, "chunk_normals", no_draw)
    process = CosineSumProcess(tuple((1.0, 1.0 + 0.01 * i) for i in range(200)))
    grid = np.linspace(0.0, 10.0, 201)
    with pytest.raises(ResourceError):
        monte_carlo_coherence(process, 1.0, grid, 10**9 // 201, seed=1)


def test_draw_batches_bound_memory(monkeypatch):
    # each draw is one chunk, the least a chunk's sum can be built from
    sizes = []
    draw = _rng.chunk_normals

    def recording(seed, chunk, rows, normals):
        sizes.append(rows * normals)
        return draw(seed, chunk, rows, normals)

    monkeypatch.setattr(_rng, "chunk_normals", recording)
    fig1 = np.linspace(0.0, 4.0, 400)
    monte_carlo_polarization(IsotropicGaussianNoise(1.0, 1.0), fig1, 10000, seed=5)
    assert sizes == [3 * _CHUNK] * 9 + [3 * 784]
    sizes.clear()
    process = CosineSumProcess(tuple((1.0, 1.0 + 0.01 * i) for i in range(200)))
    monte_carlo_coherence(process, 1.0, np.linspace(0.0, 1.0, 5), 2500, seed=1)
    assert sizes == [400 * _CHUNK, 400 * _CHUNK, 400 * 452]
