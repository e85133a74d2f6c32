import warnings

import numpy as np
import pytest

from qchan import (
    BlochVector,
    DomainError,
    IsotropicGaussianNoise,
    NoiseSample,
    classical_decay_rate,
    monte_carlo_polarization,
    polarization_factor,
    rotate_bloch,
    state_from_bloch,
)
from qchan import _rng, classical_field
from qchan.exact import unitary_noise_conjugation

NOISE = IsotropicGaussianNoise(1.0, 1.0)


def test_factor_boundary_values():
    assert polarization_factor(NOISE, 0.0) == pytest.approx(1.0, abs=1e-15)
    # 4 g^2 s^2 t^2 = 1  =>  f = 1/3
    assert polarization_factor(NOISE, 0.5) == pytest.approx(1.0 / 3.0, abs=1e-15)
    assert polarization_factor(NOISE, 50.0) == pytest.approx(1.0 / 3.0, abs=1e-12)


def test_factor_minimum():
    # calculus: minimum at 4 g^2 s^2 t^2 = 3, f = (1 - 4 e^{-3/2})/3
    t_min = np.sqrt(3.0) / 2.0
    f_min = (1.0 - 4.0 * np.exp(-1.5)) / 3.0
    assert polarization_factor(NOISE, t_min) == pytest.approx(f_min, abs=1e-15)
    # grid search confirms it is the global minimum
    grid = np.linspace(0.0, 5.0, 20001)
    values = polarization_factor(NOISE, grid)
    idx = np.argmin(values)
    assert grid[idx] == pytest.approx(t_min, abs=5e-4)
    assert values[idx] == pytest.approx(f_min, abs=1e-7)
    assert f_min == pytest.approx(0.03582645313542691, abs=1e-15)


def test_rotation_limits():
    start = BlochVector(0.3, -0.2, 0.8)
    assert rotate_bloch(NoiseSample(0.0, 0.0, 0.0), 1.0, 2.0, start) == start
    aligned = NoiseSample(0.3, -0.2, 0.8)
    out = rotate_bloch(aligned, 1.0, 2.0, start)
    assert np.allclose(out.as_array(), start.as_array(), atol=1e-12)


def test_rotation_handedness_fixed_by_unitary():
    # 2 g t = pi/2 about z takes x to +y under rho -> e^{-igt xi.sigma} rho e^{+igt xi.sigma}
    start = BlochVector(1.0, 0.0, 0.0)
    out = rotate_bloch(NoiseSample(0.0, 0.0, 1.0), 1.0, np.pi / 4.0, start)
    assert np.allclose(out.as_array(), [0.0, 1.0, 0.0], atol=1e-12)
    oracle = unitary_noise_conjugation(
        NoiseSample(0.0, 0.0, 1.0), 1.0, np.pi / 4.0, state_from_bloch(start)
    )
    assert np.allclose(oracle.bloch().as_array(), [0.0, 1.0, 0.0], atol=1e-12)


def test_rotation_matches_unitary_oracle(rng):
    for _ in range(100):
        xi = NoiseSample(*rng.normal(scale=1.5, size=3))
        direction = rng.normal(size=3)
        direction /= np.linalg.norm(direction)
        start = BlochVector.from_array(0.9 * direction)
        t = rng.uniform(0.0, 4.0)
        fast = rotate_bloch(xi, 0.8, t, start).as_array()
        slow = unitary_noise_conjugation(xi, 0.8, t, state_from_bloch(start)).bloch().as_array()
        assert np.max(np.abs(fast - slow)) <= 1e-12


def test_rotation_preserves_norm(rng):
    for _ in range(10_000):
        xi = NoiseSample(*rng.normal(size=3))
        direction = rng.normal(size=3)
        direction /= np.linalg.norm(direction)
        start = BlochVector.from_array(direction)
        out = rotate_bloch(xi, 1.0, rng.uniform(0.0, 5.0), start)
        assert abs(out.norm - 1.0) <= 1e-12


def test_monte_carlo_is_deterministic():
    grid = np.linspace(0.0, 4.0, 41)
    a = monte_carlo_polarization(NOISE, grid, 300, seed=7)
    b = monte_carlo_polarization(NOISE, grid, 300, seed=7)
    assert np.array_equal(a.mean, b.mean)
    assert np.array_equal(a.stderr, b.stderr)
    c = monte_carlo_polarization(NOISE, grid, 300, seed=8)
    assert not np.array_equal(a.mean, c.mean)


def test_monte_carlo_matches_analytic():
    grid = np.linspace(0.0, 4.0, 101)
    estimate = monte_carlo_polarization(NOISE, grid, 4000, seed=11)
    expected = polarization_factor(NOISE, grid)
    inside = np.abs(estimate.mean - expected) <= 4.0 * np.maximum(estimate.stderr, 1e-15)
    assert np.mean(inside) >= 0.99


def _loop_overlap(normals, sigma, coupling, times, axis):
    """Reference: s(t).s0 = (1 - b) + b/(1 + T^2) of one realization with
    unscaled normals n, b = 2 (1 - (n^.a)^2) and T = tan(g t sigma |n|)."""
    length = normals @ normals
    proj = float(normals @ axis)
    off_axis = 2.0 * (1.0 - proj * proj / length)
    tan = np.tan(sigma * np.sqrt(length) * (coupling * times))
    return (1.0 - off_axis) + off_axis / (1.0 + tan * tan)


def _loop_polarization(draw, noise, times, n, seed, axis):
    """Reference: one realization at a time, summed in chunks of 1024."""
    total = np.zeros_like(times)
    total_sq = np.zeros_like(times)
    for start in range(0, n, 1024):
        part = np.zeros_like(times)
        part_sq = np.zeros_like(times)
        for j in range(start, min(start + 1024, n)):
            fj = _loop_overlap(draw(seed, j, 3), noise.sigma, noise.coupling, times, axis)
            part += fj
            part_sq += fj * fj
        total += part
        total_sq += part_sq
    mean = total / n
    variance = np.maximum(total_sq / n - mean**2, 0.0) * (n / (n - 1.0))
    return mean, np.sqrt(variance / n)


@pytest.mark.parametrize("block", ["row", "chunk"])
@pytest.mark.parametrize("grid", [np.array([1.3]), np.linspace(0.0, 2.0, 7)], ids=["1pt", "7pt"])
def test_monte_carlo_matches_per_realization_loop(philox_normals, monkeypatch, block, grid):
    noise = IsotropicGaussianNoise(1.3, 0.7)
    axis = np.array([0.6, 0.0, 0.8])
    # single rows from one chunk per draw, or whole chunks from one draw
    monkeypatch.setattr(_rng, "_DRAW", 1 if block == "row" else 2**20)
    monkeypatch.setattr(_rng, "_BLOCK", 1 if block == "row" else _rng._CHUNK * grid.size)
    estimate = monte_carlo_polarization(noise, grid, 2100, seed=5, axis=axis)
    mean, stderr = _loop_polarization(philox_normals, noise, grid, 2100, 5, axis)
    # bytes, not ==: the sign of a zero must match too
    assert estimate.mean.tobytes() == mean.tobytes()
    assert estimate.stderr.tobytes() == stderr.tobytes()


def test_alignment_rows_match_per_realization_loop():
    # row by row: the sums of a run can absorb a last-digit change in one row
    grid = np.linspace(0.0, 2.0, 7)
    axis = np.array([0.6, 0.0, 0.8])
    normals = _rng.realization_normals(5, 0, 20000, 3)
    rows, squares = classical_field._alignment_samples(normals, 0.7, 1.3, grid, axis)
    for row, square, x in zip(rows, squares, normals):
        expected = _loop_overlap(x, 0.7, 1.3, grid, axis)
        assert row.tobytes() == expected.tobytes()
        assert square.tobytes() == (expected * expected).tobytes()


def test_alignment_rows_match_cos_sinc_formula_and_rotation():
    # sigma = 1, so the old kernel's field is n and both see the same angle
    grid = np.linspace(0.0, 2.0, 7)
    axis = np.array([0.6, 0.0, 0.8])
    normals = _rng.realization_normals(11, 0, 20000, 3)
    rows, _ = classical_field._alignment_samples(normals, 1.0, 1.3, grid, axis)
    gt = 1.3 * grid
    norm = np.sqrt(np.vecdot(normals, normals))[:, None]
    sinc_half = np.sinc(gt * norm / np.pi)
    overlap2 = np.vecdot(normals, axis)[:, None] ** 2
    old = np.cos(2.0 * gt * norm) + 2.0 * gt**2 * sinc_half**2 * overlap2
    # the same formula in extended precision at the same double angle; the
    # old formula's own error reaches 1.7e-15 here, the new one's 7.4e-16
    wide = normals.astype(np.longdouble)
    aligned = (wide @ axis.astype(np.longdouble)) ** 2 / np.vecdot(wide, wide)
    angle = (norm * gt).astype(np.longdouble)
    exact = 1.0 - (1.0 - aligned)[:, None] * 2.0 * np.sin(angle) ** 2
    assert np.max(np.abs(rows - exact)) <= 1e-15
    assert np.max(np.abs(rows - old)) <= 2e-15
    start = BlochVector.from_array(axis)
    for row, n in zip(rows[:300], normals[:300]):
        sample = NoiseSample(*n)
        rotated = [rotate_bloch(sample, 1.3, t, start).as_array() @ axis for t in grid]
        assert np.max(np.abs(row - rotated)) <= 1e-14


def test_monte_carlo_extreme_sigma_is_exact_and_finite():
    grid = np.linspace(0.0, 4.0, 9)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        quiet = monte_carlo_polarization(IsotropicGaussianNoise(1.0, 1e-200), grid, 3000, seed=3)
        loud = monte_carlo_polarization(IsotropicGaussianNoise(1.0, 1e154), grid, 3000, seed=3)
    assert np.all(quiet.mean == 1.0)
    assert np.all(quiet.stderr == 0.0)
    assert np.all(np.isfinite(loud.mean)) and np.all(np.isfinite(loud.stderr))
    assert np.all(np.abs(loud.mean[1:] - 1.0 / 3.0) <= 5.0 * loud.stderr[1:])


def test_monte_carlo_isotropy():
    grid = np.linspace(0.0, 3.0, 31)
    axes = (np.eye(3)[0], np.eye(3)[1], np.eye(3)[2])
    estimates = [
        monte_carlo_polarization(NOISE, grid, 4000, seed=21 + i, axis=ax)
        for i, ax in enumerate(axes)
    ]
    for i in range(3):
        for j in range(i + 1, 3):
            gap = np.abs(estimates[i].mean - estimates[j].mean)
            scale = np.sqrt(estimates[i].stderr**2 + estimates[j].stderr**2)
            assert np.all(gap[1:] <= 5.0 * scale[1:])


def test_monte_carlo_error_scaling():
    grid = np.linspace(0.2, 4.0, 39)
    expected = polarization_factor(NOISE, grid)
    rms = {}
    for n in (100, 1000, 10_000):
        estimate = monte_carlo_polarization(NOISE, grid, n, seed=1)
        rms[n] = float(np.sqrt(np.mean((estimate.mean - expected) ** 2)))
    expected_ratio = np.sqrt(10.0)
    assert expected_ratio / 2.0 <= rms[100] / rms[1000] <= expected_ratio * 2.0
    assert expected_ratio / 2.0 <= rms[1000] / rms[10_000] <= expected_ratio * 2.0
    assert 5.0 <= rms[100] / rms[10_000] <= 20.0


def test_small_sigma_keeps_polarization():
    quiet = IsotropicGaussianNoise(1.0, 1e-8)
    grid = np.linspace(0.0, 4.0, 11)
    estimate = monte_carlo_polarization(quiet, grid, 100, seed=3)
    assert np.all(np.abs(estimate.mean - 1.0) <= 1e-12)


def test_decay_rate_signs():
    assert classical_decay_rate(NOISE, 0.0) == 0.0
    assert classical_decay_rate(NOISE, 0.5) > 0.0  # before the minimum
    assert classical_decay_rate(NOISE, np.sqrt(3.0) / 2.0 + 0.05) < 0.0  # after it


def test_decay_rate_vanishes_at_origin_series():
    # f'(0) = 0 from the series, so gamma ~ t near zero
    small = classical_decay_rate(NOISE, 1e-8)
    assert abs(small) <= 1e-6


def test_validation():
    with pytest.raises(DomainError):
        IsotropicGaussianNoise(0.0, 1.0)
    with pytest.raises(DomainError):
        IsotropicGaussianNoise(1.0, -1.0)
    with pytest.raises(DomainError):
        IsotropicGaussianNoise(1.0, np.inf)
    with pytest.raises(DomainError):
        IsotropicGaussianNoise(np.inf, 1.0)
    with pytest.raises(DomainError):
        IsotropicGaussianNoise(np.nan, 1.0)
    with pytest.raises(DomainError):
        NoiseSample(np.nan, 0.0, 0.0)
    with pytest.raises(DomainError):
        monte_carlo_polarization(NOISE, np.linspace(0, 1, 5), 1, seed=0)
    with pytest.raises(DomainError):
        monte_carlo_polarization(NOISE, np.linspace(1, 0, 5), 10, seed=0)
    with pytest.raises(DomainError):
        monte_carlo_polarization(NOISE, np.linspace(0, 1, 5), 10, seed=0, axis=(1.0, 1.0, 0.0))
    with pytest.raises(DomainError):
        polarization_factor(NOISE, -1.0)
