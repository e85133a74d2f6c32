"""Decay-rate extraction and Markovianity classification of channel series.

Any computed time series (Bloch factor, channel probability, or decoherence
exponent) is turned into the canonical decay rate of its generalized
Lindblad form:

    gamma(t) = -d/dt ln f(t)     for Bloch factors f (and p via f = 1 - p),
    gamma(t) = dGamma(t)/dt      for decoherence exponents,

using 4th-order finite differences with a per-point error estimate.  The
verdict is then read off the sign of gamma: constant rate, time-dependent
Markovian (nonnegative rate), or non-Markovian (negative on intervals).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np

from ._common import pole_rate
from .errors import DomainError, UnclassifiableError

MEANING_BLOCH_FACTOR = "bloch-factor"
MEANING_PROBABILITY = "probability"
MEANING_DEPHASING_GAMMA = "dephasing-gamma"
MEANING_DAMPING_GAMMA = "damping-gamma"
MEANINGS = (
    MEANING_BLOCH_FACTOR,
    MEANING_PROBABILITY,
    MEANING_DEPHASING_GAMMA,
    MEANING_DAMPING_GAMMA,
)

DEFAULT_EPS_REL = 1e-6


@dataclass(frozen=True, eq=False)
class TimeSeries:
    """Uniformly sampled values with a tag saying what they mean."""

    times: np.ndarray
    values: np.ndarray
    meaning: str

    def __post_init__(self):
        t = np.asarray(self.times, dtype=float)
        y = np.asarray(self.values, dtype=float)
        if t.ndim != 1 or y.shape != t.shape:
            raise DomainError("need matching 1-d time and value arrays")
        if t.size < 5:
            raise DomainError("need at least 5 points")
        steps = np.diff(t)
        if np.any(steps <= 0) or not np.allclose(steps, steps[0], rtol=1e-9, atol=0.0):
            raise DomainError("time grid must be uniform and ascending")
        if not np.all(np.isfinite(y)):
            raise DomainError("values must be finite")
        if self.meaning not in MEANINGS:
            raise DomainError(f"unknown meaning {self.meaning!r}; pick from {MEANINGS}")
        t.flags.writeable = False
        y.flags.writeable = False
        object.__setattr__(self, "times", t)
        object.__setattr__(self, "values", y)

    @property
    def step(self) -> float:
        return float(self.times[1] - self.times[0])


@dataclass(frozen=True, eq=False)
class RateSeries:
    """Extracted gamma(t) with per-point differentiation error estimates.

    Points where the rate is undefined (denominator at its floor) carry
    ``flagged = True`` and NaN values; they are reported, never dropped.
    """

    times: np.ndarray
    values: np.ndarray
    error: np.ndarray
    flagged: np.ndarray

    def __post_init__(self):
        t = np.asarray(self.times, dtype=float)
        v = np.asarray(self.values, dtype=float)
        e = np.asarray(self.error, dtype=float)
        fl = np.asarray(self.flagged, dtype=bool)
        if not (t.shape == v.shape == e.shape == fl.shape) or t.ndim != 1:
            raise DomainError("rate series arrays must share one 1-d shape")
        live = ~fl
        if not np.all(np.isfinite(v[live])) or not np.all(np.isfinite(e[live])):
            raise DomainError("unflagged rate points must be finite")
        for arr in (t, v, e, fl):
            arr.flags.writeable = False
        object.__setattr__(self, "times", t)
        object.__setattr__(self, "values", v)
        object.__setattr__(self, "error", e)
        object.__setattr__(self, "flagged", fl)

    @property
    def step(self) -> float:
        return float(self.times[1] - self.times[0])


class MarkovKind(enum.Enum):
    CONSTANT_RATE = "constant-rate"
    TIME_DEPENDENT_MARKOVIAN = "time-dependent-markovian"
    NON_MARKOVIAN = "non-markovian"


@dataclass(frozen=True)
class MarkovClass:
    """Verdict plus supporting data: the rate value for constant-rate
    evolutions, the (start, end) negative intervals for non-Markovian ones."""

    kind: MarkovKind
    rate: float | None = None
    negative_intervals: tuple = ()

    def __post_init__(self):
        non_markovian = self.kind is MarkovKind.NON_MARKOVIAN
        if non_markovian != bool(self.negative_intervals):
            raise DomainError(
                "non-Markovian verdicts must carry negative intervals (and only they may)"
            )
        if (self.kind is MarkovKind.CONSTANT_RATE) != (self.rate is not None):
            raise DomainError("constant-rate verdicts must carry the rate (and only they may)")


# 4th-order first-derivative stencils (units of 1/(12 h)).
_CENTRAL = np.array([1.0, -8.0, 0.0, 8.0, -1.0])
_EDGE = {
    0: np.array([-25.0, 48.0, -36.0, 16.0, -3.0]),
    1: np.array([-3.0, -10.0, 18.0, -6.0, 1.0]),
    -2: np.array([-1.0, 6.0, -18.0, 10.0, 3.0]),
    -1: np.array([3.0, -16.0, 36.0, -48.0, 25.0]),
}


def _derivative(values: np.ndarray, h: float):
    """4th-order derivative with a conservative per-point error estimate.

    The estimate combines the spread against the 2nd-order stencil (which
    bounds the resolution error from above) with the roundoff amplification
    of the stencil weights.
    """
    n = values.size
    deriv = np.empty(n)
    low_order = np.empty(n)
    deriv[2 : n - 2] = np.convolve(values, _CENTRAL[::-1], mode="valid") / (12.0 * h)
    low_order[1 : n - 1] = (values[2:] - values[:-2]) / (2.0 * h)
    for offset in (0, 1):
        deriv[offset] = _EDGE[offset] @ values[:5] / (12.0 * h)
        deriv[n - 2 + offset] = _EDGE[offset - 2] @ values[-5:] / (12.0 * h)
    low_order[0] = (values[1] - values[0]) / h
    low_order[-1] = (values[-1] - values[-2]) / h
    roundoff = 16.0 * np.finfo(float).eps * np.max(np.abs(values)) / h
    estimate = np.abs(deriv - low_order) + roundoff
    return deriv, estimate


def rate_from_series(series: TimeSeries) -> RateSeries:
    """Extract gamma(t) from a tagged series (see module docstring).

    For factor-like series, points where the factor is at or below the pole
    floor (including negative overshoots) are flagged.
    """
    h = series.step
    y = series.values
    if series.meaning in (MEANING_DEPHASING_GAMMA, MEANING_DAMPING_GAMMA):
        deriv, estimate = _derivative(y, h)
        flagged = np.zeros(y.shape, dtype=bool)
        return RateSeries(series.times, deriv, estimate, flagged)

    factor = y if series.meaning == MEANING_BLOCH_FACTOR else 1.0 - y
    deriv, destimate = _derivative(factor, h)
    rate, flagged = pole_rate(factor, deriv)
    # |-e/F| = e/|F| exactly, and NaN at the same poles
    estimate = np.abs(pole_rate(factor, destimate)[0])
    return RateSeries(series.times, rate, estimate, flagged)


def _negative_runs(mask: np.ndarray):
    """(start, stop) index pairs of maximal True runs (stop inclusive)."""
    edges = np.flatnonzero(np.diff(mask, prepend=False, append=False))
    return list(zip(edges[::2].tolist(), (edges[1::2] - 1).tolist()))


def _cross_time(times, values, i, j, fallback):
    """Linearly interpolated zero crossing of ``values`` between grid points
    i and j; ``fallback`` is returned when no sign change brackets one."""
    yi, yj = values[i], values[j]
    if not (np.isfinite(yi) and np.isfinite(yj)) or yi == yj or yi * yj > 0:
        return float(times[fallback])
    return float(times[i] + (times[j] - times[i]) * (0.0 - yi) / (yj - yi))


def classify(rates: RateSeries, eps_abs: float | None = None, eps_rel: float = DEFAULT_EPS_REL) -> MarkovClass:
    """Classify a rate series by the sign structure of gamma(t).

    * constant within ``max(eps_abs, eps_rel |mean|)`` everywhere ->
      CONSTANT_RATE carrying the mean rate;
    * else nonnegative up to ``eps_abs`` plus the per-point differentiation
      error -> TIME_DEPENDENT_MARKOVIAN;
    * else NON_MARKOVIAN with the maximal negative intervals (endpoints by
      linear interpolation of the sign change, gaps shorter than 2h merged).

    ``eps_abs`` defaults to 1e-9 / h, tying the threshold to the grid scale.
    """
    h = rates.step
    if eps_abs is None:
        eps_abs = 1e-9 / h
    live = ~rates.flagged
    if not np.any(live):
        raise UnclassifiableError("every point of the rate series is flagged")
    values = rates.values
    gammas = values[live]

    mean = float(np.mean(gammas))
    if np.max(np.abs(gammas - mean)) <= max(eps_abs, eps_rel * abs(mean)):
        return MarkovClass(MarkovKind.CONSTANT_RATE, rate=mean)

    threshold = eps_abs + np.where(live, rates.error, np.inf)
    negative = live & (values < -threshold)
    if not np.any(negative):
        return MarkovClass(MarkovKind.TIME_DEPENDENT_MARKOVIAN)

    times = rates.times
    intervals = []
    for start, stop in _negative_runs(negative):
        left = (
            times[start]
            if start == 0
            else _cross_time(times, values, start - 1, start, fallback=start)
        )
        right = (
            times[stop]
            if stop == times.size - 1
            else _cross_time(times, values, stop, stop + 1, fallback=stop)
        )
        intervals.append((float(left), float(right)))
    merged = [intervals[0]]
    for lo, hi in intervals[1:]:
        if lo - merged[-1][1] < 2.0 * h:
            merged[-1] = (merged[-1][0], hi)
        else:
            merged.append((lo, hi))
    return MarkovClass(MarkovKind.NON_MARKOVIAN, negative_intervals=tuple(merged))
