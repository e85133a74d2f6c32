"""Deterministic, splittable random streams for Monte Carlo runs.

Realization ``j`` of a run with seed ``s`` draws the words of
``np.random.Philox(key=(s, j)).random_raw`` (Philox-4x64-10, Salmon et al.,
SC'11), evaluated for many keys at once in uint64 numpy, so sample ``i`` of
realization ``j`` depends only on (s, j, i).

Standard normals are produced by the inverse-CDF transform: the top 53 bits
of each 64-bit Philox word give a uniform in (0, 1) (offset by half an ulp
so the endpoints are never hit), mapped through ``scipy.special.ndtri``.
scipy is imported on the first draw, so only Monte Carlo runs pay for it.

A *chunk* of ``_CHUNK`` realizations sums its values one after another,
and the chunk sums are added in chunk order.  A *draw batch* (one draw) is
the whole chunks that fit in about ``_DRAW`` normals; a *block* (one
evaluation) is about ``_BLOCK`` values of one chunk.  Only the chunks fix
the order of the sums, so a result's bytes depend on neither of the others.
"""

from __future__ import annotations

import numpy as np

from .errors import DomainError, ResourceError

_CHUNK = 1024
# normals per draw batch (or one chunk's worth, if more)
_DRAW = 2**17
# values per evaluated block: larger blocks cost memory and gain no speed
_BLOCK = 2**14
# Cost of a run, in units of one grid point of one realization (5e-9 to
# 1.3e-8 s on a 2-core x86-64 VM): each realization also costs about 18 units
# plus 4 per normal drawn, and each grid point 1/64 more per normal.  At the
# cap a run takes 8-20 s, whatever its grid and its draw count.
MONTE_CARLO_CAP = 1_500_000_000


def monte_carlo_cost(n: int, width: int, normals: int) -> float:
    """Estimated cost of ``n`` realizations of ``normals`` normals each on
    ``width`` grid points, in the units of ``MONTE_CARLO_CAP``."""
    return n * (18.0 + 4.0 * normals + width * (1.0 + normals / 64.0))


# Philox-4x64 round multipliers and key increments.
_M0, _M1 = 0xD2E7470EE14C6C93, 0xCA5A826395121157
_W0, _W1 = 0x9E3779B97F4A7C15, 0xBB67AE8584CAA73B


def _mulhilo(m: int, x: np.ndarray):
    """High and low words of the 128-bit product of the constant ``m`` and
    the uint64 array ``x``, from 32-bit halves (no partial sum overflows)."""
    m_lo, m_hi = m & 0xFFFFFFFF, m >> 32
    x_lo, x_hi = x & 0xFFFFFFFF, x >> 32
    cross = x_hi * m_lo + ((x_lo * m_lo) >> 32)
    mid = x_lo * m_hi + (cross & 0xFFFFFFFF)
    return x_hi * m_hi + (cross >> 32) + (mid >> 32), x * m


def realization_normals(seed, start: int, stop: int, count: int) -> np.ndarray:
    """``count`` standard normals for each realization in [start, stop) of
    stream ``seed``: row ``r`` belongs to realization ``start + r``."""
    from scipy.special import ndtri

    if not 0 <= int(seed) < 2**64:
        raise DomainError(f"seed must be in [0, 2^64), got {seed}")
    # arrays, not scalars: uint64 scalar arithmetic warns where it wraps
    k0 = np.full((1, 1), int(seed), dtype=np.uint64)
    k1 = np.arange(start, stop, dtype=np.uint64)[:, None]
    # numpy's Philox bumps its counter before each block: block b uses b + 1
    n_blocks = -(-count // 4)
    c0 = np.broadcast_to(np.arange(1, n_blocks + 1, dtype=np.uint64), (stop - start, n_blocks))
    c1 = c2 = c3 = np.zeros_like(c0)
    for _ in range(10):
        hi0, lo0 = _mulhilo(_M0, c0)
        hi1, lo1 = _mulhilo(_M1, c2)
        c0, c1, c2, c3 = hi1 ^ c1 ^ k0, lo1, hi0 ^ c3 ^ k1, lo0
        k0, k1 = k0 + _W0, k1 + _W1
    raw = np.stack([c0, c1, c2, c3], axis=-1).reshape(stop - start, 4 * n_blocks)[:, :count]
    return ndtri(((raw >> 11).astype(np.float64) + 0.5) * 2.0**-53)


def monte_carlo_sums(n: int, width: int, normals: int, draw, samples) -> list:
    """Sums over realizations [0, n) of each (realizations, width) array
    that ``samples`` returns.

    ``draw(start, stop)`` gives one row of ``normals`` draws per realization
    in [start, stop); it is called once per draw batch, so no call returns
    more than max(``_DRAW``, one chunk's worth) values.  ``samples`` maps a
    block of those rows to a tuple of arrays.  Runs whose
    :func:`monte_carlo_cost` exceeds ``MONTE_CARLO_CAP`` fail before any
    draw.
    """
    if n < 2:
        raise DomainError("need >= 2 realizations to estimate a standard error")
    if monte_carlo_cost(n, width, normals) > MONTE_CARLO_CAP:
        raise ResourceError(
            f"{n} realizations of {normals} normals x {width} points exceed the "
            f"Monte Carlo cost cap {MONTE_CARLO_CAP}"
        )
    batch = _CHUNK * max(1, _DRAW // (_CHUNK * normals))
    size = max(1, _BLOCK // width)
    totals = None
    for start in range(0, n, _CHUNK):
        if start % batch == 0:
            drawn = draw(start, min(start + batch, n))
        rows = drawn[start % batch : start % batch + _CHUNK]
        sums = None
        for lo in range(0, len(rows), size):
            blocks = samples(rows[lo : lo + size])
            sums = sums or [np.zeros_like(block[0]) for block in blocks]
            # add row after row, as ``total += row`` would; numpy reduces a
            # lone column pairwise, and a lone row needs no reduction
            for total, block in zip(sums, blocks):
                if 1 in block.shape:
                    for row in block:
                        total += row
                else:
                    block[0] += total
                    np.add.reduce(block, axis=0, out=total)
        totals = sums if totals is None else [t + s for t, s in zip(totals, sums)]
    return totals
