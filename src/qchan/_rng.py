"""Deterministic random streams for Monte Carlo runs.

A run's realizations come in *chunks* of ``_CHUNK``.  Chunk ``c`` of a run
with seed ``s`` draws one row of standard normals per realization, in
order, from numpy's own ``Generator(Philox(key=[s, c])).standard_normal``:
Philox-4x64-10 (Salmon et al., SC'11) under numpy's ziggurat (Marsaglia &
Tsang, JSS 5(8), 2000).  So realization ``j``'s draws depend on (s, j) and
the row width only, not on the number of realizations.  The draws are
reproducible for a given numpy build.

Each chunk sums its values one realization after another, and the chunk
sums are added in chunk order.  A *block* (one evaluation) is about
``_BLOCK`` values of one chunk.  The chunks fix both the draws and the order
of the sums, so a result's bytes do not depend on the blocks.
"""

from __future__ import annotations

import numpy as np

from ._common import check_work
from .errors import DomainError

_CHUNK = 1024
# values per evaluated block: larger blocks cost memory and gain no speed
_BLOCK = 2**14
# Cost of a run, in units of one grid point of one realization: each
# realization also costs 10 units plus 2.5 per normal drawn, and each grid
# point 1/50 more per normal.  Fitted to 18 run shapes (2 to 400 normals,
# 1 to 20,001 points), so that a unit takes about the same time (the
# "monte_carlo" entry of _common.NS_PER_UNIT) whatever the run's shape.


def monte_carlo_cost(n: int, width: int, normals: int) -> float:
    """Estimated cost of ``n`` realizations of ``normals`` normals each on
    ``width`` grid points, in Monte Carlo work units."""
    return n * (10.0 + 2.5 * normals + width * (1.0 + normals / 50.0))


def chunk_normals(seed: int, chunk: int, rows: int, normals: int) -> np.ndarray:
    """The draws of chunk ``chunk`` of stream ``seed``: ``rows`` rows of
    ``normals`` standard normals, row ``r`` for realization
    ``chunk * _CHUNK + r``."""
    # an array, not a list: numpy casts a list's words >= 2^63 through int64
    key = np.array([seed, chunk], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key)).standard_normal((rows, normals))


def monte_carlo_sums(seed: int, n: int, width: int, normals: int, samples) -> list:
    """Sums over realizations [0, n) of stream ``seed`` of each
    (realizations, width) array that ``samples`` returns.

    ``samples`` maps a block of rows of ``normals`` draws, one row per
    realization, to a tuple of arrays.  A seed outside [0, 2^64) is a
    :class:`DomainError`, and a run whose :func:`monte_carlo_cost` is above
    the work budget (:func:`qchan._common.check_work`) fails before any draw.
    """
    seed = int(seed)
    if not 0 <= seed < 2**64:
        raise DomainError(f"seed must be in [0, 2^64), got {seed}")
    if n < 2:
        raise DomainError("need >= 2 realizations to estimate a standard error")
    check_work(monte_carlo=monte_carlo_cost(n, width, normals))
    size = max(1, _BLOCK // width)
    totals = None
    for chunk, start in enumerate(range(0, n, _CHUNK)):
        rows = chunk_normals(seed, chunk, min(_CHUNK, n - start), normals)
        sums = None
        for lo in range(0, len(rows), size):
            blocks = samples(rows[lo : lo + size])
            sums = sums or [np.zeros_like(block[0]) for block in blocks]
            # add row after row, as ``total += row`` would; numpy reduces a
            # lone column pairwise, so that one is accumulated
            for total, block in zip(sums, blocks):
                block[0] += total
                if block.shape[1] == 1:
                    total[:] = np.add.accumulate(block, axis=0)[-1]
                else:
                    np.add.reduce(block, axis=0, out=total)
        totals = sums if totals is None else [t + s for t, s in zip(totals, sums)]
    return totals
