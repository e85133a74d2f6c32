"""CSV rows whose floats read exactly as ``'%.17g' % x``, laid out in numpy.

A finite nonzero x has the 17 significant digits D = round-half-even(|x| 10^s)
with s = 16 - floor(log10 |x|).  For 0 <= s <= 22, 10^s is a double, and
Dekker's split and two-product (Numer. Math. 18, 224, 1971) give
|x| 10^s = p + e exactly, so D and its ties are exact.  Other scales take 10^s
as a double-double H + L; there the digits count only where the fraction of
p + e + |x| L lies further from 1/2 than the proven error of that sum.  No
long double and no fused multiply-add is used, so the digits are the same on
every IEEE platform.  A cell the scaled product does not certify is formatted
by ``'%.17g' %``; zeros, infinities and NaN take fixed spellings.

The text of each cell is laid out down one column of a uint8 array (sign,
the ``0.000`` prefix of small fixed-point numbers, 17 digits with the point
inserted, exponent), with zero bytes where ``%g`` prints nothing; a slab of
table rows is written with the zero bytes dropped.  The bytes do not depend on
``SLAB_ROWS``.
"""

from __future__ import annotations

import functools
import math
from collections.abc import Iterator

import numpy as np

SLAB_ROWS = 4096  # table rows formatted and written at a time

_SPLIT = 134217729.0  # 2^27 + 1: Veltkamp's split into two 26-bit halves
# scales s with a normal double-double 10^s and a split of |x| that cannot
# overflow (|x| < 1.3e300); the table spans every s that log10 and one
# correction give, NaN outside [_S_MIN, _S_MAX]
_S_MIN, _S_MAX = -284, 308
_S_BASE, _S_END = -294, 342
# |p + t - |x| 10^s| <= 4.2e-15 when 10^s is inexact (see _scaled); the margin
# keeps certification independent of how that bound is rounded
_TOL = 1e-13
_RANKS = np.arange(18, dtype=np.uint8)[:, None]
_X_BASE = 400  # decimal exponents lie in [-324, 309]


@functools.cache
def _powers() -> np.ndarray:
    """Per scale s from _S_BASE on, a column: H = fl(10^s), its split (hi, lo),
    L = fl(10^s - H) and the certification bound (-1 where 10^s = H)."""
    table = np.full((5, _S_END - _S_BASE), math.nan)
    table[4] = math.inf
    for s in range(_S_MIN, _S_MAX + 1):
        if s >= 0:
            big = float(10**s)
            small = float(10**s - int(big))
        else:
            num, den = (big := 1 / 10**-s).as_integer_ratio()
            small = (den - num * 10**-s) / (den * 10**-s)
        mant, exp = math.frexp(big)
        c = mant * _SPLIT
        hi = c - (c - mant)
        table[:, s - _S_BASE] = (
            big, math.ldexp(hi, exp), math.ldexp(mant - hi, exp), small,
            -1.0 if small == 0.0 else _TOL,
        )
    return table


def _scaled(a: np.ndarray, s: np.ndarray):
    """p + t = a 10^s: p = fl(a H) and t holds Dekker's exact error of that
    product plus a L.  The sum is exact where L = 0; otherwise its error is
    at most 2 (a H) 2^-106 from L and a L plus half an ulp of t (|t| < 20),
    4.2e-15 for p < 1.1e17.  NaN where 10^s or the split of a is out of range."""
    big, big_hi, big_lo, small, tol = np.take(_powers(), s - _S_BASE, axis=1)
    c = a * _SPLIT
    a_hi = c - (c - a)
    a_lo = a - a_hi
    p = a * big
    t = ((a_hi * big_hi - p) + a_hi * big_lo + a_lo * big_hi) + a_lo * big_lo
    t += a * small
    return p, t, tol


def _outside(p: np.ndarray, t: np.ndarray):
    """Where p + t < 10^16 and where p + t >= 10^17 (both p are doubles)."""
    return (p < 1e16) | ((p == 1e16) & (t < 0)), (p > 1e17) | ((p == 1e17) & (t >= 0))


def _digits(a: np.ndarray):
    """17 digits of each a > 0 as an integer D in [10^16, 10^17), its decimal
    exponent X, and whether the digits are certified."""
    s = 16 - np.floor(np.log10(a)).astype(np.int64)
    p, t, tol = _scaled(a, s)
    # log10 may miss by one next to a power of ten: redo only those cells
    low, high = _outside(p, t)
    miss = np.flatnonzero(low | high)
    bad = np.zeros(a.shape, dtype=bool)
    if miss.size:
        s[miss] += np.where(low[miss], 1, -1)
        p[miss], t[miss], tol[miss] = _scaled(a[miss], s[miss])
        bad[miss] = np.logical_or(*_outside(p[miss], t[miss]))
    whole = np.floor(t)
    frac = t - whole
    # p >= 1e16 > 2^53 is an integer, so D = p + round-half-even(t)
    digits = p.astype(np.int64) + whole.astype(np.int64)
    digits += (frac > 0.5) | ((frac == 0.5) & (digits & 1 == 1))
    certified = (np.abs(frac - 0.5) > tol) & ~bad
    carry = digits == 10**17
    digits[carry] = 10**16
    return digits, 16 - s + carry, certified


@functools.cache
def _exponent_bytes() -> tuple:
    """Per decimal exponent X from -_X_BASE on: the prefix ``0.000`` of a
    small fixed-point number, the exponent ``e+XX``, the number of digits
    before the point (none: 17) and the integer digits of a fixed-point
    number, all zero where that part is absent."""
    prefix = np.zeros((5, 2 * _X_BASE), dtype=np.uint8)
    power = np.zeros((5, 2 * _X_BASE), dtype=np.uint8)
    point = np.ones(2 * _X_BASE, dtype=np.uint8)
    whole = np.zeros(2 * _X_BASE, dtype=np.uint8)
    for x in range(-_X_BASE, _X_BASE):
        if -4 <= x < 0:
            text, point[x + _X_BASE] = "0." + "0" * (-x - 1), 17
            prefix[: len(text), x + _X_BASE] = list(text.encode())
        elif 0 <= x < 17:
            point[x + _X_BASE] = whole[x + _X_BASE] = x + 1
        else:
            text = "e%+03d" % x
            power[: len(text), x + _X_BASE] = list(text.encode())
    return prefix, power, point, whole


def _layout(digits: np.ndarray, exp10: np.ndarray, negative: np.ndarray, least: int):
    """The ``%.17g`` bytes of the numbers 0.D 10^(X+1), signed, as at least
    ``least`` rows of bytes: the sign and the prefix ``0.000`` where some cell
    needs them, 18 rows of digits with the point, and the exponent where some
    cell needs one.  Only uint8 arithmetic selects bytes: ``np.where`` and
    masked copies are far slower on these shapes."""
    n = digits.size
    prefix, power, point, whole = _exponent_bytes()
    index = exp10 + _X_BASE
    point, whole = np.take(point, index), np.take(whole, index)
    exp10 = exp10.astype(np.int16)
    signed = negative.any()
    prefixed = ((exp10 < 0) & (exp10 >= -4)).any()
    exponents = ((exp10 < -4) | (exp10 >= 17)).any()
    rows = np.zeros((max(signed + 5 * prefixed + 18 + 5 * exponents, least), n), dtype=np.uint8)
    at = 0
    if signed:
        rows[0] = negative.view(np.uint8) * np.uint8(ord("-"))
        at = 1
    if prefixed:
        rows[at : at + 5] = np.take(prefix, index, axis=1)
        at += 5
    if exponents:
        rows[-5:] = np.take(power, index, axis=1)
    # the leading digit and four uint16 groups of four digits
    head = digits // 10**8
    tail = (digits - head * 10**8).astype(np.uint32)
    head = head.astype(np.uint32)
    lead = head // 10**8
    mid = head - lead * 10**8
    groups = np.empty((4, n), dtype=np.uint16)
    groups[0] = mid // 10**4
    groups[1] = mid - groups[0].astype(np.uint32) * 10**4
    groups[2] = tail // 10**4
    groups[3] = tail - groups[2].astype(np.uint32) * 10**4
    dig = np.empty((17, n), dtype=np.uint8)
    dig[0] = lead
    quads = dig[1:].reshape(4, 4, n)
    tens, rest = np.empty_like(groups), np.empty_like(groups)
    for k in range(3, -1, -1):
        np.floor_divide(groups, 10, out=tens)
        np.multiply(tens, 10, out=rest)
        quads[:, k] = np.subtract(groups, rest, out=rest)
        groups, tens = tens, groups
    # byte operations below write into two scratch arrays, and bool masks are
    # viewed as uint8 so that no operation casts
    mask = np.empty((18, n), dtype=bool)
    bits = mask.view(np.uint8)
    scratch = np.empty((18, n), dtype=np.uint8)
    # significant digits: up to the last nonzero one, and the whole integer
    # part of a fixed-point number
    np.not_equal(dig, 0, out=mask[1:])
    length = np.multiply(bits[1:], _RANKS[1:], out=scratch[1:]).max(axis=0)
    np.maximum(length, whole, out=length)
    dig += np.uint8(ord("0"))
    np.less(_RANKS[:17], length, out=mask[:17])
    dig *= bits[:17]
    # the point goes after `point` digits: X + 1 in fixed point, 1 in exponent
    # form, none (17) where the prefix holds it; digits after it move down one
    field = rows[at : at + 18]
    field[:17] = dig
    np.greater(_RANKS[1:], point, out=mask[1:])
    np.subtract(dig, field[1:], out=scratch[1:])
    field[1:] += np.multiply(scratch[1:], bits[1:], out=scratch[1:])
    dot = (length > point).view(np.uint8) * np.uint8(ord("."))
    np.equal(_RANKS, point, out=mask)
    np.subtract(field, dot, out=scratch)
    field -= np.multiply(scratch, bits, out=scratch)
    return rows


def format_cells(x: np.ndarray) -> np.ndarray:
    """``'%.17g' % v`` for each v in the float64 array ``x``, one column of
    byte rows per cell; zero bytes are not part of the text."""
    regular = np.isfinite(x) & (x != 0)
    a = np.where(regular, np.abs(x), 1.0)
    with np.errstate(over="ignore", invalid="ignore"):
        digits, exp10, certified = _digits(a)
    # zeros, infinities, NaN and uncertified digits, grouped by their text
    odd: dict[str, list] = {}
    cells = np.flatnonzero(~(regular & certified))
    for i, text in zip(cells.tolist(), ("%.17g" % v for v in x[cells].tolist())):
        odd.setdefault(text, []).append(i)
    rows = _layout(digits, exp10, np.signbit(x) & regular, max(map(len, odd), default=0))
    for text, where in odd.items():
        rows[:, where] = 0
        rows[: len(text), where] = np.frombuffer(text.encode(), dtype=np.uint8)[:, None]
    return rows


def csv_rows(columns: dict) -> Iterator[bytes]:
    """The CSV data rows of ``columns``: ``'%.17g'`` floats and the text of
    the ``flags`` column, comma-separated, formatted in numpy ``SLAB_ROWS``
    rows at a time; a column of +0.0 is written as text.  ``flags`` is a pair
    (spellings, codes): row i reads spellings[codes[i]]."""
    length = len(next(iter(columns.values())))
    floats, texts = {}, {}
    for j, (name, values) in enumerate(columns.items()):
        if name == "flags":
            words, codes = values
            texts[j] = (np.array([word.encode() for word in words], dtype=bytes), codes)
            continue
        col = np.asarray(values, dtype=float)
        if col.any() or np.signbit(col).any():
            floats[j] = col
        else:  # all +0.0, like a closed form's gamma_err
            texts[j] = (np.array([b"0"]), None)
    for start in range(0, length, SLAB_ROWS):
        stop = min(start + SLAB_ROWS, length)
        count = stop - start
        # column-major, so each column's cells are one block of rows
        if floats:
            rows = format_cells(np.concatenate([col[start:stop] for col in floats.values()]))
        widths = [len(rows) if j in floats else texts[j][0].itemsize for j in range(len(columns))]
        ends = np.cumsum(np.add(widths, 1))  # each column's bytes, then its separator
        template = np.zeros(ends[-1], dtype=np.uint8)
        template[ends - 1] = ord(",")
        template[-1] = ord("\n")
        slab = np.tile(template, (count, 1))
        cell = [slice(end - 1 - width, end - 1) for end, width in zip(ends, widths)]
        for b, j in enumerate(floats):
            slab[:, cell[j]] = rows[:, b * count : (b + 1) * count].T
        for j, (spelled, codes) in texts.items():
            raw = spelled[:1] if codes is None else spelled[codes[start:stop]]
            slab[:, cell[j]] = raw[:, None].view(np.uint8)
        yield slab.tobytes().translate(None, b"\0")
