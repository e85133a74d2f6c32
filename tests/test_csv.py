import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, strategies as st

from qchan import _csv
from qchan._csv import SLAB_ROWS, csv_rows, format_cells


def texts(values) -> list:
    rows = format_cells(np.asarray(values, dtype=float))
    return [column[column != 0].tobytes().decode() for column in rows.T]


def assert_matches_percent_g(values):
    values = np.asarray(values, dtype=float)
    assert texts(values) == [format(v, ".17g") for v in values.tolist()]


@given(st.lists(st.floats(allow_nan=True, allow_infinity=True, allow_subnormal=True),
                min_size=1, max_size=40))
def test_cells_match_percent_g_on_any_floats(values):
    assert_matches_percent_g(values)


@given(st.lists(st.integers(0, 2**64 - 1), min_size=1, max_size=40))
def test_cells_match_percent_g_on_any_bit_pattern(bits):
    # every exponent equally often: subnormals, NaN payloads and signs included
    assert_matches_percent_g(np.array(bits, dtype=np.uint64).view(np.float64))


def _powers_of_ten():
    """The doubles nearest 10^k for every k a double reaches, with their
    one-ulp neighbours."""
    nearest = np.array([float(f"1e{k}") for k in range(-323, 309)])
    return np.concatenate([nearest, np.nextafter(nearest, 0.0), np.nextafter(nearest, np.inf)])


def _carried():
    """Doubles below a power of ten whose 17 digits round up to it."""
    found = []
    for x in _powers_of_ten().tolist():
        text = format(x, ".17g")
        if text.split("e")[0].replace(".", "").strip("0") == "1" and Fraction(x) < Fraction(text):
            found.append(x)
    return found


def _ties():
    """Doubles x = q / 2^(s+1) with q 5^s odd: x 10^s = q 5^s / 2 lies exactly
    halfway between two 17-digit integers, for s = 1 ... 24 (10^s is inexact
    from s = 23 on)."""
    found = []
    for s in range(1, 25):
        low = -(-2 * 10**16 // 5**s)
        for q in range(low | 1, min(2 * 10**17 // 5**s, low + 80), 2):
            if q < 2**53:
                found.append(q / 2 ** (s + 1))
    return found


ADVERSARIAL = {
    "powers-of-ten": _powers_of_ten(),
    # exact ties of the 17th digit, rounded half to even; and 17-digit integers
    "ties": np.array(
        _ties() + [2.0**55 + 2 * k for k in range(-500, 500)] + [12345678901234567.5]
    ),
    # where %g switches between fixed point and exponent form
    "switch-points": np.array(
        [v for x in (1e-5, 1e-4, 1e16, 1e17)
         for v in (np.nextafter(x, 0.0), x, np.nextafter(x, 1e300))]
    ),
    "extremes": np.array([5e-324, 1e-323, 2.2250738585072014e-308, 2.225073858507201e-308,
                          1.7976931348623157e308, 1.3e300, 1e300, 1e-300]),
}


@pytest.mark.parametrize("name", ADVERSARIAL)
def test_cells_match_percent_g_on_adversarial_sets(name):
    values = ADVERSARIAL[name]
    assert_matches_percent_g(np.concatenate([values, -values]))


def test_ties_are_exact_halves():
    ties = _ties()
    assert len(ties) > 500
    for x in ties:
        scale = 16 - math.floor(math.log10(x))
        assert (Fraction(x) * 10**scale).denominator == 2


def test_round_up_across_a_power_of_ten():
    carried = _carried()
    assert len(carried) >= 10  # 10^k rounds to a double just below it for these k
    assert_matches_percent_g(carried)


def test_uncertified_cells_fall_back_to_percent_g(monkeypatch):
    # with every inexact 10^s distrusted, all cells outside 1e-6 <= |x| < 1e17
    # go through '%.17g' %, and the bytes stay the same
    table = _csv._powers().copy()
    table[:, 4] = np.where(table[:, 4] < 0.0, -1.0, 1.0)
    monkeypatch.setattr(_csv, "_powers", lambda: table)
    values = np.concatenate([_powers_of_ten(), np.random.default_rng(5).normal(size=300)])
    assert_matches_percent_g(values)
    assert_matches_percent_g(-values)


def test_scaled_product_is_exact_for_exact_powers():
    # Dekker's two-product: p + t equals |x| 10^s exactly for 0 <= s <= 22
    rng = np.random.default_rng(11)
    a = rng.uniform(1.0, 10.0, 200) * 10.0 ** rng.integers(-6, 17, 200)
    s = 16 - np.floor(np.log10(a)).astype(np.int64)
    p, t, tol = _csv._scaled(a, s)
    assert np.all(tol == -1.0)
    for ai, si, pi, ti in zip(a.tolist(), s.tolist(), p.tolist(), t.tolist()):
        assert Fraction(pi) + Fraction(ti) == Fraction(ai) * 10**si


def test_double_double_error_stays_below_the_certification_bound():
    # where 10^s is inexact, digits count only if the fraction of p + t is
    # further than tol from 1/2; that needs |p + t - |x| 10^s| < tol
    rng = np.random.default_rng(13)
    powers = np.concatenate([np.arange(-280, -6), np.arange(17, 300)])
    a = rng.uniform(1.0, 10.0, 2000) * 10.0 ** rng.choice(powers, 2000)
    s = 16 - np.floor(np.log10(a)).astype(np.int64)
    p, t, tol = _csv._scaled(a, s)
    assert np.all(tol == _csv._TOL)
    worst = max(
        abs(Fraction(pi) + Fraction(ti) - Fraction(ai) * Fraction(10) ** si)
        for ai, si, pi, ti in zip(a.tolist(), s.tolist(), p.tolist(), t.tolist())
    )
    assert 0 < worst <= 4.2e-15 < _csv._TOL


def test_no_warnings_at_the_extremes():
    # the split of |x| overflows above ~1e300; pytest turns warnings into errors
    assert_matches_percent_g([1.7976931348623157e308, -1e308, 5e-324, math.nan, math.inf])


# ------------------------------------------------------------------ slabs


def _table(rows: int) -> dict:
    t = np.linspace(0.0, 10.0, rows)
    flags = [""] * rows
    flags[rows // 3] = "pole"
    return {
        "t": t,
        "f_or_coherence": np.cos(t) ** 2,
        "p": 1.0 - np.cos(t) ** 2,
        "gamma": 2.0 * np.tan(t),
        "gamma_err": np.zeros(rows),
        "flags": flags,
        "omega_phase": -0.3 * t,
    }


def _row_template(columns) -> bytes:
    rows = zip(*(
        map(str, values) if name == "flags" else (format(v, ".17g") for v in values.tolist())
        for name, values in columns.items()
    ))
    return "".join(",".join(row) + "\n" for row in rows).encode()


@pytest.mark.parametrize("slab", [1, 7, SLAB_ROWS])
def test_bytes_do_not_depend_on_slab_size(monkeypatch, slab):
    columns = _table(3 * 7 * 11)
    monkeypatch.setattr(_csv, "SLAB_ROWS", slab)
    assert b"".join(csv_rows(columns)) == _row_template(columns)


def test_bytes_across_slab_edges_at_the_production_slab_size():
    rows = 2 * SLAB_ROWS + 3
    columns = _table(rows)
    # NaN, infinities and -0.0 on both sides of each slab edge, mixed flags
    edges = [0, SLAB_ROWS - 1, SLAB_ROWS, 2 * SLAB_ROWS - 1, 2 * SLAB_ROWS, rows - 1]
    specials = [math.nan, math.inf, -math.inf, -0.0, math.nan, -math.inf]
    for name in ("f_or_coherence", "gamma", "omega_phase"):
        columns[name][edges] = specials
        specials = specials[1:] + specials[:1]
    columns["gamma_err"][2 * SLAB_ROWS] = -0.0  # a lone -0.0 makes the column floats
    for i, flag in zip(edges, ["pole", "capped", "pole", "", "capped", "pole"]):
        columns["flags"][i] = flag
    chunks = list(csv_rows(columns))
    assert len(chunks) == 3
    assert b"".join(chunks) == _row_template(columns)


def _peak_bytes(columns) -> int:
    tracemalloc.start()
    try:
        for _ in csv_rows(columns):
            pass
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_writer_intermediates_stay_within_a_slab(monkeypatch):
    rows = 100_000
    columns = _table(rows)
    seen = []
    format_slab = _csv.format_cells
    monkeypatch.setattr(_csv, "format_cells", lambda x: seen.append(x.size) or format_slab(x))
    widest = 0
    for chunk in csv_rows(columns):
        widest = max(widest, len(chunk))
    floats = len(columns) - 2  # flags and the all-zero gamma_err are written as text
    assert len(seen) == -(-rows // SLAB_ROWS)
    assert max(seen) == SLAB_ROWS * floats
    assert widest <= SLAB_ROWS * len(columns) * 25  # at most 24 bytes and a separator a cell
    # the peak does not grow with the table: 10^5 rows against two slabs
    assert _peak_bytes(columns) <= 1.25 * _peak_bytes(_table(2 * SLAB_ROWS))
