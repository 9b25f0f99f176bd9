"""Oracles for the arithmetic behind the CSV matrix formatter (`aclayers._floatfmt`).

The power-of-ten rows, the decimal exponents and the round-to-odd products
are checked against exact arithmetic on Python ints, as the profile
constants are checked against their closed forms. Byte-for-byte agreement
with `repr` is tested through `ArtifactWriter.matrix` in tests/test_cli.py.
"""

from fractions import Fraction

import numpy as np

from aclayers import _floatfmt

K_RANGE = range(_floatfmt._K_MIN, _floatfmt._K_MAX + 1)


def _floor_log10(x: Fraction) -> int:
    k = len(str(x.numerator)) - len(str(x.denominator))
    while Fraction(10) ** k > x:
        k -= 1
    while Fraction(10) ** (k + 1) <= x:
        k += 1
    return k


def _g(halves: np.ndarray, row: int) -> tuple[int, int]:
    """`(g1, g0)` of a table row from its 32-bit halves."""
    lo1, hi1, lo0, hi0 = (int(h) for h in halves[:, row])
    return hi1 << 32 | lo1, hi0 << 32 | lo0


def test_pow10_rows_bracket_every_power_of_ten():
    halves, r = _floatfmt._pow10_table()
    assert halves.shape == (4, len(K_RANGE)) and len(r) == len(K_RANGE)
    assert int(halves.max()) < 2 ** 32
    for row, k in enumerate(K_RANGE):
        g1, g0 = _g(halves, row)
        assert g1 < 2 ** 63 and g0 < 2 ** 63, k
        g = g1 << 63 | g0
        assert 2 ** 125 <= g - 1 < 2 ** 126, k
        scale = Fraction(2) ** int(r[row])
        assert (g - 1) * scale <= Fraction(10) ** -k < g * scale, k


def test_decimal_exponents_of_normal_doubles_are_exact_and_in_the_table():
    # every biased exponent 1 .. 2046; the 3/4 variant serves c = 2^52 above 1
    biased = np.arange(1, 2047)
    q = biased - 1075
    regular = _floatfmt._decimal_exponent(q, np.zeros(len(q), dtype=bool))
    irregular = _floatfmt._decimal_exponent(q[1:], np.ones(len(q) - 1, dtype=bool))
    assert regular.tolist() == [_floor_log10(Fraction(2) ** int(e)) for e in q]
    assert irregular.tolist() == [_floor_log10(Fraction(3, 4) * Fraction(2) ** int(e))
                                  for e in q[1:]]
    needed = set(regular.tolist()) | set(irregular.tolist())
    assert min(needed) == K_RANGE[0] and max(needed) == K_RANGE[-1]


def _round_to_odd_of(product: int) -> int:
    return product >> 127 | (product % 2 ** 127 != 0)


def _exact_round_to_odd(g1: int, g0: int, cp: int) -> tuple[int, bool]:
    """Schubfach's round-to-odd product on Python ints, and whether it is exact.

    It rounds `v / 2^63` to odd, with `v = floor(g1 cp / 2) + floor(g0 cp / 2^64)`,
    which is `g cp / 2^64` (`g = g1 2^63 + g0`) less at most 2: two low
    words that Schubfach's proof shows never matter for its inputs. So it is
    `floor(g cp / 2^127)`, its lowest bit set when the division is inexact,
    unless `v` is a multiple of `2^63` or one short of one. The second value
    says whether `v` is clear of those.
    """
    v = (g1 * cp >> 1) + (g0 * cp >> 64)
    rounded = v >> 63 | (v % 2 ** 63 != 0)
    clear = v % 2 ** 63 not in (0, 2 ** 63 - 1)
    assert rounded == _round_to_odd_of(((g1 << 63) + g0) * cp) or not clear
    return rounded, clear


# carry edges of cp: all-ones 32-bit halves, 2^32 +- 1, 2^63, 2^64 - 1
EDGE_CP = [1, 2 ** 32 - 1, 2 ** 32, 2 ** 32 + 1, 2 ** 63 - 1, 2 ** 63, 2 ** 63 + 1,
           0xFFFFFFFF00000000, 0xFFFFFFFF00000001, 0x00000001FFFFFFFF,
           0x7FFFFFFFFFFFFFFF, 2 ** 64 - 2, 2 ** 64 - 1]


def _halves(g_rows) -> np.ndarray:
    """`_pow10_table`'s layout of `(g1, g0)` pairs: 32-bit halves in rows."""
    low = 2 ** 32 - 1
    return np.array([[g1 & low, g1 >> 32, g0 & low, g0 >> 32] for g1, g0 in g_rows],
                    dtype=np.uint64).T.copy()


def _check_round_to_odd(g_rows, rows: np.ndarray, cp: np.ndarray) -> int:
    """Checks every product; returns how many are not clear of the low words."""
    got = _floatfmt._round_to_odd(_halves(g_rows).take(rows, axis=1), cp.copy())
    unclear = 0
    for row, c, value in zip(rows.tolist(), cp.tolist(), got.tolist()):
        expected, clear = _exact_round_to_odd(*g_rows[row], c)
        assert value == expected, (row, hex(c))
        unclear += not clear
    return unclear


def test_round_to_odd_matches_exact_products_on_every_table_row():
    halves = _floatfmt._pow10_table()[0]
    g_rows = [_g(halves, row) for row in range(halves.shape[1])]
    rows = np.arange(len(g_rows))
    for c in EDGE_CP:
        _check_round_to_odd(g_rows, rows, np.full(len(rows), c, dtype=np.uint64))
    # random cp: nearly all are checked against the exact division (a dozen
    # of ~10^4 meet the low words, on rows of k = -3 .. 2)
    rng = np.random.default_rng(23)
    rows = np.repeat(rows, 16)
    cp = rng.integers(0, 2 ** 64, size=len(rows), dtype=np.uint64)
    assert _check_round_to_odd(g_rows, rows, cp) < len(rows) // 100


def test_round_to_odd_carries_through_all_ones_halves_of_g():
    # every 32-bit half of g1 and g0 at its largest, at zero and alone
    top, low = 2 ** 31 - 1, 2 ** 32 - 1  # the high half of a 63-bit word, a low half
    g_rows = [(g1, g0) for g1 in (top << 32 | low, low, top << 32, 2 ** 62, 1)
              for g0 in (top << 32 | low, low, top << 32, 0, 1)]
    rng = np.random.default_rng(29)
    rows = np.repeat(np.arange(len(g_rows)), len(EDGE_CP) + 12)
    cp = rng.integers(0, 2 ** 64, size=len(rows), dtype=np.uint64)
    cp.reshape(len(g_rows), -1)[:, :len(EDGE_CP)] = EDGE_CP
    _check_round_to_odd(g_rows, rows, cp)
