"""Oracles for the tables behind the CSV matrix formatter (`aclayers._floatfmt`).

The power-of-ten rows and the decimal exponents are checked against exact
rational arithmetic on Python ints, as the profile constants are checked
against their closed forms. Byte-for-byte agreement with `repr` is tested
through `ArtifactWriter.matrix` in tests/test_cli.py.
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


def test_pow10_rows_bracket_every_power_of_ten():
    g1, g0, r = _floatfmt._pow10_table()
    assert len(g1) == len(g0) == len(r) == len(K_RANGE)
    for row, k in enumerate(K_RANGE):
        g = int(g1[row]) << 63 | int(g0[row])
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
