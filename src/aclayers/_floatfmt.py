"""Shortest round-trip text of float64 arrays, byte for byte `repr`'s.

`reprs(bits)` turns distinct float64 bit patterns into NUL-padded ASCII
rows, each holding `repr(float)` of its value. Normal values go through
Schubfach (R. Giulietti, "The Schubfach way to render doubles", 2020; Java's
`Double.toString` since JDK 19), which finds the same shortest digits,
nearest the value with ties to even, that Python's `repr` prints, using only
fixed-width integer arithmetic, so it runs on whole numpy arrays: three
round-to-odd 126×64-bit products against a table of powers of ten pick the
decimal, nine divisions by 10 of its two 9-digit halves spell it out, and
one gather lays it out by `repr`'s rules. Zeros, subnormals, infinities and
NaNs keep `repr` itself, once per value.

The wrapping 64-bit arithmetic runs on arrays only: numpy warns on integer
overflow of scalars, not of arrays.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

WIDTH = 24  # longest repr: "-" + 17 digits + "." + "e-" + 3 exponent digits
_DIGITS = 17
_K_MIN, _K_MAX = -324, 292  # decimal exponents k = floor(log10 2^q) of normal doubles
_M32 = 0xFFFFFFFF
_M63 = (1 << 63) - 1
# source columns of a value's text (`_text_tables`): a "0", the 17
# significand digits, fixed characters, the exponent's sign and 3 digits
_ZERO, _SIG = 0, 1
_NUL, _MINUS, _POINT, _E, _EXP_SIGN = range(_SIG + _DIGITS, _SIG + _DIGITS + 5)
_SOURCE = _EXP_SIGN + 4
_POSITIONAL = range(-3, 17)  # decimal-point positions `repr` writes without exponent
_LAYOUTS = len(_POSITIONAL) + 2  # then "e" with 2 and with 3 exponent digits


@lru_cache(maxsize=None)
def _pow10_table() -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Rows `g = g1 2^63 + g0` and `r` for `k = _K_MIN .. _K_MAX`.

    `(g - 1) 2^r <= 10^-k < g 2^r` with `2^125 <= g - 1 < 2^126`, built
    exactly from Python ints.
    """
    g1, g0, r = [], [], []
    for k in range(_K_MIN, _K_MAX + 1):
        if k <= 0:
            p = 10 ** -k
            e = p.bit_length() - 1  # floor(log2 10^-k)
            floor = p << (125 - e) if e <= 125 else p >> (e - 125)
        else:
            e = -(10 ** k).bit_length()  # floor(log2 10^-k): 10^k is no power of 2
            floor = (1 << (125 - e)) // 10 ** k
        g = floor + 1
        g1.append(g >> 63)
        g0.append(g & _M63)
        r.append(e - 125)
    return (np.array(g1, dtype=np.uint64), np.array(g0, dtype=np.uint64),
            np.array(r, dtype=np.int64))


@lru_cache(maxsize=None)
def _text_tables() -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Layouts, and each final decimal exponent's tail columns and layout.

    Row `(neg * _DIGITS + n - 1) * _LAYOUTS + layout` of the first table
    spells the `repr` of a value with sign `neg` and `n` significant digits
    from its source columns, NUL-padded. Layouts `0 .. 19` are positional
    with the decimal point after digit `-3 .. 16`; `20` and `21` are
    exponential with 2 and 3 exponent digits. The other two tables run over
    the exponents `k` of `f 10^k` with 17-digit `f`, from `_K_MIN - 1`: the
    source columns from `_NUL` on, and the layout `repr` picks.
    """
    layouts = np.full((2, _DIGITS, _LAYOUTS, WIDTH), _NUL, dtype=np.intp)
    for neg in (0, 1):
        for n in range(1, _DIGITS + 1):
            digits = list(range(_SIG, _SIG + n))
            for layout in range(_LAYOUTS):
                if layout < len(_POSITIONAL):
                    point = _POSITIONAL[layout]
                    if point <= 0:
                        cols = [_ZERO, _POINT] + [_ZERO] * -point + digits
                    elif point < n:
                        cols = digits[:point] + [_POINT] + digits[point:]
                    else:
                        cols = digits + [_ZERO] * (point - n) + [_POINT, _ZERO]
                else:
                    places = layout - len(_POSITIONAL) + 2
                    cols = (digits[:1] + ([_POINT] + digits[1:] if n > 1 else [])
                            + [_E, _EXP_SIGN]
                            + list(range(_SOURCE - places, _SOURCE)))
                cols = [_MINUS] * neg + cols
                layouts[neg, n - 1, layout, :len(cols)] = cols
    tails, layout_of_k = [], []
    for k in range(_K_MIN - 1, _K_MAX + 1):
        exp = k + _DIGITS - 1  # of the leading digit
        tails.append(b"\0-.e" + f"{exp:+04d}".encode())
        layout_of_k.append(exp + 1 - _POSITIONAL[0] if exp + 1 in _POSITIONAL
                           else len(_POSITIONAL) + (abs(exp) >= 100))
    return (layouts.reshape(-1, WIDTH),
            np.frombuffer(b"".join(tails), dtype=np.uint8).reshape(len(tails), -1),
            np.array(layout_of_k, dtype=np.intp))


def _mulhi(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """High 64 bits of the 128-bit products `a * b` of uint64 arrays."""
    a0, a1 = a & _M32, a >> 32
    b0, b1 = b & _M32, b >> 32
    p01, p10 = a0 * b1, a1 * b0
    mid = ((a0 * b0) >> 32) + (p01 & _M32) + (p10 & _M32)
    return a1 * b1 + (p01 >> 32) + (p10 >> 32) + (mid >> 32)


def _round_to_odd(g1: np.ndarray, g0: np.ndarray, cp: np.ndarray) -> np.ndarray:
    """`floor(g cp / 2^127)`, its lowest bit set when the division is inexact."""
    z = ((g1 * cp) >> 1) + _mulhi(g0, cp)
    return (_mulhi(g1, cp) + (z >> 63)) | (((z & _M63) + _M63) >> 63)


def _decimal_exponent(q: np.ndarray, irregular: np.ndarray) -> np.ndarray:
    """`floor(log10 2^q)`, or `floor(log10 (3/4) 2^q)` where `irregular`."""
    return (q * 661_971_961_083 - irregular * 274_743_187_321) >> 41


def _schubfach(bits: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Shortest nearest decimal `f 10^k` of normal doubles, `10^16 <= f < 10^17`."""
    exponent = ((bits >> 52) & 0x7FF).astype(np.int64)
    fraction = bits & ((1 << 52) - 1)
    c = (fraction | (1 << 52)).astype(np.int64)
    q = exponent - 1075
    # at a power of two the gap to the next double below is half the gap
    # above, except at the smallest normal exponent
    irregular = (fraction == 0) & (exponent > 1)
    k = _decimal_exponent(q, irregular)
    g1, g0, r = (t[k - _K_MIN] for t in _pow10_table())
    h = q + r + 127  # so that g (4c) 2^h / 2^127 = 4 v / 10^k
    cb = c << 2
    cp = np.stack([cb, cb - 2 + irregular, cb + 2]) << h
    vb, vbl, vbr = _round_to_odd(g1, g0, cp.view(np.uint64)).view(np.int64)
    # interval ends belong to the value when c is even (round half to even)
    out = c & 1
    lower, upper = vbl + out, vbr - out
    s = vb >> 2
    # one digit shorter: at most one multiple of 10^(k+1) lies in the interval
    sp = s // 10 * 10
    up, wp = sp << 2 >= lower, (sp + 10) << 2 <= upper
    # otherwise s or s + 1 in units of 10^k, the nearer one, ties to even
    u, w = s << 2 >= lower, (s + 1) << 2 <= upper
    cmp = vb - 4 * s - 2
    nearer = np.where((cmp < 0) | ((cmp == 0) & ((s & 1) == 0)), s, s + 1)
    f = np.where(up != wp, np.where(up, sp, sp + 10),
                 np.where(u != w, np.where(u, s, s + 1), nearer))
    short = f < 10 ** (_DIGITS - 1)
    return np.where(short, f * 10, f), k - short


def reprs(bits: np.ndarray) -> np.ndarray:
    """`repr(float)` of each float64 bit pattern as a NUL-padded uint8 row of WIDTH."""
    bits = bits.view(np.uint64)
    exponent = (bits >> 52) & 0x7FF
    special = (exponent == 0) | (exponent == 0x7FF)
    normal = bits[~special]
    f, k = _schubfach(normal)
    layouts, tails, layout_of_k = _text_tables()
    # one row per digit place: two 9-digit halves, the first led by a zero
    digits = np.empty((_SIG + _DIGITS, len(f)), dtype=np.uint8)
    hi = f // 10 ** 9
    x = np.stack([hi, f - hi * 10 ** 9]).astype(np.int32)
    for i in range(8, -1, -1):
        tens = x // 10
        digits[i::9] = x - tens * 10
        x = tens
    zeros = np.argmax(digits[:_ZERO:-1] != 0, axis=0)  # trailing, of 17 digits
    digits += ord("0")
    source = np.empty((len(f), _SOURCE), dtype=np.uint8)
    source[:, :_NUL] = digits.T
    k -= _K_MIN - 1  # row of the exponent tables
    source[:, _NUL:] = tails[k]
    neg = (normal >> 63).astype(np.intp)
    cols = layouts.take((neg * _DIGITS + _DIGITS - 1 - zeros) * _LAYOUTS
                        + layout_of_k[k], axis=0)
    cols += np.arange(0, len(f) * _SOURCE, _SOURCE)[:, None]
    text = np.empty((len(bits), WIDTH), dtype=np.uint8)
    text[~special] = source.take(cols)
    for i in np.flatnonzero(special):
        b = repr(float(bits[i:i + 1].view(np.float64)[0])).encode()
        text[i] = np.frombuffer(b.ljust(WIDTH, b"\0"), dtype=np.uint8)
    return text
