"""Shortest round-trip text of float64 arrays, byte for byte `repr`'s.

`reprs(bits)` turns distinct float64 bit patterns into NUL-padded ASCII
fields that spell `repr(float)` of each value once their NULs are dropped.
Normal values go through Schubfach (R. Giulietti, "The Schubfach way to
render doubles", 2020; Java's `Double.toString` since JDK 19), which finds
the same shortest digits, nearest the value with ties to even, that Python's
`repr` prints, using only fixed-width integer arithmetic, so it runs on whole
numpy arrays. Three round-to-odd 126×64-bit products against a table of
powers of ten pick the decimal. They are taken one at a time and in place,
from the 32-bit halves of the table row gathered once for all three, so a
block of values holds only a few uint64 arrays of its length at once. The
17 digits are then spelled eight at a time into the bytes of uint64 words
(SWAR division by 10^4, 10^2 and 10), and `repr`'s layout is made with
per-exponent masks and shifts of those words, with no byte-wide gather
index. Zeros, subnormals, infinities and NaNs keep `repr` itself, once per
value.

The wrapping 64-bit arithmetic runs on arrays only: numpy warns on integer
overflow of scalars, not of arrays.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

WIDTH = 24  # longest repr: "-" + 17 digits + "." + "e-" + 3 exponent digits
FIELD = WIDTH + 1  # a `reprs` row: the text, then a NUL for a separator
_DIGITS = 17
_K_MIN, _K_MAX = -324, 292  # decimal exponents k = floor(log10 2^q) of normal doubles
_M32 = 0xFFFFFFFF
_M63 = (1 << 63) - 1
_WORDS = WIDTH // 8  # uint64 words of a text
_SUFFIX = 19  # text column of an exponent's "e"
_ONE = 0x3FF0000000000000  # 1.0, formatted in place of special values
_BYTES = 0x0101010101010101  # a 1 in each byte of a word


@lru_cache(maxsize=None)
def _pow10_table() -> tuple[np.ndarray, np.ndarray]:
    """32-bit halves of `g = g1 2^63 + g0`, and `r`, for `k = _K_MIN .. _K_MAX`.

    The first array's rows are the low and high halves of `g1`, then of
    `g0`. `(g - 1) 2^r <= 10^-k < g 2^r` with `2^125 <= g - 1 < 2^126`,
    built exactly from Python ints.
    """
    halves, r = [], []
    for k in range(_K_MIN, _K_MAX + 1):
        if k <= 0:
            p = 10 ** -k
            e = p.bit_length() - 1  # floor(log2 10^-k)
            floor = p << (125 - e) if e <= 125 else p >> (e - 125)
        else:
            e = -(10 ** k).bit_length()  # floor(log2 10^-k): 10^k is no power of 2
            floor = (1 << (125 - e)) // 10 ** k
        g = floor + 1
        g1, g0 = g >> 63, g & _M63
        halves.append((g1 & _M32, g1 >> 32, g0 & _M32, g0 >> 32))
        r.append(e - 125)
    return (np.array(halves, dtype=np.uint64).T.copy(),
            np.array(r, dtype=np.int64))


def _words(text: bytes) -> list[int]:
    """The uint64 words of a text's first WIDTH bytes, NUL-padded, byte 0 lowest."""
    text = text.ljust(WIDTH, b"\0")
    return [int.from_bytes(text[i:i + 8], "little") for i in range(0, WIDTH, 8)]


@lru_cache(maxsize=None)
def _text_tables() -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """What `repr` does with the digits `d0 .. d16` of `f 10^k`, per `k`.

    A text starts with its sign byte, and its digits are first set at
    columns 1 .. 17. Per exponent `k` from `_K_MIN - 1`, `repr` then
    inserts `L` bytes at some column: "0." and up to three zeros before the
    digits (`1e-4 <= |v| < 1`), a "." after digit `p` (`1 <= |v| < 1e16`),
    or a "." after the first digit and an exponent from column `_SUFFIX`
    on. The first table holds, per `k`, the least number of digits `repr`
    writes (digits past the last nonzero one are zeros) and `8 L`; the
    second, the words of the columns before the insert; the third, the
    inserted bytes. The fourth keeps the first `c` digits, `c = 0 .. 17`.
    """
    counts, before, inserts = [], [], []
    for k in range(_K_MIN - 1, _K_MAX + 1):
        point = k + _DIGITS  # of the decimal point, after digit `point - 1`
        suffix = b""
        if -3 <= point <= 0:
            at, insert, least = 0, b"0." + b"0" * -point, 1
        elif 1 <= point <= 16:
            at, insert, least = point, b".", point + 1
        else:
            at, insert, least = 1, b".", 1
            exp = f"{point - 1:+04d}".encode()  # sign and three digits
            suffix = b"e" + exp[:1] + (exp[1:] if exp[1:2] != b"0" else b"\0" + exp[2:])
        start = 1 + at
        counts.append((least, 8 * len(insert)))
        before.append(_words(b"\xff" * start))
        inserts.append(_words((b"\0" * start + insert).ljust(_SUFFIX, b"\0") + suffix))
    keep = [_words(b"\0" + b"\xff" * c) for c in range(_DIGITS + 1)]
    return tuple(np.array(t, dtype=np.uint64).T.copy()
                 for t in (counts, before, inserts, keep))


def _round_to_odd(g: np.ndarray, cp: np.ndarray) -> np.ndarray:
    """`floor(g cp / 2^127)`, odd if inexact, for `g = g1 2^63 + g0` and uint64 `cp`.

    `g` holds the 32-bit halves of `g1` and of `g0` (rows as in
    `_pow10_table`); `cp` is overwritten. As in Schubfach, the low 64 bits
    of `g0 cp` and the lowest bit of `g1 cp` are left out, which its proof
    allows. The 64×64-bit products are built from 32×32-bit ones (Warren,
    "Hacker's Delight", 8-2), in place, in six arrays of the length of `cp`.
    """
    g1_lo, g1_hi, g0_lo, g0_hi = g
    lo = cp & _M32
    hi = np.right_shift(cp, 32, out=cp)
    # z = hi64(g0 cp)
    z = g0_lo * lo
    z >>= 32
    t = g0_hi * lo
    t += z
    np.bitwise_and(t, _M32, out=z)
    t >>= 32
    x = g0_lo * hi
    z += x
    np.multiply(g0_hi, hi, out=x)
    x += t
    z >>= 32
    z += x
    # g1 cp: its high word, and z += its low word / 2, so that z holds bits
    # 64 .. 127 of g cp
    np.multiply(g1_lo, lo, out=t)  # low by low
    np.multiply(g1_hi, lo, out=lo)  # high by low
    y = g1_lo * hi  # low by high
    hi *= g1_hi  # high by high
    mid = np.right_shift(t, 32, out=x)
    t &= _M32
    t >>= 1
    z += t
    np.bitwise_and(y, _M32, out=t)
    mid += t
    np.bitwise_and(lo, _M32, out=t)
    mid += t
    y >>= 32
    hi += y
    lo >>= 32
    hi += lo
    np.right_shift(mid, 32, out=t)
    hi += t
    mid <<= 31
    mid &= _M63
    z += mid
    np.right_shift(z, 63, out=t)
    hi += t
    # the low bit: bits 64 .. 126 of g cp are not all zero
    z &= _M63
    z += _M63
    z >>= 63
    hi |= z
    return hi


def _decimal_exponent(q: np.ndarray, irregular: np.ndarray) -> np.ndarray:
    """`floor(log10 2^q)`, or `floor(log10 (3/4) 2^q)` where `irregular`."""
    return (q * 661_971_961_083 - irregular * 274_743_187_321) >> 41


def _schubfach(bits: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Shortest nearest decimal `f 10^k` of normal doubles, `10^16 <= f < 10^17`."""
    q = (bits >> 52).view(np.int64)
    q &= 0x7FF
    fraction = bits & ((1 << 52) - 1)
    # at a power of two the gap to the next double below is half the gap
    # above, except at the smallest normal exponent
    irregular = fraction == 0
    irregular &= q > 1
    cb = fraction.view(np.int64)
    cb |= 1 << 52
    cb <<= 2  # 4c
    q -= 1075
    row = _decimal_exponent(q, irregular)
    row -= _K_MIN  # of k
    g, r = _pow10_table()
    g = g.take(row, axis=1)  # split once, for all three products
    h = r.take(row)
    h += q
    h += 127  # so that g (4c) 2^h / 2^127 = 4 v / 10^k
    del q
    # the value and the ends of its rounding interval, times 4 / 10^k
    vb = _round_to_odd(g, (cb << h).view(np.uint64)).view(np.int64)
    cp = cb - 2
    cp += irregular
    cp <<= h
    lower = _round_to_odd(g, cp.view(np.uint64)).view(np.int64)
    cb += 2
    cb <<= h
    upper = _round_to_odd(g, cb.view(np.uint64)).view(np.int64)
    del cp, cb, h, g
    # interval ends belong to the value when c is even (round half to even)
    out = (bits & 1).view(np.int64)
    lower += out
    upper -= out
    s = vb >> 2
    # s or s + 1 in units of 10^k: the nearer one, ties to even, unless
    # only one of them lies in the interval: s + 1 for two of "it is
    # nearer", "s + 1 is in", "s is not in"
    vb &= 3
    np.bitwise_and(s, 1, out=out)
    vb += out
    votes = (vb > 2).view(np.uint8)
    votes += (np.left_shift(s, 2, out=vb) < lower).view(np.uint8)
    np.add(s, 1, out=out)
    votes += (np.left_shift(out, 2, out=out) <= upper).view(np.uint8)
    f = s
    f += votes > 1
    del votes
    # one digit shorter, where just one of sp and sp + 10 lies in the
    # interval (at most one multiple of 10^(k+1) does). The selections go by
    # masks of all ones: branches on the data would mispredict.
    sp = s // 10
    sp *= 10
    sp_in = (np.left_shift(sp, 2, out=vb) >= lower).astype(np.int64)
    np.add(sp, 10, out=out)
    just_one = (np.left_shift(out, 2, out=vb) <= upper).astype(np.int64)
    del lower, upper, vb
    just_one ^= sp_in
    np.negative(sp_in, out=sp_in)
    sp ^= out
    sp &= sp_in
    sp ^= out  # sp if it is in, else sp + 10
    np.negative(just_one, out=just_one)
    sp ^= f
    sp &= just_one
    f ^= sp
    short = f < 10 ** (_DIGITS - 1)
    np.multiply(f, 10, out=f, where=short)
    k = row
    k += _K_MIN
    k -= short
    return f, k


def _swar_digits(x: np.ndarray) -> np.ndarray:
    """The 8 decimal digits of each `x < 10^8` as bytes of its word, the first lowest.

    Each split halves the lanes: by 10^4 across the two 32-bit halves, then
    by 100 and 10 within lanes by multiply and shift (exact below 10^4 and
    100). `hi | (x - d hi) << b` is computed as `(x << b) - hi (d 2^b - 1)`.
    """
    hi = x // 10_000
    x <<= 32
    x -= hi * ((10_000 << 32) - 1)
    for d, inverse, shift, mask, width in ((100, 5243, 19, 0x0000007F0000007F, 16),
                                          (10, 103, 10, 0x000F000F000F000F, 8)):
        np.multiply(x, inverse, out=hi)
        hi >>= shift
        hi &= mask
        x <<= width
        x -= hi * ((d << width) - 1)
    return x


def reprs(bits: np.ndarray) -> np.ndarray:
    """`repr(float)` of each float64 bit pattern, as a uint8 row of FIELD.

    A row spells the repr once its NUL bytes are dropped; its last byte is
    NUL, room for a separator.
    """
    bits = bits.view(np.uint64)
    n = len(bits)
    special = (bits >> 52) & 0x7FF
    special -= 1
    special = special >= 0x7FE  # zero or subnormal, infinity or NaN
    normal = np.where(special, _ONE, bits) if special.any() else bits
    f, k = _schubfach(normal)
    f = f.view(np.uint64)
    counts, before, inserts, keep = _text_tables()
    row = k
    row -= _K_MIN - 1
    # digits d0 | d1 .. d8 | d9 .. d16
    digits = np.empty((2, n), dtype=np.uint64)
    head = f // 10 ** 8
    f -= head * 10 ** 8
    digits[1] = f
    lead = head // 10 ** 8
    head -= lead * 10 ** 8
    digits[0] = head
    del f, head
    digits = _swar_digits(digits)
    # how many digits `repr` writes: through the last nonzero one, at least
    # `least` of the layout
    nonzero = digits + 0x7F * _BYTES
    nonzero &= 0x80 * _BYTES  # the top bit of each nonzero digit's byte
    last = nonzero[1].astype(np.float64)
    last *= 2.0 ** 64
    last += nonzero[0]
    c = last.view(np.int64)
    del nonzero
    c >>= 52  # 1023 + 8 j + 7 if d(j + 1) is the last nonzero digit; 0 if none
    c -= 1014
    c >>= 3
    np.maximum(c, counts[0].take(row).view(np.int64), out=c)
    # the digits at columns 1 .. 17, those `repr` leaves out NUL
    digits |= 0x30 * _BYTES
    lead |= 0x30
    text = np.empty((_WORDS, n), dtype=np.uint64)
    np.left_shift(lead, 8, out=text[0])
    text[0] |= digits[0] << 16
    np.right_shift(digits[0], 48, out=text[1])
    text[1] |= digits[1] << 16
    np.right_shift(digits[1], 48, out=text[2])
    del digits, lead
    text &= keep.take(c, axis=1)
    del c, last
    # the insert: the columns from it on move up by L bytes
    up = counts[1].take(row)
    low = before.take(row, axis=1)
    low &= text
    text ^= low
    carry = text[:-1] >> 64 - up
    text <<= up
    text[1:] |= carry
    text |= low
    del up, low, carry
    text |= inserts.take(row, axis=1)
    # a lone digit takes no point: "1e+16"
    np.bitwise_and(text[0], ~np.uint64(0xFF << 16), out=text[0],
                   where=(text[0] & 0xFF << 24) == 0)
    text[0] |= (normal >> 63) * ord("-")
    fields = np.zeros((n, FIELD), dtype=np.uint8)
    # the words, little-endian, on each field's first WIDTH bytes
    np.ndarray((n, _WORDS), dtype="<u8", buffer=fields, strides=(FIELD, 8))[...] = text.T
    for i in np.flatnonzero(special):
        b = repr(float(bits[i:i + 1].view(np.float64)[0])).encode()
        fields[i, :WIDTH] = np.frombuffer(b.ljust(WIDTH, b"\0"), dtype=np.uint8)
    return fields
