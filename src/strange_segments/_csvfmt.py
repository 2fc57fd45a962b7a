"""CSV rows of integer and float columns, with the bytes of `%d` and `%.17g`.

Python's `%.17g` goes through the bignum path of Gay's correctly rounded
dtoa, one cell at a time. For a fixed 17 significant digits the exact
decimal is reachable with integer arithmetic alone (Adams 2019, "Ryu
revisited: printf floating point conversion"): write ``|x| = m 2^q`` with a
53-bit integer ``m`` and take ``D = round_half_even(m 5^k 2^(q+k))`` with
``k = 16 - X``, where ``X = floor(log10 |x|)``. ``5^20 < 2^47``, so
``m 5^k`` fits in two uint64 words built from 32-bit limb products, and
numpy does that for a whole column at once. ``D`` holds the 17 digits, and
``X`` places the point the way `%.17g` does: `%f` style, since
``-4 <= X <= 16`` on the covered range ``1e-4 <= |x| < 1e17``, with trailing
fractional zeros and a bare point stripped.

A cell is a few pieces of fixed width, each a little-endian byte string in
uint64 words (one array per word), with 0 in every unused byte: a float is
its sign and ``0.`` prefix, then its digits with the point; an integer is
its sign, then its digits. `rows` ORs the pieces of a row into one matrix
of words at fixed byte offsets, and a single boolean compress drops the
zero bytes, which leaves the block's text.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

_POW5 = np.array([5**k for k in range(21)], dtype=np.uint64)  # 5^20 < 2^47
_POW10 = np.array([10**k for k in range(1, 20)], dtype=np.uint64)  # 10^1 .. 10^19
_LOW32 = 0xFFFFFFFF
_E16, _E17 = 10**16, 10**17
_WORD = np.dtype("<u8")
_SPAN = 32  # byte positions in a piece that the mask tables cover


def _le(text: str) -> int:
    """The bytes of text as a little-endian integer: its first byte is the lowest."""
    return int.from_bytes(text.encode(), "little")


def _bytes(lo, hi) -> np.ndarray:
    """Words 0..2 of a piece with bytes lo..hi-1 set to 0xff and the others 0; shape (3, ...)."""
    below = np.array([(1 << 8 * i) - 1 for i in range(9)], dtype=np.uint64)
    return np.stack([below[np.clip(hi - 8 * k, 0, 8)] & ~below[np.clip(lo - 8 * k, 0, 8)]
                     for k in range(3)])


def _digit_tables() -> tuple[np.ndarray, np.ndarray]:
    """Over the 4-digit groups 0000..9999: the four ASCII bytes, and (row j, for the
    group at digits 4j+1..4j+4 of D) the digits of D up to its last nonzero one,
    or 1, the lead digit, where the group is 0000."""
    i = np.arange(10_000)
    digits = [i // 1000, i // 100 % 10, i // 10 % 10, i % 10]
    group = sum((d + ord("0")).astype(np.uint64) << 8 * j for j, d in enumerate(digits))
    last = np.select([digits[3] > 0, digits[2] > 0, digits[1] > 0], [4, 3, 2], 1)
    kept = np.where(i > 0, np.arange(1, 17, 4)[:, None] + last, 1).astype(np.uint8)
    return group, kept


def _span_tables() -> tuple[np.ndarray, np.ndarray]:
    """At index 32 p + s: the bytes strictly between p and s, and a '.' at p when p < s."""
    p, s = np.divmod(np.arange(_SPAN * _SPAN), _SPAN)
    return _bytes(p + 1, s), _bytes(p, np.minimum(p + 1, s)) & np.uint64(_le("." * 8))


_GROUP4, _KEPT = _digit_tables()
# "0." and the zeros before the first digit, by -X for X = 0, -1, ..., -4.
_PREFIX = np.array([_le("0.000"[: 1 + x] if x else "") for x in range(5)], dtype=np.uint64)
# Per word k of a piece (row k): the bytes before p for p = 0..31, and the span tables.
_BEFORE = _bytes(0, np.arange(_SPAN))
_BETWEEN, _POINT = _span_tables()


def _scaled_mantissa(m: np.ndarray, q: np.ndarray, k: np.ndarray) -> np.ndarray:
    """``round_half_even(m 5^k 2^(q+k))`` for 53-bit m and 0 <= k <= 20, where it is below 2^64."""
    p = _POW5.take(k)
    m_lo, m_hi = m & _LOW32, m >> 32
    p_lo, p_hi = p & _LOW32, p >> 32
    lo = m_lo * p_lo
    mid = m_hi * p_lo + m_lo * p_hi  # < 2^54
    low = lo + ((mid & _LOW32) << 32)  # the product's low word, mod 2^64
    high = m_hi * p_hi + (mid >> 32) + (low < lo)  # < 2^36
    s = q.astype(np.int64) + k
    # a right shift by r = -s >= 1 keeps floor(P / 2^r) and rounds on the remainder
    r = np.maximum(-s, 1).astype(np.uint64)
    d = ((high << (63 - r)) << 1) | (low >> r)
    rem = low & ((np.uint64(1) << r) - np.uint64(1))
    half = np.uint64(1) << (r - np.uint64(1))
    d += (rem > half) | ((rem == half) & (d & 1).astype(bool))
    # s >= 0 only when P is below 2^64 and the digits come from a left shift
    return np.where(s >= 0, low << np.maximum(s, 0).astype(np.uint64), d)


def _float_digits(x: np.ndarray) -> Optional[tuple[np.ndarray, np.ndarray]]:
    """The 17 significant digits D and the decimal exponent X of each x, or None
    when some x lies outside ``1e-4 <= |x| < 1e17`` (zero and non-finite values too)."""
    a = np.abs(x)
    if not np.all((a >= 1e-4) & (a < 1e17)):
        return None
    frac, exp = np.frexp(a)
    m = np.ldexp(frac, 53).astype(np.uint64)
    q = exp - 53
    big = np.clip(np.floor(np.log10(a)), -4, 16).astype(np.int64)
    d = _scaled_mantissa(m, q, 16 - big)
    # log10 can round across a power of ten; D outside [10^16, 10^17) moves X by one
    while True:
        off = np.flatnonzero((d < _E16) | (d >= _E17))
        if not off.size:
            return d, big
        big[off] += np.where(d[off] >= _E17, 1, -1)
        d[off] = _scaled_mantissa(m[off], q[off], 16 - big[off])


def _minus(neg: np.ndarray) -> np.ndarray:
    """A one-byte piece's word: '-' where neg, else empty."""
    return np.where(neg, np.uint64(ord("-")), np.uint64(0))


def _float_cell(x: np.ndarray, d: np.ndarray, big: np.ndarray) -> list[tuple[int, list]]:
    """The `%.17g` cells of x, given its digits D and exponents X, as (width, words) pieces."""
    hi9 = d // 10**8
    lo8 = (d - hi9 * 10**8).astype(np.uint32)
    hi9 = hi9.astype(np.uint32)
    top = hi9 // 10_000
    g2 = hi9 - top * 10_000
    lead = top // 10_000
    g1 = top - lead * 10_000
    g3 = lo8 // 10_000
    g4 = lo8 - g3 * 10_000  # D = lead g1 g2 g3 g4 in decimal
    # digits kept: up to the last nonzero one, and at least the whole integer part
    kept = np.maximum(np.maximum(_KEPT[0].take(g1), _KEPT[1].take(g2)),
                      np.maximum(_KEPT[2].take(g3), _KEPT[3].take(g4)))
    kept = np.maximum(kept, big + 1)
    point = (big >= 0) & (kept > big + 1)
    # digits before `at` stay; with a point, it goes at `at` and the rest move up one byte
    at = np.where(point, big + 1, kept)
    span = _SPAN * at + kept + point
    a1, a2, a3, a4 = (_GROUP4.take(g) for g in (g1, g2, g3, g4))
    digits = [
        (lead.astype(np.uint64) + ord("0")) | (a1 << 8) | (a2 << 40),
        (a2 >> 24) | (a3 << 8) | (a4 << 40),
        a4 >> 24,
    ]
    moved = [digits[0] << 8] + [(w << 8) | (v >> 56) for v, w in zip(digits, digits[1:])]
    words = [
        (w & _BEFORE[k].take(at)) | (v & _BETWEEN[k].take(span)) | _POINT[k].take(span)
        for k, (w, v) in enumerate(zip(digits, moved))
    ]
    # in front: the sign, then "0." and the zeros of X < -1
    neg = x < 0
    sign = int(neg.any())
    lowest = int(big.min())
    width = sign + (1 - lowest if lowest < 0 else 0)
    if not width:
        return [(18, words)]
    head = _PREFIX.take(np.maximum(-big, 0)) << 8 * sign
    if sign:
        head |= _minus(neg)
    return [(width, [head]), (18, words)]


def _int_cell(v: np.ndarray) -> list[tuple[int, list]]:
    """The `%d` cells of the integer column v, as (width, words) pieces."""
    v = v.astype(np.int64)
    neg = v < 0
    u = v.view(np.uint64)
    mag = np.where(neg, ~u + np.uint64(1), u)
    ndig = np.searchsorted(_POW10, mag, side="right") + 1
    count = (int(ndig.max()) + 3) // 4
    groups = []  # base 10^4, least significant first
    for _ in range(count - 1):
        q = mag // 10_000
        groups.append(mag - q * 10_000)
        mag = q
    groups.append(mag)
    width = 4 * count
    words = [np.zeros(len(v), dtype=np.uint64) for _ in range((width + 7) // 8)]
    for j, g in enumerate(reversed(groups)):
        k, b = divmod(4 * j, 8)
        words[k] |= _GROUP4.take(g) << 8 * b
    first = width - ndig  # the first digit's byte; the leading zeros before it go
    words = [w & ~_BEFORE[k].take(first) for k, w in enumerate(words)]
    return ([(1, [_minus(neg)])] if neg.any() else []) + [(width, words)]


def rows(columns: list[np.ndarray]) -> Optional[bytes]:
    """The ASCII CSV rows of equal-length columns, joined by newlines with none at the end.

    Integer columns give the bytes of `%d` and float columns those of
    `%.17g`. Returns None when a float lies outside ``1e-4 <= |x| < 1e17``
    (zero, -0.0 and non-finite values included); the caller formats that
    block with `%`.
    """
    cells = []
    for col in columns:
        if col.dtype.kind != "f":
            cells.append(_int_cell(col))
            continue
        got = _float_digits(col)
        if got is None:
            return None
        cells.append(_float_cell(col, *got))
    size = sum(width for pieces in cells for width, _ in pieces) + len(cells)
    # the words of each row, word by word; a spare one takes the last piece's carry
    mat = np.zeros((size // 8 + 2, len(columns[0])), dtype=_WORD)
    at = 0
    for j, pieces in enumerate(cells):
        for width, words in pieces:
            c, b = divmod(at, 8)
            for k, w in enumerate(words):
                mat[c + k] |= w << 8 * b
                if b:
                    mat[c + k + 1] |= w >> 64 - 8 * b
            at += width
        c, b = divmod(at, 8)
        mat[c] |= ord("," if j + 1 < len(cells) else "\n") << 8 * b
        at += 1
    text = mat.T.copy().view(np.uint8).ravel()
    return text[text != 0][:-1].tobytes()
