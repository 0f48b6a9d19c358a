"""The exact text of '%.17g' % v for float64 arrays, as fixed-width byte rows.

g17(values) returns one row of WIDTH uint8 per value that holds the bytes of
'%.17g' % v in order, with zero bytes between and after them; a writer
joins rows and separators and drops the zeros.  The digits come from
fixed-precision arithmetic with a check, as in Grisu3 (Loitsch, "Printing
Floating-Point Numbers Quickly and Accurately with Integers", PLDI 2010):

- e10 = floor(log10 |v|), corrected by one where log10 rounds across a
  power of ten, by exact comparisons of |v| with 10^e10 and 10^(e10 + 1);
- the 17-digit scaled value |v| 10^(16 - e10), in [10^16, 10^17), is a
  Dekker two-product of |v| with 10^(16 - e10) held as a double-double
  hi + lo, plus |v| lo, so its fraction is known to about 4e-15 absolute;
- a row is rounded here only when that fraction lies farther than _WINDOW
  from 1/2, which leaves no doubt about the rounding; a carry to 10^17 moves
  the exponent up by one.

The rows this cannot decide take Python's own '%.17g': the fractions inside
the window (exact ties among them), +-0, |v| outside _RANGE, +-inf and nan.

The layout is %g's: fixed notation for -4 <= exponent < 17, else d.ddde+XX,
trailing zeros and a bare point dropped.  Each row is three masked reads of
lookup tables and of the digits' ASCII bytes, the digits before the point
read one byte later than they lie so that the point fits after them: no
byte is moved row by row.  4-digit groups give the digits' bytes.
"""

from __future__ import annotations

import functools

import numpy as np

#: bytes per row: the sign and "0.000" in bytes 0..5, the digits and the
#: point in bytes 6..23, the exponent in bytes 24..31
WIDTH = 32
_DIGITS = 7  # the leading digit's byte, the last of a row's second uint32 word

_RANGE = (1e-270, 1e270)  # |v| computed here; 10^k's lo part stays a normal double
_WINDOW = 1e-9            # the fraction's distance from 1/2 needed to round here
_SPLIT = 134217729.0      # 2^27 + 1, Dekker's splitter
_K = 288                  # tables cover |k| <= _K: the e10 and 16 - e10 of _RANGE
_BLOCK = 4096             # values formatted together, which bounds the temporaries


def _words(texts, size: int, dtype) -> np.ndarray:
    """Byte strings, each padded with zeros to `size` bytes, as one word each."""
    return np.frombuffer(b"".join(t.ljust(size, b"\0") for t in texts), dtype=dtype)


@functools.cache
def _tables():
    """The lookup tables, built on first use:

    - powers: hi, hi's high and low halves (Dekker), and lo of
      10^k = hi + lo at k + _K for |k| <= _K, hi and lo correctly rounded
      from the exact rational;
    - ceiling: the least double >= 10^k, at k + _K;
    - top: the leading digit d as a uint32 of bytes (0, 0, 0, d);
    - quads: the four ASCII digits of 0..9999 as one uint32 each;
    - ends: at i * 10000 + g, the number of significant digits if the 4-digit
      group i (0..3, after the leading digit) holds g and the later ones
      hold 0, and 0 for g = 0;
    - masks: the row for `before` digits before the point (0: none) and
      `significant` digits, at before * 17 + significant - 1, in three
      arrays of four words: the bytes that read the digits in place, those
      that read them one byte later, and the point.  The row keeps
      max(significant, before) digits, with the point after `before` of
      them when more follow;
    - prefix: the sign, then "0." and -e - 1 zeros for exponent e in -4..-1,
      at negative * 5 + max(-e, 0);
    - suffix: "e+XX" for exponents outside -4..16, empty inside, at e + _K.
    """
    hi, lo = np.empty(2 * _K + 1), np.empty(2 * _K + 1)
    for i, k in enumerate(range(-_K, _K + 1)):
        # 10^k = p/q; int / int rounds correctly, and hi = m/d exactly
        p, q = (10 ** k, 1) if k >= 0 else (1, 10 ** -k)
        hi[i] = p / q
        m, d = hi[i].as_integer_ratio()
        lo[i] = (p * d - m * q) / (q * d)
    c = _SPLIT * hi
    hi_hi = c - (c - hi)
    ceiling = np.where(lo > 0, np.nextafter(hi, np.inf), hi)
    top = _words([b"\0\0\0%d" % d for d in range(10)], 4, np.uint32)
    g = np.arange(10000, dtype=np.uint16)
    quads = np.stack([g // 1000, g // 100 % 10, g // 10 % 10, g % 10], axis=1).astype(np.uint8)
    quads = (quads + np.uint8(ord("0"))).view(np.uint32).ravel()
    last = (g > 0).astype(np.uint8) + (g % 1000 > 0) + (g % 100 > 0) + (g % 10 > 0)
    ends = np.concatenate([(last + np.uint8(1 + 4 * i)) * (last > 0) for i in range(4)])
    masks = np.zeros((3, 18 * 17, WIDTH), dtype=np.uint8)
    for before in range(18):
        for significant in range(1, 18):
            row = before * 17 + significant - 1
            kept = max(significant, before)
            if 0 < before < kept:
                masks[1, row, _DIGITS - 1:_DIGITS - 1 + before] = 0xFF
                masks[2, row, _DIGITS - 1 + before] = ord(".")
                masks[0, row, _DIGITS + before:_DIGITS + kept] = 0xFF
            else:
                masks[0, row, _DIGITS:_DIGITS + kept] = 0xFF
    prefix = _words([b"-" * negative + (b"0." + b"0" * (m - 1) if m else b"")
                     for negative in (0, 1) for m in range(5)], 8, np.uint64)
    suffix = _words([b"" if -4 <= e < 17 else b"e%+03d" % e
                     for e in range(-_K, _K + 1)], 8, np.uint64)
    return ((hi, hi_hi, hi - hi_hi, lo), ceiling, top, quads, ends, masks.view(np.uint64),
            prefix, suffix)


def _scaled(a: np.ndarray, e10: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """floor and fraction of a 10^(16 - e10), the fraction to about 4e-15:
    a hi = p + err exactly (Dekker), and a lo is added to err."""
    at = 16 - e10 + _K
    hi, hi_hi, hi_lo, lo = (np.take(column, at) for column in _tables()[0])
    p = a * hi
    c = _SPLIT * a
    a_hi = c - (c - a)
    a_lo = a - a_hi
    err = ((a_hi * hi_hi - p) + a_hi * hi_lo + a_lo * hi_hi) + a_lo * hi_lo
    whole = np.floor(p)
    rest = (p - whole) + (err + a * lo)
    up = np.floor(rest)
    return whole.astype(np.int64) + up.astype(np.int64), rest - up


def _digits(v: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The 17 rounded significant digits of |v| as an integer in
    [10^16, 10^17), the decimal exponent, and which rows they are exact for."""
    ceiling = _tables()[1]
    a = np.abs(v)
    exact = (a >= _RANGE[0]) & (a <= _RANGE[1])  # False for 0, inf and nan
    a[~exact] = 1.0
    e10 = np.floor(np.log10(a)).astype(np.int64)
    # a double lies below 10^k exactly when it lies below the least double >= 10^k
    e10 += (a >= np.take(ceiling, e10 + 1 + _K)).astype(np.int64) \
        - (a < np.take(ceiling, e10 + _K))
    n, frac = _scaled(a, e10)  # a 10^(16 - e10) lies in [10^16, 10^17)
    exact &= np.abs(frac - 0.5) > _WINDOW
    n += frac > 0.5
    carry = n == 10 ** 17
    n[carry] = 10 ** 16
    e10 += carry
    return n, e10, exact


def g17(values) -> np.ndarray:
    """(size, WIDTH) uint8: row i holds the bytes of '%.17g' % values.flat[i]
    in order, with zero bytes around them."""
    v = np.asarray(values, dtype=float).ravel()
    out = np.empty((v.size, WIDTH), dtype=np.uint8)
    for start in range(0, v.size, _BLOCK):
        out[start:start + _BLOCK] = _rows(v[start:start + _BLOCK])
    return out


def _rows(v: np.ndarray) -> np.ndarray:
    """g17 of a 1-D array."""
    _, _, top, quads, ends, masks, prefix, suffix = _tables()
    n, e10, exact = _digits(v)
    size = v.size

    # the 17 digits in bytes _DIGITS.._DIGITS + 16 of each row of `flat`,
    # zeros around them, from the leading digit and four 4-digit groups
    flat = np.zeros(size * WIDTH + 1, dtype=np.uint8)
    words = flat[:-1].view(np.uint32).reshape(size, WIDTH // 4)
    high = n // 10 ** 8
    low = n - high * 10 ** 8
    words[:, _DIGITS // 4] = np.take(top, high // 10 ** 8)
    groups = np.array([high // 10 ** 4, high, low // 10 ** 4, low])
    groups -= groups // 10 ** 4 * 10 ** 4
    for i, group in enumerate(groups):
        words[:, _DIGITS // 4 + 1 + i] = np.take(quads, group)
    groups += np.arange(0, 40000, 10000)[:, None]
    significant = np.maximum.reduce(np.take(ends, groups), axis=0)
    significant = np.maximum(significant, 1)

    # %g's notation: `before` digits before the point (0: "0.000" in the
    # prefix) read from `later`, which moves them one byte earlier so that
    # the point fits after them
    fixed = (e10 >= -4) & (e10 < 17)
    before = np.where(fixed, np.maximum(e10 + 1, 0), 1)
    layout = before * 17 + significant - 1
    here = flat[:-1].view(np.uint64).reshape(size, WIDTH // 8)
    later = flat[1:].view(np.uint64).reshape(size, WIDTH // 8)
    out = here & np.take(masks[0], layout, axis=0)
    out |= later & np.take(masks[1], layout, axis=0)
    out |= np.take(masks[2], layout, axis=0)
    out[:, 0] |= np.take(prefix, np.signbit(v) * 5 + np.where(fixed, np.maximum(-e10, 0), 0))
    out[:, -1] |= np.take(suffix, e10 + _K)
    out = out.view(np.uint8)

    slow = np.flatnonzero(~exact)
    if slow.size:
        text = np.array(["%.17g" % x for x in v[slow].tolist()], dtype=f"S{WIDTH}")
        out[slow] = text.view(np.uint8).reshape(slow.size, WIDTH)
    return out
