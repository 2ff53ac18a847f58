"""Byte-exact ``format(x, ".16e")`` for a whole block of float64 cells at once.

``format_rows`` turns a (rows, columns) float array into CSV text whose
every cell is the same text as ``format(float(x), ".16e")``: 17 significant
digits, correctly rounded from the exact binary value, ties to even.

Exactness comes from two paths, never from a tolerance:

* The fast path runs in numpy. With k = floor(log10 |x|) and s = 16 - k,
  the scale 10^s is a double-double (hi, lo) built exactly from Python
  integers, and Dekker's TwoProduct forms y = |x| 10^s in [1e16, 1e17) as
  p + t, with p an integer-valued double and |error| < 1e-14. A cell takes
  this path only where that bound proves the result: 1e-270 <= |x| <= 1e270
  (finite and normal, with every partial product normal), y more than the
  bound inside the decade, and y not within ``_TIE_MARGIN`` of a rounding
  tie. For s in [0, 22] 10^s is a double, y = p + t is exact, and ties
  round half to even here. The 17 digits of round(y) come from a table of
  4-digit ASCII groups. 0 and -0 are written as the digits of n = 0.
* Every other cell (subnormals, nan, +-inf, |x| outside [1e-270, 1e270],
  unresolved ties, decade edges) is written by ``format`` itself
  (``_format_each``).

The tables are built on first use, so importing this module costs nothing.
"""

from __future__ import annotations

import functools

import numpy as np

_MIN_ABS, _MAX_ABS = 1e-270, 1e270
_K_LIMIT = 272             # |floor(log10 |x|)| on the fast path, with log10's off-by-one
_TIE_MARGIN = 1e-9         # far above the product's error bound of 1e-14
_SPLIT = 134217729.0       # 2^27 + 1, Dekker's splitter for doubles
# A cell is 7 words of 4 bytes, NUL where a field is shorter than its slot:
# [sign, lead digit, '.', NUL] [4 digits] x 4 [exponent, 8 bytes] with the
# separator in the last byte. The NULs are deleted from the finished block.
_WORDS = 7
_TEXT = 27                 # bytes before the separator; ``format`` needs at most 24


@functools.cache
def _tables() -> tuple[np.ndarray, ...]:
    """(hi, lo) of 10^s for s = 16 - k and the exponent fields ``e+dd`` /
    ``e-ddd`` (8 bytes), indexed by k + _K_LIMIT; the head words of a cell,
    indexed by 10 * negative + lead digit; the 4-digit groups 0000..9999."""
    from fractions import Fraction     # here, not at import: it pulls in decimal

    hi, lo = [], []
    for k in range(-_K_LIMIT, _K_LIMIT + 1):
        scale = Fraction(10) ** (16 - k)
        hi.append(float(scale))                    # correctly rounded
        lo.append(float(scale - Fraction(hi[-1])))
    # up to k + 1 for a rounding carry out of the decade
    exponents = np.array([b"e%+03d" % k for k in range(-_K_LIMIT, _K_LIMIT + 2)], dtype="S8")
    heads = np.array([b"%s%d." % (sign, d) for sign in (b"\0", b"-") for d in range(10)], dtype="S4")
    groups = np.array([b"%04d" % g for g in range(10000)], dtype="S4")
    return (np.array(hi), np.array(lo), exponents.view(np.uint64), heads.view(np.uint32),
            groups.view(np.uint32))


def _split(v: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    c = v * _SPLIT
    high = c - (c - v)
    return high, v - high


def _format_each(values: np.ndarray) -> np.ndarray:
    """The cells the fast path cannot certify, formatted by ``format``."""
    return np.array([format(v, ".16e").encode() for v in values.tolist()], dtype=f"S{_TEXT}")


def format_rows(block: np.ndarray) -> str:
    """CSV text of a (rows, columns) block: cells joined by commas, one
    line per row, each cell ``format(x, ".16e")`` byte for byte."""
    pow_hi, pow_lo, exponents, heads, groups = _tables()
    rows, cols = block.shape
    x = np.ascontiguousarray(block, dtype=np.float64).reshape(-1)

    a = np.abs(x)
    zero = a == 0.0
    inside = (a >= _MIN_ABS) & (a <= _MAX_ABS)          # False for 0, subnormals, nan, inf
    a = np.where(inside, a, 1.0)
    # k = floor(log10 |x|), offset by _K_LIMIT to index the tables
    k = np.floor(np.log10(a)).astype(np.int64) + _K_LIMIT
    hi, lo = pow_hi[k], pow_lo[k]

    # y = a 10^s = p + t: TwoProduct(a, hi) = p + e exactly, plus a lo
    p = a * hi
    a_hi, a_lo = _split(a)
    h_hi, h_lo = _split(hi)
    e = ((a_hi * h_hi - p) + a_hi * h_lo + a_lo * h_hi) + a_lo * h_lo
    t = e + a * lo

    # exact for s in [0, 22]: lo = 0 and y = p + e
    margin = np.where(lo == 0.0, 0.0, _TIE_MARGIN)
    whole = np.floor(t)
    frac = t - whole
    fast = (inside & ((p - 1e16) + t >= margin) & ((1e17 - p) - t > margin)
            & (np.abs(frac - 0.5) >= margin))

    n = p.astype(np.int64) + whole.astype(np.int64)
    n += (frac > 0.5) | ((frac == 0.5) & (n % 2 == 1))
    carry = n == 10**17
    n[carry] = 10**16
    k += carry
    n[~fast] = 0                                       # 0.0000000000000000e+00 for +-0
    k[~fast] = _K_LIMIT
    slow = np.flatnonzero(~(fast | zero))

    lead, rest = np.divmod(n, 10**16)
    upper, lower = np.divmod(rest, 10**8)
    cells = np.empty((rows * cols, _WORDS), dtype=np.uint32)
    cells[:, 0] = heads[lead + 10 * np.signbit(x)]
    cells[:, 1] = groups[upper // 10000]
    cells[:, 2] = groups[upper % 10000]
    cells[:, 3] = groups[lower // 10000]
    cells[:, 4] = groups[lower % 10000]
    cells[:, 5:] = exponents[k].view(np.uint32).reshape(-1, 2)
    text = cells.view(np.uint8)
    if slow.size:
        text[slow, :_TEXT] = _format_each(x[slow]).view(np.uint8).reshape(-1, _TEXT)
    separators = text.reshape(rows, cols, 4 * _WORDS)[:, :, _TEXT]
    separators[:, :-1] = ord(",")
    separators[:, -1] = ord("\n")
    return cells.tobytes().translate(None, b"\0").decode("ascii")
