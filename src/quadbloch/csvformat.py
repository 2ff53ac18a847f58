"""CSV tables whose every cell is byte-exact ``format(x, ".16e")``.

``write_table`` writes named float columns as a header line and rows,
zeros unsigned, ``_CELLS_PER_WRITE`` cells at a time whatever the number
of columns: every table's blocks have temporaries of one size.

``format_rows`` turns a (rows, columns) float array into CSV text whose
every cell is the same text as ``format(float(x), ".16e")``: 17 significant
digits, correctly rounded from the exact binary value, ties to even.

Exactness comes from two paths, never from a tolerance:

* The fast path runs in numpy. With k = floor(log10 |x|) and s = 16 - k,
  the scale 10^s is a double-double (hi, lo) built exactly from Python
  integers, and Dekker's TwoProduct forms y = |x| 10^s in [1e16, 1e17) as
  p + t, with p an integer-valued double and |error| < 1e-14. A cell takes
  this path only where that bound proves the result: 1e-270 <= |x| <= 1e270
  (finite and normal, with every partial product normal), y at least the
  margin above 1e16, round(y) below 1e17, and t at least the margin away
  from a rounding tie. The margin is ``_TIE_MARGIN``, or 0 for s in [0, 22],
  where 10^s is a double, lo = 0 and y = p + t is exact.
* Every other cell (subnormals, nan, +-inf, |x| outside [1e-270, 1e270],
  unresolved ties, decade edges, a rounding carry up to 1e17) is written by
  ``format`` itself (``_format_each``).

Rounding is ``np.rint(t)``: p >= 1e16 > 2^53 is even, so round(y) =
p + rint(t), and rint's ties to even are the ties of y. The 17 digits of
round(y) come from integer ``//`` and multiply-subtract (no ``%``) and a
table of 4-digit ASCII groups; 0 and -0 are written as the digits of n = 0.

Everything that depends on k alone is tabulated, indexed by k + _K_LIMIT:
hi, lo, hi's Dekker halves, the margin, and the exponent word. The exponent
word carries the cell's separator, so it is tabulated twice, once ending in
',' and once in '\\n', and the last column indexes the '\\n' half. Each
table is gathered by ``take``, which checks the bounds, and stored into its
field of the cell. The tables are built on first use, so importing this
module costs nothing.
"""

from __future__ import annotations

import functools

import numpy as np

_MIN_ABS, _MAX_ABS = 1e-270, 1e270
_K_LIMIT = 272             # |floor(log10 |x|)| on the fast path, with log10's off-by-one
_TIE_MARGIN = 1e-9         # far above the product's error bound of 1e-14
_SPLIT = 134217729.0       # 2^27 + 1, Dekker's splitter for doubles
# A cell is 25 bytes, NUL where a field is shorter than its slot: [sign]
# [lead digit] ['.'] [16 digits] [e] [+ or -] [2 or 3 exponent digits, NUL
# padded to 3] [separator]. Its fields are unaligned words written in this
# order, each covering what the one before spilled:
#   the 8-byte exponent word at byte 19, whose last 2 bytes (NUL) fall on the
#   next cell, or past the last cell into the block's 2 spare bytes;
#   the 4-byte head [sign, lead digit, '.', NUL] at byte 0;
#   the 4-digit groups at bytes 3, 7, 11 and 15, the first over the head's NUL.
# The NULs are deleted from the finished block.
_CELL = 25
_TEXT = 24                 # bytes before the separator; ``format`` needs at most 24
_KS = 2 * _K_LIMIT + 1     # table rows, k = -_K_LIMIT .. _K_LIMIT
# 512 rows of 11 cells keep a block's temporaries under glibc's mmap threshold.
# At 1,024-4,096 such rows a 40,001-row ``simulate`` maps and unmaps them every
# block: 18k-24k minor page faults instead of 1.2k, and 87-109 ms instead of
# 74 (medians of 7, 2-core x86-64 host).
_CELLS_PER_WRITE = 512 * 11


@functools.cache
def _tables() -> tuple[np.ndarray, ...]:
    """Indexed by k + _K_LIMIT: the rows hi, lo, hi's Dekker halves and the
    tie margin of 10^s for s = 16 - k, and the exponent words ``e+dd`` /
    ``e-ddd`` with ',' as their sixth byte, followed by the same words with
    '\\n'. Then the head words of a cell, indexed by 10 * negative + lead
    digit, and the 4-digit groups 0000..9999."""
    hi, lo = [], []
    for k in range(-_K_LIMIT, _K_LIMIT + 1):
        # 10^s = num / den and hi = m / e exactly; int / int is correctly rounded
        num, den = (10 ** (16 - k), 1) if k <= 16 else (1, 10 ** (k - 16))
        hi.append(num / den)
        m, e = hi[-1].as_integer_ratio()
        lo.append((num * e - m * den) / (den * e))
    hi, lo = np.array(hi), np.array(lo)
    scales = np.array([hi, lo, *_split(hi), np.where(lo == 0.0, 0.0, _TIE_MARGIN)])
    exponents = np.array([(b"e%+03d" % k).ljust(5, b"\0") + sep + b"\0\0" for sep in (b",", b"\n")
                          for k in range(-_K_LIMIT, _K_LIMIT + 1)], dtype="S8")
    heads = np.array([b"%s%d." % (sign, d) for sign in (b"\0", b"-") for d in range(10)], dtype="S4")
    groups = np.array([b"%04d" % g for g in range(10000)], dtype="S4")
    return scales, exponents.view(np.uint64), heads.view(np.uint32), groups.view(np.uint32)


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
    rows, cols = block.shape
    if not block.size:
        return ""
    scales, exponents, heads, groups = _tables()
    x = np.ascontiguousarray(block, dtype=np.float64).reshape(-1)

    a = np.abs(x)
    inside = (a >= _MIN_ABS) & (a <= _MAX_ABS)          # False for 0, subnormals, nan, inf
    a[~inside] = 1.0
    # k = floor(log10 |x|), offset by _K_LIMIT to index the tables
    k = np.floor(np.log10(a)).astype(np.intp)
    k += _K_LIMIT
    hi, lo, h_hi, h_lo, margin = scales.take(k, axis=1)

    # y = a 10^s = p + t: TwoProduct(a, hi) = p + e exactly, plus a lo
    p = a * hi
    a_hi, a_lo = _split(a)
    t = a_hi * h_hi - p
    t += a_hi * h_lo
    t += a_lo * h_hi
    t += a_lo * h_lo
    t += a * lo

    # round(y) = p + r; it is certified where y is at least the margin above
    # 1e16, p + r is below 1e17 (exact: 1e17 - p is exact near 1e17) and t
    # is the margin or more from a tie
    r = np.rint(t)
    fast = (p - 1e16) + t >= margin
    fast &= 1e17 - p > r
    fast &= np.abs(t - r) <= 0.5 - margin
    fast &= inside
    slow = np.flatnonzero(~fast)
    slow = slow[x[slow] != 0.0]                          # zeros are written as n = 0

    # the digits of n = round(y), or of n = 0 where the path is not certified
    n = p.astype(np.int64)
    n += r.astype(np.int64)
    n *= fast
    upper = n // 10**8
    n -= upper * 10**8                                   # the last 8 digits
    lead = upper // 10**8
    upper -= lead * 10**8                                # digits 2 to 9
    lead += 10 * np.signbit(x)

    cells = rows * cols
    buffer = bytearray(_CELL * cells + 2)

    def field(offset, dtype):
        """The word at ``offset`` of every cell, an unaligned strided view."""
        return np.ndarray(cells, dtype, buffer, offset, (_CELL,))

    # in the order the layout needs; the last column reads the '\n' half of
    # the exponent table
    k.reshape(rows, cols)[:, -1] += _KS
    field(19, np.uint64)[:] = exponents.take(k)
    field(0, np.uint32)[:] = heads.take(lead)
    for offset, digits in ((3, upper), (11, n)):
        group = digits // 10**4
        field(offset, np.uint32)[:] = groups.take(group)
        digits -= group * 10**4
        field(offset + 4, np.uint32)[:] = groups.take(digits)
    if slow.size:
        text = np.frombuffer(buffer, np.uint8, _CELL * cells).reshape(cells, _CELL)
        text[slow, :_TEXT] = _format_each(x[slow]).view(np.uint8).reshape(-1, _TEXT)
    return buffer.translate(None, b"\0").decode("ascii")


def write_table(fh, columns: dict[str, np.ndarray]) -> None:
    """Write ``columns`` (name -> equal-length float array) to ``fh``: the
    names joined by commas, then rows of ``format(x + 0.0, ".16e")`` cells."""
    fh.write(",".join(columns) + "\n")
    values = list(columns.values())
    rows = _CELLS_PER_WRITE // len(values)
    for first in range(0, len(values[0]), rows):
        # -0.0 + 0.0 is 0.0: the sign of a zero is not written
        fh.write(format_rows(np.column_stack([col[first:first + rows] for col in values]) + 0.0))
