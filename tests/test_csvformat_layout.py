"""The block CSV formatter's cell layout at the edges of a block, its
fallback when log10 is off by one, and its bytes at each of numpy's CPU
dispatch levels, all against per-cell ``format(x, ".16e")``."""

import hashlib
import io
import math
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import numpy as np
import pytest

from quadbloch import csvformat

# cells ``format`` writes: nan, +-inf, subnormals, and a decade edge where
# log10 rounds up to 15; then 3-digit exponents, which take the fast path
FALLBACK = [math.nan, math.inf, -math.inf, 5e-324, -2.2250738585072014e-308, 999999999999999.875]
WIDE_EXPONENTS = [1.5e-300, -2.5e200, 1e100, -1.0000000000000001e-100]


def expected_text(block):
    """Rows of per-cell ``format``, joined by ',' and ended by '\\n'."""
    return "".join(",".join(format(v, ".16e") for v in row) + "\n" for row in block.tolist())


@pytest.mark.parametrize("offset", [-1e-12, 1e-12])
def test_log10_off_by_one_falls_back(offset, monkeypatch):
    # log10 rounding down at a power of ten puts y just under 1e17, where 13
    # of these powers round up to 1e17 (a carry); rounding up puts y under
    # 1e16. Either way the cell must go to ``format``, whatever log10 returns.
    powers = [float(f"1e{k}") for k in range(-270, 271)]
    values = powers + [math.nextafter(v, 0.0) for v in powers] + [math.nextafter(v, math.inf) for v in powers]
    block = np.array(values).reshape(-1, 3)
    log10 = np.log10
    monkeypatch.setattr(np, "log10", lambda a: log10(a) + offset)
    assert csvformat.format_rows(block) == expected_text(block)


@pytest.mark.parametrize("shape", [(1, 1), (1, 7), (7, 1), (3, 11)])
def test_layout_edges_in_first_and_last_column(shape):
    # every edge cell alone, and each of them in the first and in the last
    # column of a block of ordinary cells
    rows, cols = shape
    for edge in FALLBACK + WIDE_EXPONENTS + [0.0, -0.0, -1.0, 9.5]:
        for column in {0, cols - 1}:
            block = np.full(shape, -0.123456789)
            block[:, column] = edge
            block[rows // 2, (column + 1) % cols] = -edge
            assert csvformat.format_rows(block) == expected_text(block), (shape, edge, column)
    # a block made only of edge cells, in row-major and in column-major order
    edges = np.resize(FALLBACK + WIDE_EXPONENTS, shape)
    for block in (edges, np.ascontiguousarray(edges.T).reshape(shape), -edges):
        assert csvformat.format_rows(block) == expected_text(block)
    assert csvformat.format_rows(np.empty((0, shape[1]))) == ""


def test_writer_rows_not_a_multiple_of_the_write_block():
    n = 2 * (csvformat._CELLS_PER_WRITE // 3) + 3
    rng = np.random.default_rng(16)
    columns = {"a": np.resize(FALLBACK + WIDE_EXPONENTS, n), "b": rng.standard_normal(n),
               "c": np.resize(WIDE_EXPONENTS + FALLBACK, n)}
    buffer = io.StringIO()
    csvformat.write_table(buffer, columns)
    assert buffer.getvalue() == "a,b,c\n" + expected_text(np.column_stack(list(columns.values())))


# Inputs for the dispatch-level test: bit patterns and Python literals only.
# numpy's own transcendentals differ between dispatch levels (10.0**k does),
# so none of them may build the inputs.
_DISPATCH_INPUTS = textwrap.dedent("""
    import math
    import numpy as np
    bits = np.random.default_rng(2000).integers(0, 2**64, 60_000, dtype=np.uint64)
    powers = [float(f"1e{k}") for k in range(-308, 309)]
    literals = (powers + [math.nextafter(v, 0.0) for v in powers]
                + [math.nextafter(v, math.inf) for v in powers]
                + [i * 0.001 for i in range(-20_000, 20_001, 7)]
                + [-2251498357860649.75, 2251498357860649.25, 999999999999999.875, 0.0, -0.0,
                   5e-324, math.nan, math.inf, -math.inf])
    values = np.concatenate([literals, bits.view(np.float64)])
    values = values[:len(values) // 11 * 11].reshape(-1, 11)      # drops random patterns only
""")


def test_bytes_equal_at_every_dispatch_level():
    """The kernel writes the same bytes, those of ``format``, at each CPU
    dispatch level numpy reports, each disabled in a child process only."""
    from numpy._core._multiarray_umath import __cpu_dispatch__, __cpu_features__

    available = [feature for feature in __cpu_dispatch__ if __cpu_features__.get(feature)]
    script = _DISPATCH_INPUTS + textwrap.dedent("""
        import hashlib
        from quadbloch import csvformat
        text = "".join(csvformat.format_rows(values[i:i + 512]) for i in range(0, len(values), 512))
        print(hashlib.sha256(text.encode()).hexdigest())
    """)
    scope = {}
    exec(_DISPATCH_INPUTS, scope)
    expected = hashlib.sha256(expected_text(scope["values"]).encode()).hexdigest()
    src = str(Path(csvformat.__file__).resolve().parents[1])
    digests = {}
    # keep the lowest levels in dispatch order, disable the rest
    for keep in range(len(available) + 1):
        env = dict(os.environ, PYTHONPATH=src)
        env.pop("NPY_DISABLE_CPU_FEATURES", None)
        if available[keep:]:
            env["NPY_DISABLE_CPU_FEATURES"] = " ".join(available[keep:])
        result = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                                env=env, check=True)
        digests[" ".join(available[:keep]) or "baseline"] = result.stdout.strip()
    assert set(digests.values()) == {expected}, digests
