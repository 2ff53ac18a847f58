"""The block CSV formatter against ``format(x, ".16e")``, how often it has to
fall back to ``format``, and that importing the CLI does not build its tables."""

import io
import math
import os
import subprocess
import sys
import textwrap
from contextlib import redirect_stdout
from pathlib import Path

import numpy as np
import pytest

from quadbloch import cli, csvformat

# exact rounding ties at 17 digits; the first is an SI shift value
TIES = [-2251498357860649.75, 2251498357860649.25, 1125899906842624.75, 123456789012345.125]


def kernel_cells(values, cols=5):
    """Cells as ``format_rows`` writes them, in blocks of ``cols`` columns."""
    x = np.asarray(values, dtype=np.float64)
    x = np.concatenate([x, np.full(-len(x) % cols, 1.0)]).reshape(-1, cols)
    cells = []
    for first in range(0, len(x), 4096):
        cells += csvformat.format_rows(x[first:first + 4096]).replace("\n", ",").split(",")[:-1]
    return cells[:len(values)]


@pytest.fixture
def fallbacks(monkeypatch):
    """Counts the cells handed to ``format`` from here on."""
    count = [0]
    each = csvformat._format_each

    def counting(values):
        count[0] += len(values)
        return each(values)

    monkeypatch.setattr(csvformat, "_format_each", counting)
    return count


def test_matches_format_on_every_class_of_float():
    rng = np.random.default_rng(20261018)
    powers = np.array([float(f"1e{k}") for k in range(-308, 309)])
    q = np.arange(-50_000, 50_000, dtype=float)
    rounding_ties = [rng.integers(10**15, 2**51) + 0.25 * rng.integers(1, 4, 2) for _ in range(500)]
    groups = [
        rng.integers(0, 2**64, 200_000, dtype=np.uint64).view(np.float64),
        powers, np.nextafter(powers, 0.0), np.nextafter(powers, np.inf), -powers,
        q / 1024.0, q * 1e-3,
        np.full(1000, 0.01),
        np.array(TIES), np.concatenate(rounding_ties),
        np.array([0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1.7976931348623157e308,
                  -1.7976931348623157e308, math.nan, -math.nan, math.inf, -math.inf]),
    ]
    values = np.concatenate(groups)
    assert kernel_cells(values) == [format(v, ".16e") for v in values.tolist()]


def test_constant_column_and_exact_ties_take_the_fast_path(fallbacks):
    # y = 0.01 * 1e18 sits 0.2 above the decade's lower edge; the ties are exact products
    values = [0.01] * 1000 + TIES + [0.0, -0.0]
    assert kernel_cells(values) == [format(v, ".16e") for v in values]
    assert fallbacks[0] == 0


CANONICAL = """
omega21 = 1.0
a12 = 0.2
gamma11 = 0.02
gamma22 = 0.0
gamma12 = -0.04
t_start = -20
t_end = 20
step = 0.001
"""


@pytest.mark.parametrize("case", ["atomic", "si", "rising-lam-zero"])
def test_canonical_runs_rarely_fall_back(case, tmp_path, fallbacks, monkeypatch):
    text = CANONICAL
    if case == "si":
        text += "units = si\n"
    elif case == "rising-lam-zero":
        # q = -0.1, lam = 0: the shift column is the constant -tau = -0.01
        text = text.replace("a12 = 0.2", "a12 = -0.2").replace("gamma12 = -0.04", "gamma12 = 0.01")
    cfg = tmp_path / "run.cfg"
    cfg.write_text(text + f"output = {tmp_path / 'run.csv'}\n")
    cells = [0]
    format_rows = csvformat.format_rows

    def counting(block):
        cells[0] += block.size
        return format_rows(block)

    monkeypatch.setattr(csvformat, "format_rows", counting)
    assert cli.main(["simulate", "--config", str(cfg)]) == 0
    with redirect_stdout(io.StringIO()):
        assert cli.main(["shift", "--config", str(cfg)]) == 0
    assert cells[0] == 40001 * (11 + 5)
    assert fallbacks[0] < 1e-3 * cells[0]


def test_import_and_coeffs_do_not_build_the_tables(tmp_path):
    cfg = tmp_path / "pair.cfg"
    cfg.write_text("state_a = 2p0\nstate_b = 1s\n")
    script = textwrap.dedent(f"""
        import contextlib, io
        import quadbloch.cli as cli
        from quadbloch import csvformat
        with contextlib.redirect_stdout(io.StringIO()):
            assert cli.main(["coeffs", "--config", {str(cfg)!r}]) == 0
        print(csvformat._tables.cache_info().currsize)
    """)
    env = dict(os.environ, PYTHONPATH=str(Path(csvformat.__file__).resolve().parents[1]))
    result = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                            env=env, check=True)
    assert result.stdout.strip() == "0"
