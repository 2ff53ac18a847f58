"""``simulate``'s eleven CSV columns against a 50-digit evaluation of the
closed form, at sampled rows.

The oracle is written from the equations, not from ``bloch_flow``: Pz solves
dPz/dt = q (Pz^2 - 1), so Pz = -tanh(q (t - at) - atanh Pz0) from a start
inside the poles (and Pz0 for q = 0 or |Pz0| = 1), and Px - i Py solves
d/dt (Px - i Py) = (q Pz + i (omega21 - tau - lam Pz)) (Px - i Py), so with
I = int_at^t Pz it is (Px0 - i Py0) exp(q I + i ((omega21 - tau)(t - at) - lam I)).
Every other column is a fixed map of (Px, Py, Pz).

The bound is absolute. The flow rounds its phase, (omega21 - tau)(t - at) up
to 37 rad here, to about eps per radian, and the largest error measured was
4.8e-15, on Px at q = 0, where no envelope damps it; from the other starts
every column was within 1e-15. The t column is t_start + k h, within a few
ulps of the exact grid time.
"""

import math

import mpmath
import numpy as np
import pytest

from quadbloch.cli import main
from quadbloch.twolevel import TwoLevelParams

RATES = "omega21 = 1.0\na12 = 0.2\ngamma11 = 0.02\ngamma12 = -0.04\n"
CASES = {
    "default": (RATES, None),
    "custom": (RATES, (0.3, -0.2, 0.5)),
    "fixed-point": (RATES, (0.0, 0.0, 1.0)),
    "q-zero": ("omega21 = 1.0\ngamma11 = 0.1\ngamma22 = -0.05\ngamma12 = 0.02\n", None),
    "q-negative": ("omega21 = -0.7\ngamma11 = 0.03\ngamma22 = -0.02\ngamma12 = 0.07\na12 = -0.3\n",
                   (0.3, -0.4, math.sqrt(0.75))),
}
SPAN = (-20.0, 20.0, 0.01)
ROW_STRIDE = 37
COLUMN_TOL = 1e-14


def _params(text):
    values = dict(line.split(" = ") for line in text.splitlines())
    return TwoLevelParams(**{key: float(value) for key, value in values.items()})


def _closed_form_row(t, p, start, at):
    """The eleven columns at time ``t`` (an exact float), to 50 digits."""
    mp = mpmath.mp
    t, at = mp.mpf(t), mp.mpf(at)
    px0, py0, pz0 = (mp.mpf(v) for v in start)
    q, omega21, tau, lam = (mp.mpf(v) for v in (p.q, p.omega21, p.tau, p.lam))
    if q != 0 and abs(pz0) < 1:
        shifted = mp.atanh(pz0)
        pz = -mp.tanh(q * (t - at) - shifted)
        integral = -(mp.log(mp.cosh(q * (t - at) - shifted)) - mp.log(mp.cosh(shifted))) / q
    else:
        pz, integral = pz0, pz0 * (t - at)
    w = mp.mpc(px0, -py0) * mp.exp(q * integral + 1j * ((omega21 - tau) * (t - at) - lam * integral))
    px, py = w.real, -w.imag
    return [t, px, py, pz, (1 + pz) / 2, (1 - pz) / 2, px / 2, -py / 2,
            -omega21 * pz / 2, px, -tau - lam * pz]


@pytest.mark.parametrize("case", list(CASES))
def test_columns_match_50_digit_closed_form(case, tmp_path):
    rates, start = CASES[case]
    t_start, t_end, step = SPAN
    text = rates + f"t_start = {t_start}\nt_end = {t_end}\nstep = {step}\n"
    if start is not None:
        text += "".join(f"{key} = {value!r}\n" for key, value in zip(("px0", "py0", "pz0"), start))
    cfg, out = tmp_path / "run.cfg", tmp_path / "run.csv"
    cfg.write_text("mode = simulate\n" + text + f"output = {out}\n")
    assert main(["simulate", "--config", str(cfg)]) == 0
    rows = [line for line in out.read_text().splitlines() if not line.startswith("#")][1:]
    n_steps = round((t_end - t_start) / step)
    assert len(rows) == n_steps + 1

    p = _params(rates)
    if start is None:
        start, at = (1.0, 0.0, 0.0), (t_start if p.q == 0.0 else p.t0)
    else:
        at = t_start
    worst = np.zeros(11)
    with mpmath.workdps(50):
        for k in list(range(0, n_steps + 1, ROW_STRIDE)) + [n_steps]:
            cells = [float(cell) for cell in rows[k].split(",")]
            expected = _closed_form_row(cells[0], p, start, at)
            expected[0] = mpmath.mpf(t_start) + k * (mpmath.mpf(t_end) - t_start) / n_steps
            worst = np.maximum(worst, [float(abs(c - e)) for c, e in zip(cells, expected)])
    assert worst[0] <= 4.0 * np.finfo(float).eps * max(abs(t_start), abs(t_end))
    assert np.all(worst[1:] <= COLUMN_TOL), worst
