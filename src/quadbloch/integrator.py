"""Trajectories of the Bloch equations: exact samples and a fixed-step RK4.

``exact_trajectory`` samples the closed-form flow (``twolevel.bloch_flow``);
it is what ``simulate`` writes. ``integrate`` runs classical Runge-Kutta on
the same grid and stays as the independent cross-check inside ``verify``.
Both start where ``twolevel._flow_anchor`` says. A ``Trajectory`` is the
sample times, the Bloch samples, the step and the parameters; every
observable (density matrix, energy, dipole, shift) is a fixed map of the
samples and is derived where it is used.
Deliberately fixed-step: at the intended parameter scales (|q| << |omega21|)
the dynamics are smooth and non-stiff, and a fixed grid makes trajectories
byte-for-byte reproducible. RK4's error is its deviation from the exact
flow; ``verify`` measures it, and its order, one ``integrate`` call at a time.

RK4 is run in two parts, following the structure of the equations. dPz/dt
= q (Pz^2 - 1) does not involve Px or Py, so Python runs the RK4 recurrence
for Pz alone, on floats. The coherence w = Px - i Py obeys the linear
equation dw/dt = a(Pz) w, so one RK4 step multiplies w by a complex factor
that depends only on that step's four Pz stage values; numpy forms every
factor at once and w is their running product. Both parts take their rates
from ``bloch_rhs``, and the result is RK4 on the full 3-vector step for
step: Pz to the bit, Px and Py to rounding.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .twolevel import BALL_SLACK, BlochVector, TwoLevelParams, _flow_anchor, bloch_flow, bloch_rhs

_NORM_ABORT = 1.0 + BALL_SLACK
# g above which e^g eps, rounding grown off the sphere, is 1% of the slack (17.6)
_ROUNDING_GROWTH_LIMIT = math.log(0.01 * BALL_SLACK / np.finfo(float).eps)
# Most steps a time grid may have: the 11 float64 columns simulate derives
# from 10^7 samples take about 0.9 GB before any CSV text. verify's RK4 needs
# about four times simulate's memory per step and has its own, lower limit.
_MAX_STEPS = 10**7


class StepSizeError(RuntimeError):
    """Raised when the step is too coarse to keep the state on the Bloch ball."""


@dataclass(frozen=True)
class Trajectory:
    """Time-ordered Bloch samples on a grid of equal steps."""

    t: np.ndarray
    bloch: np.ndarray          # (N, 3)
    step: float
    params: TwoLevelParams

    def __len__(self) -> int:
        return self.t.shape[0]


def time_grid(t_start: float, t_end: float, step: float) -> tuple[np.ndarray, float]:
    """Sample times and width of round(span/step) equal steps (at least one).

    The last sample lands exactly on t_end up to rounding of t_start + n h.
    """
    n_steps = _step_count(t_start, t_end, step)
    h = (t_end - t_start) / n_steps
    return t_start + h * np.arange(n_steps + 1), h


def _step_count(t_start: float, t_end: float, step: float) -> int:
    """round(span/step), at least one. A step that gives more than
    ``_MAX_STEPS`` steps is refused before anything is allocated."""
    if step <= 0:
        raise ValueError(f"step must be positive, got {step}")
    if not t_end > t_start:
        raise ValueError(f"t_end must exceed t_start, got [{t_start}, {t_end}]")
    steps = (t_end - t_start) / step
    if not steps <= _MAX_STEPS:
        raise ValueError(f"step {step:g} cuts [{t_start:g}, {t_end:g}] into {steps:.3g} steps; "
                         f"the limit is {_MAX_STEPS:.0e}")
    return max(1, int(round(steps)))


def _pz_recurrence(pz: float, q: float, h: float, n_steps: int) -> list[float]:
    """Pz and its value after each of ``n_steps`` RK4 steps of dPz/dt = q (Pz^2 - 1).

    The float operations are those of the third component of an RK4 step on
    ``bloch_rhs``, in the same order. Stops after the first value that is
    not within the ball's slack (nan included). A fixed point of the step
    skips the loop.
    """
    half, c = 0.5 * h, h / 6.0
    k1 = q * (pz * pz - 1.0)
    if k1 == 0.0 and abs(pz) <= _NORM_ABORT:
        # q = 0, Pz = +-1 or an underflow: every stage is k1, so every step
        # returns Pz (pz + c * k1 settles only the sign of a zero Pz)
        return [pz] + [pz + c * k1] * n_steps
    out = [pz]
    append = out.append
    for _ in range(n_steps):
        k1 = q * (pz * pz - 1.0)
        z = pz + half * k1
        k2 = q * (z * z - 1.0)
        z = pz + half * k2
        k3 = q * (z * z - 1.0)
        z = pz + h * k3
        k4 = q * (z * z - 1.0)
        pz = pz + c * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        append(pz)
        if not abs(pz) <= _NORM_ABORT:
            break
    return out


def integrate(initial: BlochVector | None, p: TwoLevelParams, t_start: float,
              t_end: float, step: float) -> Trajectory:
    """Integrate the Bloch equations on a fixed grid of width ~``step``.

    The span is divided into round(span/step) equal steps, so the last sample
    lands exactly on t_end. ``initial=None`` starts from the closed-form
    value at t_start, and a given start takes the rule of every run
    (``twolevel._ball_start``). Aborts with StepSizeError at the
    first sample k whose norm leaves the closed unit ball by more than 1e-6,
    or overflows: from a coarse step, or from rounding the flow grew by e^g,
    g = 2 q h sum(Pz[:k]) (d(|P|^2 - 1)/dt = 2 q Pz (|P|^2 - 1)), which no
    step helps.
    """
    t, h = time_grid(t_start, t_end, step)
    start, at = _flow_anchor(p, t_start, initial)
    # a given start enters RK4 as the rule gives it, not re-evaluated through the flow
    if initial is None:
        start = bloch_flow(t_start, p, start, at)
    px0, py0, pz0 = (float(v) for v in start)
    pz = np.array(_pz_recurrence(pz0, p.q, h, len(t) - 1))

    def rates(z):
        # dw/dt = a(z) w with a(z) = f_x - i f_y of bloch_rhs at (1, 0, z); f_z is dPz/dt
        fx, fy, fz = bloch_rhs((1.0, 0.0, z), p)
        return fx - 1j * fy, fz

    # a step that left the ball may overflow; the norm test below reports it
    with np.errstate(over="ignore", invalid="ignore"):
        # the stages repeat the Pz loop's float operations, so they are its
        # stage values exactly
        z = pz[:-1]
        a1, k1 = rates(z)
        a2, k2 = rates(z + 0.5 * h * k1)
        a3, k3 = rates(z + 0.5 * h * k2)
        a4, _ = rates(z + h * k3)
        # the RK4 stage derivatives of w, divided by w, and the step factor
        m2 = a2 * (1.0 + 0.5 * h * a1)
        m3 = a3 * (1.0 + 0.5 * h * m2)
        m4 = a4 * (1.0 + h * m3)
        factors = 1.0 + (h / 6.0) * (a1 + 2.0 * m2 + 2.0 * m3 + m4)
        w = np.cumprod(np.concatenate(([complex(px0, -py0)], factors)))
        px, py = w.real, -w.imag
        norm = np.sqrt(px * px + py * py + pz * pz)
    escaped = np.flatnonzero(~(norm <= _NORM_ABORT))
    if escaped.size:
        k = int(escaped[0])
        if not np.isfinite(norm[k]):
            raise StepSizeError(f"|P| = {norm[k]} at t = {t_start + k * h:g}; "
                                "the state overflowed at these rates")
        where = f"|P| = {norm[k]:.9f} left the unit ball at t = {t_start + k * h:g}; "
        growth = 2.0 * p.q * h * float(np.sum(pz[:k]))
        if growth > _ROUNDING_GROWTH_LIMIT:
            raise StepSizeError(where + f"the flow multiplied rounding off the unit sphere by "
                                f"e^{growth:.1f} since t_start, so no step can help: start later")
        raise StepSizeError(where + f"step {h:g} is too large for these parameters, retry with a smaller step")
    return Trajectory(t=t, bloch=np.column_stack((px, py, pz)), step=h, params=p)


def exact_trajectory(initial: BlochVector | None, p: TwoLevelParams, t_start: float,
                     t_end: float, step: float) -> Trajectory:
    """Exact samples of the flow on the grid ``integrate`` uses for the same arguments.

    ``initial=None`` follows the closed form through (1, 0, 0) at t0, the
    start ``integrate`` takes at t_start; at q = 0 the run starts at
    (1, 0, 0) at t_start.
    """
    t, h = time_grid(t_start, t_end, step)
    samples = bloch_flow(t, p, *_flow_anchor(p, t_start, initial))
    return Trajectory(t=t, bloch=samples, step=h, params=p)
