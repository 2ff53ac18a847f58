"""Trajectories of the Bloch equations: exact samples and a fixed-step RK4.

``exact_trajectory`` samples the closed-form flow (``twolevel.bloch_flow``);
it is what ``simulate`` writes. ``integrate`` runs classical Runge-Kutta on
the same grid and stays as the independent cross-check inside ``verify``.
Deliberately fixed-step: at the intended parameter scales (|q| << |omega21|)
the dynamics are smooth and non-stiff, and a fixed grid makes trajectories
byte-for-byte reproducible. A companion pass at half the step provides a
Richardson estimate of the global error, stored on the trajectory.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .twolevel import (_EQUATOR, BALL_SLACK, BlochVector, TwoLevelParams, _shift, analytic_bloch,
                       bloch_flow, bloch_rhs)

_NORM_ABORT = 1.0 + BALL_SLACK


class StepSizeError(RuntimeError):
    """Raised when the step is too coarse to keep the state on the Bloch ball."""


@dataclass(frozen=True)
class Trajectory:
    """Time-ordered samples with the derived observables of each sample.

    ``error_estimate`` is the Richardson estimate of the global error of the
    Bloch components (max norm over the run); 0 for exact samples.
    """

    t: np.ndarray
    bloch: np.ndarray          # (N, 3)
    rho11: np.ndarray
    rho22: np.ndarray
    rho12: np.ndarray          # complex
    energy: np.ndarray
    dipole: np.ndarray
    shift: np.ndarray
    error_estimate: float
    step: float
    params: TwoLevelParams

    def __len__(self) -> int:
        return self.t.shape[0]


def _rk4_step(y: tuple[float, float, float], h: float, p: TwoLevelParams) -> tuple[float, float, float]:
    px, py, pz = y
    half = 0.5 * h
    k1 = bloch_rhs(y, p)
    k2 = bloch_rhs((px + half * k1[0], py + half * k1[1], pz + half * k1[2]), p)
    k3 = bloch_rhs((px + half * k2[0], py + half * k2[1], pz + half * k2[2]), p)
    k4 = bloch_rhs((px + h * k3[0], py + h * k3[1], pz + h * k3[2]), p)
    c = h / 6.0
    return (px + c * (k1[0] + 2.0 * k2[0] + 2.0 * k3[0] + k4[0]),
            py + c * (k1[1] + 2.0 * k2[1] + 2.0 * k3[1] + k4[1]),
            pz + c * (k1[2] + 2.0 * k2[2] + 2.0 * k3[2] + k4[2]))


def time_grid(t_start: float, t_end: float, step: float) -> tuple[np.ndarray, float]:
    """Sample times and width of round(span/step) equal steps (at least one).

    The last sample lands exactly on t_end up to rounding of t_start + n h.
    """
    if step <= 0:
        raise ValueError(f"step must be positive, got {step}")
    if not t_end > t_start:
        raise ValueError(f"t_end must exceed t_start, got [{t_start}, {t_end}]")
    n_steps = max(1, int(round((t_end - t_start) / step)))
    h = (t_end - t_start) / n_steps
    return t_start + h * np.arange(n_steps + 1), h


def default_initial(p: TwoLevelParams, t_start: float) -> BlochVector:
    """Closed-form value at t_start; at q = 0 the t0 value (1, 0, 0) is used."""
    if p.q == 0.0:
        return BlochVector(1.0, 0.0, 0.0)
    return analytic_bloch(t_start, p)


def integrate(initial: BlochVector | None, p: TwoLevelParams, t_start: float,
              t_end: float, step: float) -> Trajectory:
    """Integrate the Bloch equations on a fixed grid of width ~``step``.

    The span is divided into round(span/step) equal steps, so the last sample
    lands exactly on t_end. ``initial=None`` starts from the closed-form
    value at t_start. Aborts with StepSizeError when the norm leaves the
    closed unit ball by more than 1e-6, which on this flow can only be a
    discretization artifact.
    """
    t, h = time_grid(t_start, t_end, step)
    start = default_initial(p, t_start) if initial is None else initial

    y = y_half = tuple(float(v) for v in start)
    samples = np.empty((len(t), 3))
    samples[0] = y
    # The Richardson companion at half the step runs alongside; only its
    # running deviation from the main pass is kept.
    deviation = 0.0
    for k in range(1, len(t)):
        y = _rk4_step(y, h, p)
        norm = math.sqrt(y[0] * y[0] + y[1] * y[1] + y[2] * y[2])
        if norm > _NORM_ABORT:
            raise StepSizeError(
                f"|P| = {norm:.9f} left the unit ball at t = {t_start + k * h:g}; "
                f"step {h:g} is too large for these parameters, retry with a smaller step"
            )
        samples[k] = y
        y_half = _rk4_step(_rk4_step(y_half, 0.5 * h, p), 0.5 * h, p)
        deviation = max(deviation, abs(y[0] - y_half[0]), abs(y[1] - y_half[1]), abs(y[2] - y_half[2]))
    return _trajectory(t, samples, p, h, deviation * 16.0 / 15.0)


def exact_trajectory(initial: BlochVector | None, p: TwoLevelParams, t_start: float,
                     t_end: float, step: float) -> Trajectory:
    """Exact samples of the flow on the grid ``integrate`` uses for the same arguments.

    ``initial=None`` follows the closed form through (1, 0, 0) at t0, which
    passes through ``default_initial`` at t_start; at q = 0 the run starts at
    (1, 0, 0) at t_start.
    """
    t, h = time_grid(t_start, t_end, step)
    if initial is not None:
        samples = bloch_flow(t, p, initial, t_start)
    else:
        samples = bloch_flow(t, p, _EQUATOR, t_start if p.q == 0.0 else p.t0)
    return _trajectory(t, samples, p, h, 0.0)


def _trajectory(t: np.ndarray, samples: np.ndarray, p: TwoLevelParams, h: float,
                error_estimate: float) -> Trajectory:
    """Bundle Bloch samples (N, 3) with the observables derived from them."""
    px, py, pz = samples[:, 0], samples[:, 1], samples[:, 2]
    return Trajectory(
        t=t, bloch=samples,
        rho11=0.5 * (1.0 + pz), rho22=0.5 * (1.0 - pz), rho12=0.5 * (px - 1j * py),
        energy=-0.5 * p.omega21 * pz,
        dipole=px.copy(),                  # unit transition-dipole magnitude
        shift=_shift(p, pz),
        error_estimate=error_estimate, step=h, params=p,
    )
