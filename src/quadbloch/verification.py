"""Self-verification of the two-level dynamics at user-supplied parameters.

Runs the invariant suite behind the `verify` CLI command: closed-form
residual, agreement of RK4 with the exact flow from the run's own start,
norm and trace conservation, the shift column against the trajectory's
phase rate, the shift decomposition identity, and the integrator's
convergence order.

The closed-form residual compares the right-hand side with a central
difference of the flow, at a step scaled down by the flow's fastest rate.
Its tolerance is 1e-6, or the difference's own error bound (truncation
plus the flow's rounding over the step) where that is larger, so a correct
flow passes at any rate while a wrong rotation, off by twice the turn
rate, fails. Each check's negative control is a test fake of the one input
only that check reads.

The order is err(h) / err(h/2), err the largest deviation of one RK4 pass
from the exact flow, at a step no finer than the run's own: from
``_ORDER_SCALE`` / R (R bounds the flow's rates; at h R = 1 a correct run
read 1.26, at 0.1 it reads 16.0 and samples every error oscillation at
least 60 times), or from span / ``_ORDER_MIN_STEPS`` where finer, so a
short or slow run keeps at least 500 coarse steps (runs of 4 to 40 read
false FAILs without that floor). The step is doubled at most
``_ORDER_DOUBLINGS`` times while either error is below ``_ORDER_FLOOR``
(n eps + delta), n the half-step pass's step count and delta the flow's
stated rounding (``twolevel._flow_rounding``). n eps bounds RK4's rounding
where it adds up coherently (at q = 0 every step multiplies by the same
float).
Each error is then within 10% of its truncation error, so a fourth-order
ratio reads in [16 * 0.9 / 1.1, 16 * 1.1 / 0.9] = [13.1, 19.6], inside
``_ORDER_WINDOW``; with no such step the check is skipped. Where a pass
leaves the unit ball (a flow with q Pz > 0 grows RK4's truncation off the
sphere, more at a coarser step), the check starts again from half its first
step, down to the run's own. Each pass is dropped once its error is taken;
none runs over 2m + 1 steps for a run of m.

The agreement, norm and phase tolerances scale with e, RK4's error at the
run's step h, read off the order check: e = err(h_c) (h / h_c)^4 from its
coarse step h_c, which is never finer than h.

RK4 holds up to about 500 bytes per step (the order check's half-step pass
at the run's own step, with the run held), four times what ``simulate``
needs, so ``run_checks`` refuses more than ``_MAX_RK4_STEPS`` steps before
it allocates anything.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .integrator import StepSizeError, Trajectory, _step_count, integrate
from .twolevel import (TwoLevelParams, _flow_anchor, _flow_rounding, _rate_bound, _shift,
                       additional_shift, bloch_flow, bloch_rhs, bloch_to_density, frequency_shift)

_RESIDUAL_TOL = 1e-6
_TRACE_TOL = 1e-10
_SHIFT_TOL = 1e-12
_ORDER_WINDOW = (12.0, 20.0)
_ORDER_FLOOR = 10.0
_ORDER_DOUBLINGS = 4
_ORDER_SCALE = 0.1           # the order check's finest step times the flow's fastest rate
_ORDER_MIN_STEPS = 500       # coarse steps the order check keeps at least on short or slow runs
_FD_SCALE = 1e-4             # the residual's difference step times the flow's fastest rate
_CHECK_TIMES = 1001          # samples of the closed-form and decomposition residuals
_PHASE_MIN_AMPLITUDE = 1e-3
_MAX_RK4_STEPS = 2 * 10**6   # about 1 GB at the order check's 500 bytes per step


@dataclass(frozen=True)
class Check:
    name: str
    passed: bool
    measured: float | None = None
    tolerance: str = ""
    skipped: bool = False

    def status(self) -> str:
        if self.skipped:
            return "skipped"
        return "pass" if self.passed else "FAIL"


@dataclass(frozen=True)
class Report:
    checks: tuple[Check, ...]

    @property
    def passed(self) -> bool:
        return all(c.passed or c.skipped for c in self.checks)

    def format(self) -> str:
        lines = [f"{'check':32s} {'measured':>14s} {'tolerance':>22s} {'status':>8s}"]
        for c in self.checks:
            measured = f"{c.measured:.6e}" if c.measured is not None else "-"
            lines.append(f"{c.name:32s} {measured:>14s} {c.tolerance:>22s} {c.status():>8s}")
        lines.append(f"overall: {'PASS' if self.passed else 'FAIL'}")
        return "\n".join(lines)


def _closed_form_residual(p: TwoLevelParams, start, at: float, t_start: float,
                          t_end: float) -> tuple[float, float]:
    """(max |bloch_rhs(x(t), p) - dx/dt|, the error bound of dx/dt) along the
    flow x(t) of ``p`` through ``start`` at time ``at``.

    dx/dt is a central difference at step h = _FD_SCALE / R, with R from
    ``_rate_bound``. Its error bound has two terms:

    * truncation, h^2 |x'''| / 6 <= h^2 R^3. With a = q Pz + i (omega21 -
      tau - lam Pz), Px - i Py has third derivative (a'' + 3 a a' + a^3)
      (Px - i Py), where |a| <= R, |a'| <= R^2 and |a''| <= 2 R^3; Pz is a
      tanh, whose third derivative is at most 2 q^3.
    * rounding, delta / h, with delta from ``_flow_rounding`` for each sample.
    """
    times = np.linspace(t_start, t_end, _CHECK_TIMES)
    rate = _rate_bound(p)
    h = _FD_SCALE / rate
    bound = h * h * rate**3 + _flow_rounding(p, at, t_start, t_end) / h

    def flow(t):
        return bloch_flow(t, p, start, at)

    rhs = np.array(bloch_rhs(flow(times).T, p)).T
    fd = (flow(times + h) - flow(times - h)) / (2.0 * h)
    return float(np.max(np.abs(rhs - fd))), bound


def _shift_decomposition_residual(p: TwoLevelParams, t_start: float, t_end: float, initial) -> float:
    times = np.linspace(t_start, t_end, _CHECK_TIMES)
    full = frequency_shift(times, p, initial, t_start)
    base = frequency_shift(times, p.dipole_only(), initial, t_start)
    return float(np.max(np.abs(full - base - additional_shift(times, p, initial, t_start))))


def _shift_phase_mismatch(traj: Trajectory, shift: np.ndarray) -> float | None:
    """Max |shift - (d/dt arg(Px - i Py) - omega21)| over the samples whose
    transverse amplitude is at least 1e-3; None when no such sample exists or
    the run is too short for a second-order derivative."""
    w = traj.bloch[:, 0] - 1j * traj.bloch[:, 1]
    keep = np.abs(w) >= _PHASE_MIN_AMPLITUDE
    if len(traj) < 3 or not keep.any():
        return None
    # at the width RK4 stepped: the rounded sample times add noise, and
    # their spacing products underflow on tiny steps
    rate = np.gradient(np.unwrap(np.angle(w)), traj.step, edge_order=2) - traj.params.omega21
    return float(np.max(np.abs(shift[keep] - rate[keep])))


def _order_step(p: TwoLevelParams, t_start: float, t_end: float, step: float) -> float:
    """The order check's first coarse step: _ORDER_SCALE / R, or the finer
    span / _ORDER_MIN_STEPS on a short or slow run, but never finer than the
    run's own ``step``."""
    return max(step, min((t_end - t_start) / _ORDER_MIN_STEPS, _ORDER_SCALE / _rate_bound(p)))


def _convergence_order(initial, p: TwoLevelParams, start, at: float, t_start: float, t_end: float,
                       step: float) -> tuple[Check, float, float]:
    """(check, err(h), h): the check of err(h) / err(h/2), err the largest
    deviation of RK4 from ``initial`` from the flow through ``start`` at
    time ``at``, at the finest h from ``_order_step`` up whose errors clear
    rounding, or the last h tried. Where a pass leaves the unit ball, the
    check starts again from half its first step, down to the run's own."""

    def error(width: float) -> tuple[float, float]:
        traj = integrate(initial, p, t_start, t_end, width)
        return float(np.max(np.abs(traj.bloch - bloch_flow(traj.t, p, start, at)))), traj.step

    def measure(conv_step: float) -> tuple[Check, float, float]:
        half, _ = error(conv_step / 2.0)
        for _ in range(_ORDER_DOUBLINGS + 1):
            coarse, h = error(conv_step)
            if half == 0.0 and coarse == 0.0:
                return Check("convergence_order", True, None, "exact (fixed point)", skipped=True), 0.0, h
            rounding = (np.finfo(float).eps * _step_count(t_start, t_end, conv_step / 2.0)
                        + _flow_rounding(p, at, t_start, t_end))
            if min(coarse, half) >= _ORDER_FLOOR * rounding:
                ratio = coarse / half
                return Check("convergence_order", _ORDER_WINDOW[0] <= ratio <= _ORDER_WINDOW[1],
                             ratio, f"in [{_ORDER_WINDOW[0]:g}, {_ORDER_WINDOW[1]:g}]"), coarse, h
            half = coarse       # the doubled step's half is this step, exactly
            conv_step *= 2.0
        return Check("convergence_order", True, None, "at rounding level", skipped=True), coarse, h

    conv_step = _order_step(p, t_start, t_end, step)
    while True:
        try:
            return measure(conv_step)
        except StepSizeError:
            # where q Pz > 0 the flow grows RK4's truncation off the sphere,
            # more at a coarser step; the run's own step kept it in the ball
            if conv_step == step:
                raise
            conv_step = max(step, conv_step / 2.0)


def run_checks(p: TwoLevelParams, t_start: float, t_end: float, step: float,
               initial=None) -> tuple[Report, Trajectory]:
    """Run every check at the given parameters and return (report, trajectory).

    The run starts where ``twolevel._flow_anchor`` says: a given start by
    the start rule, by default (1, 0, 0) at t0 at every q. More than
    ``_MAX_RK4_STEPS`` steps are refused with a ValueError.
    """
    steps = _step_count(t_start, t_end, step)
    if steps > _MAX_RK4_STEPS:
        raise ValueError(f"verify runs RK4 on {steps} steps; RK4 needs about 500 bytes per step, "
                         f"and verify's limit is {_MAX_RK4_STEPS:.0e} steps")
    q = p.q
    checks: list[Check] = []
    traj = integrate(initial, p, t_start, t_end, step)
    # the flow from the run's own start
    start, at = _flow_anchor(p, t_start, initial)
    order, order_error, order_step = _convergence_order(initial, p, start, at, t_start, t_end, step)
    # RK4's error at the run's step, carried from the order check's at fourth order
    error = order_error * (traj.step / order_step) ** 4

    # the tolerance is 1e-6, or the difference's own error bound where that is larger
    residual, bound = _closed_form_residual(p, start, at, t_start, t_end)
    residual_tol = max(_RESIDUAL_TOL, bound)
    checks.append(Check("closed_form_residual", residual < residual_tol,
                        residual, f"< {residual_tol:.3g}"))

    # RK4 against the exact flow from the same start, within its error
    # once that exceeds the nominal floor
    exact = bloch_flow(traj.t, p, start, at)
    agree_tol = max(1e-8, 50.0 * error)

    # |P| is conserved only on the unit sphere, so the norm is compared with
    # the flow's: d|P|^2/dt = 2 q Pz (|P|^2 - 1)
    norm_drift = float(np.max(np.abs(np.linalg.norm(traj.bloch, axis=1)
                                     - np.linalg.norm(exact, axis=1))))
    checks.append(Check("bloch_norm_preservation", norm_drift < agree_tol,
                        norm_drift, f"< {agree_tol:.3g}"))

    rho11, rho22, _ = bloch_to_density(traj.bloch.T)
    trace_drift = float(np.max(np.abs(rho11 + rho22 - 1.0)))
    checks.append(Check("trace_conservation", trace_drift < _TRACE_TOL,
                        trace_drift, f"< {_TRACE_TOL:g}"))

    deviation = float(np.max(np.abs(traj.bloch - exact)))
    checks.append(Check("analytic_agreement", deviation < agree_tol,
                        deviation, f"< {agree_tol:.3g}"))

    mismatch = _shift_phase_mismatch(traj, _shift(p, traj.bloch[:, 2]))
    if mismatch is None:
        checks.append(Check("shift_matches_trajectory_phase", True, None,
                            "no usable samples", skipped=True))
    else:
        # integrator phase error plus the O(h^2) truncation of the phase derivative
        tol = max(1e-6, error / traj.step + abs(p.lam) * q * q * traj.step**2)
        checks.append(Check("shift_matches_trajectory_phase", mismatch < tol,
                            mismatch, f"< {tol:.3g}"))

    shift_residual = _shift_decomposition_residual(p, t_start, t_end, initial)
    checks.append(Check("shift_decomposition", shift_residual < _SHIFT_TOL,
                        shift_residual, f"< {_SHIFT_TOL:g}"))

    checks.append(order)

    return Report(tuple(checks)), traj
