"""Self-verification of the two-level dynamics at user-supplied parameters.

Runs the invariant suite behind the `verify` CLI command: closed-form
residual, agreement of RK4 with the exact flow from the run's own start,
norm and trace conservation, the shift column against the trajectory's
phase rate, the shift decomposition identity, and the integrator's
convergence order.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .integrator import Trajectory, _integrate, exact_trajectory
from .integrator import integrate  # noqa: F401  # unused; bench/selftest.py checks the tracer rebinds it
from .twolevel import _EQUATOR, TwoLevelParams, additional_shift, bloch_flow, bloch_rhs, frequency_shift

_RESIDUAL_TOL = 1e-6
_TRACE_TOL = 1e-10
_SHIFT_TOL = 1e-12
_ORDER_WINDOW = (12.0, 20.0)
_FD_STEP = 1e-6
_PHASE_MIN_AMPLITUDE = 1e-3


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


def _closed_form_residual(p: TwoLevelParams, rhs_params: TwoLevelParams, start, at: float,
                          t_start: float, t_end: float, n_times: int = 1001) -> float:
    """Max |bloch_rhs(x(t), rhs_params) - dx/dt| along the flow x(t) of ``p``
    through ``start`` at time ``at``."""
    times = np.linspace(t_start, t_end, n_times)

    def flow(t):
        return bloch_flow(t, p, start, at)

    rhs = np.array(bloch_rhs(flow(times).T, rhs_params)).T
    fd = (flow(times + _FD_STEP) - flow(times - _FD_STEP)) / (2.0 * _FD_STEP)
    return float(np.max(np.abs(rhs - fd)))


def _shift_decomposition_residual(p: TwoLevelParams, t_start: float, t_end: float,
                                  n_times: int = 1001) -> float:
    times = np.linspace(t_start, t_end, n_times)
    full = frequency_shift(times, p)
    base = frequency_shift(times, p.dipole_only())
    return float(np.max(np.abs(full - base - additional_shift(times, p))))


def _shift_phase_mismatch(traj: Trajectory, shift: np.ndarray) -> float | None:
    """Max |shift - (d/dt arg(Px - i Py) - omega21)| over the samples whose
    transverse amplitude is at least 1e-3; None when no such sample exists or
    the run is too short for a second-order derivative."""
    w = traj.bloch[:, 0] - 1j * traj.bloch[:, 1]
    keep = np.abs(w) >= _PHASE_MIN_AMPLITUDE
    if len(traj) < 3 or not keep.any():
        return None
    rate = np.gradient(np.unwrap(np.angle(w)), traj.t, edge_order=2) - traj.params.omega21
    return float(np.max(np.abs(shift[keep] - rate[keep])))


def run_checks(p: TwoLevelParams, t_start: float, t_end: float, step: float,
               initial=None, flip_rotation: bool = False) -> tuple[Report, Trajectory]:
    """Run every check at the given parameters and return (report, trajectory).

    ``flip_rotation`` negates the transverse rotation rate of the right-hand
    side inside the residual check (omega21 and the gammas change sign, q is
    kept); it exists as a negative control (the residual must then fail for
    any parameters with a nonzero rotation rate).
    """
    q = p.q
    checks: list[Check] = []

    # RK4 passes by step count, so the order check below runs none twice
    passes: dict[int, np.ndarray] = {}
    traj = _integrate(initial, p, t_start, t_end, step, passes)

    rhs_params = p
    if flip_rotation:
        rhs_params = replace(p, omega21=-p.omega21, gamma11=-p.gamma11,
                             gamma22=-p.gamma22, gamma12=-p.gamma12)
    # the closed form through (1, 0, 0) at t0; at q = 0, which has no t0,
    # the flow from the run's own start
    if q != 0.0:
        start, at = _EQUATOR, p.t0
    else:
        start, at = (_EQUATOR if initial is None else initial), t_start
    residual = _closed_form_residual(p, rhs_params, start, at, t_start, t_end)
    checks.append(Check("closed_form_residual", residual < _RESIDUAL_TOL,
                        residual, f"< {_RESIDUAL_TOL:g}"))

    # RK4 against the exact flow from the same start, within its own
    # estimated error once that exceeds the nominal floor
    exact = exact_trajectory(initial, p, t_start, t_end, step)
    agree_tol = max(1e-8, 50.0 * traj.error_estimate)

    # |P| is conserved only on the unit sphere, so the norm is compared with
    # the flow's: d|P|^2/dt = 2 q Pz (|P|^2 - 1)
    norm_drift = float(np.max(np.abs(np.linalg.norm(traj.bloch, axis=1)
                                     - np.linalg.norm(exact.bloch, axis=1))))
    checks.append(Check("bloch_norm_preservation", norm_drift < agree_tol,
                        norm_drift, f"< {agree_tol:.3g}"))

    trace_drift = float(np.max(np.abs(traj.rho11 + traj.rho22 - 1.0)))
    checks.append(Check("trace_conservation", trace_drift < _TRACE_TOL,
                        trace_drift, f"< {_TRACE_TOL:g}"))

    deviation = float(np.max(np.abs(traj.bloch - exact.bloch)))
    checks.append(Check("analytic_agreement", deviation < agree_tol,
                        deviation, f"< {agree_tol:.3g}"))

    mismatch = _shift_phase_mismatch(traj, traj.shift)
    if mismatch is None:
        checks.append(Check("shift_matches_trajectory_phase", True, None,
                            "no usable samples", skipped=True))
    else:
        # integrator phase error plus the O(h^2) truncation of the phase derivative
        tol = max(1e-6, traj.error_estimate / traj.step + abs(p.lam) * q * q * traj.step**2)
        checks.append(Check("shift_matches_trajectory_phase", mismatch < tol,
                            mismatch, f"< {tol:.3g}"))

    shift_residual = _shift_decomposition_residual(p, t_start, t_end)
    checks.append(Check("shift_decomposition", shift_residual < _SHIFT_TOL,
                        shift_residual, f"< {_SHIFT_TOL:g}"))

    # Order is measured at a step no finer than span/2000: at very fine steps
    # the half-step error estimate sinks into accumulated rounding noise and
    # the ratio loses meaning.
    conv_step = max(step, (t_end - t_start) / 2000.0)
    coarse = _integrate(initial, p, t_start, t_end, conv_step, passes)
    half = _integrate(initial, p, t_start, t_end, conv_step / 2.0, passes)
    if half.error_estimate == 0.0 and coarse.error_estimate == 0.0:
        checks.append(Check("convergence_order", True, None, "exact (fixed point)", skipped=True))
    else:
        ratio = coarse.error_estimate / half.error_estimate if half.error_estimate else float("inf")
        checks.append(Check("convergence_order", _ORDER_WINDOW[0] <= ratio <= _ORDER_WINDOW[1],
                            ratio, f"in [{_ORDER_WINDOW[0]:g}, {_ORDER_WINDOW[1]:g}]"))

    return Report(tuple(checks)), traj
