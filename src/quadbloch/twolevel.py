"""Two-level decay dynamics in the Poincare-vector picture.

Level 1 is the level whose population decays when the net relaxation rate
q = (A12 - 2 B12 + 2 C12) / 2 is positive, and the splitting enters through
omega21 = (E2 - E1)/hbar (negative when level 1 lies above level 2). With
tau = (G11 - G22)/2 and lam = (G11 + G22)/2 - G12 built from the radiative
shift coefficients, the equations of motion are

    dPx/dt = q Pz Px - (omega12 + tau + lam Pz) Py
    dPy/dt = q Pz Py + (omega12 + tau + lam Pz) Px
    dPz/dt = q (Pz^2 - 1)

where omega12 = -omega21. These follow from the population equations
d(rho11)/dt = -2 q rho11 rho22 (and its mirror) together with the coherence
equation for rho12 = (Px - i Py)/2,

    d(rho12)/dt = [-i (omega12 + tau + lam Pz) + q Pz] rho12,

so arg(Px - i Py) turns at omega21 - tau - lam Pz: the instantaneous shift
of the transition frequency is -tau - lam Pz, which is -tau + lam tanh q(t - t0)
along the closed form Pz = -tanh q(t - t0).

The flow is exact for every starting state. Pz obeys the decoupled Riccati
equation above, and Px - i Py the linear equation
d/dt (Px - i Py) = [q Pz + i (omega21 - tau - lam Pz)] (Px - i Py), so
``bloch_flow`` evaluates both in closed form, q = 0 and the fixed points
Pz = +-1 included. It is the only closed form: ``analytic_bloch`` is its
trajectory through (1, 0, 0) at t0, and the density matrix, energy, dipole
and shift of a trajectory are read off its samples. The residual tests hold
it to the equations at machine precision.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import NamedTuple

import numpy as np

# Slack by which a state may leave the closed unit ball (rounding of inputs
# and of the fixed-step integrator), shared by the config and the integrator.
BALL_SLACK = 1e-6
_EQUATOR = (1.0, 0.0, 0.0)


class BlochVector(NamedTuple):
    px: float
    py: float
    pz: float

    def norm(self) -> float:
        return math.sqrt(self.px**2 + self.py**2 + self.pz**2)


class DensityMatrix2(NamedTuple):
    """Two-level density matrix; rho21 is implied by conjugation."""

    rho11: float
    rho22: float
    rho12: complex


@dataclass(frozen=True)
class TwoLevelParams:
    """Level splitting, shift coefficients and relaxation rates of one pair.

    The composites q, tau, lam are recomputed on every access so the object
    can never hold a stale derived value.
    """

    omega21: float
    gamma11: float = 0.0
    gamma22: float = 0.0
    gamma12: float = 0.0
    a12: float = 0.0
    b12: float = 0.0
    c12: float = 0.0
    t0: float = 0.0

    def __post_init__(self):
        for name in ("omega21", "gamma11", "gamma22", "gamma12", "a12", "b12", "c12", "t0"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite")

    @property
    def q(self) -> float:
        return 0.5 * (self.a12 - 2.0 * self.b12 + 2.0 * self.c12)

    @property
    def tau(self) -> float:
        return 0.5 * (self.gamma11 - self.gamma22)

    @property
    def lam(self) -> float:
        return 0.5 * (self.gamma11 + self.gamma22) - self.gamma12

    def dipole_only(self) -> "TwoLevelParams":
        """Same parameters with the current-moment rates removed (q -> a12/2)."""
        return replace(self, b12=0.0, c12=0.0)


def bloch_rhs(state: BlochVector, p: TwoLevelParams) -> BlochVector:
    """Time derivative of the Poincare vector."""
    px, py, pz = state
    q = p.q
    phi = -p.omega21 + p.tau + p.lam * pz
    return BlochVector(
        q * pz * px - phi * py,
        q * pz * py + phi * px,
        q * (pz * pz - 1.0),
    )


def _shift(p: TwoLevelParams, pz):
    """Frequency shift -tau - lam Pz at inversion ``pz`` (float or array)."""
    return -p.tau - p.lam * pz


def bloch_to_density(state: BlochVector) -> DensityMatrix2:
    """rho11 = (1 + Pz)/2, rho22 = (1 - Pz)/2, rho12 = (Px - i Py)/2; the
    components may be floats or arrays of equal shape."""
    px, py, pz = state
    return DensityMatrix2(0.5 * (1.0 + pz), 0.5 * (1.0 - pz), 0.5 * (px - 1j * py))


def _log_cosh_ratio(u, pz0: float):
    """ln(cosh u - pz0 sinh u), which is ln cosh(x0 + u) - ln cosh(x0) for
    tanh(x0) = -pz0 and |pz0| < 1 (float or array ``u``).

    Below |u| = 1 the argument is 1 + 2 sinh^2(u/2) - pz0 sinh u, so the
    result keeps its relative precision as u -> 0 (the (lam/q) ln cosh phase
    term at small q needs it). Above, the exponentials are factored out:
    |u| - ln 2 + ln[(1 - s pz0) + e^(-2|u|) (1 + s pz0)] with s = sign u,
    which cannot overflow.
    """
    u = np.asarray(u, dtype=float)
    near = np.clip(u, -1.0, 1.0)
    small = np.log1p(2.0 * np.sinh(0.5 * near) ** 2 - pz0 * np.sinh(near))
    s = np.where(u < 0.0, -1.0, 1.0)
    au = np.abs(u)
    large = au - math.log(2.0) + np.log((1.0 - s * pz0) + np.exp(-2.0 * au) * (1.0 + s * pz0))
    return np.where(au < 1.0, small, large)[()]


def _sech(x):
    """Overflow-safe 1/cosh (float or array): exp(-|x|) underflows to 0 gracefully."""
    e = np.exp(-np.abs(x))
    return 2.0 * e / (1.0 + e * e)


def _scalar_or_array(x):
    """A float for a 0-d result, the array otherwise."""
    return float(x) if np.ndim(x) == 0 else x


def bloch_flow(t, p: TwoLevelParams, start, t_start: float) -> np.ndarray:
    """Exact Bloch vectors at times ``t`` on the trajectory through ``start``
    at ``t_start``; shape ``np.shape(t) + (3,)``.

    For |Pz0| < 1 and q != 0, Pz = -tanh q(t - t1) with
    t1 = t_start + atanh(Pz0)/q. At Pz0 = +-1 (a fixed point; |Pz0| > 1 is
    treated as one) or q = 0, Pz stays Pz0. In every case

        Px - i Py = (Px0 - i Py0) exp(-L + i[(omega21 - tau)(t - t_start) + (lam/q) L])

    with L = -q times the integral of Pz from t_start, which is
    ln cosh q(t - t1) - ln cosh q(t_start - t1) on the tanh branch and
    -q Pz0 (t - t_start) at constant Pz, where (lam/q) L = -lam Pz0 (t - t_start).
    """
    px0, py0, pz0 = (float(v) for v in start)
    t = np.asarray(t, dtype=float)
    dt = t - t_start
    q = p.q
    if q != 0.0 and abs(pz0) < 1.0:
        t1 = t_start + math.atanh(pz0) / q
        pz = -np.tanh(q * (t - t1))
        # the difference of the two ln cosh terms, formed without cancellation
        big_l = _log_cosh_ratio(q * dt, pz0)
        turn = (p.lam / q) * big_l
    else:
        pz = np.full(t.shape, pz0)
        big_l = -q * pz0 * dt
        turn = -p.lam * pz0 * dt
    phase = (p.omega21 - p.tau) * dt + turn
    # a zero transverse start stays zero even where the envelope overflows
    env = np.exp(-big_l) if (px0 or py0) else np.zeros(t.shape)
    c, s = np.cos(phase), np.sin(phase)
    return np.stack([env * (px0 * c + py0 * s), env * (py0 * c - px0 * s), pz], axis=-1)


def _flow_anchor(p: TwoLevelParams, t_start: float, initial=None) -> tuple[tuple, float]:
    """(start, at) of a run from t_start: ``initial`` at t_start, or by default
    (1, 0, 0) at t0, or at t_start when q = 0, which has no t0."""
    if initial is not None:
        return initial, t_start
    return _EQUATOR, (t_start if p.q == 0.0 else p.t0)


def analytic_bloch(t: float, p: TwoLevelParams) -> BlochVector:
    """Closed-form solution passing through (1, 0, 0) at t = t0.

    Pz = -tanh q(t - t0); the transverse pair carries the sech envelope and
    the phase (omega21 - tau)(t - t0) + (lam/q) ln cosh q(t - t0). Refuses
    q = 0, where this family has no t0 to pass through (``bloch_flow`` covers
    q = 0 from any start).
    """
    if p.q == 0.0:
        raise ValueError("closed form undefined at q = 0 (ln cosh / q term); use bloch_flow from a start")
    return BlochVector(*bloch_flow(t, p, _EQUATOR, p.t0).tolist())


def frequency_shift(t, p: TwoLevelParams):
    """Instantaneous shift of the transition frequency along the closed form:
    -tau - lam Pz with Pz = -tanh q(t - t0). ``t`` is a float or an array;
    a float gives a float."""
    return _scalar_or_array(_shift(p, -np.tanh(p.q * (np.asarray(t, dtype=float) - p.t0))))


def additional_shift(t, p: TwoLevelParams):
    """Contribution of the current-moment rates to the frequency shift:

        lam tanh[(c12-b12) dt] sech^2[a12 dt / 2]
        -----------------------------------------
        1 + tanh[a12 dt / 2] tanh[(c12-b12) dt]

    By the tanh addition formula this equals frequency_shift with the full q
    minus frequency_shift with the dipole-only q = a12/2, exactly. ``t`` is a
    float or an array; a float gives a float.
    """
    t = np.asarray(t, dtype=float)
    dt = t - p.t0
    x = 0.5 * p.a12 * dt
    y = (p.c12 - p.b12) * dt
    sech_x = _sech(x)
    with np.errstate(divide="ignore", invalid="ignore"):
        value = p.lam * np.tanh(y) * sech_x * sech_x / (1.0 + np.tanh(x) * np.tanh(y))
    saturated = ~np.isfinite(value)
    if saturated.any():
        # saturated tanh at extreme arguments; fall back to the identical difference form
        difference = frequency_shift(t, p) - frequency_shift(t, p.dipole_only())
        value = np.where(saturated, difference, value)
    # tanh(-0.0) where c12 = b12 and t < t0; + 0.0 writes that zero as 0.0
    return _scalar_or_array(value + 0.0)
