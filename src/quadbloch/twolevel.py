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

The flow's stated error is its rounding, ``_flow_rounding``: 8 eps (1 + R T),
with R (``_rate_bound``) a bound on every rate of the flow and T on the
times and phases it multiplies. ``verify`` builds its tolerances on it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import NamedTuple

import numpy as np

# Slack by which a state may leave the closed unit ball (rounding of inputs
# and of the fixed-step integrator), shared by the start rule and the integrator.
BALL_SLACK = 1e-6
_EQUATOR = (1.0, 0.0, 0.0)
_FLOW_ROUNDING = 8.0         # eps per unit of (1 + phase) in one flow sample


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


def _inversion(t: np.ndarray, q: float, pz0: float, at: float) -> np.ndarray:
    """Pz at times ``t`` from Pz0 at ``at``: -tanh q(t - t1) with t1 = at + atanh(Pz0)/q,
    or Pz0 at q = 0 and at a fixed point (|Pz0| >= 1; above 1 treated as one)."""
    if q != 0.0 and abs(pz0) < 1.0:
        return -np.tanh(q * (t - (at + math.atanh(pz0) / q)))
    return np.full(t.shape, pz0)


def _scalar_or_array(x):
    """A float for a 0-d result, the array otherwise."""
    return float(x) if np.ndim(x) == 0 else x


def bloch_flow(t, p: TwoLevelParams, start, t_start: float) -> np.ndarray:
    """Exact Bloch vectors at times ``t`` on the trajectory through ``start``
    at ``t_start``; shape ``np.shape(t) + (3,)``.

    Pz is ``_inversion``'s -tanh q(t - t1), or Pz0 held constant, and

        Px - i Py = (Px0 - i Py0) exp(-L + i[(omega21 - tau)(t - t_start) + (lam/q) L])

    with L = -q times the integral of Pz from t_start, which is
    ln cosh q(t - t1) - ln cosh q(t_start - t1) on the tanh branch and
    -q Pz0 (t - t_start) at constant Pz, where (lam/q) L = -lam Pz0 (t - t_start).
    """
    px0, py0, pz0 = (float(v) for v in start)
    t = np.asarray(t, dtype=float)
    dt = t - t_start
    q = p.q
    pz = _inversion(t, q, pz0, t_start)
    if q != 0.0 and abs(pz0) < 1.0:
        # the difference of the two ln cosh terms, formed without cancellation
        big_l = _log_cosh_ratio(q * dt, pz0)
        turn = (p.lam / q) * big_l
    else:
        big_l = -q * pz0 * dt
        turn = -p.lam * pz0 * dt
    phase = (p.omega21 - p.tau) * dt + turn
    # a zero transverse start stays zero even where the envelope overflows
    env = np.exp(-big_l) if (px0 or py0) else np.zeros(t.shape)
    c, s = np.cos(phase), np.sin(phase)
    return np.stack([env * (px0 * c + py0 * s), env * (py0 * c - px0 * s), pz], axis=-1)


def _rate_bound(p: TwoLevelParams) -> float:
    """R = max(1, |omega21 - tau| + |lam| + |q|), a bound on every rate of
    the flow: the turn rate omega21 - tau - lam Pz and q, with |Pz| <= 1."""
    return max(1.0, abs(p.omega21 - p.tau) + abs(p.lam) + abs(p.q))


def _flow_rounding(p: TwoLevelParams, at: float, t_start: float, t_end: float) -> float:
    """_FLOW_ROUNDING eps (1 + R T), the rounding of a ``bloch_flow`` sample anchored at ``at``
    on [t_start, t_end]: the phase is a product of size up to R |t - at|, and t is rounded at
    |t|, so T = max |t| + max |t - at|."""
    span = max(abs(t_start), abs(t_end)) + max(abs(t_start - at), abs(t_end - at))
    return _FLOW_ROUNDING * np.finfo(float).eps * (1.0 + _rate_bound(p) * span)


def _ball_start(initial) -> BlochVector:
    """``initial`` by the one rule for a given start: a ValueError naming it
    when its norm (``math.hypot``, which cannot overflow) is above
    1 + BALL_SLACK, nan included; divided by its norm when that is in
    (1, 1 + BALL_SLACK], so that the flow and RK4 start from the same pole
    (the flow holds |Pz0| >= 1 fixed, RK4 moves Pz0 > 1 by q (Pz^2 - 1));
    as given otherwise."""
    try:
        start = BlochVector(*(float(v) for v in initial))
    except (TypeError, ValueError):
        raise ValueError(f"start {initial!r} is not three numbers (px, py, pz)") from None
    norm = math.hypot(*start)
    if not norm <= 1.0 + BALL_SLACK:
        raise ValueError(f"start {tuple(start)} has norm {norm:.17g}, outside the Bloch ball |P| <= 1 + {BALL_SLACK:g}")
    norm = start.norm()     # BlochVector.norm divides, so the projected starts simulate writes keep their bits
    return BlochVector(*(v / norm for v in start)) if norm > 1.0 else start


def _flow_anchor(p: TwoLevelParams, t_start: float | None, initial=None) -> tuple[tuple, float]:
    """(start, at) of a run, the one place that decides it: ``initial`` at
    ``t_start`` by the start rule (``_ball_start``), or by default (1, 0, 0)
    at t0, at every q. A start given without its time is a ValueError."""
    if initial is None:
        return _EQUATOR, p.t0
    if t_start is None:
        raise ValueError("a start needs its time: pass t_start with initial")
    return _ball_start(initial), t_start


def analytic_bloch(t: float, p: TwoLevelParams) -> BlochVector:
    """``bloch_flow`` through the default start, (1, 0, 0) at t0.

    Pz = -tanh q(t - t0); the transverse pair carries the sech envelope and
    the phase (omega21 - tau)(t - t0) + (lam/q) ln cosh q(t - t0), which at
    q = 0 is a rotation at omega21 - tau from (1, 0, 0) at t0.
    """
    return BlochVector(*bloch_flow(t, p, *_flow_anchor(p, None)).tolist())


def frequency_shift(t, p: TwoLevelParams, initial=None, t_start=None):
    """Frequency shift -tau - lam Pz along ``bloch_flow`` from ``initial`` at
    ``t_start`` (``_flow_anchor``), by default Pz = -tanh q(t - t0) at every
    q, so -tau at t0. A float ``t`` gives a float."""
    start, at = _flow_anchor(p, t_start, initial)
    return _scalar_or_array(_shift(p, _inversion(np.asarray(t, dtype=float), p.q, start[2], at)))


def additional_shift(t, p: TwoLevelParams, initial=None, t_start=None):
    """``frequency_shift`` less its value at the dipole-only q = a12/2, from
    the same start. With dt = t - at, x = (a12/2) dt - atanh(Pz0) and
    y = (c12 - b12) dt it is lam [tanh(x + y) - tanh x] = lam sinh(y) sech(x)
    sech(x + y), formed from exponentials of non-positive arguments, so it
    cannot cancel or overflow; 0 at c12 = b12, at ``at`` and where |Pz0| >= 1.
    A float ``t`` gives a float."""
    (_, _, pz0), at = _flow_anchor(p, t_start, initial)
    dt = np.asarray(t, dtype=float) - at
    if abs(pz0) >= 1.0:
        return _scalar_or_array(np.zeros(dt.shape))
    x = 0.5 * p.a12 * dt - math.atanh(pz0)
    y = (p.c12 - p.b12) * dt
    ax, ay, axy = np.abs(x), np.abs(y), np.abs(x + y)
    value = (2.0 * p.lam * np.sign(y) * -np.expm1(-2.0 * ay) * np.exp(ay - ax - axy)
             / ((1.0 + np.exp(-2.0 * ax)) * (1.0 + np.exp(-2.0 * axy))))
    return _scalar_or_array(value)
