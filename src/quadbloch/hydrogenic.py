"""Closed-form hydrogenic bound states.

States use complex spherical harmonics with the Condon-Shortley phase;
lengths are in Bohr radii, energies in hartree. Values and gradients are
assembled from a Cartesian recursion for solid harmonics r^l Y_lm, which
keeps the evaluation polynomial in (x, y, z): there is no spherical-angle
chain rule, so points on the polar axis are as good as any other point.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

_ORBITAL_LETTERS = "spdfghik"


@dataclass(frozen=True)
class BoundState:
    """Hydrogenic level (n, l, m) bound to a pointlike nucleus of charge z.

    Quantum numbers are validated at construction: n >= 1, 0 <= l <= n-1,
    -l <= m <= l. ``z_charge`` may be fractional (screened effective charge);
    it must be positive and finite.
    """

    n: int
    l: int
    m: int = 0
    z_charge: float = 1.0

    def __post_init__(self):
        if self.n < 1:
            raise ValueError(f"principal quantum number must be >= 1, got n={self.n}")
        if not 0 <= self.l <= self.n - 1:
            raise ValueError(f"orbital quantum number must satisfy 0 <= l <= n-1, got l={self.l} for n={self.n}")
        if not -self.l <= self.m <= self.l:
            raise ValueError(f"magnetic quantum number must satisfy |m| <= l, got m={self.m} for l={self.l}")
        if not 0 < self.z_charge < math.inf:
            raise ValueError(f"nuclear charge must be positive and finite, got {self.z_charge}")

    @property
    def decay_constant(self) -> float:
        """Asymptotic exponential decay rate z/n of the radial function."""
        return self.z_charge / self.n

    def label(self) -> str:
        """Spectroscopic label ('2p', '3d-1'); 'n,l,m' past the last orbital
        letter. Both forms read back through ``config.parse_state`` (at z = 1)."""
        if self.l >= len(_ORBITAL_LETTERS):
            return f"{self.n},{self.l},{self.m}"
        letter = _ORBITAL_LETTERS[self.l]
        if self.m == 0:
            return f"{self.n}{letter}"
        return f"{self.n}{letter}{self.m:+d}"


def bound_energy(state: BoundState) -> float:
    """Energy of the level in hartree: -z^2 / (2 n^2)."""
    return -0.5 * state.z_charge**2 / state.n**2


def transition_frequency(a: BoundState, b: BoundState) -> float:
    """Angular frequency (E_a - E_b)/hbar in atomic units; antisymmetric in (a, b)."""
    if a.z_charge != b.z_charge:
        raise ValueError("transition frequency is defined for levels of the same atom (equal z_charge)")
    return bound_energy(a) - bound_energy(b)


def _solid_harmonic_chain(l, m, pts):
    """Complex solid harmonic r^l Y_lm and its Cartesian gradient, 0 <= m <= l.

    Only the entries the recursion needs are built: the diagonal up to
    S_m^m, then the column m up to S_l^m. The recursion carries the gradient
    alongside the value, so both are exact polynomial evaluations (no pole
    at sin(theta) = 0). Each step updates the gradient as one (..., 3) array;
    every element still takes the operations of the per-component recursion
    in the same order, so the result is the same to the bit.
    """
    x = pts[..., 0]
    y = pts[..., 1]
    z = pts[..., 2]
    r2 = x * x + y * y + z * z
    xy = x + 1j * y
    shape = x.shape
    v = np.full(shape, 0.5 / math.sqrt(math.pi), dtype=complex)
    g = np.zeros(shape + (3,), dtype=complex)

    # diagonal: S_j^j = -sqrt((2j+1)/(2j)) (x + iy) S_{j-1}^{j-1}
    for j in range(1, m + 1):
        c = -math.sqrt((2 * j + 1) / (2 * j))
        cxy = c * xy
        v0, g0 = v, g
        v = cxy * v0
        # d/dx and d/dy are c (v0 + xy g0), with i v0 for y; d/dz is (c xy) g0.
        # S_j^j depends on x + iy alone, so d/dz is always a signed zero; it is
        # still multiplied, not written, so that the zeros' signs follow the
        # per-component recursion, which tests compare with the chain bit for bit.
        g = xy[..., None] * g0
        g[..., 0] += v0
        g[..., 1] += 1j * v0
        g[..., :2] *= c
        g[..., 2] = cxy * g0[..., 2]
    if l == m:
        return v, g

    # first subdiagonal: S_{m+1}^m = sqrt(2m+3) z S_m^m
    c = math.sqrt(2 * m + 3)
    v2, g2 = v, g
    v = c * z * v2
    g = c * z[..., None] * g2
    g[..., 2] += c * v2

    # up the column: S_j^m = a [z S_{j-1}^m - b r^2 S_{j-2}^m]; its gradient
    # is a [z g1 + v1 e_z - b (2 pts v2 + r^2 g2)]
    z_col = z[..., None]
    r2_col = r2[..., None]
    two_pts = 2.0 * pts
    for j in range(m + 2, l + 1):
        a = math.sqrt((4 * j * j - 1) / (j * j - m * m))
        b = math.sqrt(((j - 1) ** 2 - m * m) / (4 * (j - 1) ** 2 - 1))
        v1, g1 = v, g
        v = a * (z * v1 - b * r2 * v2)
        g = z_col * g1
        g[..., 2] += v1
        g -= b * (two_pts * v2[..., None] + r2_col * g2)
        g *= a
        v2, g2 = v1, g1
    return v, g


def solid_harmonic(l, m, points):
    """Evaluate r^l Y_lm and its Cartesian gradient at ``points`` (shape (..., 3))."""
    pts = np.asarray(points, dtype=float)
    val, grad = _solid_harmonic_chain(l, abs(m), pts)
    if m >= 0:
        return val, grad
    # S_l^{-m} = (-1)^m conj(S_l^m); coordinates are real so the gradient conjugates too
    sign = -1.0 if m % 2 else 1.0
    return sign * np.conj(val), sign * np.conj(grad)


def _laguerre(k, alpha, u):
    """Generalized Laguerre polynomial L_k^alpha(u) by its three-term recurrence."""
    prev = np.ones_like(u)
    if k == 0:
        return prev
    cur = 1.0 + alpha - u
    for j in range(1, k):
        prev, cur = cur, ((2 * j + 1 + alpha - u) * cur - (j + alpha) * prev) / (j + 1)
    return cur


def _radial_envelope(state: BoundState, r):
    """g(r) = R_nl(r) / r^l and its derivative; both are smooth through r = 0.

    R_nl(r) = N exp(-u/2) u^l L_{n-l-1}^{2l+1}(u) with u = (2z/n) r, so
    g(r) = N (2z/n)^l exp(-u/2) L(u). Using dL_k^a/du = -L_{k-1}^{a+1}(u).
    """
    n, l, z = state.n, state.l, state.z_charge
    a = 2.0 * z / n
    try:
        norm = math.sqrt(a**3 * math.factorial(n - l - 1) / (2 * n * math.factorial(n + l)))
    except OverflowError:
        raise ValueError(f"state {state.label()}: its normalization's (n + l)! = {n + l}! overflows a float") from None
    u = a * r
    lag = _laguerre(n - l - 1, 2 * l + 1, u)
    if n - l - 2 >= 0:
        dlag = -_laguerre(n - l - 2, 2 * l + 2, u)
    else:
        dlag = np.zeros_like(u)
    envelope = np.exp(-0.5 * u)
    g = norm * a**l * envelope * lag
    gp = norm * a ** (l + 1) * envelope * (dlag - 0.5 * lag)
    return g, gp


def eigenstate_factors(state: BoundState, r, unit):
    """The state's radial and angular factors on a product grid r_i n_j.

    With S = r^l Y_lm homogeneous of degree l, psi(r n) = u(r) S(n) and
    grad psi(r n) = u'(r) S(n) n + v(r) grad S(n), where u = g r^l,
    u' = g' r^l and v = g r^(l-1) (g from ``_radial_envelope``). Returns the
    real radial rows (u, u', v), shape (3, Nr), and the complex angular rows
    (S, S n_x, S n_y, S n_z, dS/dx, dS/dy, dS/dz), shape (7, Na). Radial
    nodes must be positive. Rows that are not finite (from l = 77 on the pair
    grids, r^l overflows where g underflows) are refused with a ValueError.
    """
    l = state.l
    with np.errstate(over="ignore", invalid="ignore"):
        g, gp = _radial_envelope(state, r)
        rl1 = r ** (l - 1)
        rl = rl1 * r
        radial = np.array([g * rl, gp * rl, g * rl1])
    if not np.isfinite(radial).all():
        raise ValueError(f"state {state.label()}: r^{l} overflows a float on its grid, r <= {np.max(r):.4g}")
    sval, sgrad = solid_harmonic(l, state.m, unit)
    angular = np.concatenate([sval[None, :], sval * unit.T, sgrad.T])
    return radial, angular
