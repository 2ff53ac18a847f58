"""Product quadrature grids for hydrogenic matrix elements, sized exactly.

Radial integrals over [0, inf) use Gauss-Laguerre nodes scaled to the
pair's combined decay s = z_a/n_a + z_b/n_b; the solid angle uses
Gauss-Legendre nodes in cos(theta) tensored with a uniform azimuthal grid.

Degree rule. Every pair integrand here is exp(-s r) times a polynomial.
After the r^2 volume measure its radial degree is at most n_a + n_b + 2
(the quadrupole's r^2 weight reaches it), and its angular part is a
spherical-harmonic expansion of order at most l_a + l_b + 2. N scaled
Gauss-Laguerre nodes integrate exp(-s r) r^k exactly for k <= 2N - 1, and
the angular product integrates Y_lm exactly for l <= angular_order (Golub &
Welsch, Math. Comp. 23, 1969). So with ``spec=None`` ``grid_for_pair``
builds the smallest exact grid,

    radial_node_count = max(16, ceil((n_a + n_b + 3) / 2))
    angular_order     = l_a + l_b + 2,

and an explicit ``QuadratureSpec`` is checked against the same degrees
before anything is evaluated: a rule that is not exact for the pair, or a
fixed ``radial_scale`` other than s, raises ``QuadratureError``.

``DEFAULT_SPEC`` (200 radial nodes, angular order 35) is the dense
reference spec, exact for every pair with l_a + l_b <= 33. It is what
``QuadratureSpec()`` gives, not what ``spec=None`` builds.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .hydrogenic import BoundState


class QuadratureError(RuntimeError):
    """Raised when a grid is not exact for the pair it is asked to integrate."""


_MIN_RADIAL_NODES = 16
_SCALE_RTOL = 1e-14        # a fixed radial_scale may differ from the pair's decay by rounding only


@dataclass(frozen=True)
class QuadratureSpec:
    """Grid resolution: radial node count, optional fixed radial scale
    (inverse length; None = the pair's decay, which is the only scale at
    which the rule is exact), and the spherical-harmonic order the angular
    grid integrates exactly."""

    radial_node_count: int = 200
    radial_scale: float | None = None
    angular_order: int = 35

    def __post_init__(self):
        if self.radial_node_count < _MIN_RADIAL_NODES:
            raise ValueError(f"radial_node_count must be >= {_MIN_RADIAL_NODES}, got {self.radial_node_count}")
        if self.radial_scale is not None and self.radial_scale <= 0:
            raise ValueError(f"radial_scale must be positive, got {self.radial_scale}")
        if self.angular_order < 1:
            raise ValueError(f"angular_order must be >= 1, got {self.angular_order}")


DEFAULT_SPEC = QuadratureSpec()


@lru_cache(maxsize=None)
def _radial_rule(count: int):
    """Nodes x_i and lifted weights W_i = w_i e^{x_i} for int_0^inf f(x) dx.

    Nodes are the eigenvalues of the symmetric tridiagonal Laguerre Jacobi
    matrix (diagonal 2k + 1, off-diagonal 1, ..., count - 1). The lifted
    weights come from the Christoffel identity W = 1 / sum_k phit_k(x)^2
    evaluated with the exponentially scaled orthonormal polynomials
    phit_k = phi_k e^{-x/2}, which keeps every quantity in range where
    library Laguerre rules underflow (raw weights die past x ~ 745). Nodes
    beyond x = 1400, where even the scaled start value underflows, are
    dropped; their true contributions are below e^-1400.
    """
    off = np.arange(1.0, count)
    jacobi = np.diag(2.0 * np.arange(count) + 1.0) + np.diag(off, 1) + np.diag(off, -1)
    x = np.linalg.eigvalsh(jacobi)
    x = x[x <= 1400.0]

    phi_prev = np.exp(-0.5 * x)
    total = phi_prev * phi_prev
    if count > 1:
        phi = (x - 1.0) * phi_prev
        total += phi * phi
        for j in range(1, count - 1):
            phi_prev, phi = phi, ((x - (2.0 * j + 1.0)) * phi - j * phi_prev) / (j + 1.0)
            total += phi * phi
    lifted = 1.0 / total
    x.setflags(write=False)
    lifted.setflags(write=False)
    return x, lifted


@lru_cache(maxsize=None)
def _angular_rule(order: int):
    """Unit vectors and weights integrating Y_lm exactly for l <= order."""
    n_theta = (order + 2) // 2          # Gauss-Legendre: exact to degree 2n-1
    n_phi = order + 1                   # trapezoid: exact for |m| <= n_phi - 1
    u, wu = np.polynomial.legendre.leggauss(n_theta)
    phi = 2.0 * math.pi * np.arange(n_phi) / n_phi
    sin_t = np.sqrt(1.0 - u * u)

    nx = np.outer(sin_t, np.cos(phi)).ravel()
    ny = np.outer(sin_t, np.sin(phi)).ravel()
    nz = np.outer(u, np.ones(n_phi)).ravel()
    unit = np.stack([nx, ny, nz], axis=-1)
    weights = np.repeat(wu, n_phi) * (2.0 * math.pi / n_phi)
    unit.setflags(write=False)
    weights.setflags(write=False)
    return unit, weights


@dataclass(frozen=True)
class Grid:
    """Flattened 3D product grid: sum(weights * f(points)) == int f d^3x.

    ``radial_degree`` and ``angular_degree`` are the degrees the grid
    integrates exactly: exp(-radial_scale r) r^k for k <= radial_degree
    (r^2 measure included) and Y_lm for l <= angular_degree.
    """

    points: np.ndarray       # (N, 3)
    weights: np.ndarray      # (N,)
    radial_scale: float
    spec: QuadratureSpec
    radial_degree: int
    angular_degree: int


def pair_scale(a: BoundState, b: BoundState) -> float:
    """Combined exponential decay z_a/n_a + z_b/n_b of a product of states."""
    return a.decay_constant + b.decay_constant


def pair_degrees(a: BoundState, b: BoundState) -> tuple[int, int]:
    """(radial, angular) degree every pair integral of (a, b) stays within."""
    return a.n + b.n + 2, a.l + b.l + 2


def _check_exact(a: BoundState, b: BoundState, spec: QuadratureSpec, scale: float):
    pair = f"{a.label()}-{b.label()}"
    if spec.radial_scale is not None and not math.isclose(spec.radial_scale, scale, rel_tol=_SCALE_RTOL):
        raise QuadratureError(
            f"radial_scale {spec.radial_scale!r} is not the decay {scale!r} of {pair}: the "
            f"Gauss-Laguerre rule is exact only at that scale; leave radial_scale unset"
        )
    radial_need, angular_need = pair_degrees(a, b)
    radial_have = 2 * spec.radial_node_count - 1
    if radial_have < radial_need:
        raise QuadratureError(
            f"grid is not exact for {pair}: radial degree {radial_need} needed, {radial_have} "
            f"supplied by {spec.radial_node_count} nodes; use radial_node_count >= "
            f"{(radial_need + 2) // 2} or pass spec=None"
        )
    if spec.angular_order < angular_need:
        raise QuadratureError(
            f"grid is not exact for {pair}: angular degree {angular_need} needed, "
            f"{spec.angular_order} supplied; use angular_order >= {angular_need} or pass spec=None"
        )


def grid_for_pair(a: BoundState, b: BoundState, spec: QuadratureSpec | None = None) -> Grid:
    """Product grid exact for every pair integral of (a, b).

    ``spec=None`` builds the smallest exact grid (see the module note); an
    explicit spec that is not exact for the pair raises ``QuadratureError``.
    """
    scale = pair_scale(a, b)
    if spec is None:
        radial_need, angular_need = pair_degrees(a, b)
        spec = QuadratureSpec(radial_node_count=max(_MIN_RADIAL_NODES, (radial_need + 2) // 2),
                              angular_order=angular_need)
    _check_exact(a, b, spec, scale)
    x, lifted = _radial_rule(spec.radial_node_count)
    r = x / scale
    w_r = lifted / scale * r * r        # includes the r^2 volume measure

    unit, w_ang = _angular_rule(spec.angular_order)
    points = (r[:, None, None] * unit[None, :, :]).reshape(-1, 3)
    weights = (w_r[:, None] * w_ang[None, :]).ravel()
    points.setflags(write=False)
    weights.setflags(write=False)
    return Grid(points=points, weights=weights, radial_scale=scale, spec=spec,
                radial_degree=2 * spec.radial_node_count - 1, angular_degree=spec.angular_order)
