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
Welsch, Math. Comp. 23, 1969). So ``grid_for_pair`` builds the smallest
exact grid,

    radial_node_count = ceil((n_a + n_b + 3) / 2) = (n_a + n_b + 4) // 2
    angular_order     = l_a + l_b + 2,

and that rule is the only way a pair grid is sized.

A ``Grid`` hands out its factors, the radial nodes and weights and the unit
vectors and angular weights, because every pair integral separates into a
radial sum times an angular sum (see ``multipole``); its flattened
``points`` and ``weights`` are their outer products.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .hydrogenic import BoundState


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
    """Product grid of radial nodes and unit vectors:
    sum(weights * f(points)) == int f d^3x.

    The factors are what pair integrals use: a point is r_i n_j with weight
    radial_weights[i] * angular_weights[j] (r^2 measure in the radial
    weights). ``points`` and ``weights`` flatten that product, radial index
    slowest. ``radial_degree`` and ``angular_degree`` are the degrees the
    grid integrates exactly: exp(-radial_scale r) r^k for k <= radial_degree
    (r^2 measure included) and Y_lm for l <= angular_degree.
    """

    radial_nodes: np.ndarray       # (Nr,)
    radial_weights: np.ndarray     # (Nr,), r^2 measure included
    unit_vectors: np.ndarray       # (Na, 3)
    angular_weights: np.ndarray    # (Na,)
    radial_scale: float
    radial_degree: int
    angular_degree: int

    @property
    def points(self) -> np.ndarray:
        """(Nr * Na, 3) flattened product points."""
        return (self.radial_nodes[:, None, None] * self.unit_vectors[None, :, :]).reshape(-1, 3)

    @property
    def weights(self) -> np.ndarray:
        """(Nr * Na,) flattened product weights."""
        return (self.radial_weights[:, None] * self.angular_weights[None, :]).ravel()


def _product_grid(scale: float, count: int, order: int) -> Grid:
    """Product of ``count`` Gauss-Laguerre nodes scaled to the decay ``scale``
    and the angular rule of order ``order``. The package sizes it only through
    ``grid_for_pair``; tests build denser and coarser grids with it."""
    x, lifted = _radial_rule(count)
    r = x / scale
    w_r = lifted / scale * r * r        # includes the r^2 volume measure
    r.setflags(write=False)
    w_r.setflags(write=False)
    unit, w_ang = _angular_rule(order)
    return Grid(radial_nodes=r, radial_weights=w_r, unit_vectors=unit, angular_weights=w_ang,
                radial_scale=scale, radial_degree=2 * count - 1, angular_degree=order)


def grid_for_pair(a: BoundState, b: BoundState) -> Grid:
    """Smallest product grid exact for every pair integral of (a, b) (see
    the module note): radial degree n_a + n_b + 2 at the pair's decay, and
    angular order l_a + l_b + 2."""
    count = (a.n + b.n + 4) // 2       # 2 count - 1 >= n_a + n_b + 2
    return _product_grid(a.decay_constant + b.decay_constant, count, a.l + b.l + 2)
