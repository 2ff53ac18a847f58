"""Independent references for the tests: right-hand sides, the solid-harmonic
recursion, and one RK4 loop.

The package has one two-level right-hand side, ``bloch_rhs`` on the Poincare
vector. The density-matrix form below is written from the population and
coherence equations directly, so tests that compare the two (or compare it
with ``multilevel_rhs`` at N = 2) check the Bloch form against an
independent derivation rather than against itself.

``solid_harmonic_table`` is the Cartesian solid-harmonic recursion with the
gradient written one component at a time. The package's chain steps the
gradient as one array in the same operations per element, so every entry
must match the table to the bit.

``rk4_density_path`` is the classical RK4 loop over ``multilevel_rhs`` that
the long-integration tests share; its step is the one the ``nlevel-drive``
benchmark workload takes.
"""

import math

import numpy as np

from quadbloch import DensityMatrix2, NLevelSystem, TwoLevelParams, multilevel_rhs


def density_rhs_two_level(rho: DensityMatrix2, p: TwoLevelParams) -> DensityMatrix2:
    """Time derivative of the density matrix; populations decay as -2q r11 r22."""
    r11, r22, r12 = rho
    q = p.q
    flow = 2.0 * q * r11 * r22
    bracket = (-p.omega21) + p.gamma11 * r11 - p.gamma22 * r22 - p.gamma12 * (r11 - r22)
    d12 = (-1j * bracket + q * (r11 - r22)) * r12
    return DensityMatrix2(-flow, flow, d12)


def rk4_density_path(rho, system: NLevelSystem, h: float, steps: int):
    """Yield rho after each of ``steps`` RK4 steps of size h from t = 0."""
    for step in range(steps):
        t = step * h
        k1 = multilevel_rhs(rho, system, t)
        k2 = multilevel_rhs(rho + 0.5 * h * k1, system, t + 0.5 * h)
        k3 = multilevel_rhs(rho + 0.5 * h * k2, system, t + 0.5 * h)
        k4 = multilevel_rhs(rho + h * k3, system, t + h)
        rho = rho + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        yield rho


def solid_harmonic_table(l_max, pts):
    """Oracle: the full table of r^l Y_lm and gradients for 0 <= m <= l <= l_max,
    every entry built from the recursion in the same float operations."""
    x = pts[..., 0]
    y = pts[..., 1]
    z = pts[..., 2]
    r2 = x * x + y * y + z * z
    xy = x + 1j * y

    vals = {}
    grads = {}
    shape = x.shape
    vals[(0, 0)] = np.full(shape, 0.5 / math.sqrt(math.pi), dtype=complex)
    grads[(0, 0)] = np.zeros(shape + (3,), dtype=complex)

    for l in range(1, l_max + 1):
        c = -math.sqrt((2 * l + 1) / (2 * l))
        v0 = vals[(l - 1, l - 1)]
        g0 = grads[(l - 1, l - 1)]
        vals[(l, l)] = c * xy * v0
        g = np.empty(shape + (3,), dtype=complex)
        g[..., 0] = c * (v0 + xy * g0[..., 0])
        g[..., 1] = c * (1j * v0 + xy * g0[..., 1])
        g[..., 2] = c * xy * g0[..., 2]
        grads[(l, l)] = g

        c = math.sqrt(2 * l + 1)
        vals[(l, l - 1)] = c * z * v0
        g = c * z[..., None] * g0
        g[..., 2] += c * v0
        grads[(l, l - 1)] = g

        for m in range(l - 2, -1, -1):
            a = math.sqrt((4 * l * l - 1) / (l * l - m * m))
            b = math.sqrt(((l - 1) ** 2 - m * m) / (4 * (l - 1) ** 2 - 1))
            v1 = vals[(l - 1, m)]
            g1 = grads[(l - 1, m)]
            v2 = vals[(l - 2, m)]
            g2 = grads[(l - 2, m)]
            vals[(l, m)] = a * (z * v1 - b * r2 * v2)
            g = np.empty(shape + (3,), dtype=complex)
            g[..., 0] = a * (z * g1[..., 0] - b * (2 * x * v2 + r2 * g2[..., 0]))
            g[..., 1] = a * (z * g1[..., 1] - b * (2 * y * v2 + r2 * g2[..., 1]))
            g[..., 2] = a * (v1 + z * g1[..., 2] - b * (2 * z * v2 + r2 * g2[..., 2]))
            grads[(l, m)] = g

    return vals, grads
