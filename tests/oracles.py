"""Independent reference right-hand sides for the tests, and one RK4 loop.

The package has one two-level right-hand side, ``bloch_rhs`` on the Poincare
vector. The density-matrix form below is written from the population and
coherence equations directly, so tests that compare the two (or compare it
with ``multilevel_rhs`` at N = 2) check the Bloch form against an
independent derivation rather than against itself.

``rk4_density_path`` is the classical RK4 loop over ``multilevel_rhs`` that
the long-integration tests share; its step is the one the ``nlevel-drive``
benchmark workload takes.
"""

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
