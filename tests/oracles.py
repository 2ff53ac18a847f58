"""Independent reference right-hand sides for the tests.

The package has one two-level right-hand side, ``bloch_rhs`` on the Poincare
vector. The density-matrix form below is written from the population and
coherence equations directly, so tests that compare the two (or compare it
with ``multilevel_rhs`` at N = 2) check the Bloch form against an
independent derivation rather than against itself.
"""

from quadbloch import DensityMatrix2, TwoLevelParams


def density_rhs_two_level(rho: DensityMatrix2, p: TwoLevelParams) -> DensityMatrix2:
    """Time derivative of the density matrix; populations decay as -2q r11 r22."""
    r11, r22, r12 = rho
    q = p.q
    flow = 2.0 * q * r11 * r22
    bracket = (-p.omega21) + p.gamma11 * r11 - p.gamma22 * r22 - p.gamma12 * (r11 - r22)
    d12 = (-1j * bracket + q * (r11 - r22)) * r12
    return DensityMatrix2(-flow, flow, d12)
