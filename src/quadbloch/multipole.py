"""Transition moments and radiative coupling rates for hydrogenic pairs.

Definitions (atomic units, e = hbar = m = 1, c = 1/alpha):

    D_ab^i     = int psi_a x^i conj(psi_b) d3x
    Q_ab^ij    = int psi_a r^ij conj(psi_b) d3x,  r^ij = (x^i x^j - r^2 d^ij / 3) / 2
    Jbar_ab    = [conj(psi_b) grad psi_a - psi_b conj(grad psi_a)] / (2i)
               = Im(conj(psi_b) grad psi_a)
    Delta_ab^i = int r Jbar_ab^i d3x
    delta_ab^ki= int (x^k / r) Jbar_ab^i d3x

and the rates built from them,

    A_ab = (4/3) (D_ab . D_ba) W^3 / c^3        (spontaneous-emission rate)
    B_ab = (D_ab . Delta_ab) W^3 / c^4
    C_ab = (Q_ab : sym(delta_ab)) W^3 / c^4

with W the transition angular frequency, and the level-shift estimate
Gamma(k_max) from the gradient matrix elements <a|grad|b> and <b|grad|a>
(see ``MultipoleData.gamma``). The double contraction in C pairs
the two free indices of Q with the symmetrized current moment; that pairing
is the only one producing a scalar from a symmetric traceless Q and is the
convention adopted throughout (mirrored in the CLI docs).

Note that Jbar is identically zero whenever both wavefunctions are real
(e.g. any pair of m = 0 states): the bracket is the imaginary part of a
real product. Nonzero current moments require a complex member (m != 0),
and the B/C contractions may then come out complex; the real part is
reported. Pairs are expected to share the same nucleus.

Every pair integral comes from one exact product grid (see ``quadrature``)
of Nr radial nodes and Na unit vectors. Each state is evaluated once on
those Nr + Na nodes, never on the Nr * Na grid points: psi = u(r) S(n) and
grad psi = u'(r) S(n) n + v(r) grad S(n) with S = r^l Y_lm (see
``eigenstate_factors``). Every integral is then a radial sum times an
angular sum, read off a real radial Gram matrix R_k = (R_a w_r r^k) R_b^T
(k = 0, 1, 2) and a complex angular one T = (F_a w_n) F_b^H. The rates and
Gamma are arithmetic on the resulting ``MultipoleData``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .constants import SPEED_OF_LIGHT
from .hydrogenic import BoundState, eigenstate_eval, eigenstate_factors, transition_frequency
from .quadrature import grid_for_pair


@dataclass(frozen=True)
class CouplingRates:
    a_rate: float
    b_rate: float
    c_rate: float


@dataclass(frozen=True)
class MultipoleData:
    """All transition integrals of a level pair on one grid."""

    omega: float
    dipole: np.ndarray          # (3,) complex
    quadrupole: np.ndarray      # (3, 3) complex, symmetric traceless
    delta_vec: np.ndarray       # (3,) real
    delta_tensor: np.ndarray    # (3, 3) real, row k from x^k/r, column i from Jbar^i
    grad_ab: np.ndarray         # (3,) complex, <a|grad|b> = int conj(psi_a) grad psi_b
    grad_ba: np.ndarray         # (3,) complex, <b|grad|a>

    def rates(self) -> CouplingRates:
        """Radiative rates A_ab, B_ab, C_ab; Gamma is ``gamma(k_max)``.

        Degenerate pairs return exact zeros: every rate carries the W^3
        prefactor. The B and C contractions are reported as real parts (see
        the module note on complex pairs).
        """
        if self.omega == 0.0:
            return CouplingRates(0.0, 0.0, 0.0)
        w3 = self.omega**3
        c = SPEED_OF_LIGHT
        d_dot = float(np.real(np.dot(self.dipole, np.conj(self.dipole))))
        a_rate = (4.0 / 3.0) * d_dot * w3 / c**3
        b_rate = float(np.real(np.dot(self.dipole, self.delta_vec))) * w3 / c**4
        sym_delta = 0.5 * (self.delta_tensor + self.delta_tensor.T)
        c_rate = float(np.real(np.sum(self.quadrupole * sym_delta))) * w3 / c**4
        return CouplingRates(a_rate, b_rate, c_rate)

    def gamma(self, k_max: float) -> float:
        """Rough cutoff-regularized level-shift coefficient Gamma_ab(k_max).

        The underlying mode integral grows without bound in the wavenumber,
        so any finite value is prescription-dependent. This estimator takes
        the long-wavelength limit of the mode factors (e^{ikx} -> 1),
        averages the transverse projection over photon directions (factor
        2/3), and cuts the k integral off at ``k_max``:

            Gamma(k_max) = (4 / (3 pi c^2)) k_max |<a| grad |b>|^2

        It is symmetric in (a, b) by construction (the two directed gradient
        matrix elements are averaged), monotone in k_max, and zero at
        k_max = 0. Treat it as an order-of-magnitude handle; simulations
        normally take the shift coefficients as explicit inputs.
        """
        if not 0.0 <= k_max < np.inf:
            raise ValueError(f"k_max must be finite and nonnegative, got {k_max}")
        mag2 = 0.5 * (float(np.sum(np.abs(self.grad_ab) ** 2)) + float(np.sum(np.abs(self.grad_ba) ** 2)))
        return (4.0 / (3.0 * np.pi * SPEED_OF_LIGHT**2)) * k_max * mag2


def _pair_gram(a: BoundState, b: BoundState):
    """Radial Gram matrices R_k = (R_a w_r r^k) R_b^T, k = 0, 1, 2 (shape
    (3, 3, 3), real), and the angular Gram matrix T = (F_a w_n) F_b^H (7 x 7,
    complex), from each state's factors on the pair's exact grid (see
    ``eigenstate_factors``). Every pair integral is a radial entry times an
    angular entry: the product-grid sum regrouped.

    Both orders of a pair get the same sums, taken in one fixed order and
    transposed for the other, so swapping the pair conjugates every moment
    exactly and Gamma is exactly symmetric.
    """
    grid = grid_for_pair(a, b)
    swap = (b.n, b.l, b.m, b.z_charge) < (a.n, a.l, a.m, a.z_charge)
    if swap:
        a, b = b, a
    r = grid.radial_nodes
    radial_a, angular_a = eigenstate_factors(a, r, grid.unit_vectors)
    radial_b, angular_b = eigenstate_factors(b, r, grid.unit_vectors)
    weighted = radial_a * grid.radial_weights
    powers = np.array([weighted, weighted * r, weighted * (r * r)])   # (k, row, Nr)
    radial = (powers.reshape(9, -1) @ radial_b.T).reshape(3, 3, 3)
    angular = (angular_a * grid.angular_weights) @ np.conj(angular_b).T
    if swap:
        return radial.transpose(0, 2, 1), np.conj(angular).T
    return radial, angular


def overlap(a: BoundState, b: BoundState) -> complex:
    """<psi_a | psi_b> on the pair grid (orthonormality diagnostic)."""
    radial, t = _pair_gram(a, b)
    return complex(radial[0, 0, 0] * np.conj(t[0, 0]))


def current_kernel(a: BoundState, b: BoundState, point) -> np.ndarray:
    """Transition current density Jbar_ab at ``point``; real 3-vector(s).

    The bracket conj(psi_b) grad(psi_a) - psi_b conj(grad psi_a) is twice the
    imaginary part of its first term, so Jbar = Im(conj(psi_b) grad psi_a)
    exactly. It vanishes identically for real wavefunction pairs.
    """
    _, grad_a = eigenstate_eval(a, point)
    psi_b, _ = eigenstate_eval(b, point)
    return np.imag(np.conj(psi_b)[..., None] * grad_a)


def transition_multipoles(a: BoundState, b: BoundState) -> MultipoleData:
    """Every pair integral from the pair's radial and angular Gram matrices.

    Swapping a and b conjugates each moment (D_ab = conj(D_ba)); the rates
    and Gamma are the result's ``rates`` and ``gamma``.
    """
    (r0, r1, r2), t = _pair_gram(a, b)
    second = r2[0, 0] * t[1:4, 1:4]                            # int psi_a x^i x^j conj(psi_b)
    second = 0.5 * (second + second.T)
    return MultipoleData(
        omega=transition_frequency(a, b),
        dipole=r1[0, 0] * t[1:4, 0],
        quadrupole=0.5 * second - (np.trace(second) / 6.0) * np.eye(3),
        delta_vec=r1[1, 0] * t[1:4, 0].imag + r1[2, 0] * t[4:7, 0].imag,
        delta_tensor=(r0[1, 0] * t[1:4, 1:4].imag + r0[2, 0] * t[4:7, 1:4].imag).T,   # [k, i]
        grad_ab=r0[0, 1] * np.conj(t[0, 1:4]) + r0[0, 2] * np.conj(t[0, 4:7]),
        grad_ba=r0[1, 0] * t[1:4, 0] + r0[2, 0] * t[4:7, 0],
    )
