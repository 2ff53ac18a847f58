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
(see ``gamma_estimate``). The double contraction in C pairs
the two free indices of Q with the symmetrized current moment; that pairing
is the only one producing a scalar from a symmetric traceless Q and is the
convention adopted throughout (mirrored in the CLI docs).

Note that Jbar is identically zero whenever both wavefunctions are real
(e.g. any pair of m = 0 states): the bracket is the imaginary part of a
real product. Nonzero current moments require a complex member (m != 0),
and the B/C contractions may then come out complex; the real part is
reported. Pairs are expected to share the same nucleus.

Every pair integral comes from one exact grid (see ``quadrature``) and one
evaluation of each state's value and gradient on it; the rates and Gamma
are arithmetic on the resulting ``MultipoleData``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .constants import SPEED_OF_LIGHT
from .hydrogenic import BoundState, eigenstate_eval, transition_frequency
from .quadrature import QuadratureSpec, grid_for_pair


@dataclass(frozen=True)
class CouplingRates:
    a_rate: float
    b_rate: float
    c_rate: float
    gamma: float | None = None


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

    def rates(self, k_max: float | None = None) -> CouplingRates:
        """A, B, C (and Gamma(k_max) when asked); exact zeros for a degenerate pair."""
        gamma = self.gamma(k_max) if k_max is not None else None
        if self.omega == 0.0:
            return CouplingRates(0.0, 0.0, 0.0, gamma)
        w3 = self.omega**3
        c = SPEED_OF_LIGHT
        d_dot = float(np.real(np.dot(self.dipole, np.conj(self.dipole))))
        a_rate = (4.0 / 3.0) * d_dot * w3 / c**3
        b_rate = float(np.real(np.dot(self.dipole, self.delta_vec))) * w3 / c**4
        sym_delta = 0.5 * (self.delta_tensor + self.delta_tensor.T)
        c_rate = float(np.real(np.sum(self.quadrupole * sym_delta))) * w3 / c**4
        return CouplingRates(a_rate, b_rate, c_rate, gamma)

    def gamma(self, k_max: float) -> float:
        """Gamma_ab(k_max) as defined in ``gamma_estimate``."""
        if not 0.0 <= k_max < np.inf:
            raise ValueError(f"k_max must be finite and nonnegative, got {k_max}")
        mag2 = 0.5 * (float(np.sum(np.abs(self.grad_ab) ** 2)) + float(np.sum(np.abs(self.grad_ba) ** 2)))
        return (4.0 / (3.0 * np.pi * SPEED_OF_LIGHT**2)) * k_max * mag2


def _pair_fields(a: BoundState, b: BoundState, spec: QuadratureSpec | None):
    """The pair's exact grid and both states' values and gradients on it."""
    grid = grid_for_pair(a, b, spec)
    psi_a, grad_a = eigenstate_eval(a, grid.points)
    psi_b, grad_b = eigenstate_eval(b, grid.points)
    return grid, psi_a, grad_a, psi_b, grad_b


def _jbar(grad_a, psi_b) -> np.ndarray:
    return np.imag(np.conj(psi_b)[..., None] * grad_a)


def overlap(a: BoundState, b: BoundState, spec: QuadratureSpec | None = None) -> complex:
    """<psi_a | psi_b> on the pair grid (orthonormality diagnostic)."""
    grid, psi_a, _, psi_b, _ = _pair_fields(a, b, spec)
    return complex(np.dot(grid.weights, np.conj(psi_a) * psi_b))


def dipole_moment(a: BoundState, b: BoundState, spec: QuadratureSpec | None = None) -> np.ndarray:
    """Dipole vector D_ab; Hermitian in the pair: D_ab = conj(D_ba)."""
    return transition_multipoles(a, b, spec).dipole


def quadrupole_moment(a: BoundState, b: BoundState, spec: QuadratureSpec | None = None) -> np.ndarray:
    """Symmetric traceless quadrupole tensor Q_ab."""
    return transition_multipoles(a, b, spec).quadrupole


def current_kernel(a: BoundState, b: BoundState, point) -> np.ndarray:
    """Transition current density Jbar_ab at ``point``; real 3-vector(s).

    The bracket conj(psi_b) grad(psi_a) - psi_b conj(grad psi_a) is twice the
    imaginary part of its first term, so Jbar = Im(conj(psi_b) grad psi_a)
    exactly. It vanishes identically for real wavefunction pairs.
    """
    _, grad_a = eigenstate_eval(a, point)
    psi_b, _ = eigenstate_eval(b, point)
    return _jbar(grad_a, psi_b)


def current_integrals(a: BoundState, b: BoundState, spec: QuadratureSpec | None = None):
    """Current moments (Delta_ab, delta_ab) of the pair."""
    data = transition_multipoles(a, b, spec)
    return data.delta_vec, data.delta_tensor


def transition_multipoles(a: BoundState, b: BoundState, spec: QuadratureSpec | None = None) -> MultipoleData:
    """Evaluate every pair integral from one grid and one evaluation of each state."""
    grid, psi_a, grad_a, psi_b, grad_b = _pair_fields(a, b, spec)
    pts, w = grid.points, grid.weights
    r = np.sqrt(np.sum(pts * pts, axis=-1))

    moment = (w * psi_a * np.conj(psi_b))[:, None] * pts     # (N, 3): integrand of D
    second = pts.T @ moment                                   # int psi_a x^i x^j conj(psi_b)
    second = 0.5 * (second + second.T)
    current = w[:, None] * _jbar(grad_a, psi_b)               # (N, 3) real
    return MultipoleData(
        omega=transition_frequency(a, b),
        dipole=moment.sum(axis=0),
        quadrupole=0.5 * second - (np.trace(second) / 6.0) * np.eye(3),
        delta_vec=r @ current,
        delta_tensor=(pts / r[:, None]).T @ current,         # [k, i]
        grad_ab=(w * np.conj(psi_a)) @ grad_b,
        grad_ba=(w * np.conj(psi_b)) @ grad_a,
    )


def coupling_rates(a: BoundState, b: BoundState, spec: QuadratureSpec | None = None,
                   k_max: float | None = None) -> CouplingRates:
    """Radiative rates A_ab, B_ab, C_ab (and the Gamma estimate when asked).

    Degenerate pairs return exact zeros: every rate carries the W^3
    prefactor. The B and C contractions are reported as real parts (see the
    module note on complex pairs).
    """
    return transition_multipoles(a, b, spec).rates(k_max)


def gamma_estimate(a: BoundState, b: BoundState, k_max: float,
                   spec: QuadratureSpec | None = None) -> float:
    """Rough cutoff-regularized level-shift coefficient Gamma_ab(k_max).

    The underlying mode integral grows without bound in the wavenumber, so
    any finite value is prescription-dependent. This estimator takes the
    long-wavelength limit of the mode factors (e^{ikx} -> 1), averages the
    transverse projection over photon directions (factor 2/3), and cuts the
    k integral off at ``k_max``:

        Gamma(k_max) = (4 / (3 pi c^2)) k_max |<a| grad |b>|^2

    It is symmetric in (a, b) by construction (the two directed gradient
    matrix elements are averaged), monotone in k_max, and zero at k_max = 0.
    Treat it as an order-of-magnitude handle; simulations normally take the
    shift coefficients as explicit inputs.
    """
    return transition_multipoles(a, b, spec).gamma(k_max)
