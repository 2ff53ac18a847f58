"""General N-level density-matrix dynamics with an external drive.

The equation of motion combines four pieces: free rotation at the level
splittings, a population-weighted frequency shift from the Gamma matrix,
nonlinear relaxation from the antisymmetric rate matrices, and coupling of
the coherences to an externally applied vector field through the dipole
matrix. Antisymmetry of the rates makes the trace exactly conserved.

With populations p, u = Gamma p and w = (A/2 - B + C) p, the shift and
relaxation of rho_ab are -i (u_a - u_b) - (w_a + w_b), and the drive adds
-[V, rho] with V(t) = sum_i A0_i(t) Omega D_i / c (entrywise in a, b), which
is anti-Hermitian. ``NLevelSystem`` stores the complex rate matrix
(A/2 - B + C) + i Gamma, so one product gives y = w + i u, and
``multilevel_rhs`` evaluates the generator form

    X = y_a rho_ab + (V rho)_ab,    d rho/dt = -i Omega_ab rho_ab - (X + X^H)_ab.

For Hermitian rho this is the sum above, because (V rho)^H = -rho V, and it
takes one complex matrix product. X + X^H is Hermitian by construction, so
the derivative at an exactly Hermitian rho is exactly Hermitian, and RK4
with real coefficients keeps such a rho exactly Hermitian.

A rho that is Hermitian only to delta = max |rho - rho^H| (at most 1e-9 is
accepted) has the populations of its Hermitian part H = (rho + rho^H) / 2.
Every entry of the result lies within

    delta (max |Omega| / 2 + max |y| + ||V||)

of the exact derivative at H, plus rounding, where ||V|| is the largest sum
of |V_ab| over a row.

``multilevel_rhs`` checks its input on every call: shape, finiteness,
Hermiticity and unit trace of rho, and the shape of the drive's field.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .constants import SPEED_OF_LIGHT

_INPUT_TOL = 1e-9
_STRUCT_TOL = 1e-12


def _require(condition: bool, message: str):
    if not condition:
        raise ValueError(message)


@dataclass(frozen=True)
class NLevelSystem:
    """Level energies, coupling matrices and an optional drive A0(t).

    gamma must be symmetric, the rate matrices antisymmetric, and the dipole
    matrix Hermitian (D[b, a] = conj(D[a, b]) componentwise). ``drive`` maps a
    time to the applied field 3-vector at the atom's position; None means no
    drive.
    """

    energies: np.ndarray                 # (N,)
    gamma: np.ndarray                    # (N, N)
    a_rates: np.ndarray                  # (N, N)
    b_rates: np.ndarray                  # (N, N)
    c_rates: np.ndarray                  # (N, N)
    dipoles: np.ndarray                  # (N, N, 3) complex
    drive: Callable[[float], np.ndarray] | None = field(default=None)
    # fixed parts of multilevel_rhs, computed once from the fields above
    _free: np.ndarray = field(init=False, repr=False, compare=False)
    _rates: np.ndarray = field(init=False, repr=False, compare=False)
    _drive_dipoles: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        energies = np.asarray(self.energies, dtype=float)
        n = energies.shape[0]
        object.__setattr__(self, "energies", energies)
        for name in ("gamma", "a_rates", "b_rates", "c_rates"):
            mat = np.asarray(getattr(self, name), dtype=float)
            _require(mat.shape == (n, n), f"{name} must have shape ({n}, {n})")
            object.__setattr__(self, name, mat)
        dip = np.asarray(self.dipoles, dtype=complex)
        _require(dip.shape == (n, n, 3), f"dipoles must have shape ({n}, {n}, 3)")
        object.__setattr__(self, "dipoles", dip)

        _require(np.all(np.isfinite(energies)), "energies must be finite")
        _require(np.max(np.abs(self.gamma - self.gamma.T)) <= _STRUCT_TOL, "gamma must be symmetric")
        for name in ("a_rates", "b_rates", "c_rates"):
            mat = getattr(self, name)
            _require(np.max(np.abs(mat + mat.T)) <= _STRUCT_TOL, f"{name} must be antisymmetric")
        _require(np.max(np.abs(dip - np.conj(np.transpose(dip, (1, 0, 2))))) <= _STRUCT_TOL,
                 "dipole matrix must be Hermitian")

        omega = self.omega_matrix()
        object.__setattr__(self, "_free", -1j * omega)
        relax = 0.5 * self.a_rates - self.b_rates + self.c_rates
        object.__setattr__(self, "_rates", relax + 1j * self.gamma)
        # Omega_ab D_ab / c as rows of (N^2, 3), so V(t) is one product with A0(t)
        object.__setattr__(self, "_drive_dipoles",
                           (omega[:, :, None] * dip / SPEED_OF_LIGHT).reshape(n * n, 3))

    @property
    def level_count(self) -> int:
        return self.energies.shape[0]

    def omega_matrix(self) -> np.ndarray:
        """Transition frequencies Omega_ab = E_a - E_b."""
        return self.energies[:, None] - self.energies[None, :]


def multilevel_rhs(rho: np.ndarray, system: NLevelSystem, t: float = 0.0) -> np.ndarray:
    """Time derivative of an N x N density matrix.

    Rejects inputs that are not finite, Hermitian and of unit trace
    (tolerance 1e-9); the returned derivative is traceless to rounding and
    exactly Hermitian when rho is.
    """
    rho = np.asarray(rho, dtype=complex)
    n = system.level_count
    if rho.shape != (n, n):
        raise ValueError(f"rho must have shape ({n}, {n})")
    # finite first, so that inf - inf in the difference cannot warn; "not <=" so nan fails
    if not (np.logical_and.reduce(np.isfinite(rho), axis=None)
            and np.maximum.reduce(np.abs(rho - rho.conj().T), axis=None) <= _INPUT_TOL):
        raise ValueError("rho must be Hermitian (tolerance 1e-9)")
    diag = rho.diagonal()
    trace = diag.sum()
    if not (abs(trace.real - 1.0) <= _INPUT_TOL and abs(trace.imag) <= _INPUT_TOL):
        raise ValueError("rho must have unit trace (tolerance 1e-9)")

    # ndarray.dot, not @: at a few levels the matmul ufunc's dispatch costs more
    x = system._rates.dot(diag.real)[:, None] * rho
    if system.drive is not None:
        a0 = np.asarray(system.drive(t), dtype=float)
        if a0.shape != (3,):
            raise ValueError("drive must return a 3-vector")
        x += system._drive_dipoles.dot(a0).reshape(n, n).dot(rho)
    return system._free * rho - (x + x.conj().T)


def frequency_shift_general(populations: np.ndarray, gamma_matrix: np.ndarray) -> np.ndarray:
    """Population-weighted shift matrix: shift_ab = -sum_k (G_ak - G_kb) p_k."""
    pops = np.asarray(populations, dtype=float)
    gamma = np.asarray(gamma_matrix, dtype=float)
    n = pops.shape[0]
    if gamma.shape != (n, n):
        raise ValueError(f"gamma_matrix must have shape ({n}, {n})")
    # finite first, so that inf - inf in the sum cannot warn; "not <=" so nan fails
    if not (np.isfinite(pops).all() and abs(pops.sum() - 1.0) <= _INPUT_TOL):
        raise ValueError("populations must sum to 1 (tolerance 1e-9)")
    u = gamma @ pops
    v = gamma.T @ pops
    return -(u[:, None] - v[None, :])
