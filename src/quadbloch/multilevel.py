"""General N-level density-matrix dynamics with an external drive.

The equation of motion combines four pieces: free rotation at the level
splittings, a population-weighted frequency shift from the Gamma matrix,
nonlinear relaxation from the antisymmetric rate matrices, and coupling of
the coherences to an externally applied vector field through the dipole
matrix. Antisymmetry of the rates makes the trace exactly conserved, and
Hermiticity of rho is preserved to first order.
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
    _omega: np.ndarray = field(init=False, repr=False, compare=False)
    _relax_matrix: np.ndarray = field(init=False, repr=False, compare=False)
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
        object.__setattr__(self, "_omega", omega)
        object.__setattr__(self, "_relax_matrix", 0.5 * self.a_rates - self.b_rates + self.c_rates)
        # Omega_ab D_ab / c, so the drive coupling is one product with A0(t)
        object.__setattr__(self, "_drive_dipoles", omega[:, :, None] * dip / SPEED_OF_LIGHT)

    @property
    def level_count(self) -> int:
        return self.energies.shape[0]

    def omega_matrix(self) -> np.ndarray:
        """Transition frequencies Omega_ab = E_a - E_b."""
        return self.energies[:, None] - self.energies[None, :]


def multilevel_rhs(rho: np.ndarray, system: NLevelSystem, t: float = 0.0) -> np.ndarray:
    """Time derivative of an N x N density matrix.

    Rejects inputs that are not Hermitian with unit trace (tolerance 1e-9);
    the returned derivative is traceless and Hermitian to rounding.
    """
    rho = np.asarray(rho, dtype=complex)
    n = system.level_count
    if rho.shape != (n, n):
        raise ValueError(f"rho must have shape ({n}, {n})")
    if np.max(np.abs(rho - rho.conj().T)) > _INPUT_TOL:
        raise ValueError("rho must be Hermitian (tolerance 1e-9)")
    trace = np.trace(rho)
    if abs(trace.real - 1.0) > _INPUT_TOL or abs(trace.imag) > _INPUT_TOL:
        raise ValueError("rho must have unit trace (tolerance 1e-9)")

    pops = np.real(np.diag(rho))

    # population-weighted shift: sum_k (G_ak - G_kb) p_k = u_a - u_b for symmetric G
    u = system.gamma @ pops
    shift = u[:, None] - u[None, :]

    # relaxation: sum_k [ (A_ak + A_bk)/2 - (B_ak + B_bk) + (C_ak + C_bk) ] p_k
    w = system._relax_matrix @ pops
    relax = w[:, None] + w[None, :]

    ddt = (-1j * (system._omega + shift) - relax) * rho

    if system.drive is not None:
        a0 = np.asarray(system.drive(t), dtype=float)
        if a0.shape != (3,):
            raise ValueError("drive must return a 3-vector")
        coupling = system._drive_dipoles @ a0
        ddt -= coupling @ rho - rho @ coupling

    return ddt


def frequency_shift_general(populations: np.ndarray, gamma_matrix: np.ndarray) -> np.ndarray:
    """Population-weighted shift matrix: shift_ab = -sum_k (G_ak - G_kb) p_k."""
    pops = np.asarray(populations, dtype=float)
    gamma = np.asarray(gamma_matrix, dtype=float)
    n = pops.shape[0]
    if gamma.shape != (n, n):
        raise ValueError(f"gamma_matrix must have shape ({n}, {n})")
    if abs(pops.sum() - 1.0) > _INPUT_TOL:
        raise ValueError("populations must sum to 1 (tolerance 1e-9)")
    u = gamma @ pops
    v = gamma.T @ pops
    return -(u[:, None] - v[None, :])
