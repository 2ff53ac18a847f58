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

    X = (diag(y) + V) rho,    d rho/dt = -i Omega_ab rho_ab - (X + X^H)_ab.

For Hermitian rho this is the sum above, because (V rho)^H = -rho V. V has
an exactly zero diagonal (Omega_aa = E_a - E_a = 0), so adding y onto it
gives diag(y) + V with no rounding, and the k = a term of (diag(y) + V) rho
is exactly y_a rho_ab: a driven call takes this one complex matrix product,
and an undriven call (V = 0) scales the rows of rho by y instead. X + X^H
is Hermitian by construction, so the derivative at an exactly Hermitian rho
is exactly Hermitian, and RK4 with real coefficients keeps such a rho
exactly Hermitian.

A rho that is Hermitian only to delta = max |rho - rho^H| (at most 1e-9 is
accepted) has the populations of its Hermitian part H = (rho + rho^H) / 2.
Every entry of the result lies within

    delta (max |Omega| / 2 + max |y| + ||V||)

of the exact derivative at H, plus rounding, where ||V|| is the largest sum
of |V_ab| over a row.

``multilevel_rhs`` checks, in order: the shape of rho, sum |rho_ab|^2 <= 4,
Hermiticity to 1e-9 entrywise, unit trace to 1e-9, and the drive's field.
A density matrix has sum |rho_ab|^2 = Tr(rho rho^H) <= 1; 4 passes RK4's
stage values, which need not be density matrices. The Hermiticity check
passes when sum |d|^2 <= (tol/2)^2, d = rho - rho^H, which bounds max |d|
below tol; only when that sum cannot decide does the entrywise test run.

Every other input (``NLevelSystem``'s six arrays, the drive's field on every
call, ``frequency_shift_general``'s gamma) has sum |x|^2 <= 1e200.
``np.vdot`` forms each sum in BLAS with no numpy FP warning, and "not <="
refuses nan and inf. With |rho_ab| <= 2, Cauchy-Schwarz then gives
|Omega| <= 2e100, rates <= 3.5e100, |Omega D / c| <= 1.5e198 and
|V| <= 1.5e298, so X and the derivative stay below 6e298: nothing accepted
overflows, at any N.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .constants import SPEED_OF_LIGHT

_INPUT_TOL = 1e-9
_HERMITIAN_SUMSQ = (0.5 * _INPUT_TOL) ** 2   # a Frobenius norm within tol/2 passes the Hermiticity check
_MAX_SUMSQ = 4.0                              # sum |rho_ab|^2 <= 1 for a density matrix
_MAX_INPUT_SUMSQ = 1e200                      # every caller's array and field: Frobenius norm <= 1e100
_STRUCT_TOL = 1e-12

# bound once: multilevel_rhs runs four times per RK4 step
_max = np.maximum.reduce
_vdot = np.vdot


def _require(condition: bool, message: str):
    if not condition:
        raise ValueError(message)


@dataclass(frozen=True, eq=False)
class NLevelSystem:
    """Level energies, coupling matrices and an optional drive A0(t).

    gamma must be symmetric, the rate matrices antisymmetric, and the dipole
    matrix Hermitian (D[b, a] = conj(D[a, b]) componentwise). ``drive`` maps a
    time to the applied field 3-vector at the atom's position; None means no
    drive. Every array is stored as a read-only copy, so a later change to a
    caller's array cannot reach the system. Systems compare and hash by
    identity.
    """

    energies: np.ndarray                 # (N,)
    gamma: np.ndarray                    # (N, N)
    a_rates: np.ndarray                  # (N, N)
    b_rates: np.ndarray                  # (N, N)
    c_rates: np.ndarray                  # (N, N)
    dipoles: np.ndarray                  # (N, N, 3) complex
    drive: Callable[[float], np.ndarray] | None = field(default=None)
    # fixed parts of multilevel_rhs, computed once from the fields above
    _free: np.ndarray = field(init=False, repr=False)
    _rates: np.ndarray = field(init=False, repr=False)
    _drive_dipoles: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        energies = self._store("energies", self.energies, float)
        _require(energies.ndim == 1, f"energies must be 1-D, got shape {energies.shape}")
        n = energies.shape[0]
        for name in ("gamma", "a_rates", "b_rates", "c_rates"):
            mat = self._store(name, getattr(self, name), float)
            _require(mat.shape == (n, n), f"{name} must have shape ({n}, {n})")
        dip = self._store("dipoles", self.dipoles, complex)
        _require(dip.shape == (n, n, 3), f"dipoles must have shape ({n}, {n}, 3)")

        for name in ("energies", "gamma", "a_rates", "b_rates", "c_rates", "dipoles"):
            arr = getattr(self, name)
            _require(_vdot(arr, arr).real <= _MAX_INPUT_SUMSQ, f"{name} must have sum |x|^2 <= {_MAX_INPUT_SUMSQ:g}")
        _require(np.max(np.abs(self.gamma - self.gamma.T)) <= _STRUCT_TOL, "gamma must be symmetric")
        for name in ("a_rates", "b_rates", "c_rates"):
            mat = getattr(self, name)
            _require(np.max(np.abs(mat + mat.T)) <= _STRUCT_TOL, f"{name} must be antisymmetric")
        _require(np.max(np.abs(dip - np.conj(np.transpose(dip, (1, 0, 2))))) <= _STRUCT_TOL,
                 "dipole matrix must be Hermitian")

        omega = self.omega_matrix()
        self._store("_free", -1j * omega, complex)
        relax = 0.5 * self.a_rates - self.b_rates + self.c_rates
        self._store("_rates", relax + 1j * self.gamma, complex)
        # Omega_ab D_ab / c as rows of (N^2, 3), so V(t) is one product with A0(t)
        self._store("_drive_dipoles", (omega[:, :, None] * dip / SPEED_OF_LIGHT).reshape(n * n, 3), complex)

    def _store(self, name: str, value, dtype) -> np.ndarray:
        """Set a field to a read-only copy, so no caller's array is shared."""
        arr = np.array(value, dtype=dtype)
        arr.setflags(write=False)
        object.__setattr__(self, name, arr)
        return arr

    def omega_matrix(self) -> np.ndarray:
        """Transition frequencies Omega_ab = E_a - E_b."""
        return self.energies[:, None] - self.energies[None, :]


def _hermitian(rho: np.ndarray) -> bool:
    """max |rho - rho^H| <= 1e-9, from the sum of squares when that decides it."""
    d = rho - rho.conj().T
    return _vdot(d, d).real <= _HERMITIAN_SUMSQ or _max(np.abs(d), axis=None) <= _INPUT_TOL


def multilevel_rhs(rho: np.ndarray, system: NLevelSystem, t: float = 0.0) -> np.ndarray:
    """Time derivative of an N x N density matrix.

    Rejects a rho with sum |rho_ab|^2 above 4, or one that is not Hermitian
    or not of unit trace (tolerance 1e-9); the returned derivative is
    traceless to rounding and exactly Hermitian when rho is.
    """
    rho = np.asarray(rho, dtype=complex)
    shape = system._free.shape
    if rho.shape != shape:
        raise ValueError(f"rho must have shape {shape}")
    s = _vdot(rho, rho).real
    # "not <=" so nan fails; every |entry| <= 2 keeps the checks below in float range
    if not s <= _MAX_SUMSQ:
        raise ValueError(f"rho must be a density matrix: sum |rho_ab|^2 = {s} is not <= {_MAX_SUMSQ}")
    if not _hermitian(rho):
        raise ValueError("rho must be Hermitian (tolerance 1e-9)")
    diag = rho.diagonal()
    # Python complex scalars: cheaper than ndarray.sum at a few levels
    trace = sum(diag.tolist())
    if not (abs(trace.real - 1.0) <= _INPUT_TOL and abs(trace.imag) <= _INPUT_TOL):
        raise ValueError("rho must have unit trace (tolerance 1e-9)")

    # ndarray.dot, not @: at a few levels the matmul ufunc's dispatch costs more
    y = system._rates.dot(diag.real)
    if system.drive is None:
        x = y[:, None] * rho
    else:
        a0 = np.asarray(system.drive(t), dtype=float)
        u, v, w = a0.tolist() if a0.shape == (3,) else (np.nan,) * 3  # floats: cheaper than a0.dot(a0)
        if not u * u + v * v + w * w <= _MAX_INPUT_SUMSQ:   # a wrong shape fails as nan
            raise ValueError(f"drive must return a 3-vector with sum |x|^2 <= {_MAX_INPUT_SUMSQ:g}, got {a0!r}")
        # V's diagonal is exactly zero (Omega_aa = 0), so diag(y) + V is V with y on it
        g = system._drive_dipoles.dot(a0)
        g[::shape[0] + 1] += y
        x = g.reshape(shape).dot(rho)
    return system._free * rho - (x + x.conj().T)


def frequency_shift_general(populations: np.ndarray, gamma_matrix: np.ndarray) -> np.ndarray:
    """Population-weighted shift matrix: shift_ab = -sum_k (G_ak - G_kb) p_k."""
    pops = np.asarray(populations, dtype=float)
    gamma = np.asarray(gamma_matrix, dtype=float)
    _require(pops.ndim == 1, f"populations must be 1-D, got shape {pops.shape}")
    n = pops.shape[0]
    if gamma.shape != (n, n):
        raise ValueError(f"gamma_matrix must have shape ({n}, {n})")
    _require(_vdot(gamma, gamma) <= _MAX_INPUT_SUMSQ, f"gamma_matrix must have sum |x|^2 <= {_MAX_INPUT_SUMSQ:g}")
    # sum p^2 <= Tr(rho^2) <= 1, as multilevel_rhs bounds rho; "not <=" so nan fails
    if not (_vdot(pops, pops) <= _MAX_SUMSQ and abs(pops.sum() - 1.0) <= _INPUT_TOL):
        raise ValueError("populations must sum to 1 (tolerance 1e-9)")
    u = gamma @ pops
    v = gamma.T @ pops
    return -(u[:, None] - v[None, :])
