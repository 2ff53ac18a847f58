"""Two-level semiclassical radiative decay with multipole-resolved rates.

The package computes hydrogenic transition moments (dipole, quadrupole and
transition-current integrals) by numerical quadrature, builds the coupling
rates that drive a two-level density matrix, integrates or solves the
resulting Bloch dynamics, and quantifies how the beyond-dipole rates modify
the time-dependent frequency chirp of the emitted radiation. Everything is
in Hartree atomic units; the CLI converts to SI on request.
"""

from .constants import SPEED_OF_LIGHT
from .hydrogenic import BoundState, bound_energy, eigenstate_eval, radial_wavefunction, transition_frequency
from .integrator import StepSizeError, Trajectory, exact_trajectory, integrate
from .multilevel import NLevelSystem, frequency_shift_general, multilevel_rhs
from .multipole import (
    CouplingRates,
    MultipoleData,
    coupling_rates,
    current_integrals,
    current_kernel,
    dipole_moment,
    gamma_estimate,
    overlap,
    quadrupole_moment,
    transition_multipoles,
)
from .quadrature import DEFAULT_SPEC, QuadratureError, QuadratureSpec, grid_for_pair
from .twolevel import (
    BlochVector,
    DensityMatrix2,
    TwoLevelParams,
    additional_shift,
    analytic_bloch,
    bloch_flow,
    bloch_rhs,
    bloch_to_density,
    density_rhs_two_level,
    frequency_shift,
)

__version__ = "0.1.0"

__all__ = [
    "BlochVector",
    "BoundState",
    "CouplingRates",
    "DEFAULT_SPEC",
    "DensityMatrix2",
    "MultipoleData",
    "NLevelSystem",
    "QuadratureError",
    "QuadratureSpec",
    "SPEED_OF_LIGHT",
    "StepSizeError",
    "Trajectory",
    "TwoLevelParams",
    "additional_shift",
    "analytic_bloch",
    "bloch_flow",
    "bloch_rhs",
    "bloch_to_density",
    "bound_energy",
    "coupling_rates",
    "current_integrals",
    "current_kernel",
    "density_rhs_two_level",
    "dipole_moment",
    "eigenstate_eval",
    "exact_trajectory",
    "frequency_shift",
    "frequency_shift_general",
    "gamma_estimate",
    "grid_for_pair",
    "integrate",
    "multilevel_rhs",
    "overlap",
    "quadrupole_moment",
    "radial_wavefunction",
    "transition_frequency",
    "transition_multipoles",
]
