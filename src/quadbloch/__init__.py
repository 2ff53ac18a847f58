"""Two-level semiclassical radiative decay with multipole-resolved rates.

The package computes hydrogenic transition moments (dipole, quadrupole and
transition-current integrals) by numerical quadrature, builds the coupling
rates that drive a two-level density matrix, integrates or solves the
resulting Bloch dynamics, and quantifies how the beyond-dipole rates modify
the time-dependent frequency chirp of the emitted radiation. Everything is
in Hartree atomic units; the CLI converts to SI on request.
"""

from .constants import SPEED_OF_LIGHT
from .hydrogenic import BoundState, bound_energy, transition_frequency
from .integrator import StepSizeError, Trajectory, exact_trajectory, integrate
from .multilevel import NLevelSystem, frequency_shift_general, multilevel_rhs
from .multipole import CouplingRates, MultipoleData, overlap, transition_multipoles
from .quadrature import grid_for_pair
from .twolevel import (
    BlochVector,
    DensityMatrix2,
    TwoLevelParams,
    additional_shift,
    analytic_bloch,
    bloch_flow,
    bloch_rhs,
    bloch_to_density,
    frequency_shift,
)

__version__ = "0.1.0"

__all__ = [
    "BlochVector",
    "BoundState",
    "CouplingRates",
    "DensityMatrix2",
    "MultipoleData",
    "NLevelSystem",
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
    "exact_trajectory",
    "frequency_shift",
    "frequency_shift_general",
    "grid_for_pair",
    "integrate",
    "multilevel_rhs",
    "overlap",
    "transition_frequency",
    "transition_multipoles",
]
