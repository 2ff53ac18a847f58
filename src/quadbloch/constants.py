"""Hartree atomic units and SI conversion factors.

Everything inside the library is expressed in Hartree atomic units
(hbar = e = m_e = 1, c = 1/alpha). The CLI multiplies by the factors
below when ``units = si`` is requested; nothing else in the package
touches SI.
"""

# Speed of light in atomic units (inverse fine-structure constant).
SPEED_OF_LIGHT = 137.035999

# One atomic unit of each quantity, expressed in SI (CODATA 2018).
ATOMIC_TIME_S = 2.4188843265857e-17
BOHR_RADIUS_M = 5.29177210903e-11
HARTREE_J = 4.3597447222071e-18
ELEMENTARY_CHARGE_C = 1.602176634e-19

# Derived output conversions.
DIPOLE_CM = ELEMENTARY_CHARGE_C * BOHR_RADIUS_M            # e*a0 -> C*m
QUADRUPOLE_CM2 = ELEMENTARY_CHARGE_C * BOHR_RADIUS_M**2    # e*a0^2 -> C*m^2
PER_ATOMIC_TIME_S = 1.0 / ATOMIC_TIME_S                    # rates and angular frequencies -> 1/s
# Current moments: r-weighted moment carries e*a0^2/t_au, the unit-vector
# weighted moment e*a0/t_au.
DELTA_VEC_SI = ELEMENTARY_CHARGE_C * BOHR_RADIUS_M**2 / ATOMIC_TIME_S
DELTA_TENSOR_SI = ELEMENTARY_CHARGE_C * BOHR_RADIUS_M / ATOMIC_TIME_S
