"""Reference dipole and quadrupole moments for hydrogen level pairs.

Computed independently of quadbloch's quadrature path: the radial
integrals come from ``scipy.integrate.quad`` over sympy's ``R_nl``, and the
angular factors from ``sympy.physics.wigner.gaunt``. Conventions follow the
program's (complex Y_lm with the Condon-Shortley phase, atomic units):

    D_ab^i  = int psi_a x^i conj(psi_b) d3x
    Q_ab^ij = int psi_a (x^i x^j - r^2 d^ij / 3) / 2 conj(psi_b) d3x

Run as a script it reads a JSON list of pairs [[na, la, ma, nb, lb, mb], ...]
on stdin and writes {"na,la,ma,nb,lb,mb": {"D": [[re, im] x 3],
"Q": [[[re, im] x 3] x 3]}} on stdout. It runs in a child process so that
sympy's memory is not counted in the workload's peak RSS.
"""

from __future__ import annotations

import json
import math
import sys
from functools import lru_cache

import sympy
from scipy.integrate import quad
from sympy.physics.hydrogen import R_nl
from sympy.physics.wigner import gaunt

_S1 = math.sqrt(2.0 * math.pi / 3.0)
_S2 = math.sqrt(2.0 * math.pi / 15.0)

# Unit-vector components n_i as sums of c * Y_1mu: {mu: c}
RANK1 = (
    {-1: _S1, 1: -_S1},                        # n_x
    {-1: 1j * _S1, 1: 1j * _S1},               # n_y
    {0: math.sqrt(4.0 * math.pi / 3.0)},       # n_z
)

_TZZ = {0: math.sqrt(16.0 * math.pi / 45.0)}
_DXY = {2: 2.0 * _S2, -2: 2.0 * _S2}           # n_x^2 - n_y^2
# Traceless n_i n_j - d_ij / 3 as sums of c * Y_2mu, indexed [i][j]
_T = {
    (0, 1): {-2: 1j * _S2, 2: -1j * _S2},
    (0, 2): {-1: _S2, 1: -_S2},
    (1, 2): {-1: 1j * _S2, 1: 1j * _S2},
    (2, 2): _TZZ,
    (0, 0): {mu: 0.5 * (_DXY.get(mu, 0.0) - _TZZ.get(mu, 0.0)) for mu in (-2, 0, 2)},
    (1, 1): {mu: 0.5 * (-_DXY.get(mu, 0.0) - _TZZ.get(mu, 0.0)) for mu in (-2, 0, 2)},
}
RANK2 = [[_T[(min(i, j), max(i, j))] for j in range(3)] for i in range(3)]


@lru_cache(maxsize=None)
def _radial_function(n: int, l: int):
    r = sympy.Symbol("r", positive=True)
    return sympy.lambdify(r, R_nl(n, l, r, 1), "math")


@lru_cache(maxsize=None)
def radial_integral(na: int, la: int, nb: int, lb: int, power: int) -> float:
    """int_0^inf R_a(r) R_b(r) r^power dr."""
    ra, rb = _radial_function(na, la), _radial_function(nb, lb)
    value, _ = quad(lambda r: ra(r) * rb(r) * r**power, 0.0, math.inf,
                    epsabs=1e-14, epsrel=1e-11, limit=200)
    return value


@lru_cache(maxsize=None)
def _gaunt(l1: int, l2: int, l3: int, m1: int, m2: int, m3: int) -> float:
    return float(gaunt(l1, l2, l3, m1, m2, m3))


def angular_factor(la: int, ma: int, k: int, expansion: dict, lb: int, mb: int) -> complex:
    """int Y_la,ma (sum_mu c_mu Y_k,mu) conj(Y_lb,mb) dOmega."""
    # conj(Y_lb,mb) = (-1)^mb Y_lb,-mb
    sign = -1.0 if mb % 2 else 1.0
    return sum(c * sign * _gaunt(la, k, lb, ma, mu, -mb) for mu, c in expansion.items())


def pair_moments(na, la, ma, nb, lb, mb):
    """(D, Q) of the pair as complex lists: D[i], Q[i][j]."""
    rad1 = radial_integral(na, la, nb, lb, 3)      # r * r^2 dr
    rad2 = radial_integral(na, la, nb, lb, 4)      # r^2 * r^2 dr
    dipole = [rad1 * angular_factor(la, ma, 1, RANK1[i], lb, mb) for i in range(3)]
    quadrupole = [[0.5 * rad2 * angular_factor(la, ma, 2, RANK2[i][j], lb, mb)
                   for j in range(3)] for i in range(3)]
    return dipole, quadrupole


def pair_key(pair) -> str:
    return ",".join(str(int(v)) for v in pair)


def references(pairs) -> dict:
    out = {}
    for pair in pairs:
        dipole, quadrupole = pair_moments(*pair)
        out[pair_key(pair)] = {
            "D": [[v.real, v.imag] for v in map(complex, dipole)],
            "Q": [[[v.real, v.imag] for v in map(complex, row)] for row in quadrupole],
        }
    return out


if __name__ == "__main__":
    json.dump(references(json.load(sys.stdin)), sys.stdout)
