"""Write the exact dipole and quadrupole table ``exact_moments.json``.

Run once from the repository root; the tests read the committed table and
never import sympy:

    python tests/make_exact_moments.py

For every pair of hydrogen states (z = 1) with n <= 3 it computes, in
closed form,

    D_ab^i  = int psi_a x^i conj(psi_b) d3x
    Q_ab^ij = int psi_a (x^i x^j - r^2 d^ij / 3) / 2 conj(psi_b) d3x

with psi = R_nl(r) Y_lm (complex Y_lm with the Condon-Shortley phase). The
radial factors are exact integrals of ``sympy.physics.hydrogen.R_nl``. The
angular kernels n^i and n^i n^j - d^ij / 3 are projected onto Y_1mu and Y_2mu
by exact integration over the sphere (and checked to lie wholly in that
rank), and each term is a ``sympy.physics.wigner.gaunt`` coefficient. Only
pairs a <= b in the listing order are stored: D and Q are Hermitian in the
pair, D_ba = conj(D_ab).
"""

from __future__ import annotations

import json
from functools import lru_cache
from pathlib import Path

import sympy as sp
from sympy.physics.hydrogen import R_nl
from sympy.physics.wigner import gaunt

OUT = Path(__file__).with_name("exact_moments.json")
N_MAX = 3
AXES = "xyz"

r = sp.Symbol("r", positive=True)
theta, phi = sp.symbols("theta phi", real=True)
UNIT = (sp.sin(theta) * sp.cos(phi), sp.sin(theta) * sp.sin(phi), sp.cos(theta))


def sphere_integral(f):
    return sp.integrate(sp.integrate(sp.expand(f * sp.sin(theta)), (phi, 0, 2 * sp.pi)), (theta, 0, sp.pi))


def project(f, rank):
    """{mu: c_mu} with f = sum_mu c_mu Y_rank,mu, checked to be complete."""
    coeffs = {}
    for mu in range(-rank, rank + 1):
        y = sp.Ynm(rank, mu, theta, phi).expand(func=True)
        c = sp.simplify(sphere_integral(f * sp.conjugate(y)))
        if c != 0:
            coeffs[mu] = c
    rebuilt = sum(c * sp.Ynm(rank, mu, theta, phi).expand(func=True) for mu, c in coeffs.items())
    residual = sp.simplify(sp.expand_complex(sp.expand(rebuilt - f)).rewrite(sp.cos))
    if residual != 0:
        raise AssertionError(f"{f} is not pure rank {rank}: residual {residual}")
    return coeffs


@lru_cache(maxsize=None)
def radial(na, la, nb, lb, power):
    """int_0^inf R_a R_b r^power dr."""
    return sp.nsimplify(sp.integrate(R_nl(na, la, r, 1) * R_nl(nb, lb, r, 1) * r**power, (r, 0, sp.oo)))


def angular(la, ma, rank, coeffs, lb, mb):
    """int Y_la,ma (sum_mu c_mu Y_rank,mu) conj(Y_lb,mb) dOmega; conj(Y_lb,mb) = (-1)^mb Y_lb,-mb."""
    return sum(c * (-1) ** mb * gaunt(la, rank, lb, ma, mu, -mb) for mu, c in coeffs.items())


def states():
    return [(n, l, m) for n in range(1, N_MAX + 1) for l in range(n) for m in range(-l, l + 1)]


def exact(value):
    return sp.radsimp(sp.simplify(value))


def number(value):
    v = sp.N(value, 30)
    return [float(sp.re(v)), float(sp.im(v))]


def main():
    rank1 = [project(UNIT[i], 1) for i in range(3)]
    rank2 = [[project(UNIT[i] * UNIT[j] - sp.Rational(int(i == j), 3), 2) for j in range(3)] for i in range(3)]
    listing = states()
    pairs = []
    for ia, (na, la, ma) in enumerate(listing):
        for nb, lb, mb in listing[ia:]:
            dipole = [exact(radial(na, la, nb, lb, 3) * angular(la, ma, 1, rank1[i], lb, mb)) for i in range(3)]
            quad = [[exact(radial(na, la, nb, lb, 4) * angular(la, ma, 2, rank2[i][j], lb, mb) / 2)
                     for j in range(3)] for i in range(3)]
            named = {f"D_{AXES[i]}": dipole[i] for i in range(3)}
            named.update({f"Q_{AXES[i]}{AXES[j]}": quad[i][j] for i in range(3) for j in range(i, 3)})
            pairs.append({
                "a": [na, la, ma],
                "b": [nb, lb, mb],
                "D": [number(v) for v in dipole],
                "Q": [[number(v) for v in row] for row in quad],
                "exact": {name: str(v) for name, v in named.items() if v != 0},
            })
    about = ("exact hydrogen (z = 1) D_ab and Q_ab for n <= 3, pairs a <= b, "
             "[re, im] per component; written by tests/make_exact_moments.py")
    rows = ",\n".join(json.dumps(p) for p in pairs)     # one pair per line
    OUT.write_text(f'{{"about": {json.dumps(about)},\n "pairs": [\n{rows}\n]}}\n')
    print(f"wrote {len(pairs)} pairs to {OUT}")


if __name__ == "__main__":
    main()
