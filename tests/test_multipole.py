"""Transition-moment values against independent oracles.

The oracles below never touch the package's wavefunctions or grids: radial
integrals go through adaptive Gauss-Kronrod quadrature of textbook radial
functions, and the 3D current-moment oracle uses its own spherical-harmonic
wavefunction on a dense Gauss-Legendre tensor grid with finite-difference
gradients. ``reference_multipoles`` is the pointwise product-grid path the
package's radial x angular Gram form regroups.
"""

import json
import math
from pathlib import Path

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.special import eval_genlaguerre, sph_harm_y

from quadbloch import (
    BoundState,
    current_kernel,
    eigenstate_eval,
    grid_for_pair,
    overlap,
    transition_frequency,
    transition_multipoles,
)
from quadbloch.constants import ATOMIC_TIME_S

S1S = BoundState(1, 0, 0)
S2S = BoundState(2, 0, 0)
S2P0 = BoundState(2, 1, 0)
S2P1 = BoundState(2, 1, 1)
S3D0 = BoundState(3, 2, 0)
S3D1 = BoundState(3, 2, 1)

DIPOLE_1S_2P0_Z = 128.0 * math.sqrt(2.0) / 243.0   # 2^7 sqrt(2) / 3^5


def oracle_radial(n, l, r):
    rho = 2.0 * r / n
    norm = math.sqrt((2.0 / n) ** 3 * math.factorial(n - l - 1) / (2 * n * math.factorial(n + l)))
    return norm * np.exp(-rho / 2.0) * rho**l * eval_genlaguerre(n - l - 1, 2 * l + 1, rho)


def oracle_psi(n, l, m, pts):
    r = np.linalg.norm(pts, axis=-1)
    theta = np.arccos(np.clip(pts[..., 2] / np.where(r > 0, r, 1.0), -1.0, 1.0))
    phi = np.arctan2(pts[..., 1], pts[..., 0])
    return oracle_radial(n, l, r) * sph_harm_y(l, m, theta, phi)


def oracle_grad(n, l, m, pts, h=1e-6):
    g = np.empty(pts.shape, dtype=complex)
    for i in range(3):
        dp = pts.copy()
        dm = pts.copy()
        dp[..., i] += h
        dm[..., i] -= h
        g[..., i] = (oracle_psi(n, l, m, dp) - oracle_psi(n, l, m, dm)) / (2.0 * h)
    return g


def oracle_current_moments(state_a, state_b, rmax=60.0, nr=800, nt=72, nph=144):
    """Dense tensor-grid quadrature of the current moments (4x resolution)."""
    xr, wr = np.polynomial.legendre.leggauss(nr)
    r = 0.5 * rmax * (xr + 1.0)
    wr = 0.5 * rmax * wr
    ut, wt = np.polynomial.legendre.leggauss(nt)
    phi = 2.0 * np.pi * np.arange(nph) / nph
    st = np.sqrt(1.0 - ut**2)
    unit = np.stack(
        [np.outer(st, np.cos(phi)).ravel(), np.outer(st, np.sin(phi)).ravel(),
         np.outer(ut, np.ones(nph)).ravel()],
        axis=-1,
    )
    wang = np.repeat(wt, nph) * (2.0 * np.pi / nph)

    delta_vec = np.zeros(3)
    delta_tensor = np.zeros((3, 3))
    chunk = 40
    for i0 in range(0, nr, chunk):
        rs = r[i0:i0 + chunk]
        ws = wr[i0:i0 + chunk]
        pts = (rs[:, None, None] * unit[None, :, :]).reshape(-1, 3)
        w = (ws[:, None] * wang[None, :] * (rs**2)[:, None]).ravel()
        psi_b = oracle_psi(state_b.n, state_b.l, state_b.m, pts)
        grad_a = oracle_grad(state_a.n, state_a.l, state_a.m, pts)
        current = np.imag(np.conj(psi_b)[:, None] * grad_a)
        rr = np.linalg.norm(pts, axis=-1)
        delta_vec += np.tensordot(rr * w, current, axes=(0, 0))
        delta_tensor += np.tensordot(pts / rr[:, None] * w[:, None], current, axes=(0, 0))
    return delta_vec, delta_tensor


def reference_multipoles(a, b, grid=None):
    """Every pair integral as a sum over the Nr * Na product points of
    ``grid`` (default: the pair's own grid), with both states evaluated
    pointwise: (MultipoleData fields, overlap)."""
    if grid is None:
        grid = grid_for_pair(a, b)
    pts, w = grid.points, grid.weights
    psi_a, grad_a = eigenstate_eval(a, pts)
    psi_b, grad_b = eigenstate_eval(b, pts)
    r = np.sqrt(np.sum(pts * pts, axis=-1))

    moment = (w * psi_a * np.conj(psi_b))[:, None] * pts
    second = pts.T @ moment
    second = 0.5 * (second + second.T)
    current = w[:, None] * np.imag(np.conj(psi_b)[:, None] * grad_a)
    fields = {
        "dipole": moment.sum(axis=0),
        "quadrupole": 0.5 * second - (np.trace(second) / 6.0) * np.eye(3),
        "delta_vec": r @ current,
        "delta_tensor": (pts / r[:, None]).T @ current,
        "grad_ab": (w * np.conj(psi_a)) @ grad_b,
        "grad_ba": (w * np.conj(psi_b)) @ grad_a,
    }
    return fields, complex(np.dot(w, np.conj(psi_a) * psi_b))


class TestDipole:
    def test_1s_2p0_against_radial_oracle(self):
        oracle = quad(lambda r: oracle_radial(1, 0, r) * oracle_radial(2, 1, r) * r**3, 0, np.inf)[0] / math.sqrt(3.0)
        assert oracle == pytest.approx(DIPOLE_1S_2P0_Z, rel=1e-10)
        d = transition_multipoles(S1S, S2P0).dipole
        assert abs(d[2].real - oracle) / oracle < 1e-8
        assert np.max(np.abs(d[:2])) < 1e-12
        assert abs(d[2].imag) < 1e-12

    def test_parity_forbidden_1s_2s(self):
        assert np.max(np.abs(transition_multipoles(S1S, S2S).dipole)) < 1e-10

    def test_angular_forbidden_1s_3d0(self):
        assert np.max(np.abs(transition_multipoles(S1S, S3D0).dipole)) < 1e-10

    def test_hermiticity(self):
        d_ab = transition_multipoles(S2P1, S1S).dipole
        d_ba = transition_multipoles(S1S, S2P1).dipole
        assert np.max(np.abs(d_ab - np.conj(d_ba))) < 1e-12


class TestQuadrupole:
    def test_parity_forbidden_1s_2p0(self):
        assert np.max(np.abs(transition_multipoles(S1S, S2P0).quadrupole)) < 1e-10

    def test_1s_3d0_zz_against_radial_oracle(self):
        # kernel (z^2 - r^2/3)/2 projects onto (r^2/3) P2, angular factor 1/sqrt(5)
        radial = quad(lambda r: oracle_radial(1, 0, r) * oracle_radial(3, 2, r) * r**4, 0, np.inf)[0]
        oracle = radial / (3.0 * math.sqrt(5.0))
        q = transition_multipoles(S1S, S3D0).quadrupole
        assert abs(q[2, 2].real - oracle) / abs(oracle) < 1e-8
        # traceless diagonal structure: xx = yy = -zz/2
        assert q[0, 0].real == pytest.approx(-0.5 * oracle, rel=1e-8)
        assert q[1, 1].real == pytest.approx(-0.5 * oracle, rel=1e-8)

    def test_symmetric_and_traceless(self):
        for a, b in [(S1S, S3D0), (S3D1, S1S), (S2P0, S3D0)]:
            q = transition_multipoles(a, b).quadrupole
            norm = max(float(np.max(np.abs(q))), 1e-300)
            assert np.max(np.abs(q - q.T)) / norm < 1e-12
            assert abs(np.trace(q)) < 1e-12 * max(norm, 1.0)


class TestExactOracle:
    """Default-path D and Q against the exact table written by make_exact_moments.py."""

    def test_all_pairs_n_le_3(self):
        table = json.loads((Path(__file__).with_name("exact_moments.json")).read_text())["pairs"]
        assert len(table) == 105
        worst = 0.0
        for entry in table:
            a, b = BoundState(*entry["a"]), BoundState(*entry["b"])
            d = np.array([complex(*v) for v in entry["D"]])
            q = np.array([[complex(*v) for v in row] for row in entry["Q"]])
            # D and Q are Hermitian in the pair: the swapped order gives the conjugates
            for x, y, exact_d, exact_q in ((a, b, d, q), (b, a, np.conj(d), np.conj(q))):
                data = transition_multipoles(x, y)
                for got, exact in ((data.dipole, exact_d), (data.quadrupole, exact_q)):
                    # relative error, absolute where the exact value is zero
                    err = np.abs(got - exact) / np.where(exact != 0, np.abs(exact), 1.0)
                    worst = max(worst, float(np.max(err)))
        assert worst < 1e-12


class TestGramForm:
    def test_matches_pointwise_product_grid_for_all_pairs_n_le_4(self):
        # regrouping the product-grid sums changes rounding only
        states = [BoundState(n, l, m) for n in range(1, 5) for l in range(n) for m in range(-l, l + 1)]
        for a in states:
            for b in states:
                reference, reference_overlap = reference_multipoles(a, b)
                data = transition_multipoles(a, b)
                for field, want in reference.items():
                    got = getattr(data, field)
                    assert got.shape == want.shape and got.dtype == want.dtype, (a, b, field)
                    tol = 1e-12 * max(1.0, float(np.max(np.abs(want))))
                    assert np.max(np.abs(got - want)) <= tol, (a, b, field)
                assert abs(overlap(a, b) - reference_overlap) <= 1e-12 * max(1.0, abs(reference_overlap)), (a, b)


class TestCurrentKernel:
    def test_vanishes_for_identical_real_state(self, rng):
        pts = rng.normal(size=(20, 3))
        assert np.max(np.abs(current_kernel(S1S, S1S, pts))) == 0.0

    def test_matches_definition_recomposition(self, rng):
        pts = rng.normal(size=(20, 3)) * 2.0
        kernel = current_kernel(S2P1, S1S, pts)
        psi_a, grad_a = eigenstate_eval(S2P1, pts)
        psi_b, _ = eigenstate_eval(S1S, pts)
        bracket = np.conj(psi_b)[:, None] * grad_a - psi_b[:, None] * np.conj(grad_a)
        assert np.max(np.abs(bracket.real)) < 1e-12   # bracket is purely imaginary
        recomposed = (bracket / 2j).real
        assert np.max(np.abs(kernel - recomposed)) < 1e-12

    def test_symmetric_under_swap_for_real_pairs(self, rng):
        # real eigenfunctions: both orderings give the identically-zero kernel
        pts = rng.normal(size=(30, 3)) * 1.5
        forward = current_kernel(S2P0, S3D0, pts)
        backward = current_kernel(S3D0, S2P0, pts)
        assert np.max(np.abs(forward - backward)) == 0.0
        assert np.max(np.abs(forward)) == 0.0

    def test_velocity_form_consistent_with_dipole(self):
        # int Jbar d3x = Omega_ab Im(D_ab): length form vs velocity form
        from quadbloch import grid_for_pair

        grid = grid_for_pair(S2P1, S1S)
        kernel = current_kernel(S2P1, S1S, grid.points)
        integral = np.tensordot(grid.weights, kernel, axes=(0, 0))
        expected = transition_frequency(S2P1, S1S) * np.imag(transition_multipoles(S2P1, S1S).dipole)
        assert np.max(np.abs(integral - expected)) / np.max(np.abs(expected)) < 1e-6


class TestCurrentIntegrals:
    def test_identical_state_gives_zero(self):
        data = transition_multipoles(S2P0, S2P0)
        dv, dt = data.delta_vec, data.delta_tensor
        assert np.max(np.abs(dv)) == 0.0
        assert np.max(np.abs(dt)) == 0.0

    def test_real_pair_2p0_1s_matches_oracle(self):
        # both states real: the kernel vanishes pointwise, and so must the oracle
        data = transition_multipoles(S2P0, S1S)
        dv, dt = data.delta_vec, data.delta_tensor
        ov, ot = oracle_current_moments(S2P0, S1S, nr=200, nt=24, nph=48)
        assert np.max(np.abs(dv - ov)) < 1e-6
        assert np.max(np.abs(dt - ot)) < 1e-6
        assert np.max(np.abs(dv)) < 1e-12

    def test_complex_pair_2p1_1s_vector_matches_oracle(self):
        dv = transition_multipoles(S2P1, S1S).delta_vec
        ov, _ = oracle_current_moments(S2P1, S1S)
        assert abs(dv[1] - ov[1]) / abs(ov[1]) < 1e-6
        # frozen value computed from the oracle: -80/243
        assert dv[1] == pytest.approx(-80.0 / 243.0, rel=1e-10)
        assert abs(dv[0]) < 1e-12 and abs(dv[2]) < 1e-12

    def test_complex_pair_3d1_1s_tensor_matches_oracle(self):
        dt = transition_multipoles(S3D1, S1S).delta_tensor
        _, ot = oracle_current_moments(S3D1, S1S)
        assert np.max(np.abs(dt - ot)) < 1e-6 * max(np.max(np.abs(ot)), 1.0)
        # frozen value computed from the oracle: the (y,z) channel is -1/40
        assert dt[1, 2] == pytest.approx(-0.025, rel=1e-10)
        assert dt[2, 1] == pytest.approx(-0.025, rel=1e-10)


class TestParitySelection:
    @pytest.mark.parametrize("a,b", [
        (S1S, S2S), (S2P0, S2P1), (S2P0, BoundState(3, 1, 0)), (S1S, S3D0),
    ])
    def test_dipole_vanishes_for_even_l_sum(self, a, b):
        assert np.max(np.abs(transition_multipoles(a, b).dipole)) < 1e-10

    @pytest.mark.parametrize("a,b", [
        (S1S, S2P0), (S2S, BoundState(3, 1, 0)), (S3D0, S2P1),
    ])
    def test_quadrupole_vanishes_for_odd_l_sum(self, a, b):
        assert np.max(np.abs(transition_multipoles(a, b).quadrupole)) < 1e-10


class TestCouplingRates:
    def test_einstein_a_2p_1s(self):
        rates = transition_multipoles(S2P0, S1S).rates()
        omega = 0.375
        oracle_au = (4.0 / 3.0) * omega**3 * DIPOLE_1S_2P0_Z**2 / 137.035999**3
        assert rates.a_rate == pytest.approx(oracle_au, rel=1e-10)
        a_si = rates.a_rate / ATOMIC_TIME_S
        assert a_si == pytest.approx(6.268e8, rel=1e-3)

    def test_quadrupole_rate_vanishes_by_parity(self):
        assert transition_multipoles(S2P0, S1S).rates().c_rate == pytest.approx(0.0, abs=1e-20)

    def test_dipole_rate_vanishes_by_parity(self):
        assert transition_multipoles(S1S, S2S).rates().a_rate == pytest.approx(0.0, abs=1e-20)

    def test_antisymmetry_under_swap(self):
        for a, b in [(S2P0, S1S), (S3D1, S1S), (S2P1, S1S)]:
            r_ab = transition_multipoles(a, b).rates()
            r_ba = transition_multipoles(b, a).rates()
            scale = max(abs(r_ab.a_rate), 1e-30)
            assert abs(r_ab.a_rate + r_ba.a_rate) / scale < 1e-10
            assert abs(r_ab.b_rate + r_ba.b_rate) < 1e-20
            assert abs(r_ab.c_rate + r_ba.c_rate) < 1e-20

    def test_degenerate_pair_exact_zeros(self):
        rates = transition_multipoles(S2P0, BoundState(2, 1, 1)).rates()
        assert rates.a_rate == 0.0 and rates.b_rate == 0.0 and rates.c_rate == 0.0

    def test_b_and_c_contractions_are_imaginary(self):
        # B and C take the real parts of D.Delta and Q:sym(delta), which are
        # rounding noise for every n <= 3 pair; below the 1e-12 floor the
        # contraction is itself a rounding residue and may be real
        states = [BoundState(n, l, m) for n in range(1, 4) for l in range(n) for m in range(-l, l + 1)]
        checked = 0
        for a in states:
            for b in states:
                data = transition_multipoles(a, b)
                if data.omega == 0.0:
                    continue
                sym_delta = 0.5 * (data.delta_tensor + data.delta_tensor.T)
                for value in (np.dot(data.dipole, data.delta_vec), np.sum(data.quadrupole * sym_delta)):
                    if abs(value) > 1e-12:
                        assert abs(value.real) <= 1e-12 * abs(value), (a, b, value)
                        checked += 1
        assert checked == 56

    def test_multipole_data_bundle(self):
        data = transition_multipoles(S2P0, S1S)
        assert data.omega == pytest.approx(0.375, rel=1e-15)
        assert data.dipole[2].real == pytest.approx(DIPOLE_1S_2P0_Z, rel=1e-8)
        assert np.max(np.abs(data.delta_vec)) < 1e-12


class TestGradientElements:
    @pytest.mark.parametrize("a,b", [(S2P0, S1S), (S2P1, S1S), (S3D1, BoundState(2, 1, 0)), (S3D0, S2S)])
    def test_velocity_form_of_dipole(self, a, b):
        # [H, x] = -d/dx: <a|grad|b> = -(E_a - E_b) <a|x|b>, and <a|x|b> = conj(D_ab)
        data = transition_multipoles(a, b)
        expected = -data.omega * np.conj(data.dipole)
        assert np.max(np.abs(data.grad_ab - expected)) < 1e-12
        assert np.max(np.abs(data.grad_ba + np.conj(data.grad_ab))) < 1e-12


class TestGammaEstimate:
    def test_zero_cutoff(self):
        assert transition_multipoles(S2P0, S1S).gamma(0.0) == 0.0

    def test_negative_cutoff_rejected(self):
        with pytest.raises(ValueError):
            transition_multipoles(S2P0, S1S).gamma(-1.0)

    @pytest.mark.parametrize("k_max", [-1.0, math.nan, math.inf])
    def test_cutoff_must_be_finite_and_nonnegative(self, k_max):
        with pytest.raises(ValueError, match="k_max must be finite and nonnegative"):
            transition_multipoles(S2P0, S1S).gamma(k_max)

    def test_exactly_symmetric(self):
        for k in (1.0, 2.0, 4.0, 8.0):
            assert transition_multipoles(S2P0, S1S).gamma(k) - transition_multipoles(S1S, S2P0).gamma(k) == 0.0

    def test_monotone_in_cutoff(self):
        values = [abs(transition_multipoles(S2P0, S1S).gamma(k)) for k in (1.0, 2.0, 4.0, 8.0)]
        assert values == sorted(values)
        assert values[0] > 0.0
