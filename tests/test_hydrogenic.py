import math

import numpy as np
import pytest

from quadbloch import BoundState, bound_energy, transition_frequency
from quadbloch.hydrogenic import _laguerre, _solid_harmonic_chain, solid_harmonic

from oracles import eigenstate_eval, radial_wavefunction, solid_harmonic_table




class TestBoundState:
    def test_valid_construction(self):
        s = BoundState(2, 1, -1)
        assert s.n == 2 and s.l == 1 and s.m == -1 and s.z_charge == 1.0

    @pytest.mark.parametrize("n,l,m", [(0, 0, 0), (1, 1, 0), (2, 2, 0), (2, 1, 2), (3, 1, -2), (1, 0, 1)])
    def test_invalid_quantum_numbers_rejected(self, n, l, m):
        with pytest.raises(ValueError):
            BoundState(n, l, m)

    def test_invalid_charge_rejected(self):
        for z in (0.0, math.nan, math.inf):
            with pytest.raises(ValueError, match="positive and finite"):
                BoundState(1, 0, 0, z_charge=z)

    def test_labels(self):
        assert BoundState(1, 0, 0).label() == "1s"
        assert BoundState(2, 1, 0).label() == "2p"
        assert BoundState(3, 2, -1).label() == "3d-1"
        assert BoundState(8, 7, -2).label() == "8k-2"
        assert BoundState(9, 8, 1).label() == "9,8,1"    # past the last letter


class TestEnergies:
    def test_ground_state(self):
        assert bound_energy(BoundState(1, 0, 0)) == pytest.approx(-0.5, rel=1e-15)

    def test_n2(self):
        assert bound_energy(BoundState(2, 0, 0)) == pytest.approx(-0.125, rel=1e-15)

    def test_n3(self):
        assert bound_energy(BoundState(3, 1, 0)) == pytest.approx(-1.0 / 18.0, rel=1e-15)

    def test_scales_with_charge(self):
        assert bound_energy(BoundState(1, 0, 0, z_charge=2.0)) == pytest.approx(-2.0, rel=1e-15)


class TestTransitionFrequency:
    def test_identical_levels(self):
        s = BoundState(1, 0, 0)
        assert transition_frequency(s, s) == 0.0

    def test_lyman_alpha(self):
        assert transition_frequency(BoundState(2, 1, 0), BoundState(1, 0, 0)) == pytest.approx(0.375, rel=1e-15)

    def test_3d_to_1s(self):
        assert transition_frequency(BoundState(3, 2, 0), BoundState(1, 0, 0)) == pytest.approx(4.0 / 9.0, rel=1e-15)

    def test_antisymmetric(self):
        a, b = BoundState(3, 2, 1), BoundState(2, 0, 0)
        assert transition_frequency(a, b) == -transition_frequency(b, a)

    def test_mixed_charge_rejected(self):
        with pytest.raises(ValueError):
            transition_frequency(BoundState(1, 0, 0), BoundState(1, 0, 0, z_charge=2.0))


class TestEigenstateEval:
    def test_1s_near_origin(self):
        amp, _ = eigenstate_eval(BoundState(1, 0, 0), np.array([0.0, 0.0, 1e-8]))
        assert abs(amp - 1.0 / math.sqrt(math.pi)) < 1e-7

    def test_1s_far_field(self):
        amp, _ = eigenstate_eval(BoundState(1, 0, 0), np.array([0.0, 30.0, 40.0]))  # r = 50
        assert abs(amp) < 1e-15

    def test_2p0_gradient_on_polar_axis(self):
        # the axis is a pole of the spherical-angle chain rule; the Cartesian
        # recursion must be smooth there
        state = BoundState(2, 1, 0)
        point = np.array([0.0, 0.0, 1.7])
        _, grad = eigenstate_eval(state, point)
        h = 1e-5
        fd = np.empty(3, dtype=complex)
        for i in range(3):
            dp = point.copy()
            dm = point.copy()
            dp[i] += h
            dm[i] -= h
            fd[i] = (eigenstate_eval(state, dp)[0] - eigenstate_eval(state, dm)[0]) / (2 * h)
        assert np.max(np.abs(grad - fd)) / np.max(np.abs(grad)) < 1e-6

    def test_gradient_matches_finite_differences_everywhere(self, rng, states_n_le_4):
        h = 1e-5
        for state in states_n_le_4:
            radii = rng.uniform(0.1, 2.5 * state.n**2, size=100)
            direction = rng.normal(size=(100, 3))
            direction /= np.linalg.norm(direction, axis=1)[:, None]
            pts = radii[:, None] * direction
            _, grad = eigenstate_eval(state, pts)
            fd = np.empty_like(grad)
            for i in range(3):
                dp = pts.copy()
                dm = pts.copy()
                dp[:, i] += h
                dm[:, i] -= h
                fd[:, i] = (eigenstate_eval(state, dp)[0] - eigenstate_eval(state, dm)[0]) / (2 * h)
            scale = np.maximum(np.max(np.abs(grad), axis=1), 1e-9)
            assert np.max(np.max(np.abs(grad - fd), axis=1) / scale) < 1e-6, state

    def test_rejects_non_finite_point(self):
        with pytest.raises(ValueError):
            eigenstate_eval(BoundState(1, 0, 0), np.array([np.nan, 0.0, 0.0]))

    def test_radial_normalization_quad(self):
        # int R^2 r^2 dr = 1 via dense trapezoid, independent of the package grids
        r = np.linspace(1e-6, 150.0, 400001)
        for n, l in [(1, 0), (2, 1), (3, 2), (4, 3), (4, 0)]:
            R, _ = radial_wavefunction(BoundState(n, l, 0), r)
            assert np.trapezoid(R * R * r * r, r) == pytest.approx(1.0, abs=1e-8)

    def test_radial_derivative_matches_fd(self):
        r = np.linspace(0.05, 30.0, 500)
        h = 1e-6
        for n, l in [(1, 0), (2, 1), (3, 1), (4, 2)]:
            state = BoundState(n, l, 0)
            _, dR = radial_wavefunction(state, r)
            fd = (radial_wavefunction(state, r + h)[0] - radial_wavefunction(state, r - h)[0]) / (2 * h)
            assert np.max(np.abs(dR - fd)) < 1e-7


class TestSolidHarmonic:
    def test_chain_equals_full_table_bit_for_bit(self, rng):
        pts = np.concatenate([rng.normal(scale=3.0, size=(200, 3)),
                              [[0.0, 0.0, 1.7], [0.0, 0.0, -2.0], [0.0, 0.0, 0.0], [1.0, -1.0, 0.0]]])
        l_max = 5
        vals, grads = solid_harmonic_table(l_max, pts)
        for l in range(l_max + 1):
            for m in range(-l, l + 1):
                val, grad = solid_harmonic(l, m, pts)
                want_val, want_grad = vals[(l, abs(m))], grads[(l, abs(m))]
                if m < 0:
                    sign = -1.0 if m % 2 else 1.0
                    want_val, want_grad = sign * np.conj(want_val), sign * np.conj(want_grad)
                assert np.array_equal(val, want_val), (l, m)
                assert np.array_equal(grad, want_grad), (l, m)

    def test_chain_equals_per_component_recursion(self, rng):
        # the chain steps the gradient as one array; every element keeps the
        # per-component recursion's operations, so even signed zeros agree
        poles = [[0.0, 0.0, 1.3], [0.0, 0.0, -0.4], [0.0, 0.0, 0.0], [-0.0, 0.0, -0.0]]
        l_max = 8
        for pts in (rng.normal(scale=2.0, size=(150, 3)), np.array(poles), rng.normal(size=(2, 5, 3))):
            vals, grads = solid_harmonic_table(l_max, pts)
            for l in range(l_max + 1):
                for m in range(l + 1):
                    val, grad = _solid_harmonic_chain(l, m, pts)
                    assert np.array_equal(val, vals[(l, m)]) and np.array_equal(grad, grads[(l, m)]), (l, m)
                    assert val.tobytes() == vals[(l, m)].tobytes(), (l, m)
                    assert grad.tobytes() == grads[(l, m)].tobytes(), (l, m)


class TestLaguerre:
    def test_recurrence_matches_scipy(self):
        from scipy.special import eval_genlaguerre

        u = np.linspace(0.0, 60.0, 601)
        for k in range(13):
            for alpha in range(2 * k + 3):
                want = eval_genlaguerre(k, alpha, u)
                got = _laguerre(k, alpha, u)
                assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want)), (k, alpha)

    def test_scalar_argument(self):
        assert _laguerre(0, 3, np.float64(2.0)) == 1.0
        assert _laguerre(2, 1, np.float64(0.0)) == pytest.approx(3.0, rel=1e-15)   # binom(3, 2)
