import math

import numpy as np
import pytest

from quadbloch import (
    DEFAULT_SPEC,
    BoundState,
    QuadratureError,
    QuadratureSpec,
    dipole_moment,
    grid_for_pair,
    overlap,
    quadrupole_moment,
    transition_multipoles,
)
from quadbloch.quadrature import _angular_rule, _radial_rule


class TestSpecs:
    def test_defaults(self):
        spec = QuadratureSpec()
        assert spec.radial_node_count == 200
        assert spec.radial_scale is None
        assert spec.angular_order == 35

    def test_minimum_node_count_enforced(self):
        with pytest.raises(ValueError):
            QuadratureSpec(radial_node_count=8)

    def test_scale_positivity(self):
        with pytest.raises(ValueError):
            QuadratureSpec(radial_scale=-1.0)


class TestRadialRule:
    def test_exponential_moments_exact(self):
        # int_0^inf e^{-x} x^k dx = k! is the native Laguerre family
        x, w = _radial_rule(200)
        for k in range(0, 31, 5):
            val = float(np.dot(w, np.exp(-x) * x**k))
            assert val == pytest.approx(math.factorial(k), rel=1e-12)

    @pytest.mark.parametrize("count", [16, 17, 40, 200])
    def test_nodes_match_scipy_tridiagonal_solver(self, count):
        from scipy.linalg import eigh_tridiagonal

        want = eigh_tridiagonal(2.0 * np.arange(count) + 1.0, np.arange(1.0, count), eigvals_only=True)
        x, _ = _radial_rule(count)
        assert x.shape == want.shape
        assert np.max(np.abs(x - want) / want) <= 1e-13

    def test_overflowing_tail_dropped(self):
        x, w = _radial_rule(200)
        assert np.all(np.isfinite(w))
        assert np.all(w >= 0.0)


class TestAngularRule:
    def test_spherical_harmonics_integrate_to_zero_up_to_order(self):
        from scipy.special import sph_harm_y

        unit, weights = _angular_rule(35)
        theta = np.arccos(np.clip(unit[:, 2], -1, 1))
        phi = np.arctan2(unit[:, 1], unit[:, 0])
        for l in list(range(1, 11)) + [20, 30, 35]:
            for m in {-l, -1, 0, 1, l}:
                if abs(m) > l:
                    continue
                val = np.dot(weights, sph_harm_y(l, m, theta, phi))
                assert abs(val) < 1e-12, (l, m)
        total = np.dot(weights, np.ones(len(weights)))
        assert total == pytest.approx(4 * math.pi, rel=1e-14)

    def test_product_orthonormality_within_order_budget(self):
        from scipy.special import sph_harm_y

        unit, weights = _angular_rule(35)
        theta = np.arccos(np.clip(unit[:, 2], -1, 1))
        phi = np.arctan2(unit[:, 1], unit[:, 0])
        for (l1, m1), (l2, m2) in [((3, 1), (3, 1)), ((5, -2), (5, -2)), ((4, 2), (7, 2)), ((10, 0), (12, 0))]:
            val = np.dot(weights, np.conj(sph_harm_y(l1, m1, theta, phi)) * sph_harm_y(l2, m2, theta, phi))
            expected = 1.0 if (l1, m1) == (l2, m2) else 0.0
            assert abs(val - expected) < 1e-12


class TestStateResolution:
    def test_normalization_all_states(self, states_n_le_4):
        for s in states_n_le_4:
            assert abs(overlap(s, s) - 1.0) < 1e-8, s

    def test_orthogonality_all_distinct_pairs(self, states_n_le_4):
        worst = 0.0
        for i, a in enumerate(states_n_le_4):
            for b in states_n_le_4[i + 1:]:
                worst = max(worst, abs(overlap(a, b)))
        assert worst < 1e-8

    def test_doubling_nodes_changes_nothing(self):
        pairs = [
            (BoundState(1, 0, 0), BoundState(2, 1, 0)),
            (BoundState(1, 0, 0), BoundState(3, 2, 0)),
            (BoundState(2, 1, 1), BoundState(4, 3, 2)),
        ]
        for a, b in pairs:
            d200 = dipole_moment(a, b, QuadratureSpec(radial_node_count=200))
            d400 = dipole_moment(a, b, QuadratureSpec(radial_node_count=400))
            scale = max(np.max(np.abs(d200)), 1.0)
            assert np.max(np.abs(d200 - d400)) / scale < 1e-8

    def test_mismatched_scale_raises_diagnostic(self):
        a = BoundState(1, 0, 0)
        b = BoundState(2, 1, 0)
        with pytest.raises(QuadratureError, match="radial_scale 40.0 is not the decay 1.5"):
            dipole_moment(a, b, QuadratureSpec(radial_node_count=16, radial_scale=40.0))

    def test_grid_weights_positive_and_finite(self):
        g = grid_for_pair(BoundState(1, 0, 0), BoundState(4, 3, 0))
        assert np.all(np.isfinite(g.weights))
        assert np.all(np.isfinite(g.points))
        assert g.radial_scale == pytest.approx(1.0 + 0.25)

    @pytest.mark.parametrize("spec", [None, QuadratureSpec(radial_node_count=20, angular_order=7)])
    def test_points_and_weights_are_the_product_of_the_factors(self, spec):
        g = grid_for_pair(BoundState(3, 2, 1), BoundState(2, 1, 0), spec)
        x, lifted = _radial_rule(g.spec.radial_node_count)
        unit, w_ang = _angular_rule(g.spec.angular_order)
        r = g.radial_nodes
        assert np.array_equal(r, x / g.radial_scale)
        assert np.array_equal(g.radial_weights, lifted / g.radial_scale * r * r)
        assert np.array_equal(g.unit_vectors, unit) and np.array_equal(g.angular_weights, w_ang)
        # radial index slowest
        assert np.array_equal(g.points, np.array([ri * n for ri in r for n in unit]))
        assert np.array_equal(g.weights, np.array([wr * wa for wr in g.radial_weights for wa in w_ang]))


S3P0 = BoundState(3, 1, 0)
S2P0 = BoundState(2, 1, 0)
Q_ZZ_3P0_2P0 = -1327104.0 / 390625.0     # exact, from tests/exact_moments.json


class TestExactness:
    def test_default_grid_is_smallest_exact(self):
        g = grid_for_pair(S3P0, S2P0)
        assert (g.spec.radial_node_count, g.spec.angular_order) == (16, 4)
        assert (g.radial_degree, g.angular_degree) == (31, 4)
        assert len(g.weights) == 16 * 3 * 5

    @pytest.mark.parametrize("order", [2, 3])
    def test_coarse_angular_spec_raises(self, order):
        # too coarse for the cos^4 term: the sum comes out as 0 instead of -3.397
        with pytest.raises(QuadratureError, match=f"angular degree 4 needed, {order} supplied"):
            quadrupole_moment(S3P0, S2P0, QuadratureSpec(angular_order=order))

    def test_too_few_radial_nodes_for_high_n_raises(self):
        a, b = BoundState(15, 0, 0), BoundState(15, 1, 0)
        with pytest.raises(QuadratureError, match="radial degree 32 needed, 31 supplied"):
            dipole_moment(a, b, QuadratureSpec(radial_node_count=16))
        g = grid_for_pair(a, b)
        assert g.spec.radial_node_count == 17 and g.radial_degree == 33
        grid_for_pair(a, b, QuadratureSpec(radial_node_count=17, angular_order=3))

    def test_default_path_quadrupole_3p0_2p0(self):
        assert quadrupole_moment(S3P0, S2P0)[2, 2].real == pytest.approx(Q_ZZ_3P0_2P0, rel=1e-12)

    @pytest.mark.parametrize("a,b", [
        (BoundState(4, 3, 3), BoundState(4, 3, 1)),
        (BoundState(4, 3, -2), BoundState(3, 2, -1)),
        (BoundState(4, 2, 1), BoundState(4, 0, 0)),
    ])
    def test_smallest_grid_matches_dense_spec(self, a, b):
        small = transition_multipoles(a, b)
        dense = transition_multipoles(a, b, DEFAULT_SPEC)
        for field in ("dipole", "quadrupole", "delta_vec", "delta_tensor", "grad_ab", "grad_ba"):
            x, y = getattr(small, field), getattr(dense, field)
            scale = max(float(np.max(np.abs(y))), 1.0)
            assert np.max(np.abs(x - y)) / scale < 1e-12, field
