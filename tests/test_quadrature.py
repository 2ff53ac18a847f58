import math

import numpy as np
import pytest

from quadbloch import BoundState, grid_for_pair, multipole, overlap, transition_multipoles
from quadbloch.quadrature import _angular_rule, _product_grid, _radial_rule
from test_multipole import reference_multipoles


def pair_grid(a, b, count, order):
    """A grid at the pair's decay with a chosen node count and angular order."""
    return _product_grid(a.decay_constant + b.decay_constant, count, order)


def assert_matches_reference(a, b, grid):
    """The pair's own-grid moments equal the pointwise sums on ``grid``."""
    reference, reference_overlap = reference_multipoles(a, b, grid)
    data = transition_multipoles(a, b)
    for field, want in reference.items():
        scale = max(float(np.max(np.abs(want))), 1.0)
        assert np.max(np.abs(getattr(data, field) - want)) / scale < 1e-12, (a, b, field)
    assert abs(overlap(a, b) - reference_overlap) / max(abs(reference_overlap), 1.0) < 1e-12, (a, b)


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
        # each pair's own grid (3, 4 and 5 nodes) against 200 and 400 nodes at angular order 35
        pairs = [
            (BoundState(1, 0, 0), BoundState(2, 1, 0)),
            (BoundState(1, 0, 0), BoundState(3, 2, 0)),
            (BoundState(2, 1, 1), BoundState(4, 3, 2)),
        ]
        for a, b in pairs:
            for count in (200, 400):
                assert_matches_reference(a, b, pair_grid(a, b, count, 35))

    def test_grid_weights_positive_and_finite(self):
        g = grid_for_pair(BoundState(1, 0, 0), BoundState(4, 3, 0))
        assert np.all(np.isfinite(g.weights))
        assert np.all(np.isfinite(g.points))
        assert g.radial_scale == pytest.approx(1.0 + 0.25)

    # None is the 3d+1, 2p0 pair (4 nodes, order 5); the other has 17 nodes, order 3
    @pytest.mark.parametrize("pair", [None, (BoundState(15, 0, 0), BoundState(15, 1, 0))])
    def test_points_and_weights_are_the_product_of_the_factors(self, pair):
        g = grid_for_pair(*(pair or (BoundState(3, 2, 1), BoundState(2, 1, 0))))
        x, lifted = _radial_rule((g.radial_degree + 1) // 2)
        unit, w_ang = _angular_rule(g.angular_degree)
        r = g.radial_nodes
        assert np.array_equal(r, x / g.radial_scale)
        assert np.array_equal(g.radial_weights, lifted / g.radial_scale * r * r)
        assert np.array_equal(g.unit_vectors, unit) and np.array_equal(g.angular_weights, w_ang)
        # radial index slowest
        assert np.array_equal(g.points, np.array([ri * n for ri in r for n in unit]))
        assert np.array_equal(g.weights, np.array([wr * wa for wr in g.radial_weights for wa in w_ang]))


S3P0 = BoundState(3, 1, 0)
S2P0 = BoundState(2, 1, 0)
S1S = BoundState(1, 0, 0)
Q_ZZ_3P0_2P0 = -1327104.0 / 390625.0     # exact, from tests/exact_moments.json
D_Z_2P0_1S = 128.0 * math.sqrt(2.0) / 243.0
S15P0 = BoundState(15, 1, 0)
# <r^2> = n^2 (5 n^2 + 1 - 3 l (l + 1)) / 2 = 126000 times <(cos^2 - 1/3) / 2> = 2/15
Q_ZZ_15P0 = 16800.0


class TestExactness:
    def test_default_grid_is_smallest_exact(self):
        # radial degree n_a + n_b + 2 = 7 needs 4 nodes; order 4 needs 3 x 5 directions
        g = grid_for_pair(S3P0, S2P0)
        assert (g.radial_nodes.size, g.angular_degree) == (4, 4)
        assert (g.radial_degree, g.angular_degree) == (7, 4)
        assert len(g.weights) == 4 * 3 * 5

    def test_radial_count_is_the_degree_rule_alone(self, states_n_le_4):
        for a in states_n_le_4:
            for b in states_n_le_4:
                if a == b:
                    continue
                g = grid_for_pair(a, b)
                assert g.radial_nodes.size == (a.n + b.n + 4) // 2, (a, b)
                assert g.radial_degree in (a.n + b.n + 2, a.n + b.n + 3), (a, b)
                assert g.angular_degree == a.l + b.l + 2, (a, b)

    @pytest.mark.parametrize("order", [2, 3, 4])
    def test_angular_order_rule_is_tight(self, order):
        # Q_zz carries a cos^4 term: order 4 = l_a + l_b + 2 integrates it,
        # orders 2 and 3 give 0 instead of -3.397
        q_zz = reference_multipoles(S3P0, S2P0, pair_grid(S3P0, S2P0, 4, order))[0]["quadrupole"][2, 2]
        if order < 4:
            assert abs(q_zz - Q_ZZ_3P0_2P0) > 3.0
        else:
            assert q_zz.real == pytest.approx(Q_ZZ_3P0_2P0, rel=1e-12)

    def test_high_n_pair_gets_17_radial_nodes(self):
        g = grid_for_pair(BoundState(15, 0, 0), BoundState(15, 1, 0))
        assert g.radial_nodes.size == 17 and g.radial_degree == 33

    @pytest.mark.parametrize("a,b,field,index,exact,coarse_error", [
        # radial degree 32: 16 nodes (degree 31) give 15960, the rule's 17 integrate it
        (S15P0, S15P0, "quadrupole", (2, 2), Q_ZZ_15P0, 0.04),
        # degree 7: 3 nodes give -1.699, the rule's 4 integrate it
        (S3P0, S2P0, "quadrupole", (2, 2), Q_ZZ_3P0_2P0, 0.4),
        # degree 5: 2 nodes put D_z 17% off, the rule's 3 integrate it
        (S2P0, S1S, "dipole", (2,), D_Z_2P0_1S, 0.1),
    ], ids=["15p0-15p0", "3p0-2p0", "2p0-1s"])
    def test_radial_node_rule_is_tight(self, monkeypatch, a, b, field, index, exact, coarse_error):
        # the library path on a grid one radial node short of the rule, then at the rule
        count = grid_for_pair(a, b).radial_nodes.size
        assert count == (a.n + b.n + 4) // 2
        for nodes in (count - 1, count):
            monkeypatch.setattr(multipole, "grid_for_pair",
                                lambda a, b: pair_grid(a, b, nodes, a.l + b.l + 2))
            value = getattr(transition_multipoles(a, b), field)[index]
            if nodes < count:
                assert abs(value - exact) / abs(exact) > coarse_error, nodes
            else:
                assert value.real == pytest.approx(exact, rel=1e-13)
                assert value.imag == 0.0

    def test_default_path_quadrupole_3p0_2p0(self):
        assert transition_multipoles(S3P0, S2P0).quadrupole[2, 2].real == pytest.approx(Q_ZZ_3P0_2P0, rel=1e-12)

    @pytest.mark.parametrize("a,b", [
        (BoundState(4, 3, 3), BoundState(4, 3, 1)),
        (BoundState(4, 3, -2), BoundState(3, 2, -1)),
        (BoundState(4, 2, 1), BoundState(4, 0, 0)),
    ])
    def test_smallest_grid_matches_dense_spec(self, a, b):
        # dense: 200 and 400 nodes at angular order 35, summed pointwise
        for count in (200, 400):
            assert_matches_reference(a, b, pair_grid(a, b, count, 35))
