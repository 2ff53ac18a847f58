import math
from dataclasses import FrozenInstanceError, replace

import mpmath
import numpy as np
import pytest

from quadbloch import (
    BlochVector,
    DensityMatrix2,
    TwoLevelParams,
    additional_shift,
    analytic_bloch,
    bloch_flow,
    bloch_rhs,
    bloch_to_density,
    exact_trajectory,
    frequency_shift,
)
from quadbloch.cli import _csv_columns
from quadbloch.twolevel import _log_cosh_ratio

from oracles import density_rhs_two_level


def random_params(rng, q_range=(0.01, 1.0), coeff_range=(0.0, 10.0)):
    q = rng.uniform(*q_range) * rng.choice([-1.0, 1.0])
    omega = rng.uniform(*coeff_range) * rng.choice([-1.0, 1.0])
    tau = rng.uniform(*coeff_range) * rng.choice([-1.0, 1.0])
    lam = rng.uniform(*coeff_range) * rng.choice([-1.0, 1.0])
    # gamma11 - gamma22 = 2 tau; (gamma11 + gamma22)/2 - gamma12 = lam
    return TwoLevelParams(omega21=omega, gamma11=tau, gamma22=-tau, gamma12=-lam, a12=2.0 * q)


class TestDerivedParams:
    def test_pure_dipole(self):
        p = TwoLevelParams(omega21=1.0, a12=2.0)
        assert (p.q, p.tau, p.lam) == (1.0, 0.0, 0.0)

    def test_uniform_gammas_cancel(self):
        p = TwoLevelParams(omega21=1.0, gamma11=0.3, gamma22=0.3, gamma12=0.3)
        assert p.tau == 0.0 and p.lam == 0.0

    def test_mixed_rates(self):
        p = TwoLevelParams(omega21=1.0, a12=1.0, b12=0.2, c12=0.3)
        assert p.q == pytest.approx(0.6, rel=1e-15)

    def test_frozen_and_validated(self):
        p = TwoLevelParams(omega21=1.0)
        with pytest.raises(FrozenInstanceError):
            p.omega21 = 2.0
        with pytest.raises(ValueError):
            TwoLevelParams(omega21=math.nan)


class TestBlochRhs:
    def test_north_pole_population_stationary(self, canonical_params):
        d = bloch_rhs(BlochVector(0.0, 0.0, 1.0), canonical_params)
        assert d.pz == 0.0

    def test_ground_state_fixed_point(self, canonical_params):
        d = bloch_rhs(BlochVector(0.0, 0.0, -1.0), canonical_params)
        assert d == BlochVector(0.0, 0.0, 0.0)

    def test_equatorial_start_pure_decay(self):
        # omega12 + tau = 0 and lam = 0 leaves dP/dt = (0, 0, -1) at P = x-hat
        p = TwoLevelParams(omega21=0.0, a12=2.0)
        d = bloch_rhs(BlochVector(1.0, 0.0, 0.0), p)
        assert d == BlochVector(0.0, 0.0, -1.0)

    def test_norm_derivative_identity(self, rng):
        # d|P|^2/dt = 2 q Pz (|P|^2 - 1)
        for _ in range(50):
            p = random_params(rng)
            vec = BlochVector(*rng.normal(size=3))
            d = bloch_rhs(vec, p)
            lhs = 2.0 * (vec.px * d.px + vec.py * d.py + vec.pz * d.pz)
            rhs = 2.0 * p.q * vec.pz * (vec.norm() ** 2 - 1.0)
            assert lhs == pytest.approx(rhs, abs=1e-12 * max(1.0, abs(rhs)))


class TestDensityRhs:
    def test_pure_upper_state_stationary(self, canonical_params):
        d = density_rhs_two_level(DensityMatrix2(1.0, 0.0, 0.0), canonical_params)
        assert d == DensityMatrix2(0.0, 0.0, 0.0)

    def test_balanced_mixture_decay_rate(self):
        p = TwoLevelParams(omega21=1.0, a12=2.0)  # q = 1
        d = density_rhs_two_level(DensityMatrix2(0.5, 0.5, 0.0), p)
        assert d.rho11 == pytest.approx(-0.5, rel=1e-15)
        assert d.rho22 == pytest.approx(0.5, rel=1e-15)

    def test_transform_equivariance_with_bloch_rhs(self, rng, canonical_params):
        for _ in range(200):
            pz = rng.uniform(-1.0, 1.0)
            px, py = rng.normal(size=2) * 0.4
            p = random_params(rng) if rng.uniform() < 0.5 else canonical_params
            vec = BlochVector(px, py, pz)
            drho = density_rhs_two_level(bloch_to_density(vec), p)
            dvec = bloch_rhs(vec, p)
            assert abs(drho.rho11 - 0.5 * dvec.pz) < 1e-12
            assert abs(drho.rho22 + 0.5 * dvec.pz) < 1e-12
            assert abs(drho.rho12 - 0.5 * (dvec.px - 1j * dvec.py)) < 1e-12


class TestPauliMaps:
    def test_north_pole(self):
        rho = bloch_to_density(BlochVector(0.0, 0.0, 1.0))
        assert rho == DensityMatrix2(1.0, 0.0, 0.0)

    def test_equatorial(self):
        rho = bloch_to_density(BlochVector(1.0, 0.0, 0.0))
        assert rho.rho12 == 0.5 + 0.0j

    def test_round_trip_on_sphere(self, rng):
        # arrays map element by element, and the inverse map recovers the vectors
        vecs = rng.normal(size=(1000, 3))
        vecs /= np.linalg.norm(vecs, axis=1)[:, None]
        r11, r22, r12 = bloch_to_density(vecs.T)
        assert [tuple(x) for x in zip(r11, r22, r12)] == [bloch_to_density(BlochVector(*row)) for row in vecs]
        back = np.stack([2.0 * r12.real, -2.0 * r12.imag, r11 - r22], axis=-1)
        assert np.max(np.abs(back - vecs)) < 1e-15


class TestAnalyticBloch:
    def test_value_at_t0(self, canonical_params):
        assert analytic_bloch(canonical_params.t0, canonical_params) == BlochVector(1.0, 0.0, 0.0)

    def test_late_time_asymptotics(self, canonical_params):
        q = canonical_params.q
        vec = analytic_bloch(canonical_params.t0 + 10.0 / q, canonical_params)
        assert abs(vec.pz + 1.0) < 1e-8
        assert math.hypot(vec.px, vec.py) < 1e-4

    def test_unit_norm_everywhere(self, rng, canonical_params):
        for t in rng.uniform(-50.0, 50.0, size=200):
            assert abs(analytic_bloch(t, canonical_params).norm() - 1.0) < 1e-14

    def test_refuses_q_zero(self):
        p = TwoLevelParams(omega21=1.0)
        with pytest.raises(ValueError, match="q = 0"):
            analytic_bloch(1.0, p)

    def test_residual_against_rhs(self, rng):
        # closed form must satisfy the equations of motion
        h = 1e-6
        worst = 0.0
        for _ in range(20):
            p = random_params(rng)
            for t in np.linspace(p.t0 - 5.0 / abs(p.q), p.t0 + 5.0 / abs(p.q), 50):
                rhs = np.array(bloch_rhs(analytic_bloch(t, p), p))
                fd = (np.array(analytic_bloch(t + h, p)) - np.array(analytic_bloch(t - h, p))) / (2 * h)
                worst = max(worst, float(np.max(np.abs(rhs - fd))))
        assert worst < 1e-6

    def test_monotone_population_decay(self, canonical_params):
        ts = np.linspace(-30.0, 30.0, 500)
        pz = np.array([analytic_bloch(t, canonical_params).pz for t in ts])
        assert np.all(np.diff(pz) < 0.0)

    def test_no_overflow_far_from_t0(self, canonical_params):
        vec = analytic_bloch(1e5, canonical_params)
        assert all(math.isfinite(c) for c in vec)


def closed_form_reference(t, p):
    """The closed form through (1, 0, 0) at t0 with its sech envelope, written out."""
    w = p.q * (t - p.t0)
    phase = (p.omega21 - p.tau) * (t - p.t0) + (p.lam / p.q) * np.log(np.cosh(w))
    return np.stack([np.cos(phase) / np.cosh(w), -np.sin(phase) / np.cosh(w), -np.tanh(w)], axis=-1)


class TestBlochFlow:
    def test_default_start_matches_closed_form(self, canonical_params):
        p = canonical_params
        t = np.linspace(-20.0, 20.0, 4001)
        flow = bloch_flow(t, p, (1.0, 0.0, 0.0), p.t0)
        assert np.max(np.abs(flow - closed_form_reference(t, p))) < 1e-14
        scalar = np.array([analytic_bloch(x, p) for x in t[::40]])
        assert np.max(np.abs(flow[::40] - scalar)) < 1e-14

    def test_passes_through_start(self, rng, canonical_params):
        for _ in range(20):
            start = rng.standard_normal(3)
            start *= rng.uniform(0.0, 1.0) / np.linalg.norm(start)
            value = bloch_flow(-3.0, canonical_params, start, -3.0)
            assert np.max(np.abs(value - start)) < 1e-15

    def test_residual_against_rhs_from_any_start(self, rng):
        # custom starts inside the ball and on the sphere, q = 0 and both signs of q
        h = 1e-6
        q_zero = TwoLevelParams(omega21=0.8, gamma11=0.3, gamma22=-0.1, gamma12=0.05)
        worst = 0.0
        for p in [random_params(rng) for _ in range(6)] + [q_zero]:
            for radius in (1.0, 0.6):
                start = rng.standard_normal(3)
                start *= radius / np.linalg.norm(start)
                t = np.linspace(-4.0, 4.0, 41)
                x = bloch_flow(t, p, start, 0.5)
                rhs = np.array(bloch_rhs(x.T, p)).T
                fd = (bloch_flow(t + h, p, start, 0.5) - bloch_flow(t - h, p, start, 0.5)) / (2 * h)
                worst = max(worst, float(np.max(np.abs(rhs - fd))))
        assert worst < 1e-6

    @pytest.mark.parametrize("pz0", [1.0, -1.0])
    def test_fixed_points_stay(self, canonical_params, pz0):
        # q t reaches 1000, where the unstable pole's envelope exp(q t) overflows
        x = bloch_flow(np.linspace(-50.0, 1e4, 11), canonical_params, (0.0, 0.0, pz0), 0.0)
        assert np.all(x[:, 2] == pz0) and np.all(x[:, :2] == 0.0)

    def test_q_zero_is_plain_rotation(self):
        p = TwoLevelParams(omega21=1.3, gamma11=0.1, gamma22=-0.04, gamma12=0.02)
        start = (0.3, -0.4, 0.5)
        t = np.linspace(0.0, 30.0, 301)
        x = bloch_flow(t, p, start, 0.0)
        rate = p.omega21 - p.tau - p.lam * start[2]
        w = (start[0] - 1j * start[1]) * np.exp(1j * rate * t)
        assert np.max(np.abs(x[:, 0] - w.real)) < 1e-13
        assert np.max(np.abs(x[:, 1] + w.imag)) < 1e-13
        assert np.all(x[:, 2] == start[2])

    def test_norm_law_inside_the_ball(self, canonical_params):
        # d|P|^2/dt = 2 q Pz (|P|^2 - 1): 1 - |P|^2 scales with exp(2 q int Pz) = sech^2 q t
        p, start = canonical_params, (0.5, 0.0, 0.0)
        t = np.linspace(0.0, 20.0, 201)
        x = bloch_flow(t, p, start, 0.0)
        deficit = 1.0 - np.sum(x**2, axis=1)
        expected = 0.75 / np.cosh(p.q * t) ** 2
        assert np.max(np.abs(deficit / expected - 1.0)) < 1e-12


class TestLogCosh:
    @pytest.mark.parametrize("q", [1e-4, 1e-8, 1e-10])
    def test_small_q_phase_matches_series(self, q):
        # (lam/q) ln cosh(q t) against lam (q t^2/2 - q^3 t^4/12); the old
        # |x| + log1p(exp(-2|x|)) - ln 2 form loses the term as q -> 0
        p = TwoLevelParams(omega21=1.0, gamma11=0.02, gamma12=-0.04, a12=2.0 * q)
        for t in (-10.0, 3.0, 10.0):
            w = q * t
            assert _log_cosh_ratio(w, 0.0) == pytest.approx(w * w / 2.0 - w**4 / 12.0, rel=1e-14)
            phase = (p.omega21 - p.tau) * t + p.lam * (q * t * t / 2.0 - q**3 * t**4 / 12.0)
            env = 1.0 / math.cosh(w)
            expected = (env * math.cos(phase), -env * math.sin(phase), -math.tanh(w))
            assert np.max(np.abs(np.array(analytic_bloch(t, p)) - expected)) < 1e-14

    def test_matches_log_cosh_across_branches(self):
        x = np.array([-40.0, -3.0, -1.0, -0.999, -0.3, 0.0, 0.2, 0.999, 1.0, 1.5, 30.0])
        assert np.max(np.abs(_log_cosh_ratio(x, 0.0) - np.log(np.cosh(x)))) < 4e-15
        assert _log_cosh_ratio(1e5, 0.0) == 1e5 - math.log(2.0)


def closed_form_density(t, p):
    return bloch_to_density(analytic_bloch(t, p))


class TestAnalyticDensity:
    def test_midpoint(self, canonical_params):
        rho = closed_form_density(canonical_params.t0, canonical_params)
        assert rho.rho11 == pytest.approx(0.5, abs=1e-15)
        assert rho.rho22 == pytest.approx(0.5, abs=1e-15)

    def test_trace_exactly_one(self, rng, canonical_params):
        for t in rng.uniform(-40.0, 40.0, size=100):
            rho = closed_form_density(t, canonical_params)
            assert rho.rho11 + rho.rho22 == pytest.approx(1.0, abs=1e-15)

    def test_logistic_populations(self, canonical_params):
        q = canonical_params.q
        for t in (-7.3, 0.4, 12.0):
            rho = closed_form_density(t, canonical_params)
            assert rho.rho11 == pytest.approx(1.0 / (math.exp(2 * q * t) + 1.0), rel=1e-12)
            assert rho.rho22 == pytest.approx(1.0 / (math.exp(-2 * q * t) + 1.0), rel=1e-12)

    def test_consistent_with_bloch_map(self, canonical_params):
        # the CSV's density columns are the map of the closed-form samples
        traj = exact_trajectory(None, canonical_params, -40.0, 40.0, 0.8)
        cols = _csv_columns(traj)
        rho12 = cols["re_rho12"] + 1j * cols["im_rho12"]
        for k, t in enumerate(traj.t.tolist()):
            rho = closed_form_density(t, canonical_params)
            assert abs(rho.rho11 - cols["rho11"][k]) < 1e-15
            assert abs(rho.rho22 - cols["rho22"][k]) < 1e-15
            assert abs(rho.rho12 - rho12[k]) < 1e-15


def _energy(traj):
    return _csv_columns(traj)["energy"]


def _dipole(traj):
    return _csv_columns(traj)["dipole"]


class TestEnergyExpectation:
    # the CSV's energy column, with the zero midway between the levels
    def test_balanced_mixture_is_zero(self, canonical_params):
        traj = exact_trajectory(BlochVector(0.0, 0.0, 0.0), canonical_params, 0.0, 1.0, 0.5)
        assert _energy(traj)[0] == 0.0

    def test_pure_level_one(self, canonical_params):
        traj = exact_trajectory(BlochVector(0.0, 0.0, 1.0), canonical_params, 0.0, 1.0, 0.5)
        assert np.all(_energy(traj) == -0.5 * canonical_params.omega21)

    def test_tanh_law_along_closed_form(self, canonical_params):
        q = canonical_params.q
        traj = exact_trajectory(None, canonical_params, -9.0, 14.0, 0.5)
        expected = 0.5 * canonical_params.omega21 * np.tanh(q * traj.t)
        assert np.max(np.abs(_energy(traj) - expected)) < 1e-15


class TestDipoleExpectation:
    # the CSV's dipole column: Px, the dipole projection for a unit d21
    def test_envelope_at_t0(self):
        p = TwoLevelParams(omega21=1.0, gamma11=0.02, gamma22=0.0, gamma12=-0.04, a12=0.2, t0=3.0)
        traj = exact_trajectory(None, p, 1.0, 5.0, 0.5)
        assert traj.t[4] == p.t0 and _dipole(traj)[4] == 1.0

    def test_bounded_by_envelope(self, canonical_params):
        q = canonical_params.q
        traj = exact_trajectory(None, canonical_params, -30.0, 30.0, 0.05)
        assert np.all(np.abs(_dipole(traj)) <= 1.0 / np.cosh(q * traj.t) + 1e-15)

    def test_pure_carrier_when_no_shifts(self):
        # tau = lam = 0 leaves the unshifted carrier omega21 (t - t0) under the envelope
        p = TwoLevelParams(omega21=2.0, a12=0.3, t0=0.5)
        traj = exact_trajectory(None, p, -4.0, 6.0, 0.01)
        dt = traj.t - p.t0
        expected = np.cos(p.omega21 * dt) / np.cosh(p.q * dt)
        assert np.max(np.abs(_dipole(traj) - expected)) < 1e-13

    def test_matches_transverse_component(self, canonical_params):
        lam_zero = TwoLevelParams(omega21=1.0, gamma11=0.02, gamma22=0.0, gamma12=0.01, a12=0.2)
        assert lam_zero.lam == 0.0 and canonical_params.lam != 0.0
        for p in (lam_zero, canonical_params):
            traj = exact_trajectory(None, p, -8.0, 8.0, 0.16)
            expected = [analytic_bloch(t, p).px for t in traj.t.tolist()]
            assert np.max(np.abs(_dipole(traj) - expected)) < 1e-15

    def test_defined_at_q_zero(self):
        # a plain rotation at omega21 - tau - lam Pz0 from (1, 0, 0) at t_start
        p = TwoLevelParams(omega21=1.0, gamma11=0.1, gamma22=0.04, gamma12=0.01)
        traj = exact_trajectory(None, p, -2.0, 8.0, 0.01)
        assert np.max(np.abs(_dipole(traj) - np.cos((p.omega21 - p.tau) * (traj.t + 2.0)))) < 1e-13


class TestFrequencyShift:
    def test_value_at_t0_exact(self, canonical_params):
        assert frequency_shift(canonical_params.t0, canonical_params) == -canonical_params.tau

    def test_asymptotic_limits(self, canonical_params):
        tau, lam = canonical_params.tau, canonical_params.lam
        # Pz -> -1 late and +1 early, so -tau - lam Pz -> -tau + lam and -tau - lam
        assert frequency_shift(1e4, canonical_params) == pytest.approx(-tau + lam, abs=1e-12)
        assert frequency_shift(-1e4, canonical_params) == pytest.approx(-tau - lam, abs=1e-12)

    def test_matches_theta_derivative(self, canonical_params):
        # theta is the phase of Px - i Py less the carrier. A start inside the
        # ball at t = -4 lies on the tanh branch through Pz = 0 at t1, so its
        # rate is the shift of the closed form with t0 = t1.
        h = 1e-5
        rising = TwoLevelParams(omega21=-0.7, gamma11=0.03, gamma22=-0.02, gamma12=0.07, a12=-0.3, t0=1.5)
        inside = (0.3, -0.2, 0.5)
        t1 = -4.0 + math.atanh(inside[2]) / canonical_params.q
        for p, start, at, on_branch in ((canonical_params, (1.0, 0.0, 0.0), 0.0, canonical_params),
                                        (rising, (1.0, 0.0, 0.0), 1.5, rising),
                                        (canonical_params, inside, -4.0, replace(canonical_params, t0=t1))):
            for t in (-6.0, 0.3, 4.4, 11.0):
                x = bloch_flow(np.array([t - h, t + h]), p, start, at)
                theta = np.unwrap(np.angle(x[:, 0] - 1j * x[:, 1]))
                fd = (theta[1] - theta[0]) / (2 * h) - p.omega21
                shift = frequency_shift(t, on_branch)
                assert abs(fd - shift) / max(abs(shift), 1e-12) < 1e-6

    def test_well_defined_at_q_zero(self):
        p = TwoLevelParams(omega21=1.0, gamma11=0.1, gamma22=0.04, gamma12=0.01)
        assert frequency_shift(5.0, p) == -p.tau


class TestAdditionalShift:
    def test_zero_when_current_rates_balance(self, rng):
        p = TwoLevelParams(omega21=1.0, gamma11=0.1, gamma22=0.0, gamma12=-0.1, a12=0.3, b12=0.07, c12=0.07)
        for t in rng.uniform(-20.0, 20.0, size=50):
            assert additional_shift(t, p) == pytest.approx(0.0, abs=1e-15)

    def test_zero_at_t0(self, canonical_params):
        assert additional_shift(canonical_params.t0, canonical_params) == 0.0

    @staticmethod
    def _reference(t, p, initial=None, t_start=None):
        """lam [tanh(x + y) - tanh x] at 60 digits from the float inputs."""
        with mpmath.workdps(60):
            pz0, at = (0, p.t0) if initial is None else (initial[2], t_start)
            dt = mpmath.mpf(t) - mpmath.mpf(at)
            x = mpmath.mpf(p.a12) / 2 * dt - mpmath.atanh(mpmath.mpf(pz0))
            y = (mpmath.mpf(p.c12) - mpmath.mpf(p.b12)) * dt
            lam = (mpmath.mpf(p.gamma11) + mpmath.mpf(p.gamma22)) / 2 - mpmath.mpf(p.gamma12)
            return float(lam * (mpmath.tanh(x + y) - mpmath.tanh(x)))

    def test_tanh_addition_identity(self, rng):
        # the first draws stay in |t| <= 10; the rest start inside the ball
        # and reach |t| = 400, half of them at q ~ 0 (b12 = c12 + a12/2), where
        # the quotient lam tanh y sech^2 x / (1 + tanh x tanh y) cancels
        worst_identity = worst_reference = 0.0
        for draw in range(2000):
            a12, b12, c12 = rng.uniform(-0.5, 0.5, size=3)
            g11, g22, g12 = rng.uniform(-1.0, 1.0, size=3)
            initial = t_start = None
            t = rng.uniform(-10.0, 10.0)
            if draw >= 1000:
                if draw % 2:
                    b12 = c12 + 0.5 * a12 + rng.choice((0.0, rng.normal(scale=1e-9)))
                v = rng.normal(size=3)
                initial = tuple(rng.uniform(0.0, 1.0) * v / np.linalg.norm(v))
                t_start, t = rng.uniform(-400.0, 400.0, size=2)
            p = TwoLevelParams(omega21=1.0, gamma11=g11, gamma22=g22, gamma12=g12,
                               a12=a12, b12=b12, c12=c12, t0=rng.uniform(-5.0, 5.0))
            value = additional_shift(t, p, initial, t_start)
            direct = frequency_shift(t, p, initial, t_start) - frequency_shift(t, p.dipole_only(), initial, t_start)
            worst_identity = max(worst_identity, abs(direct - value))
            worst_reference = max(worst_reference, abs(value - self._reference(t, p, initial, t_start)))
        assert worst_identity < 1e-12
        assert worst_reference < 1e-12

    def test_long_span_at_q_zero(self):
        # q = 0 with a12/2 = b12: the full run stands still at Pz = 0, the
        # dipole-only one decays through t0; additional_shift is lam tanh(-x)
        p = TwoLevelParams(omega21=1.0, gamma11=0.02, gamma12=-0.04, a12=0.25, b12=0.125)
        assert p.q == 0.0
        assert additional_shift(-147.9, p) == pytest.approx(0.05, abs=1e-15)
        times = np.linspace(-150.0, 150.0, 3001)
        expected = [self._reference(t, p) for t in times.tolist()]
        assert np.max(np.abs(additional_shift(times, p) - expected)) < 1e-15

    def test_start_needs_its_time(self, canonical_params):
        for shift in (frequency_shift, additional_shift):
            with pytest.raises(ValueError, match="t_start"):
                shift(0.0, canonical_params, (0.3, -0.2, 0.5))

    def test_fixed_point_start_is_zero(self):
        p = TwoLevelParams(omega21=1.0, gamma11=0.02, gamma12=-0.04, a12=0.2, b12=0.02, c12=0.05)
        times = np.linspace(-20.0, 20.0, 41)
        # a start within the ball's slack is put on the pole
        for pz0, pole in ((1.0, 1.0), (-1.0, -1.0), (1.0 + 1e-7, 1.0)):
            assert np.all(additional_shift(times, p, (0.0, 0.0, pz0), -20.0) == 0.0)
            assert np.all(frequency_shift(times, p, (0.0, 0.0, pz0), -20.0) == -p.tau - p.lam * pole)

    def test_default_start_ignores_t_start(self, rng):
        # every default run has Pz = 0 at t0, q = 0 included
        for p in (TwoLevelParams(omega21=1.0, gamma11=0.02, gamma12=-0.04, a12=0.2, b12=0.02, c12=0.05, t0=1.5),
                  TwoLevelParams(omega21=1.0, gamma11=0.02, gamma12=-0.04, a12=0.25, b12=0.125, t0=1.5)):
            times = rng.uniform(-30.0, 30.0, 50)
            for shift in (frequency_shift, additional_shift):
                assert shift(times, p, None, -7.0).tolist() == shift(times, p).tolist()

    def test_saturated_arguments_stay_finite(self):
        p = TwoLevelParams(omega21=1.0, gamma11=0.2, gamma22=0.0, gamma12=-0.2, a12=0.5, c12=0.2)
        val = additional_shift(1e5, p)
        assert math.isfinite(val)
        direct = frequency_shift(1e5, p) - frequency_shift(1e5, p.dipole_only())
        assert val == pytest.approx(direct, abs=1e-12)

    def test_array_fallback_is_element_by_element(self):
        # tanh(x) tanh(y) = -1 at both ends, 0/0 in the quotient form above
        p = TwoLevelParams(omega21=1.0, gamma11=0.2, gamma12=-0.2, a12=0.5, b12=0.2)
        times = np.concatenate(([-1e5], np.linspace(-20.0, 20.0, 41), [1e5]))
        values = additional_shift(times, p)
        direct = frequency_shift(times, p) - frequency_shift(times, p.dipole_only())
        assert np.all(np.isfinite(values))
        assert np.max(np.abs(values - direct)) < 1e-12
        assert values.tolist() == [additional_shift(t, p) for t in times.tolist()]


class TestShiftArrays:
    @pytest.mark.parametrize("shift", [frequency_shift, additional_shift])
    def test_array_call_equals_scalar_calls(self, shift, rng):
        p = TwoLevelParams(omega21=1.0, gamma11=0.02, gamma12=-0.04, a12=0.2, b12=0.02, c12=0.05, t0=0.7)
        times = rng.uniform(-30.0, 30.0, 101)
        values = shift(times, p)
        assert isinstance(values, np.ndarray) and values.shape == times.shape
        scalars = [shift(t, p) for t in times.tolist()]
        assert all(type(v) is float for v in scalars)
        assert values.tolist() == scalars
