import math
import warnings

import numpy as np
import pytest

from quadbloch import (
    BlochVector,
    DensityMatrix2,
    StepSizeError,
    TwoLevelParams,
    additional_shift,
    analytic_bloch,
    bloch_rhs,
    bloch_to_density,
    exact_trajectory,
    frequency_shift,
    integrate,
)
from quadbloch.cli import _csv_columns
from quadbloch.integrator import _pz_recurrence, time_grid
from quadbloch.verification import run_checks

from oracles import density_rhs_two_level

RISING = TwoLevelParams(omega21=-0.7, gamma11=0.03, gamma22=-0.02, gamma12=0.07, a12=-0.3)
NO_DECAY = TwoLevelParams(omega21=1.0, gamma11=0.1, gamma22=-0.05, gamma12=0.02)
CANONICAL = TwoLevelParams(omega21=1.0, gamma11=0.02, gamma22=0.0, gamma12=-0.04, a12=0.2)

START_CASES = {
    "unit": (CANONICAL, BlochVector(0.6, 0.0, 0.8)),
    "inside": (CANONICAL, BlochVector(0.3, -0.2, 0.5)),
    "north": (CANONICAL, BlochVector(0.0, 0.0, 1.0)),
    "south": (CANONICAL, BlochVector(0.0, 0.0, -1.0)),
    "q-zero": (NO_DECAY, BlochVector(0.6, 0.0, 0.8)),
    "q-negative": (RISING, BlochVector(0.3, -0.4, math.sqrt(0.75))),
    "default": (CANONICAL, None),
}


def _oracle_step(y, h, p):
    """One classical RK4 step of the 3-vector on bloch_rhs, component by component."""
    px, py, pz = y
    half = 0.5 * h
    k1 = bloch_rhs(y, p)
    k2 = bloch_rhs((px + half * k1[0], py + half * k1[1], pz + half * k1[2]), p)
    k3 = bloch_rhs((px + half * k2[0], py + half * k2[1], pz + half * k2[2]), p)
    k4 = bloch_rhs((px + h * k3[0], py + h * k3[1], pz + h * k3[2]), p)
    c = h / 6.0
    return (px + c * (k1[0] + 2.0 * k2[0] + 2.0 * k3[0] + k4[0]),
            py + c * (k1[1] + 2.0 * k2[1] + 2.0 * k3[1] + k4[1]),
            pz + c * (k1[2] + 2.0 * k2[2] + 2.0 * k3[2] + k4[2]))


def _oracle_integrate(initial, p, t_start, t_end, step):
    """The per-step loop over 3-tuples."""
    t, h = time_grid(t_start, t_end, step)
    if initial is None:
        initial = (1.0, 0.0, 0.0) if p.q == 0.0 else analytic_bloch(t_start, p)
    y = tuple(float(v) for v in initial)
    samples = [y]
    for k in range(1, len(t)):
        y = _oracle_step(y, h, p)
        norm = math.sqrt(y[0] * y[0] + y[1] * y[1] + y[2] * y[2])
        if norm > 1.0 + 1e-6:
            raise StepSizeError(
                f"|P| = {norm:.9f} left the unit ball at t = {t_start + k * h:g}; "
                f"step {h:g} is too large for these parameters, retry with a smaller step"
            )
        samples.append(y)
    return np.array(samples)


class TestBasics:
    def test_argument_validation(self, canonical_params):
        with pytest.raises(ValueError):
            integrate(None, canonical_params, 0.0, 1.0, -0.1)
        with pytest.raises(ValueError):
            integrate(None, canonical_params, 1.0, 0.0, 0.1)

    @pytest.mark.parametrize("t_end", [1.0, 1e10])
    def test_oversized_grid_refused(self, t_end):
        # 1e300 and inf steps: named and refused before int() or np.arange
        with pytest.raises(ValueError, match=r"step 1e-300 cuts .* steps; the limit is 1e\+07"):
            time_grid(0.0, t_end, 1e-300)

    def test_fixed_point_is_constant(self, canonical_params):
        traj = integrate(BlochVector(0.0, 0.0, -1.0), canonical_params, 0.0, 50.0, 0.01)
        assert np.all(traj.bloch[:, 2] == -1.0)
        assert np.all(traj.bloch[:, :2] == 0.0)
        energy = _csv_columns(traj)["energy"]
        assert np.all(energy == energy[0])

    def test_north_pole_held_to_machine_precision(self, canonical_params):
        traj = integrate(BlochVector(0.0, 0.0, 1.0), canonical_params, 0.0, 20.0, 0.01)
        assert np.all(traj.bloch[:, 2] == 1.0)

    def test_samples_cover_requested_span(self, canonical_params):
        traj = integrate(None, canonical_params, -3.0, 5.0, 0.1)
        assert traj.t[0] == -3.0
        assert traj.t[-1] == pytest.approx(5.0, abs=1e-12)
        assert len(traj) == 81
        assert np.all(np.diff(traj.t) > 0.0)

    def test_default_initial_matches_closed_form(self, canonical_params):
        start = integrate(None, canonical_params, -7.0, -6.0, 0.5).bloch[0]
        assert tuple(start.tolist()) == analytic_bloch(-7.0, canonical_params)

    def test_default_initial_at_q_zero(self):
        p = TwoLevelParams(omega21=1.0)
        start = integrate(None, p, -5.0, -4.0, 0.5).bloch[0]
        assert tuple(start.tolist()) == (1.0, 0.0, 0.0)
        assert not np.signbit(start).any()


class TestAccuracy:
    def test_matches_closed_form(self):
        # pure-decay parameters separate from the canonical set: omega12 = 1
        p = TwoLevelParams(omega21=-1.0, a12=0.2)
        traj = integrate(None, p, -20.0, 20.0, 1e-3)
        reference = np.array([analytic_bloch(t, p) for t in traj.t])
        assert np.max(np.abs(traj.bloch - reference)) < 1e-8

    def test_norm_drift_small(self, canonical_params):
        traj = integrate(None, canonical_params, -20.0, 20.0, 1e-3)
        norms = np.sqrt(np.sum(traj.bloch**2, axis=1))
        assert np.max(np.abs(norms - 1.0)) < 1e-8

    def test_trace_exact_along_trajectory(self, canonical_params):
        traj = integrate(None, canonical_params, -20.0, 20.0, 1e-2)
        rho11, rho22, _ = bloch_to_density(traj.bloch.T)
        assert np.max(np.abs(rho11 + rho22 - 1.0)) < 1e-12

    def test_monotone_population_decay(self, canonical_params):
        traj = integrate(None, canonical_params, -20.0, 20.0, 1e-2)
        assert np.all(np.diff(traj.bloch[:, 2]) < 0.0)

    def test_q_zero_pure_rotation(self):
        p = TwoLevelParams(omega21=1.0, gamma11=0.1, gamma22=-0.1)
        traj = integrate(None, p, 0.0, 30.0, 1e-3)
        norms = np.sqrt(np.sum(traj.bloch**2, axis=1))
        assert np.max(np.abs(norms - 1.0)) < 1e-10
        assert np.max(np.abs(traj.bloch[:, 2])) < 1e-12

    def test_derived_columns_consistent(self, canonical_params):
        # the CSV's columns, derived from RK4 samples as from exact ones
        traj = integrate(None, canonical_params, -5.0, 5.0, 1e-2)
        cols = _csv_columns(traj)
        rho12 = cols["re_rho12"] + 1j * cols["im_rho12"]
        assert np.allclose(cols["energy"], -0.5 * canonical_params.omega21 * traj.bloch[:, 2], atol=1e-15)
        assert np.allclose(cols["dipole"], traj.bloch[:, 0], atol=0.0)
        assert np.allclose(cols["shift"], -canonical_params.tau - canonical_params.lam * traj.bloch[:, 2], atol=1e-15)
        assert np.allclose(rho12, 0.5 * (traj.bloch[:, 0] - 1j * traj.bloch[:, 1]), atol=0.0)


def _rk4_error(initial, p, step):
    """max |integrate - exact_trajectory| over [-10, 10] at ``step``."""
    traj = integrate(initial, p, -10.0, 10.0, step)
    exact = exact_trajectory(initial, p, -10.0, 10.0, step)
    assert np.array_equal(traj.t, exact.t)
    return np.max(np.abs(traj.bloch - exact.bloch))


class TestRichardson:
    def test_halving_step_reduces_error_16x(self, canonical_params):
        ratio = _rk4_error(None, canonical_params, 0.02) / _rk4_error(None, canonical_params, 0.01)
        assert 12.0 <= ratio <= 20.0


class TestExactFlowCrossCheck:
    @pytest.mark.parametrize("case", list(START_CASES))
    def test_rk4_error_falls_16x_per_halving(self, case):
        # RK4's deviation from the exact flow is fourth order from every
        # start, and nil at the poles, which are fixed points of both
        p, initial = START_CASES[case]
        coarse, fine = _rk4_error(initial, p, 0.02), _rk4_error(initial, p, 0.01)
        if case in ("north", "south"):
            assert coarse == fine == 0.0
        else:
            assert 12.0 <= coarse / fine <= 20.0

    def test_same_observables_as_integrate(self, canonical_params):
        exact = exact_trajectory(BlochVector(0.3, -0.2, 0.5), canonical_params, -5.0, 5.0, 0.01)
        pz = exact.bloch[:, 2]
        cols = _csv_columns(exact)
        assert exact.step == 0.01
        assert np.array_equal(cols["rho11"], 0.5 * (1.0 + pz))
        assert np.array_equal(cols["energy"], -0.5 * canonical_params.omega21 * pz)
        assert np.array_equal(cols["shift"], -canonical_params.tau - canonical_params.lam * pz)
        assert np.array_equal(cols["re_rho12"] + 1j * cols["im_rho12"],
                              0.5 * (exact.bloch[:, 0] - 1j * exact.bloch[:, 1]))

    def test_default_start_at_q_zero(self):
        exact = exact_trajectory(None, NO_DECAY, -5.0, 5.0, 0.5)
        assert tuple(exact.bloch[0]) == (1.0, 0.0, 0.0)
        assert not np.signbit(exact.bloch[0]).any()


class TestAgainstLoopOracle:
    @pytest.mark.parametrize("case", list(START_CASES))
    def test_matches_per_step_loop(self, case):
        p, initial = START_CASES[case]
        traj = integrate(initial, p, -10.0, 10.0, 0.02)
        samples = _oracle_integrate(initial, p, -10.0, 10.0, 0.02)
        assert np.array_equal(traj.bloch[:, 2], samples[:, 2])
        assert np.max(np.abs(traj.bloch[:, :2] - samples[:, :2])) <= 1e-12

    def test_canonical_run_matches_per_step_loop(self):
        traj = integrate(None, CANONICAL, -20.0, 20.0, 1e-3)
        samples = _oracle_integrate(None, CANONICAL, -20.0, 20.0, 1e-3)
        assert len(traj) == 40_001
        assert np.array_equal(traj.bloch[:, 2], samples[:, 2])
        assert np.max(np.abs(traj.bloch[:, :2] - samples[:, :2])) <= 1e-12

    @pytest.mark.parametrize("q, h", [(0.1, 0.02), (-0.15, 1e-3), (3.0, 0.5)])
    def test_pz_loop_is_bloch_rhs_step(self, q, h, rng):
        # one step of the scalar Pz loop against the third component of the
        # 3-vector step, whose rates come from bloch_rhs
        p = TwoLevelParams(omega21=1.3, gamma11=0.02, a12=2.0 * q)
        for pz in np.concatenate(([-1.0, 1.0, 0.0], rng.uniform(-1.0, 1.0, 200))).tolist():
            transverse = rng.uniform(-1.0, 1.0, 2).tolist()
            expected = _oracle_step((*transverse, pz), h, p)[2]
            assert _pz_recurrence(pz, p.q, h, 1) == [pz, expected]


def _pz_loop(pz, q, h, n_steps):
    """The Pz recurrence run step by step, with no shortcut."""
    half, c = 0.5 * h, h / 6.0
    out = [pz]
    for _ in range(n_steps):
        k1 = q * (pz * pz - 1.0)
        k2 = q * ((pz + half * k1) ** 2 - 1.0)
        k3 = q * ((pz + half * k2) ** 2 - 1.0)
        k4 = q * ((pz + h * k3) ** 2 - 1.0)
        pz = pz + c * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        out.append(pz)
        if not abs(pz) <= 1.0 + 1e-6:
            break
    return out


class TestPzFixedPoint:
    @pytest.mark.parametrize("q, pz", [
        (0.0, 0.0), (0.0, -0.0), (-0.0, 0.0), (-0.0, -0.0), (0.0, 0.3), (-0.0, -0.8),
        (0.0, 1.0), (0.0, -1.0), (0.7, 1.0), (0.7, -1.0), (-0.7, 1.0), (-0.7, -1.0),
        (0.0, 1.5),                     # outside the ball: the loop stops after one step
        (0.1, 0.3), (-0.2, -0.6),       # controls that move
    ])
    def test_matches_loop_to_the_bit(self, q, pz):
        got, expected = _pz_recurrence(pz, q, 0.02, 500), _pz_loop(pz, q, 0.02, 500)
        # tobytes tells -0.0 from 0.0, which == does not
        assert np.array(got).tobytes() == np.array(expected).tobytes()


class TestStepAbort:
    def test_oversized_step_aborts_with_diagnostic(self):
        p = TwoLevelParams(omega21=5.0, a12=0.2)
        with pytest.raises(StepSizeError, match="smaller step"):
            integrate(BlochVector(1.0, 0.0, 0.0), p, 0.0, 100.0, 1.0)

    @pytest.mark.parametrize("p", [TwoLevelParams(omega21=5.0, a12=0.2),     # rotation
                                   TwoLevelParams(omega21=0.1, a12=20.0)])   # relaxation
    def test_abort_matches_per_step_loop_without_warnings(self, p):
        with pytest.raises(StepSizeError) as expected:
            _oracle_integrate(BlochVector(0.6, 0.0, -0.8), p, 0.0, 100.0, 1.0)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(StepSizeError) as raised:
                integrate(BlochVector(0.6, 0.0, -0.8), p, 0.0, 100.0, 1.0)
        assert str(raised.value) == str(expected.value)

    @pytest.mark.parametrize("step, t, growth", [(0.01, "-72.54", "22.5"), (0.001, "-72.543", "22.5"),
                                                 (1.0, "-65", "24.0")])
    def test_far_start_blames_the_flow_not_the_step(self, step, t, growth, canonical_params):
        # d(|P|^2 - 1)/dt = 2 q Pz (|P|^2 - 1): from t = -185 the flow grows
        # rounding off the sphere by e^22.5 before it leaves the ball, whatever
        # the step; the step-fault aborts above read 0, -0.16 and -16
        with pytest.raises(StepSizeError) as raised:
            integrate(None, canonical_params, -185.0, 20.0, step)
        assert str(raised.value).endswith(
            f"left the unit ball at t = {t}; the flow multiplied rounding off the unit sphere "
            f"by e^{growth} since t_start, so no step can help: start later")

    def test_overflowing_step_aborts_without_warnings(self):
        # the stage values overflow to inf and nan; the first step still aborts
        p = TwoLevelParams(omega21=1.0, a12=1e120)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(StepSizeError, match="at t = 1;"):
                integrate(BlochVector(1.0, 0.0, 0.0), p, 0.0, 10.0, 1.0)


class TestRepresentationEquivariance:
    def test_density_flow_commutes_with_bloch_flow(self, canonical_params):
        # RK4 on the density matrix vs mapping the Bloch trajectory sample-wise
        p = canonical_params
        h = 1e-3
        traj = integrate(BlochVector(0.6, 0.2, 0.5), p, 0.0, 5.0, h)
        rho11, rho22, rho12 = bloch_to_density(traj.bloch.T)
        rho = bloch_to_density(BlochVector(0.6, 0.2, 0.5))
        r = np.array([rho.rho11, rho.rho22], dtype=float)
        c = rho.rho12

        def rhs(state11, state22, coher):
            d = density_rhs_two_level(DensityMatrix2(state11, state22, coher), p)
            return np.array([d.rho11, d.rho22]), d.rho12

        worst = 0.0
        for k in range(len(traj) - 1):
            k1, c1 = rhs(r[0], r[1], c)
            k2, c2 = rhs(*(r + 0.5 * h * k1), c + 0.5 * h * c1)
            k3, c3 = rhs(*(r + 0.5 * h * k2), c + 0.5 * h * c2)
            k4, c4 = rhs(*(r + h * k3), c + h * c3)
            r = r + (h / 6.0) * (k1 + 2 * k2 + 2 * k3 + k4)
            c = c + (h / 6.0) * (c1 + 2 * c2 + 2 * c3 + c4)
            worst = max(worst,
                        abs(r[0] - rho11[k + 1]),
                        abs(r[1] - rho22[k + 1]),
                        abs(c - rho12[k + 1]))
        assert worst < 1e-10


class TestDensityTraceMillionSteps:
    @pytest.mark.slow
    def test_trace_conserved_over_1e6_steps(self, canonical_params):
        p = canonical_params
        h = 4e-5
        r11, r22, r12 = 0.75, 0.25, 0.2 - 0.1j

        def rhs(a, b, c):
            d = density_rhs_two_level(DensityMatrix2(a, b, c), p)
            return d.rho11, d.rho22, d.rho12

        worst = 0.0
        for _ in range(1_000_000):
            k1 = rhs(r11, r22, r12)
            k2 = rhs(r11 + 0.5 * h * k1[0], r22 + 0.5 * h * k1[1], r12 + 0.5 * h * k1[2])
            k3 = rhs(r11 + 0.5 * h * k2[0], r22 + 0.5 * h * k2[1], r12 + 0.5 * h * k2[2])
            k4 = rhs(r11 + h * k3[0], r22 + h * k3[1], r12 + h * k3[2])
            r11 += (h / 6.0) * (k1[0] + 2.0 * k2[0] + 2.0 * k3[0] + k4[0])
            r22 += (h / 6.0) * (k1[1] + 2.0 * k2[1] + 2.0 * k3[1] + k4[1])
            r12 += (h / 6.0) * (k1[2] + 2.0 * k2[2] + 2.0 * k3[2] + k4[2])
            drift = abs(r11 + r22 - 1.0)
            if drift > worst:
                worst = drift
        assert worst < 1e-10


OUTSIDE_THE_BALL = [(0.0, 0.0, 2.0), (3.0, 0.0, 0.0), (math.nan, 0.0, 0.0), (1e200, 0.0, 0.0)]
BALL_REFUSAL = r"^start \(.+\) has norm \S+, outside the Bloch ball \|P\| <= 1 \+ 1e-06$"


@pytest.mark.parametrize("start", OUTSIDE_THE_BALL, ids=["pz-2", "px-3", "nan", "px-1e200"])
class TestStartOutsideTheBall:
    """Every library entry point that takes a start refuses one outside the
    Bloch ball by name. ``integrate`` and ``run_checks`` raised StepSizeError
    at t_start, blaming the step or an overflow; ``exact_trajectory`` and
    ``frequency_shift`` returned samples of norm 2, 3 or nan; px = 1e200
    raised OverflowError where the norm was squared."""

    def test_integrate(self, start):
        with pytest.raises(ValueError, match=BALL_REFUSAL):
            integrate(start, CANONICAL, -1.0, 1.0, 0.1)

    def test_exact_trajectory(self, start):
        with pytest.raises(ValueError, match=BALL_REFUSAL):
            exact_trajectory(start, CANONICAL, -1.0, 1.0, 0.1)

    def test_run_checks(self, start):
        with pytest.raises(ValueError, match=BALL_REFUSAL):
            run_checks(CANONICAL, -1.0, 1.0, 0.1, initial=start)

    def test_frequency_shift(self, start):
        with pytest.raises(ValueError, match=BALL_REFUSAL):
            frequency_shift(0.5, CANONICAL, initial=start, t_start=-1.0)

    def test_additional_shift(self, start):
        with pytest.raises(ValueError, match=BALL_REFUSAL):
            additional_shift(0.5, CANONICAL, initial=start, t_start=-1.0)


@pytest.mark.parametrize("start", [(0.0, 0.0, 1.0000005), (0.6, 0.0, -0.8000008)])
def test_start_within_the_slack_enters_integrate_on_the_sphere(start):
    # the ball rule allows norms up to 1 + 1e-6 and divides them onto the sphere, for RK4 and the flow alike
    assert 1.0 < math.hypot(*start) <= 1.0 + 1e-6
    first = tuple(integrate(start, CANONICAL, -1.0, 1.0, 0.1).bloch[0])
    assert first == tuple(exact_trajectory(start, CANONICAL, -1.0, 1.0, 0.1).bloch[0])
    assert first == tuple(v / BlochVector(*start).norm() for v in start)
    assert math.hypot(*first) == pytest.approx(1.0, abs=2e-16)
