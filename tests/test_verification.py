from dataclasses import replace

import numpy as np
import pytest

from quadbloch import BlochVector, TwoLevelParams, bloch_flow, integrate, integrator, verification
from quadbloch.twolevel import _flow_anchor, _shift
from quadbloch.verification import _closed_form_residual, _shift_phase_mismatch, run_checks

SPAN = (-10.0, 10.0, 2e-3)


def _check(report, name):
    return next(c for c in report.checks if c.name == name)


@pytest.mark.parametrize("case", ["canonical", "q-zero", "custom-start"])
def test_shift_column_matches_trajectory_phase(case, canonical_params):
    p, initial = canonical_params, None
    if case == "q-zero":
        p = TwoLevelParams(omega21=1.0, gamma11=0.1, gamma22=-0.05, gamma12=0.02)
    elif case == "custom-start":
        initial = BlochVector(0.6, 0.0, 0.8)
    report, _ = run_checks(p, *SPAN, initial=initial)
    check = _check(report, "shift_matches_trajectory_phase")
    assert report.passed
    assert not check.skipped and check.passed
    assert check.measured < 1e-8


@pytest.mark.parametrize("case", ["canonical", "rising-custom-start"])
def test_old_shift_sign_fails(case, canonical_params):
    # negative control: the lam term with the opposite sign misses the phase rate
    p, initial = canonical_params, None
    if case == "rising-custom-start":
        p = TwoLevelParams(omega21=-0.7, gamma11=0.03, gamma22=-0.02, gamma12=0.07, a12=-0.3)
        initial = BlochVector(0.3, -0.4, np.sqrt(0.75))
    traj = integrate(initial, p, *SPAN)
    old_sign = -p.tau + p.lam * traj.bloch[:, 2]
    assert _shift_phase_mismatch(traj, _shift(p, traj.bloch[:, 2])) < 1e-6
    assert _shift_phase_mismatch(traj, old_sign) > 0.05


def test_skipped_without_transverse_amplitude(canonical_params):
    report, _ = run_checks(canonical_params, *SPAN, initial=BlochVector(0.0, 0.0, -1.0))
    assert _check(report, "shift_matches_trajectory_phase").skipped
    assert report.passed


@pytest.mark.parametrize("case", ["custom-start", "q-zero", "q-zero-custom-start", "inside-ball"])
def test_every_start_checked_against_exact_flow(case, canonical_params):
    p, initial = canonical_params, None
    if case.startswith("q-zero"):
        p = TwoLevelParams(omega21=1.0, gamma11=0.1, gamma22=-0.05, gamma12=0.02)
    if case.endswith("custom-start"):
        initial = BlochVector(0.3, -0.4, np.sqrt(0.75))
    elif case == "inside-ball":
        initial = BlochVector(0.5, 0.0, 0.0)
    report, _ = run_checks(p, *SPAN, initial=initial)
    assert report.passed
    for name in ("analytic_agreement", "bloch_norm_preservation"):
        check = _check(report, name)
        assert not check.skipped and check.passed and check.measured < 1e-10


def test_coarse_canonical_norm_within_error_estimate(canonical_params):
    # the norm drift of 5.4e-6 at step 0.1 is inside the run's own error estimate
    report, traj = run_checks(canonical_params, -20.0, 20.0, 0.1)
    check = _check(report, "bloch_norm_preservation")
    assert 1e-6 < check.measured < 50.0 * traj.error_estimate
    assert check.passed and report.passed


@pytest.mark.parametrize("start", [None, BlochVector(0.5, 0.0, 0.0)])
def test_perturbed_norm_fails(start, canonical_params, monkeypatch):
    # negative control: a main pass whose |P| is off by 1e-6 fails the norm check
    def perturbed(initial, p, t_start, t_end, step):
        traj = integrate(initial, p, t_start, t_end, step)
        return replace(traj, bloch=traj.bloch * (1.0 + 1e-6))

    monkeypatch.setattr(verification, "integrate", perturbed)
    report, _ = run_checks(canonical_params, *SPAN, initial=start)
    check = _check(report, "bloch_norm_preservation")
    assert not check.passed and check.measured > 1e-7
    assert not report.passed


def test_residual_at_q_zero_follows_the_run_start():
    # flipping the rotation at q = 0 leaves a residual of 2 |Omega| |Px0 - i Py0|,
    # Omega = omega21 - tau - lam Pz0, along the flow from the run's own start
    p = TwoLevelParams(omega21=1.0, gamma11=0.1)
    start = BlochVector(0.3, 0.0, 0.4)
    report, _ = run_checks(p, *SPAN, initial=start, flip_rotation=True)
    check = _check(report, "closed_form_residual")
    expected = 2.0 * abs(p.omega21 - p.tau - p.lam * start.pz) * 0.3
    assert not check.passed and check.measured == pytest.approx(expected, rel=1e-3)
    report, _ = run_checks(p, *SPAN, initial=start)
    assert _check(report, "closed_form_residual").measured < 1e-8 and report.passed


def test_residual_follows_a_custom_start(canonical_params):
    # at q != 0 too, flipping the rotation leaves 2 |Omega(t)| |Px - i Py|(t)
    # along the flow from the run's own start, not along the default closed form
    p, start = canonical_params, BlochVector(0.3, -0.2, 0.5)
    flow = bloch_flow(np.linspace(SPAN[0], SPAN[1], 1001), p, start, SPAN[0])
    omega = p.omega21 - p.tau - p.lam * flow[:, 2]
    expected = float(np.max(2.0 * np.abs(omega) * np.hypot(flow[:, 0], flow[:, 1])))
    report, _ = run_checks(p, *SPAN, initial=start, flip_rotation=True)
    check = _check(report, "closed_form_residual")
    assert not check.passed and check.measured == pytest.approx(expected, rel=1e-3)
    report, _ = run_checks(p, *SPAN, initial=start)
    assert _check(report, "closed_form_residual").measured < 1e-8 and report.passed


def _residual_check(p, t_start, t_end, initial=None, flip=False):
    """(passed, measured, tolerance) of the closed-form residual alone, as
    ``run_checks`` judges it, with no RK4 run."""
    rhs_params = p
    if flip:
        rhs_params = replace(p, omega21=-p.omega21, gamma11=-p.gamma11, gamma22=-p.gamma22,
                             gamma12=-p.gamma12)
    start, at = _flow_anchor(p, t_start, initial)
    measured, bound = _closed_form_residual(p, rhs_params, start, at, t_start, t_end)
    tolerance = max(verification._RESIDUAL_TOL, bound)
    return measured < tolerance, measured, tolerance


@pytest.mark.parametrize("omega21", [200.0, 400.0, 1000.0])
@pytest.mark.parametrize("initial", [None, BlochVector(0.3, -0.2, 0.5)], ids=["default", "custom"])
@pytest.mark.parametrize("span", [(-1.0, 1.0), (-20.0, 20.0)])
def test_residual_passes_fast_flows(omega21, initial, span):
    # the fixed step 1e-6 FAILed these correct flows: 1.34e-6, 1.07e-5 and
    # 1.67e-4 on [-1, 1]; a flipped rotation, off by 2 omega21, still fails
    p = TwoLevelParams(omega21=omega21, a12=0.2)
    passed, measured, tolerance = _residual_check(p, *span, initial)
    assert passed, (measured, tolerance)
    assert tolerance < 1e-5 * omega21
    flipped, measured, tolerance = _residual_check(p, *span, initial, flip=True)
    assert not flipped and measured > 1e4 * tolerance


def test_readme_residual_is_checked_at_1e_6(canonical_params):
    for initial in (None, BlochVector(0.3, -0.2, 0.5)):
        passed, measured, tolerance = _residual_check(canonical_params, -20.0, 20.0, initial)
        assert passed and tolerance == 1e-6 and measured < 1e-8


def _count_rk4_steps(monkeypatch):
    """Step counts of every RK4 pass, in order: ``integrate``'s main and
    half-step passes, then the order check's."""
    steps = []
    original = integrator._rk4_pass

    def counting(initial, p, t_start, h, n_steps):
        steps.append(n_steps)
        return original(initial, p, t_start, h, n_steps)

    monkeypatch.setattr(integrator, "_rk4_pass", counting)
    monkeypatch.setattr(verification, "_rk4_pass", counting)
    return steps


@pytest.mark.parametrize("p, span, total, richardson_total", [
    # order at span/2000: 2,000 and 4,000 steps
    (None, (-10.0, 10.0, 2e-3), 10_000 + 20_000 + 2_000 + 4_000, 44_000),
    # order at the run's own step: 400 and 800 steps
    (None, (-10.0, 10.0, 0.05), 400 + 800 + 400 + 800, 2_800),
    # round(2 span / step) = 2 round(span / step) + 1: the order's half-step pass is 2n + 1
    (None, (-10.0, 10.0, 20.0 / 400.4), 400 + 800 + 400 + 801, 400 + 800 + 801 + 1_602),
    # order at 0.1 / R, just under twice the run's step
    (TwoLevelParams(omega21=1000.0, a12=0.2), (-1.0, 1.0, 5e-5), 40_000 + 80_000 + 40_004 + 20_002,
     40_000 + 80_000 + 20_002 + 40_004 + 80_008),
])
def test_order_passes_within_the_runs_half_step(p, span, total, richardson_total, canonical_params, monkeypatch):
    # no order pass is longer than the run's own half-step pass, which the RK4
    # limit already bounds, and verify runs no more RK4 steps than with the
    # Richardson ratio and its memo of passes
    steps = _count_rk4_steps(monkeypatch)
    report, _ = run_checks(p or canonical_params, *span)
    assert report.passed and not _check(report, "convergence_order").skipped
    n = steps[0]
    assert steps[1] == 2 * n and all(s <= 2 * n + 1 for s in steps[2:])
    assert sum(steps) == total <= richardson_total


@pytest.mark.parametrize("span", [(-10.0, 10.0, 2e-3), (-10.0, 10.0, 0.05), (-10.0, 10.0, 0.03),
                                  (-7.3, 9.1, 0.0137)])
def test_convergence_order_equals_separate_integrations(span, canonical_params):
    # the order is the ratio of the largest deviations of two integrate calls
    # from the exact flow, bit for bit, also where round(2 span / step) is not
    # twice round(span / step)
    report, _ = run_checks(canonical_params, *span)
    t_start, t_end, step = span
    conv_step = max(step, (t_end - t_start) / 2000.0)
    start, at = _flow_anchor(canonical_params, t_start)

    def error(width):
        traj = integrate(None, canonical_params, t_start, t_end, width)
        return np.max(np.abs(traj.bloch - bloch_flow(traj.t, canonical_params, start, at)))

    assert _check(report, "convergence_order").measured == error(conv_step) / error(conv_step / 2.0)


@pytest.mark.parametrize("omega21", [200.0, 400.0, 1000.0])
@pytest.mark.parametrize("initial, span", [(None, (-1.0, 1.0)), (BlochVector(0.3, -0.2, 0.5), (-1.0, 1.0)),
                                           (None, (-20.0, 20.0))], ids=["default", "custom", "long"])
def test_order_passes_fast_flows(omega21, initial, span):
    # started at span/2000 alone, h R reached 1 at omega21 = 1000 on [-1, 1],
    # outside RK4's asymptotic range, and a correct run read 1.26
    p = TwoLevelParams(omega21=omega21, a12=0.2)
    start, at = _flow_anchor(p, span[0], initial)
    check = verification._convergence_order(initial, p, start, at, *span, 1e-5)
    assert not check.skipped and check.passed
    assert 15.9 < check.measured < 16.1


def test_fast_flow_verifies_end_to_end():
    report, _ = run_checks(TwoLevelParams(omega21=1000.0, a12=0.2), -1.0, 1.0, 1e-5)
    assert report.passed and not any(c.skipped for c in report.checks)
    assert 12.0 <= _check(report, "convergence_order").measured <= 20.0


def test_order_skipped_when_no_step_clears_rounding():
    # a rotation of 1e-4 rad per unit time leaves every Richardson estimate at
    # rounding level, where the ratio read 0.094 and failed
    p = TwoLevelParams(omega21=1e-4, gamma11=0.0, gamma22=0.0, gamma12=0.0)
    report, _ = run_checks(p, -10.0, 10.0, 0.01)
    check = _check(report, "convergence_order")
    assert check.skipped and check.tolerance == "at rounding level"
    assert report.passed
