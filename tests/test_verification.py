from dataclasses import replace

import numpy as np
import pytest

from quadbloch import BlochVector, TwoLevelParams, integrate, integrator, verification
from quadbloch.integrator import _integrate
from quadbloch.verification import _shift_phase_mismatch, run_checks

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
    assert _shift_phase_mismatch(traj, traj.shift) < 1e-6
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
    def perturbed(initial, p, t_start, t_end, step, passes):
        traj = _integrate(initial, p, t_start, t_end, step, passes)
        return replace(traj, bloch=traj.bloch * (1.0 + 1e-6))

    monkeypatch.setattr(verification, "_integrate", perturbed)
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


def _count_rk4_steps(monkeypatch):
    steps = []
    original = integrator._rk4_pass

    def counting(start, p, t_start, h, n_steps):
        steps.append(n_steps)
        return original(start, p, t_start, h, n_steps)

    monkeypatch.setattr(integrator, "_rk4_pass", counting)
    return steps


@pytest.mark.parametrize("step,expected", [
    (2e-3, 10_000 + 20_000 + 2_000 + 4_000 + 8_000),     # order checked at span/2000
    (0.05, 400 + 800 + 1_600),                          # order checked at the run's own step
])
def test_each_rk4_pass_runs_once(step, expected, canonical_params, monkeypatch):
    steps = _count_rk4_steps(monkeypatch)
    report, _ = run_checks(canonical_params, -10.0, 10.0, step)
    assert report.passed
    assert sum(steps) == expected
    assert len(steps) == len(set(steps))


@pytest.mark.parametrize("span", [(-10.0, 10.0, 2e-3), (-10.0, 10.0, 0.05), (-10.0, 10.0, 0.03),
                                  (-7.3, 9.1, 0.0137)])
def test_convergence_order_equals_separate_integrations(span, canonical_params):
    # shared passes give the ratio of two independent integrate calls bit for bit,
    # also where round(2 span / step) is not twice round(span / step)
    report, _ = run_checks(canonical_params, *span)
    t_start, t_end, step = span
    conv_step = max(step, (t_end - t_start) / 2000.0)
    coarse = integrate(None, canonical_params, t_start, t_end, conv_step)
    half = integrate(None, canonical_params, t_start, t_end, conv_step / 2.0)
    assert _check(report, "convergence_order").measured == coarse.error_estimate / half.error_estimate
