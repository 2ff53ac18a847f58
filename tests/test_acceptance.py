"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines. Tolerances are fixed here and nowhere else.
"""

import math
import time

import numpy as np
import pytest
from scipy.integrate import quad

from quadbloch import (
    BlochVector,
    BoundState,
    NLevelSystem,
    TwoLevelParams,
    analytic_bloch,
    bloch_rhs,
    bloch_to_density,
    frequency_shift,
    additional_shift,
    exact_trajectory,
    integrate,
    multilevel_rhs,
    transition_multipoles,
)
from quadbloch.cli import main
from quadbloch.constants import ATOMIC_TIME_S

from oracles import density_rhs_two_level
from test_multipole import oracle_radial
from test_multilevel import random_hermitian_density, random_system, two_level_system


def report(number: int, description: str, ok: bool, detail: str):
    print(f"[{'PASS' if ok else 'FAIL'}] criterion {number}: {description} ({detail})")
    assert ok, f"criterion {number} failed: {description} ({detail})"


def test_criterion_1_hydrogenic_oracle_values():
    start = time.perf_counter()
    oracle_d = quad(lambda r: oracle_radial(1, 0, r) * oracle_radial(2, 1, r) * r**3,
                    0, np.inf)[0] / math.sqrt(3.0)
    d = transition_multipoles(BoundState(1, 0, 0), BoundState(2, 1, 0)).dipole
    rel_d = abs(d[2].real - oracle_d) / abs(oracle_d)

    rates = transition_multipoles(BoundState(2, 1, 0), BoundState(1, 0, 0)).rates()
    a_si = rates.a_rate / ATOMIC_TIME_S
    oracle_a = (4.0 / 3.0) * 0.375**3 / 137.035999**3 * oracle_d**2 / ATOMIC_TIME_S
    rel_a = abs(a_si - oracle_a) / oracle_a
    elapsed = time.perf_counter() - start

    ok = rel_d < 1e-8 and rel_a < 1e-3 and abs(a_si - 6.27e8) / 6.27e8 < 2e-3 and elapsed < 5.0
    report(1, "dipole and Einstein-A against quadrature oracle", ok,
           f"dipole rel {rel_d:.2e}, A = {a_si:.4e} 1/s rel {rel_a:.2e}, {elapsed:.2f} s")


def test_criterion_2_selection_rules():
    start = time.perf_counter()
    d_2s = np.max(np.abs(transition_multipoles(BoundState(1, 0, 0), BoundState(2, 0, 0)).dipole))
    d_3d = np.max(np.abs(transition_multipoles(BoundState(1, 0, 0), BoundState(3, 2, 0)).dipole))
    q_2p = np.max(np.abs(transition_multipoles(BoundState(1, 0, 0), BoundState(2, 1, 0)).quadrupole))
    elapsed = time.perf_counter() - start
    ok = d_2s < 1e-10 and d_3d < 1e-10 and q_2p < 1e-10 and elapsed < 5.0
    report(2, "dipole/quadrupole selection rules", ok,
           f"|D(1s,2s)| {d_2s:.1e}, |D(1s,3d0)| {d_3d:.1e}, |Q(1s,2p0)| {q_2p:.1e}, {elapsed:.2f} s")


def test_criterion_3_closed_form_residual():
    start = time.perf_counter()
    rng = np.random.default_rng(42)
    h = 1e-6
    worst = 0.0
    for _ in range(20):
        q = rng.uniform(0.01, 1.0) * rng.choice([-1.0, 1.0])
        omega, tau, lam = (rng.uniform(0.0, 10.0) * rng.choice([-1.0, 1.0]) for _ in range(3))
        p = TwoLevelParams(omega21=omega, gamma11=tau, gamma22=-tau, gamma12=-lam, a12=2.0 * q)
        for t in np.linspace(p.t0 - 8.0 / abs(q), p.t0 + 8.0 / abs(q), 1000):
            rhs = np.array(bloch_rhs(analytic_bloch(t, p), p))
            fd = (np.array(analytic_bloch(t + h, p)) - np.array(analytic_bloch(t - h, p))) / (2.0 * h)
            worst = max(worst, float(np.max(np.abs(rhs - fd))))
    elapsed = time.perf_counter() - start
    ok = worst < 1e-6 and elapsed < 10.0
    report(3, "closed-form residual over 10^3 grid times x 20 parameter sets", ok,
           f"max residual {worst:.2e}, {elapsed:.2f} s")


def test_criterion_4_analytic_numeric_agreement(canonical_params):
    start = time.perf_counter()
    p = canonical_params
    traj = integrate(None, p, p.t0 - 20.0, p.t0 + 20.0, 1e-3)
    reference = np.array([analytic_bloch(t, p) for t in traj.t])
    deviation = float(np.max(np.abs(traj.bloch - reference)))
    norm_drift = float(np.max(np.abs(np.sqrt(np.sum(traj.bloch**2, axis=1)) - 1.0)))
    rho11, rho22, _ = bloch_to_density(traj.bloch.T)
    trace_drift = float(np.max(np.abs(rho11 + rho22 - 1.0)))
    elapsed = time.perf_counter() - start
    ok = deviation < 1e-8 and norm_drift < 1e-8 and trace_drift < 1e-10 and elapsed < 30.0
    report(4, "numeric trajectory matches closed form at step 1e-3", ok,
           f"deviation {deviation:.2e}, norm drift {norm_drift:.2e}, trace drift {trace_drift:.2e}, {elapsed:.2f} s")


def test_criterion_5_integrator_order(canonical_params):
    start = time.perf_counter()
    p = canonical_params

    def error(step):
        traj = integrate(None, p, p.t0 - 10.0, p.t0 + 10.0, step)
        return np.max(np.abs(traj.bloch - exact_trajectory(None, p, p.t0 - 10.0, p.t0 + 10.0, step).bloch))

    ratio = error(0.02) / error(0.01)
    elapsed = time.perf_counter() - start
    ok = 12.0 <= ratio <= 20.0 and elapsed < 30.0
    report(5, "halving the step divides RK4's deviation from the exact flow by ~16", ok,
           f"ratio {ratio:.3f}, {elapsed:.2f} s")


def test_criterion_6_shift_identity():
    start = time.perf_counter()
    rng = np.random.default_rng(7)
    worst = 0.0
    for _ in range(10_000):
        a12, b12, c12 = rng.uniform(-0.5, 0.5, size=3)
        g11, g22, g12 = rng.uniform(-1.0, 1.0, size=3)
        p = TwoLevelParams(omega21=1.0, gamma11=g11, gamma22=g22, gamma12=g12,
                           a12=a12, b12=b12, c12=c12, t0=rng.uniform(-5.0, 5.0))
        t = rng.uniform(-10.0, 10.0)
        residual = frequency_shift(t, p) - frequency_shift(t, p.dipole_only()) - additional_shift(t, p)
        worst = max(worst, abs(residual))
    elapsed = time.perf_counter() - start
    ok = worst < 1e-12 and elapsed < 5.0
    report(6, "shift decomposition identity over 10^4 random draws", ok,
           f"max residual {worst:.2e}, {elapsed:.2f} s")


def test_criterion_7_asymptotic_shifts(canonical_params):
    p = canonical_params
    q, tau, lam = p.q, p.tau, p.lam
    at_t0 = frequency_shift(p.t0, p)
    late = frequency_shift(p.t0 + 20.0 / q, p)
    early = frequency_shift(p.t0 - 20.0 / q, p)
    ok = (at_t0 == -tau
          and abs(late - (-tau + lam)) < 1e-6
          and abs(early - (-tau - lam)) < 1e-6)
    report(7, "frequency shift limits -tau +/- lam (late/early) and exact value at t0", ok,
           f"t0 {at_t0:.6g}, late err {abs(late + tau - lam):.1e}, early err {abs(early + tau + lam):.1e}")


def test_criterion_8_reduction_consistency():
    rng = np.random.default_rng(123)
    p = TwoLevelParams(omega21=1.1, gamma11=0.03, gamma22=-0.01, gamma12=0.02,
                       a12=0.25, b12=0.04, c12=-0.05)
    system = two_level_system(p)
    worst = 0.0
    for _ in range(100):
        pz = rng.uniform(-1.0, 1.0)
        px, py = rng.normal(size=2) * 0.3
        rho = bloch_to_density(BlochVector(px, py, pz))
        mat = np.array([[rho.rho11, rho.rho12], [np.conj(rho.rho12), rho.rho22]])
        d_multi = multilevel_rhs(mat, system)
        d_two = density_rhs_two_level(rho, p)
        worst = max(worst,
                    abs(d_multi[0, 0] - d_two.rho11),
                    abs(d_multi[1, 1] - d_two.rho22),
                    abs(d_multi[0, 1] - d_two.rho12))

    worst_trace = 0.0
    for n in (2, 3, 4, 5):
        system_n = random_system(rng, n)
        for _ in range(5):
            d = multilevel_rhs(random_hermitian_density(rng, n), system_n)
            worst_trace = max(worst_trace, abs(np.trace(d)))
    ok = worst < 1e-12 and worst_trace < 1e-12
    report(8, "N-level equations reduce to the two-level pair and conserve trace", ok,
           f"reduction {worst:.2e}, trace {worst_trace:.2e}")


def test_criterion_9_end_to_end_determinism(tmp_path):
    base = ("omega21 = 1.0\na12 = 0.2\ngamma11 = 0.02\n"
            "gamma22 = 0.0\ngamma12 = -0.04\nt_start = -5\nt_end = 5\nstep = 0.001\n")
    out_a = tmp_path / "a.csv"
    out_b = tmp_path / "b.csv"
    cfg_a = tmp_path / "a.cfg"
    cfg_b = tmp_path / "b.cfg"
    cfg_a.write_text(base + f"output = {out_a}\n")
    cfg_b.write_text(base + f"output = {out_b}\n")
    assert main(["simulate", "--config", str(cfg_a)]) == 0
    assert main(["simulate", "--config", str(cfg_b)]) == 0
    identical = out_a.read_bytes() == out_b.read_bytes()
    report(9, "two simulate runs of the same config are byte-identical", identical,
           f"{out_a.stat().st_size} bytes compared")
