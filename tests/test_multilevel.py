import warnings
from dataclasses import replace

import numpy as np
import pytest

from quadbloch import (
    BlochVector,
    NLevelSystem,
    TwoLevelParams,
    analytic_bloch,
    bloch_to_density,
    frequency_shift,
    frequency_shift_general,
    multilevel_rhs,
)
from quadbloch.constants import SPEED_OF_LIGHT

from oracles import density_rhs_two_level, rk4_density_path


def random_hermitian_density(rng, n):
    m = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    rho = m @ m.conj().T
    return rho / np.trace(rho).real


def random_system(rng, n, drive=None):
    energies = rng.normal(size=n)
    gamma = rng.normal(size=(n, n))
    gamma = 0.5 * (gamma + gamma.T)

    def anti():
        m = rng.normal(size=(n, n))
        return 0.5 * (m - m.T)

    dip = rng.normal(size=(n, n, 3)) + 1j * rng.normal(size=(n, n, 3))
    dip = 0.5 * (dip + np.conj(np.transpose(dip, (1, 0, 2))))
    return NLevelSystem(energies, gamma, anti(), anti(), anti(), dip, drive)


def reference_rhs(rho, system, t=0.0):
    """The earlier multilevel_rhs body: a real shift product and a real
    relaxation product, each spread into an outer difference or sum."""
    rho = np.asarray(rho, dtype=complex)
    pops = np.real(np.diag(rho))
    omega = system.omega_matrix()

    u = system.gamma @ pops
    shift = u[:, None] - u[None, :]

    w = (0.5 * system.a_rates - system.b_rates + system.c_rates) @ pops
    relax = w[:, None] + w[None, :]

    ddt = (-1j * (omega + shift) - relax) * rho

    if system.drive is not None:
        a0 = np.asarray(system.drive(t), dtype=float)
        coupling = (omega[:, :, None] * system.dipoles / SPEED_OF_LIGHT) @ a0
        ddt -= coupling @ rho - rho @ coupling

    return ddt


def two_level_system(p: TwoLevelParams) -> NLevelSystem:
    energies = np.array([-0.5 * p.omega21, 0.5 * p.omega21])
    gamma = np.array([[p.gamma11, p.gamma12], [p.gamma12, p.gamma22]])

    def anti(rate):
        return np.array([[0.0, rate], [-rate, 0.0]])

    return NLevelSystem(energies, gamma, anti(p.a12), anti(p.b12), anti(p.c12),
                        np.zeros((2, 2, 3), dtype=complex))


class TestSystemValidation:
    def test_asymmetric_gamma_rejected(self, rng):
        with pytest.raises(ValueError, match="symmetric"):
            NLevelSystem(np.zeros(2), np.array([[0.0, 1.0], [0.0, 0.0]]),
                         np.zeros((2, 2)), np.zeros((2, 2)), np.zeros((2, 2)),
                         np.zeros((2, 2, 3), dtype=complex))

    def test_symmetric_rates_rejected(self):
        with pytest.raises(ValueError, match="antisymmetric"):
            NLevelSystem(np.zeros(2), np.zeros((2, 2)),
                         np.ones((2, 2)), np.zeros((2, 2)), np.zeros((2, 2)),
                         np.zeros((2, 2, 3), dtype=complex))

    def test_non_hermitian_dipoles_rejected(self):
        dip = np.zeros((2, 2, 3), dtype=complex)
        dip[0, 1, 0] = 1.0
        dip[1, 0, 0] = 2.0
        with pytest.raises(ValueError, match="Hermitian"):
            NLevelSystem(np.zeros(2), np.zeros((2, 2)),
                         np.zeros((2, 2)), np.zeros((2, 2)), np.zeros((2, 2)), dip)


    @pytest.mark.parametrize("bad", [np.inf, np.nan])
    @pytest.mark.parametrize("name", ["energies", "gamma", "a_rates", "b_rates", "c_rates", "dipoles"])
    def test_non_finite_input_rejected(self, bad, name):
        # a diagonal entry: inf - inf there would warn in the symmetry checks,
        # and a nan would fail them with the wrong message
        inputs = {"energies": np.zeros(3), "gamma": np.zeros((3, 3)), "a_rates": np.zeros((3, 3)),
                  "b_rates": np.zeros((3, 3)), "c_rates": np.zeros((3, 3)),
                  "dipoles": np.zeros((3, 3, 3), dtype=complex)}
        inputs[name][(1,) * inputs[name].ndim] = bad
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match=f"^{name} must be finite$"):
                NLevelSystem(**inputs)

    @pytest.mark.parametrize("energies", [1.0, np.zeros((2, 2))])
    def test_energies_not_1d_rejected(self, energies):
        # a scalar raised IndexError and a (2, 2) array a broadcast error
        with pytest.raises(ValueError, match=r"^energies must be 1-D, got shape \("):
            NLevelSystem(energies, np.zeros((2, 2)), np.zeros((2, 2)), np.zeros((2, 2)),
                         np.zeros((2, 2)), np.zeros((2, 2, 3), dtype=complex))


class TestSystemStorage:
    def test_inputs_are_copied(self, rng):
        # float64 and complex128 inputs, which np.asarray would keep, not copy
        drive = lambda t: np.array([0.4, -0.9, 0.25])
        base = random_system(rng, 4)
        names = ("energies", "gamma", "a_rates", "b_rates", "c_rates", "dipoles")
        inputs = {name: getattr(base, name).copy() for name in names}
        sysm = NLevelSystem(**inputs, drive=drive)
        omega = sysm.omega_matrix()
        rho = random_hermitian_density(rng, 4)
        d = multilevel_rhs(rho, sysm, t=0.2)
        inputs["energies"][1] = 5.0
        for arr in inputs.values():
            arr[0, ...] = 7.0
        for name in names:
            assert np.array_equal(getattr(sysm, name), getattr(base, name))
        assert np.array_equal(sysm.omega_matrix(), omega)
        assert np.array_equal(multilevel_rhs(rho, sysm, t=0.2), d)

    @pytest.mark.parametrize("name", ["energies", "gamma", "a_rates", "b_rates", "c_rates", "dipoles",
                                      "_free", "_rates", "_drive_dipoles"])
    def test_stored_arrays_are_read_only(self, rng, name):
        sysm = random_system(rng, 3)
        with pytest.raises(ValueError, match="read-only"):
            getattr(sysm, name)[0, ...] = 1.0

    def test_equality_and_hash_are_identity(self, rng):
        # array fields made == raise "truth value ... is ambiguous" and hash raise TypeError
        a = random_system(rng, 3)
        b = replace(a)
        assert a == a and a != b
        assert hash(a) == hash(a)
        assert {a, b, a} == {a, b}

    def test_drive_coupling_diagonal_is_exactly_zero(self, rng):
        # Omega_aa = E_a - E_a = 0, so multilevel_rhs puts y on V's diagonal with no rounding
        for n in (2, 3, 6, 10):
            base = random_system(rng, n)
            for energies in (base.energies, np.round(base.energies), np.full(n, 0.7),
                             1e12 * base.energies, np.repeat(rng.normal(size=2), [1, n - 1])):
                sysm = replace(base, energies=energies)
                assert np.array_equal(sysm._drive_dipoles[::n + 1], np.zeros((n, 3)))


class TestMultilevelRhs:
    def test_invalid_density_rejected(self, rng):
        sysm = random_system(rng, 3)
        rho = random_hermitian_density(rng, 3)
        with pytest.raises(ValueError, match="Hermitian"):
            multilevel_rhs(rho + 1e-6 * 1j * np.eye(3), sysm)
        with pytest.raises(ValueError, match="trace"):
            multilevel_rhs(rho * 1.001, sysm)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    @pytest.mark.parametrize("entry", [(0, 1), (1, 1)])
    def test_non_finite_density_rejected(self, rng, bad, entry):
        # a Hermitian placement: the coherence and its conjugate, or a population
        sysm = random_system(rng, 3)
        rho = random_hermitian_density(rng, 3)
        i, j = entry
        rho[i, j] = rho[j, i] = bad
        # rejected with no numpy RuntimeWarning on the way
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="Hermitian|trace"):
                multilevel_rhs(rho, sysm)

    def test_trace_overflowing_to_inf_rejected(self, rng):
        # finite and Hermitian, but the trace overflows to inf
        rho = np.diag([1e308, 1e308, -1e308, -1e308]).astype(complex)
        # rejected with no numpy RuntimeWarning on the way
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="trace"):
                multilevel_rhs(rho, random_system(rng, 4))

    def test_free_evolution_exact(self, rng):
        n = 4
        energies = rng.normal(size=n)
        sysm = NLevelSystem(energies, np.zeros((n, n)), np.zeros((n, n)),
                            np.zeros((n, n)), np.zeros((n, n)),
                            np.zeros((n, n, 3), dtype=complex))
        rho = random_hermitian_density(rng, n)
        omega = energies[:, None] - energies[None, :]
        assert np.max(np.abs(multilevel_rhs(rho, sysm) - (-1j) * omega * rho)) == 0.0

    @pytest.mark.parametrize("driven", [False, True])
    def test_matches_reference(self, rng, driven):
        # the generator form in place of the commutator written out: equal to rounding
        drive = (lambda t: np.array([0.4 * np.cos(2.0 * t), 0.1, -0.3 * np.sin(t)])) if driven else None
        for n in (2, 3, 4, 5, 6, 10, 30):
            sysm = random_system(rng, n, drive=drive)
            for t in rng.uniform(-3.0, 3.0, size=10):
                rho = random_hermitian_density(rng, n)
                d = multilevel_rhs(rho, sysm, t=t)
                ref = reference_rhs(rho, sysm, t=t)
                assert np.max(np.abs(d - ref)) <= 1e-14 * np.max(np.abs(ref))

    def test_traceless_derivative(self, rng):
        for n in (2, 3, 4, 5):
            sysm = random_system(rng, n)
            for _ in range(5):
                d = multilevel_rhs(random_hermitian_density(rng, n), sysm)
                assert abs(np.trace(d)) < 1e-12

    def test_traceless_with_drive(self, rng):
        drive = lambda t: np.array([0.4 * np.cos(2.0 * t), 0.1, -0.3 * np.sin(t)])
        sysm = random_system(rng, 3, drive=drive)
        d = multilevel_rhs(random_hermitian_density(rng, 3), sysm, t=0.37)
        assert abs(np.trace(d)) < 1e-12

    def test_hermiticity_preserved(self, rng):
        drive = lambda t: np.array([0.2, -0.5, 0.1 * t])
        for n in (2, 3, 5):
            sysm = random_system(rng, n, drive=drive)
            d = multilevel_rhs(random_hermitian_density(rng, n), sysm, t=1.2)
            assert np.max(np.abs(d - d.conj().T)) < 1e-12

    def test_exactly_hermitian_over_long_driven_integration(self, rng):
        # X + X^H is Hermitian entry for entry, and RK4's coefficients are real
        drive = lambda t: np.array([0.4 * np.cos(2.0 * t), 0.1, -0.3 * np.sin(t)])
        sysm = random_system(rng, 5, drive=drive)
        rho = random_hermitian_density(rng, 5)
        rho = 0.5 * (rho + rho.conj().T)
        assert np.array_equal(rho, rho.conj().T)
        for rho in rk4_density_path(rho, sysm, 1e-3, 20_000):
            pass
        assert np.array_equal(rho, rho.conj().T)

    def test_nearly_hermitian_input_within_stated_bound(self, rng):
        # delta (max|Omega|/2 + max|y| + ||V||) from the Hermitian part, as the module states
        a0 = np.array([0.4, -0.9, 0.25])
        for n in (3, 6, 10):
            sysm = random_system(rng, n, drive=lambda t: a0)
            herm = random_hermitian_density(rng, n)
            skew = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
            skew = skew - skew.conj().T
            np.fill_diagonal(skew, 0.0)
            rho = herm + 0.25e-9 / np.max(np.abs(skew)) * skew
            delta = np.max(np.abs(rho - rho.conj().T))
            assert delta == pytest.approx(0.5e-9, rel=1e-6)
            part = 0.5 * (rho + rho.conj().T)
            pops = np.real(np.diag(rho))
            y = (0.5 * sysm.a_rates - sysm.b_rates + sysm.c_rates + 1j * sysm.gamma) @ pops
            omega = sysm.omega_matrix()
            v = (omega[:, :, None] * sysm.dipoles / SPEED_OF_LIGHT) @ a0
            bound = delta * (0.5 * np.max(np.abs(omega)) + np.max(np.abs(y))
                             + np.max(np.sum(np.abs(v), axis=1)))
            ref = reference_rhs(part, sysm)
            assert np.max(np.abs(multilevel_rhs(rho, sysm) - ref)) <= bound + 1e-14 * np.max(np.abs(ref))

    def test_drive_moves_populations(self):
        # a resonant-ish drive must couple populations through the dipole term
        energies = np.array([-0.5, 0.5])
        dip = np.zeros((2, 2, 3), dtype=complex)
        dip[0, 1, 2] = 1.0
        dip[1, 0, 2] = 1.0
        sysm = NLevelSystem(energies, np.zeros((2, 2)), np.zeros((2, 2)),
                            np.zeros((2, 2)), np.zeros((2, 2)), dip,
                            drive=lambda t: np.array([0.0, 0.0, 100.0]))
        rho = np.array([[0.7, 0.1 + 0.05j], [0.1 - 0.05j, 0.3]], dtype=complex)
        d = multilevel_rhs(rho, sysm, t=0.0)
        assert abs(d[0, 0]) > 0.0

    def test_drive_term_matches_written_out_coupling(self, rng):
        # -[V, rho]/c with V_ab = (E_a - E_b) sum_i D_ab,i A0_i, element by element
        a0 = np.array([0.4, -0.9, 0.25])
        for n in (2, 3, 5):
            free = random_system(rng, n)
            driven = NLevelSystem(free.energies, free.gamma, free.a_rates, free.b_rates,
                                  free.c_rates, free.dipoles, drive=lambda t: a0)
            rho = random_hermitian_density(rng, n)
            term = multilevel_rhs(rho, driven, t=0.3) - multilevel_rhs(rho, free, t=0.3)
            v = np.array([[(free.energies[a] - free.energies[b])
                           * sum(free.dipoles[a, b, i] * a0[i] for i in range(3))
                           for b in range(n)] for a in range(n)])
            expected = -(v @ rho - rho @ v) / SPEED_OF_LIGHT
            assert np.max(np.abs(term - expected)) < 1e-13

    def test_reduces_to_two_level(self, rng):
        p = TwoLevelParams(omega21=1.3, gamma11=0.05, gamma22=-0.02, gamma12=0.01,
                           a12=0.2, b12=0.03, c12=-0.07)
        sysm = two_level_system(p)
        worst = 0.0
        for _ in range(100):
            pz = rng.uniform(-1.0, 1.0)
            px, py = rng.normal(size=2) * 0.3
            rho = bloch_to_density(BlochVector(px, py, pz))
            mat = np.array([[rho.rho11, rho.rho12], [np.conj(rho.rho12), rho.rho22]])
            d_multi = multilevel_rhs(mat, sysm)
            d_two = density_rhs_two_level(rho, p)
            worst = max(worst,
                        abs(d_multi[0, 0] - d_two.rho11),
                        abs(d_multi[1, 1] - d_two.rho22),
                        abs(d_multi[0, 1] - d_two.rho12))
        assert worst < 1e-12

    @pytest.mark.slow
    def test_trace_conserved_over_long_integration(self, rng):
        # RK4 over 1e5 steps; antisymmetric rates make the trace a linear invariant
        sysm = random_system(rng, 3)
        rho = random_hermitian_density(rng, 3)
        worst = max(abs(np.trace(r).real - 1.0) for r in rk4_density_path(rho, sysm, 1e-4, 100_000))
        assert worst < 1e-10

    @pytest.mark.parametrize("n", [3, 4, 6])
    def test_driven_workload_keeps_trace_and_hermiticity(self, rng, n):
        # the nlevel-drive benchmark workload's systems, steps and output check
        def antisymmetric(scale):
            m = rng.normal(0.0, scale, (n, n))
            return m - m.T

        for _ in range(4):
            amplitude, frequency = rng.uniform(0.2, 1.0), rng.uniform(0.1, 1.0)

            def drive(t):
                wt = frequency * t
                return amplitude * np.array([np.cos(wt), 0.5 * np.sin(wt), 0.2])

            gamma = rng.normal(0.0, 0.01, (n, n))
            dip = rng.normal(size=(n, n, 3)) + 1j * rng.normal(size=(n, n, 3))
            sysm = NLevelSystem(np.sort(rng.uniform(-1.0, 0.0, n)), gamma + gamma.T,
                                antisymmetric(1e-3), antisymmetric(1e-4), antisymmetric(1e-4),
                                0.5 * (dip + np.conj(np.transpose(dip, (1, 0, 2)))), drive)
            psi = rng.normal(size=n) + 1j * rng.normal(size=n)
            psi /= np.linalg.norm(psi)
            for rho in rk4_density_path(np.outer(psi, psi.conj()), sysm, 0.05, 250):
                pass
            assert abs(np.trace(rho) - 1.0) <= 1e-10
            assert np.max(np.abs(rho - rho.conj().T)) <= 1e-10


class TestFrequencyShiftGeneral:
    def test_uniform_gamma_gives_zero(self, rng):
        pops = rng.uniform(0.0, 1.0, size=4)
        pops /= pops.sum()
        shifts = frequency_shift_general(pops, 0.7 * np.ones((4, 4)))
        assert np.max(np.abs(shifts)) == 0.0

    def test_diagonal_vanishes_for_symmetric_gamma(self, rng):
        gamma = rng.normal(size=(5, 5))
        gamma = 0.5 * (gamma + gamma.T)
        pops = rng.uniform(0.0, 1.0, size=5)
        pops /= pops.sum()
        shifts = frequency_shift_general(pops, gamma)
        assert np.max(np.abs(np.diag(shifts))) < 1e-15

    def test_two_level_identity(self, rng):
        p = TwoLevelParams(omega21=1.0, gamma11=0.4, gamma22=-0.1, gamma12=0.07)
        gamma = np.array([[p.gamma11, p.gamma12], [p.gamma12, p.gamma22]])
        for _ in range(100):
            pz = rng.uniform(-1.0, 1.0)
            pops = np.array([0.5 * (1.0 + pz), 0.5 * (1.0 - pz)])
            shifts = frequency_shift_general(pops, gamma)
            assert abs(shifts[0, 1] - (-p.tau - p.lam * pz)) < 1e-12

    def test_matches_two_level_shift_along_closed_form(self, rng):
        for _ in range(50):
            g11, g22, g12 = rng.uniform(-1.0, 1.0, size=3)
            a12, b12, c12 = rng.uniform(-0.5, 0.5, size=3)
            p = TwoLevelParams(omega21=rng.uniform(-2.0, 2.0), gamma11=g11, gamma22=g22,
                               gamma12=g12, a12=a12, b12=b12, c12=c12, t0=rng.uniform(-5.0, 5.0))
            if p.q == 0.0:
                continue
            gamma = np.array([[g11, g12], [g12, g22]])
            for t in rng.uniform(-10.0, 10.0, size=20):
                rho = bloch_to_density(analytic_bloch(t, p))
                shifts = frequency_shift_general(np.array([rho.rho11, rho.rho22]), gamma)
                assert abs(frequency_shift(t, p) - shifts[0, 1]) < 1e-12

    def test_population_sum_validated(self):
        with pytest.raises(ValueError, match="sum to 1"):
            frequency_shift_general(np.array([0.6, 0.6]), np.zeros((2, 2)))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_gamma_rejected(self, bad):
        gamma = np.eye(2)
        gamma[0, 1] = gamma[1, 0] = bad
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="^gamma_matrix must be finite$"):
                frequency_shift_general(np.array([0.5, 0.5]), gamma)

    @pytest.mark.parametrize("pops", [[np.nan, 0.5], [1.0, np.nan], [np.inf, 0.0], [np.inf, -np.inf]])
    def test_non_finite_populations_rejected(self, pops):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="sum to 1"):
                frequency_shift_general(np.array(pops), np.eye(2))
