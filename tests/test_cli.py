import io
import math
import tracemalloc
import warnings

import numpy as np
import pytest

from quadbloch import TwoLevelParams, analytic_bloch, constants
from quadbloch.cli import _CSV_ROWS_PER_WRITE, _write_csv_rows, main

CANONICAL_DYNAMICS = """
omega21 = 1.0
a12 = 0.2
gamma11 = 0.02
gamma22 = 0.0
gamma12 = -0.04
t_start = -20
t_end = 20
step = 0.01
"""


# README's pair.cfg, and the highest-l pair whose radial factors stay finite
README_PAIR_TABLE = """\
# pair: 2p -> 1s   units: atomic
omega            3.75000000000e-01
D_x              3.85339538329e-18
D_y              1.01379088741e-17
D_z              7.44935539028e-01
Q_xx             4.36091231658e-18
Q_xy             2.86323558201e-33
Q_xz             -2.11951918285e-17
Q_yy             4.36091231658e-18
Q_yz             3.19255806102e-17
Q_zz             -8.72182463317e-18
Delta_x          0.00000000000e+00
Delta_y          0.00000000000e+00
Delta_z          0.00000000000e+00
delta_xx         0.00000000000e+00
delta_xy         0.00000000000e+00
delta_xz         0.00000000000e+00
delta_yx         0.00000000000e+00
delta_yy         0.00000000000e+00
delta_yz         0.00000000000e+00
delta_zx         0.00000000000e+00
delta_zy         0.00000000000e+00
delta_zz         0.00000000000e+00
A                1.51623290378e-08
B                0.00000000000e+00
C                0.00000000000e+00
Gamma(k_max=1)   1.76367860592e-06
"""
HIGH_L_PAIR_TABLE = """\
# pair: 77,76,0 -> 76,75,0   units: atomic
omega            2.23384379049e-06
D_x              3.89220429196e-14
D_y              7.21284120132e-14
D_z              2.90690761430e+03
Q_xx             9.95233268865e-10
Q_xy             1.50132788452e-12
Q_xz             2.64016005546e-10
Q_yy             6.94952923797e-10
Q_yz             -1.00705424362e-09
Q_zz             -1.69018619266e-09
Delta_x          0.00000000000e+00
Delta_y          0.00000000000e+00
Delta_z          0.00000000000e+00
delta_xx         0.00000000000e+00
delta_xy         0.00000000000e+00
delta_xz         0.00000000000e+00
delta_yx         0.00000000000e+00
delta_yy         0.00000000000e+00
delta_yz         0.00000000000e+00
delta_zx         0.00000000000e+00
delta_zy         0.00000000000e+00
delta_zz         0.00000000000e+00
A                4.88040188061e-17
B                0.00000000000e+00
C                0.00000000000e+00
Gamma(k_max=1)   9.52988331318e-10
"""


def write(path, text):
    path.write_text(text)
    return str(path)


def load_csv(path):
    rows = []
    with open(path) as fh:
        for line in fh:
            if line.startswith("#") or line.startswith("t,"):
                continue
            rows.append([float(x) for x in line.rstrip("\n").split(",")])
    return np.array(rows)


class TestCoeffs:
    def test_lyman_alpha_table(self, tmp_path, capsys):
        cfg = write(tmp_path / "pair.cfg", "mode = coeffs\nstate_a = 2p0\nstate_b = 1s\nk_max = 1.0\n")
        assert main(["coeffs", "--config", cfg]) == 0
        out = capsys.readouterr().out
        values = {}
        for line in out.splitlines():
            if line.startswith("#"):
                continue
            name, value = line.split(None, 1)
            values[name] = value.strip()
        assert float(values["omega"]) == pytest.approx(0.375, rel=1e-12)
        assert float(values["D_z"]) == pytest.approx(128.0 * math.sqrt(2.0) / 243.0, rel=1e-8)
        assert float(values["C"]) == 0.0
        assert float(values["Delta_z"]) == 0.0
        assert float(values["Gamma(k_max=1)"]) > 0.0
        # 12 significant digits: mantissa with 11 decimals
        assert "e" in values["D_z"] and len(values["D_z"].split("e")[0].lstrip("-").replace(".", "")) == 12

    def test_parity_forbidden_pair(self, tmp_path, capsys):
        cfg = write(tmp_path / "pair.cfg", "mode = coeffs\nstate_a = 1s\nstate_b = 2s\n")
        assert main(["coeffs", "--config", cfg]) == 0
        out = capsys.readouterr().out
        for line in out.splitlines():
            if line.startswith(("D_", "A")):
                assert abs(float(line.split()[1])) < 1e-10

    def test_quadrupole_pair(self, tmp_path, capsys):
        cfg = write(tmp_path / "pair.cfg", "mode = coeffs\nstate_a = 3d0\nstate_b = 1s\n")
        assert main(["coeffs", "--config", cfg]) == 0
        out = capsys.readouterr().out
        values = {line.split()[0]: float(line.split()[1]) for line in out.splitlines() if not line.startswith("#")}
        assert abs(values["D_z"]) < 1e-10
        assert abs(values["Q_zz"]) > 0.1

    def test_si_keeps_imaginary_dipole(self, tmp_path, capsys):
        def coeffs(units):
            cfg = write(tmp_path / f"{units}.cfg", f"mode = coeffs\nstate_a = 2p+1\nstate_b = 1s\nunits = {units}\n")
            assert main(["coeffs", "--config", cfg]) == 0
            out = capsys.readouterr().out
            return {line.split()[0]: complex(line.split()[1]) for line in out.splitlines() if not line.startswith("#")}

        atomic, si = coeffs("atomic"), coeffs("si")
        assert atomic["D_y"].imag == pytest.approx(-128.0 / 243.0, rel=1e-10)
        assert si["D_y"].imag != 0.0
        assert si["D_y"].imag == pytest.approx(atomic["D_y"].imag * constants.DIPOLE_CM, rel=1e-11)

    def test_pair_evaluated_once(self, tmp_path, capsys, monkeypatch):
        from quadbloch import multipole

        calls = []
        for name in ("eigenstate_factors", "eigenstate_eval"):
            def counting(*args, _name=name, _original=getattr(multipole, name)):
                calls.append(_name)
                return _original(*args)

            monkeypatch.setattr(multipole, name, counting)
        cfg = write(tmp_path / "pair.cfg", "mode = coeffs\nstate_a = 3d+1\nstate_b = 1s\nk_max = 2.0\n")
        assert main(["coeffs", "--config", cfg]) == 0
        # each state once on the grid factors, never pointwise on the product grid
        assert calls == ["eigenstate_factors"] * 2


    @pytest.mark.parametrize("state_a, state_b, expected", [("2p0", "1s", README_PAIR_TABLE),
                                                            ("77,76,0", "76,75,0", HIGH_L_PAIR_TABLE)])
    def test_table_bytes(self, tmp_path, capsys, state_a, state_b, expected):
        cfg = write(tmp_path / "pair.cfg", f"mode = coeffs\nstate_a = {state_a}\nstate_b = {state_b}\nk_max = 1.0\n")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["coeffs", "--config", cfg]) == 0
        assert capsys.readouterr().out == expected

    @pytest.mark.parametrize("state_a, state_b, refused, cause", [
        ("78,77,0", "77,76,0", "78,77,0", "r^77 overflows a float on its grid"),
        ("85,84,0", "84,83,0", "84,83,0", "r^83 overflows a float on its grid"),
        ("86,84,0", "1s", "86,84,0", "(n + l)! = 170! overflows a float"),
    ])
    def test_state_past_float_range_is_refused(self, tmp_path, capsys, state_a, state_b, refused, cause):
        # these printed nan on every moment and rate line with exit 0, or
        # "int too large to convert to float" without naming the state
        cfg = write(tmp_path / "pair.cfg", f"mode = coeffs\nstate_a = {state_a}\nstate_b = {state_b}\n")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["coeffs", "--config", cfg]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"error: state {refused}: ") and cause in captured.err


class TestSimulate:
    def test_fixed_point_start(self, tmp_path):
        out = tmp_path / "fp.csv"
        cfg = write(tmp_path / "run.cfg",
                    f"mode = simulate\noutput = {out}\npx0 = 0\npy0 = 0\npz0 = -1\n" + CANONICAL_DYNAMICS)
        assert main(["simulate", "--config", cfg]) == 0
        rows = load_csv(out)
        assert np.all(rows[:, 3] == -1.0)                      # Pz column
        assert np.all(rows[:, 8] == rows[0, 8])                # energy constant

    def test_trace_and_roundtrip_every_row(self, tmp_path):
        out = tmp_path / "run.csv"
        cfg = write(tmp_path / "run.cfg", f"mode = simulate\noutput = {out}\n" + CANONICAL_DYNAMICS)
        assert main(["simulate", "--config", cfg]) == 0
        rows = load_csv(out)
        t, px, py, pz, r11, r22, re12, im12 = (rows[:, i] for i in range(8))
        assert np.max(np.abs(r11 + r22 - 1.0)) < 1e-12
        # Pauli map holds in every row
        assert np.max(np.abs(r11 - 0.5 * (1.0 + pz))) < 1e-12
        assert np.max(np.abs(re12 - 0.5 * px)) < 1e-12
        assert np.max(np.abs(im12 + 0.5 * py)) < 1e-12

    def test_decay_reaches_ground_state(self, tmp_path):
        # run to t0 + 10/q with q = 0.1
        out = tmp_path / "run.csv"
        cfg = write(tmp_path / "run.cfg",
                    f"mode = simulate\noutput = {out}\nomega21 = 1.0\na12 = 0.2\n"
                    "t_start = 0\nt_end = 100\nstep = 0.01\n")
        assert main(["simulate", "--config", cfg]) == 0
        rows = load_csv(out)
        assert abs(rows[-1, 3] + 1.0) < 1e-4

    def test_header_and_metadata(self, tmp_path):
        for start, expected in (("", ["# start = 1, 0, 0", "# start_time = 0"]),
                                ("px0 = 0.3\npy0 = -0.2\npz0 = 0.5\n",
                                 [f"# start = {0.3:.17g}, {-0.2:.17g}, 0.5", "# start_time = -20"])):
            out = tmp_path / "run.csv"
            cfg = write(tmp_path / "run.cfg", f"mode = simulate\noutput = {out}\n" + start + CANONICAL_DYNAMICS)
            main(["simulate", "--config", cfg])
            text = out.read_text()
            lines = text.splitlines()
            assert lines[0] == "# quadbloch simulate"
            header_idx = next(i for i, l in enumerate(lines) if not l.startswith("#"))
            assert lines[header_idx] == "t,Px,Py,Pz,rho11,rho22,re_rho12,im_rho12,energy,dipole,shift"
            assert "# method = exact_flow" in lines[:header_idx]
            assert not any(l.startswith("# richardson_error") for l in lines[:header_idx])
            assert [l for l in lines[:header_idx] if l.startswith("# start")] == expected
            assert "\r" not in text

    def test_byte_identical_reruns(self, tmp_path):
        out_a = tmp_path / "a.csv"
        out_b = tmp_path / "b.csv"
        base = "mode = simulate\n" + CANONICAL_DYNAMICS
        cfg_a = write(tmp_path / "a.cfg", base + f"output = {out_a}\n")
        cfg_b = write(tmp_path / "b.cfg", base + f"output = {out_b}\n")
        assert main(["simulate", "--config", cfg_a]) == 0
        assert main(["simulate", "--config", cfg_b]) == 0
        assert out_a.read_bytes() == out_b.read_bytes()

    def test_si_units_are_scaled_atomic_outputs(self, tmp_path):
        out_at = tmp_path / "at.csv"
        out_si = tmp_path / "si.csv"
        base = "mode = simulate\n" + CANONICAL_DYNAMICS
        cfg = write(tmp_path / "at.cfg", base + f"output = {out_at}\n")
        main(["simulate", "--config", cfg])
        cfg_si = write(tmp_path / "si.cfg", base + f"output = {out_si}\nunits = si\n")
        main(["simulate", "--config", cfg_si])
        at = load_csv(out_at)
        si = load_csv(out_si)
        conv = np.array([constants.ATOMIC_TIME_S, 1, 1, 1, 1, 1, 1, 1,
                         constants.HARTREE_J, constants.DIPOLE_CM, constants.PER_ATOMIC_TIME_S])
        expected = at * conv
        scale = np.maximum(np.abs(expected), 1e-300)
        assert np.max(np.abs(si - expected) / scale) < 1e-12

    def test_unwritable_output_fails_cleanly(self, tmp_path, capsys):
        cfg = write(tmp_path / "run.cfg",
                    f"mode = simulate\noutput = {tmp_path}/nodir/x.csv\n" + CANONICAL_DYNAMICS)
        assert main(["simulate", "--config", cfg]) == 1
        assert "error:" in capsys.readouterr().err

    def test_integrator_abort_propagates(self, tmp_path, capsys):
        # verify is the command that still runs RK4; simulate writes exact samples
        cfg = write(tmp_path / "run.cfg",
                    "mode = verify\nomega21 = 5.0\na12 = 0.2\n"
                    "px0 = 1\npy0 = 0\npz0 = 0\nt_start = 0\nt_end = 100\nstep = 1.0\n")
        assert main(["verify", "--config", cfg]) == 1
        assert "smaller step" in capsys.readouterr().err

    def test_overflowing_state_is_not_blamed_on_the_step(self, tmp_path, capsys):
        # README's rates with gamma12 = 1e307: the norm is nan, and no step can help
        cfg = write(tmp_path / "run.cfg",
                    "mode = verify\nomega21 = 1.0\na12 = 0.2\ngamma11 = 0.02\ngamma12 = 1e307\n"
                    "t_start = -20\nt_end = 20\nstep = 0.02\n")
        assert main(["verify", "--config", cfg]) == 1
        err = capsys.readouterr().err
        assert err == "error: |P| = nan at t = -19.98; the state overflowed at these rates\n"

    def test_coarse_step_is_sample_spacing_only(self, tmp_path):
        # the step that aborts RK4 above only spaces the exact samples here
        out = tmp_path / "x.csv"
        cfg = write(tmp_path / "run.cfg",
                    f"mode = simulate\noutput = {out}\nomega21 = 5.0\na12 = 0.2\n"
                    "px0 = 1\npy0 = 0\npz0 = 0\nt_start = 0\nt_end = 100\nstep = 1.0\n")
        assert main(["simulate", "--config", cfg]) == 0
        rows = load_csv(out)
        p = TwoLevelParams(omega21=5.0, a12=0.2)
        exact = np.array([analytic_bloch(t, p) for t in rows[:, 0]])
        assert len(rows) == 101
        assert np.max(np.abs(rows[:, 1:4] - exact)) < 1e-14

    def test_default_start_is_closed_form(self, tmp_path):
        out = tmp_path / "run.csv"
        cfg = write(tmp_path / "run.cfg", f"mode = simulate\noutput = {out}\n" + CANONICAL_DYNAMICS)
        assert main(["simulate", "--config", cfg]) == 0
        rows = load_csv(out)
        p = TwoLevelParams(omega21=1.0, gamma11=0.02, gamma12=-0.04, a12=0.2)
        exact = np.array([analytic_bloch(t, p) for t in rows[:, 0]])
        assert np.max(np.abs(rows[:, 1:4] - exact)) < 1e-14

    def test_state_pair_drives_dynamics(self, tmp_path):
        # level pair supplies omega21 and the relaxation rates; gammas stay explicit
        out = tmp_path / "pair.csv"
        cfg = write(tmp_path / "run.cfg",
                    f"mode = simulate\noutput = {out}\nstate_a = 2p0\nstate_b = 1s\n"
                    "gamma11 = 0.01\nt_start = 0\nt_end = 1\nstep = 0.01\n")
        assert main(["simulate", "--config", cfg]) == 0
        meta = {}
        for line in out.read_text().splitlines():
            if line.startswith("# ") and "=" in line:
                key, value = line[2:].split("=", 1)
                meta[key.strip()] = value.strip()
        assert float(meta["omega21"]) == pytest.approx(-0.375, rel=1e-12)
        assert float(meta["a12"]) == pytest.approx(1.5162329e-08, rel=1e-6)
        assert float(meta["b12"]) == 0.0 and float(meta["c12"]) == 0.0


class TestCsvWriter:
    def test_bytes_match_per_cell_format(self):
        # more rows than one write holds, with every special value in one column
        special = [0.0, -0.0, 5e-324, -2.2250738585072014e-308, 1e-310, math.inf, -math.inf,
                   math.nan, 1.0, -1.0 / 3.0, 1.7976931348623157e308, 123456789.0]
        rng = np.random.default_rng(7)
        n = 2 * _CSV_ROWS_PER_WRITE + 5
        columns = [rng.standard_normal(n) * 10.0 ** rng.integers(-300, 300, n), np.resize(special, n),
                   np.arange(n, dtype=float) * 1e-3]
        buffer = io.StringIO()
        _write_csv_rows(buffer, columns)
        # the contract: format(x, ".16e") with zeros unsigned
        expected = "".join(",".join(format(float(col[k]) + 0.0, ".16e") for col in columns) + "\n"
                           for k in range(n))
        assert buffer.getvalue() == expected
        assert "-0.0000000000000000e+00" not in buffer.getvalue()


class TestVerify:
    def test_canonical_parameters_pass(self, tmp_path, capsys):
        cfg = write(tmp_path / "v.cfg", "mode = verify\nstep = 0.001\n"
                    + CANONICAL_DYNAMICS.replace("step = 0.01\n", ""))
        assert main(["verify", "--config", cfg]) == 0
        out = capsys.readouterr().out
        assert "overall: PASS" in out
        assert out.count("pass") >= 6

    def test_flipped_rotation_fails_residual(self, tmp_path, capsys):
        cfg = write(tmp_path / "v.cfg", "mode = verify\nstep = 0.001\n"
                    + CANONICAL_DYNAMICS.replace("step = 0.01\n", ""))
        assert main(["verify", "--config", cfg, "--debug-flip-rotation"]) == 2
        out = capsys.readouterr().out
        assert "closed_form_residual" in out and "FAIL" in out

    def test_long_span_at_q_zero_passes(self, tmp_path, capsys):
        # the dipole-only run saturates while the full one stands still; the
        # tanh-addition quotient lost all accuracy here (2.9e-02)
        cfg = write(tmp_path / "v.cfg",
                    "mode = verify\nomega21 = 1.0\na12 = 0.25\nb12 = 0.125\ngamma11 = 0.02\n"
                    "gamma12 = -0.04\nt_start = -150\nt_end = 150\nstep = 0.01\n")
        assert main(["verify", "--config", cfg]) == 0
        line = next(l for l in capsys.readouterr().out.splitlines() if l.startswith("shift_decomposition"))
        assert float(line.split()[1]) < 1e-15 and line.split()[-1] == "pass"

    def test_q_zero_runs_every_check(self, tmp_path, capsys):
        cfg = write(tmp_path / "v.cfg",
                    "mode = verify\nomega21 = 1.0\nt_start = -10\nt_end = 10\nstep = 0.01\n")
        assert main(["verify", "--config", cfg]) == 0
        out = capsys.readouterr().out
        assert "skipped" not in out and "overall: PASS" in out
        residual_line = next(l for l in out.splitlines() if l.startswith("closed_form_residual"))
        assert residual_line.split()[-1] == "pass"

    @pytest.mark.parametrize("start", ["", "px0 = 0.6\npy0 = 0.0\npz0 = 0.8\n"],
                             ids=["default-start", "custom-start"])
    def test_flipped_rotation_fails_residual_at_q_zero(self, tmp_path, capsys, start):
        cfg = write(tmp_path / "v.cfg",
                    "mode = verify\nomega21 = 1.0\ngamma11 = 0.1\nt_start = -10\nt_end = 10\n"
                    "step = 0.01\n" + start)
        assert main(["verify", "--config", cfg, "--debug-flip-rotation"]) == 2
        out = capsys.readouterr().out
        residual_line = next(l for l in out.splitlines() if l.startswith("closed_form_residual"))
        assert residual_line.split()[-1] == "FAIL"

    def test_coarse_step_reports_degraded_error(self, tmp_path, capsys):
        # convergence order still holds; the agreement check reports the larger error
        cfg = write(tmp_path / "v.cfg",
                    "mode = verify\nomega21 = 0.1\na12 = 0.1\ngamma11 = 0.01\n"
                    "gamma22 = 0.0\ngamma12 = -0.02\nt_start = -20\nt_end = 20\nstep = 1.0\n")
        main(["verify", "--config", cfg])
        out = capsys.readouterr().out
        conv_line = next(l for l in out.splitlines() if l.startswith("convergence_order"))
        assert "pass" in conv_line
        agree_line = next(l for l in out.splitlines() if l.startswith("analytic_agreement"))
        assert float(agree_line.split()[1]) > 1e-8

    @pytest.mark.parametrize("step", ["0.05", "0.02", "0.005"])
    def test_order_measured_clear_of_rounding(self, tmp_path, capsys, step):
        # a slow rotation (omega21 = 0.069): the order step span/2000 = 0.02 at
        # step 0.02 and 0.005, or the run's 0.05, leaves the errors within ten
        # times their rounding bound; it is doubled to 0.16, or to 0.1
        cfg = write(tmp_path / "v.cfg",
                    "mode = verify\nstate_a = 3d+1\nstate_b = 2p0\ngamma11 = 0.01\ngamma22 = 0.005\n"
                    f"t_start = -10\nt_end = 30\nstep = {step}\n")
        assert main(["verify", "--config", cfg]) == 0
        conv_line = next(l for l in capsys.readouterr().out.splitlines()
                         if l.startswith("convergence_order"))
        measured, status = conv_line.split()[1], conv_line.split()[-1]
        assert status == "pass"
        assert measured == {"0.05": "1.601799e+01"}.get(step, "1.602823e+01")

    @pytest.mark.parametrize("t_end", ["1", "2", "4"])
    @pytest.mark.parametrize("step", ["1e-3", "1e-4"])
    def test_order_passes_short_q_zero_runs(self, tmp_path, capsys, t_end, step):
        # every q = 0 step multiplies by the same float, so RK4's rounding adds
        # up coherently, about n eps; under a random-walk floor the ratio read
        # 1.80 on [0, 2] and 1.75 on [0, 4] and FAILed
        cfg = write(tmp_path / "v.cfg", f"mode = verify\nomega21 = 1\nt_start = 0\nt_end = {t_end}\nstep = {step}\n")
        assert main(["verify", "--config", cfg]) == 0
        conv_line = next(l for l in capsys.readouterr().out.splitlines() if l.startswith("convergence_order"))
        assert conv_line.split()[-1] == "pass" and 15.5 < float(conv_line.split()[1]) < 16.5

    def test_phase_rate_on_tiny_steps(self, tmp_path, capsys):
        # differentiated at the sample times, the gradient's spacing products
        # underflowed at steps of 1e-301, and the phase check read nan
        cfg = write(tmp_path / "v.cfg",
                    "mode = verify\nomega21 = 1\na12 = 0.2\nt_start = 0\nt_end = 1e-300\nstep = 1e-301\n")
        assert main(["verify", "--config", cfg]) == 0
        line = next(l for l in capsys.readouterr().out.splitlines()
                    if l.startswith("shift_matches_trajectory_phase"))
        assert line.split()[-1] == "pass" and float(line.split()[1]) < 1e-14


class TestShift:
    def test_identity_residual_and_t0_row(self, tmp_path, capsys):
        cfg = write(tmp_path / "s.cfg",
                    "mode = shift\nomega21 = 1.0\na12 = 0.2\nb12 = 0.02\nc12 = 0.05\n"
                    "gamma11 = 0.02\ngamma22 = 0.0\ngamma12 = -0.04\n"
                    "t_start = -5\nt_end = 5\nstep = 0.5\n")
        assert main(["shift", "--config", cfg]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0] == "t,shift_full,shift_dipole_only,additional_shift,identity_residual"
        rows = np.array([[float(x) for x in line.split(",")] for line in lines[1:]])
        assert np.max(np.abs(rows[:, 4])) < 1e-12
        t0_row = rows[np.argmin(np.abs(rows[:, 0]))]
        assert t0_row[1] == pytest.approx(-0.01, abs=1e-15)   # -tau at t0

    def test_balanced_current_rates_zero_column(self, tmp_path, capsys):
        cfg = write(tmp_path / "s.cfg",
                    "mode = shift\nomega21 = 1.0\na12 = 0.2\nb12 = 0.03\nc12 = 0.03\n"
                    "gamma11 = 0.02\ngamma12 = -0.04\nt_start = -5\nt_end = 5\nstep = 1.0\n")
        assert main(["shift", "--config", cfg]) == 0
        lines = capsys.readouterr().out.splitlines()
        rows = np.array([[float(x) for x in line.split(",")] for line in lines[1:]])
        assert np.max(np.abs(rows[:, 3])) == 0.0


    def test_no_negative_zero_cell(self, tmp_path, capsys):
        # README's run.cfg has b12 = c12 = 0, where additional_shift is zero on
        # both sides of t0, and Pz = -tanh(0) at t0; without gammas every
        # shift is a zero, of either sign
        out = tmp_path / "run.csv"
        for command in ("shift", "simulate"):
            for gammas in ("gamma11 = 0.02\ngamma12 = -0.04\n", ""):
                cfg = write(tmp_path / "run.cfg",
                            f"mode = {command}\noutput = {out}\nomega21 = 1.0\na12 = 0.2\n" + gammas
                            + "t_start = -20\nt_end = 20\nstep = 0.001\n")
                assert main([command, "--config", cfg]) == 0
                text = capsys.readouterr().out if command == "shift" else out.read_text()
                rows = [line for line in text.splitlines() if not line.startswith(("#", "t,"))]
                cells = [cell for line in rows for cell in line.split(",")]
                assert len(cells) == (5 if command == "shift" else 11) * 40_001
                assert "-0.0000000000000000e+00" not in cells


def _cells(lines):
    """CSV rows after the header as lists of cell strings."""
    return [line.split(",") for line in lines if not line.startswith(("#", "t,"))]


_RATES = "omega21 = 1.0\ngamma11 = 0.02\ngamma22 = 0.005\ngamma12 = -0.04\n"
_STARTS = {"default": "", "custom": "px0 = 0.3\npy0 = -0.2\npz0 = 0.5\n",
           "north": "px0 = 0\npy0 = 0\npz0 = 1\n", "inside": "px0 = -0.1\npy0 = 0.4\npz0 = -0.8\n"}


class TestShiftFollowsTheRun:
    """``shift`` is a view of the run ``simulate`` writes for the same config."""

    @pytest.mark.parametrize("start", sorted(_STARTS))
    @pytest.mark.parametrize("rates", [
        "a12 = 0.2\nb12 = 0.02\nc12 = 0.05\n",                # q > 0
        "a12 = 0.1\nb12 = 0.2\n",                              # q < 0
        "a12 = 0.25\nb12 = 0.125\nt0 = 2.5\n",                 # q = 0, dipole-only q > 0
        "b12 = 0.03\nc12 = 0.08\n",                            # dipole-only q = 0
        "a12 = 0.2\nc12 = 0.05\nt0 = -3\nunits = si\n",       # t0 != 0 in SI units
    ])
    def test_columns_are_simulate_shift_columns(self, tmp_path, capsys, rates, start):
        cfg = write(tmp_path / "s.cfg", "mode = shift\n" + _RATES + rates + _STARTS[start]
                    + "t_start = -10\nt_end = 10\nstep = 0.05\n")
        assert main(["shift", "--config", cfg]) == 0
        table = _cells(capsys.readouterr().out.splitlines())

        def simulate(*overrides):
            out = tmp_path / "run.csv"
            argv = ["simulate", "--config", cfg, "--set", "mode=simulate", "--set", f"output={out}"]
            for token in overrides:
                argv += ["--set", token]
            assert main(argv) == 0
            return _cells(out.read_text().splitlines())

        full, dipole_only = simulate(), simulate("b12=0", "c12=0")
        assert len(table) == len(full) == 401
        assert [row[0] for row in table] == [row[0] for row in full]
        assert [row[1] for row in table] == [row[10] for row in full]
        assert [row[2] for row in table] == [row[10] for row in dipole_only]
        freq_c = constants.PER_ATOMIC_TIME_S if "units = si" in rates else 1.0
        assert max(abs(float(row[4])) for row in table) < 1e-12 * freq_c


class TestParserReuse:
    def test_each_call_sees_only_its_own_overrides(self, tmp_path, capsys):
        from quadbloch.cli import _build_parser

        cfg = write(tmp_path / "s.cfg",
                    "mode = shift\nomega21 = 1.0\na12 = 0.2\nt_start = 0\nt_end = 1\nstep = 0.1\n")

        def rows(*overrides):
            argv = ["shift", "--config", cfg]
            for token in overrides:
                argv += ["--set", token]
            assert main(argv) == 0
            return len(capsys.readouterr().out.splitlines()) - 1

        assert rows("step=0.5") == 3
        assert rows() == 11
        assert rows("t_end=2", "step=0.25") == 9
        assert rows() == 11
        assert _build_parser() is _build_parser()


class TestExitCodes:
    def test_validation_error_is_one(self, tmp_path, capsys):
        cfg = write(tmp_path / "bad.cfg", "mode = simulate\nstep = -1\n")
        assert main(["simulate", "--config", cfg]) == 1
        assert "error:" in capsys.readouterr().err

    def test_missing_config_file_is_one(self, capsys):
        assert main(["coeffs", "--config", "/nonexistent/x.cfg"]) == 1

    def test_mode_mismatch_is_one(self, tmp_path, capsys):
        cfg = write(tmp_path / "m.cfg", "mode = shift\nomega21 = 1\nt_start = 0\nt_end = 1\nstep = 0.1\n")
        assert main(["verify", "--config", cfg]) == 1
        assert "does not match" in capsys.readouterr().err

    def test_float_overflow_in_state_evaluation_is_one(self, tmp_path, capsys):
        # the n = 200 normalization overflows a float; reported, not a traceback
        cfg = write(tmp_path / "n200.cfg", "mode = coeffs\nstate_a = 200,0,0\nstate_b = 199,1,0\n")
        assert main(["coeffs", "--config", cfg]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:")
        assert "Traceback" not in err

    @pytest.mark.parametrize("t_end", ["1", "1e10"])
    def test_grid_too_large_is_one(self, tmp_path, capsys, t_end):
        # span/step is 1e300 or inf; refused before any allocation
        cfg = write(tmp_path / "g.cfg",
                    f"mode = verify\nomega21 = 1\nt_start = 0\nt_end = {t_end}\nstep = 1e-300\n")
        assert main(["verify", "--config", cfg]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: step 1e-300 cuts") and "the limit is 1e+07" in err

    def test_verify_above_rk4_limit_is_one(self, tmp_path, capsys):
        # 2e6 + 1 steps: within time_grid's 1e7, above verify's RK4 limit,
        # refused before the 16 MB time grid or any RK4 pass is allocated
        cfg = write(tmp_path / "v.cfg", "mode = verify\nomega21 = 1\nt_start = 0\nt_end = 2.000001\nstep = 1e-6\n")
        tracemalloc.start()
        try:
            assert main(["verify", "--config", cfg]) == 1
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        err = capsys.readouterr().err
        assert err.startswith("error: verify runs RK4 on 2000001 steps") and "limit is 2e+06 steps" in err
        assert peak < 1_000_000

    def test_overrides_reach_validation(self, tmp_path, capsys):
        out = tmp_path / "o.csv"
        cfg = write(tmp_path / "run.cfg", f"mode = simulate\noutput = {out}\n" + CANONICAL_DYNAMICS)
        assert main(["simulate", "--config", cfg, "--set", "step=-0.5"]) == 1
        assert "'step' must be positive" in capsys.readouterr().err
