import argparse
import io
import math
import os
import re
import stat
import subprocess
import sys
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest

from quadbloch import (TwoLevelParams, additional_shift, analytic_bloch, cli, constants, frequency_shift, integrate,
                       verification)
from quadbloch.cli import main
from quadbloch.csvformat import _CELLS_PER_WRITE, write_table
from quadbloch.integrator import time_grid
from quadbloch.twolevel import _flow_anchor

README = Path(__file__).resolve().parent.parent / "README.md"

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

# starts with norm in (1, 1 + 1e-6], which every run puts on the unit sphere
SLACK_STARTS = {"north": (0.0, 0.0, 1.0000005), "south": (0.0, 0.0, -1.0000005),
                "upper": (0.6, 0.0, 0.8000004), "lower": (0.6, 0.0, -0.8000008)}

# rates that overflow double precision along the run: the table has nan or inf cells
OVERFLOWING_RATES = """
omega21 = 1.0
a12 = -0.2
gamma11 = 1e308
gamma12 = -1e308
t_start = -50
t_end = 50
step = 0.5
"""
FAR_OVERFLOWING_RATES = """
omega21 = 5e-324
gamma12 = -1e150
b12 = 0.2
c12 = 1e300
t_start = 0
t_end = 1e150
step = 1e147
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
# SI factors, an imaginary part printed in SI (D_y) and an m < 0 state, with k_max = 2
SI_PAIR_TABLE = """\
# pair: 3d-2 -> 2p-1   units: si
omega            2.87092870383e+15
D_x              1.80026512158e-29
D_y              1.42144253060e-45-1.80026512158e-29j
D_z              2.44387509500e-49
Q_xx             -5.82779978164e-56
Q_xy             -4.55569400993e-55
Q_xz             -5.65777052644e-57
Q_yy             1.62478496949e-56
Q_yz             2.39136178288e-57
Q_zz             4.20301481215e-56
Delta_x          1.32598910323e-39
Delta_y          -1.42220876731e-23
Delta_z          -4.94274892691e-41
delta_xx         -4.13765464684e-30
delta_xy         -4.26245183232e-31
delta_xz         -1.91596692340e-32
delta_yx         3.30102150941e-30
delta_yy         2.60421809151e-30
delta_yz         -3.56050830053e-33
delta_zx         6.85035354518e-32
delta_zy         1.56866243992e-30
delta_zz         6.00157419802e-31
A                6.46862577099e+07
B                9.12618363947e-13
C                -2.49042413154e-28
Gamma(k_max=2)   8.12623377437e+10
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
        cfg = write(tmp_path / "pair.cfg", "state_a = 2p0\nstate_b = 1s\nk_max = 1.0\n")
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
        cfg = write(tmp_path / "pair.cfg", "state_a = 1s\nstate_b = 2s\n")
        assert main(["coeffs", "--config", cfg]) == 0
        out = capsys.readouterr().out
        for line in out.splitlines():
            if line.startswith(("D_", "A")):
                assert abs(float(line.split()[1])) < 1e-10

    def test_quadrupole_pair(self, tmp_path, capsys):
        cfg = write(tmp_path / "pair.cfg", "state_a = 3d0\nstate_b = 1s\n")
        assert main(["coeffs", "--config", cfg]) == 0
        out = capsys.readouterr().out
        values = {line.split()[0]: float(line.split()[1]) for line in out.splitlines() if not line.startswith("#")}
        assert abs(values["D_z"]) < 1e-10
        assert abs(values["Q_zz"]) > 0.1

    def test_si_keeps_imaginary_dipole(self, tmp_path, capsys):
        def coeffs(units):
            cfg = write(tmp_path / f"{units}.cfg", f"state_a = 2p+1\nstate_b = 1s\nunits = {units}\n")
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
        original = multipole.eigenstate_factors

        def counting(state, *args):
            calls.append(state.label())
            return original(state, *args)

        monkeypatch.setattr(multipole, "eigenstate_factors", counting)
        cfg = write(tmp_path / "pair.cfg", "state_a = 3d+1\nstate_b = 1s\nk_max = 2.0\n")
        assert main(["coeffs", "--config", cfg]) == 0
        # each state once, on the grid's factors
        assert sorted(calls) == ["1s", "3d+1"]

    def test_zeros_print_unsigned(self, tmp_path, capsys):
        # 14 of the 182 ordered pairs of distinct n <= 3 states have a -0.0
        # among their fields (B and C on 1s -> 2s; Delta too on 2p0 -> 3s)
        states = [f"{n},{l},{m}" for n in range(1, 4) for l in range(n) for m in range(-l, l + 1)]
        cfg = write(tmp_path / "pair.cfg", "state_a = 1s\nstate_b = 2p0\nk_max = 1.0\n")
        for units in ("atomic", "si"):
            for a in states:
                for b in states:
                    assert main(["coeffs", "--config", cfg, "--set", f"state_a={a}", "--set", f"state_b={b}",
                                 "--set", f"units={units}"]) == 0
        assert main(["coeffs", "--config", cfg, "--set", "k_max=-0"]) == 0
        out = capsys.readouterr().out
        assert out.count("# pair:") == 2 * 14 * 14 + 1
        assert not re.search(r"-0\.0+e\+00", out)
        assert "Gamma(k_max=0)   0.00000000000e+00\n" in out


    @pytest.mark.parametrize("state_a, state_b, expected", [("2p0", "1s", README_PAIR_TABLE),
                                                            ("77,76,0", "76,75,0", HIGH_L_PAIR_TABLE)])
    def test_table_bytes(self, tmp_path, capsys, state_a, state_b, expected):
        cfg = write(tmp_path / "pair.cfg", f"state_a = {state_a}\nstate_b = {state_b}\nk_max = 1.0\n")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["coeffs", "--config", cfg]) == 0
        assert capsys.readouterr().out == expected

    def test_si_table_bytes(self, tmp_path, capsys):
        cfg = write(tmp_path / "pair.cfg", "state_a = 3d-2\nstate_b = 2p-1\nunits = si\nk_max = 2\n")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["coeffs", "--config", cfg]) == 0
        assert capsys.readouterr().out == SI_PAIR_TABLE

    @pytest.mark.parametrize("state_a, state_b, refused, cause", [
        ("78,77,0", "77,76,0", "78,77,0", "r^77 overflows a float on its grid"),
        ("85,84,0", "84,83,0", "84,83,0", "r^83 overflows a float on its grid"),
        ("86,84,0", "1s", "86,84,0", "(n + l)! = 170! overflows a float"),
    ])
    def test_state_past_float_range_is_refused(self, tmp_path, capsys, state_a, state_b, refused, cause):
        # these printed nan on every moment and rate line with exit 0, or
        # "int too large to convert to float" without naming the state
        cfg = write(tmp_path / "pair.cfg", f"state_a = {state_a}\nstate_b = {state_b}\n")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["coeffs", "--config", cfg]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"error: state {refused}: ") and cause in captured.err

    def test_si_line_past_float_range_is_refused(self, tmp_path, capsys):
        # Gamma is 1.8e294 in atomic units; the SI factor 4.13e16 takes it past the largest double
        cfg = write(tmp_path / "pair.cfg", "state_a = 2p0\nstate_b = 1s\nk_max = 1e300\nunits = si\n")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["coeffs", "--config", cfg]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: line Gamma(k_max=1e+300) is inf in si units; nothing was written\n"


class TestSimulate:
    def test_fixed_point_start(self, tmp_path):
        out = tmp_path / "fp.csv"
        cfg = write(tmp_path / "run.cfg",
                    f"output = {out}\npx0 = 0\npy0 = 0\npz0 = -1\n" + CANONICAL_DYNAMICS)
        assert main(["simulate", "--config", cfg]) == 0
        rows = load_csv(out)
        assert np.all(rows[:, 3] == -1.0)                      # Pz column
        assert np.all(rows[:, 8] == rows[0, 8])                # energy constant

    def test_trace_and_roundtrip_every_row(self, tmp_path):
        out = tmp_path / "run.csv"
        cfg = write(tmp_path / "run.cfg", f"output = {out}\n" + CANONICAL_DYNAMICS)
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
                    f"output = {out}\nomega21 = 1.0\na12 = 0.2\n"
                    "t_start = 0\nt_end = 100\nstep = 0.01\n")
        assert main(["simulate", "--config", cfg]) == 0
        rows = load_csv(out)
        assert abs(rows[-1, 3] + 1.0) < 1e-4

    def test_header_and_metadata(self, tmp_path):
        for start, expected in (("", ["# start = 1, 0, 0", "# start_time = 0"]),
                                ("px0 = 0.3\npy0 = -0.2\npz0 = 0.5\n",
                                 [f"# start = {0.3:.17g}, {-0.2:.17g}, 0.5", "# start_time = -20"])):
            out = tmp_path / "run.csv"
            cfg = write(tmp_path / "run.cfg", f"output = {out}\n" + start + CANONICAL_DYNAMICS)
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
        base = CANONICAL_DYNAMICS
        cfg_a = write(tmp_path / "a.cfg", base + f"output = {out_a}\n")
        cfg_b = write(tmp_path / "b.cfg", base + f"output = {out_b}\n")
        assert main(["simulate", "--config", cfg_a]) == 0
        assert main(["simulate", "--config", cfg_b]) == 0
        assert out_a.read_bytes() == out_b.read_bytes()

    def test_si_units_are_scaled_atomic_outputs(self, tmp_path):
        out_at = tmp_path / "at.csv"
        out_si = tmp_path / "si.csv"
        base = CANONICAL_DYNAMICS
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
                    f"output = {tmp_path}/nodir/x.csv\n" + CANONICAL_DYNAMICS)
        assert main(["simulate", "--config", cfg]) == 1
        assert "error:" in capsys.readouterr().err

    def test_integrator_abort_propagates(self, tmp_path, capsys):
        # verify is the command that still runs RK4; simulate writes exact samples
        cfg = write(tmp_path / "run.cfg",
                    "omega21 = 5.0\na12 = 0.2\n"
                    "px0 = 1\npy0 = 0\npz0 = 0\nt_start = 0\nt_end = 100\nstep = 1.0\n")
        assert main(["verify", "--config", cfg]) == 1
        assert "smaller step" in capsys.readouterr().err

    @pytest.mark.parametrize("overrides, growth", [([], "22.5"), (["--set", "step=0.001"], "22.5"),
                                                   (["--set", "step=2"], "24.0")])
    def test_far_start_is_not_blamed_on_the_step(self, tmp_path, capsys, overrides, growth):
        # README's rates from t = -185: by t = -72.5 the flow has grown rounding
        # off the sphere by e^22.5, so every step left the ball there and was
        # blamed, and step = 2 named the order check's step 1
        cfg = write(tmp_path / "run.cfg",
                    CANONICAL_DYNAMICS.replace("t_start = -20", "t_start = -185"))
        assert main(["verify", "--config", cfg, *overrides]) == 1
        err = capsys.readouterr().err
        assert f"by e^{growth} since t_start, so no step can help: start later" in err
        assert "smaller step" not in err and "step 1 " not in err

    def test_overflowing_state_is_not_blamed_on_the_step(self, tmp_path, capsys):
        # README's rates with gamma12 = 1e307: the norm is nan, and no step can help
        cfg = write(tmp_path / "run.cfg",
                    "omega21 = 1.0\na12 = 0.2\ngamma11 = 0.02\ngamma12 = 1e307\n"
                    "t_start = -20\nt_end = 20\nstep = 0.02\n")
        assert main(["verify", "--config", cfg]) == 1
        err = capsys.readouterr().err
        assert err == "error: |P| = nan at t = -19.98; the state overflowed at these rates\n"

    def test_coarse_step_is_sample_spacing_only(self, tmp_path):
        # the step that aborts RK4 above only spaces the exact samples here
        out = tmp_path / "x.csv"
        cfg = write(tmp_path / "run.cfg",
                    f"output = {out}\nomega21 = 5.0\na12 = 0.2\n"
                    "px0 = 1\npy0 = 0\npz0 = 0\nt_start = 0\nt_end = 100\nstep = 1.0\n")
        assert main(["simulate", "--config", cfg]) == 0
        rows = load_csv(out)
        p = TwoLevelParams(omega21=5.0, a12=0.2)
        exact = np.array([analytic_bloch(t, p) for t in rows[:, 0]])
        assert len(rows) == 101
        assert np.max(np.abs(rows[:, 1:4] - exact)) < 1e-14

    def test_default_start_is_closed_form(self, tmp_path):
        out = tmp_path / "run.csv"
        cfg = write(tmp_path / "run.cfg", f"output = {out}\n" + CANONICAL_DYNAMICS)
        assert main(["simulate", "--config", cfg]) == 0
        rows = load_csv(out)
        p = TwoLevelParams(omega21=1.0, gamma11=0.02, gamma12=-0.04, a12=0.2)
        exact = np.array([analytic_bloch(t, p) for t in rows[:, 0]])
        assert np.max(np.abs(rows[:, 1:4] - exact)) < 1e-14

    def test_state_pair_drives_dynamics(self, tmp_path):
        # level pair supplies omega21 and the relaxation rates; gammas stay explicit
        out = tmp_path / "pair.csv"
        cfg = write(tmp_path / "run.cfg",
                    f"output = {out}\nstate_a = 2p0\nstate_b = 1s\n"
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


class TestOutputRewrite:
    """An existing output is overwritten in place and cut to the table's length."""

    @staticmethod
    def simulate(tmp_path, out, step="0.5"):
        cfg = write(tmp_path / "run.cfg", f"output = {out}\n" + CANONICAL_DYNAMICS)
        return main(["simulate", "--config", cfg, "--set", f"step={step}"])

    def fresh_bytes(self, tmp_path, step="0.5"):
        fresh = tmp_path / "fresh.csv"
        assert self.simulate(tmp_path, fresh, step) == 0
        return fresh.read_bytes()

    @pytest.mark.parametrize("old_step", ["0.25", None], ids=["longer", "shorter"])
    def test_rerun_keeps_the_file_and_writes_a_fresh_runs_bytes(self, tmp_path, old_step):
        out = tmp_path / "out.csv"
        if old_step is None:
            out.write_bytes(b"x" * 1000)
        else:
            assert self.simulate(tmp_path, out, old_step) == 0
        os.chmod(out, 0o600)
        inode = os.stat(out).st_ino
        assert self.simulate(tmp_path, out) == 0
        assert os.stat(out).st_ino == inode and stat.S_IMODE(os.stat(out).st_mode) == 0o600
        assert out.read_bytes() == self.fresh_bytes(tmp_path)

    def test_new_output_takes_its_mode_from_the_umask(self, tmp_path):
        old = os.umask(0o027)
        try:
            assert self.simulate(tmp_path, tmp_path / "new.csv") == 0
        finally:
            os.umask(old)
        assert stat.S_IMODE(os.stat(tmp_path / "new.csv").st_mode) == 0o640

    def test_symlink_stays_a_link_and_its_target_gets_the_table(self, tmp_path):
        target = tmp_path / "target.csv"
        target.write_bytes(b"x" * 100_000)
        link = tmp_path / "link.csv"
        link.symlink_to(target)
        assert self.simulate(tmp_path, link) == 0
        assert link.is_symlink() and os.readlink(link) == str(target)
        assert target.read_bytes() == self.fresh_bytes(tmp_path)

    def test_hard_linked_file_is_rewritten_through_both_names(self, tmp_path):
        out = tmp_path / "out.csv"
        out.write_bytes(b"x" * 100_000)
        alias = tmp_path / "alias.csv"
        os.link(out, alias)
        assert self.simulate(tmp_path, out) == 0
        assert os.stat(out).st_ino == os.stat(alias).st_ino and os.stat(out).st_nlink == 2
        assert out.read_bytes() == alias.read_bytes() == self.fresh_bytes(tmp_path)

    def test_device_is_written_and_not_cut(self, tmp_path):
        # ftruncate on a character device fails: only a regular file is cut
        assert self.simulate(tmp_path, os.devnull) == 0

    def test_error_mid_table_leaves_no_tail_of_the_old_one(self, tmp_path, monkeypatch, capsys):
        out = tmp_path / "out.csv"
        out.write_bytes(b"~" * 100_000)

        def full_disk(fh, columns):
            fh.write("t,Px\n")
            raise OSError(28, "No space left on device")

        monkeypatch.setattr(cli, "write_table", full_disk)
        assert self.simulate(tmp_path, out) == 1
        assert "No space left on device" in capsys.readouterr().err
        written = out.read_bytes()
        assert written.startswith(b"# quadbloch simulate\n") and written.endswith(b"\nt,Px\n")
        assert b"~" not in written


def expected_table(columns):
    """The table's contract: the names, then ``format(x, ".16e")`` cells with zeros unsigned."""
    n = len(next(iter(columns.values())))
    return ",".join(columns) + "\n" + "".join(
        ",".join(format(float(col[k]) + 0.0, ".16e") for col in columns.values()) + "\n" for k in range(n))


class TestCsvWriter:
    SPECIAL = [0.0, -0.0, 5e-324, -2.2250738585072014e-308, 1e-310, math.inf, -math.inf,
               math.nan, 1.0, -1.0 / 3.0, 1.7976931348623157e308, 123456789.0]

    def test_bytes_match_per_cell_format(self):
        # more rows than one write holds, with every special value in one column
        rng = np.random.default_rng(7)
        n = 2 * (_CELLS_PER_WRITE // 3) + 5
        columns = {"wide": rng.standard_normal(n) * 10.0 ** rng.integers(-300, 300, n),
                   "special": np.resize(self.SPECIAL, n), "ramp": np.arange(n, dtype=float) * 1e-3}
        buffer = io.StringIO()
        write_table(buffer, columns)
        assert buffer.getvalue() == expected_table(columns)
        assert "-0.0000000000000000e+00" not in buffer.getvalue()

    @pytest.mark.parametrize("cols", [1, 3, 5, 11, 12])
    @pytest.mark.parametrize("extra", ["one", "rows-1", "rows", "rows+1", "2rows+3"])
    def test_blocks_are_sized_by_cells(self, cols, extra):
        # row counts on either side of a block of _CELLS_PER_WRITE // cols rows
        rows = _CELLS_PER_WRITE // cols
        n = {"one": 1, "rows-1": rows - 1, "rows": rows, "rows+1": rows + 1, "2rows+3": 2 * rows + 3}[extra]
        rng = np.random.default_rng(cols)
        pool = np.concatenate([self.SPECIAL, rng.standard_normal(29) * 10.0 ** rng.integers(-300, 300, 29)])
        columns = {f"c{i}": np.resize(np.roll(pool, 7 * i), n) for i in range(cols)}
        buffer = io.StringIO()
        write_table(buffer, columns)
        text = buffer.getvalue()
        assert text.split("\n", 1)[0] == ",".join(f"c{i}" for i in range(cols))
        assert text == expected_table(columns)


class TestVerify:
    def test_canonical_parameters_pass(self, tmp_path, capsys):
        cfg = write(tmp_path / "v.cfg", "step = 0.001\n"
                    + CANONICAL_DYNAMICS.replace("step = 0.01\n", ""))
        assert main(["verify", "--config", cfg]) == 0
        out = capsys.readouterr().out
        assert "overall: PASS" in out
        assert out.count("pass") >= 6

    @pytest.mark.parametrize("pz0", ["1.0000005", "-1.0000005"])
    def test_start_inside_the_slack_is_a_fixed_point(self, tmp_path, capsys, pz0):
        # the start is put on the pole, where RK4 and the flow both stay
        cfg = write(tmp_path / "v.cfg", f"px0 = 0\npy0 = 0\npz0 = {pz0}\n"
                    + CANONICAL_DYNAMICS.replace("t_start = -20\nt_end = 20\n", "t_start = -1\nt_end = 1\n"))
        assert main(["verify", "--config", cfg]) == 0
        out = capsys.readouterr().out
        assert re.search(r"convergence_order +- +exact \(fixed point\) +skipped", out)
        assert "overall: PASS" in out

    @pytest.mark.parametrize("start", sorted(SLACK_STARTS))
    @pytest.mark.parametrize("command", ["simulate", "verify", "shift"])
    def test_library_start_inside_the_slack_matches_the_cli(self, tmp_path, capsys, command, start):
        # the config keeps the start as written and every run puts it on the sphere by
        # one rule; run_checks read a convergence_order FAIL at 1.0 when RK4 started off the pole
        initial = SLACK_STARTS[start]
        p = TwoLevelParams(omega21=1.0, a12=0.2, gamma11=0.02, gamma12=-0.04)
        out = tmp_path / "run.csv"
        cfg = write(tmp_path / "v.cfg", "px0 = {!r}\npy0 = {!r}\npz0 = {!r}\n".format(*initial) + f"output = {out}\n"
                    + CANONICAL_DYNAMICS.replace("t_start = -20\nt_end = 20\n", "t_start = -1\nt_end = 1\n"))
        assert main([command, "--config", cfg]) == 0
        text = capsys.readouterr().out
        anchor, _ = _flow_anchor(p, -1.0, initial)
        assert anchor != initial and math.hypot(*anchor) == pytest.approx(1.0, abs=2e-16)
        if command == "simulate":
            assert f"# start = {', '.join(f'{v:.17g}' for v in anchor)}" in out.read_text().splitlines()
            assert tuple(load_csv(out)[0, 1:4]) == anchor
        elif command == "verify":
            report, _ = verification.run_checks(p, -1.0, 1.0, 0.01, initial=initial)
            assert report.passed and text == report.format() + "\n"
        else:
            rows = np.array([[float(x) for x in line.split(",")] for line in text.splitlines()[1:]])
            times, _ = time_grid(-1.0, 1.0, 0.01)
            assert rows[:, 0].tolist() == times.tolist()
            assert rows[:, 1].tolist() == frequency_shift(times, p, initial, -1.0).tolist()
            assert rows[:, 2].tolist() == frequency_shift(times, p.dipole_only(), initial, -1.0).tolist()
            assert rows[:, 3].tolist() == additional_shift(times, p, initial, -1.0).tolist()

    def test_flipped_rotation_fails_residual(self, tmp_path, capsys, flip_rotation):
        cfg = write(tmp_path / "v.cfg", "step = 0.001\n"
                    + CANONICAL_DYNAMICS.replace("step = 0.01\n", ""))
        flip_rotation()
        assert main(["verify", "--config", cfg]) == 2
        out = capsys.readouterr().out
        assert "closed_form_residual" in out and "FAIL" in out

    def test_long_span_at_q_zero_passes(self, tmp_path, capsys):
        # the dipole-only run saturates while the full one stands still; the
        # tanh-addition quotient lost all accuracy here (2.9e-02)
        cfg = write(tmp_path / "v.cfg",
                    "omega21 = 1.0\na12 = 0.25\nb12 = 0.125\ngamma11 = 0.02\n"
                    "gamma12 = -0.04\nt_start = -150\nt_end = 150\nstep = 0.01\n")
        assert main(["verify", "--config", cfg]) == 0
        line = next(l for l in capsys.readouterr().out.splitlines() if l.startswith("shift_decomposition"))
        assert float(line.split()[1]) < 1e-15 and line.split()[-1] == "pass"

    def test_q_zero_runs_every_check(self, tmp_path, capsys):
        cfg = write(tmp_path / "v.cfg",
                    "omega21 = 1.0\nt_start = -10\nt_end = 10\nstep = 0.01\n")
        assert main(["verify", "--config", cfg]) == 0
        out = capsys.readouterr().out
        assert "skipped" not in out and "overall: PASS" in out
        residual_line = next(l for l in out.splitlines() if l.startswith("closed_form_residual"))
        assert residual_line.split()[-1] == "pass"

    @pytest.mark.parametrize("start", ["", "px0 = 0.6\npy0 = 0.0\npz0 = 0.8\n"],
                             ids=["default-start", "custom-start"])
    def test_flipped_rotation_fails_residual_at_q_zero(self, tmp_path, capsys, start, flip_rotation):
        cfg = write(tmp_path / "v.cfg",
                    "omega21 = 1.0\ngamma11 = 0.1\nt_start = -10\nt_end = 10\n"
                    "step = 0.01\n" + start)
        flip_rotation()
        assert main(["verify", "--config", cfg]) == 2
        out = capsys.readouterr().out
        residual_line = next(l for l in out.splitlines() if l.startswith("closed_form_residual"))
        assert residual_line.split()[-1] == "FAIL"

    def test_coarse_step_reports_degraded_error(self, tmp_path, capsys):
        # convergence order still holds; the agreement check reports the larger error
        cfg = write(tmp_path / "v.cfg",
                    "omega21 = 0.1\na12 = 0.1\ngamma11 = 0.01\n"
                    "gamma22 = 0.0\ngamma12 = -0.02\nt_start = -20\nt_end = 20\nstep = 1.0\n")
        main(["verify", "--config", cfg])
        out = capsys.readouterr().out
        conv_line = next(l for l in out.splitlines() if l.startswith("convergence_order"))
        assert "pass" in conv_line
        agree_line = next(l for l in out.splitlines() if l.startswith("analytic_agreement"))
        assert float(agree_line.split()[1]) > 1e-8

    @pytest.mark.parametrize("step", ["0.05", "0.02", "0.005"])
    def test_order_measured_clear_of_rounding(self, tmp_path, capsys, monkeypatch, step):
        # a slow rotation (omega21 = 0.069): the order step span/500 = 0.08,
        # coarser than each run's step, leaves the errors within ten times
        # their rounding bound; it is doubled to 0.16
        widths = []
        original = verification.integrate

        def recording(initial, p, t_start, t_end, width):
            widths.append(width)
            return original(initial, p, t_start, t_end, width)

        monkeypatch.setattr(verification, "integrate", recording)
        cfg = write(tmp_path / "v.cfg",
                    "state_a = 3d+1\nstate_b = 2p0\ngamma11 = 0.01\ngamma22 = 0.005\n"
                    f"t_start = -10\nt_end = 30\nstep = {step}\n")
        assert main(["verify", "--config", cfg]) == 0
        conv_line = next(l for l in capsys.readouterr().out.splitlines()
                         if l.startswith("convergence_order"))
        measured, status = conv_line.split()[1], conv_line.split()[-1]
        assert status == "pass"
        assert widths[1:] == [0.04, 0.08, 0.16]
        assert measured == "1.602823e+01"

    def test_far_start_fails_agreement_but_measures_order(self, tmp_path, capsys):
        # README's rates from t = -120: the flow grows RK4's rounding past the
        # agreement tolerance, but the order passes at 0.1 / R clear of it,
        # where span/2000 = 0.07 read 3.18 and FAILed
        cfg = write(tmp_path / "v.cfg",
                    CANONICAL_DYNAMICS.replace("t_start = -20", "t_start = -120"))
        assert main(["verify", "--config", cfg]) == 2
        status = {line.split()[0]: (line.split()[1], line.split()[-1])
                  for line in capsys.readouterr().out.splitlines()[1:-1]}
        assert status["convergence_order"] == ("1.594198e+01", "pass")
        assert status["bloch_norm_preservation"][1] == status["analytic_agreement"][1] == "FAIL"

    def test_far_start_order_pass_is_not_blamed_on_the_step(self, tmp_path, capsys):
        # README's rates from t = -155 at step 0.02: the run stays in the ball,
        # but the order's passes leave it, by rounding that the flow has grown,
        # not by their step: from 0.1 / R = 0.088, from its half, and from the
        # run's own step, whose half-step pass reports
        p = TwoLevelParams(omega21=1.0, a12=0.2, gamma11=0.02, gamma12=-0.04)
        integrate(None, p, -155.0, 20.0, 0.02)
        cfg = write(tmp_path / "v.cfg",
                    CANONICAL_DYNAMICS.replace("t_start = -20", "t_start = -155")
                    .replace("step = 0.01", "step = 0.02"))
        assert main(["verify", "--config", cfg]) == 1
        err = capsys.readouterr().err
        assert "the flow multiplied rounding off the unit sphere by e^19.5 since t_start" in err
        assert err.rstrip().endswith("start later") and "smaller step" not in err

    @pytest.mark.parametrize("t_end", ["1", "2", "4"])
    @pytest.mark.parametrize("step", ["1e-3", "1e-4"])
    def test_order_passes_short_q_zero_runs(self, tmp_path, capsys, t_end, step):
        # every q = 0 step multiplies by the same float, so RK4's rounding adds
        # up coherently, about n eps; under a random-walk floor the ratio read
        # 1.80 on [0, 2] and 1.75 on [0, 4] and FAILed
        cfg = write(tmp_path / "v.cfg", f"omega21 = 1\nt_start = 0\nt_end = {t_end}\nstep = {step}\n")
        assert main(["verify", "--config", cfg]) == 0
        conv_line = next(l for l in capsys.readouterr().out.splitlines() if l.startswith("convergence_order"))
        assert conv_line.split()[-1] == "pass" and 15.5 < float(conv_line.split()[1]) < 16.5

    def test_phase_rate_on_tiny_steps(self, tmp_path, capsys):
        # differentiated at the sample times, the gradient's spacing products
        # underflowed at steps of 1e-301, and the phase check read nan
        cfg = write(tmp_path / "v.cfg",
                    "omega21 = 1\na12 = 0.2\nt_start = 0\nt_end = 1e-300\nstep = 1e-301\n")
        assert main(["verify", "--config", cfg]) == 0
        line = next(l for l in capsys.readouterr().out.splitlines()
                    if l.startswith("shift_matches_trajectory_phase"))
        assert line.split()[-1] == "pass" and float(line.split()[1]) < 1e-14


class TestShift:
    def test_identity_residual_and_t0_row(self, tmp_path, capsys):
        cfg = write(tmp_path / "s.cfg",
                    "omega21 = 1.0\na12 = 0.2\nb12 = 0.02\nc12 = 0.05\n"
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
                    "omega21 = 1.0\na12 = 0.2\nb12 = 0.03\nc12 = 0.03\n"
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
                            f"output = {out}\nomega21 = 1.0\na12 = 0.2\n" + gammas
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
        cfg = write(tmp_path / "s.cfg", _RATES + rates + _STARTS[start]
                    + "t_start = -10\nt_end = 10\nstep = 0.05\n")
        assert main(["shift", "--config", cfg]) == 0
        table = _cells(capsys.readouterr().out.splitlines())

        def simulate(*overrides):
            out = tmp_path / "run.csv"
            argv = ["simulate", "--config", cfg, "--set", f"output={out}"]
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
                    "omega21 = 1.0\na12 = 0.2\nt_start = 0\nt_end = 1\nstep = 0.1\n")

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
        cfg = write(tmp_path / "bad.cfg", "step = -1\n")
        assert main(["simulate", "--config", cfg]) == 1
        assert "error:" in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [["verify", "--config", "CFG", "--debug-flip-rotation"], ["verify"], [],
                                      ["bogus", "--config", "CFG"]],
                             ids=["unknown-option", "no-config", "no-command", "invalid-command"])
    def test_usage_error_is_one(self, tmp_path, capsys, argv):
        # argparse's own code, 2, would read as a failed verification
        cfg = write(tmp_path / "v.cfg", CANONICAL_DYNAMICS)
        with pytest.raises(SystemExit) as raised:
            main([cfg if arg == "CFG" else arg for arg in argv])
        assert raised.value.code == 1
        err = capsys.readouterr().err
        assert err.startswith("usage: quadbloch") and "error:" in err

    @pytest.mark.parametrize("argv", [["--help"], ["verify", "--help"]])
    def test_help_is_zero(self, capsys, argv):
        with pytest.raises(SystemExit) as raised:
            main(argv)
        assert raised.value.code == 0
        assert capsys.readouterr().out.startswith("usage: quadbloch")

    def test_every_command_takes_only_config_and_set(self):
        from quadbloch.cli import _build_parser

        sub = next(a for a in _build_parser()._actions if isinstance(a, argparse._SubParsersAction))
        assert list(sub.choices) == ["coeffs", "simulate", "verify", "shift"]
        for name, cmd in sub.choices.items():
            assert [s for a in cmd._actions for s in a.option_strings] == ["-h", "--help", "--config", "--set"], name

    def test_missing_config_file_is_one(self, capsys):
        assert main(["coeffs", "--config", "/nonexistent/x.cfg"]) == 1

    def test_mode_mismatch_is_one(self, tmp_path, capsys):
        # the subcommand is the run's mode; a file that names one is refused
        cfg = write(tmp_path / "m.cfg", "omega21 = 1\nt_start = 0\nt_end = 1\nstep = 0.1\nmode = verify\n")
        assert main(["verify", "--config", cfg]) == 1
        assert "line 5: unknown key 'mode'" in capsys.readouterr().err

    def test_float_overflow_in_state_evaluation_is_one(self, tmp_path, capsys):
        # the n = 200 normalization overflows a float; reported, not a traceback
        cfg = write(tmp_path / "n200.cfg", "state_a = 200,0,0\nstate_b = 199,1,0\n")
        assert main(["coeffs", "--config", cfg]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:")
        assert "Traceback" not in err

    @pytest.mark.parametrize("command", ["simulate", "verify", "shift"])
    def test_overflowing_start_is_one(self, tmp_path, capsys, command):
        # |P|^2 = 1e400 overflowed a float: exit 1 with "(34, 'Numerical result out of range')"
        out = tmp_path / "o.csv"
        cfg = write(tmp_path / "run.cfg", f"output = {out}\npx0 = 1e200\npy0 = 0\npz0 = 0\n" + CANONICAL_DYNAMICS)
        assert main([command, "--config", cfg]) == 1
        captured = capsys.readouterr()
        assert captured.err == ("error: initial state (px0, py0, pz0): start (1e+200, 0.0, 0.0) has norm "
                                "9.9999999999999997e+199, outside the Bloch ball |P| <= 1 + 1e-06\n")
        assert captured.out == "" and not out.exists()

    @pytest.mark.parametrize("command", ["simulate", "verify", "shift"])
    @pytest.mark.parametrize("state_a, state_b, pair", [("2s", "1s", "2s -> 1s"), ("3s", "2s", "3s -> 2s"),
                                                        ("3d0", "1s", "3d -> 1s"), ("3d+2", "2p0", "3d+2 -> 2p")])
    def test_pair_without_an_e1_line_is_one(self, tmp_path, capsys, command, state_a, state_b, pair):
        # these ran on rounding, writing q = 3.27e-41, 2.28e-42, 4.18e-42 and 9.03e-42, and verify passed
        out = tmp_path / "o.csv"
        cfg = write(tmp_path / "run.cfg", f"output = {out}\nstate_a = {state_a}\nstate_b = {state_b}\n"
                    "t_start = -5\nt_end = 5\nstep = 0.01\n")
        assert main([command, "--config", cfg]) == 1
        captured = capsys.readouterr()
        assert captured.err == (f"error: {pair} has no E1 line (it needs |l_a - l_b| = 1 and |m_a - m_b| <= 1), "
                                "so its rates are rounding; give explicit rates (a12) instead\n")
        assert captured.out == "" and not out.exists()

    def test_same_n_pair_with_an_e1_line_runs(self, tmp_path):
        # 2s -> 2p0 has an E1 line; its rates are exact zeros from the omega^3 factor, not rounding
        out = tmp_path / "o.csv"
        cfg = write(tmp_path / "run.cfg", f"output = {out}\nstate_a = 2s\nstate_b = 2p0\n"
                    "t_start = -5\nt_end = 5\nstep = 0.01\n")
        assert main(["simulate", "--config", cfg]) == 0
        meta = out.read_text().splitlines()
        assert "# a12 = 0" in meta and "# q = 0" in meta

    def test_coeffs_reads_no_start(self, tmp_path, capsys):
        # one file serves every command; coeffs ignores an overflowing start
        cfg = write(tmp_path / "pair.cfg", "state_a = 2p0\nstate_b = 1s\nk_max = 1.0\n"
                    "px0 = 1e200\npy0 = 0\npz0 = 0\n")
        assert main(["coeffs", "--config", cfg]) == 0
        assert capsys.readouterr().out == README_PAIR_TABLE

    @pytest.mark.parametrize("t_end", ["1", "1e10"])
    def test_grid_too_large_is_one(self, tmp_path, capsys, t_end):
        # span/step is 1e300 or inf; refused before any allocation
        cfg = write(tmp_path / "g.cfg",
                    f"omega21 = 1\nt_start = 0\nt_end = {t_end}\nstep = 1e-300\n")
        assert main(["verify", "--config", cfg]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: step 1e-300 cuts") and "the limit is 1e+07" in err

    def test_verify_above_rk4_limit_is_one(self, tmp_path, capsys):
        # 2e6 + 1 steps: within time_grid's 1e7, above verify's RK4 limit,
        # refused before the 16 MB time grid or any RK4 pass is allocated
        cfg = write(tmp_path / "v.cfg", "omega21 = 1\nt_start = 0\nt_end = 2.000001\nstep = 1e-6\n")
        tracemalloc.start()
        try:
            assert main(["verify", "--config", cfg]) == 1
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        err = capsys.readouterr().err
        assert err.startswith("error: verify runs RK4 on 2000001 steps") and "limit is 2e+06 steps" in err
        assert peak < 1_000_000

    @pytest.mark.parametrize("command, rates, column, first", [
        ("simulate", OVERFLOWING_RATES, "Px", "-50"),
        ("shift", OVERFLOWING_RATES, "shift_full", "13.5"),
        ("simulate", FAR_OVERFLOWING_RATES, "Px", "9.9999999999999998e+146"),
        ("shift", FAR_OVERFLOWING_RATES, "additional_shift", "9.9999999999999998e+146"),
        # the row is named by its own t cell, in seconds; the SI factor takes
        # shift_full past the largest double from the first row on
        ("simulate", OVERFLOWING_RATES + "units = si\n", "Px", f"{-50 * constants.ATOMIC_TIME_S:.17g}"),
        ("shift", OVERFLOWING_RATES + "units = si\n", "shift_full", f"{-50 * constants.ATOMIC_TIME_S:.17g}"),
    ], ids=["simulate", "shift", "simulate-far", "shift-far", "simulate-si", "shift-si"])
    def test_non_finite_table_is_one(self, tmp_path, capsys, command, rates, column, first):
        # refused before the output is opened or the header printed
        out = tmp_path / "o.csv"
        cfg = write(tmp_path / "run.cfg", f"output = {out}\n" + rates)
        assert main([command, "--config", cfg]) == 1
        captured = capsys.readouterr()
        assert captured.err == (f"error: column {column} is not finite at t = {first} "
                                "(its first such row); nothing was written\n")
        assert captured.out == "" and not out.exists()

    def test_non_finite_table_leaves_an_existing_output(self, tmp_path, capsys):
        # the refusal comes before the old output is replaced or truncated
        out = tmp_path / "o.csv"
        out.write_bytes(b"previous table\n")
        cfg = write(tmp_path / "run.cfg", f"output = {out}\n" + OVERFLOWING_RATES)
        assert main(["simulate", "--config", cfg]) == 1
        assert "nothing was written" in capsys.readouterr().err
        assert out.read_bytes() == b"previous table\n"

    @pytest.mark.parametrize("command, column", [("simulate", "shift"), ("shift", "shift_full")])
    def test_si_scaling_overflow_is_one_without_a_warning(self, tmp_path, capsys, command, column):
        # finite in atomic units (shift ~ -1e300); the SI factor overflows it
        out = tmp_path / "o.csv"
        cfg = write(tmp_path / "run.cfg", f"output = {out}\nomega21 = 1\na12 = 0.2\ngamma11 = 1e300\n"
                    "units = si\nt_start = -1\nt_end = 1\nstep = 0.5\n")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main([command, "--config", cfg]) == 1
        captured = capsys.readouterr()
        assert captured.err.startswith(f"error: column {column} is not finite at t = ")
        assert captured.out == "" and not out.exists()

    def test_overrides_reach_validation(self, tmp_path, capsys):
        out = tmp_path / "o.csv"
        cfg = write(tmp_path / "run.cfg", f"output = {out}\n" + CANONICAL_DYNAMICS)
        assert main(["simulate", "--config", cfg, "--set", "step=-0.5"]) == 1
        assert "'step' must be positive" in capsys.readouterr().err


def write_readme_configs(directory):
    """README's ``pair.cfg`` and ``run.cfg``, written into ``directory``."""
    (ini,) = re.findall(r"^```ini\n(.*?)^```", README.read_text(), flags=re.S | re.M)
    parts = re.split(r"^# (\S+\.cfg) .*\n", ini, flags=re.M)
    files = dict(zip(parts[1::2], parts[2::2]))
    assert sorted(files) == ["pair.cfg", "run.cfg"]
    for name, body in files.items():
        write(directory / name, body)


def test_readme_cli_block_runs_as_written(tmp_path, monkeypatch, capsys):
    # README's four commands on README's own config files, in a fresh directory
    text = README.read_text()
    monkeypatch.chdir(tmp_path)
    write_readme_configs(tmp_path)
    commands = re.findall(r"^quadbloch (\w+) +--config (\S+)", text, flags=re.M)
    assert [command for command, _ in commands] == ["coeffs", "simulate", "verify", "shift"]
    outputs = {}
    for command, cfg in commands:
        assert main([command, "--config", cfg]) == 0, (command, capsys.readouterr().err)
        outputs[command] = capsys.readouterr().out
    assert outputs["coeffs"] == README_PAIR_TABLE
    assert len(_cells((tmp_path / "run.csv").read_text().splitlines())) == 40001
    assert outputs["verify"].splitlines()[-1] == "overall: PASS"
    assert outputs["shift"].splitlines()[0] == "t,shift_full,shift_dipole_only,additional_shift,identity_residual"


def test_closed_stdout_ends_the_output_not_the_run(tmp_path):
    # ``quadbloch shift --config run.cfg | head -1``: the table (4.8 MB) is
    # far above a pipe buffer, so the writer meets the closed pipe mid-table
    write_readme_configs(tmp_path)
    env = dict(os.environ, PYTHONPATH=str(Path(cli.__file__).resolve().parents[1]))
    with subprocess.Popen([sys.executable, "-m", "quadbloch.cli", "shift", "--config", "run.cfg"],
                          cwd=tmp_path, env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE) as proc:
        assert proc.stdout.readline() == b"t,shift_full,shift_dipole_only,additional_shift,identity_residual\n"
        proc.stdout.close()
        assert proc.wait(timeout=120) == 0
        assert proc.stderr.read() == b""


@pytest.mark.skipif(not os.path.isdir("/proc/self/fd"), reason="counts descriptors in /proc/self/fd")
def test_closed_stdout_leaves_no_descriptor_open(tmp_path, monkeypatch):
    # in process, as the tests and the benchmark call main: each exit on a
    # closed stdout points its descriptor at os.devnull and keeps no other open
    write_readme_configs(tmp_path)
    monkeypatch.chdir(tmp_path)
    for _ in range(3):
        read_end, write_end = os.pipe()
        os.close(read_end)
        with open(write_end, "w") as stdout:
            monkeypatch.setattr(sys, "stdout", stdout)
            before = len(os.listdir("/proc/self/fd"))
            assert main(["coeffs", "--config", "pair.cfg"]) == 0
            assert len(os.listdir("/proc/self/fd")) == before
