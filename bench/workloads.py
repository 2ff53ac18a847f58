"""The four benchmark workloads: seeded input generators, ops and output checks.

Every workload is a closed loop with one client: the next op starts when
the previous one returns. Inputs come only from the seed, so the same seed
gives byte-identical config files (see ``files``). Ops are grouped in
blocks of fixed composition; the seed picks the concrete inputs inside each
slot of a block and the order of the slots. A run always measures whole
blocks, so every seed runs the same mix of work.

* ``pair-table`` -- ``quadbloch coeffs`` on hydrogen pairs with n <= 4:
  quadrature, hydrogenic and multipole; no integrator.
* ``decay-trace`` -- ``quadbloch simulate`` on the canonical 40,001-row
  explicit-rate run and seeded variants of the same length: integrator and
  the CSV writer; no quadrature.
* ``self-check`` -- ``quadbloch verify`` then ``quadbloch shift`` on one
  parameter set: the integrator used differently (several passes, no CSV),
  plus the closed form and the verification suite.
* ``nlevel-drive`` -- a fixed-length RK4 loop, written here, over
  ``multilevel_rhs`` on seeded driven N-level systems.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
import subprocess
import sys
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent

# CODATA 2018, for converting SI output back to atomic units.
ATOMIC_TIME_S = 2.4188843265857e-17
BOHR_RADIUS_M = 5.29177210903e-11
ELEMENTARY_CHARGE_C = 1.602176634e-19

LYMAN_ALPHA_A_PER_S = 6.268e8      # 2p -> 1s spontaneous rate, fixed nucleus
LYMAN_ALPHA_RTOL = 1e-4            # the reference value has four figures
MOMENT_RTOL, MOMENT_ATOL = 1e-9, 1e-12
TRAJECTORY_TOL = 1e-8
SHIFT_IDENTITY_TOL = 1e-12
NLEVEL_TOL = 1e-10

HYDROGEN_STATES = [(n, l, m) for n in range(1, 5) for l in range(n) for m in range(-l, l + 1)]


@dataclass
class Op:
    kind: str
    spec: dict = field(default_factory=dict)       # generated inputs, JSON-serialisable
    prepared: tuple = ()                           # program objects built from spec at set-up


def _num(x: float) -> str:
    return repr(float(x))


def _config(values: dict) -> str:
    return "".join(f"{key} = {value}\n" for key, value in values.items())


def _capture(call):
    """Run ``call()`` with stdout and stderr captured; returns (result, their text)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        result = call()
    return result, out.getvalue() + err.getvalue()


class Workload:
    name = ""
    blocks_generated = 8

    def __init__(self, seed: int):
        rng = np.random.default_rng(seed)
        self.blocks: list[list[Op]] = [self.block(rng, i) for i in range(self.blocks_generated)]
        self.workdir: Path | None = None
        self.observed: dict[str, list[float]] = {}

    def block(self, rng, index: int) -> list[Op]:
        raise NotImplementedError

    def ops(self):
        for block in self.blocks:
            yield from block

    def warmup_op(self) -> Op:
        """The untimed op run once before timing starts."""
        return self.blocks[0][0]

    def files(self) -> dict[str, bytes]:
        """Input files the ops read, keyed by file name."""
        return {}

    def prepare(self, workdir: Path):
        self.workdir = workdir
        for name, data in self.files().items():
            (workdir / name).write_bytes(data)

    def run(self, op: Op):
        raise NotImplementedError

    def check(self, op: Op, outcome) -> list[str]:
        raise NotImplementedError

    def observe(self, name: str, value: float):
        self.observed.setdefault(name, []).append(value)


class CliWorkload(Workload):
    """Ops that call ``quadbloch.cli.main`` in-process on generated configs."""

    def __init__(self, seed: int):
        super().__init__(seed)
        for index, op in enumerate(self.ops()):
            op.spec["config_file"] = f"{self.name}-{index:03d}.cfg"

    def files(self):
        return {op.spec["config_file"]: op.spec["config"].encode() for op in self.ops()}

    def cli(self, *argv):
        from quadbloch import cli
        return _capture(lambda: cli.main(list(argv)))

    def config_path(self, op: Op) -> str:
        return str(self.workdir / op.spec["config_file"])


# -- pair-table --------------------------------------------------------------

def _state_label(state) -> str:
    n, l, m = state
    return f"{n}{'spdf'[l]}{m:+d}"


def _pair_slots():
    """Slot name -> candidate (a, b) pairs; cost depends mostly on (l_a, l_b)."""
    pairs = [(a, b) for a in HYDROGEN_STATES for b in HYDROGEN_STATES if a[0] != b[0]]

    def select(ls, real):
        def keep(a, b):
            if tuple(sorted((a[1], b[1]))) != ls:
                return False
            if real:
                return a[2] == 0 and b[2] == 0
            # |dm| = 1 is what makes the current moments nonzero here
            return abs(a[2] - b[2]) == 1
        return [(a, b) for a, b in pairs if keep(a, b)]

    return {
        "lyman-alpha": [((2, 1, m), (1, 0, 0)) for m in (-1, 0, 1)],
        "dipole-pd": select((1, 2), True),
        "quadrupole-sd": select((0, 2), True),
        "quadrupole-pf": select((1, 3), True),
        "current-pd": select((1, 2), False),
        "current-df": select((2, 3), False),
    }


PAIR_SLOTS = _pair_slots()

_SI_FACTORS = {
    "D": ELEMENTARY_CHARGE_C * BOHR_RADIUS_M,
    "Q": ELEMENTARY_CHARGE_C * BOHR_RADIUS_M**2,
    "Delta": ELEMENTARY_CHARGE_C * BOHR_RADIUS_M**2 / ATOMIC_TIME_S,
    "delta": ELEMENTARY_CHARGE_C * BOHR_RADIUS_M / ATOMIC_TIME_S,
    "A": 1.0 / ATOMIC_TIME_S,
}
_AXES = "xyz"


def parse_coeffs(text: str) -> dict[str, complex]:
    values = {}
    for line in text.splitlines():
        if line.startswith("#") or not line.strip():
            continue
        name, value = line.split()
        values[name] = complex(value)
    return values


class PairTable(CliWorkload):
    """Each slot appears twice per block, once with ``k_max`` and once
    without; one of the two, chosen by the seed, asks for SI units."""

    name = "pair-table"

    def block(self, rng, index):
        ops = []
        for slot, candidates in PAIR_SLOTS.items():
            si_with_k_max = rng.random() < 0.5
            for with_k_max in (True, False):
                a, b = candidates[rng.integers(len(candidates))]
                units = "si" if with_k_max == si_with_k_max else "atomic"
                values = {"state_a": _state_label(a), "state_b": _state_label(b), "units": units}
                if with_k_max:
                    values["k_max"] = _num(round(rng.uniform(0.5, 5.0), 4))
                ops.append(Op(slot, {"pair": list(a) + list(b), "units": units,
                                     "config": _config(values)}))
        return [ops[i] for i in rng.permutation(len(ops))]

    def prepare(self, workdir):
        super().prepare(workdir)
        pairs = sorted({tuple(op.spec["pair"]) for op in self.ops()})
        done = subprocess.run([sys.executable, str(HERE / "reference.py")],
                              input=json.dumps(pairs), capture_output=True, text=True, check=True)
        self.references = json.loads(done.stdout)

    def run(self, op):
        return self.cli("coeffs", "--config", self.config_path(op))

    def check(self, op, outcome):
        code, text = outcome
        if code != 0:
            return [f"exit code {code}: {text.strip()[-200:]}"]
        values = parse_coeffs(text)
        si = op.spec["units"] == "si"

        def atomic(name):
            factor = _SI_FACTORS[name.split("_")[0]] if si else 1.0
            return values[name] / factor

        problems = []
        ref = self.references[",".join(map(str, op.spec["pair"]))]
        expected = {f"D_{_AXES[i]}": complex(*ref["D"][i]) for i in range(3)}
        expected.update({f"Q_{_AXES[i]}{_AXES[j]}": complex(*ref["Q"][i][j])
                         for i in range(3) for j in range(i, 3)})
        dropped = 0
        for name, want in expected.items():
            got = atomic(name)
            if si and got.imag == 0.0 and abs(want.imag) > MOMENT_ATOL:
                # Known defect, reported and not failed: SI output prints no
                # imaginary part below 1e-12 (1 + |re|), an absolute cut-off
                # that every SI moment is under. The real part is still checked.
                dropped += 1
                want = complex(want.real, 0.0)
            if abs(got - want) > max(MOMENT_RTOL * abs(want), MOMENT_ATOL):
                problems.append(f"{name} = {got} against reference {want}")
        self.observe("si_imag_dropped", dropped)

        a_state, b_state = op.spec["pair"][:3], op.spec["pair"][3:]
        if a_state[2] == 0 and b_state[2] == 0:
            for name in [f"Delta_{x}" for x in _AXES] + [f"delta_{x}{y}" for x in _AXES for y in _AXES]:
                if abs(atomic(name)) > MOMENT_ATOL:
                    problems.append(f"{name} = {atomic(name)} for a pair of real states")
        if a_state[:2] == [2, 1] and b_state == [1, 0, 0]:
            rate = atomic("A").real / ATOMIC_TIME_S
            if abs(rate - LYMAN_ALPHA_A_PER_S) > LYMAN_ALPHA_RTOL * LYMAN_ALPHA_A_PER_S:
                problems.append(f"A(2p -> 1s) = {rate:.6e}/s against {LYMAN_ALPHA_A_PER_S:.4e}/s")
        if ("k_max" in op.spec["config"]) != any(k.startswith("Gamma") for k in values):
            problems.append("Gamma line present without k_max or missing with it")
        return problems


# -- two-level parameter sets -------------------------------------------------

CANONICAL = {"omega21": 1.0, "a12": 0.2, "b12": 0.0, "c12": 0.0,
             "gamma11": 0.02, "gamma22": 0.0, "gamma12": -0.04, "t0": 0.0}


def derived(params: dict) -> tuple[float, float, float]:
    """Model composites (q, tau, lam) of a rate set."""
    q = 0.5 * (params["a12"] - 2.0 * params["b12"] + 2.0 * params["c12"])
    tau = 0.5 * (params["gamma11"] - params["gamma22"])
    lam = 0.5 * (params["gamma11"] + params["gamma22"]) - params["gamma12"]
    return q, tau, lam


def random_params(rng, q_sign: float) -> dict:
    """Rates with q = q_sign * U[0.05, 0.15]; q_sign = 0 gives q exactly 0."""
    q_sign = float(q_sign)
    r = lambda lo, hi: round(float(rng.uniform(lo, hi)), 6)
    tau, lam, g12 = r(-0.02, 0.02), r(0.02, 0.08) * float(rng.choice((-1.0, 1.0))), r(-0.05, 0.05)
    if q_sign == 0.0:
        # dyadic rates so that a12 - 2 b12 + 2 c12 is exactly 0 in floating point
        x, y = int(rng.integers(20, 100)) / 1024.0, int(rng.integers(0, 20)) / 1024.0
        a12, b12, c12 = 2.0 * x, x + y, y
    else:
        q, b12, c12 = q_sign * r(0.05, 0.15), r(0.0, 0.02), r(0.0, 0.02)
        a12 = round(2.0 * q + 2.0 * b12 - 2.0 * c12, 9)
    return {"omega21": r(0.5, 1.5), "a12": a12, "b12": b12, "c12": c12,
            "gamma11": round(lam + g12 + tau, 9), "gamma22": round(lam + g12 - tau, 9),
            "gamma12": g12, "t0": r(-3.0, 3.0)}


def closed_form(t, params: dict) -> np.ndarray:
    """Bloch vector (N, 3) through (1, 0, 0) at t0, written out independently.

    Pz = -tanh w, and Px - i Py = sech(w) exp(i phase) with w = q (t - t0),
    phase = (omega21 - tau)(t - t0) + (lam / q) ln cosh w.
    """
    q, tau, lam = derived(params)
    dt = np.asarray(t, dtype=float) - params["t0"]
    w = q * dt
    e = np.exp(-np.abs(w))
    sech = 2.0 * e / (1.0 + e * e)
    log_cosh = np.abs(w) + np.log1p(e * e) - math.log(2.0)
    phase = (params["omega21"] - tau) * dt + (lam / q) * log_cosh
    return np.stack([sech * np.cos(phase), -sech * np.sin(phase), -np.tanh(w)], axis=-1)


# -- decay-trace --------------------------------------------------------------

DECAY_SPAN = {"t_start": -20.0, "t_end": 20.0, "step": 1e-3}
DECAY_ROWS = 40001
WARMUP_SPAN = {"t_start": -1.0, "t_end": 1.0, "step": 1e-3}


class DecayTrace(CliWorkload):
    """One simulate per block; the canonical run opens every pool."""

    name = "decay-trace"
    blocks_generated = 12

    def __init__(self, seed):
        super().__init__(seed)
        # the canonical run over a twentieth of the span: the same code path
        # as every op, without spending a whole op's time before the timed loop
        self.warmup = Op("warmup", {"params": dict(CANONICAL),
                                    "config": self.config(CANONICAL, WARMUP_SPAN),
                                    "config_file": f"{self.name}-warmup.cfg"})

    @staticmethod
    def config(params, span):
        values = {key: _num(v) for key, v in params.items()}
        values.update({key: _num(v) for key, v in span.items()})
        return _config(values)

    def block(self, rng, index):
        params = dict(CANONICAL) if index == 0 else random_params(rng, rng.choice((-1.0, 1.0)))
        return [Op("canonical" if index == 0 else "variant", {"params": params,
                                                              "config": self.config(params, DECAY_SPAN)})]

    def files(self):
        return {**super().files(), self.warmup.spec["config_file"]: self.warmup.spec["config"].encode()}

    def warmup_op(self):
        return self.warmup

    def csv_path(self) -> str:
        return str(self.workdir / "trajectory.csv")

    def run(self, op):
        return self.cli("simulate", "--config", self.config_path(op), "--set", f"output={self.csv_path()}")

    def check(self, op, outcome):
        code, text = outcome
        if code != 0:
            return [f"exit code {code}: {text.strip()[-200:]}"]
        path = self.csv_path()
        with open(path) as fh:
            header = 0
            for line in fh:
                header += 1
                if not line.startswith("#"):
                    break
        # t, Px, Py, Pz, rho11, rho22, shift
        data = np.loadtxt(path, delimiter=",", skiprows=header, usecols=(0, 1, 2, 3, 4, 5, 10))
        self.observe("csv_bytes", os.path.getsize(path))
        problems = []
        if data.shape[0] != DECAY_ROWS:
            problems.append(f"{data.shape[0]} rows, expected {DECAY_ROWS}")
        t, bloch = data[:, 0], data[:, 1:4]
        exact = closed_form(t, op.spec["params"])
        columns = np.column_stack([bloch, data[:, 4], data[:, 5]])
        reference = np.column_stack([exact, 0.5 * (1.0 + exact[:, 2]), 0.5 * (1.0 - exact[:, 2])])
        worst = float(np.max(np.abs(columns - reference)))
        if not worst <= TRAJECTORY_TOL:
            problems.append(f"trajectory deviates from the closed form by {worst:.3e}")

        # Known defect, reported and not failed: the shift column should equal
        # the phase rate d/dt arg(Px - i Py) - omega21 of the same trajectory.
        phase = np.unwrap(np.angle(bloch[:, 0] - 1j * bloch[:, 1]))
        rate = np.gradient(phase, t, edge_order=2) - op.spec["params"]["omega21"]
        self.observe("shift_phase_mismatch", float(np.max(np.abs(data[:, 6] - rate))))
        return problems


# -- self-check ---------------------------------------------------------------

SELF_CHECK_SPAN = {"t_start": -10.0, "t_end": 10.0, "step": 2e-3}


class SelfCheck(CliWorkload):
    """verify + shift; each block has a decaying, a rising, a custom-start
    and a q = 0 parameter set, which skip different checks."""

    name = "self-check"

    def block(self, rng, index):
        ops = []
        for kind, q_sign in (("decay", 1.0), ("rise", -1.0),
                             ("custom-start", rng.choice((-1.0, 1.0))), ("no-decay", 0.0)):
            params = random_params(rng, q_sign)
            values = {key: _num(v) for key, v in params.items()}
            values.update({key: _num(v) for key, v in SELF_CHECK_SPAN.items()})
            if kind == "custom-start":
                v = rng.normal(size=3)
                v /= np.linalg.norm(v)
                values.update({"px0": _num(v[0]), "py0": _num(v[1]), "pz0": _num(v[2])})
            ops.append(Op(kind, {"params": params, "config": _config(values)}))
        return [ops[i] for i in rng.permutation(len(ops))]

    def run(self, op):
        path = self.config_path(op)
        return self.cli("verify", "--config", path), self.cli("shift", "--config", path)

    def check(self, op, outcome):
        (verify_code, report), (shift_code, table) = outcome
        problems = []
        if verify_code != 0 or "overall: PASS" not in report:
            problems.append(f"verify exit code {verify_code}:\n{report.strip()}")
        self.observe("checks_skipped", sum(line.rstrip().endswith(" skipped")
                                           for line in report.splitlines()))
        if shift_code != 0:
            return problems + [f"shift exit code {shift_code}: {table.strip()[-200:]}"]
        rows = table.splitlines()[1:]
        residual = max(abs(float(row.rsplit(",", 1)[1])) for row in rows)
        if not residual <= SHIFT_IDENTITY_TOL:
            problems.append(f"shift identity_residual {residual:.3e}")
        return problems


# -- nlevel-drive -------------------------------------------------------------

NLEVEL_SIZES = (3, 4, 6)
NLEVEL_STEPS = 250
NLEVEL_H = 0.05


class Drive:
    """Applied field A0(t) = amplitude * (cos wt, 0.5 sin wt, 0.2)."""

    def __init__(self, amplitude: float, frequency: float):
        self.amplitude, self.frequency = amplitude, frequency

    def __call__(self, t):
        wt = self.frequency * t
        return self.amplitude * np.array([math.cos(wt), 0.5 * math.sin(wt), 0.2])


def _complex_list(a) -> list:
    return np.stack([np.real(a), np.imag(a)], axis=-1).tolist()


class NLevelDrive(Workload):
    """One system of each size per block; a fixed 250-step RK4 per op."""

    name = "nlevel-drive"
    blocks_generated = 20

    def block(self, rng, index):
        ops = []
        for n in NLEVEL_SIZES:
            def antisymmetric(scale):
                m = rng.normal(0.0, scale, (n, n))
                return (m - m.T).tolist()
            gamma = rng.normal(0.0, 0.01, (n, n))
            dip = rng.normal(size=(n, n, 3)) + 1j * rng.normal(size=(n, n, 3))
            dip = 0.5 * (dip + np.conj(np.transpose(dip, (1, 0, 2))))
            psi = rng.normal(size=n) + 1j * rng.normal(size=n)
            psi /= np.linalg.norm(psi)
            ops.append(Op(f"n{n}", {
                "energies": np.sort(rng.uniform(-1.0, 0.0, n)).tolist(),
                "gamma": (gamma + gamma.T).tolist(),
                "a_rates": antisymmetric(1e-3), "b_rates": antisymmetric(1e-4),
                "c_rates": antisymmetric(1e-4),
                "dipoles": _complex_list(dip),
                "drive": [float(rng.uniform(0.2, 1.0)), float(rng.uniform(0.1, 1.0))],
                "rho0": _complex_list(np.outer(psi, np.conj(psi))),
            }))
        return [ops[i] for i in rng.permutation(len(ops))]

    def prepare(self, workdir):
        super().prepare(workdir)
        from quadbloch.multilevel import NLevelSystem

        def as_complex(a):
            a = np.asarray(a)
            return a[..., 0] + 1j * a[..., 1]

        for op in self.ops():
            s = op.spec
            system = NLevelSystem(
                energies=s["energies"], gamma=s["gamma"], a_rates=s["a_rates"],
                b_rates=s["b_rates"], c_rates=s["c_rates"], dipoles=as_complex(s["dipoles"]),
                drive=Drive(*s["drive"]))
            op.prepared = (system, as_complex(s["rho0"]))

    def run(self, op):
        from quadbloch import multilevel
        rhs, h = multilevel.multilevel_rhs, NLEVEL_H
        (system, rho), t = op.prepared, 0.0
        for _ in range(NLEVEL_STEPS):
            k1 = rhs(rho, system, t)
            k2 = rhs(rho + 0.5 * h * k1, system, t + 0.5 * h)
            k3 = rhs(rho + 0.5 * h * k2, system, t + 0.5 * h)
            k4 = rhs(rho + h * k3, system, t + h)
            rho = rho + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
            t += h
        return rho

    def check(self, op, rho):
        trace_error = abs(np.trace(rho) - 1.0)
        hermiticity = float(np.max(np.abs(rho - rho.conj().T)))
        if trace_error <= NLEVEL_TOL and hermiticity <= NLEVEL_TOL:
            return []
        return [f"trace error {trace_error:.3e}, Hermiticity error {hermiticity:.3e}"]


WORKLOADS = {cls.name: cls for cls in (PairTable, DecayTrace, SelfCheck, NLevelDrive)}
