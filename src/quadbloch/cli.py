"""Command-line front end: coefficient tables, simulations, verification.

    quadbloch coeffs   --config pair.cfg [--set key=value ...]
    quadbloch simulate --config run.cfg  [--set key=value ...]
    quadbloch verify   --config run.cfg  [--set key=value ...]
    quadbloch shift    --config run.cfg  [--set key=value ...]

Exit codes: 0 on success, 1 on usage, configuration or I/O errors, 2 when a
verification report fails. A reader that closes stdout early (``| head``)
ends the output, not the run: the command exits with the code it had
reached, with nothing on stderr.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import os
import sys
from dataclasses import replace

import numpy as np

from . import constants
from .config import ConfigError, RunConfig, parse_config_with_overrides
from .csvformat import write_table
from .hydrogenic import transition_frequency
from .integrator import StepSizeError, Trajectory, exact_trajectory, time_grid
from .integrator import integrate  # noqa: F401  # unused; bench/selftest.py checks the tracer rebinds it
from .multipole import transition_multipoles
from .twolevel import TwoLevelParams, _flow_anchor, _shift, additional_shift, bloch_to_density, frequency_shift
from .verification import run_checks

_COEFF_FMT = ".11e"        # 12 significant digits
_AXES = "xyz"


def _resolve_params(cfg: RunConfig) -> TwoLevelParams:
    """Two-level parameters from explicit rates or from a level pair.

    With a state pair, state_a plays the role of level 1 (the level that
    decays when the resulting q is positive) and state_b the role of level 2;
    omega21 and the rates come from the pair. The shift coefficients and t0
    always come from the config (default 0).
    """
    if not cfg.has_state_pair:
        return cfg.params
    rates = transition_multipoles(cfg.state_a, cfg.state_b).rates()
    return replace(cfg.params, omega21=transition_frequency(cfg.state_b, cfg.state_a),
                   a12=rates.a_rate, b12=rates.b_rate, c12=rates.c_rate)


def _fmt(value: float) -> str:
    return format(value + 0.0, _COEFF_FMT)    # -0.0 + 0.0 is 0.0: the sign of a zero is not written


def _fmt_complex(value: complex, factor: float = 1.0) -> str:
    """Format ``value * factor``, with its imaginary part when that part is
    significant in atomic units. The cut-off 1e-12 (1 + |re|) is set for
    moments of order one, so it is applied before the unit factor: an SI
    moment is far below it."""
    scaled = value * factor
    if abs(value.imag) > 1e-12 * (1.0 + abs(value.real)):
        return f"{_fmt(scaled.real)}{scaled.imag:+{_COEFF_FMT}}j"
    return _fmt(scaled.real)


def run_coeffs(cfg: RunConfig) -> int:
    si = cfg.units == "si"
    data = transition_multipoles(cfg.state_a, cfg.state_b)
    rates = data.rates()

    freq_c = constants.PER_ATOMIC_TIME_S if si else 1.0
    dip_c = constants.DIPOLE_CM if si else 1.0
    quad_c = constants.QUADRUPOLE_CM2 if si else 1.0
    dvec_c = constants.DELTA_VEC_SI if si else 1.0
    dten_c = constants.DELTA_TENSOR_SI if si else 1.0

    # Python scalars format to the same bytes as numpy's, at a fraction of the cost
    dipole = data.dipole.tolist()
    quadrupole = data.quadrupole.tolist()
    delta_vec = data.delta_vec.tolist()
    delta_tensor = data.delta_tensor.tolist()

    rows = [("omega", _fmt(data.omega * freq_c))]
    rows += [("D_" + axis, _fmt_complex(value, dip_c)) for axis, value in zip(_AXES, dipole)]
    rows += [("Q_" + _AXES[i] + _AXES[j], _fmt_complex(quadrupole[i][j], quad_c))
             for i in range(3) for j in range(i, 3)]
    rows += [("Delta_" + axis, _fmt(value * dvec_c)) for axis, value in zip(_AXES, delta_vec)]
    rows += [("delta_" + _AXES[k] + _AXES[i], _fmt(delta_tensor[k][i] * dten_c))
             for k in range(3) for i in range(3)]
    rows += [("A", _fmt(rates.a_rate * freq_c)), ("B", _fmt(rates.b_rate * freq_c)),
             ("C", _fmt(rates.c_rate * freq_c))]
    if cfg.k_max is not None:
        rows.append((f"Gamma(k_max={cfg.k_max + 0.0:g})", _fmt(data.gamma(cfg.k_max) * freq_c)))
    for label, text in rows:
        # a finite float formats as digits, sign, point and exponent: "inf" or "nan" is the only word
        if "inf" in text or "nan" in text:
            raise ValueError(f"line {label} is {text} in {cfg.units} units; nothing was written")
    lines = [f"# pair: {cfg.state_a.label()} -> {cfg.state_b.label()}   units: {cfg.units}"]
    lines += [f"{label:16s} {text}" for label, text in rows]
    with _stdout() as out:
        print("\n".join(lines), file=out)
    return 0


def _metadata_lines(cfg: RunConfig, p: TwoLevelParams, traj: Trajectory) -> list[str]:
    start, at = _flow_anchor(p, cfg.t_start, cfg.initial)
    pairs = [
        ("units", cfg.units),
        ("omega21", f"{p.omega21:.17g}"),
        ("gamma11", f"{p.gamma11:.17g}"),
        ("gamma22", f"{p.gamma22:.17g}"),
        ("gamma12", f"{p.gamma12:.17g}"),
        ("a12", f"{p.a12:.17g}"),
        ("b12", f"{p.b12:.17g}"),
        ("c12", f"{p.c12:.17g}"),
        ("q", f"{p.q:.17g}"),
        ("tau", f"{p.tau:.17g}"),
        ("lambda", f"{p.lam:.17g}"),
        ("t0", f"{p.t0:.17g}"),
        ("t_start", f"{cfg.t_start:.17g}"),
        ("t_end", f"{cfg.t_end:.17g}"),
        ("start", ", ".join(f"{v:.17g}" for v in start)),
        ("start_time", f"{at:.17g}"),
        ("step", f"{traj.step:.17g}"),
        ("method", "exact_flow"),
    ]
    return [f"# {key} = {value}" for key, value in pairs]


def _csv_columns(traj: Trajectory, si: bool = False) -> dict[str, np.ndarray]:
    """The CSV's columns by header name, derived from the Bloch samples.

    The energy zero lies midway between the levels (E2 = -E1 = omega21/2),
    and the dipole is Px, the projection on a unit transition dipole. A unit
    factor may overflow a cell to inf; ``_require_finite`` refuses it.
    """
    t_c, e_c, d_c, f_c = ((constants.ATOMIC_TIME_S, constants.HARTREE_J, constants.DIPOLE_CM,
                           constants.PER_ATOMIC_TIME_S) if si else (1.0, 1.0, 1.0, 1.0))
    p, (px, py, pz) = traj.params, traj.bloch.T
    rho11, rho22, rho12 = bloch_to_density(traj.bloch.T)
    with np.errstate(over="ignore"):
        return {"t": traj.t * t_c, "Px": px, "Py": py, "Pz": pz, "rho11": rho11, "rho22": rho22,
                "re_rho12": rho12.real, "im_rho12": rho12.imag, "energy": (-0.5 * p.omega21 * pz) * e_c,
                "dipole": px * d_c, "shift": _shift(p, pz) * f_c}


def _require_finite(columns: dict[str, np.ndarray]) -> None:
    """Refuse, before anything is written, a table with a nan or inf cell;
    the row is named by its own ``t`` cell, in the table's units."""
    for name, col in columns.items():
        bad = ~np.isfinite(col)
        if bad.any():
            raise ValueError(f"column {name} is not finite at t = {columns['t'][bad.argmax()]:.17g} "
                             "(its first such row); nothing was written")


@contextlib.contextmanager
def _stdout():
    """Yield stdout and flush it on exit. A reader that closed it early ends
    the output, not the run: fd 1 is pointed at os.devnull, so the
    interpreter's own flush at exit finds nowhere to fail."""
    try:
        yield sys.stdout
        sys.stdout.flush()
    except BrokenPipeError:
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)


def run_simulate(cfg: RunConfig) -> int:
    """Write the exact flow sampled every ~``step`` (no numeric integration)."""
    p = _resolve_params(cfg)
    traj = exact_trajectory(cfg.initial, p, cfg.t_start, cfg.t_end, cfg.step)
    columns = _csv_columns(traj, cfg.units == "si")
    _require_finite(columns)
    with open(cfg.output, "w", newline="") as fh:
        fh.write("# quadbloch simulate\n")
        for line in _metadata_lines(cfg, p, traj):
            fh.write(line + "\n")
        write_table(fh, columns)
    return 0


def run_verify(cfg: RunConfig) -> int:
    report, _ = run_checks(_resolve_params(cfg), cfg.t_start, cfg.t_end, cfg.step, initial=cfg.initial)
    with _stdout() as out:
        print(report.format(), file=out)
    return 0 if report.passed else 2


def run_shift(cfg: RunConfig) -> int:
    p = _resolve_params(cfg)
    dipole_only = p.dipole_only()
    freq_c = constants.PER_ATOMIC_TIME_S if cfg.units == "si" else 1.0
    t_c = constants.ATOMIC_TIME_S if cfg.units == "si" else 1.0

    start = (cfg.initial, cfg.t_start)
    times, _ = time_grid(cfg.t_start, cfg.t_end, cfg.step)
    full = frequency_shift(times, p, *start)
    base = frequency_shift(times, dipole_only, *start)
    extra = additional_shift(times, p, *start)
    with np.errstate(over="ignore"):    # an SI cell past float range is refused just below
        columns = {"t": times * t_c, "shift_full": full * freq_c, "shift_dipole_only": base * freq_c,
                   "additional_shift": extra * freq_c, "identity_residual": (full - base - extra) * freq_c}
    _require_finite(columns)
    with _stdout() as out:
        write_table(out, columns)
    return 0


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # a usage error exits 1, since 2 means a failed check
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="quadbloch",
        description="Two-level radiative decay with quadrupole-corrected frequency chirp",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, help_text in (
        ("coeffs", "print transition moments and coupling rates for a level pair"),
        ("simulate", "write the exact Bloch trajectory as CSV"),
        ("verify", "run the invariant checks at the configured parameters"),
        ("shift", "tabulate the frequency-shift decomposition along the run's own trajectory"),
    ):
        cmd = sub.add_parser(name, help=help_text)
        cmd.add_argument("--config", required=True, help="path to a key=value config file")
        cmd.add_argument("--set", action="append", default=[], dest="overrides",
                         metavar="KEY=VALUE", help="override a config key (repeatable)")
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        with open(args.config) as fh:
            text = fh.read()
        cfg = parse_config_with_overrides(text, args.overrides, args.command)
        if args.command == "coeffs":
            return run_coeffs(cfg)
        if args.command == "simulate":
            return run_simulate(cfg)
        if args.command == "verify":
            return run_verify(cfg)
        return run_shift(cfg)
    except (ConfigError, StepSizeError, OSError, OverflowError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
