"""Command-line front end: coefficient tables, simulations, verification.

    quadbloch coeffs   --config pair.cfg
    quadbloch simulate --config run.cfg  [--set key=value ...]
    quadbloch verify   --config run.cfg
    quadbloch shift    --config run.cfg

Exit codes: 0 on success, 1 on configuration or I/O errors, 2 when a
verification report fails.
"""

from __future__ import annotations

import argparse
import functools
import sys

import numpy as np

from . import constants
from .config import ConfigError, RunConfig, parse_config_with_overrides
from .hydrogenic import transition_frequency
from .integrator import StepSizeError, Trajectory, exact_trajectory, time_grid
from .integrator import integrate  # noqa: F401  # unused; bench/selftest.py checks the tracer rebinds it
from .multipole import transition_multipoles
from .twolevel import BlochVector, TwoLevelParams, additional_shift, frequency_shift
from .verification import run_checks

_COEFF_FMT = ".11e"        # 12 significant digits
_CSV_FMT = ".16e"          # 17 significant digits
_CSV_ROWS_PER_WRITE = 1024
_AXES = "xyz"


def _resolve_params(cfg: RunConfig) -> TwoLevelParams:
    """Two-level parameters from explicit rates or from a level pair.

    With a state pair, state_a plays the role of level 1 (the level that
    decays when the resulting q is positive) and state_b the role of level 2.
    The shift coefficients always come from the config (default 0).
    """
    if cfg.has_state_pair:
        rates = transition_multipoles(cfg.state_a, cfg.state_b).rates()
        omega21 = transition_frequency(cfg.state_b, cfg.state_a)
        a12, b12, c12 = rates.a_rate, rates.b_rate, rates.c_rate
    else:
        omega21 = cfg.omega21
        a12 = cfg.a12 if cfg.a12 is not None else 0.0
        b12 = cfg.b12 if cfg.b12 is not None else 0.0
        c12 = cfg.c12 if cfg.c12 is not None else 0.0
    return TwoLevelParams(
        omega21=omega21,
        gamma11=cfg.gamma11, gamma22=cfg.gamma22, gamma12=cfg.gamma12,
        a12=a12, b12=b12, c12=c12, t0=cfg.t0,
    )


def _fmt(value: float) -> str:
    return format(value, _COEFF_FMT)


def _fmt_complex(value: complex, factor: float = 1.0) -> str:
    """Format ``value * factor``, with its imaginary part when that part is
    significant in atomic units. The cut-off 1e-12 (1 + |re|) is set for
    moments of order one, so it is applied before the unit factor: an SI
    moment is far below it."""
    scaled = value * factor
    if abs(value.imag) > 1e-12 * (1.0 + abs(value.real)):
        return f"{scaled.real:{_COEFF_FMT}}{scaled.imag:+{_COEFF_FMT}}j"
    return format(scaled.real, _COEFF_FMT)


def run_coeffs(cfg: RunConfig, out=None) -> int:
    out = out or sys.stdout
    si = cfg.units == "si"
    data = transition_multipoles(cfg.state_a, cfg.state_b)
    rates = data.rates(cfg.k_max)

    freq_c = constants.PER_ATOMIC_TIME_S if si else 1.0
    dip_c = constants.DIPOLE_CM if si else 1.0
    quad_c = constants.QUADRUPOLE_CM2 if si else 1.0
    dvec_c = constants.DELTA_VEC_SI if si else 1.0
    dten_c = constants.DELTA_TENSOR_SI if si else 1.0

    print(f"# pair: {cfg.state_a.label()} -> {cfg.state_b.label()}   units: {cfg.units}", file=out)
    print(f"{'omega':16s} {_fmt(data.omega * freq_c)}", file=out)
    for i, axis in enumerate(_AXES):
        print(f"{'D_' + axis:16s} {_fmt_complex(data.dipole[i], dip_c)}", file=out)
    for i in range(3):
        for j in range(i, 3):
            name = f"Q_{_AXES[i]}{_AXES[j]}"
            print(f"{name:16s} {_fmt_complex(data.quadrupole[i, j], quad_c)}", file=out)
    for i, axis in enumerate(_AXES):
        print(f"{'Delta_' + axis:16s} {_fmt(data.delta_vec[i] * dvec_c)}", file=out)
    for k in range(3):
        for i in range(3):
            name = f"delta_{_AXES[k]}{_AXES[i]}"
            print(f"{name:16s} {_fmt(data.delta_tensor[k, i] * dten_c)}", file=out)
    print(f"{'A':16s} {_fmt(rates.a_rate * freq_c)}", file=out)
    print(f"{'B':16s} {_fmt(rates.b_rate * freq_c)}", file=out)
    print(f"{'C':16s} {_fmt(rates.c_rate * freq_c)}", file=out)
    if rates.gamma is not None:
        print(f"{f'Gamma(k_max={cfg.k_max:g})':16s} {_fmt(rates.gamma * freq_c)}", file=out)
    return 0


def _metadata_lines(cfg: RunConfig, p: TwoLevelParams, traj: Trajectory) -> list[str]:
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
        ("step", f"{traj.step:.17g}"),
        ("method", "exact_flow"),
    ]
    return [f"# {key} = {value}" for key, value in pairs]


def _write_csv_rows(fh, columns) -> None:
    """Write equal-length columns as rows of ``_CSV_FMT`` numbers joined by commas.

    One ``%`` template formats a row (the same text as ``format(x, _CSV_FMT)``
    per cell), and rows go out a block at a time, so the whole file is never
    held as one string.
    """
    template = ",".join(["%" + _CSV_FMT] * len(columns)) + "\n"
    for first in range(0, len(columns[0]), _CSV_ROWS_PER_WRITE):
        block = slice(first, first + _CSV_ROWS_PER_WRITE)
        rows = zip(*(col[block].tolist() for col in columns))
        fh.write("".join([template % row for row in rows]))


def run_simulate(cfg: RunConfig, out=None) -> int:
    """Write the exact flow sampled every ~``step`` (no numeric integration)."""
    p = _resolve_params(cfg)
    initial = BlochVector(*cfg.initial) if cfg.initial is not None else None
    traj = exact_trajectory(initial, p, cfg.t_start, cfg.t_end, cfg.step)

    si = cfg.units == "si"
    t_c = constants.ATOMIC_TIME_S if si else 1.0
    e_c = constants.HARTREE_J if si else 1.0
    d_c = constants.DIPOLE_CM if si else 1.0
    f_c = constants.PER_ATOMIC_TIME_S if si else 1.0

    columns = (
        traj.t * t_c, traj.bloch[:, 0], traj.bloch[:, 1], traj.bloch[:, 2],
        traj.rho11, traj.rho22, np.real(traj.rho12), np.imag(traj.rho12),
        traj.energy * e_c, traj.dipole * d_c, traj.shift * f_c,
    )
    with open(cfg.output, "w", newline="") as fh:
        fh.write("# quadbloch simulate\n")
        for line in _metadata_lines(cfg, p, traj):
            fh.write(line + "\n")
        fh.write("t,Px,Py,Pz,rho11,rho22,re_rho12,im_rho12,energy,dipole,shift\n")
        _write_csv_rows(fh, columns)
    return 0


def run_verify(cfg: RunConfig, out=None, flip_rotation: bool = False) -> int:
    out = out or sys.stdout
    p = _resolve_params(cfg)
    initial = BlochVector(*cfg.initial) if cfg.initial is not None else None
    report, _ = run_checks(p, cfg.t_start, cfg.t_end, cfg.step,
                           initial=initial, flip_rotation=flip_rotation)
    print(report.format(), file=out)
    return 0 if report.passed else 2


def run_shift(cfg: RunConfig, out=None) -> int:
    out = out or sys.stdout
    p = _resolve_params(cfg)
    dipole_only = p.dipole_only()
    freq_c = constants.PER_ATOMIC_TIME_S if cfg.units == "si" else 1.0
    t_c = constants.ATOMIC_TIME_S if cfg.units == "si" else 1.0

    times, _ = time_grid(cfg.t_start, cfg.t_end, cfg.step)
    full = frequency_shift(times, p)
    base = frequency_shift(times, dipole_only)
    extra = additional_shift(times, p)
    print("t,shift_full,shift_dipole_only,additional_shift,identity_residual", file=out)
    _write_csv_rows(out, (times * t_c, full * freq_c, base * freq_c, extra * freq_c,
                          (full - base - extra) * freq_c))
    return 0


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="quadbloch",
        description="Two-level radiative decay with quadrupole-corrected frequency chirp",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, help_text in (
        ("coeffs", "print transition moments and coupling rates for a level pair"),
        ("simulate", "write the exact Bloch trajectory as CSV"),
        ("verify", "run the invariant checks at the configured parameters"),
        ("shift", "tabulate the frequency-shift decomposition along the default closed form "
                   "(px0/py0/pz0 are not read)"),
    ):
        cmd = sub.add_parser(name, help=help_text)
        cmd.add_argument("--config", required=True, help="path to a key=value config file")
        cmd.add_argument("--set", action="append", default=[], dest="overrides",
                         metavar="KEY=VALUE", help="override a config key (repeatable)")
        if name == "verify":
            cmd.add_argument("--debug-flip-rotation", action="store_true",
                             help="negative control: corrupt the rotation sign in the residual check")
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        with open(args.config) as fh:
            text = fh.read()
        cfg = parse_config_with_overrides(text, args.overrides, default_mode=args.command)
        if cfg.mode != args.command:
            raise ConfigError(f"config mode '{cfg.mode}' does not match command '{args.command}'")
        if args.command == "coeffs":
            return run_coeffs(cfg)
        if args.command == "simulate":
            return run_simulate(cfg)
        if args.command == "verify":
            return run_verify(cfg, flip_rotation=args.debug_flip_rotation)
        return run_shift(cfg)
    except (ConfigError, StepSizeError, OSError, OverflowError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
