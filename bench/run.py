"""quadbloch benchmark: one workload, one seed, one closed-loop client.

    python3 bench/run.py --workload pair-table --seed 1 --seconds 22 --trace 0

Run from the root of a source checkout; the package is imported from its
``src/``. Set-up (timed separately as ``setup_s``, the median of several
fresh interpreters importing ``quadbloch.cli``, see ``measure_setup``),
then input generation, then one untimed warm-up op
(``Workload.warmup_op``), then whole blocks of ops until ``--seconds``
have passed. Every op's output is checked; an op fails on a nonzero exit,
an exception or a failed check. Op times are scaled to a reference machine
speed (see ``SpeedGauge``).

``--trace 0`` prints the end-to-end metrics. ``--trace 1`` runs every op
twice, traced and untraced in alternating order, prints the per-layer
metrics of the traced runs and writes the spans to
``.bench_out/trace-<workload>-seed<seed>.json``. The last line of stdout is
the JSON result; a summary goes to stderr.
"""

from __future__ import annotations

import argparse
import itertools
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import numpy as np

from tracer import ROOT_SPAN, Tracer
from workloads import WORKLOADS

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SETUP_REPEATS = 5
SETUP_KERNELS = 3
CALIBRATION_INTERVAL_S = 0.5
CALIBRATION_SHARE = 0.1
CALIBRATION_REFERENCE_S = 0.031    # kernel time on the machine in baseline.json

LAYERS = ("quadrature", "hydrogenic", "multipole", "integrator", "twolevel",
          "verification", "multilevel", "cli", "config")

# name -> (unit, better); keep in step with BENCHMARK.json
END_TO_END = {
    "setup_s": ("s", "lower"),
    "op_latency_p50_s": ("s", "lower"),
    "ops_per_s": ("1/s", "higher"),
    "peak_rss_mb": ("MiB", "lower"),
}

PER_LAYER = {
    "quadrature.grid_for_pair.calls": ("count/op", "lower"),
    "quadrature.grid_points": ("count", "lower"),
    "quadrature.grid_for_pair.self_s": ("s/op", "lower"),
    "hydrogenic.eigenstate_eval.calls": ("count/op", "lower"),
    "hydrogenic.eigenstate_eval.points": ("count/op", "lower"),
    "hydrogenic.eigenstate_eval.self_s": ("s/op", "lower"),
    "multipole.transition_multipoles.self_s": ("s/op", "lower"),
    "multipole.coupling_rates.self_s": ("s/op", "lower"),
    "multipole.gamma_estimate.self_s": ("s/op", "lower"),
    "multipole.grid_evals_per_op": ("count/op", "lower"),
    "multipole.useful_eval_ratio": ("ratio", "higher"),
    "integrator.integrate.calls": ("count/op", "lower"),
    "integrator.integrate.self_s": ("s/op", "lower"),
    "integrator.rk4_steps": ("count/op", "lower"),
    "integrator.steps_per_s": ("1/s", "higher"),
    "twolevel.analytic_bloch.calls": ("count/op", "lower"),
    "twolevel.analytic_bloch.self_s": ("s/op", "lower"),
    "twolevel.frequency_shift.calls": ("count/op", "lower"),
    "twolevel.frequency_shift.self_s": ("s/op", "lower"),
    "twolevel.additional_shift.calls": ("count/op", "lower"),
    "twolevel.additional_shift.self_s": ("s/op", "lower"),
    "verification.run_checks.self_s": ("s/op", "lower"),
    "verification.checks_skipped": ("count/op", "lower"),
    "multilevel.multilevel_rhs.calls": ("count/op", "lower"),
    "multilevel.multilevel_rhs.self_s": ("s/op", "lower"),
    "multilevel.rhs_per_s": ("1/s", "higher"),
    "cli.run_simulate.self_s": ("s/op", "lower"),
    "cli.csv_bytes": ("B/op", "lower"),
    "cli.csv_bytes_per_s": ("B/s", "higher"),
    "cli.run_shift.self_s": ("s/op", "lower"),
    "cli.run_coeffs.self_s": ("s/op", "lower"),
    "cli.shift_phase_mismatch": ("1/time_au", "lower"),
    "cli.si_imag_dropped": ("count/op", "lower"),
    "config.parse.self_s": ("s/op", "lower"),
    **{f"layer.{layer}.self_s": ("s/op", "lower") for layer in LAYERS},
    "trace.op_s": ("s/op", "lower"),
    "trace.unattributed_s": ("s/op", "lower"),
    "trace.overhead_ratio": ("ratio", "lower"),
}


class SpeedGauge:
    """Machine speed over a run, sampled with a fixed kernel between ops.

    On a shared host, neighbouring load changes how fast this process runs
    by up to ~1.8x over minutes, for the program and for any fixed kernel
    alike. Op times are therefore scaled to a reference speed: a run's wall
    times are multiplied by CALIBRATION_REFERENCE_S over the median kernel
    time of the run. The kernel mixes a pure Python float loop, large-array
    numpy and float formatting, like the program's layers. Before an op,
    once CALIBRATION_INTERVAL_S has passed since the last sample, the
    kernel runs for about CALIBRATION_SHARE of that time, so the samples
    cover the whole run evenly.
    """

    def __init__(self):
        self.array = np.random.default_rng(0).normal(size=200_000)
        self.times: list[float] = []
        self.taken_at = time.perf_counter()

    def kernel(self) -> float:
        start = time.perf_counter()
        x, y = 0.0, 1.0
        for _ in range(100_000):
            x = x * 0.5 + y * 1e-3
            y = y - x * 1e-4
        for _ in range(10):
            float(np.sum(np.exp(self.array) * self.array))
        ",".join(format(v, ".16e") for v in self.array[:8000])
        return time.perf_counter() - start

    def sample(self):
        since = time.perf_counter() - self.taken_at
        runs = max(1, round(CALIBRATION_SHARE * since / CALIBRATION_REFERENCE_S))
        self.times.extend(self.kernel() for _ in range(runs))
        self.taken_at = time.perf_counter()

    def sample_if_due(self):
        if time.perf_counter() - self.taken_at >= CALIBRATION_INTERVAL_S:
            self.sample()

    def median(self) -> float:
        return statistics.median(self.times)

    def scale(self) -> float:
        """Factor that takes this run's wall times to the reference speed."""
        return CALIBRATION_REFERENCE_S / self.median()


def measure_setup(gauge: SpeedGauge, repeats: int = SETUP_REPEATS) -> float:
    """Median wall time of a fresh interpreter importing quadbloch.cli,
    scaled to the reference speed.

    The gauge kernel runs SETUP_KERNELS times before each import and after
    the last, and the median import time is scaled by the median of those
    samples. They are taken within a second of the imports, so they track
    the host's speed at that moment; the run's own gauge median, taken over
    the op loop, did not (scaling by it doubled the spread of run medians).
    The median also drops the one slow first import of a checkout that has
    no bytecode cache yet.
    """
    env = dict(os.environ, PYTHONPATH=str(SRC))
    cmd = [sys.executable, "-c", "import quadbloch.cli"]
    times, kernels = [], []
    for _ in range(repeats):
        kernels += [gauge.kernel() for _ in range(SETUP_KERNELS)]
        start = time.perf_counter()
        subprocess.run(cmd, env=env, cwd=ROOT, check=True)
        times.append(time.perf_counter() - start)
    kernels += [gauge.kernel() for _ in range(SETUP_KERNELS)]
    return statistics.median(times) * CALIBRATION_REFERENCE_S / statistics.median(kernels)


class Run:
    """Timed closed loop over a workload's blocks."""

    def __init__(self, workload, seconds: float, gauge: SpeedGauge, tracer=None):
        self.workload, self.seconds, self.gauge, self.tracer = workload, seconds, gauge, tracer
        self.latencies: list[float] = []          # untraced ops
        self.traced_latencies: list[float] = []
        self.attempted = 0
        self.problems: list[str] = []

    def one(self, op, op_id: int, traced: bool):
        self.attempted += 1
        run = lambda: self.workload.run(op)
        try:
            if traced:
                self.tracer.install()
                try:
                    start = time.perf_counter()
                    outcome = self.tracer.run_op(op_id, run)
                    elapsed = time.perf_counter() - start
                finally:
                    self.tracer.uninstall()
                self.traced_latencies.append(elapsed)
            else:
                self.gauge.sample_if_due()
                start = time.perf_counter()
                outcome = run()
                self.latencies.append(time.perf_counter() - start)
            problems = self.workload.check(op, outcome)
        except Exception as exc:   # a raising op is a failed op; the loop goes on
            problems = [f"{type(exc).__name__}: {exc}"]
        if problems:
            self.problems.append(f"{op.kind} op {op_id}: " + "; ".join(problems))

    def loop(self):
        start = time.perf_counter()
        op_id = 0
        for block in itertools.cycle(self.workload.blocks):
            for op in block:
                if self.tracer is None:
                    self.one(op, op_id, False)
                else:
                    for traced in ((False, True) if op_id % 2 == 0 else (True, False)):
                        self.one(op, op_id, traced)
                op_id += 1
            if time.perf_counter() - start >= self.seconds:
                break
        self.gauge.sample()

def end_to_end(run: Run, setup_s: float) -> dict[str, float]:
    scale = run.gauge.scale()
    lat = [t * scale for t in run.latencies]
    return {
        "setup_s": setup_s,
        "op_latency_p50_s": statistics.median(lat),
        "ops_per_s": len(lat) / sum(lat),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def per_layer(run: Run) -> dict[str, float]:
    tracer, observed = run.tracer, run.workload.observed
    n = len(run.traced_latencies)
    calls, self_s, work, inclusive = {}, {}, {}, {}
    for span, own in zip(tracer.spans, tracer.self_times()):
        calls[span.name] = calls.get(span.name, 0) + 1
        self_s[span.name] = self_s.get(span.name, 0.0) + own
        work[span.name] = work.get(span.name, 0) + span.work
        inclusive[span.name] = inclusive.get(span.name, 0.0) + span.end - span.start
    for (_, name), (count, own) in tracer.counters.items():
        calls[name] = calls.get(name, 0) + count
        self_s[name] = self_s.get(name, 0.0) + own

    def ratio(a, b):
        return a / b if b else 0.0

    out = {}
    for metric in PER_LAYER:
        base, _, kind = metric.rpartition(".")
        if kind == "calls":
            out[metric] = calls.get(base, 0) / n
        elif kind == "self_s" and not metric.startswith("layer."):
            out[metric] = self_s.get(base, 0.0) / n
    for layer in LAYERS:
        out[f"layer.{layer}.self_s"] = sum(v for k, v in self_s.items()
                                           if k.split(".")[0] == layer) / n
    grids = calls.get("quadrature.grid_for_pair", 0)
    out["quadrature.grid_points"] = ratio(work.get("quadrature.grid_for_pair", 0), grids)
    out["hydrogenic.eigenstate_eval.points"] = work.get("hydrogenic.eigenstate_eval", 0) / n
    out["multipole.grid_evals_per_op"] = grids / n
    # one distinct pair per coeffs op
    pair_ops = calls.get("cli.run_coeffs", 0)
    out["multipole.useful_eval_ratio"] = ratio(pair_ops, grids)
    steps = work.get("integrator.integrate", 0)
    out["integrator.rk4_steps"] = steps / n
    out["integrator.steps_per_s"] = ratio(steps, inclusive.get("integrator.integrate", 0.0))
    out["verification.checks_skipped"] = statistics.fmean(observed.get("checks_skipped", [0]))
    out["multilevel.rhs_per_s"] = ratio(calls.get("multilevel.multilevel_rhs", 0),
                                        self_s.get("multilevel.multilevel_rhs", 0.0))
    # every op is checked, traced or not; bytes per op times traced simulate calls
    out["cli.csv_bytes"] = statistics.fmean(observed.get("csv_bytes", [0]))
    out["cli.csv_bytes_per_s"] = ratio(out["cli.csv_bytes"] * calls.get("cli.run_simulate", 0),
                                       self_s.get("cli.run_simulate", 0.0))
    out["cli.shift_phase_mismatch"] = max(observed.get("shift_phase_mismatch", [0.0]))
    out["cli.si_imag_dropped"] = statistics.fmean(observed.get("si_imag_dropped", [0]))
    out["trace.op_s"] = statistics.fmean(run.traced_latencies)
    out["trace.unattributed_s"] = self_s.get(ROOT_SPAN, 0.0) / n
    out["trace.overhead_ratio"] = sum(run.traced_latencies) / sum(run.latencies)
    return {name: out[name] for name in PER_LAYER}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=list(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "quadbloch" / "cli.py").is_file():
        print(f"error: no quadbloch sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import quadbloch
    if Path(quadbloch.__file__).resolve().parent != SRC / "quadbloch":
        print(f"error: imported quadbloch from {quadbloch.__file__}, not {SRC}", file=sys.stderr)
        return 2

    setup_s = measure_setup(SpeedGauge())
    gauge = SpeedGauge()
    workload = WORKLOADS[args.workload](args.seed)
    (ROOT / ".bench_work").mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=ROOT / ".bench_work"))
    try:
        workload.prepare(workdir)
        warmup = workload.warmup_op()
        try:
            workload.check(warmup, workload.run(warmup))
        except Exception:   # not counted: the loop checks and counts every op it runs
            pass
        workload.observed.clear()
        run = Run(workload, args.seconds, gauge, Tracer() if args.trace else None)
        run.loop()
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    if args.trace:
        metrics, units = per_layer(run), PER_LAYER
        out_dir = ROOT / ".bench_out"
        out_dir.mkdir(exist_ok=True)
        run.tracer.dump(out_dir / f"trace-{args.workload}-seed{args.seed}.json")
    else:
        metrics, units = end_to_end(run, setup_s), END_TO_END

    failed = len(run.problems)
    lat = run.latencies
    summary = (f"{args.workload} seed {args.seed}: {len(lat)} untraced + {len(run.traced_latencies)} "
               f"traced ops, op_fail_ratio {failed}/{run.attempted}; unscaled "
               f"op_latency_p50_s {statistics.median(lat):.4g}; gauge median {gauge.median():.4g} s")
    if len(lat) >= 100:
        p90 = statistics.quantiles(lat, n=10)[-1] * gauge.scale()
        summary += f"; op_latency_p90_s {p90:.4g}"
    print(summary, file=sys.stderr)
    # known defects, measured on every run but not counted as failed ops
    if "shift_phase_mismatch" in workload.observed:
        print(f"  known defect: shift column off the phase rate by up to "
              f"{max(workload.observed['shift_phase_mismatch']):.4g}", file=sys.stderr)
    if "si_imag_dropped" in workload.observed:
        dropped = workload.observed["si_imag_dropped"]
        print(f"  known defect: SI output dropped {sum(dropped)} imaginary parts "
              f"in {sum(1 for d in dropped if d)} of {len(dropped)} ops", file=sys.stderr)
    for problem in run.problems[:10]:
        print("  " + problem, file=sys.stderr)

    print(json.dumps({
        "correct": failed == 0,
        "attempted": run.attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name][0]} for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
