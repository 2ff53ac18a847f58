"""Fast tests of the benchmark's own code. Not collected by the package's
test run (the file name does not match ``test_*.py``); run them with

    python3 -m pytest -q bench/selftest.py
"""

from __future__ import annotations

import json
import math
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import workloads  # noqa: E402
from tracer import Tracer  # noqa: E402


@pytest.mark.parametrize("params", [
    workloads.CANONICAL,
    {"omega21": 0.7, "a12": -0.25, "b12": 0.01, "c12": 0.02,
     "gamma11": 0.05, "gamma22": -0.03, "gamma12": 0.01, "t0": 1.5},
])
def test_closed_form_matches_analytic_bloch(params):
    from quadbloch import TwoLevelParams, analytic_bloch
    p = TwoLevelParams(**params)
    times = np.array([-20.0, -3.3, 0.0, 0.4, 7.0, 20.0])
    mine = workloads.closed_form(times, params)
    theirs = np.array([analytic_bloch(t, p) for t in times])
    np.testing.assert_allclose(mine, theirs, rtol=0, atol=1e-13)


def test_tracer_self_time_on_nested_calls():
    now = [0.0]

    def advance(dt):
        now[0] += dt

    tracer = Tracer(clock=lambda: now[0])
    leaf = tracer.counted("leaf", lambda: advance(0.5))

    def inner_body():
        advance(2.0)
        leaf()
        leaf()

    inner = tracer.span("inner", inner_body)

    def outer_body():
        advance(1.0)
        inner()
        leaf()
        advance(3.0)

    outer = tracer.span("outer", outer_body)
    tracer.run_op(7, lambda: (advance(0.25), outer()))

    names = [s.name for s in tracer.spans]
    assert names == ["op", "outer", "inner"]
    assert [s.parent for s in tracer.spans] == [None, 0, 1]
    assert {s.op for s in tracer.spans} == {7}
    assert tracer.self_times() == [0.25, 4.0, 2.0]
    assert tracer.spans[0].end - tracer.spans[0].start == 7.75
    assert dict(tracer.counters) == {(7, "leaf"): [3, 1.5]}


def test_tracer_install_restores_every_binding():
    from quadbloch import cli, integrator, verification
    originals = (integrator.integrate, verification.integrate, cli.integrate, cli.main)
    tracer = Tracer()
    tracer.install()
    try:
        assert verification.integrate is not originals[1]
        assert cli.integrate is not originals[2]
    finally:
        tracer.uninstall()
    assert (integrator.integrate, verification.integrate, cli.integrate, cli.main) == originals


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_generators_are_deterministic(name):
    cls = workloads.WORKLOADS[name]
    first, second, other = cls(11), cls(11), cls(12)

    def dump(w):
        specs = json.dumps([[op.spec for op in block] for block in w.blocks], sort_keys=True)
        return specs.encode(), w.files()

    assert dump(first) == dump(second)
    assert dump(first) != dump(other)


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_blocks_have_a_fixed_composition(name):
    cls = workloads.WORKLOADS[name]
    kinds = [sorted((op.kind, op.spec.get("units", "")) for op in block) for block in cls(5).blocks[1:]]
    assert all(k == kinds[0] for k in kinds)


def test_q_zero_sets_are_exact():
    rng = np.random.default_rng(0)
    for _ in range(50):
        assert workloads.derived(workloads.random_params(rng, 0.0))[0] == 0.0


def test_angular_expansions_match_scipy_harmonics():
    from scipy.special import sph_harm_y
    import reference
    rng = np.random.default_rng(3)
    theta, phi = rng.uniform(0, math.pi, 20), rng.uniform(0, 2 * math.pi, 20)
    n = np.stack([np.sin(theta) * np.cos(phi), np.sin(theta) * np.sin(phi), np.cos(theta)])

    def expand(expansion, degree):
        return sum(c * sph_harm_y(degree, mu, theta, phi) for mu, c in expansion.items())

    for i in range(3):
        np.testing.assert_allclose(expand(reference.RANK1[i], 1), n[i], atol=1e-14)
        for j in range(3):
            want = n[i] * n[j] - (1.0 / 3.0 if i == j else 0.0)
            np.testing.assert_allclose(expand(reference.RANK2[i][j], 2), want, atol=1e-14)


def test_benchmark_json_matches_the_metric_tables():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert {m["name"]: (m["unit"], m["better"]) for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: (m["unit"], m["better"]) for m in spec["per_layer"]} == run.PER_LAYER
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)


def test_pair_check_reports_a_dropped_si_imaginary_part_and_checks_the_rest():
    table = workloads.PairTable.__new__(workloads.PairTable)
    table.observed = {}
    pair = [3, 1, 1, 1, 0, 0]
    zero = [0.0, 0.0]
    table.references = {",".join(map(str, pair)): {
        "D": [[0.5, 0.0], [0.0, -0.5], zero],
        "Q": [[zero] * 3 for _ in range(3)],
    }}
    op = workloads.Op("current", {"pair": pair, "units": "si", "config": "units = si\n"})
    factor = workloads._SI_FACTORS["D"]

    def output(d_x, d_y):
        lines = [f"D_x {d_x * factor!r}", f"D_y {d_y * factor!r}", "D_z 0.0"]
        lines += [f"Q_{a}{b} 0.0" for i, a in enumerate("xyz") for b in "xyz"[i:]]
        lines += ["A 0.0"]
        return "\n".join(lines) + "\n"

    assert table.check(op, (0, output(0.5, 0.0))) == []
    assert table.observed["si_imag_dropped"] == [1]
    problems = table.check(op, (0, output(0.6, 0.0)))
    assert len(problems) == 1 and problems[0].startswith("D_x")
    op.spec["units"] = "atomic"
    factor = 1.0
    problems = table.check(op, (0, output(0.5, 0.0)))
    assert len(problems) == 1 and problems[0].startswith("D_y")
