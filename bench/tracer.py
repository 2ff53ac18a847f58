"""In-memory span tracer that wraps quadbloch's public layer functions.

Nothing inside ``src/`` changes: ``install`` rebinds each traced function
in every quadbloch module that holds it by name (``integrate`` is bound in
``integrator``, ``verification`` and ``cli``), and ``uninstall`` puts the
originals back.

Two kinds of wrapper:

* a span records name, op id, parent span, start and end, plus a work
  count taken from the call (grid points, RK4 stages, ...);
* a counter, for functions called more than ~1e4 times per op, keeps only a
  call count and a total self time per op, so the trace stays small.

A span's self time is its duration minus the time its child spans cover
and minus the time spent in counted functions called directly under it.
Spans stay in memory until ``dump`` writes them out.
"""

from __future__ import annotations

import importlib
import json
import math
import time
from collections import defaultdict
from dataclasses import asdict, dataclass

import numpy as np

ROOT_SPAN = "op"


def _grid_points(args, kwargs, result):
    return int(result.weights.shape[0])


def _eval_points(args, kwargs, result):
    point = args[1] if len(args) > 1 else kwargs["point"]
    shape = np.shape(point)
    return int(math.prod(shape[:-1]))


def _rk4_stages(args, kwargs, result):
    # integrate(initial, p, t_start, t_end, step): main pass n_steps plus
    # the half-step Richardson pass 2 * n_steps
    a = dict(zip(("initial", "p", "t_start", "t_end", "step"), args), **kwargs)
    return 3 * max(1, int(round((a["t_end"] - a["t_start"]) / a["step"])))


# (module, function) -> (metric name, work hook or None)
SPANS = {
    ("quadrature", "grid_for_pair"): ("quadrature.grid_for_pair", _grid_points),
    ("hydrogenic", "eigenstate_eval"): ("hydrogenic.eigenstate_eval", _eval_points),
    ("multipole", "transition_multipoles"): ("multipole.transition_multipoles", None),
    ("multipole", "coupling_rates"): ("multipole.coupling_rates", None),
    ("multipole", "gamma_estimate"): ("multipole.gamma_estimate", None),
    ("integrator", "integrate"): ("integrator.integrate", _rk4_stages),
    ("verification", "run_checks"): ("verification.run_checks", None),
    ("config", "parse_config_with_overrides"): ("config.parse", None),
    ("cli", "main"): ("cli.main", None),
    ("cli", "run_coeffs"): ("cli.run_coeffs", None),
    ("cli", "run_simulate"): ("cli.run_simulate", None),
    ("cli", "run_verify"): ("cli.run_verify", None),
    ("cli", "run_shift"): ("cli.run_shift", None),
}

COUNTERS = {
    ("twolevel", "analytic_bloch"): "twolevel.analytic_bloch",
    ("twolevel", "frequency_shift"): "twolevel.frequency_shift",
    ("twolevel", "additional_shift"): "twolevel.additional_shift",
    ("multilevel", "multilevel_rhs"): "multilevel.multilevel_rhs",
}

MODULES = ("quadrature", "hydrogenic", "multipole", "integrator", "twolevel",
           "verification", "multilevel", "config", "cli")


@dataclass
class Span:
    name: str
    op: int | None
    parent: int | None          # index into Tracer.spans
    start: float
    end: float = math.nan
    counted_s: float = 0.0      # time in counted functions called directly under this span
    work: int = 0


class _Frame:
    """Open counted call: collects the time of counted calls nested in it."""

    __slots__ = ("counted_s",)

    def __init__(self):
        self.counted_s = 0.0


class Tracer:
    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans: list[Span] = []
        # (op, name) -> [calls, self_s]
        self.counters: dict[tuple[int | None, str], list] = defaultdict(lambda: [0, 0.0])
        self.op: int | None = None
        self._stack: list = []        # open Span indices (int) and _Frame objects
        self._saved: list = []        # (module, attribute, original) for uninstall

    # -- recording -------------------------------------------------------

    def _open(self, name: str) -> int:
        parent = next((f for f in reversed(self._stack) if isinstance(f, int)), None)
        self.spans.append(Span(name, self.op, parent, self.clock()))
        index = len(self.spans) - 1
        self._stack.append(index)
        return index

    def _close(self, index: int):
        span = self.spans[index]
        span.end = self.clock()
        self._stack.pop()

    def span(self, name: str, fn, work=None):
        def traced(*args, **kwargs):
            index = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(index)
            if work is not None:
                self.spans[index].work = work(args, kwargs, result)
            return result
        traced.__wrapped__ = fn
        return traced

    def counted(self, name: str, fn):
        def traced(*args, **kwargs):
            frame = _Frame()
            self._stack.append(frame)
            start = self.clock()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = self.clock() - start
                self._stack.pop()
                entry = self.counters[(self.op, name)]
                entry[0] += 1
                entry[1] += elapsed - frame.counted_s
                if self._stack:
                    outer = self._stack[-1]
                    if isinstance(outer, int):
                        self.spans[outer].counted_s += elapsed
                    else:
                        outer.counted_s += elapsed
        traced.__wrapped__ = fn
        return traced

    def run_op(self, op_id: int, fn):
        """Run ``fn()`` as op ``op_id`` under a root span."""
        self.op = op_id
        index = self._open(ROOT_SPAN)
        try:
            return fn()
        finally:
            self._close(index)
            self.op = None

    # -- installing into quadbloch --------------------------------------

    def install(self):
        modules = {m: importlib.import_module(f"quadbloch.{m}") for m in MODULES}
        wrappers = {}
        # a function the program no longer has is skipped and reports zero
        for (mod, attr), (name, work) in SPANS.items():
            original = getattr(modules[mod], attr, None)
            if original is not None:
                wrappers[id(original)] = (original, self.span(name, original, work))
        for (mod, attr), name in COUNTERS.items():
            original = getattr(modules[mod], attr, None)
            if original is not None:
                wrappers[id(original)] = (original, self.counted(name, original))
        for module in modules.values():
            for attr, value in list(vars(module).items()):
                hit = wrappers.get(id(value))
                if hit is not None and hit[0] is value:
                    self._saved.append((module, attr, value))
                    setattr(module, attr, hit[1])

    def uninstall(self):
        for module, attr, original in reversed(self._saved):
            setattr(module, attr, original)
        self._saved.clear()

    # -- results ---------------------------------------------------------

    def self_times(self) -> list[float]:
        """Self time of every span: duration minus its children's coverage."""
        child = [0.0] * len(self.spans)
        for span in self.spans:
            if span.parent is not None:
                child[span.parent] += span.end - span.start
        return [s.end - s.start - child[i] - s.counted_s for i, s in enumerate(self.spans)]

    def dump(self, path):
        selfs = self.self_times()
        doc = {
            "spans": [dict(asdict(s), self_s=t) for s, t in zip(self.spans, selfs)],
            "counters": [{"op": op, "name": name, "calls": c[0], "self_s": c[1]}
                         for (op, name), c in self.counters.items()],
        }
        with open(path, "w") as fh:
            json.dump(doc, fh)
