"""Peak traced memory per step of the run's grid, for ``verify``'s checks and
for ``simulate``.

Measured with ``tracemalloc`` on README's rates over [-20, 20] (2-core
container, Python 3.11, numpy 2.4):

* ``run_checks`` peaks at 232 B/step from 2.5x10^4 to 10^5 steps: the run's
  one RK4 pass and its temporaries. At ``omega21 = 1000`` over [-1, 1], step
  5e-5 (4x10^4 steps), where the order check runs passes of its own at
  0.1 / R, it peaks at 264 B/step, since each order pass is dropped once its
  error is taken.
* Where the order check runs at the run's own step (``omega21 = 1000`` over
  [-1, 1], step 1e-4), its half-step pass, twice the run's length, is the
  peak: 496 B/step with the run held. This is the worst case, and what
  verify's RK4 step limit is sized for.
* ``simulate`` peaks at 112 B/step from 10^5 steps up: the exact samples
  and the eleven columns derived from them. At 2.5x10^4 steps the CSV
  writer's per-block buffers, about 0.8 MB, lift it to 144 B/step.

The budgets leave 7-30% over those figures. ``tracemalloc`` slows the
Python Pz loop about 5x, so the runs are kept at 2.5x10^4 steps.
"""

import tracemalloc

import pytest

from quadbloch import TwoLevelParams
from quadbloch.cli import main
from quadbloch.verification import run_checks

README_RATES = TwoLevelParams(omega21=1.0, gamma11=0.02, gamma12=-0.04, a12=0.2)
STEPS = 25_000
SPAN = (-20.0, 20.0, 40.0 / STEPS)
RUN_CHECKS_BUDGET = 300      # B/step, the order check at coarser steps than the run's
ORDER_AT_RUN_STEP_BUDGET = 530  # B/step, the order check at the run's step
SIMULATE_BUDGET = 160        # B/step at STEPS steps


def _peak_per_step(call, steps=STEPS):
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1] / steps
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("p, span, steps, budget", [
    # a half-step pass of the run's own, for an error estimate, read 480 B/step
    (README_RATES, SPAN, STEPS, RUN_CHECKS_BUDGET),
    # the order check's own passes held in a memo read 632 B/step here
    (TwoLevelParams(omega21=1000.0, a12=0.2), (-1.0, 1.0, 5e-5), 40_000, RUN_CHECKS_BUDGET),
    # with the run's own half-step pass as well, 552 B/step
    (TwoLevelParams(omega21=1000.0, a12=0.2), (-1.0, 1.0, 1e-4), 20_000, ORDER_AT_RUN_STEP_BUDGET),
], ids=["readme", "fast-flow", "order-at-run-step"])
def test_run_checks_peak_per_step(p, span, steps, budget):
    peak = _peak_per_step(lambda: run_checks(p, *span), steps)
    assert peak <= budget, peak


def test_simulate_peak_per_step(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("mode = simulate\nomega21 = 1.0\na12 = 0.2\ngamma11 = 0.02\ngamma12 = -0.04\n"
                   f"t_start = {SPAN[0]}\nt_end = {SPAN[1]}\nstep = {SPAN[2]}\n"
                   f"output = {tmp_path / 'run.csv'}\n")
    # the first run imports and builds the formatter's tables, which are not per step
    assert main(["simulate", "--config", str(cfg)]) == 0
    peak = _peak_per_step(lambda: main(["simulate", "--config", str(cfg)]))
    assert peak <= SIMULATE_BUDGET, peak
