"""Peak traced memory per step of the run's grid, for ``verify``'s checks and
for ``simulate``.

Measured with ``tracemalloc`` on README's rates over [-20, 20] (2-core
container, Python 3.11, numpy 2.4):

* ``run_checks`` peaks at 480 B/step from 2.5x10^4 to 2x10^5 steps. The
  peak is the RK4 half-step pass's temporaries, with the main pass held.
* ``simulate`` peaks at 112 B/step from 10^5 steps up: the exact samples
  and the eleven columns derived from them. At 2.5x10^4 steps the CSV
  writer's per-block buffers, about 0.8 MB, lift it to 144 B/step.

The budgets leave about 10% over those figures. ``tracemalloc`` slows the
Python Pz loop about 5x, so the runs are kept at 2.5x10^4 steps.
"""

import tracemalloc

from quadbloch import TwoLevelParams
from quadbloch.cli import main
from quadbloch.verification import run_checks

README_RATES = TwoLevelParams(omega21=1.0, gamma11=0.02, gamma12=-0.04, a12=0.2)
STEPS = 25_000
SPAN = (-20.0, 20.0, 40.0 / STEPS)
RUN_CHECKS_BUDGET = 530      # B/step
SIMULATE_BUDGET = 160        # B/step at STEPS steps


def _peak_per_step(call):
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1] / STEPS
    finally:
        tracemalloc.stop()


def test_run_checks_peak_per_step():
    peak = _peak_per_step(lambda: run_checks(README_RATES, *SPAN))
    assert peak <= RUN_CHECKS_BUDGET, peak


def test_simulate_peak_per_step(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("mode = simulate\nomega21 = 1.0\na12 = 0.2\ngamma11 = 0.02\ngamma12 = -0.04\n"
                   f"t_start = {SPAN[0]}\nt_end = {SPAN[1]}\nstep = {SPAN[2]}\n"
                   f"output = {tmp_path / 'run.csv'}\n")
    # the first run imports and builds the formatter's tables, which are not per step
    assert main(["simulate", "--config", str(cfg)]) == 0
    peak = _peak_per_step(lambda: main(["simulate", "--config", str(cfg)]))
    assert peak <= SIMULATE_BUDGET, peak
