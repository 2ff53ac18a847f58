"""The package's public names: ``__all__`` is pinned, sorted, unique and
importable, README's Library example runs against them, and the Gamma
prescription is stated where Gamma is computed."""

import contextlib
import dataclasses
import io
import re
from pathlib import Path

import quadbloch

README = Path(__file__).resolve().parent.parent / "README.md"


def test_all_is_sorted_unique_and_resolves():
    names = quadbloch.__all__
    assert names == sorted(names)
    assert len(set(names)) == len(names)
    for name in names:
        getattr(quadbloch, name)


def test_readme_library_example_runs():
    blocks = re.findall(r"^```python\n(.*?)^```", README.read_text(), flags=re.S | re.M)
    assert len(blocks) == 1
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(blocks[0], str(README), "exec"), {})
    a_rate = float(out.getvalue().split()[0])
    assert f"{a_rate:.3e}" == "1.516e-08"


def test_all_is_the_pinned_public_api():
    # a deliberate API change edits this list
    assert quadbloch.__all__ == [
        "BlochVector",
        "BoundState",
        "CouplingRates",
        "DensityMatrix2",
        "MultipoleData",
        "NLevelSystem",
        "SPEED_OF_LIGHT",
        "StepSizeError",
        "Trajectory",
        "TwoLevelParams",
        "additional_shift",
        "analytic_bloch",
        "bloch_flow",
        "bloch_rhs",
        "bloch_to_density",
        "bound_energy",
        "exact_trajectory",
        "frequency_shift",
        "frequency_shift_general",
        "grid_for_pair",
        "integrate",
        "multilevel_rhs",
        "overlap",
        "transition_frequency",
        "transition_multipoles",
    ]


def test_trajectory_is_its_bloch_samples():
    # every observable is derived from the samples where it is used
    fields = [f.name for f in dataclasses.fields(quadbloch.Trajectory)]
    assert fields == ["t", "bloch", "step", "params"]


def test_gamma_docstring_states_the_prescription():
    doc = " ".join(quadbloch.MultipoleData.gamma.__doc__.split())
    assert "Gamma(k_max) = (4 / (3 pi c^2)) k_max |<a| grad |b>|^2" in doc
    for claim in ("long-wavelength limit", "factor 2/3", "symmetric in (a, b)", "monotone in k_max"):
        assert claim in doc, claim
