"""The package's public names: ``__all__`` is sorted, unique and importable,
and README's Library example runs against them."""

import contextlib
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
