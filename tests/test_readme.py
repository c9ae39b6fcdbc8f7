"""The README's library quick start runs against the current API and prints what it says."""

import contextlib
import io
import pathlib
import re

README = pathlib.Path(__file__).resolve().parent.parent / "README.md"


def _python_blocks():
    return re.findall(r"^```python\n(.*?)^```$", README.read_text(), re.DOTALL | re.MULTILINE)


def _printed(block):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(block, str(README), "exec"), {})
    return out.getvalue().splitlines()


def test_readme_has_two_quick_start_blocks():
    assert len(_python_blocks()) == 2


def test_normalized_period_matrix_has_genus_two():
    assert _printed(_python_blocks()[0]) == ["2"]


def test_quartic_census_and_estimate():
    census, estimate = _printed(_python_blocks()[1])
    assert census == "174"
    assert abs(float(estimate) - 174 / 512) < 0.03  # 10,000 trials: about 6 standard errors
