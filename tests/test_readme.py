"""The README's library quick start runs against the current API and prints what it says,
and the limits it states are the code's."""

import contextlib
import io
import pathlib
import re

from periodlab import cli, curves, modsel

README = pathlib.Path(__file__).resolve().parent.parent / "README.md"


def _python_blocks():
    return re.findall(r"^```python\n(.*?)^```$", README.read_text(), re.DOTALL | re.MULTILINE)


def _cli_block():
    """The README's CLI example block: the ``sh`` block after the ``## CLI`` heading."""
    cli_section = README.read_text().split("\n## CLI\n", 1)[1]
    return re.search(r"^```sh\n(.*?)^```$", cli_section, re.DOTALL | re.MULTILINE)[1]


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


def test_stated_cli_limits_match_the_code():
    text = " ".join(README.read_text().split())  # a limit may wrap across lines
    # `siegel-sample --g` and `singularity --g` share the genus limit
    genus = re.search(r"`singularity --g` accept at most (\d+) \(`curves\.MAX_GENUS`\)", text)
    trials = re.search(
        r"`select --trials` at most 10([⁰¹²³⁴⁵⁶⁷⁸⁹]+) \(`modsel\.MAX_LOGGED_TRIALS`\)", text
    )
    assert genus and trials
    assert int(genus[1]) == curves.MAX_GENUS
    exponent = trials[1].translate(str.maketrans("⁰¹²³⁴⁵⁶⁷⁸⁹", "0123456789"))
    assert 10 ** int(exponent) == modsel.MAX_LOGGED_TRIALS


def test_cli_block_lists_every_command():
    # the subcommands as the parser's usage line names them, {periods,validate,...}
    usage = cli.build_parser().format_usage()
    commands = re.search(r"\{([^}]*)\}", usage)[1].split(",")
    listed = re.findall(r"^periodlab (\S+)", _cli_block(), re.MULTILINE)
    assert sorted(set(listed)) == sorted(commands)
