"""The lazy ``periodlab`` package, and the modules each CLI command loads."""

import json
import os
import pathlib
import subprocess
import sys

import pytest

import periodlab

SRC = pathlib.Path(__file__).resolve().parents[1] / "src"
SUBMODULES = ("cli", "curves", "errors", "exact", "modsel", "periods", "perstats", "rng", "siegel")

# The periodlab modules each step adds, in one fresh interpreter: the
# package, then the CLI, then the command.
BASE = {"periodlab"}
CLI = {"periodlab.cli", "periodlab.curves", "periodlab.errors"}
FOOTPRINTS = {
    "singularity": (
        ["singularity", "--g", "3", "--trials", "5", "--seed", "1"],
        {"periodlab.modsel", "periodlab.exact", "periodlab.rng"},
    ),
    "periods": (
        ["periods", "--bundled", "g2_x5_minus_1", "--out", "omega.json"],
        {"periodlab.periods", "periodlab.siegel"},
    ),
    "select": (
        ["select", "--model", "quartic", "--trials", "5", "--seed", "1", "--out", "log.csv"],
        {"periodlab.modsel", "periodlab.exact", "periodlab.rng"},
    ),
    "validate": (["validate", "omega.json"], {"periodlab.periods", "periodlab.siegel"}),
    "stats": (
        ["stats", "--in", "omega.json", "--spectrum", "spec.csv"],
        {"periodlab.periods", "periodlab.perstats", "periodlab.siegel"},
    ),
}
# The period file that validate and stats read: a member of H_1.
OMEGA = '{"entries": [[[0.0, 1.0]]], "g": 1, "kind": "normalized", "meta": {}}\n'

PROBE = """
import json, sys

def loaded():
    return sorted(m for m in sys.modules if m.partition(".")[0] == "periodlab")

steps = [loaded()]
import periodlab
steps.append(loaded())
import periodlab.cli
steps.append(loaded())
code = periodlab.cli.main(sys.argv[1:])
steps.append(loaded())
print(json.dumps({"code": code, "steps": steps}))
"""


@pytest.mark.parametrize("command", sorted(FOOTPRINTS))
def test_import_footprint(command, tmp_path):
    """Each import, and each command, loads exactly the modules it runs."""
    argv, added = FOOTPRINTS[command]
    (tmp_path / "omega.json").write_text(OMEGA)
    proc = subprocess.run(
        [sys.executable, "-c", PROBE, *argv],
        capture_output=True, text=True, cwd=tmp_path, timeout=120, check=True,
        env={**os.environ, "PYTHONPATH": str(SRC)},
    )
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result["code"] == 0
    before, package, cli, after = (set(step) for step in result["steps"])
    assert before == set()
    assert package == BASE
    assert cli == BASE | CLI
    assert after == BASE | CLI | added


def test_public_names_are_their_modules_objects():
    for name in periodlab.__all__:
        value = getattr(periodlab, name)
        assert value is getattr(sys.modules[value.__module__], name), name
        assert vars(periodlab)[name] is value  # bound, so the hook runs once per name


def test_dir_lists_every_name_and_submodule():
    listed = dir(periodlab)
    assert set(periodlab.__all__) | set(SUBMODULES) <= set(listed)
    assert listed == sorted(listed)


def test_star_import_binds_every_public_name():
    namespace = {}
    exec("from periodlab import *", namespace)
    assert set(namespace) - {"__builtins__"} == set(periodlab.__all__)


@pytest.mark.parametrize("name", SUBMODULES)
def test_submodules_are_attributes(name):
    assert getattr(periodlab, name) is sys.modules[f"periodlab.{name}"]


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match=r"^module 'periodlab' has no attribute 'nope'$"):
        periodlab.nope  # noqa: B018
    assert not hasattr(periodlab, "nope")
