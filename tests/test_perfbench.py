"""The benchmark's oracle harness runs against this checkout's periodlab."""

import pathlib
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parents[1]

# perfbench's modules import each other by bare name, and its ``oracles`` is
# not tests/oracles.py, so the checks run in their own interpreter (-B: no
# bytecode under perfbench/); run.WORK, where they write, is the test's directory.
CHECK_ORACLES = """
import sys
sys.path.insert(0, "perfbench")
import run, selfcheck
run.WORK = sys.argv[1]
run.load_periodlab()
selfcheck.check_oracles()
sys.exit(1 if selfcheck.failures else 0)
"""


def test_selfcheck_oracles_pass(tmp_path):
    proc = subprocess.run(
        [sys.executable, "-B", "-c", CHECK_ORACLES, str(tmp_path)],
        capture_output=True, text=True, cwd=ROOT, timeout=120,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert "FAIL" not in proc.stdout
