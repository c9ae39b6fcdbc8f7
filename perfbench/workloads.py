"""Workload input sets, generated from the benchmark seed alone.

A workload is a fixed list of operations (one "round").  The runner
replays the round until its time is up, so every round does the same work
and rounds can be compared with each other.  periodlab keeps no cache
between calls, so a replayed round costs what a fresh one would; a change
that adds a result cache must give this benchmark fresh inputs per round.

Generation uses only ``random.Random`` seeded from the workload name and
the seed, and writes curve files with its own JSON, so it is a pure
function of (workload, seed) and shares no code with periodlab.
"""

from __future__ import annotations

import cmath
import json
import math
import os
import random
from dataclasses import dataclass, field

# ROADMAP item 2: on y^2 = x(x-1)...(x-16) (g = 8) the sign search picks a
# wrong intersection pattern and `periods` exits 0 with an Omega outside
# the Siegel upper half-space.  periods-highg keeps it so the defect shows
# as a failed operation; its only expected failure code is "siegel".
KNOWN_DEFECT = "roadmap-item-2: wide-spread g=8 curve gives a non-Siegel Omega"
KNOWN_DEFECT_CODES = frozenset({"siegel"})

SELECT_CALLS, SELECT_TRIALS, SELECT_SAMPLE = 12, 100, 3
SINGULARITY_GENERA = (3, 3, 4, 5, 6, 7, 8, 12, 20)
SINGULARITY_TRIALS = 1600
LOWG_CURVES = 90
HIGHG_GENERA = (5, 5, 5, 5, 6, 6, 6, 6, 6, 7, 7)


@dataclass
class Op:
    """One closed-loop operation: CLI calls made back to back, then checked."""

    kind: str  # "chain", "select" or "singularity"
    argvs: list[list[str]]
    items: int  # curves (chain) or trials (select, singularity)
    outputs: list[str]  # files the calls write, for cli.bytes_written
    params: dict = field(default_factory=dict)
    known_defect: str | None = None


def _write_curve(path, points) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(
            {"type": "hyperelliptic", "branch_points": [[p.real, p.imag] for p in points]}, fh
        )


def _chain(workdir, name, points, g, known_defect=None) -> Op:
    base = os.path.join(workdir, name)
    curve, omega, raw, spec = (base + s for s in (".curve.json", ".omega.json", ".raw.json", ".spec.csv"))
    _write_curve(curve, points)
    return Op(
        kind="chain",
        argvs=[
            ["periods", "--curve", curve, "--out", omega, "--raw-out", raw],
            ["validate", omega],
            ["stats", "--in", omega, "--spectrum", spec],
        ],
        items=1,
        outputs=[omega, raw, spec],
        params={"g": g, "omega": omega, "raw": raw, "spec": spec},
        known_defect=known_defect,
    )


def _real_points(rng, n, width=4.0, min_gap=0.2):
    """n sorted reals in [-width/2, width/2] with pairwise gaps >= min_gap."""
    slack = width - (n - 1) * min_gap
    cuts = sorted(rng.uniform(0.0, slack) for _ in range(n))
    return [complex(-width / 2 + c + k * min_gap) for k, c in enumerate(cuts)]


def _circle_points(rng, n):
    """n points near the unit circle: angles and radii jittered by <= 20%."""
    return [
        (1.0 + rng.uniform(-0.15, 0.15)) * cmath.exp(2j * math.pi * (k + rng.uniform(-0.2, 0.2)) / n)
        for k in range(n)
    ]


def _clustered_points(rng, n):
    """n - 1 separated reals plus a partner 10^U(-4, -2) to the right of one."""
    pts = _real_points(rng, n - 1)
    anchor = pts[rng.randrange(n - 1)]
    return pts + [anchor + 10.0 ** rng.uniform(-4.0, -2.0)]


def periods_lowg(rng, workdir):
    """90 curves: 3 geometries x genus 1..3 x odd/even degree, 5 of each."""
    shapes = (_real_points, _circle_points, _clustered_points)
    ops = []
    for i in range(LOWG_CURVES):
        g = 1 + (i // 3) % 3
        n = 2 * g + 1 + (i // 9) % 2
        ops.append(_chain(workdir, f"lowg{i:03d}", shapes[i % 3](rng, n), g))
    return ops


def periods_highg(rng, workdir):
    """Real and perturbed-circle curves of genus 5..7, plus the g = 8 defect."""
    ops = []
    for i, g in enumerate(HIGHG_GENERA):
        n = 2 * g + 1 + i % 2
        points = _real_points(rng, n) if i % 2 == 0 else _circle_points(rng, n)
        ops.append(_chain(workdir, f"highg{i}", points, g))
    defect = [complex(k) for k in range(17)]
    ops.append(_chain(workdir, "highg_defect", defect, 8, known_defect=KNOWN_DEFECT))
    return ops


def select_quintic(rng, workdir):
    """select --model quintic calls with random 64-bit seeds."""
    ops = []
    for i in range(SELECT_CALLS):
        seed = rng.getrandbits(64)
        log = os.path.join(workdir, f"select{i:02d}.csv")
        summary = os.path.join(workdir, f"select{i:02d}.json")
        argv = ["select", "--model", "quintic", "--trials", str(SELECT_TRIALS), "--seed", str(seed)]
        ops.append(
            Op(
                kind="select",
                argvs=[argv + ["--out", log, "--summary", summary]],
                items=SELECT_TRIALS,
                outputs=[log, summary],
                params={
                    "degree": 5,
                    "trials": SELECT_TRIALS,
                    "log": log,
                    "summary": summary,
                    "sample": sorted(rng.sample(range(SELECT_TRIALS), SELECT_SAMPLE)),
                },
            )
        )
    return ops


def singularity_sweep(rng, workdir):
    """singularity --g G for G = 3 (twice), 4..8, 12 and 20, random seeds."""
    ops = []
    for i, g in enumerate(SINGULARITY_GENERA):
        seed = rng.getrandbits(64)
        summary = os.path.join(workdir, f"sing{i}_g{g}.json")
        argv = ["singularity", "--g", str(g), "--trials", str(SINGULARITY_TRIALS), "--seed", str(seed)]
        ops.append(
            Op(
                kind="singularity",
                argvs=[argv + ["--summary", summary]],
                items=SINGULARITY_TRIALS,
                outputs=[summary],
                params={"g": g, "trials": SINGULARITY_TRIALS, "summary": summary},
            )
        )
    return ops


GENERATORS = {
    "periods-lowg": periods_lowg,
    "periods-highg": periods_highg,
    "select-quintic": select_quintic,
    "singularity-sweep": singularity_sweep,
}


def generate(workload: str, seed: int, workdir) -> list[Op]:
    """The round of ``workload`` for ``seed``; curve files go to ``workdir``."""
    rng = random.Random(f"periodlab-bench/{workload}/{seed}")
    return GENERATORS[workload](rng, workdir)
