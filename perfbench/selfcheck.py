"""Self-checks of the benchmark itself.

Run from the repository root (about a minute):

    python3 perfbench/selfcheck.py

1. Input generation is a pure function of (workload, seed).
2. The oracles agree with periodlab, and with published values, on hand
   cases: the splitmix64 reference stream, Bernoulli matrices, the quintic
   identity-matrix span rank, the 174/512 quartic census (and 338/512
   singular 3x3 matrices), exact ranks and Siegel membership.
3. The per-layer counts repeat exactly across two traced runs with the
   same seed.

Exits 1 if any check fails.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import random
import shutil
import subprocess
import sys
import tempfile

import oracles
import run
import workloads

COUNTS = (
    "periods.sign_patterns",
    "periods.quadrature_nodes",
    "periods.unconverged",
    "siegel.nonmember",
    "rng.draws",
    "exact.rank_calls",
    "modsel.trials",
    "cli.bytes_written",
)
SPLITMIX64_SEED0 = (0xE220A8397B1DCDAF, 0x6E789E6AA1B965F4, 0x06C45D188009454F)

failures = []


def verdict(name, ok, detail=""):
    print(f"{'PASS' if ok else 'FAIL'} {name}{': ' + detail if detail else ''}", flush=True)
    if not ok:
        failures.append(name)


def _inputs(workload, seed, workdir):
    """The generated round and the files it wrote, with the directory masked."""
    ops = workloads.generate(workload, seed, workdir)
    files = {}
    for name in sorted(os.listdir(workdir)):
        with open(os.path.join(workdir, name), encoding="utf-8") as fh:
            files[name] = fh.read()
    text = json.dumps([(op.kind, op.argvs, op.items, op.params) for op in ops])
    return text.replace(workdir, "<dir>"), files


def check_generation():
    base = tempfile.mkdtemp(prefix="selfcheck-", dir=run.WORK)
    try:
        for workload in run.WORKLOADS:
            dirs = [os.path.join(base, f"{workload}-{k}") for k in range(3)]
            for d in dirs:
                os.makedirs(d)
            a, b, c = (_inputs(workload, seed, d) for seed, d in zip((7, 7, 8), dirs))
            verdict(f"generation {workload}: same seed, same inputs", a == b)
            verdict(f"generation {workload}: another seed, other inputs", a != c)
    finally:
        shutil.rmtree(base, ignore_errors=True)


def check_oracles():
    from periodlab import cli, curves, exact, modsel, periods, rng, siegel

    stream = oracles.splitmix64(0)
    own = tuple(next(stream) for _ in range(3))
    lib = rng.SplitMix64(0)
    verdict(
        "splitmix64 matches the published seed-0 stream and periodlab.rng",
        own == SPLITMIX64_SEED0 == tuple(lib.next_u64() for _ in range(3)),
    )
    pick = random.Random(1)
    cases = [(g, pick.getrandbits(64)) for g in (3, 6, 8, 20) for _ in range(5)]
    verdict(
        "Bernoulli(1/2) matrices match periodlab.bernoulli_matrix",
        all(
            tuple(map(tuple, oracles.half_bits(g, s))) == modsel.bernoulli_matrix(g, 0.5, s).entries
            for g, s in cases
        ),
    )
    ident = tuple(tuple(int(i == j) for j in range(6)) for i in range(6))
    lib_rank = modsel.product_span_rank(
        curves.PlaneCurveModel(5),
        modsel.BernoulliMatrix(g=6, entries=ident, p=0.5, seed=0),
        modsel.first_three_rows_indices(6),
    )
    own_rank = oracles.product_span_rank(5, ident)
    verdict("quintic identity-matrix span rank", own_rank == lib_rank, f"{own_rank} vs {lib_rank}")

    success = nonsingular = 0
    for code in range(512):
        bits = [[(code >> (3 * i + j)) & 1 for j in range(3)] for i in range(3)]
        success += oracles.product_span_rank(4, bits) == 6
        nonsingular += oracles.rational_rank(bits) == 3
    summary = os.path.join(tempfile.mkdtemp(prefix="selfcheck-", dir=run.WORK), "census.json")
    with contextlib.redirect_stdout(io.StringIO()):
        rc = cli.main(["exhaustive", "--model", "quartic", "--summary", summary])
    with open(summary, encoding="utf-8") as fh:
        lib_census = json.load(fh)
    shutil.rmtree(os.path.dirname(summary))
    verdict(
        "quartic census 174/512 and 338/512 singular",
        rc == 0
        and success == nonsingular == lib_census["successes"] == oracles.QUARTIC_CENSUS_SUCCESSES
        and 512 - nonsingular == oracles.G3_SINGULAR_CENSUS,
        f"oracle {success}/{nonsingular}, periodlab {lib_census['successes']}",
    )

    pick = random.Random(2)
    mats = []
    for n, m in ((4, 4), (5, 7), (12, 15), (15, 15)):
        base = [[pick.randint(-3, 3) for _ in range(m)] for _ in range(n)]
        mats.append(base)
        mats.append(base[:-2] + [[a + b for a, b in zip(base[0], base[1])], base[2]])
    verdict(
        "rational rank matches periodlab.exact.integer_rank",
        all(oracles.rational_rank(mat) == exact.integer_rank(mat) for mat in mats),
    )

    raw, hom = periods.hyperelliptic_raw_periods(curves.bundled_curve("g2_x5_minus_1"))
    good = periods.normalize(raw, hom).entries
    bad = good.copy()
    bad[0, 1] += 1e-3
    agree = True
    for m in (good, bad, -good, siegel.random_siegel(5, 3)):
        residual, min_eig = oracles.siegel_numbers(m)
        member = residual <= oracles.SYMMETRY_TOL and min_eig > 0.0
        agree &= member == siegel.validate_siegel(m, tol=oracles.SYMMETRY_TOL).is_member
    verdict("Siegel membership matches periodlab.validate_siegel", agree)


def check_counts():
    for workload in run.WORKLOADS:
        counts = []
        for _ in range(2):
            proc = subprocess.run(
                [sys.executable, os.path.join(run.ROOT, "perfbench", "run.py"),
                 "--workload", workload, "--seed", "3", "--seconds", "1", "--trace", "1"],
                cwd=run.ROOT, capture_output=True, text=True, timeout=300,
            )
            metrics = json.loads(proc.stdout.splitlines()[-1])["metrics"] if proc.returncode == 0 else {}
            counts.append({k: metrics.get(k, {}).get("value") for k in COUNTS})
        verdict(f"counts repeat on {workload}", counts[0] == counts[1], json.dumps(counts[0]))


def main() -> int:
    run.load_periodlab()
    os.makedirs(run.WORK, exist_ok=True)
    check_generation()
    check_oracles()
    check_counts()
    print(f"selfcheck: {'PASS' if not failures else 'FAIL ' + ', '.join(failures)}")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
