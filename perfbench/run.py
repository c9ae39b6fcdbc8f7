"""periodlab benchmark: one workload, one closed-loop client, one process.

Run from the repository root:

    python3 perfbench/run.py --workload periods-lowg --seed 1 --seconds 25 --trace 0

Every operation goes through ``periodlab.cli.main(argv)`` in this process,
one call at a time, with inputs generated from ``--seed`` (workloads.py)
and files in a scratch directory under ``.perfbench/`` of the checkout.
The round of operations is replayed until ``--seconds`` have passed; the
round in progress is always finished.  Every output is checked with the
independent oracles of oracles.py; a failed check counts as a failed
operation and never stops the run.

Timing.  The machine is shared, and other tenants change its speed by up
to a half for seconds at a time.  A fixed reference kernel is timed right
before and after every operation, and each replay's wall time is rescaled
by REFERENCE_QUIET_S over the mean of those two readings.  The end-to-end
metrics (``--trace 0``) use each operation's median rescaled replay:

    items_per_s   items of one round (curves or trials) over the sum of
                  the operations' medians
    op_p50_ms     median over the round's operations of their medians
    setup_s       median of 7 set-ups (import, input generation, warm-up),
                  this process and six fresh interpreters, rescaled alike
    peak_rss_mb   peak resident memory of this process

Plain wall-clock figures and raw latency percentiles are printed too.

``--trace 1`` alternates untraced and traced rounds, prints the per-layer
metrics (self seconds of the fastest traced round, counts of one round)
and the tracing overhead, and writes the spans to
``.perfbench/spans-<workload>-seed<seed>.jsonl``.

The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics.  ``correct`` is false only for a
failure other than the documented known defect (workloads.KNOWN_DEFECT),
which still counts in ``failed``.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
from collections import Counter
from time import perf_counter

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".perfbench")
WORKLOADS = ("periods-lowg", "periods-highg", "select-quintic", "singularity-sweep")
SETUP_SAMPLES = 7  # this process plus six fresh interpreters
TAILS = (99.9, 99.0, 95.0, 90.0)
# Nominal reference_seconds(): on the 2-vCPU shared Xeon VM the benchmark
# was defined on it read 0.91 ms at best and 1.05 ms as a median of 200.
# Rescaled times are wall times at the speed where it takes exactly this.
REFERENCE_QUIET_S = 1.0e-3

END_TO_END = {"setup_s": "s", "items_per_s": "1/s", "op_p50_ms": "ms", "peak_rss_mb": "MB"}
PER_LAYER = {
    "periods.quadrature_s": "s",
    "periods.quadrature_nodes": "count",
    "periods.quadrature_useful_ratio": "ratio",
    "periods.sign_search_s": "s",
    "periods.sign_patterns": "count",
    "periods.chain_s": "s",
    "periods.symplectic_s": "s",
    "periods.normalize_s": "s",
    "periods.other_s": "s",
    "periods.unconverged": "count",
    "siegel.validate_s": "s",
    "siegel.nonmember": "count",
    "perstats.stats_s": "s",
    "curves.load_s": "s",
    "cli.self_s": "s",
    "cli.bytes_written": "bytes",
    "modsel.bits_s": "s",
    "rng.draws": "count",
    "rng.derive_s": "s",
    "modsel.assemble_s": "s",
    "exact.span_rank_s": "s",
    "exact.square_rank_s": "s",
    "exact.rank_calls": "count",
    "modsel.log_s": "s",
    "modsel.other_s": "s",
    "modsel.trials": "count",
    "modsel.success_ratio": "ratio",
    "trace.op_s": "s",
    "trace.overhead_ratio": "ratio",
}

cli = None  # periodlab.cli, bound by load_periodlab()


def load_periodlab():
    """Import periodlab from this checkout's src/, never from elsewhere."""
    global cli
    init = os.path.join(SRC, "periodlab", "__init__.py")
    if not os.path.isfile(init):
        sys.exit(f"error: {init} not found; run from a periodlab checkout")
    sys.path.insert(0, SRC)
    import periodlab.cli

    if os.path.realpath(periodlab.__file__) != os.path.realpath(init):
        sys.exit(f"error: imported periodlab from {periodlab.__file__}, not {SRC}")
    cli = periodlab.cli


def run_op(op, tracer=None, op_id=0):
    """Run one operation's CLI calls back to back; return (seconds, rcs, stdouts)."""
    for path in op.outputs:
        with contextlib.suppress(FileNotFoundError):
            os.remove(path)
    rcs, outs = [], []
    span = tracer.op_span(op_id) if tracer else contextlib.nullcontext()
    start = perf_counter()
    with span:
        for argv in op.argvs:
            out = io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
                try:
                    rc = cli.main(argv)
                except Exception as exc:  # a traceback is a failed operation, not a dead run
                    rc = f"{type(exc).__name__}: {exc}"
            rcs.append(rc)
            outs.append(out.getvalue())
    return perf_counter() - start, rcs, outs


def setup(workload, seed):
    """Import, input generation and warm-up; returns (ops, workdir, seconds).

    The seconds are speed-corrected with the reference kernel timed right
    after set-up (the kernel imports numpy, so it cannot run before the
    import it would otherwise absorb).
    """
    start = perf_counter()
    load_periodlab()
    import workloads

    os.makedirs(WORK, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix="run-", dir=WORK)
    ops = workloads.generate(workload, seed, workdir)
    run_op(ops[0])
    secs = perf_counter() - start
    return ops, workdir, secs * REFERENCE_QUIET_S / reference_seconds()


def probe_setup(workload, seed) -> float:
    """Set-up time measured inside a fresh interpreter."""
    cmd = [sys.executable, os.path.abspath(__file__), "--setup-probe"]
    proc = subprocess.run(
        cmd + ["--workload", workload, "--seed", str(seed)],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=120,
        check=True,
    )
    return float(proc.stdout.split()[-1])


def check(op, rcs, outs) -> list[str]:
    import oracles

    p = op.params
    try:
        if op.kind == "chain":
            return oracles.check_chain(p["g"], p["omega"], p["raw"], p["spec"], rcs, outs)
        if op.kind == "select":
            return oracles.check_select(
                p["degree"], p["trials"], p["log"], p["summary"], p["sample"], rcs[0]
            )
        return oracles.check_singularity(p["g"], p["trials"], p["summary"], outs[0], rcs[0])
    except (OSError, ValueError, KeyError, TypeError, IndexError) as exc:
        return [f"output: unreadable output ({type(exc).__name__}: {exc})"]


def reference_seconds() -> float:
    """Median time of five runs of a fixed kernel shaped like periodlab's work.

    The kernel is pure-Python integer arithmetic plus small numpy inverses
    and symmetric eigenvalue calls, about 1 ms on a quiet machine.  Timed
    next to every operation, it measures how fast the shared machine runs
    at that moment; the median keeps one interrupted run from counting.
    """
    import numpy as np

    a = np.eye(12) + 0.1
    runs = []
    for _ in range(5):
        start = perf_counter()
        s = 0
        for i in range(6000):
            s = (s * 6364136223846793005 + i) & 0xFFFFFFFFFFFFFFFF
        for _ in range(15):
            np.linalg.inv(a)
            np.linalg.eigvalsh(a[:6, :6])
        runs.append(perf_counter() - start)
    return statistics.median(runs)


def measure(ops, seconds, tracer=None):
    """Replay the round until ``seconds`` pass; traced runs alternate rounds.

    Each replay's time is also recorded speed-corrected: multiplied by
    REFERENCE_QUIET_S over the mean of the reference kernel's times just
    before and just after it.
    """
    import workloads

    rounds = []
    deadline = perf_counter() + seconds
    ref = reference_seconds()
    while not rounds or perf_counter() < deadline or (tracer and len(rounds) < 2):
        traced = tracer is not None and len(rounds) % 2 == 1
        rnd = {"traced": traced, "times": [], "scaled": [], "fails": [], "counts": Counter()}
        if traced:
            tracer.counts = rnd["counts"]
            tracer.install()
        try:
            for i, op in enumerate(ops):
                op_id = len(rounds) * len(ops) + i
                secs, rcs, outs = run_op(op, tracer if traced else None, op_id)
                ref_after = reference_seconds()
                rnd["times"].append(secs)
                rnd["scaled"].append(secs * REFERENCE_QUIET_S / ((ref + ref_after) / 2))
                ref = ref_after
                rnd["counts"]["cli.bytes_written"] += sum(
                    os.path.getsize(p) for p in op.outputs if os.path.exists(p)
                )
                reasons = check(op, rcs, outs)
                if reasons:
                    codes = {r.split(":", 1)[0] for r in reasons}
                    expected = bool(op.known_defect) and codes <= workloads.KNOWN_DEFECT_CODES
                    rnd["fails"].append((i, expected, reasons))
        finally:
            if traced:
                tracer.uninstall()
        rounds.append(rnd)
    return rounds


def tail(latencies):
    """Highest listed percentile with at least ten samples beyond it."""
    n = len(latencies)
    for q in TAILS:
        if n * (1 - q / 100) >= 10:
            return q, statistics.quantiles(latencies, n=1000, method="inclusive")[round(q * 10) - 1]
    return None, None


def typical_times(rounds, key="scaled"):
    """Each operation's median replay time: rescaled, or wall clock with key="times"."""
    return [statistics.median(r[key][i] for r in rounds) for i in range(len(rounds[0][key]))]


def end_to_end(rounds, ops, key="scaled"):
    typical = typical_times(rounds, key)
    return {
        "items_per_s": sum(op.items for op in ops) / sum(typical),
        "op_p50_ms": statistics.median(typical) * 1e3,
    }


def per_layer(rounds, tracer):
    """Self times of the fastest traced round, counts of the first one.

    Self times of one round add up to its operation time, so their shares
    are comparable; the fastest round is the least disturbed by other
    tenants.  Every round replays the same inputs, so counts are exact.
    """
    n_ops = len(rounds[0]["times"])
    traced = [r for r in rounds if r["traced"]]
    fastest = min(traced, key=lambda r: sum(r["times"]))
    base = rounds.index(fastest) * n_ops
    by_op = tracer.self_times()
    selfs = Counter()
    for op_id in range(base, base + n_ops):
        selfs.update(by_op.get(op_id, {}))
    metrics = {name: selfs[name[:-2]] for name, unit in PER_LAYER.items() if unit == "s"}
    counts = traced[0]["counts"]
    metrics.update({name: counts[name] for name, unit in PER_LAYER.items() if unit in ("count", "bytes")})
    nodes = counts["periods.quadrature_nodes"]
    metrics["periods.quadrature_useful_ratio"] = (
        counts["periods.final_pass_nodes"] / nodes if nodes else 0.0
    )
    trials = counts["modsel.stat_trials"]
    metrics["modsel.success_ratio"] = counts["modsel.stat_successes"] / trials if trials else 0.0
    metrics["trace.op_s"] = sum(fastest["times"])

    plain = [r for r in rounds if not r["traced"]]
    metrics["trace.overhead_ratio"] = sum(typical_times(traced)) / sum(typical_times(plain))
    return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    ops, workdir, setup_s = setup(args.workload, args.seed)
    try:
        if args.setup_probe:
            print(repr(setup_s))
            return 0
        tracer = None
        if args.trace:
            import spans

            tracer = spans.Tracer()
        rounds = measure(ops, args.seconds, tracer)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    plain = [r for r in rounds if not r["traced"]]
    e2e = end_to_end(plain, ops)
    times = [t for r in plain for t in r["times"]]
    fails = [(n, f) for n, r in enumerate(rounds) for f in r["fails"]]
    attempted = sum(len(r["times"]) for r in rounds)
    unexpected = [(n, f) for n, f in fails if not f[1]]
    print(
        f"workload {args.workload} seed {args.seed} trace {args.trace}: {len(rounds)} rounds of "
        f"{len(ops)} operations, {attempted} attempted, {len(fails)} failed "
        f"({len(fails) - len(unexpected)} from the documented known defect)"
    )
    print(f"error_rate {len(fails) / attempted:.6f} ratio ({len(fails)}/{attempted})")
    wall = end_to_end(plain, ops, key="times")
    print(
        f"wall clock, not speed-corrected: items_per_s {wall['items_per_s']:.6g} 1/s, "
        f"op_p50_ms {wall['op_p50_ms']:.6g} ms"
    )
    q, value = tail(times)
    line = f"all untraced replays (n={len(times)}): p50 {statistics.median(times) * 1e3:.4f} ms"
    if q is None:
        print(line + ", too few for a tail with 10 samples beyond it")
    else:
        print(line + f", p{q:g} {value * 1e3:.4f} ms")

    if args.trace:
        metrics = per_layer(rounds, tracer)
        os.makedirs(WORK, exist_ok=True)
        tracer.write(os.path.join(WORK, f"spans-{args.workload}-seed{args.seed}.jsonl"))
        total = metrics["trace.op_s"]
        for name, unit in PER_LAYER.items():
            share = f"  ({metrics[name] / total:6.1%} of traced op time)" if unit == "s" else ""
            print(f"{name} {metrics[name]:.6g} {unit}{share}")
        traced = end_to_end([r for r in rounds if r["traced"]], ops)
        for name, unit in (("items_per_s", "1/s"), ("op_p50_ms", "ms")):
            print(f"overhead: {name} traced {traced[name]:.6g} {unit}, untraced {e2e[name]:.6g} {unit}")
        if tracer.missing or tracer.counts.get("trace.count_errors"):
            print(f"trace: not patched {sorted(tracer.missing)}; count errors {tracer.counts['trace.count_errors']}")
        units = PER_LAYER
    else:
        samples = [setup_s] + [probe_setup(args.workload, args.seed) for _ in range(SETUP_SAMPLES - 1)]
        metrics = {
            "setup_s": statistics.median(samples),
            **e2e,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        for name, unit in END_TO_END.items():
            print(f"{name} {metrics[name]:.6g} {unit}")
        units = END_TO_END
    for n, (i, expected, reasons) in fails[:5]:
        tag = "known defect" if expected else "FAILED"
        print(f"{tag}: round {n} op {i} {ops[i].argvs[0][:3]}: {'; '.join(reasons)}")
    print(f"check: {'PASS' if not unexpected else 'FAIL'}")
    result = {
        "correct": not unexpected,
        "attempted": attempted,
        "failed": len(fails),
        "metrics": {k: {"value": metrics[k], "unit": u} for k, u in units.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
