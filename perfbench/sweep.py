"""Run the benchmark over several seeds and report each metric's spread.

Run from the repository root:

    python3 perfbench/sweep.py --seeds 1-10 [--workloads periods-lowg,...] [--trace 0]

Each run is a fresh ``python3 perfbench/run.py`` process, one at a time.
For every workload and metric it prints the median over the runs and the
interquartile range as a share of the median (statistics.quantiles with
n=4), next to the metric's bound from BENCHMARK.json.  Every run, with its
full result line, is appended to ``--log`` (default
``.perfbench/sweeps.jsonl``) so discarded runs stay on record.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def seed_list(text: str) -> list[int]:
    out = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        out.extend(range(int(lo), int(hi or lo) + 1))
    return out


def spread(values) -> float:
    q1, med, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / med if med else float("nan")


def main(argv=None) -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    names = [w["name"] for w in bench["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--workloads", default=",".join(names))
    parser.add_argument("--seconds", type=int, default=bench["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--log", default=os.path.join(ROOT, ".perfbench", "sweeps.jsonl"))
    args = parser.parse_args(argv)
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    os.makedirs(os.path.dirname(args.log), exist_ok=True)

    for workload in args.workloads.split(","):
        results = []
        for seed in seed_list(args.seeds):
            cmd = bench["command"] + [
                "--workload", workload, "--seed", str(seed),
                "--seconds", str(args.seconds), "--trace", str(args.trace),
            ]
            start = time.time()
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
            wall = time.time() - start
            lines = proc.stdout.strip().splitlines()
            result = json.loads(lines[-1]) if proc.returncode == 0 and lines else None
            with open(args.log, "a", encoding="utf-8") as fh:
                record = {"workload": workload, "seed": seed, "trace": args.trace,
                          "seconds": args.seconds, "rc": proc.returncode, "wall_s": wall,
                          "when": time.strftime("%Y-%m-%dT%H:%M:%S"), "result": result}
                fh.write(json.dumps(record) + "\n")
            if result is None:
                print(f"{workload} seed {seed}: exit {proc.returncode}\n{proc.stderr[-2000:]}")
                continue
            results.append(result)
            print(f"{workload} seed {seed}: {wall:.1f} s, correct={result['correct']} "
                  f"failed={result['failed']}/{result['attempted']}", flush=True)
        if len(results) < 2:
            continue
        for name in results[0]["metrics"]:
            values = [r["metrics"][name]["value"] for r in results]
            unit = results[0]["metrics"][name]["unit"]
            line = f"  {workload:18s} {name:32s} median {statistics.median(values):12.6g} {unit:6s}"
            if len(values) >= 4:
                line += f" spread {spread(values):7.2%}"
                if name in bounds:
                    line += f" (bound {bounds[name]:.0%}, a third {bounds[name] / 3:.1%})"
            print(line, flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
