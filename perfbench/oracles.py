"""Independent output checks for the periodlab benchmark.

Nothing here imports periodlab.  Each check recomputes what it needs with
its own code (its own splitmix64, rational Gaussian elimination instead of
Bareiss, its own Siegel test and JSON/CSV parsing), so a defect in the
library cannot hide behind a helper the check shares with it.

Every ``check_*`` function returns a list of failure strings; an empty
list means the output passed.  Each string starts with a short code and a
colon, which the runner uses to tell a documented known defect from an
unexpected failure.
"""

from __future__ import annotations

import csv
import json
import math
from fractions import Fraction

import numpy as np

MASK64 = (1 << 64) - 1

# Acceptance thresholds of the benchmark itself.
SYMMETRY_TOL = 1e-8  # max |Omega - Omega^T|
EST_ERROR_MAX = 1e-10  # node-doubling discrepancy written to meta.est_error
SPECTRUM_RTOL = 1e-12
CENSUS_SIGMAS = 5.0  # singularity --g 3 estimate vs the exact census

# Exact census over all 2^9 = 512 3x3 0/1 matrices: 174 are nonsingular
# (and, for the quartic model, exactly those pass the product-span test),
# so 338 are singular.  selfcheck.py recomputes both numbers.
QUARTIC_CENSUS_SUCCESSES = 174
G3_SINGULAR_CENSUS = 338

# Differential monomials of the plane models, in the order the periodlab
# documentation fixes (graded reverse lexicographic, x > y > z).  The
# quadratic-differential monomials need no order: rank ignores it.
DIFF_MONOMIALS = {
    4: ((1, 0, 0), (0, 1, 0), (0, 0, 1)),
    5: ((2, 0, 0), (1, 1, 0), (0, 2, 0), (1, 0, 1), (0, 1, 1), (0, 0, 2)),
}


# ---------------------------------------------------------------------------
# Exact arithmetic


def splitmix64(seed: int):
    """Yield the splitmix64 stream of ``seed`` (Steele, Lea and Flood 2014)."""
    state = seed & MASK64
    while True:
        state = (state + 0x9E3779B97F4A7C15) & MASK64
        z = state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & MASK64
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & MASK64
        yield z ^ (z >> 31)


def half_bits(g: int, seed: int) -> list[list[int]]:
    """g x g Bernoulli(1/2) matrix: entry (i, j) is draw i*g + j < 2^63."""
    stream = splitmix64(seed)
    return [[1 if next(stream) < (1 << 63) else 0 for _ in range(g)] for _ in range(g)]


def rational_rank(rows) -> int:
    """Rank over Q by Gaussian elimination on Fractions."""
    m = [[Fraction(x) for x in r] for r in rows]
    rank = 0
    ncols = len(m[0]) if m else 0
    for c in range(ncols):
        piv = next((r for r in range(rank, len(m)) if m[r][c] != 0), None)
        if piv is None:
            continue
        m[rank], m[piv] = m[piv], m[rank]
        prow = m[rank]
        for r in range(rank + 1, len(m)):
            f = m[r][c] / prow[c]
            if f:
                m[r] = [a - f * b for a, b in zip(m[r], prow)]
        rank += 1
    return rank


def product_span_rank(degree: int, bits) -> int:
    """Rank of the first-three-rows products of omega_i = sum_j M_ij zeta_j."""
    diff = DIFF_MONOMIALS[degree]
    g = len(diff)
    rows = []
    for a in range(3):
        for b in range(a, g):
            vec: dict[tuple[int, int, int], int] = {}
            for j in range(g):
                for l in range(g):
                    c = bits[a][j] * bits[b][l]
                    if c:
                        mono = tuple(x + y for x, y in zip(diff[j], diff[l]))
                        vec[mono] = vec.get(mono, 0) + c
            rows.append(vec)
    columns = sorted(set().union(*rows))
    if not columns:
        return 0
    return rational_rank([[v.get(mono, 0) for mono in columns] for v in rows])


# ---------------------------------------------------------------------------
# Period files


def read_table(path) -> tuple[np.ndarray, dict]:
    """Entries and meta of a period JSON file ({"entries": [[[re, im]]]})."""
    with open(path, encoding="utf-8") as fh:
        data = json.load(fh)
    entries = np.array([[complex(re, im) for re, im in row] for row in data["entries"]])
    return entries, data.get("meta", {})


def siegel_numbers(omega: np.ndarray) -> tuple[float, float]:
    """Symmetry residual and minimum eigenvalue of the symmetrized Im part."""
    residual = float(np.max(np.abs(omega - omega.T)))
    im = (omega.imag + omega.imag.T) / 2.0
    return residual, float(np.linalg.eigvalsh(im)[0])


def summary_fields(stdout: str) -> dict:
    """key=value fields of the last summary line a CLI call printed."""
    lines = [line for line in stdout.splitlines() if "=" in line]
    if not lines:
        return {}
    return dict(part.split("=", 1) for part in lines[-1].split()[1:] if "=" in part)


def check_chain(g: int, omega_path, raw_path, spec_path, rcs, outs) -> list[str]:
    """periods -> validate -> stats on one curve."""
    if rcs[0] != 0:
        return [f"periods: exit {rcs[0]}"]
    fails = []
    omega, meta = read_table(omega_path)
    raw, raw_meta = read_table(raw_path)
    if omega.shape != (g, g):
        return [f"shape: Omega is {omega.shape}, expected {(g, g)}"]
    if raw.shape != (2 * g, g):
        fails.append(f"shape: raw table is {raw.shape}, expected {(2 * g, g)}")
    for label, m in (("meta", meta), ("raw meta", raw_meta)):
        err = m.get("est_error")
        if not isinstance(err, (int, float)) or not err <= EST_ERROR_MAX:
            fails.append(f"est_error: {label} est_error {err!r} > {EST_ERROR_MAX:g}")
    residual, min_eig = siegel_numbers(omega)
    member = residual <= SYMMETRY_TOL and min_eig > 0.0
    if not member:
        fails.append(f"siegel: symmetry residual {residual:.3e}, min Im eigenvalue {min_eig:.3e}")
    reported = summary_fields(outs[1]).get("member")
    if rcs[1] != (0 if member else 3) or reported != str(int(member)):
        fails.append(f"validate: exit {rcs[1]} member={reported} disagrees with oracle {member}")
    if rcs[2] != 0:
        return fails + [f"stats: exit {rcs[2]}"]
    with open(spec_path, newline="", encoding="utf-8") as fh:
        body = list(csv.reader(fh))[1:]
    got = np.array([float(v) for _, v in body])
    want = np.sort(np.abs(omega.ravel()) ** 2)[::-1]
    if got.shape != want.shape or not np.allclose(got, want, rtol=SPECTRUM_RTOL, atol=0.0):
        fails.append("spectrum: spectrum CSV differs from the sorted squared moduli of Omega")
    return fails


# ---------------------------------------------------------------------------
# Trial outputs


def check_select(degree: int, trials: int, log_path, summary_path, sample, rc) -> list[str]:
    """select: log/summary consistency, and ``sample`` log rows recomputed."""
    if rc != 0:
        return [f"select: exit {rc}"]
    g = len(DIFF_MONOMIALS[degree])
    target = 3 * g - 3
    with open(log_path, newline="", encoding="utf-8") as fh:
        rows = list(csv.DictReader(fh))
    with open(summary_path, encoding="utf-8") as fh:
        summary = json.load(fh)
    fails = []
    if [int(r["trial_index"]) for r in rows] != list(range(trials)):
        return [f"log: trial log does not hold trials 0..{trials - 1}"]
    successes = sum(int(r["success"]) for r in rows)
    nonsingular = sum(int(r["nonsingular"]) for r in rows)
    if (summary.get("trials"), summary.get("successes"), summary.get("nonsingular_count")) != (
        trials,
        successes,
        nonsingular,
    ):
        fails.append("summary: summary counts disagree with the trial log")
    if not math.isclose(summary.get("estimate", -1.0), successes / trials, rel_tol=1e-12):
        fails.append("summary: estimate is not successes / trials")
    for r in rows:
        if int(r["success"]) != (int(r["span_rank"]) == target):
            fails.append(f"log: trial {r['trial_index']} success flag disagrees with its rank")
            break
    for i in sample:
        r = rows[i]
        bits = half_bits(g, int(r["seed"]))
        rank = product_span_rank(degree, bits)
        nonsing = rational_rank(bits) == g
        if (rank, nonsing) != (int(r["span_rank"]), bool(int(r["nonsingular"]))):
            fails.append(
                f"trial: trial {i} recomputes to span_rank={rank} nonsingular={int(nonsing)}"
            )
    return fails


def check_singularity(g: int, trials: int, summary_path, stdout: str, rc) -> list[str]:
    """singularity: summary consistency; g = 3 against the exact census."""
    if rc != 0:
        return [f"singularity: exit {rc}"]
    with open(summary_path, encoding="utf-8") as fh:
        summary = json.load(fh)
    singular = summary.get("successes")
    fails = []
    if summary.get("trials") != trials or singular + summary.get("nonsingular_count", -1) != trials:
        fails.append("summary: singular + nonsingular counts do not add up to the trials")
    if summary_fields(stdout).get("singular") != str(singular):
        fails.append("summary: printed singular count differs from the summary file")
    if g == 3:
        p = G3_SINGULAR_CENSUS / 512
        se = math.sqrt(p * (1.0 - p) / trials)
        if abs(singular / trials - p) > CENSUS_SIGMAS * se:
            fails.append(
                f"census: g=3 singular rate {singular / trials:.4f} is more than "
                f"{CENSUS_SIGMAS:g} standard errors from 338/512"
            )
    return fails
