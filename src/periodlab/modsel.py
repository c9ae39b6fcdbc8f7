"""Random-change-of-basis moduli selection experiments.

The experiment: draw a g x g 0/1 matrix M with i.i.d. Bernoulli(p)
entries, use it as a change of basis omega_i = sum_j M_ij zeta_j of the
holomorphic differentials of a plane-curve model, and test whether the
products {omega_a omega_b} indexed by the first-three-rows pair set span
the quadratic-differential space (dimension 3g-3).  All randomness flows
through splitmix64 streams so runs are bit-reproducible.

Every experiment runs through one chunked pipeline: splitmix64 bits for a
chunk of trials (``rng.stream_draws``), the g x g matrices and their
product-span matrices, exact ranks of both, and streaming counts.  A
chunk holds as many trials as fit ``CHUNK_ELEMENTS`` elements of the
array that is ranked: the (3g-3) x (3g-3) span matrices for select and
exhaustive, the g x g matrices for singularity.  The ranks are
elimination mod P1 = 2^31 - 1, certified by Hadamard's bound; a
rank-deficient trial whose bound reaches P1 is ranked again mod
P2 = 2147483629, and one whose bound reaches P1*P2 falls back to Bareiss
elimination over the integers (``exact``).  A call's chunks stream
through ``exact.certified_ranks``, which pools the mod-P2 re-ranks across
chunks and yields each chunk's ranks once final, in any order; counts
are sums and the trial log is filed by trial index, so only the chunks
owing that pass wait.  No floating-point value decides any rank.  The
single-matrix functions (``bernoulli_matrix``, ``is_nonsingular_exact``,
``product_span_rank``, ``run_trial``) are batches of one.

Span matrices are assembled in ``int64`` without a matrix product: each
quad-monomial column is a sum of at most four products M[a, j] * M[b, l],
one per member (j, l) with zeta_j * zeta_l the column's monomial.  The
sums are built one member round at a time, each round adding into a
prefix of the columns, so the columns are ordered by member count
(``_span_table``).  That order is one fixed column permutation of the
quad-monomial basis, and a column permutation changes no rank (mod P1,
mod P2 or over Q) and no row norm, so every count, record and certificate
branch is the one the basis order gives.

``run_selection(..., records=True)`` also returns a ``TrialLog``, columns
by trial index that ``trial_log_rows`` renders.  Results are plain
dataclasses, written out with ``dataclasses.asdict``; 3g-3 is ``moduli_count``.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .curves import MAX_GENUS, PlaneCurveModel, moduli_count
from .errors import DomainError, ValidationError
from .exact import batch_rank, certified_ranks
from .rng import MASK64, stream_draws, trial_seeds

# Trials are processed in chunks whose ranked arrays (g*g draws and
# matrices for singularity, (3g-3)^2 span matrices for select) fill about
# this many elements, so memory stays bounded whatever the trial count.
# No transient outgrows the ranked array: a select chunk's span assembly
# holds at most two gathered member rounds beside the span matrices, each
# no larger than they are, and a rank pass one scratch block of the
# stack's size.  perfbench, 4 alternating 15 s runs per size on a shared
# 2-vCPU machine, medians at 2^13 / 2^14 / 2^15: select-quintic 24.0k /
# 26.7k / 30.0k trials/s (a 100-trial call fits one 2^15 chunk), peak RSS
# 33.9 / 34.1 / 34.4 MB; singularity-sweep 164k / 217k / 206k trials/s,
# 33.8 / 34.0 / 35.0 MB.  2^13 is slower on both (more chunks, each paying
# numpy's per-call cost); 2^15 would trade the sweep for the quintic.
CHUNK_ELEMENTS = 2**14


def chunk_trials(per_trial: int) -> int:
    """Trials per chunk when one trial's ranked array has ``per_trial`` elements."""
    return max(1, CHUNK_ELEMENTS // per_trial)


def _chunks(n_trials: int, per_trial: int):
    step = chunk_trials(per_trial)
    for start in range(0, n_trials, step):
        yield start, min(start + step, n_trials)


# ---------------------------------------------------------------------------
# Bernoulli matrices


@dataclass(frozen=True)
class BernoulliMatrix:
    g: int
    entries: tuple[tuple[int, ...], ...]
    p: float
    seed: int


def _bits(seeds: np.ndarray, g: int, p: float) -> np.ndarray:
    """(len(seeds), g, g) ``int64`` 0/1 matrices, one per splitmix64 seed."""
    if not 0.0 <= p <= 1.0:
        raise DomainError("p must lie in [0, 1]")
    threshold = math.floor(p * 2**64)
    if threshold > MASK64:  # p = 1: every draw is below 2^64
        return np.ones((len(seeds), g, g), dtype=np.int64)
    draws = stream_draws(seeds, g * g)
    return (draws < np.uint64(threshold)).astype(np.int64).reshape(-1, g, g)


def _one_seed(seed: int) -> np.ndarray:
    return np.array([seed & MASK64], dtype=np.uint64)


def bernoulli_matrix(g: int, p: float, seed: int) -> BernoulliMatrix:
    """g x g matrix of i.i.d. Bernoulli(p) bits from a splitmix64 stream.

    Entry (i, j) consumes draw number i*g + j of the stream; it is 1 iff
    the draw is below floor(p * 2^64).  Regeneration from (g, p, seed) is
    bit-identical.
    """
    if g < 1:
        raise DomainError("g must be >= 1")
    rows = tuple(map(tuple, _bits(_one_seed(seed), g, p)[0].tolist()))
    return BernoulliMatrix(g=g, entries=rows, p=p, seed=seed)


def is_nonsingular_exact(m: BernoulliMatrix) -> bool:
    """Exact nonsingularity over the rationals (no floating point)."""
    return bool(batch_rank([m.entries])[0] == m.g)


# ---------------------------------------------------------------------------
# Index sets and the product-span rank test


def first_three_rows_indices(g: int) -> tuple[tuple[int, int], ...]:
    """The 3g-3 pairs {(0,j)}_{j>=0} u {(1,j)}_{j>=1} u {(2,j)}_{j>=2}, 0-based.

    These index the products omega_1*omega_1 .. omega_3*omega_g coming
    from the first three rows of a symmetric period matrix.
    """
    if g < 3:
        raise DomainError("first_three_rows_indices requires g >= 3")
    pairs = tuple((i, j) for i in range(3) for j in range(i, g))
    assert len(pairs) == moduli_count(g)
    return pairs


class _SpanTable(NamedTuple):
    """How ``_span_matrices`` assembles a model's span matrices.

    ``columns[c]`` is the index in ``model.quad_monomials`` of span column
    c: the columns are ordered by their number of members, the ordered
    pairs (j, l) with zeta_j * zeta_l equal to the column's monomial, most
    first, and by monomial index among equals.  ``rounds[k]`` holds the
    (j, l) index arrays of the k-th member of every column that has more
    than k members; by that order those columns are a prefix.
    """

    columns: tuple[int, ...]
    rounds: tuple[tuple[np.ndarray, np.ndarray], ...]


@functools.cache
def _span_table(model: PlaneCurveModel) -> _SpanTable:
    """The column order and member rounds of ``model``'s span matrices.

    The table is a constant of the (frozen, hashable) model, so it is built
    once per model and shared: its index arrays are read-only.
    """
    g = model.genus
    quad_index = {mon: c for c, mon in enumerate(model.quad_monomials)}
    diff = model.diff_monomials
    members = [[] for _ in model.quad_monomials]
    for j in range(g):
        for l in range(g):
            members[quad_index[tuple(a + b for a, b in zip(diff[j], diff[l]))]].append((j, l))
    columns = sorted(range(len(members)), key=lambda c: -len(members[c]))
    rounds = []
    for k in range(len(members[columns[0]])):
        j, l = zip(*(members[c][k] for c in columns if len(members[c]) > k))
        j, l = np.array(j), np.array(l)
        j.flags.writeable = l.flags.writeable = False
        rounds.append((j, l))
    return _SpanTable(tuple(columns), tuple(rounds))


def _span_matrices(mats: np.ndarray, table: _SpanTable, pairs) -> np.ndarray:
    """Product-span matrices, one |pairs| x (quad monomials) matrix per change of basis.

    ``mats`` is a (B, g, g) ``int64`` stack of changes of basis M.  Row
    (a, b) of a trial's span matrix holds the coefficients of
    omega_a * omega_b over the quad monomials, in the column order of
    ``table``: column c is the sum over its members (j, l) of
    M[a, j] * M[b, l].  The sum is built one member round at a time, each
    round gathering its factors from the rows of the stack and adding their
    product into a prefix of the columns, all in ``int64``, so the only
    temporaries are two gathered rounds.  The columns are the quad
    monomials in a fixed order, so ranks and row norms are those of the
    matrices in ``model.quad_monomials`` order.
    """
    first, second = np.array(pairs).T[:, :, None]  # (|pairs|, 1) row indices each
    (j, l), *later = table.rounds  # round 0 covers every column
    span = mats[:, first, j]
    span *= mats[:, second, l]
    for j, l in later:
        term = mats[:, first, j]
        term *= mats[:, second, l]
        span[..., : len(j)] += term
    return span


def product_span_rank(model: PlaneCurveModel, m: BernoulliMatrix, pairs) -> int:
    """Exact rank of the product coefficient matrix in the quad-monomial basis.

    omega_i = sum_j M_ij zeta_j with zeta the model's monomial
    differentials; each product omega_a omega_b expands to an integer
    vector over the quad monomials.  Returns the integer rank of the
    |pairs| x (3g-3) matrix of those vectors, one row per pair (a, b).
    """
    g = model.genus
    if m.g != g:
        raise ValidationError("matrix size must equal the model genus")
    if not all(0 <= a <= b < g for a, b in pairs):
        raise ValidationError("index pairs must satisfy 0 <= i <= j < g")
    mats = np.array([m.entries], dtype=np.int64)
    return int(batch_rank(_span_matrices(mats, _span_table(model), pairs))[0])


# ---------------------------------------------------------------------------
# Trials and aggregation


@dataclass(frozen=True)
class TrialRecord:
    trial_index: int
    seed: int
    matrix_nonsingular: bool
    span_rank: int
    success: bool


@dataclass(frozen=True)
class SuccessStats:
    """Aggregated counts; ``estimate`` is successes/trials.

    For singularity-rate runs, "success" counts singular draws; the
    nonsingular count is always carried alongside.
    """

    trials: int
    successes: int
    nonsingular_count: int
    estimate: float
    ci95_halfwidth: float


def _stats(trials: int, successes: int, nonsingular: int, exact: bool = False) -> SuccessStats:
    est = successes / trials
    half = 0.0 if exact else 1.96 * math.sqrt(est * (1.0 - est) / trials)
    return SuccessStats(trials, successes, nonsingular, est, half)


class TrialLog(NamedTuple):
    """A select call's results by trial index; trial i succeeds iff span_rank[i] == target."""

    labels: np.ndarray  # uint64
    nonsingular: np.ndarray  # bool
    span_rank: np.ndarray  # int64
    target: int


def run_trial(model: PlaneCurveModel, p: float, seed: int, trial_index: int = 0) -> TrialRecord:
    """One full experiment instance with an explicit per-trial seed: a select call of one."""
    seeds = _one_seed(seed)
    log = _select_stats(model, 1, lambda *_: (seeds, _bits(seeds, model.genus, p)), True)[1]
    rank = int(log.span_rank[0])
    return TrialRecord(trial_index, seed, bool(log.nonsingular[0]), rank, rank == log.target)


def _select_stats(
    model, n_trials, matrices, records=False, exact=False
) -> tuple[SuccessStats, TrialLog | None]:
    """Stream trials 0..n_trials-1 through the ranks; the one select pipeline.

    ``matrices(start, stop)`` returns a chunk's per-trial labels (seeds or
    codes) and its (B, g, g) matrices.  With ``records``, each chunk files
    rows [start:stop] of a preallocated ``TrialLog``, its span ranks once
    ``certified_ranks`` yields them, in any order; else the log is None.
    """
    g = model.genus
    target = moduli_count(g)
    pairs = first_three_rows_indices(g)
    table = _span_table(model)
    per_trial = len(pairs) * len(table.columns)  # elements of one span matrix
    columns = (np.empty(n_trials, t) for t in (np.uint64, bool, np.int64))
    log = TrialLog(*columns, target) if records else None
    succ = nonsing = 0

    def stacks():
        for start, stop in _chunks(n_trials, per_trial):
            labels, mats = matrices(start, stop)
            nonsingular = batch_rank(mats) == g
            if records:
                log.labels[start:stop], log.nonsingular[start:stop] = labels, nonsingular
            label = slice(start, stop), int(np.count_nonzero(nonsingular))
            yield label, _span_matrices(mats, table, pairs)

    for (rows, nonsingular), span in certified_ranks(stacks()):
        succ += int(np.count_nonzero(span == target))
        nonsing += nonsingular
        if records:
            log.span_rank[rows] = span
    return _stats(n_trials, succ, nonsing, exact), log


def run_selection(
    model: PlaneCurveModel, p: float, n_trials: int, seed: int, records: bool = False
) -> tuple[SuccessStats, TrialLog | None]:
    """Stats of ``n_trials`` seeded trials, plus their ``TrialLog`` if ``records``.

    Trial i uses the seed derive_seed(seed, i), so the aggregate is
    independent of execution order and chunking, and any single trial can
    be reproduced in isolation with ``run_trial``.  The log takes 17 bytes a
    trial; without it, memory stays bounded by a few chunks.
    """
    if n_trials < 1:
        raise DomainError("n_trials must be >= 1")

    def matrices(start, stop):
        seeds = trial_seeds(seed, start, stop)
        return seeds, _bits(seeds, model.genus, p)

    return _select_stats(model, n_trials, matrices, records)


def monte_carlo(model: PlaneCurveModel, p: float, n_trials: int, seed: int) -> SuccessStats:
    """Monte Carlo success estimate over independent seeded trials, as ``run_selection``."""
    return run_selection(model, p, n_trials, seed)[0]


def exhaustive(model: PlaneCurveModel) -> SuccessStats:
    """Exact success/nonsingularity counts over every 0/1 matrix.

    Matrix number ``code`` has entry (i, j) equal to bit i*g + j of code.
    Refused above genus 3 because the enumeration has 2^(g^2) cases.
    """
    g = model.genus
    if g > 3:
        raise DomainError(
            f"exhaustive enumeration refused: 2^{g * g} = {2 ** (g * g):.3e} matrices"
        )
    shifts = np.arange(g * g, dtype=np.int64)

    def matrices(start, stop):
        codes = np.arange(start, stop, dtype=np.int64)
        return codes, ((codes[:, None] >> shifts) & 1).reshape(-1, g, g)

    return _select_stats(model, 2 ** (g * g), matrices, exact=True)[0]


def singularity_rate(g: int, p: float, n_trials: int, seed: int) -> SuccessStats:
    """Estimate Pr[M singular] for g x g Bernoulli(p) matrices.

    ``successes`` counts singular draws; every test is exact.
    """
    if g < 1:
        raise DomainError("g must be >= 1")
    if g > MAX_GENUS:
        raise DomainError(f"g must be <= {MAX_GENUS}")
    if n_trials < 1:
        raise DomainError("n_trials must be >= 1")
    stacks = ((None, _bits(trial_seeds(seed, *c), g, p)) for c in _chunks(n_trials, g * g))
    nonsingular = sum(int(np.count_nonzero(ranks == g)) for _, ranks in certified_ranks(stacks))
    return _stats(n_trials, n_trials - nonsingular, nonsingular)


# ---------------------------------------------------------------------------
# Probability expressions

def paper_bounds(g: int) -> list[tuple[str, float]]:
    """Heuristic probability expressions for size-g experiments.

    The o(1) terms in the Tao-Vu style rates are dropped, so the first
    two values are heuristic approximations, not bounds certified here:

    * tao_vu_conjectured_nonsingular: 1 - (1/2)^g, the conjectured
      nonsingularity rate for random 0/1 matrices.
    * tao_vu_proved_lower_bound: 1 - (3/4)^g, the proved lower-bound form.
    * displayed_expression: (3g-3) / 16^(3g-3).
    * union_bound_reading: 1 - (3g-3) * (1/16)^(3g-3), the complementary
      reading of the same expression as a failure-probability bound.
    """
    if g < 2:
        raise DomainError("paper_bounds requires g >= 2")
    k = moduli_count(g)
    displayed = k * 16.0**-k  # underflows to 0.0 for large g; 16.0**k would overflow
    return [
        ("tao_vu_conjectured_nonsingular", 1.0 - 0.5**g),
        ("tao_vu_proved_lower_bound", 1.0 - 0.75**g),
        ("displayed_expression", displayed),
        ("union_bound_reading", 1.0 - displayed),
    ]


# ---------------------------------------------------------------------------
# Trial logs


def trial_log_rows(log: TrialLog):
    """CSV rows of a trial log: the header, then one row per trial, by trial index."""
    yield ["trial_index", "seed", "nonsingular", "span_rank", "success"]
    columns = (log.nonsingular, log.span_rank, log.span_rank == log.target)
    nonsingular, span, success = (c.astype(np.int64).tolist() for c in columns)
    yield from zip(range(len(span)), log.labels.tolist(), nonsingular, span, success)
