"""Random-change-of-basis moduli selection experiments.

The experiment: draw a g x g 0/1 matrix M with i.i.d. Bernoulli(p)
entries, use it as a change of basis omega_i = sum_j M_ij zeta_j of the
holomorphic differentials of a plane-curve model, and test whether the
products {omega_a omega_b} indexed by the first-three-rows pair set span
the quadratic-differential space (dimension 3g-3).  All randomness flows
through splitmix64 streams so runs are bit-reproducible.

Every experiment runs through one chunked pipeline: splitmix64 bits for a
chunk of trials (``rng.stream_draws``), the g x g matrices and their
product-span matrices, exact ranks of both, and streaming counts.  The
bits are ``uint8`` 0/1 matrices (``_bits``), passed on as they are:
``exact`` widens them only in its work block, and span assembly casts
them to the narrowest signed dtype that holds a span entry, ``int8`` for
0/1 bits (``_span_matrices``).  A call is cut into chunks whose ranked
arrays, the (3g-3) x (3g-3) span matrices for select and exhaustive and
the g x g matrices for singularity, hold at most ``CHUNK_ELEMENTS``
elements each, or into one chunk when the whole call holds at most 1.5
times that (``_chunks``), so a 100-trial quintic select is ranked in one
pass per stack shape.  Every
rank comes from ``exact``'s certified rank ladder: elimination mod a
first prime, then mod each later prime for the rank-deficient trials
whose Hadamard bound H reaches the product of the primes so far, keeping
the largest rank, and Bareiss elimination for a trial still open after
the last.  A select call's span stacks climb P1 = 2^31 - 1 and
P2 = 2147483629 (``exact.certified_ranks``); the g x g matrices, only
tested for nonsingularity, climb Q = 32749, P1, P2
(``exact.certified_nonsingular``), and their ``int32`` pass mod Q settles
every 0/1 matrix up to g = 9, whose H is below Q.  Each chunk gets its
first pass as it arrives; the trials it owes a later prime wait in one
pool, ranked together once they would outnumber the largest chunk's
trials and at the end of the call.  Each chunk's results are yielded
once final, in any order; counts are sums and the trial log is filed by
trial index, so only the chunks owing a later pass wait.  No
floating-point value decides any rank.  The single-matrix functions
(``bernoulli_matrix``, ``is_nonsingular_exact``, ``product_span_rank``,
``run_trial``) are batches of one.

Span matrices are assembled without a matrix product, in that narrow
dtype: each quad-monomial column is a sum of at most four products
M[a, j] * M[b, l], one per member (j, l) with zeta_j * zeta_l the
column's monomial.  The sums are built one member round at a time, each
round adding into a prefix of the columns, so the columns are ordered by
member count (``_span_table``).  That order is one fixed column
permutation of the quad-monomial basis, and a column permutation changes
no rank (mod P1, mod P2 or over Q) and no row norm, so every count,
record and certificate branch is the one the basis order gives.

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
from .exact import batch_rank, certified_nonsingular, certified_ranks, integer_stack
from .rng import MASK64, stream_draws, trial_seeds

# Each chunk's ranked array (g*g bits for singularity, (3g-3)^2 span
# matrices for select) holds at most this many elements, or 1.5 times as
# many when the whole call is one chunk (``_chunks``), so memory stays
# bounded whatever the trial count.  A singularity chunk peaks at 17 bytes
# an element while drawing: the uint64 draws, mixed in place, and one shift
# (16 bytes), which leave one byte of bits.  Ranking then holds 9 bytes an
# element: the 1-byte bits and the rank kernel's work and scratch blocks,
# 4 bytes each in int32 mod Q.  Traced, a full g = 20 chunk peaks at 2.01
# times its int64 block (2.39 times with int64 blocks mod P1, 3.26 times
# with int64 bits and a mixed copy of the draws).
# A select chunk's span assembly holds at most two gathered member rounds
# beside the span matrices, each no larger than they are and in their dtype
# (int8 for 0/1 bits), and a rank pass an int64 work block and one scratch
# block of the stack's element count.  A call is cut into
# near-equal chunks, not steps of CHUNK_ELEMENTS // per_trial trials, so
# that no short tail chunk pays a rank pass's fixed numpy cost: a
# 1600-trial singularity call at g = 20 is 10 chunks of 160 trials, not 9
# of 163 and one of 133.  Chunks of a larger call stay within
# CHUNK_ELEMENTS: at 2^14, the nearest whole number of chunks instead put
# more blocks above malloc's mmap threshold, to fault in again per chunk,
# and singularity-sweep lost 3%.  perfbench medians of 10 alternating 25 s
# pairs on a shared 2-vCPU machine, 2^16 against 2^14: singularity-sweep
# 241.8k -> 330.2k trials/s (+36.6%, 10/10 pairs; a sweep round makes 22
# first rank passes instead of 78), peak RSS 34.03 -> 34.93 MB;
# select-quintic, whose 100-trial calls are one chunk either way, 33.66k
# -> 33.50k (within noise).  Not 2^17: with int64 blocks, 4 alternating 8 s
# runs gave 299k against 333k trials/s and 0.7 MB more RSS, its g = 20 work
# and scratch blocks, 1 MB each, together outgrowing that machine's 2 MiB
# L2 cache; with int32 blocks mod Q, an in-process sweep round still took
# 32.1-33.4 ms against 29.8-31.8 ms at 2^16.
CHUNK_ELEMENTS = 2**16

# The most trials a call that keeps its trial log may ask for, and the rows in
# one block of the log's CSV text (``trial_log_rows``).  The log is three
# preallocated columns, 17 bytes a trial, and a block's rows are held as Python
# ints and text only while written, so 10^8 trials need about 1.7 GB.  Peak
# RSS of a 10^5-trial quintic select (2-vCPU Xeon, 3 runs): 34.0 MB with 4096-row
# blocks, 36.2 MB with 16384, 45.4 MB with 65536, 52.8 MB with one whole text.
MAX_LOGGED_TRIALS = 10**8
_LOG_BLOCK_ROWS = 4096


def _chunks(n_trials: int, per_trial: int):
    """``[start, stop)`` trial ranges that cover ``range(n_trials)`` in order.

    A call of at most 1.5 * CHUNK_ELEMENTS elements is one chunk.  A larger
    one is cut into the fewest chunks of at most CHUNK_ELEMENTS elements (or
    one trial), and chunk i of ``count`` is [n*i // count, n*(i+1) // count),
    so sizes differ by at most one trial and no short tail chunk is left.
    """
    step = max(1, CHUNK_ELEMENTS // per_trial)
    count = 1 if 2 * n_trials * per_trial <= 3 * CHUNK_ELEMENTS else -(-n_trials // step)
    for i in range(count):
        yield n_trials * i // count, n_trials * (i + 1) // count


# ---------------------------------------------------------------------------
# Bernoulli matrices


@dataclass(frozen=True)
class BernoulliMatrix:
    g: int
    entries: tuple[tuple[int, ...], ...]
    p: float
    seed: int


def _bits(seeds: np.ndarray, g: int, p: float) -> np.ndarray:
    """(len(seeds), g, g) ``uint8`` 0/1 matrices, one per splitmix64 seed.

    The bits are the comparison of the draws with the threshold, viewed as
    ``uint8``, so they take one byte an entry and no copy of their own.
    """
    if not 0.0 <= p <= 1.0:
        raise DomainError("p must lie in [0, 1]")
    threshold = math.floor(p * 2**64)
    if threshold > MASK64:  # p = 1: every draw is below 2^64
        return np.ones((len(seeds), g, g), dtype=np.uint8)
    draws = stream_draws(seeds, g * g)
    return (draws < np.uint64(threshold)).view(np.uint8).reshape(-1, g, g)


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


def _stack(m: BernoulliMatrix) -> np.ndarray:
    """``m.entries`` as a (1, g, g) integer stack; any other shape raises ``ValidationError``."""
    mats = integer_stack([m.entries])
    if mats.shape != (1, m.g, m.g):
        raise ValidationError(f"entries must be {m.g} x {m.g}, not shape {mats.shape[1:]}")
    return mats


def is_nonsingular_exact(m: BernoulliMatrix) -> bool:
    """Exact nonsingularity over the rationals (no floating point)."""
    [(_, nonsingular)] = certified_nonsingular([(None, _stack(m))])
    return bool(nonsingular[0])


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

    ``mats`` is a (B, g, g) integer stack of changes of basis M.  Row
    (a, b) of a trial's span matrix holds the coefficients of
    omega_a * omega_b over the quad monomials, in the column order of
    ``table``: column c is the sum over its members (j, l) of
    M[a, j] * M[b, l].  The sum is built one member round at a time, each
    round gathering its factors from the rows of the stack and adding their
    product into a prefix of the columns, so the only temporaries are two
    gathered rounds.  A span entry is a sum of at most ``len(table.rounds)``
    products, each at most max|M|^2 in absolute value, so the stack is cast
    first to the narrowest of ``int8``, ``int16``, ``int32`` and ``int64``
    that holds that reach, and every product and sum is exact in it: a 0/1
    stack spans in ``int8``, one byte an entry, and no product is taken in
    a bool or unsigned dtype.  A stack already in that dtype is used as it
    is.  A stack whose reach is 2^63 or more raises ``ValidationError``
    rather than wrapping.  The columns are the quad monomials in a fixed
    order, so ranks and row norms are those of the matrices in
    ``model.quad_monomials`` order.
    """
    top = max(int(mats.max()), -int(mats.min())) if mats.size else 0
    reach = len(table.rounds) * top * top
    if reach >= 2**63:
        raise ValidationError(f"entries up to {top} could overflow int64 in the span matrices")
    dtype = next(t for t in (np.int8, np.int16, np.int32, np.int64) if reach <= np.iinfo(t).max)
    mats = mats.astype(dtype, copy=False)
    # (|pairs|, 1) row indices each; no pairs give span matrices without rows
    first, second = np.array(pairs, dtype=np.intp).reshape(-1, 2).T[:, :, None]
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
    mats = _stack(m)
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
            [(_, nonsingular)] = certified_nonsingular([(None, mats)])
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
    be reproduced in isolation with ``run_trial``.  The log is three columns,
    17 bytes a trial, that ``trial_log_rows`` writes out in blocks; it is
    refused above ``MAX_LOGGED_TRIALS`` trials.  Without it, memory stays
    bounded by a few chunks.
    """
    if n_trials < 1:
        raise DomainError("n_trials must be >= 1")
    if records and n_trials > MAX_LOGGED_TRIALS:
        raise DomainError(f"n_trials must be <= {MAX_LOGGED_TRIALS} with a trial log")

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
    nonsingular = sum(int(np.count_nonzero(n)) for _, n in certified_nonsingular(stacks))
    return _stats(n_trials, n_trials - nonsingular, nonsingular)


# ---------------------------------------------------------------------------
# Trial logs


def trial_log_rows(log: TrialLog):
    """A trial log's CSV text as ``csv.writer`` writes it: the header line, then
    blocks of at most ``_LOG_BLOCK_ROWS`` rows by trial index, bools as 0/1."""
    yield "trial_index,seed,nonsingular,span_rank,success\r\n"
    for start in range(0, len(log.span_rank), _LOG_BLOCK_ROWS):
        block = slice(start, start + _LOG_BLOCK_ROWS)
        span = log.span_rank[block]
        columns = (log.labels[block], log.nonsingular[block], span, span == log.target)
        rows = zip(range(start, start + len(span)), *(c.tolist() for c in columns))
        yield "".join(["%d,%d,%d,%d,%d\r\n" % row for row in rows])
