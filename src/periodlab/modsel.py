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
ranks come from ``exact.batch_rank``: elimination mod P1 = 2^31 - 1,
certified by Hadamard's bound; a rank-deficient trial whose bound reaches
P1 is ranked again mod P2 = 2147483629, and one whose bound reaches P1*P2
falls back to Bareiss elimination over the integers.  No floating-point
value decides any rank.  The single-matrix functions (``bernoulli_matrix``,
``is_nonsingular_exact``, ``product_span_rank``, ``run_trial``) are
batches of one through the same kernels.

``run_selection(..., records=True)`` also returns the per-trial records
that ``trial_log_rows`` renders.  Results are plain dataclasses, written
out with ``dataclasses.asdict``, and every 3g-3 is ``curves.moduli_count``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .curves import MAX_GENUS, PlaneCurveModel, moduli_count
from .errors import DomainError, ValidationError
from .exact import batch_rank
from .rng import MASK64, stream_draws, trial_seeds

# Trials are processed in chunks whose largest per-trial array (g*g draws,
# or the 3g-3 outer products of g*g entries) fills about this many
# elements, so memory stays bounded whatever the trial count.  Measured on
# the benchmark's singularity and select workloads: 2^15 and 2^16 raise
# peak RSS by 4-6%, and 2^13 is slower (more chunks, each paying numpy's
# per-call overhead) with no less memory.
CHUNK_ELEMENTS = 2**14


def chunk_trials(per_trial: int) -> int:
    """Trials per chunk when one trial's largest array has ``per_trial`` elements."""
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


def _scatter(model: PlaneCurveModel) -> np.ndarray:
    """(g*g, 3g-3) 0/1 matrix: row j*g + l holds zeta_j * zeta_l in the quad basis."""
    g = model.genus
    quad_index = {mon: c for c, mon in enumerate(model.quad_monomials)}
    diff = model.diff_monomials
    scatter = np.zeros((g * g, len(model.quad_monomials)), dtype=np.int64)
    for j in range(g):
        for l in range(g):
            scatter[j * g + l, quad_index[tuple(a + b for a, b in zip(diff[j], diff[l]))]] = 1
    return scatter


def _span_ranks(mats: np.ndarray, scatter: np.ndarray, pairs) -> np.ndarray:
    """Exact product-span ranks of a (B, g, g) stack of change-of-basis matrices.

    Row (a, b) of a trial's span matrix is outer(M[a], M[b]) flattened,
    times the scatter matrix: the coefficients of omega_a * omega_b over
    the quad monomials.
    """
    first, second = np.array(pairs).T
    outer = mats[:, first, :, None] * mats[:, second, None, :]
    rows = outer.reshape(len(mats), len(pairs), -1) @ scatter
    del outer  # the largest array of the chunk; not needed while ranking
    return batch_rank(rows)


def _select_ranks(mats: np.ndarray, scatter: np.ndarray, pairs):
    """(nonsingular, span_rank) arrays for a (B, g, g) stack of matrices."""
    return batch_rank(mats) == mats.shape[1], _span_ranks(mats, scatter, pairs)


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
    return int(_span_ranks(mats, _scatter(model), pairs)[0])


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
    return SuccessStats(
        trials=trials,
        successes=successes,
        nonsingular_count=nonsingular,
        estimate=est,
        ci95_halfwidth=half,
    )


def _records(start, seeds, nonsingular, span, target) -> list[TrialRecord]:
    return [
        TrialRecord(start + k, s, ns, r, r == target)
        for k, (s, ns, r) in enumerate(zip(seeds, nonsingular.tolist(), span.tolist()))
    ]


def run_trial(model: PlaneCurveModel, p: float, seed: int, trial_index: int = 0) -> TrialRecord:
    """One full experiment instance with an explicit per-trial seed."""
    g = model.genus
    pairs = first_three_rows_indices(g)
    nonsingular, span = _select_ranks(_bits(_one_seed(seed), g, p), _scatter(model), pairs)
    return _records(trial_index, [seed], nonsingular, span, moduli_count(g))[0]


def _select_stats(model, n_trials, matrices, log=None, exact=False) -> SuccessStats:
    """Stream trials 0..n_trials-1 through the ranks; the one select pipeline.

    ``matrices(start, stop)`` returns a chunk's per-trial labels (seeds or
    codes) and its (B, g, g) matrices.  Records are appended to ``log``
    when it is a list.
    """
    g = model.genus
    target = moduli_count(g)
    pairs = first_three_rows_indices(g)
    scatter = _scatter(model)
    succ = nonsing = 0
    for start, stop in _chunks(n_trials, len(pairs) * g * g):
        labels, mats = matrices(start, stop)
        nonsingular, span = _select_ranks(mats, scatter, pairs)
        succ += int(np.count_nonzero(span == target))
        nonsing += int(np.count_nonzero(nonsingular))
        if log is not None:
            log.extend(_records(start, labels.tolist(), nonsingular, span, target))
    return _stats(n_trials, succ, nonsing, exact)


def run_selection(
    model: PlaneCurveModel, p: float, n_trials: int, seed: int, records: bool = False
) -> tuple[SuccessStats, list[TrialRecord]]:
    """Stats of ``n_trials`` seeded trials, plus their records if ``records``.

    Trial i uses the seed derive_seed(seed, i), so the aggregate is
    independent of execution order and chunking, and any single trial can
    be reproduced in isolation with ``run_trial``.  Without ``records``
    the returned list is empty and memory stays bounded by the chunk size.
    """
    if n_trials < 1:
        raise DomainError("n_trials must be >= 1")

    def matrices(start, stop):
        seeds = trial_seeds(seed, start, stop)
        return seeds, _bits(seeds, model.genus, p)

    log: list[TrialRecord] = []
    return _select_stats(model, n_trials, matrices, log if records else None), log


def monte_carlo(model: PlaneCurveModel, p: float, n_trials: int, seed: int) -> SuccessStats:
    """Monte Carlo success estimate over independent seeded trials.

    Per-trial seeds come from derive_seed(seed, index), so the aggregate
    is independent of execution order and any single trial can be
    reproduced in isolation.
    """
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

    return _select_stats(model, 2 ** (g * g), matrices, exact=True)


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
    singular = 0
    for start, stop in _chunks(n_trials, g * g):
        mats = _bits(trial_seeds(seed, start, stop), g, p)
        singular += int(np.count_nonzero(batch_rank(mats) < g))
    return _stats(n_trials, singular, n_trials - singular)


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


def trial_log_rows(records):
    """CSV rows of a trial log: the header, then one row per trial."""
    yield ["trial_index", "seed", "nonsingular", "span_rank", "success"]
    for r in records:
        yield [r.trial_index, r.seed, int(r.matrix_nonsingular), r.span_rank, int(r.success)]
