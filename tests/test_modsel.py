import math
import tracemalloc
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import (
    cofactor_determinant,
    rank_mod_with_temporaries,
    scatter_matrix,
    span_matrices_by_product,
)
from periodlab import cli, exact, modsel
from periodlab.curves import PlaneCurveModel
from periodlab.exact import integer_rank
from periodlab.rng import SplitMix64, derive_seed, trial_seeds
from periodlab.errors import DomainError, ValidationError
from periodlab.modsel import (
    BernoulliMatrix,
    TrialRecord,
    bernoulli_matrix,
    chunk_trials,
    exhaustive,
    first_three_rows_indices,
    is_nonsingular_exact,
    monte_carlo,
    paper_bounds,
    product_span_rank,
    run_selection,
    run_trial,
    singularity_rate,
    trial_log_rows,
)

QUARTIC = PlaneCurveModel(4)
QUINTIC = PlaneCurveModel(5)
# elements of one quintic span matrix: 15 pairs over 15 quad monomials
QUINTIC_SPAN_ELEMENTS = len(first_three_rows_indices(6)) * len(QUINTIC.quad_monomials)


def _count_rank_passes(monkeypatch):
    """Record every ``exact._rank_mod`` pass as (prime, matrix shape, trials), and per
    quintic span stack how many trials are owed the mod-P2 pass."""
    owed, passes = [], []
    ranks_mod_p1, rank_mod = exact._ranks_mod_p1, exact._rank_mod

    def counting_ranks_mod_p1(a):
        ranks, second = ranks_mod_p1(a)
        if a.shape[1:] == (15, 15):
            owed.append(second.size)
        return ranks, second

    def counting_rank_mod(a, p):
        passes.append((p, a.shape[1:], len(a)))
        return rank_mod(a, p)

    monkeypatch.setattr(exact, "_ranks_mod_p1", counting_ranks_mod_p1)
    monkeypatch.setattr(exact, "_rank_mod", counting_rank_mod)
    return owed, passes


def _p2_sizes(passes):
    return [trials for p, _, trials in passes if p == exact.P2]


def _record(log, i):
    """Row i of a ``TrialLog`` as the ``TrialRecord`` that ``run_trial`` returns."""
    rank = int(log.span_rank[i])
    return TrialRecord(i, int(log.labels[i]), bool(log.nonsingular[i]), rank, rank == log.target)


def _matrix(g, rows):
    return BernoulliMatrix(g=g, entries=tuple(tuple(r) for r in rows), p=0.5, seed=0)


class TestBernoulliMatrix:
    def test_reproducible(self):
        a = bernoulli_matrix(5, 0.5, 123)
        b = bernoulli_matrix(5, 0.5, 123)
        assert a.entries == b.entries

    def test_extreme_p(self):
        zeros = bernoulli_matrix(4, 0.0, 9)
        ones = bernoulli_matrix(4, 1.0, 9)
        assert all(v == 0 for row in zeros.entries for v in row)
        assert all(v == 1 for row in ones.entries for v in row)

    def test_half_p_density(self):
        m = bernoulli_matrix(40, 0.5, 77)
        density = sum(sum(r) for r in m.entries) / 1600.0
        assert abs(density - 0.5) < 0.05

    @pytest.mark.parametrize("p", [0.0, 0.3, 0.5, 1.0 - 2.0**-53, 1.0])
    def test_matches_scalar_stream(self, p):
        # entry (i, j) is draw i*g + j of SplitMix64(seed), below floor(p * 2^64)
        threshold = math.floor(p * 2**64)
        for seed in (0, -7, 2**64 + 3):
            stream = SplitMix64(seed)
            expected = tuple(
                tuple(int(stream.next_u64() < threshold) for _ in range(7)) for _ in range(7)
            )
            assert bernoulli_matrix(7, p, seed).entries == expected

    def test_domain(self):
        with pytest.raises(DomainError):
            bernoulli_matrix(0, 0.5, 1)
        with pytest.raises(DomainError):
            bernoulli_matrix(3, 1.5, 1)

    def test_nonsingular_matches_oracle(self):
        for seed in range(50):
            m = bernoulli_matrix(4, 0.5, seed)
            assert is_nonsingular_exact(m) == (cofactor_determinant(m.entries) != 0)


class TestIndexSet:
    def test_first_three_rows(self):
        idx = first_three_rows_indices(3)
        assert idx == ((0, 0), (0, 1), (0, 2), (1, 1), (1, 2), (2, 2))
        assert len(first_three_rows_indices(6)) == 15
        with pytest.raises(DomainError):
            first_three_rows_indices(2)


class TestProductSpanRank:
    def test_identity_quartic_full(self):
        # identity change of basis: the six products x^2..z^2 span everything
        m = _matrix(3, [[1, 0, 0], [0, 1, 0], [0, 0, 1]])
        assert product_span_rank(QUARTIC, m, first_three_rows_indices(3)) == 6

    def test_zero_matrix_rank_zero(self):
        m = _matrix(3, [[0] * 3] * 3)
        assert product_span_rank(QUARTIC, m, first_three_rows_indices(3)) == 0

    def test_repeated_rows_deficient(self):
        m = _matrix(3, [[1, 1, 1], [1, 1, 1], [1, 1, 1]])
        # all products coincide, rank 1
        assert product_span_rank(QUARTIC, m, first_three_rows_indices(3)) == 1

    def test_identity_quintic_deficient(self):
        # only 12 of the 21 degree-4 monomials arise from first-three-rows
        # products of the 6 degree-2 monomials
        m = _matrix(6, [[int(i == j) for j in range(6)] for i in range(6)])
        rank = product_span_rank(QUINTIC, m, first_three_rows_indices(6))
        assert rank == 12
        assert rank < 15

    def test_size_mismatch(self):
        m = _matrix(4, [[1] * 4] * 4)
        with pytest.raises(ValidationError):
            product_span_rank(QUARTIC, m, first_three_rows_indices(3))

    @settings(max_examples=60, deadline=None)
    @given(st.integers(min_value=0, max_value=2**9 - 1))
    def test_rank_bounds(self, code):
        rows = [[(code >> (3 * i + j)) & 1 for j in range(3)] for i in range(3)]
        m = _matrix(3, rows)
        rank = product_span_rank(QUARTIC, m, first_three_rows_indices(3))
        assert 0 <= rank <= 6

    @settings(max_examples=40, deadline=None)
    @given(st.integers(min_value=0, max_value=2**9 - 1), st.permutations([0, 1, 2]))
    def test_column_relabel_invariance(self, code, perm):
        # permuting the differential basis permutes columns of M; rank of the
        # product span is unchanged
        rows = [[(code >> (3 * i + j)) & 1 for j in range(3)] for i in range(3)]
        idx = first_three_rows_indices(3)
        r1 = product_span_rank(QUARTIC, _matrix(3, rows), idx)
        permuted = [[row[perm[j]] for j in range(3)] for row in rows]
        r2 = product_span_rank(QUARTIC, _matrix(3, permuted), idx)
        assert r1 == r2


class TestSpanAssembly:
    """The member-round assembly against the matrix product with a scatter matrix."""

    @pytest.mark.parametrize("model", [QUARTIC, QUINTIC], ids=["quartic", "quintic"])
    def test_columns_ordered_by_member_count(self, model):
        table = modsel._span_table(model)
        members = scatter_matrix(model).sum(axis=0)
        assert sorted(table.columns) == list(range(len(model.quad_monomials)))
        # most members first, and by monomial index among equals
        assert list(table.columns) == sorted(table.columns, key=lambda c: (-members[c], c))
        ordered = members[list(table.columns)]
        assert [len(j) for j, _l in table.rounds] == [
            int(np.count_nonzero(ordered > k)) for k in range(ordered.max())
        ]
        assert max(members) <= 4

    @settings(max_examples=150, deadline=None)
    @given(
        st.sampled_from([QUARTIC, QUINTIC]),
        st.integers(0, 80),
        st.sampled_from([(0, 1), (-3, 3)]),
        st.booleans(),
        st.integers(0, 2**32),
    )
    def test_matches_the_product_up_to_column_order(self, model, batch, bounds, standard, seed):
        g = model.genus
        rng = np.random.default_rng(seed)
        mats = rng.integers(bounds[0], bounds[1] + 1, size=(batch, g, g))
        if standard:
            pairs = first_three_rows_indices(g)
        else:
            every = [(a, b) for a in range(g) for b in range(a, g)]
            pairs = [every[k] for k in rng.integers(0, len(every), size=rng.integers(1, 25))]
        table = modsel._span_table(model)
        got = modsel._span_matrices(mats, table, pairs)
        assert got.dtype == np.int64
        assert got.shape == (batch, len(pairs), len(table.columns))
        if batch == 0:
            return  # the product's reshape cannot infer a length from an empty stack
        want = span_matrices_by_product(mats, scatter_matrix(model), pairs)
        assert np.array_equal(got, want[..., list(table.columns)])
        assert np.array_equal(exact.batch_rank(got), exact.batch_rank(want))


def _traced_peak(fn, *args):
    """Bytes ``fn(*args)`` allocates at its peak above what was held before."""
    tracemalloc.start()
    try:
        held = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        fn(*args)
        return tracemalloc.get_traced_memory()[1] - held
    finally:
        tracemalloc.stop()


class TestChunkMemory:
    """One select-quintic chunk through span assembly and rank, within fixed bounds.

    The bounds are the traced peaks of the kernels these replaced (4.24 and
    3.04 times the array's bytes), rounded up, so both kernels must meet them.
    """

    def _chunk(self):
        pairs = first_three_rows_indices(6)
        mats = modsel._bits(trial_seeds(1, 0, chunk_trials(QUINTIC_SPAN_ELEMENTS)), 6, 0.5)
        return mats, pairs

    @pytest.mark.parametrize("kernel", ["member rounds", "scatter product"])
    def test_span_assembly(self, kernel):
        mats, pairs = self._chunk()
        assert len(mats) == 72
        if kernel == "member rounds":
            args = (modsel._span_matrices, mats, modsel._span_table(QUINTIC), pairs)
        else:
            args = (span_matrices_by_product, mats, scatter_matrix(QUINTIC), pairs)
        span_bytes = 72 * QUINTIC_SPAN_ELEMENTS * 8
        assert _traced_peak(*args) <= 4.3 * span_bytes

    @pytest.mark.parametrize("kernel", ["scratch block", "with temporaries"])
    @pytest.mark.parametrize("p", [exact.P1, exact.P2])
    def test_rank(self, kernel, p):
        mats, pairs = self._chunk()
        span = modsel._span_matrices(mats, modsel._span_table(QUINTIC), pairs)
        rank_mod = exact._rank_mod if kernel == "scratch block" else rank_mod_with_temporaries
        assert _traced_peak(rank_mod, span, p) <= 3.1 * span.nbytes


class TestTrials:
    def test_run_trial_deterministic(self):
        a = run_trial(QUARTIC, 0.5, seed=42)
        b = run_trial(QUARTIC, 0.5, seed=42)
        assert a == b

    def test_success_definition(self):
        rec = run_trial(QUARTIC, 0.5, seed=42)
        assert rec.success == (rec.span_rank == 6)

    def test_monte_carlo_order_independent(self):
        log = run_selection(QUARTIC, 0.5, 64, 7, records=True)[1]
        # each trial is reproducible in isolation from its own seed
        for r in (_record(log, 0), _record(log, 17), _record(log, 63)):
            again = run_trial(QUARTIC, 0.5, r.seed, trial_index=r.trial_index)
            assert again == r

    def test_monte_carlo_stats(self):
        stats = monte_carlo(QUARTIC, 0.5, 200, 3)
        assert stats.trials == 200
        assert 0.0 <= stats.estimate <= 1.0
        assert stats.ci95_halfwidth > 0.0

    @pytest.mark.parametrize("seed", [3, -7, 2**64 + 3])
    @pytest.mark.parametrize("p", [0.2, 0.5, 0.9])
    def test_quartic_success_iff_nonsingular(self, seed, p):
        # g = 3: Sym^2 H^0(K) = H^0(2K), so the products span iff M is invertible
        stats, log = run_selection(QUARTIC, p, 200, seed, records=True)
        assert np.array_equal(log.span_rank == log.target, log.nonsingular)
        assert stats.successes == stats.nonsingular_count

    def _assert_records_match_single_trials(self, p, n, seed):
        stats, log = run_selection(QUINTIC, p, n, seed, records=True)
        assert [len(column) for column in log[:3]] == [n, n, n]
        for i in range(n):
            assert _record(log, i) == run_trial(QUINTIC, p, derive_seed(seed, i), i)
        assert stats.successes == np.count_nonzero(log.span_rank == log.target)
        assert stats.nonsingular_count == np.count_nonzero(log.nonsingular)
        assert run_selection(QUINTIC, p, n, seed) == (stats, None)

    @pytest.mark.parametrize("seed", [-7, 2**64 + 3])
    @pytest.mark.parametrize("p", [0.0, 0.5, 1.0])
    def test_batched_records_match_single_trials_across_chunks(self, seed, p):
        # chunk boundaries must not change any record
        chunk = chunk_trials(QUINTIC_SPAN_ELEMENTS)
        for n in (1, chunk - 1, chunk, chunk + 1):
            self._assert_records_match_single_trials(p, n, seed)

    def test_second_prime_pass_straddles_a_chunk_boundary(self, monkeypatch):
        # trials owed the mod-P2 pass on both sides of a boundary share one pass
        owed, passes = _count_rank_passes(monkeypatch)
        chunk = chunk_trials(QUINTIC_SPAN_ELEMENTS)
        run_selection(QUINTIC, 0.5, 2 * chunk, 11)
        assert len(owed) == 2 and all(k > 0 for k in owed)
        assert _p2_sizes(passes) == [sum(owed)]
        self._assert_records_match_single_trials(0.5, 2 * chunk, 11)

    def test_full_second_prime_pool_flushes_mid_call(self, monkeypatch):
        # four trials per chunk: the pool fills and is re-ranked mod P2 before the end
        monkeypatch.setattr(modsel, "CHUNK_ELEMENTS", 4 * QUINTIC_SPAN_ELEMENTS)
        owed, passes = _count_rank_passes(monkeypatch)
        n = 60
        run_selection(QUINTIC, 0.5, n, 5)
        assert len(owed) == n // 4
        p2_sizes = _p2_sizes(passes)
        assert len(p2_sizes) >= 2
        assert max(p2_sizes) <= 4
        assert sum(p2_sizes) == sum(owed)
        self._assert_records_match_single_trials(0.5, n, 5)

    @pytest.mark.parametrize("seed", [1, 77, 2**64 - 1])
    def test_select_call_rank_passes(self, seed, monkeypatch, tmp_path):
        # one select call of 100 quintic trials: two chunks, so two passes mod P1
        # per stack shape and at most one mod-P2 pass, over at most a chunk of trials
        owed, passes = _count_rank_passes(monkeypatch)
        argv = ["select", "--model", "quintic", "--trials", "100", "--seed", str(seed)]
        assert cli.main(argv + ["--out", str(tmp_path / "log.csv")]) == 0
        p1_shapes = Counter(shape for p, shape, _ in passes if p == exact.P1)
        assert p1_shapes == {(6, 6): 2, (15, 15): 2}
        p2_sizes = _p2_sizes(passes)
        assert len(p2_sizes) <= 1
        assert sum(p2_sizes) == sum(owed) <= chunk_trials(QUINTIC_SPAN_ELEMENTS)

    @pytest.mark.parametrize("chunk", [1, 2, 3, 4, 7])
    def test_second_prime_pass_corrects_pooled_records(self, chunk, monkeypatch):
        # 0/1 trials almost never rank differently mod P1 and P2, so give each
        # quartic trial the span matrix diag(P1 or 1, 1, 1, 1, 1, M[1][1]):
        # when M[0][0] = 1 its rank mod P1 is one short, and only the pooled
        # mod-P2 pass, across chunks of ``chunk`` trials, sees the missing rank;
        # 40 trials put a pass at every boundary and, for 3 and 7, a short last chunk
        def span_matrices(mats, scatter, pairs):
            diag = np.ones((len(mats), 6), dtype=np.int64)
            diag[:, 0] = np.where(mats[:, 0, 0] == 1, exact.P1, 1)
            diag[:, 5] = mats[:, 1, 1]
            return diag[:, :, None] * np.eye(6, dtype=np.int64)

        monkeypatch.setattr(modsel, "_span_matrices", span_matrices)
        monkeypatch.setattr(modsel, "CHUNK_ELEMENTS", chunk * 36)
        stats, log = run_selection(QUARTIC, 0.5, 40, 3, records=True)
        records = [_record(log, i) for i in range(40)]
        for r in records:
            assert r == run_trial(QUARTIC, 0.5, r.seed, r.trial_index)
            m = bernoulli_matrix(3, 0.5, r.seed).entries
            assert r.span_rank == 5 + m[1][1]
        assert {r.span_rank for r in records} == {5, 6}
        assert stats.successes == sum(r.success for r in records)
        assert run_selection(QUARTIC, 0.5, 40, 3)[0] == stats

    def test_trial_log_row_count(self):
        log = run_selection(QUARTIC, 0.5, 25, 1, records=True)[1]
        rows = list(trial_log_rows(log))
        assert rows[0] == ["trial_index", "seed", "nonsingular", "span_rank", "success"]
        assert len(rows) == 26

    def test_trial_log_rows_render_each_trial(self):
        # each row is its trial's record, in trial order, with bools as 0/1
        log = run_selection(QUINTIC, 0.5, 150, 4, records=True)[1]
        for i, row in enumerate(list(trial_log_rows(log))[1:]):
            r = _record(log, i)
            assert list(row) == [i, r.seed, int(r.matrix_nonsingular), r.span_rank, int(r.success)]
            assert all(type(v) is int for v in row)

    def test_trial_log_memory(self):
        # the log holds three columns, 17 bytes a trial, and nothing per trial
        # beside them (a list of TrialRecord objects held about 190 bytes a trial)
        n = 20_000
        run_selection(QUINTIC, 0.5, 100, 1, records=True)  # cached tables and imports
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            result = run_selection(QUINTIC, 0.5, n, 1, records=True)
            held = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        assert result[0].trials == n
        assert held <= 24 * n


class TestExhaustive:
    def test_quartic_counts(self):
        stats = exhaustive(QUARTIC)
        assert stats.trials == 512
        # exact census over all 3x3 0/1 matrices: success iff nonsingular
        assert stats.successes == 174
        assert stats.nonsingular_count == 174
        assert stats.ci95_halfwidth == 0.0

    def test_quintic_refused(self):
        with pytest.raises(DomainError):
            exhaustive(QUINTIC)

    def test_monte_carlo_agrees_with_census(self):
        stats = monte_carlo(QUARTIC, 0.5, 4000, 2024)
        assert abs(stats.estimate - 174 / 512) < 3.0 * stats.ci95_halfwidth / 1.96 + 0.02


class TestSingularityRate:
    def test_matches_census_g3(self):
        stats = singularity_rate(3, 0.5, 4000, 11)
        assert abs(stats.estimate - 338 / 512) < 0.03
        assert stats.successes + stats.nonsingular_count == stats.trials

    def test_matches_single_matrices_across_chunks(self):
        g = 5
        chunk = chunk_trials(g * g)
        for n in (1, chunk - 1, chunk + 1):
            singular = sum(
                not is_nonsingular_exact(bernoulli_matrix(g, 0.5, derive_seed(-7, i)))
                for i in range(n)
            )
            assert singularity_rate(g, 0.5, n, -7).successes == singular

    @pytest.mark.parametrize("chunk", [1, 2, 3, 4, 7])
    def test_second_prime_pass_settles_pooled_trials(self, chunk, monkeypatch):
        # entry (0, 0) scaled by P1: such a trial ranks one short mod P1 when the
        # entry is needed, and only the pooled mod-P2 pass, across chunks of
        # ``chunk`` trials, finds it nonsingular
        bits = modsel._bits

        def scaled_bits(seeds, g, p):
            mats = bits(seeds, g, p)
            mats[:, 0, 0] *= exact.P1
            return mats

        monkeypatch.setattr(modsel, "_bits", scaled_bits)
        monkeypatch.setattr(modsel, "CHUNK_ELEMENTS", chunk * 9)
        mats = scaled_bits(trial_seeds(8, 0, 60), 3, 0.5)
        singular = sum(integer_rank(m) < 3 for m in mats.tolist())
        mod_p1_singular = sum(integer_rank((m % exact.P1).tolist()) < 3 for m in mats)
        assert mod_p1_singular > singular
        stats = singularity_rate(3, 0.5, 60, 8)
        assert stats.successes == singular
        assert stats.nonsingular_count == 60 - singular

    def test_deterministic(self):
        a = singularity_rate(4, 0.5, 100, 5)
        b = singularity_rate(4, 0.5, 100, 5)
        assert a == b

    def test_domain(self):
        with pytest.raises(DomainError):
            singularity_rate(0, 0.5, 10, 1)
        with pytest.raises(DomainError):
            singularity_rate(3, 0.5, 0, 1)


class TestBounds:
    def test_values_g6(self):
        values = dict(paper_bounds(6))
        assert values["tao_vu_conjectured_nonsingular"] == pytest.approx(1.0 - 0.5**6)
        assert values["tao_vu_proved_lower_bound"] == pytest.approx(1.0 - 0.75**6)
        assert values["displayed_expression"] == pytest.approx(15.0 / 16.0**15)
        assert values["union_bound_reading"] == pytest.approx(1.0 - 15.0 / 16.0**15)

    def test_domain(self):
        with pytest.raises(DomainError):
            paper_bounds(1)
