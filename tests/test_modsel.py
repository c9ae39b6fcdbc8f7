import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import cofactor_determinant
from periodlab.curves import PlaneCurveModel
from periodlab.rng import SplitMix64, derive_seed
from periodlab.errors import DomainError, ValidationError
from periodlab.modsel import (
    BernoulliMatrix,
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
    run_trials,
    singularity_rate,
    trial_log_rows,
)

QUARTIC = PlaneCurveModel(4)
QUINTIC = PlaneCurveModel(5)


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


class TestTrials:
    def test_run_trial_deterministic(self):
        a = run_trial(QUARTIC, 0.5, seed=42)
        b = run_trial(QUARTIC, 0.5, seed=42)
        assert a == b

    def test_success_definition(self):
        rec = run_trial(QUARTIC, 0.5, seed=42)
        assert rec.success == (rec.span_rank == 6)

    def test_monte_carlo_order_independent(self):
        records = run_trials(QUARTIC, 0.5, 64, 7)
        # each trial is reproducible in isolation from its own seed
        for r in (records[0], records[17], records[63]):
            again = run_trial(QUARTIC, 0.5, r.seed, trial_index=r.trial_index)
            assert again == r

    def test_monte_carlo_stats(self):
        stats = monte_carlo(QUARTIC, 0.5, 200, 3)
        assert stats.trials == 200
        assert 0.0 <= stats.estimate <= 1.0
        assert stats.ci95_halfwidth > 0.0
        assert stats.successes <= stats.nonsingular_count or True  # counts independent

    @pytest.mark.parametrize("seed", [-7, 2**64 + 3])
    @pytest.mark.parametrize("p", [0.0, 0.5, 1.0])
    def test_batched_records_match_single_trials_across_chunks(self, seed, p):
        # chunk boundaries must not change any record
        chunk = chunk_trials(15 * 6 * 6)  # quintic: 15 pairs of 6 x 6 outer products
        for n in (1, chunk - 1, chunk, chunk + 1):
            stats, records = run_selection(QUINTIC, p, n, seed, records=True)
            assert [r.trial_index for r in records] == list(range(n))
            for r in records:
                assert r == run_trial(QUINTIC, p, derive_seed(seed, r.trial_index), r.trial_index)
            assert stats.successes == sum(r.success for r in records)
            assert stats.nonsingular_count == sum(r.matrix_nonsingular for r in records)
            assert run_selection(QUINTIC, p, n, seed)[1] == []

    def test_trial_log_row_count(self):
        records = run_trials(QUARTIC, 0.5, 25, 1)
        rows = list(trial_log_rows(records))
        assert rows[0] == ["trial_index", "seed", "nonsingular", "span_rank", "success"]
        assert len(rows) == 26


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
