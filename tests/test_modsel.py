import csv
import io
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
    exhaustive,
    first_three_rows_indices,
    is_nonsingular_exact,
    monte_carlo,
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


def _chunk_sizes(n, per_trial):
    return [stop - start for start, stop in modsel._chunks(n, per_trial)]


def _span_owed(rank_passes):
    """Per quintic span stack, the trials owed a later pass as it entered ``exact._pooled``."""
    return [owed for shape, owed in rank_passes.owed if shape == (15, 15)]


def _p2_sizes(rank_passes):
    return [e[2] for e in rank_passes.events if e[0] == exact.P2]


def _record(log, i):
    """Row i of a ``TrialLog`` as the ``TrialRecord`` that ``run_trial`` returns."""
    rank = int(log.span_rank[i])
    return TrialRecord(i, int(log.labels[i]), bool(log.nonsingular[i]), rank, rank == log.target)


def _read_log(log):
    """The joined blocks of ``trial_log_rows(log)``, read back as rows by ``csv.reader``."""
    blocks = list(trial_log_rows(log))
    assert all(type(b) is str for b in blocks)
    return list(csv.reader(io.StringIO("".join(blocks), newline="")))


def _synthetic_log(n):
    """A ``TrialLog`` of ``n`` trials with random columns, the largest seed included."""
    rng = np.random.default_rng(n)
    labels = rng.integers(0, 2**64, n, dtype=np.uint64)
    labels[-1] = 2**64 - 1
    return modsel.TrialLog(labels, rng.random(n) < 0.5, rng.integers(0, 16, n), 12)


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

    def test_nonsingular_refuses_non_integer_entries(self):
        # 0.5 * I is invertible: refused, not truncated to the zero matrix
        with pytest.raises(ValidationError):
            is_nonsingular_exact(BernoulliMatrix(2, ((0.5, 0.0), (0.0, 0.5)), 0.5, 0))

    def test_entries_that_are_not_g_by_g_are_refused(self):
        # I_3 filed as a larger matrix, or ragged rows: refused, for the span
        # rank too, not ranked as some other matrix (I_3 as g = 4 was "nonsingular")
        eye3 = np.eye(3, dtype=int).tolist()
        with pytest.raises(ValidationError):
            is_nonsingular_exact(_matrix(4, eye3))
        for rows in (eye3, [[1] * 6] * 5 + [[1]]):
            with pytest.raises(ValidationError):
                is_nonsingular_exact(_matrix(6, rows))
            with pytest.raises(ValidationError):
                product_span_rank(QUINTIC, _matrix(6, rows), first_three_rows_indices(6))


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

    def test_no_pairs_rank_zero(self):
        # the rank of a matrix without rows, as batch_rank ranks a stack without rows
        for model, g in ((QUARTIC, 3), (QUINTIC, 6)):
            m = _matrix(g, [[int(i == j) for j in range(g)] for i in range(g)])
            assert product_span_rank(model, m, []) == 0
            assert product_span_rank(model, m, ()) == 0

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

    @pytest.mark.parametrize("pair", [(0, 3), (-1, 0), (2, 1)])
    def test_pairs_out_of_range_refused(self, pair):
        m = _matrix(3, [[1, 0, 0], [0, 1, 0], [0, 0, 1]])
        with pytest.raises(ValidationError, match="^index pairs must satisfy 0 <= i <= j < g$"):
            product_span_rank(QUARTIC, m, [(0, 0), pair])

    def test_entries_whose_products_could_overflow_are_refused(self):
        # a quartic span entry sums at most two products of entries of M, so
        # |M| <= 2^31 - 1 keeps every sum within int64 and the span rank of
        # diag(t, 1, 1) is its true 6; from |t| = 2^31 on a sum could reach
        # 2^63 and is refused, never wrapped (2^32 * 2^32 wrapped to 0: rank 5)
        pairs = first_three_rows_indices(3)
        assert len(modsel._span_table(QUARTIC).rounds) == 2
        for k in range(64):
            for t in (2**k - 1, 2**k, -(2**k)):
                m = _matrix(3, np.diag([t, 1, 1]).tolist())
                if t and 2 * t * t < 2**63:
                    assert product_span_rank(QUARTIC, m, pairs) == 6
                elif t:
                    with pytest.raises(ValidationError):
                        product_span_rank(QUARTIC, m, pairs)

    def test_non_integer_entries_refused(self):
        # 0.5 * I spans like I; truncated to integers it would be the zero matrix, rank 0
        m = _matrix(3, [[0.5 * (i == j) for j in range(3)] for i in range(3)])
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
        # a span entry sums at most len(table.rounds) <= 4 products of |M| <= 3,
        # so at most 36 in absolute value: the narrowest exact dtype is int8
        assert got.dtype == np.int8
        assert got.shape == (batch, len(pairs), len(table.columns))
        if batch == 0:
            return  # the product's reshape cannot infer a length from an empty stack
        want = span_matrices_by_product(mats, scatter_matrix(model), pairs)
        assert np.array_equal(got, want[..., list(table.columns)])
        assert np.array_equal(exact.batch_rank(got), exact.batch_rank(want))

    @pytest.mark.parametrize("dtype, span_dtype", [(bool, np.int8), (np.uint8, np.int32)])
    def test_bool_and_uint8_stacks_span_in_a_signed_dtype(self, dtype, span_dtype):
        # bool products and sums would be logical, and uint8 ones (entries
        # up to 255) would wrap: a bool stack spans in int8, as its entries
        # reach at most 4 * 1^2, and a uint8 one in int32 (4 * 255^2 = 260100)
        table, pairs = modsel._span_table(QUINTIC), first_three_rows_indices(6)
        mats = np.random.default_rng(3).integers(0, 2 if dtype is bool else 256, size=(20, 6, 6))
        got = modsel._span_matrices(mats.astype(dtype), table, pairs)
        assert got.dtype == span_dtype
        want = span_matrices_by_product(mats, scatter_matrix(QUINTIC), pairs)  # in int64
        assert np.array_equal(got, want[..., list(table.columns)])

    @pytest.mark.parametrize("model", [QUARTIC, QUINTIC], ids=["quartic", "quintic"])
    @pytest.mark.parametrize(
        "narrow, wider", [(np.int8, np.int16), (np.int16, np.int32), (np.int32, np.int64)]
    )
    def test_dtype_boundaries(self, model, narrow, wider):
        # the largest top with len(rounds) * top^2 within narrow's limit spans
        # in narrow, and top + 1 in the next wider dtype.  Entries are +-top:
        # trial 0 is all +top, so a column of len(rounds) members sums to
        # +len(rounds) * top^2, and trial 1 has row 0 +top and the others
        # -top, so its rows (0, b) sum to -len(rounds) * top^2
        g = model.genus
        table, pairs = modsel._span_table(model), first_three_rows_indices(g)
        top = math.isqrt(np.iinfo(narrow).max // len(table.rounds))
        for t, dtype in ((top, narrow), (top + 1, wider)):
            signs = np.random.default_rng(t).choice([-1, 1], size=(6, g, g))
            signs[0], signs[1] = 1, -1
            signs[1, 0] = 1
            mats = t * signs
            got = modsel._span_matrices(mats, table, pairs)
            assert got.dtype == dtype
            want = span_matrices_by_product(mats, scatter_matrix(model), pairs)
            assert abs(want).max() == len(table.rounds) * t * t
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


class TestChunkPlan:
    @settings(max_examples=300, deadline=None)
    @given(st.integers(1, 10**6), st.integers(1, 2**17))
    def test_fewest_near_equal_chunks(self, n, per_trial):
        plan = list(modsel._chunks(n, per_trial))
        # contiguous chunks that cover range(n) in order, none of them empty
        assert [start for start, _ in plan] == [0] + [stop for _, stop in plan[:-1]]
        assert plan[-1][1] == n
        sizes = [stop - start for start, stop in plan]
        assert min(sizes) >= 1 and max(sizes) - min(sizes) <= 1
        elements = modsel.CHUNK_ELEMENTS
        if 2 * n * per_trial <= 3 * elements:
            assert len(plan) == 1
        else:
            # the fewest chunks of at most CHUNK_ELEMENTS elements, or of one trial
            step = max(1, elements // per_trial)
            assert len(plan) == math.ceil(n / step)
            assert max(sizes) * per_trial <= max(elements, per_trial)


class TestChunkMemory:
    """The chunk of a 100-trial select-quintic call through span assembly and
    rank, within fixed bounds.

    The bounds are the traced peaks of the kernels these replaced (4.24 and
    3.04 times the array's bytes in int64), rounded up, so both kernels must
    meet them.  The member rounds assemble a 0/1 stack in int8, and meet the
    assembly bound over the int8 stack's bytes.
    """

    def _chunk(self):
        pairs = first_three_rows_indices(6)
        [(start, stop)] = modsel._chunks(100, QUINTIC_SPAN_ELEMENTS)
        return modsel._bits(trial_seeds(1, start, stop), 6, 0.5), pairs

    @pytest.mark.parametrize("kernel", ["member rounds", "scatter product"])
    def test_span_assembly(self, kernel):
        mats, pairs = self._chunk()
        assert len(mats) == 100
        if kernel == "member rounds":
            args = (modsel._span_matrices, mats, modsel._span_table(QUINTIC), pairs)
        else:
            args = (span_matrices_by_product, mats, scatter_matrix(QUINTIC), pairs)
        itemsize = 1 if kernel == "member rounds" else 8  # int8 rounds, an int64 product
        span_bytes = len(mats) * QUINTIC_SPAN_ELEMENTS * itemsize
        assert _traced_peak(*args) <= 4.3 * span_bytes

    @pytest.mark.parametrize("kernel", ["scratch block", "with temporaries"])
    @pytest.mark.parametrize("p", [exact.P1, exact.P2])
    def test_rank(self, kernel, p):
        mats, pairs = self._chunk()
        span = modsel._span_matrices(mats, modsel._span_table(QUINTIC), pairs)
        rank_mod = exact._rank_mod
        if kernel == "with temporaries":  # it takes int64 stacks only
            span, rank_mod = span.astype(np.int64), rank_mod_with_temporaries
        # the int64 work block's bytes: the int8 span's own bytes are an eighth
        assert _traced_peak(rank_mod, span, p) <= 3.1 * span.size * 8

    def test_select_call(self):
        # a 100-trial quintic select peaks in its mod-P1 rank pass, bounded by
        # test_rank at 3.1 int64 stacks (traced with numpy 2.4: 2.76), beside
        # the int8 span stack and the uint8 bits, an eighth and a fiftieth of
        # a stack.  A span stack widened to int64 adds a whole stack (traced:
        # 3.95 stacks for the call against 2.93), so the call's bound is 3.5.
        run_selection(QUINTIC, 0.5, 100, 1)  # cached tables and imports
        int64_stack = 100 * QUINTIC_SPAN_ELEMENTS * 8
        assert _traced_peak(run_selection, QUINTIC, 0.5, 100, 2) <= 3.5 * int64_stack

    def test_singularity_chunk_from_seeds_to_ranks(self):
        # one full g = 20 chunk of a 1600-trial singularity call: the draws mix
        # in place beside one shift, the bits take a byte an entry, and the
        # rank kernel's work and scratch blocks are its only int64 arrays of
        # the chunk's size (the int64 bits and draw temporaries peaked at 3.3
        # times the int64 block at this size, 4.2 times at 2^14 elements);
        # mod Q those blocks are int32, and drawing, at 2 times the int64
        # block, is the chunk's peak
        g = 20
        start, stop = next(modsel._chunks(1600, g * g))
        seeds = trial_seeds(1, start, stop)
        assert (stop - start) * g * g > modsel.CHUNK_ELEMENTS // 2
        block = (stop - start) * g * g * 8
        peak = _traced_peak(lambda: exact.batch_rank(modsel._bits(seeds, g, 0.5)))
        assert peak <= 2.75 * block
        chunk = lambda: list(exact.certified_nonsingular([(None, modsel._bits(seeds, g, 0.5))]))
        assert _traced_peak(chunk) <= 2.1 * block


class TestChunkInvariance:
    """Chunk size changes no count and no trial log column."""

    @staticmethod
    def _each_size(monkeypatch, run, n, per_trial):
        """``run()`` with CHUNK_ELEMENTS at 2^10, 2^14 and 2^16, and how many
        chunks each cuts the call of ``n`` trials into."""
        counts, results = [], []
        for elements in (2**10, 2**14, 2**16):
            monkeypatch.setattr(modsel, "CHUNK_ELEMENTS", elements)
            counts.append(len(list(modsel._chunks(n, per_trial))))
            results.append(run())
        return counts, results

    @pytest.mark.parametrize("g, n", [(3, 12000), (5, 4000), (8, 2000), (20, 400)])
    def test_singularity_rate(self, g, n, monkeypatch):
        run = lambda: singularity_rate(g, 0.5, n, 31)
        counts, (first, *rest) = self._each_size(monkeypatch, run, n, g * g)
        assert len(set(counts)) == 3, counts
        assert all(stats == first for stats in rest)

    @pytest.mark.parametrize("model, n", [(QUARTIC, 2000), (QUINTIC, 600)], ids=["quartic", "quintic"])
    def test_run_selection_records(self, model, n, monkeypatch):
        per_trial = len(first_three_rows_indices(model.genus)) * len(model.quad_monomials)
        run = lambda: run_selection(model, 0.5, n, 5, records=True)
        counts, ((stats, log), *rest) = self._each_size(monkeypatch, run, n, per_trial)
        assert len(set(counts)) == 3, counts
        for other_stats, other_log in rest:
            assert other_stats == stats
            assert other_log.target == log.target
            for column, other in zip(log[:3], other_log[:3]):
                assert column.dtype == other.dtype and np.array_equal(column, other)

    def test_exhaustive_quartic(self, monkeypatch):
        # 512 trials of 36 elements are one chunk from 2^14 elements on
        counts, (first, *rest) = self._each_size(monkeypatch, lambda: exhaustive(QUARTIC), 512, 36)
        assert counts[0] > counts[1] == counts[2] == 1
        assert first.successes == 174
        assert all(stats == first for stats in rest)


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
    def test_batched_records_match_single_trials_across_chunks(self, seed, p, monkeypatch):
        # chunk boundaries must not change any record: with chunks of 2^14
        # elements, 109 trials are the largest call of one chunk, 110 and 111
        # the smallest of two
        monkeypatch.setattr(modsel, "CHUNK_ELEMENTS", 2**14)
        plans = {1: [1], 109: [109], 110: [55, 55], 111: [55, 56]}
        for n, sizes in plans.items():
            assert _chunk_sizes(n, QUINTIC_SPAN_ELEMENTS) == sizes
            self._assert_records_match_single_trials(p, n, seed)

    def test_second_prime_pass_straddles_a_chunk_boundary(self, monkeypatch, rank_passes):
        # trials owed the mod-P2 pass on both sides of a boundary share one pass
        monkeypatch.setattr(modsel, "CHUNK_ELEMENTS", 2**14)
        assert _chunk_sizes(144, QUINTIC_SPAN_ELEMENTS) == [72, 72]
        run_selection(QUINTIC, 0.5, 144, 11)
        owed = _span_owed(rank_passes)
        assert len(owed) == 2 and all(k > 0 for k in owed)
        assert _p2_sizes(rank_passes) == [sum(owed)]
        self._assert_records_match_single_trials(0.5, 144, 11)

    def test_full_second_prime_pool_flushes_mid_call(self, monkeypatch, rank_passes):
        # four trials per chunk: the pool fills and is re-ranked mod P2 before the end
        monkeypatch.setattr(modsel, "CHUNK_ELEMENTS", 4 * QUINTIC_SPAN_ELEMENTS)
        n = 60
        run_selection(QUINTIC, 0.5, n, 5)
        owed = _span_owed(rank_passes)
        assert len(owed) == n // 4
        p2_sizes = _p2_sizes(rank_passes)
        assert len(p2_sizes) >= 2
        assert max(p2_sizes) <= 4
        assert sum(p2_sizes) == sum(owed)
        self._assert_records_match_single_trials(0.5, n, 5)

    @pytest.mark.parametrize("seed", [1, 77, 2**64 - 1])
    def test_select_call_rank_passes(self, seed, rank_passes, tmp_path):
        # one select call of 100 quintic trials: one chunk, so one mod-Q pass
        # of the 6 x 6 changes of basis, which settles every 0/1 trial of that
        # size, one mod-P1 pass of the span matrices and at most one mod-P2
        # pass, over at most its trials
        argv = ["select", "--model", "quintic", "--trials", "100", "--seed", str(seed)]
        assert cli.main(argv + ["--out", str(tmp_path / "log.csv")]) == 0
        passes = rank_passes.events
        first_passes = Counter((p, shape) for p, shape, _ in passes if p != exact.P2)
        assert first_passes == {(exact.Q, (6, 6)): 1, (exact.P1, (15, 15)): 1}
        p2_sizes = _p2_sizes(rank_passes)
        assert len(p2_sizes) <= 1
        assert sum(p2_sizes) == sum(_span_owed(rank_passes)) <= 100

    @pytest.mark.parametrize("chunk", [1, 2, 3, 4, 7])
    def test_second_prime_pass_corrects_pooled_records(self, chunk, monkeypatch):
        # 0/1 trials almost never rank differently mod P1 and P2, so give each
        # quartic trial the span matrix diag(P1 or 1, 1, 1, 1, 1, M[1][1]):
        # when M[0][0] = 1 its rank mod P1 is one short, and only the pooled
        # mod-P2 pass, across chunks of at most ``chunk`` trials, sees the missing rank
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
        rows = _read_log(log)
        assert rows[0] == ["trial_index", "seed", "nonsingular", "span_rank", "success"]
        assert len(rows) == 26

    def test_trial_log_rows_render_each_trial(self):
        # each row is its trial's record, in trial order, with bools as 0/1
        log = run_selection(QUINTIC, 0.5, 150, 4, records=True)[1]
        for i, row in enumerate(_read_log(log)[1:]):
            r = _record(log, i)
            assert [int(v) for v in row] == [
                i, r.seed, int(r.matrix_nonsingular), r.span_rank, int(r.success)
            ]
            assert all(v == str(int(v)) for v in row)  # integers, written as ints

    @pytest.mark.parametrize("n", [4096, 4097, 8193])
    def test_trial_log_blocks_match_csv_writer(self, n):
        # blocks of at most 4096 rows, whose joined text is csv.writer's
        log = _synthetic_log(n)
        blocks = list(trial_log_rows(log))
        rows = [["trial_index", "seed", "nonsingular", "span_rank", "success"]]
        for i in range(n):
            rank = int(log.span_rank[i])
            rows.append([i, int(log.labels[i]), int(log.nonsingular[i]), rank, int(rank == 12)])
        expected = io.StringIO()
        csv.writer(expected).writerows(rows)
        assert "".join(blocks) == expected.getvalue()
        assert [b.count("\n") for b in blocks[1:-1]] == [4096] * (len(blocks) - 2)
        assert len(blocks) == 1 + -(-n // 4096)

    def test_trial_log_blocks_memory(self):
        # a block at a time: 0.94 MB traced, where the whole text of these rows took 29.9 MB
        log = _synthetic_log(200_000)
        tracemalloc.start()
        try:
            size = sum(len(block) for block in trial_log_rows(log))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert size > 200_000 * 10
        assert peak < 2_000_000

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

    def test_matches_single_matrices_across_chunks(self, monkeypatch):
        # with chunks of 2^14 elements, 983 trials are the largest call of one
        # chunk at g = 5, 984 the smallest of two
        monkeypatch.setattr(modsel, "CHUNK_ELEMENTS", 2**14)
        g = 5
        plans = {1: [1], 983: [983], 984: [492, 492]}
        for n, sizes in plans.items():
            assert _chunk_sizes(n, g * g) == sizes
            singular = sum(
                not is_nonsingular_exact(bernoulli_matrix(g, 0.5, derive_seed(-7, i)))
                for i in range(n)
            )
            assert singularity_rate(g, 0.5, n, -7).successes == singular

    def test_g20_call_pools_the_trials_deficient_mod_q(self, rank_passes):
        # seed 424242: a 1600-trial call at g = 20 is 10 chunks of 160 trials,
        # each ranked once mod Q; the trials deficient mod Q (every singular
        # trial among them) are pooled across the chunks into one mod-P1 pass
        # and at most one mod-P2 pass
        stats = singularity_rate(20, 0.5, 1600, 424242)
        passes = rank_passes.events
        assert {shape for _, shape, _ in passes} == {(20, 20)}
        assert [(p, trials) for p, _, trials in passes[:10]] == [(exact.Q, 160)] * 10
        (p1, _, pooled), *rest = passes[10:]
        assert p1 == exact.P1 and pooled >= stats.successes > 0
        assert [p for p, _, _ in rest] in ([], [exact.P2])

    @pytest.mark.parametrize("chunk", [1, 2, 3, 4, 7])
    def test_second_prime_pass_settles_pooled_trials(self, chunk, monkeypatch):
        # entry (0, 0) scaled by Q*P1: such a trial ranks one short mod Q and
        # mod P1 when the entry is needed, and only the pooled mod-P2 pass,
        # across chunks of at most ``chunk`` trials, finds it nonsingular
        bits = modsel._bits

        def scaled_bits(seeds, g, p):
            mats = bits(seeds, g, p).astype(np.int64)  # a uint8 entry cannot hold Q*P1
            mats[:, 0, 0] *= exact.Q * exact.P1
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

