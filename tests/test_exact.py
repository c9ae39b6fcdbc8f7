import math
import random
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import cofactor_determinant, rank_mod_with_temporaries
from periodlab import exact
from periodlab.errors import ValidationError
from periodlab.exact import (
    P1,
    P2,
    Q,
    _rank_mod,
    batch_rank,
    certified_nonsingular,
    certified_ranks,
    integer_rank,
)


def test_identity_nonsingular():
    assert integer_rank([[1, 0, 0], [0, 1, 0], [0, 0, 1]]) == 3


def test_all_ones_singular():
    assert integer_rank([[1, 1, 1], [1, 1, 1], [1, 1, 1]]) != 3


def test_hand_checked_determinant():
    # cofactor expansion by hand gives 2
    m = [[1, 1, 0], [0, 1, 1], [1, 0, 1]]
    assert integer_rank(m) == len(m)


def test_rank_rectangular():
    assert integer_rank([[1, 2, 3], [2, 4, 6]]) == 1
    assert integer_rank([[1, 0], [0, 1], [1, 1]]) == 2
    assert integer_rank([]) == 0
    assert integer_rank([[0, 0], [0, 0]]) == 0


def test_against_cofactor_oracle():
    rng = random.Random(20240817)
    for _ in range(200):
        n = rng.randint(1, 5)
        m = [[rng.randint(-3, 3) for _ in range(n)] for _ in range(n)]
        det = cofactor_determinant(m)
        assert (integer_rank(m) == n) == (det != 0)


def test_rank_with_large_entries():
    # fraction-free elimination must stay exact under growth
    m = [[10**12, 1, 0], [0, 10**12, 1], [1, 0, 10**12]]
    assert integer_rank(m) == 3


def _low_rank(rng, rows, cols, rank, bound):
    left = [[rng.randint(-bound, bound) for _ in range(rank)] for _ in range(rows)]
    right = [[rng.randint(-3, 3) for _ in range(cols)] for _ in range(rank)]
    return [[sum(left[i][k] * right[k][j] for k in range(rank)) for j in range(cols)] for i in range(rows)]


@settings(max_examples=120, deadline=None)
@given(
    st.integers(1, 20),
    st.integers(1, 20),
    st.sampled_from([1, 3, 1000, 2**20]),
    st.integers(0, 2**32),
)
def test_batch_rank_matches_bareiss(rows, cols, bound, seed):
    # square and rectangular stacks mixing full-rank and low-rank matrices
    rng = random.Random(seed)
    mats = [
        _low_rank(rng, rows, cols, rng.randint(0, min(rows, cols)), bound) for _ in range(4)
    ]
    mats.append([[rng.randint(-bound, bound) for _ in range(cols)] for _ in range(rows)])
    assert batch_rank(np.array(mats, dtype=np.int64)).tolist() == [integer_rank(m) for m in mats]


# Hadamard bound H = prod max(1, ||row||).  [[P1]] and diag(P1, 1, 1) are
# rank-deficient mod P1 with P1 <= H < P1*P2, so only the second prime sees
# their rank; [[P1*P2]] vanishes mod both primes and needs Bareiss.
def test_second_prime_recovers_rank():
    assert batch_rank(np.array([[[P1]]])).tolist() == [1]
    assert batch_rank(np.array([np.diag([P1, 1, 1])])).tolist() == [3]


def test_second_prime_keeps_the_larger_rank():
    # diag(P2, 2, 0) is owed the mod-P2 pass (rank-deficient, P1 <= H = 2*P2 < P1*P2)
    # but ranks 2 mod P1 and only 1 mod P2: the certified rank is the larger
    assert batch_rank(np.array([np.diag([P2, 2, 0])])).tolist() == [2]


def test_bareiss_fallback_beyond_both_primes():
    assert batch_rank(np.array([[[P1 * P2]]])).tolist() == [1]


def test_mixed_batch_takes_each_branch():
    mats = np.array(
        [
            np.diag([P1, 1, 1]),  # second prime
            np.diag([P1 * P2, 1, 1]),  # Bareiss fallback
            [[1, 1, 0], [0, 1, 1], [1, 0, 1]],  # full rank mod P1
            [[1, 1, 1], [1, 1, 1], [2, 2, 2]],  # deficient, H < P1
            np.zeros((3, 3), dtype=np.int64),
        ]
    )
    before = mats.copy()
    assert batch_rank(mats).tolist() == [3, 3, 3, 1, 0]
    assert (mats == before).all()  # the input is not reduced in place


def test_batch_rank_empty_shapes():
    assert batch_rank(np.zeros((0, 3, 3), dtype=np.int64)).tolist() == []
    assert batch_rank(np.zeros((2, 0, 3), dtype=np.int64)).tolist() == [0, 0]


def test_stacks_without_three_axes_are_refused():
    # one matrix, four axes or ragged rows: refused, not a numpy ValueError
    for a in (np.eye(3, dtype=np.int64), np.ones((1, 2, 2, 2), dtype=np.int64), [[[1, 0], [0]]]):
        with pytest.raises(ValidationError):
            batch_rank(a)
        with pytest.raises(ValidationError):
            list(certified_nonsingular([(None, a)]))


def test_float_entries_are_refused_not_truncated():
    # 0.5 * I is invertible; truncated to integers it would be the zero matrix
    half = [[0.5, 0.0], [0.0, 0.5]]
    for stack in ([half], np.array([half]), np.array([half], dtype=complex)):
        with pytest.raises(ValidationError):
            batch_rank(stack)
    with pytest.raises(ValidationError):
        integer_rank(half)
    with pytest.raises(ValidationError):
        integer_rank(np.array(half))


def test_entries_beyond_int64_are_refused():
    # 2^70 arrives as an object array: refused, not an OverflowError traceback
    with pytest.raises(ValidationError):
        batch_rank([[[2**70, 1], [0, 1]]])
    assert integer_rank([[2**70, 1], [0, 1]]) == 2  # Python ints have no width


def test_uint64_entries_from_two_to_the_63_are_refused():
    # uint64 entries of 2^63 or more would wrap to negative int64 values
    top = np.iinfo(np.int64).max
    assert batch_rank(np.array([[[top, 0], [0, 1]]], dtype=np.uint64)).tolist() == [2]
    with pytest.raises(ValidationError):
        batch_rank(np.array([[[2**63, 0], [0, 1]]], dtype=np.uint64))


# det = P1 exactly, so this matrix has rank 3 mod P1 and 4 over Q; only its
# Hadamard bound, from squared row norms far above 255, sends it to the
# mod-P2 pass, so a uint8 stack must not square in uint8
DET_P1 = [[109, 8, 225, 183], [249, 216, 192, 67], [6, 157, 229, 114], [58, 51, 23, 209]]


def test_uint8_stack_is_squared_without_wrapping():
    assert cofactor_determinant(DET_P1) == P1
    a = np.array([DET_P1], dtype=np.uint8)
    assert _rank_mod(a, P1).tolist() == [3]
    assert batch_rank(a).tolist() == [4]
    assert a.tolist() == [DET_P1]  # the input is not cast in place


@settings(max_examples=100, deadline=None)
@given(
    st.integers(0, 12),
    st.integers(0, 8),
    st.integers(0, 8),
    st.sampled_from([(0, 1), (0, 255), (250, 255)]),
    st.booleans(),
    st.integers(0, 2**32),
)
def test_uint8_and_int64_stacks_rank_alike(batch, rows, cols, bounds, deficient, seed):
    # a stack is ranked in its own dtype: a uint8 stack, entries up to 255,
    # ranks as its int64 copy, through the Hadamard and Bareiss branches too
    rng = np.random.default_rng(seed)
    a = rng.integers(bounds[0], bounds[1], size=(batch, rows, cols), dtype=np.uint8, endpoint=True)
    if deficient and rows > 1:
        a[:, -1] = a[:, 0]
    assert batch_rank(a).tolist() == batch_rank(a.astype(np.int64)).tolist()


EYE = np.eye(3, dtype=np.int64)
# owed the mod-P2 pass: ranks 2 and 1 mod P1, 3 and 2 mod P2 and over Q
OWED = np.diag([P1, 1, 1])
OWED2 = np.diag([P1, 1, 0])


def _stream(rank_passes, stacks):
    """Run ``certified_ranks`` over ``stacks``, logging in order each stack pulled
    from the input, each mod-P2 pass (with its trial count) and each stack yielded.
    Every stack pulled so far must be released by the time a stack is yielded."""
    events, refs = rank_passes.events, []

    def pull(label, mats):
        events.append(("pull", label))
        a = np.array(mats, dtype=np.int64)
        refs.append(weakref.ref(a))
        return label, a

    for label, ranks in certified_ranks(pull(*item) for item in enumerate(stacks)):
        assert all(ref() is None for ref in refs)
        events.append(("yield", label, ranks.tolist()))
    return [("P2", e[2]) if e[0] == P2 else e for e in events if e[0] != P1]


def test_second_prime_pool_defers_and_flushes(rank_passes):
    # every stack holds one trial owed the mod-P2 pass, and two owed trials fit
    # the largest stack: the first two stacks are re-ranked together when the
    # third's would overflow, and yielded final before the third is certified
    assert _stream(rank_passes, [[EYE, OWED]] * 3) == [
        ("pull", 0),
        ("pull", 1),
        ("pull", 2),
        ("P2", 2),
        ("yield", 0, [3, 3]),
        ("yield", 1, [3, 3]),
        ("P2", 1),
        ("yield", 2, [3, 3]),
    ]


def test_second_prime_pool_is_bounded_by_the_largest_stack(rank_passes):
    # stacks of 1, 3, 1 and 2 trials: the owed trials wait until they would
    # outnumber the largest stack seen (3), not the first or the current one,
    # and each gets its own rank back from the shared pass
    stacks = [[OWED], [OWED2, EYE, EYE], [OWED], [OWED2, OWED]]
    assert _stream(rank_passes, stacks) == [
        ("pull", 0),
        ("pull", 1),
        ("pull", 2),
        ("pull", 3),
        ("P2", 3),
        ("yield", 0, [3]),
        ("yield", 1, [2, 3, 3]),
        ("yield", 2, [3]),
        ("P2", 2),
        ("yield", 3, [2, 3]),
    ]


def test_stack_with_nothing_owed_is_yielded_at_once(rank_passes):
    # a stack with nothing owed is yielded right after its pull, even behind a
    # stack still waiting for its pass: stacks come out once final, in any order
    assert _stream(rank_passes, [[EYE], [OWED], [EYE], [EYE]]) == [
        ("pull", 0),
        ("yield", 0, [3]),
        ("pull", 1),
        ("pull", 2),
        ("yield", 2, [3]),
        ("pull", 3),
        ("yield", 3, [3]),
        ("P2", 1),
        ("yield", 1, [3]),
    ]


def test_stacks_behind_an_owed_trial_wait_boundedly(rank_passes):
    # one owed trial, then stacks that owe nothing: none of them waits behind
    # it, each is yielded before the next pull, and only the owing stack is
    # held, to the end of the stream and its one mod-P2 pass
    stacks = [[OWED]] + [[EYE]] * 1000
    assert _stream(rank_passes, stacks) == (
        [("pull", 0)]
        + [e for i in range(1, 1001) for e in [("pull", i), ("yield", i, [3])]]
        + [("P2", 1), ("yield", 0, [3])]
    )


def test_pool_is_settled_when_the_matrix_shape_changes(rank_passes):
    # owing stacks of 3 x 3, then 4 x 4 matrices: the held 3 x 3 trials are
    # settled before the 4 x 4 ones wait, never stacked with them
    stacks = [[OWED, EYE, EYE], [np.diag([P1, 1, 1, 1]), np.eye(4), np.eye(4)]]
    assert _stream(rank_passes, stacks) == [
        ("pull", 0),
        ("pull", 1),
        ("P2", 1),
        ("yield", 0, [3, 3, 3]),
        ("P2", 1),
        ("yield", 1, [4, 4, 4]),
    ]


INT64 = np.iinfo(np.int64)
# entry sets for the rank kernels: bits, small signed, entries whose products
# leave int64 unless reduced first, and the int64 extremes; and the edges of
# _rank_mod's reduction schedule: +-32767 stays exact through one update
# (2 * 32767^2 < P2 < P1), +-32768 is reduced after it (2 * 32768^2 >= P1),
# and P2 - 1, P1 - 1 are exact mod P1 but reduced up front mod P2.  Mod Q,
# in int32: +-127 stays exact through one update (2 * 127^2 < Q), +-128 is
# reduced after it, +-(Q - 1) is the widest update int32 must hold
# (2 * (Q - 1)^2 = 2,144,863,008 < 2^31 - 1), and Q, Q + 1 are reduced
# before the cast to int32
ENTRY_SETS = {
    "bits": [0, 1],
    "threes": [0, 3, -3],
    "two to the 40": [0, 1, 2**40, -(2**40)],
    "int64 extremes": [0, 1, -1, INT64.min, INT64.max, INT64.min + 1],
    "just exact through one update": [0, 32767, -32767],
    "reduced after one update": [0, 32768, -32768],
    "just below the primes": [0, P2 - 1, P1 - 1],
    "exact mod Q through one update": [0, 127, -127],
    "reduced mod Q after one update": [0, 128, -128],
    "widest int32 update": [0, Q - 1, -(Q - 1)],
    "reduced mod Q before the cast": [0, Q, Q + 1],
}


@settings(max_examples=300, deadline=None)
@given(
    st.integers(0, 40),
    st.integers(0, 20),
    st.integers(0, 20),
    st.sampled_from(sorted(ENTRY_SETS)),
    st.sampled_from(["random", "repeated rows", "repeated columns", "zero"]),
    st.integers(0, 2**32),
)
def test_rank_mod_matches_the_kernel_with_temporaries(batch, rows, cols, entries, shape, seed):
    # the scratch-block kernel ranks every stack as the one it replaced, mod
    # every prime it is used with, in int32 blocks mod Q
    rng = np.random.default_rng(seed)
    a = rng.choice(np.array(ENTRY_SETS[entries], dtype=np.int64), size=(batch, rows, cols))
    some = rng.random(batch) < 0.5  # the trials made rank-deficient
    if shape == "repeated rows" and rows > 1:
        a[some, 1:] = a[some][:, rng.integers(0, 2, size=rows - 1)]  # rank <= 2
    elif shape == "repeated columns" and cols > 1:
        a[some, :, cols // 2 :] = a[some][:, :, : cols - cols // 2]  # rank <= (cols + 1) // 2
    elif shape == "zero":
        a[some] = 0
    before = a.copy()
    for p in (Q, P1, P2):
        got = _rank_mod(a, p)
        # a stack without rows has rank 0; the old kernel fails on it from two
        # columns on, and batch_rank never passes it either kernel
        want = np.zeros(batch, dtype=np.int64) if rows == 0 else rank_mod_with_temporaries(a, p)
        assert got.dtype == np.int64
        assert got.tolist() == want.tolist()
    assert np.array_equal(a, before)


def _reductions(monkeypatch, a):
    """The sizes of the blocks ``_rank_mod(a, P1)`` reduces, in order."""
    sizes, reduce = [], exact._reduce

    def counting_reduce(x, p, scratch):
        sizes.append(x.size)
        reduce(x, p, scratch)

    monkeypatch.setattr(exact, "_reduce", counting_reduce)
    _rank_mod(a, P1)
    return sizes


def test_reductions_start_once_entries_could_reach_the_prime(monkeypatch):
    # 0/1 entries: the bound 2 * b^2 after each update runs 1, 2, 8, 128,
    # 32768, then 2^31 >= P1, so of the 19 updates of a 20 x 20 stack the
    # first four need no reduction and the input is not reduced up front
    bits = np.zeros((3, 20, 20), dtype=np.int64)
    bits[0, 0, 0] = 1
    assert _reductions(monkeypatch, bits) == [3 * 20 * c for c in range(15, 0, -1)]
    # max entry 4: 4, 32, 2048, 2^23, then 2^47, so 11 of the 14 updates of
    # a 12 x 15 stack are reduced
    span = np.full((2, 12, 15), 4, dtype=np.int64)
    assert _reductions(monkeypatch, span) == [2 * 12 * c for c in range(11, 0, -1)]
    # an entry that reaches P1 is reduced up front, and so is every update
    big = np.eye(3, dtype=np.int64)[None]
    big[0, 1, 2] = P1
    assert _reductions(monkeypatch, big) == [9, 6, 3]


def test_q_is_the_largest_prime_whose_updates_fit_int32():
    def prime(n):
        return n > 1 and all(n % d for d in range(2, math.isqrt(n) + 1))

    assert prime(Q) and Q < 2**15
    assert not any(prime(n) for n in range(Q + 1, 2**15))
    assert 2 * (Q - 1) ** 2 == 2_144_863_008 < 2**31 - 1


# entry sets for certified_nonsingular: bits, which a mod-Q pass settles up
# to size 9; signed bits with Q, which vanishes mod Q; Q*P1, which vanishes
# mod Q and mod P1; and 1, Q*P1 and P2, whose determinants can vanish mod
# all three primes (Q*P1*P2 itself lies beyond int64)
NONSINGULAR_ENTRY_SETS = {
    "bits": [0, 1],
    "signed bits and Q": [0, 1, -1, Q],
    "Q*P1": [0, Q * P1],
    "1, Q*P1 and P2": [0, 1, Q * P1, P2],
}


@settings(max_examples=200, deadline=None)
@given(
    st.integers(0, 12),
    st.integers(0, 12),
    st.sampled_from(sorted(NONSINGULAR_ENTRY_SETS)),
    st.booleans(),
    st.integers(1, 4),
    st.integers(0, 2**32),
)
def test_certified_nonsingular_matches_bareiss(batch, n, entries, deficient, parts, seed):
    # square stacks, some trials made singular by a repeated row, streamed as
    # up to four stacks so that trials owed the certified ranks are pooled
    rng = np.random.default_rng(seed)
    a = rng.choice(np.array(NONSINGULAR_ENTRY_SETS[entries], dtype=np.int64), size=(batch, n, n))
    if deficient and n > 1:
        some = rng.random(batch) < 0.5
        a[some, -1] = a[some, 0]
    stacks = list(enumerate(np.array_split(a, parts)))
    got = dict(certified_nonsingular(stacks))
    assert sorted(got) == list(range(parts))
    assert all(got[k].dtype == bool for k in got)
    verdicts = np.concatenate([got[k] for k in range(parts)]).tolist()
    assert verdicts == [integer_rank(m) == n for m in a.tolist()]


def _nonsingular_passes(rank_passes, stacks):
    """Verdicts of ``certified_nonsingular`` over ``stacks``, by label, and its passes
    in order: (prime, trials) for each ``_rank_mod`` pass, "Bareiss" for each
    ``integer_rank`` call."""
    verdicts = {label: v.tolist() for label, v in certified_nonsingular(stacks)}
    return verdicts, [e if e == "Bareiss" else (e[0], e[2]) for e in rank_passes.events]


@pytest.mark.parametrize("n", range(1, 10))
def test_bits_up_to_size_nine_take_one_pass_mod_q(n, rank_passes):
    # (n * 1^2)^n < Q^2 for n <= 9 (9^9 = 387,420,489): every deficient 0/1
    # trial has H < Q, so full rank mod Q or not is final for each
    rng = np.random.default_rng(n)
    a = rng.integers(0, 1, size=(200, n, n), dtype=np.uint8, endpoint=True)
    a[:50, -1] = a[:50, 0]
    a[50] = 1
    verdicts, passes = _nonsingular_passes(rank_passes, [(0, a)])
    assert passes == [(Q, 200)]
    assert verdicts[0] == [integer_rank(m) == n for m in a.tolist()]
    assert not all(verdicts[0][:51])


@pytest.mark.parametrize(
    "matrix, verdict, passes",
    [
        # rank 2 mod Q and H = Q: certified by full rank mod P1
        (np.diag([Q, 1, 1]), True, [(Q, 1), (P1, 1)]),
        # rank 2 mod Q and mod P1, H = Q*P1: the mod-P2 pass
        (np.diag([Q * P1, 1, 1]), True, [(Q, 1), (P1, 1), (P2, 1)]),
        # rank 2 mod Q, P1 and P2, H = Q*P1*P2: Bareiss after the mod-P2 pass
        (np.diag([Q * P1, P2, 1]), True, [(Q, 1), (P1, 1), (P2, 1), "Bareiss"]),
        # deficient with H = 1 < Q beyond the whole-stack shortcut (size 10)
        (np.diag([1] * 9 + [0]), False, [(Q, 1)]),
        # deficient mod Q and mod P1 with Q <= H = 10^5 < P1: singular
        (np.ones((10, 10), dtype=np.int64), False, [(Q, 1), (P1, 1)]),
        # rank 2 mod Q and mod P1, P1*P2 <= H = Q*P1*2^20 < Q*P1*P2: full rank
        # mod P2 is final, with no Bareiss call
        (np.diag([Q * P1, 2**20, 1]), True, [(Q, 1), (P1, 1), (P2, 1)]),
        # singular, rank 1 mod Q and mod P1 with P1 <= H = 3.2e9 < Q*P1: no mod-P2 pass
        (np.array([[40000, 40000], [40000, 40000]]), False, [(Q, 1), (P1, 1)]),
    ],
)
def test_certified_nonsingular_branches(matrix, verdict, passes, rank_passes):
    assert _nonsingular_passes(rank_passes, [(0, matrix[None])]) == ({0: [verdict]}, passes)


def test_certified_nonsingular_refuses_what_it_cannot_rank():
    # Q*P1*P2 lies beyond int64 and arrives as an object array
    for stack in ([np.diag([Q * P1 * P2, 1, 1]).tolist()], np.ones((2, 3, 4), dtype=np.int64)):
        with pytest.raises(ValidationError):
            list(certified_nonsingular([(None, stack)]))
