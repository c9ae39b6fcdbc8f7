import random
import weakref

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import cofactor_determinant, rank_mod_with_temporaries
from periodlab import exact
from periodlab.exact import (
    P1,
    P2,
    _rank_mod,
    batch_rank,
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


EYE = np.eye(3, dtype=np.int64)
# owed the mod-P2 pass: ranks 2 and 1 mod P1, 3 and 2 mod P2 and over Q
OWED = np.diag([P1, 1, 1])
OWED2 = np.diag([P1, 1, 0])


def _stream(monkeypatch, stacks):
    """Run ``certified_ranks`` over ``stacks``, logging in order each stack pulled
    from the input, each mod-P2 pass (with its trial count) and each stack yielded.
    Every stack pulled so far must be released by the time a stack is yielded."""
    events, refs, rank_mod = [], [], exact._rank_mod

    def counting_rank_mod(a, p):
        if p == P2:
            events.append(("P2", len(a)))
        return rank_mod(a, p)

    def pull(label, mats):
        events.append(("pull", label))
        a = np.array(mats, dtype=np.int64)
        refs.append(weakref.ref(a))
        return label, a

    monkeypatch.setattr(exact, "_rank_mod", counting_rank_mod)
    for label, ranks in certified_ranks(pull(*item) for item in enumerate(stacks)):
        assert all(ref() is None for ref in refs)
        events.append(("yield", label, ranks.tolist()))
    return events


def test_second_prime_pool_defers_and_flushes(monkeypatch):
    # every stack holds one trial owed the mod-P2 pass, and two owed trials fit
    # the largest stack: the first two stacks are re-ranked together when the
    # third's would overflow, and yielded final before the third is certified
    assert _stream(monkeypatch, [[EYE, OWED]] * 3) == [
        ("pull", 0),
        ("pull", 1),
        ("pull", 2),
        ("P2", 2),
        ("yield", 0, [3, 3]),
        ("yield", 1, [3, 3]),
        ("P2", 1),
        ("yield", 2, [3, 3]),
    ]


def test_second_prime_pool_is_bounded_by_the_largest_stack(monkeypatch):
    # stacks of 1, 3, 1 and 2 trials: the owed trials wait until they would
    # outnumber the largest stack seen (3), not the first or the current one,
    # and each gets its own rank back from the shared pass
    stacks = [[OWED], [OWED2, EYE, EYE], [OWED], [OWED2, OWED]]
    assert _stream(monkeypatch, stacks) == [
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


def test_stack_with_nothing_owed_is_yielded_at_once(monkeypatch):
    # a stack with nothing owed is yielded right after its pull, even behind a
    # stack still waiting for its pass: stacks come out once final, in any order
    assert _stream(monkeypatch, [[EYE], [OWED], [EYE], [EYE]]) == [
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


def test_stacks_behind_an_owed_trial_wait_boundedly(monkeypatch):
    # one owed trial, then stacks that owe nothing: none of them waits behind
    # it, each is yielded before the next pull, and only the owing stack is
    # held, to the end of the stream and its one mod-P2 pass
    stacks = [[OWED]] + [[EYE]] * 1000
    assert _stream(monkeypatch, stacks) == (
        [("pull", 0)]
        + [e for i in range(1, 1001) for e in [("pull", i), ("yield", i, [3])]]
        + [("P2", 1), ("yield", 0, [3])]
    )


INT64 = np.iinfo(np.int64)
# entry sets for the rank kernels: bits, small signed, entries whose products
# leave int64 unless reduced first, and the int64 extremes
ENTRY_SETS = {
    "bits": [0, 1],
    "threes": [0, 3, -3],
    "two to the 40": [0, 1, 2**40, -(2**40)],
    "int64 extremes": [0, 1, -1, INT64.min, INT64.max, INT64.min + 1],
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
    # the scratch-block kernel ranks every stack as the one it replaced, mod both primes
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
    for p in (P1, P2):
        got = _rank_mod(a, p)
        # a stack without rows has rank 0; the old kernel fails on it from two
        # columns on, and batch_rank never passes it either kernel
        want = np.zeros(batch, dtype=np.int64) if rows == 0 else rank_mod_with_temporaries(a, p)
        assert got.dtype == np.int64
        assert got.tolist() == want.tolist()
    assert np.array_equal(a, before)
