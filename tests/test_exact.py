import random

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import cofactor_determinant, rank_mod_with_temporaries
from periodlab.exact import (
    P1,
    P2,
    SecondPrimePool,
    _rank_mod,
    batch_rank,
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


def test_second_prime_pool_defers_and_flushes():
    # every stack holds one trial owed the mod-P2 pass; a pool of two re-ranks
    # them when a third would overflow it, and the rest at finish
    owed = np.diag([P1, 1, 1])
    stack = np.array([np.eye(3, dtype=np.int64), owed])
    pool = SecondPrimePool(2)
    results = [pool.rank(stack) for _ in range(3)]
    assert [ranks.tolist() for ranks, _ in results] == [[3, 2]] * 3
    assert [positions.tolist() for _, (positions, _) in results] == [[], [], [1, 3]]
    assert results[2][1][1].tolist() == [3, 3]
    positions, ranks = pool.finish()
    assert (positions.tolist(), ranks.tolist()) == ([5], [3])
    assert pool.finish()[0].size == 0


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
