import random

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import cofactor_determinant
from periodlab.exact import (
    P1,
    P2,
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
