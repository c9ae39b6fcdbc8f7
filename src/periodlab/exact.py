"""Exact integer linear algebra: Bareiss elimination and certified batched ranks.

``integer_rank`` is fraction-free (Bareiss) elimination over Python
integers, so intermediate growth is handled by arbitrary-precision
arithmetic.  ``batch_rank`` ranks a whole (B, r, c) stack of ``int64``
matrices at once by elimination modulo primes, and certifies each rank
with Hadamard's bound (Cohen, *A Course in Computational Algebraic Number
Theory*, section 2.2):

* rank mod a prime never exceeds the rank over Q;
* if the rank over Q is s, some s x s minor is nonzero, and its absolute
  value is at most H = prod max(1, ||row||) over the rows of the matrix;
* so a trial that is full rank mod P1 = 2^31 - 1, or has H < P1, has the
  rank mod P1; a trial with P1 <= H < P1*P2 (P2 = 2147483629, the largest
  prime below P1) has the larger of its ranks mod P1 and mod P2, because
  two distinct primes cannot both divide a nonzero minor below P1*P2;
* a trial with H >= P1*P2 falls back to ``integer_rank``.

``certified_ranks`` ranks a stream of labelled stacks, such as the trial
chunks of one ``modsel`` call, and yields each stack's ranks once final,
in any order.  Trials owed a mod-P2 pass wait and are re-ranked together,
so a call of a few chunks pays one pass rather than one per chunk; at
most the largest stack's count of owed trials waits, from at most that
many stacks, however long the call.  ``batch_rank`` is its one-stack case.

The elimination mod a prime (``_rank_mod``) runs on one (column, row,
trial) work block and one scratch block of the same shape, preallocated
per stack: every update and reduction writes into them with ``out=``, so
a stack costs two blocks of its size and no per-column temporaries of
that size.  Reductions are x - (x // p) * p rather than
``np.remainder``, which numpy evaluates several times slower.

Every comparison that decides a rank is between integers; no floating
point is involved anywhere.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

P1 = 2**31 - 1
P2 = 2147483629


def integer_rank(rows: Sequence[Sequence[int]]) -> int:
    """Exact rank over the rationals of an integer matrix.

    Fraction-free Gaussian elimination: every intermediate entry is the
    determinant of a minor of the input, so all divisions are exact.
    """
    m = [list(map(int, r)) for r in rows]
    if not m:
        return 0
    nrows, ncols = len(m), len(m[0])
    rank = 0
    prev = 1
    row = 0
    for col in range(ncols):
        piv = None
        for r in range(row, nrows):
            if m[r][col] != 0:
                piv = r
                break
        if piv is None:
            continue
        if piv != row:
            m[row], m[piv] = m[piv], m[row]
        p = m[row][col]
        for r in range(row + 1, nrows):
            mr = m[r]
            mrow = m[row]
            c = mr[col]
            for j in range(col, ncols):
                mr[j] = (p * mr[j] - c * mrow[j]) // prev
        prev = p
        row += 1
        rank += 1
        if row == nrows:
            break
    return rank


def _reduce(x: np.ndarray, p: int, scratch: np.ndarray) -> None:
    """x mod p into [0, p), in place, with ``scratch`` (x's shape) for the quotient.

    This is x - (x // p) * p: numpy divides ``int64`` by a scalar through
    a precomputed multiplier, about 7 times faster than ``np.remainder``
    takes the remainder (numpy 2.4, 8000 elements, 1.2 against 8.6 ns each).
    """
    np.floor_divide(x, p, out=scratch)
    scratch *= p
    x -= scratch


def _rank_mod(a: np.ndarray, p: int) -> np.ndarray:
    """Ranks mod the prime ``p`` of a (B, r, c) stack of ``int64`` matrices.

    Fraction-free elimination over the trial axis: at each column every
    row becomes pivot * row - entry * pivot_row in the later columns, so
    no modular inverse is needed.  That turns the pivot row itself into
    zeros, so a row used as a pivot is never chosen again.  Entries are
    kept in [0, p) with p < 2^31, so each product stays below 2^62 and the
    arithmetic is exact in ``int64``.

    The work block is laid out (column, row, trial), so each update runs
    over one contiguous block, and one scratch block of the same shape
    takes every intermediate: the outer product entry * pivot_row and the
    quotients of each reduction write into it with ``out=``, so no column
    allocates an array of the block's size.  (numpy's iterator still
    takes its fixed buffers, at most 8192 elements an operand, for the two
    broadcasting products.)  The pivot of each trial is its first nonzero
    row in the column; its value is gathered once and is zero exactly when
    the column has no pivot.
    """
    work = a.transpose(2, 1, 0).copy()
    scratch = np.empty_like(work)
    _reduce(work, p, scratch)
    ncols, nrows, batch = work.shape
    rank = np.zeros(batch, dtype=np.int64)
    if nrows == 0:
        return rank
    trials = np.arange(batch)
    for col in range(ncols):
        column = work[col]
        piv = (column != 0).argmax(axis=0)
        pivot = column[piv, trials]
        found = pivot != 0
        rank += found
        if col + 1 == ncols:
            break
        rest, product = work[col + 1 :], scratch[col + 1 :]
        pivot_row = rest[:, piv, trials]
        pivot[~found] = 1  # no pivot: the column is zero, leave the rows as they are
        rest *= pivot
        np.multiply(column, pivot_row[:, None, :], out=product)
        rest -= product
        _reduce(rest, p, product)
    return rank


def _hadamard_squared(a: np.ndarray) -> np.ndarray:
    """Per matrix of a (B, r, c) stack: H^2 = prod max(1, ||row||^2), as exact Python ints."""
    ncols = a.shape[2]
    top = max(int(a.max()), -int(a.min()))
    if ncols * top * top >= 2**63:  # squared row norms could overflow int64
        a = a.astype(object)
    squares = np.maximum((a * a).sum(axis=2), 1)
    return np.prod(squares.astype(object), axis=1)


def _ranks_mod_p1(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Ranks of a (B, r, c) ``int64`` stack, and the trials still owed the mod-P2 pass.

    Ranks mod P1 for every trial and ``integer_rank`` for rank-deficient
    trials whose Hadamard bound H reaches P1*P2 are certified here.  The
    returned indices are the rank-deficient trials with P1 <= H < P1*P2;
    their entries hold the rank mod P1 until the mod-P2 pass raises them.
    """
    batch, nrows, ncols = a.shape
    owed = np.empty(0, dtype=np.intp)
    if min(nrows, ncols) == 0:
        return np.zeros(batch, dtype=np.int64), owed
    ranks = _rank_mod(a, P1)
    deficient = np.flatnonzero(ranks < min(nrows, ncols))
    if deficient.size == 0:
        return ranks, owed
    top = max(int(a.max()), -int(a.min()))
    if (ncols * top * top) ** nrows < P1 * P1:
        return ranks, owed  # H^2 <= (ncols * top^2)^nrows < P1^2 for every trial
    h2 = _hadamard_squared(a[deficient])
    for k in deficient[h2 >= (P1 * P2) ** 2]:
        ranks[k] = integer_rank(a[k].tolist())
    return ranks, deficient[(h2 >= P1 * P1) & (h2 < (P1 * P2) ** 2)]


def batch_rank(a) -> np.ndarray:
    """Exact ranks over Q of a (B, r, c) stack of ``int64`` integer matrices.

    Ranks mod P1 for every trial, mod P2 for rank-deficient trials whose
    Hadamard bound H reaches P1, and ``integer_rank`` for those whose H
    reaches P1*P2; see the module docstring for the certificate.
    """
    [(_, ranks)] = certified_ranks([(None, a)])
    return ranks


def certified_ranks(stacks):
    """Yield ``(label, ranks)`` for each ``(label, stack)`` of ``stacks``, once final.

    Every yielded rank is final (module docstring), and stacks come out in
    any order.  A stack that owes no trial the mod-P2 pass is yielded at
    once; a stack that owes some waits with only its label, its ranks mod
    P1 and its owed matrices.  The waiting stacks get one pass when the next
    owing stack would make the owed trials outnumber the largest stack's
    trials, and at the end, so at most that many owed trials wait.
    """
    held: list[tuple] = []  # (label, ranks mod P1, owed positions, owed matrices)
    size = largest = 0
    for label, a in stacks:
        a = np.asarray(a, dtype=np.int64)
        ranks, owed = _ranks_mod_p1(a)
        largest = max(largest, len(a))
        mats = a[owed]
        del a  # the stack is not held across a yield
        if not owed.size:
            yield label, ranks
            continue
        if size + owed.size > largest:
            yield from _second_prime_pass(held)
            held, size = [], 0
        held.append((label, ranks, owed, mats))
        size += owed.size
    yield from _second_prime_pass(held)


def _second_prime_pass(held):
    """Yield the held stacks' (label, ranks), their owed trials re-ranked mod P2 in one pass."""
    if held:
        second = _rank_mod(np.concatenate([mats for *_, mats in held]), P2)
    for label, ranks, owed, _ in held:
        ranks[owed] = np.maximum(ranks[owed], second[: owed.size])
        second = second[owed.size :]
        yield label, ranks
