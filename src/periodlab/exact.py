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

Every comparison that decides a rank is between integers; no floating
point is involved anywhere.
"""

from __future__ import annotations

import math
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


def is_nonsingular(rows: Sequence[Sequence[int]]) -> bool:
    """True iff the square integer matrix has nonzero determinant."""
    n = len(rows)
    if any(len(r) != n for r in rows):
        raise ValueError("matrix must be square")
    return integer_rank(rows) == n


def integer_determinant(rows: Sequence[Sequence[int]]) -> int:
    """Exact determinant by the Bareiss one-step algorithm."""
    m = [list(map(int, r)) for r in rows]
    n = len(m)
    if any(len(r) != n for r in m):
        raise ValueError("matrix must be square")
    sign = 1
    prev = 1
    for col in range(n - 1):
        piv = None
        for r in range(col, n):
            if m[r][col] != 0:
                piv = r
                break
        if piv is None:
            return 0
        if piv != col:
            m[col], m[piv] = m[piv], m[col]
            sign = -sign
        p = m[col][col]
        for r in range(col + 1, n):
            mr = m[r]
            mc = m[col]
            c = mr[col]
            for j in range(col, n):
                mr[j] = (p * mr[j] - c * mc[j]) // prev
        prev = p
    return sign * m[n - 1][n - 1]


def _reduce(x: np.ndarray, p: int) -> np.ndarray:
    """x mod p into [0, p), in place.

    numpy divides by a scalar several times faster than it takes a
    remainder, so this is x - (x // p) * p.
    """
    quotient = np.floor_divide(x, p)
    quotient *= p
    x -= quotient
    return x


def _rank_mod(a: np.ndarray, p: int) -> np.ndarray:
    """Ranks mod the prime ``p`` of a (B, r, c) stack of ``int64`` matrices.

    Fraction-free elimination over the trial axis: at each column every
    row becomes pivot * row - entry * pivot_row in the later columns, so
    no modular inverse is needed.  That turns the pivot row itself into
    zeros, so a row used as a pivot is never chosen again.  Entries are
    kept in [0, p) with p < 2^31, so each product stays below 2^62 and the
    arithmetic is exact in ``int64``.  The work array is laid out
    (column, row, trial) so each update runs over one contiguous block.
    """
    a = _reduce(a.transpose(2, 1, 0).copy(), p)
    ncols, _nrows, batch = a.shape
    trials = np.arange(batch)
    rank = np.zeros(batch, dtype=np.int64)
    for col in range(ncols):
        column = a[col]
        nonzero = column != 0
        found = nonzero.any(axis=0)
        rank += found
        if col + 1 == ncols:
            break
        piv = nonzero.argmax(axis=0)
        rest = a[col + 1 :]
        pivot_row = rest[:, piv, trials]
        rest *= np.where(found, column[piv, trials], 1)
        rest -= column * pivot_row[:, None, :]
        _reduce(rest, p)
    return rank


def _hadamard_squared(a: np.ndarray) -> np.ndarray:
    """Per matrix of a (B, r, c) stack: H^2 = prod max(1, ||row||^2), as exact Python ints."""
    ncols = a.shape[2]
    top = max(int(a.max()), -int(a.min()))
    if ncols * top * top >= 2**63:  # squared row norms could overflow int64
        a = a.astype(object)
    squares = np.maximum((a * a).sum(axis=2), 1)
    return np.prod(squares.astype(object), axis=1)


def batch_rank(a) -> np.ndarray:
    """Exact ranks over Q of a (B, r, c) stack of ``int64`` integer matrices.

    Ranks mod P1 for every trial, mod P2 for rank-deficient trials whose
    Hadamard bound H reaches P1, and ``integer_rank`` for those whose H
    reaches P1*P2; see the module docstring for the certificate.
    """
    a = np.asarray(a, dtype=np.int64)
    _batch, nrows, ncols = a.shape
    if min(nrows, ncols) == 0:
        return np.zeros(len(a), dtype=np.int64)
    ranks = _rank_mod(a, P1)
    deficient = np.flatnonzero(ranks < min(nrows, ncols))
    if deficient.size == 0:
        return ranks
    top = max(int(a.max()), -int(a.min()))
    if (ncols * top * top) ** nrows < P1 * P1:
        return ranks  # H^2 <= (ncols * top^2)^nrows < P1^2 for every trial
    h2 = _hadamard_squared(a[deficient])
    second = deficient[(h2 >= P1 * P1) & (h2 < (P1 * P2) ** 2)]
    if second.size:
        ranks[second] = np.maximum(ranks[second], _rank_mod(a[second], P2))
    for k in deficient[h2 >= (P1 * P2) ** 2]:
        ranks[k] = integer_rank(a[k].tolist())
    return ranks
