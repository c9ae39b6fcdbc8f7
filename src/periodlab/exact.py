"""Exact integer linear algebra: Bareiss elimination and certified batched ranks.

``integer_rank`` is fraction-free (Bareiss) elimination over Python
integers, so intermediate growth is handled by arbitrary-precision
arithmetic.  ``batch_rank`` ranks a whole (B, r, c) stack of integer
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

Nonsingularity needs less: det != 0 over Q exactly when the rank is full,
and full rank mod any prime already proves it, since the determinant is
then nonzero mod p.  ``certified_nonsingular`` therefore ranks a square
stack mod Q = 32749, the largest prime below 2^15, in ``int32`` (see
``_rank_mod``).  Full rank mod Q is final.  So is a deficient trial whose
H < Q: a nonzero determinant of absolute value below Q is nonzero mod Q,
so its determinant is 0.  Only a deficient trial with H >= Q goes on to
the ranks above, mod P1 first.  A random 0/1 matrix of
size n <= 9 has (n * 1)^n < Q^2, so every such trial is settled in the
one ``int32`` pass.  Span matrices are not ranked mod Q first: most
quintic span matrices are rank-deficient and have H >= Q, so a mod-Q pass
would only be one more.

``certified_ranks`` ranks a stream of labelled stacks, such as the trial
chunks of one ``modsel`` call, and yields each stack's ranks once final,
in any order.  Trials owed a mod-P2 pass wait and are re-ranked together,
so a call of a few chunks pays one pass rather than one per chunk; at
most the largest stack's count of owed trials waits, from at most that
many stacks, however long the call (``_pooled``).  ``batch_rank`` is its
one-stack case.  ``certified_nonsingular`` pools its trials owed the
ranks above by the same rule.  A stack keeps its own bool or integer
dtype, so a 0/1 stack of one byte an entry is widened only in the
elimination's work block.  Entries must lie in ``int64``: float, complex
and object stacks, and unsigned entries of 2^63 or more, are refused with
``ValidationError`` rather than truncated or wrapped.

The elimination mod a prime (``_rank_mod``) runs on one (column, row,
trial) work block, cast from the stack, and one scratch block of the same
shape, preallocated per stack: every update and reduction writes into
them with ``out=``, so a stack costs two blocks of its size and no
per-column temporaries of that size.  The blocks are ``int32`` mod Q and
``int64`` mod P1 and P2, the narrowest dtype that holds every update
exactly.  Reductions are x - (x // p) * p rather than ``np.remainder``,
which numpy evaluates several times slower, and they run only once
entries could reach p: the block holds exact integers of absolute value
below p until a bound on them reaches p, and residues in [0, p) from then
on.  An exact integer below p in absolute value is zero mod p only when
it is zero, so the pivots, and the ranks, are those of reducing after
every column.

Every comparison that decides a rank is between integers; no floating
point is involved anywhere.
"""

from __future__ import annotations

import operator
from typing import Sequence

import numpy as np

from .errors import ValidationError

P1 = 2**31 - 1
P2 = 2147483629
Q = 32749


def integer_rank(rows: Sequence[Sequence[int]]) -> int:
    """Exact rank over the rationals of an integer matrix.

    Fraction-free Gaussian elimination: every intermediate entry is the
    determinant of a minor of the input, so all divisions are exact.
    Entries are taken through ``operator.index``, so a float entry raises
    ``ValidationError`` instead of being truncated.
    """
    try:
        m = [list(map(operator.index, r)) for r in rows]
    except TypeError as err:
        raise ValidationError(f"matrix entries must be integers: {err}") from None
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
    """Ranks mod the prime ``p`` of a (B, r, c) stack of integer matrices.

    Fraction-free elimination over the trial axis: at each column every
    row becomes pivot * row - entry * pivot_row in the later columns, so
    no modular inverse is needed.  That turns the pivot row itself into
    zeros, so a row used as a pivot is never chosen again.

    A Python-int ``bound`` on |entry| decides when to reduce mod p.  It
    starts at max|a|, and the input is reduced first only if that reaches
    p.  An update of entries at most b in absolute value gives entries at
    most 2*b^2, so each update squares and doubles the bound, and the rest
    of the block is reduced only once the bound reaches p, after which it
    is p - 1.  So every entry is either an exact integer with |v| < p or,
    once reduced, a residue in [0, p).  Either way v is 0 mod p exactly
    when v == 0, so the pivots found are those of reducing after every
    column.  On 0/1 stacks the first four updates, the largest, need no
    reduction mod P1, and the first three mod Q.

    The work dtype follows from p: every update is at most 2*(p-1)^2 in
    absolute value, so the block is ``int32`` when 2*(p-1)^2 < 2^31, as for
    Q = 32749 (2,144,863,008 < 2^31 - 1), and ``int64`` otherwise, where
    p < 2^31 keeps each update below 2^63.  Either way the arithmetic is
    exact, and an ``int32`` block moves half the bytes.  An input that
    reaches p is reduced in ``int64`` through ``_reduce`` before it is
    narrowed, so no entry wraps in the cast.

    The work block is the stack cast to the work dtype and laid out
    (column, row, trial), so each update runs over one contiguous block;
    the cast into that layout is the stack's one copy, whatever its dtype.
    One scratch block of the same shape takes every intermediate: the
    outer product entry * pivot_row and the quotients of each reduction
    write into it with ``out=``, so no column allocates an array of the
    block's size.  (numpy's iterator still takes its fixed buffers, at
    most 8192 elements an operand, for the two broadcasting products.)
    The pivot of each trial is its first nonzero row in the column; its
    value is gathered once and is zero exactly when the column has no
    pivot.
    """
    dtype = np.int32 if 2 * (p - 1) ** 2 < 2**31 else np.int64
    bound = max(int(a.max()), -int(a.min())) if a.size else 0
    work = a.transpose(2, 1, 0).astype(np.int64 if bound >= p else dtype, order="C")
    if bound >= p:
        _reduce(work, p, np.empty_like(work))
        work = work.astype(dtype, copy=False)
        bound = p - 1
    scratch = np.empty_like(work)
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
        bound *= 2 * bound
        if bound >= p:
            _reduce(rest, p, product)
            bound = p - 1
    return rank


def _hadamard_squared(a: np.ndarray) -> np.ndarray:
    """Per matrix of a (B, r, c) stack: H^2 = prod max(1, ||row||^2), as exact Python ints.

    The entries are cast before they are squared, to ``int64`` or, where
    squared row norms could overflow it, to Python ints, so a narrow dtype
    such as ``uint8`` cannot wrap.
    """
    ncols = a.shape[2]
    top = max(int(a.max()), -int(a.min()))
    a = a.astype(object if ncols * top * top >= 2**63 else np.int64, copy=False)
    squares = np.maximum((a * a).sum(axis=2), 1)
    return np.prod(squares.astype(object), axis=1)


def _reaching(a: np.ndarray, trials: np.ndarray, p: int) -> tuple[np.ndarray, np.ndarray]:
    """Those of ``trials`` whose Hadamard bound H reaches ``p``, and H^2 of each.

    When (c * top^2)^r < p^2, with top = max|a|, no trial of the (B, r, c)
    stack reaches p (H^2 <= (c * top^2)^r), and no row norm is taken.
    """
    nrows, ncols = a.shape[1:]
    if trials.size:
        top = max(int(a.max()), -int(a.min()))
        if (ncols * top * top) ** nrows >= p * p:
            h2 = _hadamard_squared(a[trials])
            reach = h2 >= p * p
            return trials[reach], h2[reach]
    return trials[:0], np.empty(0, dtype=object)


def _ranks_mod_p1(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Ranks of a (B, r, c) integer stack, and the trials still owed the mod-P2 pass.

    Ranks mod P1 for every trial and ``integer_rank`` for rank-deficient
    trials whose Hadamard bound H reaches P1*P2 are certified here.  The
    returned indices are the rank-deficient trials with P1 <= H < P1*P2;
    their entries hold the rank mod P1 until the mod-P2 pass raises them.
    """
    batch, nrows, ncols = a.shape
    if min(nrows, ncols) == 0:
        return np.zeros(batch, dtype=np.int64), np.empty(0, dtype=np.intp)
    ranks = _rank_mod(a, P1)
    deficient, h2 = _reaching(a, np.flatnonzero(ranks < min(nrows, ncols)), P1)
    beyond = h2 >= (P1 * P2) ** 2
    for k in deficient[beyond]:
        ranks[k] = integer_rank(a[k].tolist())
    return ranks, deficient[~beyond]


def integer_stack(a) -> np.ndarray:
    """``a`` as an array of bool or integer dtype whose entries lie in ``int64``.

    Anything else would be truncated (floats) or wrapped (uint64 entries of
    2^63 or more) on its way into the ``int64`` work block, so it raises
    ``ValidationError``; Python ints beyond 64 bits arrive as an object array.
    """
    a = np.asarray(a)
    if a.dtype.kind not in "biu":
        raise ValidationError(f"entries must be integers within int64, not dtype {a.dtype}")
    if a.dtype == np.uint64 and a.size and a.max() > np.iinfo(np.int64).max:
        raise ValidationError("entries must lie within int64, not reach 2^63")
    return a


def batch_rank(a) -> np.ndarray:
    """Exact ranks over Q of a (B, r, c) stack of integer matrices, as ``int64``.

    Ranks mod P1 for every trial, mod P2 for rank-deficient trials whose
    Hadamard bound H reaches P1, and ``integer_rank`` for those whose H
    reaches P1*P2; see the module docstring for the certificate.  ``a`` may
    be any array-like of bool or integer entries within ``int64``; anything
    else raises ``ValidationError``.
    """
    [(_, ranks)] = certified_ranks([(None, a)])
    return ranks


def certified_ranks(stacks):
    """Yield ``(label, ranks)`` for each ``(label, stack)`` of ``stacks``, once final.

    Every yielded rank is final (module docstring), and stacks come out in
    any order.  Each stack is ranked mod P1; the trials it owes the mod-P2
    pass wait in ``_pooled``, and each ends with the larger of its ranks
    mod P1 and mod P2.  The stacks of one stream share their matrix shape.

    Each stack keeps its own bool or integer dtype and is not copied to
    ``int64``: only ``_rank_mod``'s work block is.  A stack of any other
    dtype, or with entries outside ``int64``, raises ``ValidationError``
    (``integer_stack``).
    """

    def first_passes():
        for label, a in stacks:
            a = integer_stack(a)
            ranks, owed = _ranks_mod_p1(a)
            count, mats = len(a), a[owed]
            del a  # the stack is not held across a yield
            yield label, ranks, count, owed, mats

    return _pooled(first_passes(), lambda mats: _rank_mod(mats, P2))


def certified_nonsingular(stacks):
    """Yield ``(label, nonsingular)`` for each ``(label, stack)`` of square ``stacks``, once final.

    ``nonsingular`` is a bool array, True where the trial's determinant is
    nonzero over Q, and stacks come out in any order.  Each stack is ranked
    mod Q in an ``int32`` block.  Full rank mod Q is final, and so is a
    deficient trial whose Hadamard bound H is below Q (module docstring);
    on a 0/1 stack of size n <= 9, (n * 1)^n < Q^2 settles every trial in
    that one pass.  A deficient trial with H >= Q waits in ``_pooled`` and
    is ranked with the trials other stacks owe by ``batch_rank``: mod P1,
    then mod P2 or by Bareiss elimination as its bound needs.  The stacks
    of one stream share their matrix shape.

    A non-square stack, or one ``integer_stack`` refuses, raises
    ``ValidationError``.
    """

    def first_passes():
        for label, a in stacks:
            a = integer_stack(a)
            if a.ndim != 3 or a.shape[1] != a.shape[2]:
                raise ValidationError(f"stacks must hold square matrices, not shape {a.shape}")
            nonsingular = _rank_mod(a, Q) == a.shape[1]
            owed, _ = _reaching(a, np.flatnonzero(~nonsingular), Q)
            count, mats = len(a), a[owed]
            del a  # the stack is not held across a yield
            yield label, nonsingular, count, owed, mats

    return _pooled(first_passes(), lambda mats: batch_rank(mats) == mats.shape[1])


def _pooled(firsts, settle):
    """Yield ``(label, values)`` for each ``(label, values, count, owed, mats)`` of ``firsts``, once final.

    ``values`` holds a stack's results for its ``count`` trials after a
    first pass, final except at the positions ``owed``, whose matrices are
    ``mats``.  A stack that owes nothing is yielded at once; a stack that
    owes some waits with only its label, its values and its owed matrices.
    The waiting stacks' owed matrices are settled together, by one call of
    ``settle``, when the next owing stack would make the owed trials
    outnumber the largest stack's trials, and at the end, so at most that
    many owed trials wait, from at most that many stacks, however long the
    stream.  Each owed trial ends with the larger of its value and the one
    ``settle`` gives it.
    """
    held: list[tuple] = []  # (label, values, owed positions, owed matrices)
    size = largest = 0
    for label, values, count, owed, mats in firsts:
        largest = max(largest, count)
        if not owed.size:
            yield label, values
            continue
        if size + owed.size > largest:
            yield from _settle(held, settle)
            held, size = [], 0
        held.append((label, values, owed, mats))
        size += owed.size
    yield from _settle(held, settle)


def _settle(held, settle):
    """Yield the held stacks' (label, values), their owed trials settled in one call."""
    if held:
        settled = settle(np.concatenate([mats for *_, mats in held], dtype=np.int64))
    for label, values, owed, _ in held:
        values[owed] = np.maximum(values[owed], settled[: owed.size])
        settled = settled[owed.size :]
        yield label, values
