"""Exact integer linear algebra: Bareiss elimination and certified batched ranks.

``integer_rank`` is fraction-free (Bareiss) elimination over Python
integers, so intermediate growth is handled by arbitrary-precision
arithmetic.  ``batch_rank`` ranks a whole (B, r, c) stack of integer
matrices at once by elimination modulo primes, and certifies each rank
with Hadamard's bound (Cohen, *A Course in Computational Algebraic Number
Theory*, section 2.2).  One certificate covers every case.  Rank mod a
prime never exceeds the rank s over Q, and some s x s minor is nonzero,
of absolute value at most H = prod max(1, ||row||) over the rows of the
matrix.  A nonzero integer below p_1 * ... * p_k in absolute value is not
divisible by all of the distinct primes p_1, ..., p_k, so once
H < p_1 * ... * p_k the largest of a trial's ranks mod those primes is its
rank over Q.  Full rank mod any one prime is final.

The certified rank ladder (``_ladder``) runs that certificate over a
tuple of primes.  Every trial is ranked mod the first; a trial still
rank-deficient whose H reaches the product of the primes it has been
ranked mod goes on to the next prime, keeping its largest rank, and a
trial still open after the last prime falls back to ``integer_rank``.
``certified_ranks`` climbs P1 = 2^31 - 1, then P2 = 2147483629, the
largest prime below P1.  ``certified_nonsingular`` climbs Q = 32749, P1,
P2, since det != 0 over Q exactly when the rank is full.  Q is the
largest prime below 2^15, so its pass runs in ``int32`` (``_rank_mod``), and
a random 0/1 matrix of size n <= 9 has H^2 <= n^n < Q^2, so every such
trial is settled in that one pass.  Span matrices are not ranked mod Q
first: most quintic span matrices are rank-deficient and have H >= Q, so
a mod-Q pass would only be one more.

Both rank a stream of labelled stacks, such as the trial chunks of one
``modsel`` call, and yield each stack's results once final, in any order.
Each stack gets its first pass as it arrives; its trials owed a later
prime wait and are ranked together (``_pooled``), so a call of a few
chunks pays one later pass per prime rather than one per chunk.  At most
the largest stack's count of owed trials waits, from at most that many
stacks, however long the call.  ``batch_rank`` is the one-stack case of
``certified_ranks``.  A stack keeps its own bool or integer dtype, so a
0/1 stack of one byte an entry is widened only in the elimination's work
block.  Entries must lie in ``int64``: float, complex and object stacks,
and unsigned entries of 2^63 or more, are refused with ``ValidationError``
rather than truncated or wrapped.

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


def integer_stack(a) -> np.ndarray:
    """``a`` as a (B, r, c) array of bool or integer dtype whose entries lie in ``int64``.

    Anything else would be truncated (floats) or wrapped (uint64 entries of
    2^63 or more) on its way into the ``int64`` work block, so it raises
    ``ValidationError``; Python ints beyond 64 bits arrive as an object array.
    Ragged rows, and arrays without three axes, raise it too.
    """
    try:
        a = np.asarray(a)
    except ValueError:
        raise ValidationError("entries must form a rectangular array") from None
    if a.ndim != 3:
        raise ValidationError(f"a stack of matrices has three axes, not shape {a.shape}")
    if a.dtype.kind not in "biu":
        raise ValidationError(f"entries must be integers within int64, not dtype {a.dtype}")
    if a.dtype == np.uint64 and a.size and a.max() > np.iinfo(np.int64).max:
        raise ValidationError("entries must lie within int64, not reach 2^63")
    return a


def batch_rank(a) -> np.ndarray:
    """Exact ranks over Q of a (B, r, c) stack of integer matrices, as ``int64``.

    The one-stack case of ``certified_ranks``: ranks mod P1, then mod P2
    and by ``integer_rank`` as each trial's Hadamard bound needs (module
    docstring).  ``a`` may be any array-like of bool or integer entries
    within ``int64``; anything else raises ``ValidationError``.
    """
    [(_, ranks)] = certified_ranks([(None, a)])
    return ranks


def certified_ranks(stacks):
    """Yield ``(label, ranks)`` for each ``(label, stack)`` of ``stacks``, once final.

    Every yielded rank is final, by the ladder over (P1, P2) (module
    docstring), and stacks come out in any order.  Each stack keeps its own
    bool or integer dtype and is not copied to ``int64``: only
    ``_rank_mod``'s work block is.  A stack of any other dtype, or with
    entries outside ``int64``, raises ``ValidationError`` (``integer_stack``).
    """
    return _ladder(stacks, (P1, P2))


def certified_nonsingular(stacks):
    """Yield ``(label, nonsingular)`` for each ``(label, stack)`` of square ``stacks``, once final.

    ``nonsingular`` is a bool array, True where the trial's determinant is
    nonzero over Q, that is where its rank on the ladder over (Q, P1, P2)
    is full; stacks come out in any order.  A non-square stack, or one
    ``integer_stack`` refuses, raises ``ValidationError``.
    """
    # map, unlike a generator function, keeps no stack alive across a yield
    ranked = _ladder(map(_square, stacks), (Q, P1, P2))
    return ((label, ranks == n) for (label, n), ranks in ranked)


def _square(item):
    """A ``(label, stack)`` of n x n matrices as ``((label, n), stack)``."""
    label, a = item
    a = integer_stack(a)
    if a.shape[1] != a.shape[2]:
        raise ValidationError(f"stacks must hold square matrices, not shape {a.shape}")
    return (label, a.shape[1]), a


def _ladder(stacks, primes):
    """Yield ``(label, ranks)`` for each ``(label, stack)`` of ``stacks``, certified over ``primes``.

    Each stack is ranked mod ``primes[0]`` as it arrives.  A rank-deficient
    trial whose Hadamard bound H reaches that prime is owed the later
    primes and waits in ``_pooled``; every other rank is final.  When
    (c * top^2)^r < p^2, with top = max|a|, no trial of the (B, r, c) stack
    reaches p (H^2 <= (c * top^2)^r), and no row norm is taken.
    """
    p = primes[0]

    def first_passes():
        for label, a in stacks:
            a = integer_stack(a)
            nrows, ncols = a.shape[1:]
            ranks = _rank_mod(a, p)
            deficient = np.flatnonzero(ranks < min(nrows, ncols))
            owed, h2 = deficient[:0], np.empty(0, dtype=object)
            if deficient.size:
                top = max(int(a.max()), -int(a.min()))
                if (ncols * top * top) ** nrows >= p * p:
                    h2 = _hadamard_squared(a[deficient])
                    reach = h2 >= p * p
                    owed, h2 = deficient[reach], h2[reach]
            mats = a[owed]
            del a  # the stack is not held across a yield
            yield label, ranks, owed, mats, h2

    return _pooled(first_passes(), primes)


def _pooled(firsts, primes):
    """Yield ``(label, ranks)`` for each ``(label, ranks, owed, mats, h2)`` of ``firsts``, once final.

    ``ranks`` holds a stack's ranks after its first pass, final except at
    the positions ``owed``, whose matrices are ``mats`` and whose squared
    Hadamard bounds are ``h2``.  A stack that owes nothing is yielded at
    once; a stack that owes some waits with only its label, its ranks and
    its owed trials.  The waiting trials are settled together, by one pass
    per later prime (``_settle``), when the next owing stack would make them
    outnumber the largest stack's trials or has another matrix shape, and at
    the end, so at most that many owed trials wait, from at most that many
    stacks, however long the stream.
    """
    held: list[tuple] = []  # (label, ranks, owed positions, owed matrices, their H^2)
    size = largest = 0
    for label, ranks, owed, mats, h2 in firsts:
        largest = max(largest, len(ranks))
        if not owed.size:
            yield label, ranks
            continue
        if held and (size + owed.size > largest or mats.shape[1:] != held[0][3].shape[1:]):
            yield from _settle(held, primes)
            held, size = [], 0
        held.append((label, ranks, owed, mats, h2))
        size += owed.size
    if held:
        yield from _settle(held, primes)


def _settle(held, primes):
    """Yield the held stacks' ``(label, ranks)``, their owed trials ranked mod each later prime.

    A trial goes on to the next prime while it is rank-deficient and its H
    reaches the product of the primes so far, and ends with the largest of
    its ranks; one still open after the last prime is ranked by
    ``integer_rank``.
    """
    mats = np.concatenate([mats for *_, mats, _ in held], dtype=np.int64)
    h2 = np.concatenate([h2 for *_, h2 in held])
    settled = np.concatenate([ranks[owed] for _, ranks, owed, *_ in held])
    full, product, trials = min(mats.shape[1:]), primes[0], slice(None)
    for p in primes[1:]:
        settled[trials] = np.maximum(settled[trials], _rank_mod(mats[trials], p))
        product *= p
        # ranks only grow and products only rise, so no settled trial reopens
        trials = np.flatnonzero((settled < full) & (h2 >= product * product))
        if not trials.size:
            break
    for k in trials:
        settled[k] = integer_rank(mats[k].tolist())
    for label, ranks, owed, *_ in held:
        ranks[owed], settled = settled[: owed.size], settled[owed.size :]
        yield label, ranks
