"""Deterministic 64-bit random streams based on the splitmix64 recurrence.

The trial machinery (``modsel``) draws from this generator, so every
seeded trial is bit-reproducible across platforms and numpy releases.
``siegel.random_siegel`` is the exception: it draws from numpy's PCG64
``Generator``, whose streams numpy may change between releases (NEP 19).
The constants are the published splitmix64 constants (Steele, Lea, Flood,
"Fast splittable pseudorandom number generators", OOPSLA 2014).

The stream is counter-based: output k (from 0) of the stream seeded with
s is mix64(s + (k+1)*gamma) mod 2^64.  ``trial_seeds`` and ``stream_draws``
evaluate the same formulas on numpy ``uint64`` arrays, whose arithmetic
wraps mod 2^64, so a whole batch of trials is drawn at once with results
identical to the scalar ``derive_seed`` and ``SplitMix64`` reference.
"""

from __future__ import annotations

import numpy as np

MASK64 = (1 << 64) - 1

_GAMMA = 0x9E3779B97F4A7C15
_MIX1 = 0xBF58476D1CE4E5B9
_MIX2 = 0x94D049BB133111EB


def mix64(z: int) -> int:
    """The splitmix64 finalizer: a bijective scramble of a 64-bit word."""
    z &= MASK64
    z = ((z ^ (z >> 30)) * _MIX1) & MASK64
    z = ((z ^ (z >> 27)) * _MIX2) & MASK64
    return z ^ (z >> 31)


class SplitMix64:
    """Sequential splitmix64 stream seeded with a 64-bit integer."""

    def __init__(self, seed: int):
        self._state = seed & MASK64

    def next_u64(self) -> int:
        self._state = (self._state + _GAMMA) & MASK64
        return mix64(self._state)


def derive_seed(seed: int, index: int) -> int:
    """Per-trial seed for trial ``index`` of a run seeded with ``seed``.

    Defined as mix64(seed XOR index); documented so external tooling can
    reproduce any single trial in isolation.
    """
    return mix64((seed & MASK64) ^ (index & MASK64))


def _mix64_in_place(z: np.ndarray) -> np.ndarray:
    """``mix64`` applied elementwise to the ``uint64`` array ``z``, in place; returns z.

    Each xor-shift writes its shift into one temporary of z's shape, so the
    mix holds at most one array beside z.
    """
    shifted = np.right_shift(z, np.uint64(30))
    z ^= shifted
    z *= np.uint64(_MIX1)
    z ^= np.right_shift(z, np.uint64(27), out=shifted)
    z *= np.uint64(_MIX2)
    z ^= np.right_shift(z, np.uint64(31), out=shifted)
    return z


def trial_seeds(seed: int, start: int, stop: int) -> np.ndarray:
    """``derive_seed(seed, i)`` for i in [start, stop), as ``uint64``."""
    index = np.arange(start, stop, dtype=np.uint64)
    index ^= np.uint64(seed & MASK64)
    return _mix64_in_place(index)


def stream_draws(seeds: np.ndarray, n: int) -> np.ndarray:
    """(len(seeds), n) array: the first n outputs of SplitMix64(s) per seed.

    The draws are mixed in place in the array of counter values s + k*gamma
    they are built as, so a chunk of draws holds two ``uint64`` arrays of its
    size at its peak: the draws and one shift.
    """
    steps = np.arange(1, n + 1, dtype=np.uint64) * np.uint64(_GAMMA)
    return _mix64_in_place(np.asarray(seeds, dtype=np.uint64)[:, None] + steps)
