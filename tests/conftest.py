import os
import sys
from types import SimpleNamespace

import pytest

# make the oracles module importable from any invocation directory
sys.path.insert(0, os.path.dirname(__file__))

from periodlab import exact  # noqa: E402


@pytest.fixture
def rank_passes(monkeypatch):
    """Record, in order, the work of ``exact``'s certified rank ladder.

    ``events`` gets (prime, matrix shape, trials) for each ``_rank_mod``
    pass and "Bareiss" for each ``integer_rank`` call; a test may append
    its own events to the same list.  ``owed`` gets (matrix shape, owed
    trials) for each stack's first pass as it enters ``_pooled``.
    """
    log = SimpleNamespace(events=[], owed=[])
    rank_mod, integer_rank, pooled = exact._rank_mod, exact.integer_rank, exact._pooled

    def recording_rank_mod(a, p):
        log.events.append((p, a.shape[1:], len(a)))
        return rank_mod(a, p)

    def recording_integer_rank(rows):
        log.events.append("Bareiss")
        return integer_rank(rows)

    def record_owed(first):
        _, _, owed, mats, _ = first
        log.owed.append((mats.shape[1:], owed.size))
        return first

    def recording_pooled(firsts, primes):
        return pooled(map(record_owed, firsts), primes)

    monkeypatch.setattr(exact, "_rank_mod", recording_rank_mod)
    monkeypatch.setattr(exact, "integer_rank", recording_integer_rank)
    monkeypatch.setattr(exact, "_pooled", recording_pooled)
    return log
