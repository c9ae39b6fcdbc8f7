import numpy as np
import pytest

from periodlab.rng import MASK64, SplitMix64, derive_seed, mix64, stream_draws, trial_seeds


def test_stream_determinism():
    a = [SplitMix64(99).next_u64() for _ in range(16)]
    b = [SplitMix64(99).next_u64() for _ in range(16)]
    assert a == b


def test_streams_differ_by_seed():
    a = [SplitMix64(1).next_u64() for _ in range(8)]
    b = [SplitMix64(2).next_u64() for _ in range(8)]
    assert a != b


def test_outputs_in_range():
    s = SplitMix64(7)
    for _ in range(1000):
        v = s.next_u64()
        assert 0 <= v <= MASK64


def test_mix64_reference_values():
    # splitmix64 with seed 0 advances state by the golden gamma and
    # finalizes; the first output is mix64(gamma).
    assert SplitMix64(0).next_u64() == mix64(0x9E3779B97F4A7C15)


def test_mix64_scrambles():
    outs = {mix64(i) for i in range(4096)}
    assert len(outs) == 4096  # injective on this range


def test_derive_seed_is_stable_and_spread():
    assert derive_seed(42, 0) == derive_seed(42, 0)
    seeds = {derive_seed(42, i) for i in range(10000)}
    assert len(seeds) == 10000


@pytest.mark.parametrize("seed", [0, 42, -7, MASK64, 2**64 + 3, -(2**70)])
def test_trial_seeds_match_derive_seed(seed):
    got = trial_seeds(seed, 5, 300).tolist()
    assert got == [derive_seed(seed, i) for i in range(5, 300)]


def test_stream_draws_match_sequential_stream():
    seeds = [0, 1, MASK64, derive_seed(9, 3)]
    draws = stream_draws(np.array(seeds, dtype=np.uint64), 50).tolist()
    for seed, row in zip(seeds, draws):
        stream = SplitMix64(seed)
        assert row == [stream.next_u64() for _ in range(50)]
