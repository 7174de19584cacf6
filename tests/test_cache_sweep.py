"""Equivalence tests: ``simulate_cache_sweep`` vs per-config
``simulate_cache`` on random and adversarial streams.

The batched sweep (one native LRU replay per geometry, or the
reference ``Cache`` when the kernel is unavailable) must be
*bit-identical* to the reference replay on every geometry class —
direct-mapped, set-associative, fully associative, non-power-of-two
sets and ways, mixed line sizes — because every experiment's Pearson
correlations and rankings are computed from its miss counts.
``tests/test_cache_generative.py`` covers both engines on generated
streams and geometries.
"""

import numpy as np
import pytest

from repro.uarch import (
    CACHE_SWEEP,
    CacheConfig,
    simulate_cache,
    simulate_cache_sweep,
)

RNG = np.random.default_rng(0xC0FFEE)


def stats_tuple(stats):
    return (stats.accesses, stats.misses, stats.evictions)


def assert_equivalent(addresses, configs):
    batched = simulate_cache_sweep(addresses, configs)
    assert len(batched) == len(configs)
    for config, stats in zip(configs, batched):
        reference = simulate_cache(addresses, config)
        assert stats_tuple(stats) == stats_tuple(reference), config


# One config per geometry class, plus awkward geometries.
PATH_CONFIGS = [
    CacheConfig(256, 1, 32),        # direct-mapped
    CacheConfig(1024, 2, 32),       # 2-way
    CacheConfig(2048, 4, 32),       # 4-way
    CacheConfig(512, "full", 32),   # fully associative (one set)
    CacheConfig(96, 3, 32),         # non-power-of-two ways
    CacheConfig(1024, 2, 64),       # second line size in one sweep
    CacheConfig(64, 2, 32),         # single set, 2-way
    CacheConfig(32, 1, 32),         # single line
]


class TestEquivalence:
    def test_random_stream(self):
        addresses = RNG.integers(0, 1 << 20, 20_000)
        assert_equivalent(addresses, PATH_CONFIGS)

    def test_random_stream_full_sweep(self):
        addresses = RNG.integers(0, 1 << 18, 10_000)
        assert_equivalent(addresses, CACHE_SWEEP)

    def test_sequential_stream(self):
        assert_equivalent(np.arange(20_000) * 4, PATH_CONFIGS)

    def test_conflict_thrash(self):
        # Addresses landing in the same set of every sweep geometry:
        # 16KB-apart strides thrash direct-mapped caches mercilessly.
        addresses = np.tile(np.arange(8) * 16384, 1000)
        assert_equivalent(addresses, PATH_CONFIGS)

    def test_lru_adversary(self):
        # Cyclic re-reference of capacity+1 blocks: worst case for LRU,
        # the classic sequence where every access misses.
        addresses = np.tile(np.arange(33) * 32, 300)
        assert_equivalent(addresses, PATH_CONFIGS)

    def test_consecutive_duplicates(self):
        # Runs of one block: every repeat is an MRU hit.
        addresses = np.repeat(RNG.integers(0, 1 << 14, 1_000), 9)
        assert_equivalent(addresses, PATH_CONFIGS)

    def test_single_block_stream(self):
        assert_equivalent(np.zeros(500, dtype=np.int64), PATH_CONFIGS)

    def test_mixed_locality(self):
        addresses = np.concatenate([
            RNG.integers(0, 4096, 3_000),
            np.arange(0, 65536, 4),
            np.tile(np.arange(4) * 8192, 500),
            RNG.integers(0, 1 << 24, 2_000),
        ])
        assert_equivalent(addresses, PATH_CONFIGS)


class TestEdgeCases:
    def test_empty_stream(self):
        batched = simulate_cache_sweep(np.array([], dtype=np.int64),
                                       PATH_CONFIGS)
        for stats in batched:
            assert stats_tuple(stats) == (0, 0, 0)

    def test_empty_configs(self):
        assert simulate_cache_sweep(np.arange(10), []) == []

    def test_list_input(self):
        addresses = [0, 32, 64, 0, 32, 96, 0]
        assert_equivalent(addresses, PATH_CONFIGS)

    def test_single_access(self):
        for config, stats in zip(
                PATH_CONFIGS, simulate_cache_sweep([1024], PATH_CONFIGS)):
            assert stats_tuple(stats) == (1, 1, 0), config

    def test_results_in_config_order(self):
        addresses = RNG.integers(0, 1 << 16, 2_000)
        forward = simulate_cache_sweep(addresses, PATH_CONFIGS)
        backward = simulate_cache_sweep(addresses, PATH_CONFIGS[::-1])
        assert ([stats_tuple(s) for s in forward]
                == [stats_tuple(s) for s in backward[::-1]])

    def test_input_array_not_mutated(self):
        addresses = RNG.integers(0, 1 << 16, 1_000)
        copy = addresses.copy()
        simulate_cache_sweep(addresses, PATH_CONFIGS)
        simulate_cache(addresses, PATH_CONFIGS[0])
        assert np.array_equal(addresses, copy)


@pytest.mark.parametrize("assoc", [1, 2, 4, "full"])
def test_every_sweep_associativity_on_real_trace_shape(assoc):
    # A loop-nest-like stream: strided lines with periodic resets.
    base = np.arange(0, 8192, 4)
    addresses = np.concatenate([base, base, base + 4096, base])
    configs = [CacheConfig(size, assoc, 32)
               for size in (256, 1024, 4096, 16384)]
    assert_equivalent(addresses, configs)
