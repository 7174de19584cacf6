"""Generative differential tests for the cache layer's two engines.

Hypothesis draws address streams — random, and adversarial: empty, one
repeated block, huge and negative values, cyclic capacity thrash — and
geometries: one set, fully associative, non-power-of-two sets and
ways, lines of 1–128 bytes.  The batched replays must equal the
pure-Python spec: ``simulate_cache_sweep`` equals per-config
``simulate_cache``, and ``per_access_hits`` equals the flags of
``Cache.access_block``.  Every case runs once on the native kernel and
once under ``REPRO_NATIVE=off`` (the reference fallback), and checks
that the replay was counted against the engine that ran it.
"""

import os

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.obs.metrics import REGISTRY
from repro.uarch import native
from repro.uarch.cache import (
    Cache,
    CacheConfig,
    per_access_hits,
    simulate_cache,
    simulate_cache_sweep,
)

INT64_SAFE = 2 ** 62


@pytest.fixture(scope="module", params=["native", "reference"])
def engine(request):
    """Select the replay engine for a whole module pass.

    Module-scoped (Hypothesis re-runs a test body many times per
    fixture instance), so the environment is set and restored by hand.
    """
    previous = os.environ.get("REPRO_NATIVE")
    if request.param == "reference":
        os.environ["REPRO_NATIVE"] = "off"
    native.reset()
    if request.param == "native" and not native.available():
        pytest.skip("no C compiler on host")
    was_enabled = REGISTRY.enabled
    REGISTRY.enable()
    yield request.param
    if not was_enabled:
        REGISTRY.disable()
    if previous is None:
        os.environ.pop("REPRO_NATIVE", None)
    else:
        os.environ["REPRO_NATIVE"] = previous
    native.reset()


def replays(engine):
    counter = REGISTRY.get(f"uarch.cache_replay.{engine}")
    return counter.value if counter else 0


@st.composite
def geometries(draw):
    line = 1 << draw(st.integers(0, 7))
    ways = draw(st.integers(1, 9))
    sets = draw(st.integers(1, 12))
    assoc = "full" if draw(st.booleans()) else ways
    return CacheConfig(line * ways * sets, assoc, line)


VALUES = st.one_of(st.integers(-300, 300),
                   st.integers(-INT64_SAFE, INT64_SAFE),
                   st.sampled_from([0, -1, INT64_SAFE, -INT64_SAFE]))

STREAMS = st.one_of(
    st.just([]),
    st.builds(lambda value, count: [value] * count,
              VALUES, st.integers(1, 40)),
    st.lists(st.integers(-64, 64), max_size=300),
    st.lists(VALUES, max_size=200),
    # Cyclic re-reference of k blocks: LRU's worst case once k exceeds
    # a set's ways.
    st.builds(lambda count, repeats, stride, base:
              [base + index * stride for index in range(count)] * repeats,
              st.integers(1, 40), st.integers(1, 6),
              st.sampled_from([1, 4, 32, 96, 4096, -128]),
              st.integers(-4096, 4096)),
)


def stats_tuple(stats):
    return (stats.accesses, stats.misses, stats.evictions)


@settings(max_examples=200, deadline=None)
@given(addresses=STREAMS, configs=st.lists(geometries(), min_size=1,
                                          max_size=6))
def test_sweep_matches_simulate_cache(engine, addresses, configs):
    before = replays(engine)
    swept = simulate_cache_sweep(np.array(addresses, dtype=np.int64),
                                 configs)
    assert [stats_tuple(stats) for stats in swept] == [
        stats_tuple(simulate_cache(addresses, config))
        for config in configs]
    assert replays(engine) == before + len(configs)


@settings(max_examples=200, deadline=None)
@given(blocks=STREAMS, config=geometries())
def test_per_access_hits_matches_cache_flags(engine, blocks, config):
    cache = Cache(config)
    expected = [cache.access_block(block) for block in blocks]
    before = replays(engine)
    hits = per_access_hits(np.array(blocks, dtype=np.int64), config)
    assert hits.dtype == np.bool_
    assert hits.tolist() == expected
    assert len(hits) - int(np.count_nonzero(hits)) == cache.stats.misses
    assert replays(engine) == before + 1


def test_block_entry_point_is_the_address_path():
    # Cache.access is Cache.access_block on the shifted address, so the
    # block-level fallback replays exactly the reference model.
    config = CacheConfig(96, 3, 32)
    by_address, by_block = Cache(config), Cache(config)
    addresses = [0, 32, 96, -32, 4096, 0, 31, -1, 64, 96]
    assert ([by_address.access(address) for address in addresses]
            == [by_block.access_block(address >> 5)
                for address in addresses])
    assert stats_tuple(by_address.stats) == stats_tuple(by_block.stats)
