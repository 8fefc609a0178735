"""Tests for caches, TLB and the memory hierarchy."""

import pytest

from repro.errors import ConfigurationError
from repro.memory.cache import Cache
from repro.memory.hierarchy import MemoryHierarchy
from repro.memory.tlb import TLB
from repro.utils.rng import XorShiftRNG


# --- cache ------------------------------------------------------------------

def test_cache_geometry():
    cache = Cache("t", 64 * 1024, 2, 32)
    assert cache.num_sets == 1024


def test_cache_bad_geometry():
    with pytest.raises(ConfigurationError):
        Cache("t", 100, 2, 32)
    with pytest.raises(ConfigurationError):
        Cache("t", 64 * 1024, 2, 33)


def test_cache_miss_then_hit_same_line():
    cache = Cache("t", 1024, 2, 32)
    assert not cache.access(0x100)
    assert cache.access(0x100)
    assert cache.access(0x11C)  # same 32-byte line
    assert cache.stats.misses == 1
    assert cache.stats.hits == 2


def test_cache_lru_eviction():
    cache = Cache("t", 64, 2, 32)  # 1 set, 2 ways
    cache.access(0x000)
    cache.access(0x100)
    cache.access(0x000)  # refresh
    cache.access(0x200)  # evicts 0x100
    assert cache.probe(0x000)
    assert not cache.probe(0x100)
    assert cache.stats.evictions == 1


def test_cache_probe_does_not_touch_state():
    cache = Cache("t", 64, 2, 32)
    cache.access(0x000)
    accesses = cache.stats.accesses
    assert cache.probe(0x000)
    assert cache.stats.accesses == accesses


def test_cache_invalidate_all():
    cache = Cache("t", 1024, 2, 32)
    cache.access(0x100)
    cache.invalidate_all()
    assert not cache.probe(0x100)


def test_cache_line_address():
    cache = Cache("t", 1024, 2, 32)
    assert cache.line_address(0x11F) == 0x100
    assert cache.line_address(0x120) == 0x120


def test_cache_stats_reset():
    cache = Cache("t", 1024, 2, 32)
    cache.access(0x100)
    cache.stats.reset()
    assert cache.stats.accesses == 0
    assert cache.stats.miss_rate == 0.0


class _EagerLRU:
    """Reference model: every set a list from the start, plain LRU."""

    def __init__(self, num_sets, ways, line_bytes):
        self.sets = [[] for _ in range(num_sets)]
        self.ways = ways
        self.line_bytes = line_bytes
        self.accesses = self.misses = self.evictions = 0

    def _set(self, address):
        line = address // self.line_bytes
        return line, self.sets[line % len(self.sets)]

    def probe(self, address):
        line, tags = self._set(address)
        return line in tags

    def access(self, address):
        line, tags = self._set(address)
        self.accesses += 1
        if line in tags:
            tags.remove(line)
            tags.insert(0, line)
            return True
        self.misses += 1
        tags.insert(0, line)
        if len(tags) > self.ways:
            tags.pop()
            self.evictions += 1
        return False


def _address_streams():
    rng = XorShiftRNG(2024)
    uniform = [rng.randint(0, 1 << 20) for _ in range(3000)]
    # Set conflicts: a handful of sets, each hit by more tags than ways,
    # with re-references so LRU order (not just residency) matters.
    way_stride = 32 * 64  # line bytes * sets of the 4-way 8 KB cache below
    conflict = [
        rng.randint(0, 3) * 32 + rng.randint(0, 6) * way_stride + rng.randint(0, 31)
        for _ in range(3000)
    ]
    return {"uniform": uniform, "conflict": conflict}


@pytest.mark.parametrize("stream", ["uniform", "conflict"])
def test_cache_matches_an_eager_lru_reference(stream):
    cache = Cache("t", 8 * 1024, 4, 32)
    reference = _EagerLRU(cache.num_sets, 4, 32)
    for address in _address_streams()[stream]:
        assert cache.probe(address) == reference.probe(address)
        assert cache.access(address) == reference.access(address)
    assert (cache.stats.accesses, cache.stats.misses, cache.stats.evictions) == (
        reference.accesses, reference.misses, reference.evictions
    )
    assert reference.evictions > 0


def test_cache_probe_on_untouched_set_misses():
    cache = Cache("t", 8 * 1024, 4, 32)
    assert not cache.probe(0x40)
    cache.access(0x40)
    assert not cache.probe(0x60)  # the neighbouring set is still untouched
    assert cache.probe(0x40)


def test_cache_invalidate_all_keeps_the_set_array():
    cache = Cache("t", 8 * 1024, 4, 32)
    sets = cache._sets
    for address in range(0, 4096, 32):
        cache.access(address)
    cache.invalidate_all()
    assert cache._sets is sets  # aliases held by the fetch stage stay valid
    misses = cache.stats.misses
    assert not cache.access(0)
    assert cache.stats.misses == misses + 1
    assert cache.access(0)


# --- TLB --------------------------------------------------------------------

def test_tlb_miss_penalty_then_hit():
    tlb = TLB(entries=4, page_bytes=4096, miss_penalty=30)
    assert tlb.access(0x1000) == 30
    assert tlb.access(0x1FFC) == 0  # same page
    assert tlb.miss_rate == 0.5


def test_tlb_lru_eviction():
    tlb = TLB(entries=2, page_bytes=4096, miss_penalty=10)
    tlb.access(0x1000)
    tlb.access(0x2000)
    tlb.access(0x1000)  # refresh page 1
    tlb.access(0x3000)  # evicts page 2
    assert tlb.access(0x1000) == 0
    assert tlb.access(0x2000) == 10


def test_tlb_validation():
    with pytest.raises(ConfigurationError):
        TLB(entries=0)
    with pytest.raises(ConfigurationError):
        TLB(page_bytes=1000)


# --- hierarchy --------------------------------------------------------------

def test_hierarchy_l1_hit_latency():
    memory = MemoryHierarchy()
    memory.load(0x1000)  # cold miss
    result = memory.load(0x1000)
    assert result.l1_hit
    assert result.latency == 1


def test_hierarchy_l2_hit_latency():
    memory = MemoryHierarchy(icache_kb=1, dcache_kb=1, l2_kb=512)
    memory.load(0x1000)  # warm L2
    # Evict from tiny L1 by streaming
    for address in range(0x10000, 0x10000 + 4096, 32):
        memory.load(address)
    result = memory.load(0x1000)
    assert not result.l1_hit and result.l2_hit
    assert result.latency == 1 + 6


def test_hierarchy_memory_latency_on_cold_miss():
    memory = MemoryHierarchy()
    result = memory.load(0x9999000)
    assert not result.l1_hit and not result.l2_hit
    assert result.latency >= 1 + 18  # plus a possible TLB penalty


def test_hierarchy_fetch_skips_tlb():
    memory = MemoryHierarchy()
    first = memory.fetch(0x4000)
    assert first.latency == 1 + 18  # icache+L2 miss, never a TLB penalty


def test_hierarchy_extra_dcache_latency():
    memory = MemoryHierarchy(extra_dcache_latency=2)
    memory.load(0x1000)
    assert memory.load(0x1000).latency == 3


def test_hierarchy_reset_stats_preserves_content():
    memory = MemoryHierarchy()
    memory.load(0x1000)
    memory.reset_stats()
    assert memory.dcache.stats.accesses == 0
    assert memory.load(0x1000).l1_hit  # line still resident
