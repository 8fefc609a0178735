"""Set-associative cache model with LRU replacement.

Timing-only: the model tracks which lines are resident and produces
hit/miss decisions plus statistics; it stores no data.  That is exactly what
the power/performance evaluation needs — latencies for the timing model and
access counts for the power model.
"""

from __future__ import annotations

from repro.errors import ConfigurationError
from repro.utils.bitops import bit_mask, is_power_of_two, log2_exact


class CacheStats:
    """Access counters for one cache."""

    __slots__ = ("accesses", "misses", "evictions")

    def __init__(self) -> None:
        self.accesses = 0
        self.misses = 0
        self.evictions = 0

    @property
    def hits(self) -> int:
        """Number of accesses that hit."""
        return self.accesses - self.misses

    @property
    def miss_rate(self) -> float:
        """Miss fraction (0 when never accessed)."""
        return self.misses / self.accesses if self.accesses else 0.0

    def reset(self) -> None:
        """Zero all counters."""
        self.accesses = 0
        self.misses = 0
        self.evictions = 0


class Cache:
    """A set-associative cache with true LRU within each set."""

    def __init__(self, name: str, size_bytes: int, ways: int, line_bytes: int) -> None:
        if size_bytes <= 0 or ways <= 0 or line_bytes <= 0:
            raise ConfigurationError(f"{name}: cache geometry must be positive")
        if not is_power_of_two(line_bytes):
            raise ConfigurationError(f"{name}: line size must be a power of two")
        if size_bytes % (ways * line_bytes):
            raise ConfigurationError(
                f"{name}: size {size_bytes} not divisible by ways*line"
            )
        self.name = name
        self.size_bytes = size_bytes
        self.ways = ways
        self.line_bytes = line_bytes
        self.num_sets = size_bytes // (ways * line_bytes)
        if not is_power_of_two(self.num_sets):
            raise ConfigurationError(f"{name}: set count must be a power of two")
        self._offset_bits = log2_exact(line_bytes)
        self._set_mask = bit_mask(log2_exact(self.num_sets))
        # Per-set tags in LRU order (front = MRU).  A set stays the shared
        # empty tuple until its first fill makes it a list: a short run
        # touches few of the thousands of sets, and allocating them all
        # up front would dominate building a processor.  Readers
        # (``probe``, the fetch stage's inlined MRU check) treat an empty
        # tuple exactly as an empty list.
        self._sets = [()] * self.num_sets
        self.stats = CacheStats()

    def probe(self, address: int) -> bool:
        """Return hit/miss without updating LRU or counters."""
        line = address >> self._offset_bits
        tag_set = self._sets[line & self._set_mask]
        return line in tag_set

    def access(self, address: int) -> bool:
        """Access the cache; allocate on miss.  Returns True on a hit."""
        line = address >> self._offset_bits
        index = line & self._set_mask
        tag_set = self._sets[index]
        self.stats.accesses += 1
        # MRU hit: the overwhelmingly common case, no LRU reordering.
        if tag_set and tag_set[0] == line:
            return True
        try:
            position = tag_set.index(line)
        except ValueError:
            self.stats.misses += 1
            if not tag_set:
                self._sets[index] = [line]  # first fill of this set
                return False
            tag_set.insert(0, line)
            if len(tag_set) > self.ways:
                tag_set.pop()
                self.stats.evictions += 1
            return False
        if position:
            tag_set.insert(0, tag_set.pop(position))
        return True

    def invalidate_all(self) -> None:
        """Empty the cache (statistics are preserved).

        Resets the entries in place: the stage hot loops hold aliases of
        the set array, which must stay valid across an invalidation.
        """
        self._sets[:] = [()] * self.num_sets

    def line_address(self, address: int) -> int:
        """Return the line-aligned address containing ``address``."""
        return address & ~bit_mask(self._offset_bits)

    def __repr__(self) -> str:
        return (
            f"Cache({self.name!r}, {self.size_bytes // 1024} KB, "
            f"{self.ways}-way, {self.line_bytes} B lines)"
        )
