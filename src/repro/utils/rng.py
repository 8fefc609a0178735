"""Deterministic pseudo-random number generation.

Every stochastic decision in the simulator flows from a named
:class:`XorShiftRNG` stream so runs are bit-identical across processes and
platforms.  We deliberately avoid :mod:`random` for simulator state: its
global singleton invites cross-contamination between components, and its
Mersenne Twister state is needlessly heavy to snapshot.

The generator is the classic 64-bit xorshift* of Vigna (2016): tiny state,
good statistical quality for simulation purposes, and trivially portable.
"""

from __future__ import annotations

from bisect import bisect_right

_MASK64 = (1 << 64) - 1
_SPLITMIX_GAMMA = 0x9E3779B97F4A7C15


def _splitmix64(value: int) -> int:
    """One splitmix64 step; used to spread user seeds over 64 bits."""
    value = (value + _SPLITMIX_GAMMA) & _MASK64
    value = ((value ^ (value >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    value = ((value ^ (value >> 27)) * 0x94D049BB133111EB) & _MASK64
    return value ^ (value >> 31)


def derive_seed(base_seed: int, *labels: object) -> int:
    """Derive a child seed from ``base_seed`` and a sequence of labels.

    Components each get their own stream: for example the program generator
    uses ``derive_seed(seed, "program")`` while wrong-path branch outcomes use
    ``derive_seed(seed, "wrongpath")``.  String labels are hashed bytewise so
    the derivation does not depend on Python's randomized ``hash()``.
    """
    state = _splitmix64(base_seed & _MASK64)
    for label in labels:
        if isinstance(label, int):
            material = label & _MASK64
        else:
            material = 0
            for byte in str(label).encode("utf-8"):
                material = (material * 131 + byte) & _MASK64
        state = _splitmix64(state ^ material)
    # A zero state would trap xorshift at zero forever.
    return state or _SPLITMIX_GAMMA


def derive_thread_seed(base_seed: int, thread_id: int) -> int:
    """Derive hardware-thread ``thread_id``'s seed from a mix's base seed.

    Splitmix-style hashing (via :func:`derive_seed` with a dedicated
    domain label) guarantees the per-thread streams are decorrelated even
    for adjacent thread ids and never collide with the component labels
    other subsystems derive from the same base — two copies of one
    benchmark in a multi-program mix get genuinely different program
    instances and behaviour streams.
    """
    if thread_id < 0:
        raise ValueError(f"thread_id must be non-negative, got {thread_id}")
    return derive_seed(base_seed, "hw-thread", thread_id)


class XorShiftRNG:
    """A tiny deterministic RNG (xorshift64*) with simulation helpers."""

    __slots__ = ("_state",)

    def __init__(self, seed: int) -> None:
        self._state = derive_seed(seed)

    # The xorshift64* step is inlined into every helper below: generation
    # and branch-behaviour streams draw tens of millions of values per
    # campaign, and the extra call frames of helper-over-helper layering
    # were a measurable slice of program-generation time.  The arithmetic
    # is identical in every method, so the draw sequences are unchanged.

    def next_u64(self) -> int:
        """Return the next raw 64-bit value."""
        state = self._state
        state ^= (state >> 12)
        state ^= (state << 25) & _MASK64
        state ^= (state >> 27)
        self._state = state
        return (state * 0x2545F4914F6CDD1D) & _MASK64

    def random(self) -> float:
        """Return a float uniformly distributed in [0, 1)."""
        state = self._state
        state ^= (state >> 12)
        state ^= (state << 25) & _MASK64
        state ^= (state >> 27)
        self._state = state
        return (((state * 0x2545F4914F6CDD1D) & _MASK64) >> 11) * (1.0 / (1 << 53))

    def randint(self, low: int, high: int) -> int:
        """Return an integer uniformly distributed in [low, high] inclusive."""
        if low > high:
            raise ValueError(f"empty range [{low}, {high}]")
        state = self._state
        state ^= (state >> 12)
        state ^= (state << 25) & _MASK64
        state ^= (state >> 27)
        self._state = state
        return low + ((state * 0x2545F4914F6CDD1D) & _MASK64) % (high - low + 1)

    def choice(self, items):
        """Return a uniformly chosen element of a non-empty sequence."""
        if not items:
            raise ValueError("cannot choose from an empty sequence")
        state = self._state
        state ^= (state >> 12)
        state ^= (state << 25) & _MASK64
        state ^= (state >> 27)
        self._state = state
        return items[((state * 0x2545F4914F6CDD1D) & _MASK64) % len(items)]

    def chance(self, probability: float) -> bool:
        """Return True with the given probability."""
        state = self._state
        state ^= (state >> 12)
        state ^= (state << 25) & _MASK64
        state ^= (state >> 27)
        self._state = state
        return (
            (((state * 0x2545F4914F6CDD1D) & _MASK64) >> 11) * (1.0 / (1 << 53))
            < probability
        )

    def weighted_choice(self, items, weights):
        """Return an element of ``items`` chosen with the given weights."""
        if len(items) != len(weights):
            raise ValueError("items and weights must have the same length")
        total = float(sum(weights))
        if total <= 0.0:
            raise ValueError("weights must sum to a positive value")
        state = self._state
        state ^= (state >> 12)
        state ^= (state << 25) & _MASK64
        state ^= (state >> 27)
        self._state = state
        target = (
            (((state * 0x2545F4914F6CDD1D) & _MASK64) >> 11) * (1.0 / (1 << 53))
        ) * total
        cumulative = 0.0
        for item, weight in zip(items, weights):
            cumulative += weight
            if target < cumulative:
                return item
        return items[-1]

    def table_choice(self, table: "WeightedTable"):
        """:meth:`weighted_choice` over a precomputed :class:`WeightedTable`.

        Same single draw, same target arithmetic and the same item for
        every draw; the per-call sum and cumulative scan become one
        ``bisect_right`` over the table's cumulative weights.
        """
        return table.items[bisect_right(table.cumulative, self.random() * table.total)]

    def shuffle(self, items: list) -> None:
        """Shuffle a list in place (Fisher-Yates)."""
        for i in range(len(items) - 1, 0, -1):
            j = self.randint(0, i)
            items[i], items[j] = items[j], items[i]

    def getstate(self) -> int:
        """Return the internal state (for checkpointing)."""
        return self._state

    def setstate(self, state: int) -> None:
        """Restore a state captured by :meth:`getstate`."""
        if not 0 < state <= _MASK64:
            raise ValueError("invalid xorshift state")
        self._state = state


class WeightedTable:
    """A weighted choice precomputed once for many draws.

    ``total`` is ``float(sum(weights))`` and ``cumulative`` the running
    left-to-right sums from ``0.0`` — exactly the values
    :meth:`XorShiftRNG.weighted_choice` recomputes on every call — so
    ``items[bisect_right(cumulative, u * total)]`` picks the item whose
    running sum first exceeds the target, as the linear scan does.
    ``items`` carries the last item once more: a target at or past the
    final running sum (a rounding gap between ``sum`` and the running
    adds) falls back to it, like the scan's fall-through.
    """

    __slots__ = ("items", "cumulative", "total")

    def __init__(self, items, weights) -> None:
        if len(items) != len(weights):
            raise ValueError("items and weights must have the same length")
        total = float(sum(weights))
        if total <= 0.0:
            raise ValueError("weights must sum to a positive value")
        cumulative = []
        running = 0.0
        for weight in weights:
            running += weight
            cumulative.append(running)
        self.items = tuple(items) + (items[-1],)
        self.cumulative = cumulative
        self.total = total


def stateless_hash_step(state: int, value: int) -> int:
    """One chaining step of :func:`stateless_hash`.

    ``stateless_hash(seed, a, b)`` equals
    ``stateless_hash_step(stateless_hash_step(seed & MASK64, a), b)`` —
    identical arithmetic — so hot callers with a fixed prefix (a static
    instruction's address, a block id) can precompute the partial state
    and pay a single step per draw.
    """
    state = (state ^ (value & _MASK64)) + _SPLITMIX_GAMMA & _MASK64
    state = ((state ^ (state >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    state = ((state ^ (state >> 27)) * 0x94D049BB133111EB) & _MASK64
    return state ^ (state >> 31)


def stateless_hash(seed: int, *values: int) -> int:
    """A pure function of its arguments, usable as a stateless random source.

    Wrong-path branch outcomes use this so speculative fetch never perturbs
    true-path behavioural state.  The splitmix64 step is unrolled inline
    (identical arithmetic to :func:`_splitmix64`): wrong-path fetch calls
    this once per speculative branch, making it one of the hottest leaf
    functions in the simulator.
    """
    state = seed & _MASK64
    for value in values:
        state = (state ^ (value & _MASK64)) + _SPLITMIX_GAMMA & _MASK64
        state = ((state ^ (state >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
        state = ((state ^ (state >> 27)) * 0x94D049BB133111EB) & _MASK64
        state = state ^ (state >> 31)
    return state
