"""Tests for the branch behaviour models."""

import pytest

from repro.errors import ProgramError
from repro.program.behavior import (
    BiasedBehavior,
    CorrelatedBehavior,
    LoopBehavior,
    PatternBehavior,
)


def test_biased_extremes():
    always = BiasedBehavior(1.0, seed=1)
    never = BiasedBehavior(0.0, seed=1)
    assert all(always.next_outcome(0) for _ in range(50))
    assert not any(never.next_outcome(0) for _ in range(50))


def test_biased_rate_close_to_p():
    behavior = BiasedBehavior(0.8, seed=3)
    taken = sum(behavior.next_outcome(0) for _ in range(20_000))
    assert abs(taken / 20_000 - 0.8) < 0.02


def test_biased_reset_replays_stream():
    behavior = BiasedBehavior(0.5, seed=9)
    first = [behavior.next_outcome(0) for _ in range(50)]
    behavior.reset()
    assert [behavior.next_outcome(0) for _ in range(50)] == first


def test_biased_rejects_bad_probability():
    with pytest.raises(ProgramError):
        BiasedBehavior(1.5, seed=1)


def test_loop_fixed_trip_sequence():
    behavior = LoopBehavior(mean_trip=4, seed=1, jitter=0.0)
    outcomes = [behavior.next_outcome(0) for _ in range(12)]
    # taken, taken, taken, not-taken repeating (do-while with trip 4).
    assert outcomes == [True, True, True, False] * 3


def test_loop_trip_one_never_taken():
    behavior = LoopBehavior(mean_trip=1, seed=1, jitter=0.0)
    assert not any(behavior.next_outcome(0) for _ in range(10))


def test_loop_jitter_always_terminates():
    behavior = LoopBehavior(mean_trip=10, seed=5, jitter=0.5)
    longest_run = run = 0
    for _ in range(5000):
        if behavior.next_outcome(0):
            run += 1
            longest_run = max(longest_run, run)
        else:
            run = 0
    assert longest_run < 100  # bounded trips


def test_loop_validation():
    with pytest.raises(ProgramError):
        LoopBehavior(0, seed=1)
    with pytest.raises(ProgramError):
        LoopBehavior(5, seed=1, jitter=2.0)


def test_pattern_cycles():
    behavior = PatternBehavior([True, False, False])
    outcomes = [behavior.next_outcome(0) for _ in range(9)]
    assert outcomes == [True, False, False] * 3


def test_pattern_reset():
    behavior = PatternBehavior([True, False])
    behavior.next_outcome(0)
    behavior.reset()
    assert behavior.next_outcome(0) is True


def test_pattern_rejects_empty():
    with pytest.raises(ProgramError):
        PatternBehavior([])


def test_correlated_pure_function_of_history_without_noise():
    behavior = CorrelatedBehavior(history_mask=0b101, noise=0.0, seed=1)
    # parity of masked bits decides the outcome
    assert behavior.next_outcome(0b000) is False
    assert behavior.next_outcome(0b001) is True
    assert behavior.next_outcome(0b100) is True
    assert behavior.next_outcome(0b101) is False


def test_correlated_noise_flips_sometimes():
    behavior = CorrelatedBehavior(history_mask=0b1, noise=0.5, seed=2)
    outcomes = [behavior.next_outcome(0) for _ in range(2000)]
    flipped = sum(outcomes)  # parity says False; True outcomes are flips
    assert 800 < flipped < 1200


def test_correlated_validation():
    with pytest.raises(ProgramError):
        CorrelatedBehavior(0, noise=0.1, seed=1)
    with pytest.raises(ProgramError):
        CorrelatedBehavior(1, noise=1.5, seed=1)


@pytest.mark.parametrize("make", [
    lambda: BiasedBehavior(0.6, seed=11),
    lambda: LoopBehavior(mean_trip=5, seed=12),
    lambda: LoopBehavior(mean_trip=9, seed=13, jitter=0.5),
    lambda: PatternBehavior([True, False, False, True, True]),
    lambda: CorrelatedBehavior(0b1011, noise=0.3, seed=14),
], ids=["biased", "loop", "jittered-loop", "pattern", "correlated"])
@pytest.mark.parametrize("before", [0, 1, 37])
def test_reset_replays_a_fresh_instance(make, before):
    # reset() restores a stored initial state; after any number of draws
    # the stream must restart exactly where a fresh instance starts.
    history = 0b110100101
    behavior = make()
    for step in range(before):
        behavior.next_outcome(history ^ step)
    behavior.reset()
    fresh = make()
    replayed = [behavior.next_outcome(history ^ step) for step in range(60)]
    expected = [fresh.next_outcome(history ^ step) for step in range(60)]
    assert replayed == expected
