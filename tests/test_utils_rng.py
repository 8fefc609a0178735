"""Tests for the deterministic RNG streams."""

import pytest

from repro.utils.rng import (
    WeightedTable,
    XorShiftRNG,
    derive_seed,
    derive_thread_seed,
    stateless_hash,
)


def test_derive_thread_seed_deterministic():
    assert derive_thread_seed(2003, 0) == derive_thread_seed(2003, 0)
    assert derive_thread_seed(2003, 3) == derive_thread_seed(2003, 3)


def test_derive_thread_seed_separates_threads_and_bases():
    seeds = {derive_thread_seed(2003, tid) for tid in range(64)}
    assert len(seeds) == 64
    assert derive_thread_seed(2003, 0) != derive_thread_seed(2004, 0)
    # Adjacent bases and thread ids never cross over.
    assert derive_thread_seed(2003, 1) != derive_thread_seed(2004, 0)


def test_derive_thread_seed_is_domain_separated():
    # A thread seed must not collide with a plain integer-label derivation
    # of the same values (splitmix domain separation via the label).
    assert derive_thread_seed(7, 1) != derive_seed(7, 1)


def test_derive_thread_seed_is_a_valid_xorshift_seed():
    for tid in range(8):
        seed = derive_thread_seed(0, tid)
        assert seed != 0
        rng = XorShiftRNG(seed)
        assert 0.0 <= rng.random() < 1.0


def test_derive_thread_seed_rejects_negative_ids():
    with pytest.raises(ValueError):
        derive_thread_seed(1, -1)


def test_same_seed_same_stream():
    a = XorShiftRNG(123)
    b = XorShiftRNG(123)
    assert [a.next_u64() for _ in range(100)] == [b.next_u64() for _ in range(100)]


def test_different_seeds_different_streams():
    a = XorShiftRNG(123)
    b = XorShiftRNG(124)
    assert [a.next_u64() for _ in range(10)] != [b.next_u64() for _ in range(10)]


def test_random_in_unit_interval():
    rng = XorShiftRNG(7)
    for _ in range(1000):
        value = rng.random()
        assert 0.0 <= value < 1.0


def test_random_is_roughly_uniform():
    rng = XorShiftRNG(7)
    mean = sum(rng.random() for _ in range(20_000)) / 20_000
    assert abs(mean - 0.5) < 0.02


def test_randint_bounds_inclusive():
    rng = XorShiftRNG(9)
    values = {rng.randint(3, 5) for _ in range(200)}
    assert values == {3, 4, 5}


def test_randint_single_value():
    rng = XorShiftRNG(9)
    assert rng.randint(4, 4) == 4


def test_randint_empty_range_raises():
    rng = XorShiftRNG(9)
    with pytest.raises(ValueError):
        rng.randint(5, 4)


def test_choice_and_empty_choice():
    rng = XorShiftRNG(1)
    assert rng.choice([10]) == 10
    with pytest.raises(ValueError):
        rng.choice([])


def test_chance_extremes():
    rng = XorShiftRNG(1)
    assert not any(rng.chance(0.0) for _ in range(100))
    assert all(rng.chance(1.0) for _ in range(100))


def test_weighted_choice_respects_zero_weight():
    rng = XorShiftRNG(5)
    picks = {rng.weighted_choice(("a", "b"), (1.0, 0.0)) for _ in range(100)}
    assert picks == {"a"}


def test_weighted_choice_distribution():
    rng = XorShiftRNG(5)
    counts = {"a": 0, "b": 0}
    for _ in range(10_000):
        counts[rng.weighted_choice(("a", "b"), (3.0, 1.0))] += 1
    ratio = counts["a"] / counts["b"]
    assert 2.5 < ratio < 3.6


def test_weighted_choice_validation():
    rng = XorShiftRNG(5)
    with pytest.raises(ValueError):
        rng.weighted_choice(("a",), (1.0, 2.0))
    with pytest.raises(ValueError):
        rng.weighted_choice(("a", "b"), (0.0, 0.0))


def _weight_vectors():
    rng = XorShiftRNG(31)
    vectors = [(1.0,), (0.0, 1.0), (1.0, 0.0), (0.0, 0.0, 2.5, 0.0), (3, 1, 0, 2)]
    for _ in range(40):
        size = rng.randint(1, 7)
        weights = [
            0.0 if rng.chance(0.3) else rng.random() * rng.choice((1e-3, 1.0, 50.0))
            for _ in range(size)
        ]
        if not any(weights):
            weights[rng.randint(0, size - 1)] = rng.random() + 1e-9
        vectors.append(tuple(weights))
    return vectors


@pytest.mark.parametrize("weights", _weight_vectors())
def test_table_choice_matches_weighted_choice_draw_for_draw(weights):
    items = tuple(f"item{i}" for i in range(len(weights)))
    table = WeightedTable(items, weights)
    twin_a, twin_b = XorShiftRNG(977), XorShiftRNG(977)
    for _ in range(500):
        assert twin_a.table_choice(table) == twin_b.weighted_choice(items, weights)
    assert twin_a.getstate() == twin_b.getstate()


def test_weighted_table_validation():
    with pytest.raises(ValueError):
        WeightedTable(("a",), (1.0, 2.0))
    with pytest.raises(ValueError):
        WeightedTable(("a", "b"), (0.0, 0.0))


def test_shuffle_is_permutation():
    rng = XorShiftRNG(11)
    items = list(range(50))
    shuffled = items.copy()
    rng.shuffle(shuffled)
    assert sorted(shuffled) == items
    assert shuffled != items  # astronomically unlikely to be identity


def test_state_roundtrip():
    rng = XorShiftRNG(77)
    rng.next_u64()
    state = rng.getstate()
    first = [rng.next_u64() for _ in range(5)]
    rng.setstate(state)
    assert [rng.next_u64() for _ in range(5)] == first


def test_setstate_rejects_invalid():
    rng = XorShiftRNG(77)
    with pytest.raises(ValueError):
        rng.setstate(0)


def test_derive_seed_is_stable_and_label_sensitive():
    assert derive_seed(1, "a", 2) == derive_seed(1, "a", 2)
    assert derive_seed(1, "a") != derive_seed(1, "b")
    assert derive_seed(1, "a") != derive_seed(2, "a")
    assert derive_seed(1) != 0


def test_stateless_hash_pure_and_sensitive():
    assert stateless_hash(1, 2, 3) == stateless_hash(1, 2, 3)
    assert stateless_hash(1, 2, 3) != stateless_hash(1, 2, 4)
    assert stateless_hash(1, 2, 3) != stateless_hash(2, 2, 3)
