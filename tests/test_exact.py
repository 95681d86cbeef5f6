"""Exact solver checks against brute-force oracles."""

import random
from itertools import combinations

import pytest

from matchforce import exact


def brute_min_hitting(sets):
    elements = sorted(set().union(*sets))
    for k in range(len(elements) + 1):
        for combo in combinations(elements, k):
            chosen = set(combo)
            if all(chosen & s for s in sets):
                return k, combo
    raise AssertionError("unreachable")


def brute_max_independent(conflicts):
    n = len(conflicts)
    best = 0
    for mask in range(1 << n):
        picked = [i for i in range(n) if mask >> i & 1]
        if len(picked) <= best:
            continue
        if all(not conflicts[i] >> j & 1 for i in picked for j in picked):
            best = len(picked)
    return best


def test_hitting_set_trivial():
    assert exact.min_hitting_set([]) == (0, ())
    assert exact.min_hitting_set([[3]]) == (1, (3,))
    assert exact.min_hitting_set([[2, 5], [5, 9]]) == (1, (5,))


def test_hitting_set_rejects_empty_member():
    with pytest.raises(ValueError):
        exact.min_hitting_set([[1, 2], []])
    with pytest.raises(ValueError):
        exact.min_hitting_size([0b110, 0])


def test_hitting_set_matches_brute_force():
    rng = random.Random(7)
    for trial in range(60):
        n_elems = rng.randint(3, 9)
        n_sets = rng.randint(1, 8)
        sets = [
            frozenset(rng.sample(range(n_elems), rng.randint(1, min(4, n_elems))))
            for _ in range(n_sets)
        ]
        size, witness = exact.min_hitting_set(sets)
        brute_size, _ = brute_min_hitting(sets)
        assert size == brute_size, (sets, size, brute_size)
        assert len(witness) == size
        assert all(set(witness) & s for s in sets)
        assert exact.min_hitting_size(sum(1 << e for e in s) for s in sets) == size


def test_hitting_set_witness_is_lex_least():
    rng = random.Random(13)
    for trial in range(40):
        n_elems = rng.randint(3, 7)
        sets = [
            frozenset(rng.sample(range(n_elems), rng.randint(1, 3)))
            for _ in range(rng.randint(1, 6))
        ]
        size, witness = exact.min_hitting_set(sets)
        optimal = [
            combo
            for combo in combinations(sorted(set().union(*sets)), size)
            if all(set(combo) & s for s in sets)
        ]
        assert witness == min(optimal)


def test_max_independent_trivial():
    assert exact.max_independent_indices([]) == (0, ())
    assert exact.max_independent_indices([0, 0, 0]) == (3, (0, 1, 2))
    # a triangle of conflicts leaves a single pick
    assert exact.max_independent_indices([0b110, 0b101, 0b011]) == (1, (0,))


def test_max_independent_matches_brute_force():
    rng = random.Random(29)
    for trial in range(60):
        n = rng.randint(1, 10)
        conflicts = [0] * n
        for i in range(n):
            for j in range(i + 1, n):
                if rng.random() < 0.4:
                    conflicts[i] |= 1 << j
                    conflicts[j] |= 1 << i
        size, witness = exact.max_independent_indices(conflicts)
        assert size == brute_max_independent(conflicts)
        assert exact.max_independent_size(conflicts) == size
        assert len(witness) == size
        for i in witness:
            for j in witness:
                assert i == j or not conflicts[i] >> j & 1
