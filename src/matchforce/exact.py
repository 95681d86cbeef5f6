"""Exact set-cover style searches used by the invariant computations.

Two solvers live here: a minimum hitting set (smallest element set meeting
every input set) and a maximum independent family (largest subfamily with no
pairwise conflict).  Both are branch-and-bound over bitmask-encoded
instances, both are exact, and both return the lexicographically least
optimal witness so repeated runs produce identical output.
"""

from __future__ import annotations

from typing import Iterable, Sequence


def _greedy_disjoint(sets: list[int]) -> int:
    """Size of a greedily built pairwise-disjoint subfamily (lower bound)."""
    used = 0
    count = 0
    for s in sets:
        if not s & used:
            used |= s
            count += 1
    return count


def _greedy_hitting(sets: list[int]) -> int:
    """Size of a greedy hitting set (upper bound)."""
    remaining = sets
    size = 0
    while remaining:
        counts: dict[int, int] = {}
        for s in remaining:
            m = s
            while m:
                b = m & -m
                counts[b] = counts.get(b, 0) + 1
                m ^= b
        # most frequently hitting element, lowest bit on ties
        bit = max(counts, key=lambda b: (counts[b], -b))
        remaining = [s for s in remaining if not s & bit]
        size += 1
    return size


def _reduce(sets: Iterable[int]) -> list[int]:
    """Drop duplicates and supersets (a hit on a subset hits them); an empty set is a ValueError."""
    uniq = sorted(set(sets), key=lambda s: (s.bit_count(), s))
    if uniq[:1] == [0]:
        raise ValueError("hitting-set instance contains an empty set")
    kept: list[int] = []
    for s in uniq:
        if not any(k & s == k for k in kept):
            kept.append(s)
    return kept


def _min_hit_size(sets: list[int]) -> int:
    best = _greedy_hitting(sets)

    def descend(remaining: list[int], size: int) -> None:
        nonlocal best
        if not remaining:
            best = min(best, size)
            return
        if size + _greedy_disjoint(remaining) >= best:
            return
        pivot = min(remaining, key=lambda s: (s.bit_count(), s))
        m = pivot
        while m:
            b = m & -m
            m ^= b
            descend([s for s in remaining if not s & b], size + 1)

    descend(sets, 0)
    del descend  # it refers to itself; unbinding it frees it without the collector
    return best


def _hit_feasible(sets: list[int], allowed: int, budget: int) -> bool:
    """True iff `sets` can be hit with ≤ budget elements drawn from `allowed`."""
    masked = []
    for s in sets:
        s &= allowed
        if not s:
            return False
        masked.append(s)
    masked = _reduce(masked)

    def descend(remaining: list[int], left: int) -> bool:
        if not remaining:
            return True
        if left <= 0 or _greedy_disjoint(remaining) > left:
            return False
        pivot = min(remaining, key=lambda s: (s.bit_count(), s))
        m = pivot
        while m:
            b = m & -m
            m ^= b
            if descend([s for s in remaining if not s & b], left - 1):
                return True
        return False

    feasible = descend(masked, budget)
    del descend  # as in _min_hit_size
    return feasible


def min_hitting_size(masks: Iterable[int]) -> int:
    """Optimum value of min_hitting_set, for sets given as bitmasks, without a witness."""
    return _min_hit_size(_reduce(masks))


def min_hitting_set(sets: Iterable[Iterable[int]]) -> tuple[int, tuple[int, ...]]:
    """Exact minimum hitting set over integer-labelled sets.

    Returns (size, witness) where the witness is the lexicographically least
    optimal hitting set as a sorted tuple.  Raises ValueError on an empty
    member set, which no element could ever hit.
    """
    family = [frozenset(s) for s in sets]
    elements = sorted(set().union(*family))
    bit_of = {e: 1 << i for i, e in enumerate(elements)}
    masks = _reduce(sum(bit_of[e] for e in s) for s in family)
    k = _min_hit_size(masks)

    # Rebuild the witness greedily: an element enters iff the rest can still
    # be finished within budget using only larger elements.
    witness: list[int] = []
    remaining = masks
    budget = k
    for idx, e in enumerate(elements):
        if budget == 0:
            break
        higher = ~((1 << (idx + 1)) - 1)
        after = [s for s in remaining if not s & (1 << idx)]
        if _hit_feasible(after, higher, budget - 1):
            witness.append(e)
            remaining = after
            budget -= 1
    assert not remaining and budget == 0
    return k, tuple(witness)


def overlap_conflicts(masks: Iterable[int], within: int) -> list[int]:
    """Conflict bitmasks for max_independent_*: items whose masks meet within `within`."""
    masks = [mask & within for mask in masks]
    conflicts = [0] * len(masks)
    for i, a in enumerate(masks):
        for j in range(i + 1, len(masks)):
            if a & masks[j]:
                conflicts[i] |= 1 << j
                conflicts[j] |= 1 << i
    return conflicts


def _clique_cover_bound(avail: int, conflicts: Sequence[int]) -> int:
    """Greedy clique cover of the conflict graph; bounds any independent set."""
    cliques: list[int] = []
    m = avail
    while m:
        b = m & -m
        v = b.bit_length() - 1
        m ^= b
        for i, c in enumerate(cliques):
            if c & ~conflicts[v] == 0:  # v conflicts with every member
                cliques[i] = c | b
                break
        else:
            cliques.append(b)
    return len(cliques)


def _max_independent_size(conflicts: Sequence[int], avail: int) -> int:
    best = 0

    def descend(count: int, pool: int) -> None:
        nonlocal best
        if pool == 0:
            best = max(best, count)
            return
        if count + _clique_cover_bound(pool, conflicts) <= best:
            return
        b = pool & -pool
        v = b.bit_length() - 1
        descend(count + 1, pool & ~conflicts[v] & ~b)
        descend(count, pool & ~b)

    descend(0, avail)
    del descend  # as in _min_hit_size
    return best


def _independent_feasible(conflicts: Sequence[int], pool: int, target: int) -> bool:
    if target <= 0:
        return True
    if pool.bit_count() < target:
        return False
    if _clique_cover_bound(pool, conflicts) < target:
        return False
    b = pool & -pool
    v = b.bit_length() - 1
    if _independent_feasible(conflicts, pool & ~conflicts[v] & ~b, target - 1):
        return True
    return _independent_feasible(conflicts, pool & ~b, target)


def max_independent_size(conflicts: Sequence[int]) -> int:
    """Optimum value of max_independent_indices without witness reconstruction."""
    return _max_independent_size(conflicts, (1 << len(conflicts)) - 1)


def max_independent_indices(conflicts: Sequence[int]) -> tuple[int, tuple[int, ...]]:
    """Exact maximum independent subfamily of items 0..n-1.

    `conflicts[i]` is a bitmask of the items conflicting with item i (bit i
    itself must be clear).  Returns (size, witness) with the witness the
    lexicographically least optimal index tuple.
    """
    n = len(conflicts)
    full = (1 << n) - 1
    k = _max_independent_size(conflicts, full)

    witness: list[int] = []
    pool = full
    need = k
    for v in range(n):
        if need == 0:
            break
        b = 1 << v
        if not pool & b:
            continue
        rest = pool & ~conflicts[v] & ~((1 << (v + 1)) - 1)
        if _independent_feasible(conflicts, rest, need - 1):
            witness.append(v)
            pool = rest
            need -= 1
    assert need == 0
    return k, tuple(witness)
