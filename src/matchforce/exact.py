"""Exact set-cover style searches used by the invariant computations.

Two solvers live here: a minimum hitting set (smallest element set meeting
every input set) and a maximum independent family (largest subfamily with no
pairwise conflict).  Each rests on one depth-first feasibility test over
bitmasks, run on an explicit stack, so no search depth meets the recursion
limit and no function here calls itself.

- Hitting set: `_hit_search` asks whether a budget of k elements can hit
  every set, branching on the elements of a smallest unhit set and pruning
  where a greedy packing of pairwise disjoint sets exceeds the budget.  The
  optimum counts up from that packing bound, the natural lower bound of the
  minimax between hitting sets and disjoint packings, on the family reduced
  once; `_hit_feasible` masks and reduces a family for the witness rebuild.
- Independent set: `_independent_feasible` asks whether k items can be
  picked.  A greedy pick answers yes at once when it reaches k; otherwise
  the search branches on the lowest item and prunes with a greedy clique
  cover.  The optimum counts down from that cover bound.

Both witnesses are the lexicographically least optimal ones, rebuilt item
by item with the same feasibility tests, so repeated runs give identical
output.
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


def _reduce(sets: Iterable[int]) -> list[int]:
    """Distinct sets, smallest first; an empty set is a ValueError.

    Supersets stay: each sorts after its subset, the packing bound skips it
    whether or not it takes the subset, and it is hit wherever the subset is.
    """
    uniq = sorted(set(sets))
    uniq.sort(key=int.bit_count)  # stable, so equal sizes stay in value order
    if uniq[:1] == [0]:
        raise ValueError("hitting-set instance contains an empty set")
    return uniq


def _min_hit_size(sets: list[int]) -> int:
    """Optimum for a family already through _reduce, counting up from the packing bound."""
    k = _greedy_disjoint(sets)
    while not _hit_search(sets, k):
        k += 1
    return k


def _hit_feasible(sets: list[int], allowed: int, budget: int) -> bool:
    """True iff `sets` can be hit with ≤ budget elements drawn from `allowed`."""
    masked = []
    for s in sets:
        s &= allowed
        if not s:
            return False
        masked.append(s)
    return _hit_search(_reduce(masked), budget)


def _hit_search(node: list[int], left: int) -> bool:
    """True iff the reduced family `node` can be hit with ≤ left elements."""
    # open nodes: (sets left unhit, budget after one more pick, untried pivot elements)
    stack: list[tuple[list[int], int, int]] = []
    while True:
        if not node:
            return True
        if left > 0 and _greedy_disjoint(node) <= left:
            # every list stays smallest-first, so node[0] is a smallest set
            stack.append((node, left - 1, node[0]))
        while stack:
            parent, left, untried = stack[-1]
            if untried:
                b = untried & -untried
                stack[-1] = (parent, left, untried ^ b)
                node = [s for s in parent if not s & b]
                break
            stack.pop()
        else:
            return False


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
    k = _clique_cover_bound(avail, conflicts)
    while not _independent_feasible(conflicts, avail, k):
        k -= 1
    return k


def _independent_feasible(conflicts: Sequence[int], pool: int, target: int) -> bool:
    """True iff `pool` holds ≥ target pairwise non-conflicting items."""
    # a greedy pick (lowest item, drop its conflicts, repeat) often suffices
    rest, count = pool, 0
    while rest and count < target:
        b = rest & -rest
        rest &= ~conflicts[b.bit_length() - 1] & ~b
        count += 1
    if count >= target:
        return True
    stack = [(pool, target)]
    while stack:
        pool, target = stack.pop()
        if target <= 0:
            return True
        if pool.bit_count() < target or _clique_cover_bound(pool, conflicts) < target:
            continue
        b = pool & -pool
        v = b.bit_length() - 1
        stack.append((pool & ~b, target))
        stack.append((pool & ~conflicts[v] & ~b, target - 1))  # taking v is tried first
    return False


def max_independent_size(conflicts: Sequence[int]) -> int:
    """Optimum value of max_independent_indices without witness reconstruction."""
    return _max_independent_size(conflicts, (1 << len(conflicts)) - 1)


def max_independent_indices(
    conflicts: Sequence[int], pool: int | None = None
) -> tuple[int, tuple[int, ...]]:
    """Exact maximum independent subfamily of the items in `pool` (default 0..n-1).

    `conflicts[i]` is a bitmask of the items conflicting with item i (bit i
    itself must be clear); `pool` is a bitmask of the items to pick from.
    Returns (size, witness) with the witness the lexicographically least
    optimal index tuple.
    """
    n = len(conflicts)
    pool = (1 << n) - 1 if pool is None else pool
    k = _max_independent_size(conflicts, pool)

    witness: list[int] = []
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
