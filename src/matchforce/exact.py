"""Exact set-cover style searches used by the invariant computations.

Two solvers live here: a minimum hitting set (smallest element set meeting
every input set) and a maximum independent family (largest subfamily with no
pairwise conflict).  Each rests on one depth-first feasibility test over
bitmasks, run on an explicit stack, so no search depth meets the recursion
limit and no function here calls itself.

- Hitting set: `_hit_search` asks whether a budget of k elements can hit
  every set, branching on the elements of a smallest unhit set and pruning
  where a greedy packing of pairwise disjoint sets exceeds the budget; it
  settles budgets 1 and 2 by set intersection, without branching.  Each
  test stops once decided: a packing one set past the budget, an
  intersection at its first empty step.  The optimum counts up from the
  packing bound, the natural lower bound of the minimax between hitting
  sets and disjoint packings, on the family reduced once; `_hit_feasible`
  masks and reduces a family for the witness rebuild.
- Independent set: `_independent_feasible` picks k items, or None when no
  k fit.  A greedy pick answers at once when it reaches k; otherwise the
  search branches on the lowest item, taking it first, prunes with a greedy
  clique cover counted only up to the target, and takes the lowest item
  outright when one is left to pick.  The optimum counts down from the full
  cover bound.

Both witnesses are the lexicographically least optimal ones, so repeated
runs give identical output.  The independent-set witness is the first pick
found at the optimum, which the outright last pick leaves as it was.  The
hitting-set search only answers yes or no, and need not meet the least
hitting set first, so its witness is rebuilt element by element with
`_hit_feasible`, skipping elements that no unhit set holds.
"""

from __future__ import annotations

from functools import reduce
from operator import and_
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


def _packs_past(sets: list[int], budget: int) -> bool:
    """_greedy_disjoint(sets) > budget, for a budget ≥ 0, counted at most one set past it."""
    used = 0
    for s in sets:
        if not s & used:
            if not budget:
                return True
            used |= s
            budget -= 1
    return False


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
    masked = _reduce(masked)
    return not _packs_past(masked, budget) and _hit_search(masked, budget)


def _hit_search(node: list[int], left: int) -> bool:
    """True iff the reduced family `node` can be hit with ≤ left elements.

    Budgets 1 and 2 need no branching: one element hits every set iff the
    sets share one, two iff some b in the smallest set `node[0]` leaves the
    sets missing b a common element.  Larger budgets branch on `node[0]`,
    pruning children by packing; callers start at or above the root's bound.
    """
    # open nodes: (sets left unhit, budget after one more pick, untried pivot elements);
    # every list stays smallest-first, so node[0] is a smallest set
    stack: list[tuple[list[int], int, int]] = []
    while True:
        if not node:
            return True
        if left == 1:
            if reduce(and_, node):
                return True
        elif left == 2:
            pivots = node[0]
            while pivots:
                b = pivots & -pivots
                pivots ^= b
                common = -1  # what the sets missing b share, until it empties
                for s in node:
                    if not s & b:
                        common &= s
                        if not common:
                            break
                else:
                    return True
        elif left > 2:
            stack.append((node, left - 1, node[0]))
        while stack:
            parent, left, untried = stack[-1]
            if untried:
                b = untried & -untried
                stack[-1] = (parent, left, untried ^ b)
                node = [s for s in parent if not s & b]
                if left < 2 or not _packs_past(node, left):
                    break
            else:
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

    The witness rebuild skips an element no unhit set holds untested: the
    same sets with one element less would beat the optimum.
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
        if len(after) < len(remaining) and _hit_feasible(after, higher, budget - 1):
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


def _clique_cover_bound(avail: int, conflicts: Sequence[int], limit: int | None = None) -> int:
    """Greedy clique cover of the conflict graph; bounds any independent set.

    Given a `limit` ≥ 0, the count stops there: the result is min(cover, limit).
    """
    cliques: list[int] = []
    m = avail
    while m and len(cliques) != limit:
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


def _independent_feasible(conflicts: Sequence[int], pool: int, target: int) -> int | None:
    """A bitmask of `target` pairwise non-conflicting items of `pool`, or None if none exists.

    The search branches on the lowest item and tries taking it first, so its
    leaves come in lexicographic order of their sorted items; the greedy pick
    is its first leaf, and a prune cuts only subtrees that hold no solution.
    The pick returned is therefore the lexicographically least one; a node
    short of one item returns its first leaf, its lowest item, at once.
    """
    # a greedy pick (lowest item, drop its conflicts, repeat) often suffices
    rest, pick, count = pool, 0, 0
    while rest and count < target:
        b = rest & -rest
        rest &= ~conflicts[b.bit_length() - 1] & ~b
        pick |= b
        count += 1
    if count >= target:
        return pick
    stack = [(pool, target, 0)]
    while stack:
        pool, target, pick = stack.pop()
        # target ≥ 1 here: the greedy pick answers target ≤ 0; only target ≥ 2 pushes a child
        if target == 1 and pool:
            return pick | pool & -pool
        if pool.bit_count() < target or _clique_cover_bound(pool, conflicts, target) < target:
            continue
        b = pool & -pool
        v = b.bit_length() - 1
        stack.append((pool & ~b, target, pick))
        stack.append((pool & ~conflicts[v] & ~b, target - 1, pick | b))  # taking v is tried first
    return None


def _max_independent(conflicts: Sequence[int], pool: int) -> tuple[int, int]:
    """The optimum over `pool` and the least optimal pick, counting down from the cover bound."""
    k = _clique_cover_bound(pool, conflicts)
    while (pick := _independent_feasible(conflicts, pool, k)) is None:
        k -= 1
    return k, pick


def max_independent_size(conflicts: Sequence[int]) -> int:
    """Optimum value of max_independent_indices."""
    return _max_independent(conflicts, (1 << len(conflicts)) - 1)[0]


def max_independent_indices(conflicts: Sequence[int]) -> tuple[int, tuple[int, ...]]:
    """Exact maximum independent subfamily of the items 0..n-1.

    `conflicts[i]` is a bitmask of the items conflicting with item i (bit i
    itself must be clear).  Returns (size, witness) with the witness the
    lexicographically least optimal index tuple.
    """
    k, pick = _max_independent(conflicts, (1 << len(conflicts)) - 1)
    return k, tuple(v for v in range(pick.bit_length()) if pick >> v & 1)
