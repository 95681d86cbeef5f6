"""Exact solver checks against brute-force oracles and the recursive solvers."""

import ast
import random
import sys
from itertools import combinations

import pytest
from hypothesis import given, settings, strategies as st

from matchforce import exact
from matchforce.antiforcing import antiforcing_number, max_compatible_alternating_set
from matchforce.forcing import forcing_number, max_disjoint_alternating_cycles
from matchforce.generators import enumerate_hex_systems, gen_truncated_parallelogram
from matchforce.graphs import (
    Matching,
    alternating_cycle_masks,
    build_graph,
    edge_mask,
    enumerate_perfect_matchings,
)
from matchforce.hexsys import _resonant_mask
from test_graphs import _cycle_corpus
from test_hexsys import _hexagon

# the truncated parallelograms of the kekule benchmark workload
KEKULE_TPS = ((6,) * 6, (8,) * 6, (12, 10, 8, 6, 4, 2), (5,) * 8, (9, 7, 5, 3, 1))


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
    # the search meets {2, 4} first, so the least witness must be rebuilt
    assert exact.min_hitting_set([[2, 5], [4, 5], [1, 2, 4]]) == (2, (1, 5))


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


@st.composite
def families_with_repeats(draw):
    """Sets over 0..7 plus copies and proper or improper supersets of some of them."""
    small_sets = st.frozensets(st.integers(0, 7), min_size=1, max_size=3)
    base = draw(st.lists(small_sets, min_size=1, max_size=6))
    sets = list(base)
    grow = st.tuples(st.integers(0, 5), st.frozensets(st.integers(0, 9), max_size=3))
    for i, more in draw(st.lists(grow, min_size=1, max_size=5)):
        sets.append(base[i % len(base)] | more)  # a copy when `more` adds nothing
    return draw(st.permutations(sets))


@settings(max_examples=200, deadline=None)
@given(families_with_repeats())
def test_hitting_set_with_copies_and_supersets_matches_brute_force(sets):
    # brute_min_hitting tries combinations in lexicographic order, so its
    # witness is the lexicographically least optimal one
    expected = brute_min_hitting(sets)
    assert exact.min_hitting_set(sets) == expected
    assert exact.min_hitting_size(sum(1 << e for e in s) for s in sets) == expected[0]


# ------------------------------------------- the recursive solvers, as reference
# The hitting-set and independent-set searches as they were before the
# explicit-stack feasibility tests: a superset filter, a greedy upper bound and
# recursive branch-and-bound.  The witness loop of min_hitting_set is
# unchanged, so running it over these gives the earlier public results;
# max_independent_indices now takes its witness from the search that finds its
# value, and its earlier item-by-item rebuild is kept below as the reference.

def _ref_greedy_hitting(sets):
    remaining = sets
    size = 0
    while remaining:
        counts = {}
        for s in remaining:
            m = s
            while m:
                b = m & -m
                counts[b] = counts.get(b, 0) + 1
                m ^= b
        bit = max(counts, key=lambda b: (counts[b], -b))
        remaining = [s for s in remaining if not s & bit]
        size += 1
    return size


def _ref_reduce(sets):
    uniq = sorted(set(sets), key=lambda s: (s.bit_count(), s))
    if uniq[:1] == [0]:
        raise ValueError("hitting-set instance contains an empty set")
    kept = []
    for s in uniq:
        if not any(k & s == k for k in kept):
            kept.append(s)
    return kept


def _ref_min_hit_size(sets):
    best = _ref_greedy_hitting(sets)

    def descend(remaining, size):
        nonlocal best
        if not remaining:
            best = min(best, size)
            return
        if size + exact._greedy_disjoint(remaining) >= best:
            return
        pivot = min(remaining, key=lambda s: (s.bit_count(), s))
        m = pivot
        while m:
            b = m & -m
            m ^= b
            descend([s for s in remaining if not s & b], size + 1)

    descend(sets, 0)
    return best


def _ref_hit_feasible(sets, allowed, budget):
    masked = []
    for s in sets:
        s &= allowed
        if not s:
            return False
        masked.append(s)
    masked = _ref_reduce(masked)

    def descend(remaining, left):
        if not remaining:
            return True
        if left <= 0 or exact._greedy_disjoint(remaining) > left:
            return False
        pivot = min(remaining, key=lambda s: (s.bit_count(), s))
        m = pivot
        while m:
            b = m & -m
            m ^= b
            if descend([s for s in remaining if not s & b], left - 1):
                return True
        return False

    return descend(masked, budget)


def _ref_max_independent_size(conflicts, avail):
    best = 0

    def descend(count, pool):
        nonlocal best
        if pool == 0:
            best = max(best, count)
            return
        if count + exact._clique_cover_bound(pool, conflicts) <= best:
            return
        b = pool & -pool
        v = b.bit_length() - 1
        descend(count + 1, pool & ~conflicts[v] & ~b)
        descend(count, pool & ~b)

    descend(0, avail)
    return best


def _ref_independent_feasible(conflicts, pool, target):
    if target <= 0:
        return True
    if pool.bit_count() < target:
        return False
    if exact._clique_cover_bound(pool, conflicts) < target:
        return False
    b = pool & -pool
    v = b.bit_length() - 1
    if _ref_independent_feasible(conflicts, pool & ~conflicts[v] & ~b, target - 1):
        return True
    return _ref_independent_feasible(conflicts, pool & ~b, target)


def _ref_max_independent_indices(conflicts, pool):
    """The value, then the lexicographically least witness rebuilt item by item."""
    k = _ref_max_independent_size(conflicts, pool)
    witness = []
    need = k
    for v in range(len(conflicts)):
        if need == 0:
            break
        b = 1 << v
        if not pool & b:
            continue
        rest = pool & ~conflicts[v] & ~((1 << (v + 1)) - 1)
        if _ref_independent_feasible(conflicts, rest, need - 1):
            witness.append(v)
            pool = rest
            need -= 1
    assert need == 0
    return k, tuple(witness)


def _ref_max_independent(conflicts, pool):
    k, witness = _ref_max_independent_indices(conflicts, pool)
    return k, sum(1 << v for v in witness)


REFERENCE = {
    "_reduce": _ref_reduce,
    "_min_hit_size": _ref_min_hit_size,
    "_hit_feasible": _ref_hit_feasible,
    "_max_independent": _ref_max_independent,
}


def _bits(mask):
    return [i for i in range(mask.bit_length()) if mask >> i & 1]


def _solve_all(families):
    out = []
    for kind, family in families:
        if kind == "hit":
            out.append((exact.min_hitting_size(family), exact.min_hitting_set(map(_bits, family))))
        else:
            out.append((exact.max_independent_size(family), exact.max_independent_indices(family)))
    return out


def test_feasibility_searches_match_the_recursive_solvers(monkeypatch):
    families = []
    for g, m in _cycle_corpus():
        masks = alternating_cycle_masks(g, m)
        in_m = edge_mask(m.edge_ids)
        families.append(("hit", [c & in_m for c in masks]))  # f
        families.append(("hit", [c & ~in_m for c in masks]))  # af
        families.append(("independent", exact.overlap_conflicts(masks, in_m)))  # disjoint
        families.append(("independent", exact.overlap_conflicts(masks, ~in_m)))  # compatible
    with monkeypatch.context() as patch:
        for name, fn in REFERENCE.items():
            patch.setattr(exact, name, fn)
        assert exact._reduce([0b11, 0b1, 0b1]) == [0b1]  # the reference drops supersets
        expected = _solve_all(families)
    assert exact._reduce([0b11, 0b1, 0b1]) == [0b1, 0b11]
    got = _solve_all(families)
    assert got == expected
    assert len(families) > 7_000
    # the corpus reaches past the trivial optima on both sides
    assert max(size for size, _ in got) >= 4


def _rr_shaped_families(count, seed):
    """40–70 sets of 3–9 elements over 20–30, the shape of the af instances of the
    benchmark's random regular graphs."""
    rng = random.Random(seed)
    out = []
    for _ in range(count):
        n = rng.randint(20, 30)
        sets = [rng.sample(range(n), rng.randint(3, 9)) for _ in range(rng.randint(40, 70))]
        out.append([edge_mask(s) for s in sets])
    return out


def test_rr_shaped_families_match_the_recursive_solvers(monkeypatch):
    families = []
    budgets, gaps = set(), set()
    for sets in _rr_shaped_families(40, seed=29):
        families.append(("hit", sets))
        families.append(("independent", exact.overlap_conflicts(sets, -1)))  # disjoint packings
    with monkeypatch.context() as patch:
        for name, fn in REFERENCE.items():
            patch.setattr(exact, name, fn)
        expected = _solve_all(families)
    assert _solve_all(families) == expected
    for (kind, sets), (size, _) in zip(families, expected):
        if kind == "hit":
            bound = exact._greedy_disjoint(exact._reduce(sets))
            budgets.update(range(bound, size + 1))  # every budget the deepening asks
            gaps.add(size - bound)
    assert set(range(3, 10)) <= budgets and {1, 2} <= gaps


def test_stopped_counts_agree_with_the_full_ones():
    rng = random.Random(43)
    families = _rr_shaped_families(20, seed=43)
    for _ in range(40):
        families.append([edge_mask(rng.sample(range(8), rng.randint(1, 4))) for _ in range(6)])
    for sets in families:
        for order in (sets, exact._reduce(sets)):
            full = exact._greedy_disjoint(order)
            for k in range(full + 2):
                assert exact._packs_past(order, k) == (full > k), (order, k)
        conflicts = exact.overlap_conflicts(sets, -1)
        for pool in ((1 << len(conflicts)) - 1, rng.getrandbits(len(conflicts))):
            cover = exact._clique_cover_bound(pool, conflicts)
            for limit in range(cover + 2):
                assert exact._clique_cover_bound(pool, conflicts, limit) == min(cover, limit)


def test_hit_feasible_fails_where_allowed_empties_a_set():
    # min_hitting_set never asks this: each set it leaves unhit keeps an allowed element
    assert not exact._hit_feasible([0b011, 0b100], 0b011, 5)
    assert exact._hit_feasible([0b011, 0b100], 0b110, 2)
    assert not exact._hit_feasible([0b011, 0b100], 0b110, 1)


def _independent_families():
    """(conflicts, pool) pairs: the cycle corpus's disjoint and compatible
    families over all their items, then the cell adjacency of some hexagonal
    systems with each resonant mask, and 0, as the pool."""
    out = []
    for g, m in _cycle_corpus():
        masks = alternating_cycle_masks(g, m)
        in_m = edge_mask(m.edge_ids)
        for within in (in_m, ~in_m):
            out.append((exact.overlap_conflicts(masks, within), (1 << len(masks)) - 1))
    systems = [h for n in range(1, 6) for h in enumerate_hex_systems(n)]
    systems += [gen_truncated_parallelogram(p) for p in KEKULE_TPS]
    systems.append(_hexagon(3))
    for h in systems:
        masks = {_resonant_mask(h, m) for m in enumerate_perfect_matchings(h.graph)}
        out += [(h.cell_conflicts, mask) for mask in sorted({0, *masks})]
    return out


def test_first_pick_at_the_optimum_is_the_rebuilt_witness():
    families = _independent_families()
    sizes = set()
    for conflicts, pool in families:
        expected = _ref_max_independent(conflicts, pool)
        assert exact._max_independent(conflicts, pool) == expected, (conflicts, pool)
        sizes.add(expected[0])
    assert len(families) > 19_000
    assert {0, 1, 2, 3, 4} <= sizes


def _disjoint_squares(k):
    """k disjoint 4-cycles 4i..4i+3, each matched by (4i, 4i+1) and (4i+2, 4i+3)."""
    edges = []
    for i in range(k):
        a = 4 * i
        edges += [(a, a + 1), (a + 2, a + 3), (a + 1, a + 2), (a, a + 3)]
    return build_graph(4 * k, edges), Matching(eid for i in range(k) for eid in (4 * i, 4 * i + 1))


def test_deep_optima_need_no_recursion():
    g, m = _disjoint_squares(150)
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(120)
    try:
        assert forcing_number(g, m)[0] == 150
        assert antiforcing_number(g, m)[0] == 150
        assert max_compatible_alternating_set(g, m)[0] == 150
        assert max_disjoint_alternating_cycles(g, m)[0] == 150
        assert exact.min_hitting_set([[i] for i in range(150)])[0] == 150
        assert exact.max_independent_indices([0] * 150)[0] == 150
    finally:
        sys.setrecursionlimit(limit)


def test_greedy_pick_settles_feasible_independent_sets(monkeypatch):
    calls = []
    cover = exact._clique_cover_bound

    def counted(avail, conflicts):
        calls.append(avail)
        return cover(avail, conflicts)

    monkeypatch.setattr(exact, "_clique_cover_bound", counted)
    assert exact.max_independent_indices([0] * 150) == (150, tuple(range(150)))
    # the starting bound only: the value and every witness step end in a greedy pick
    assert len(calls) == 1


def test_deepening_reduces_the_family_once(monkeypatch):
    calls = []
    reduce = exact._reduce

    def counted(sets):
        calls.append(1)
        return reduce(sets)

    monkeypatch.setattr(exact, "_reduce", counted)
    # the Fano plane's lines pairwise meet: packing bound 1, optimum 3
    lines = [(0, 1, 2), (0, 3, 4), (0, 5, 6), (1, 3, 5), (1, 4, 6), (2, 3, 6), (2, 4, 5)]
    assert brute_min_hitting([set(line) for line in lines])[0] == 3
    assert exact.min_hitting_size(edge_mask(line) for line in lines) == 3
    assert len(calls) == 1


def test_hit_search_decides_every_budget():
    # budgets 1 and 2 are decided without branching, so each k from 0 to one
    # past the optimum is checked in both directions; the optimum is brute
    # force on random families and the recursive solver's on the corpus
    rng = random.Random(3)
    cases = []
    for _ in range(300):
        n = rng.randint(1, 9)
        sets = [
            set(rng.sample(range(n), rng.randint(1, min(4, n)))) for _ in range(rng.randint(1, 8))
        ]
        cases.append(([sum(1 << e for e in s) for s in sets], brute_min_hitting(sets)[0]))
    corpus = set()
    for g, m in _cycle_corpus():
        masks = alternating_cycle_masks(g, m)
        in_m = edge_mask(m.edge_ids)
        for within in (in_m, ~in_m):  # the f and the af family
            corpus.add(tuple(exact._reduce([c & within for c in masks])))
    cases += [(list(fam), _ref_min_hit_size(list(fam))) for fam in corpus]
    optima = set()
    for family, opt in cases:
        family = exact._reduce(family)
        for k in range(opt + 2):
            assert exact._hit_search(family, k) == (k >= opt), (family, k, opt)
        optima.add(opt)
    assert {0, 1, 2, 3, 4, 5} <= optima


def _least_pick(conflicts, pool, target):
    """The lexicographically least `target` pairwise non-conflicting items of pool, or None."""
    for combo in combinations(_bits(pool), target):
        if all(not conflicts[i] >> j & 1 for i, j in combinations(combo, 2)):
            return sum(1 << i for i in combo)
    return None


def _ref_least_pick(conflicts, pool, target):
    """_least_pick by the recursive feasibility test, item by item."""
    if not _ref_independent_feasible(conflicts, pool, target):
        return None
    pick = 0
    for v in _bits(pool):
        if target == 0:
            break
        if not pool >> v & 1:  # dropped by an earlier pick
            continue
        rest = pool & ~conflicts[v] & ~((1 << (v + 1)) - 1)
        if _ref_independent_feasible(conflicts, rest, target - 1):
            pick |= 1 << v
            pool = rest
            target -= 1
    return pick


def test_independent_feasible_gives_the_least_pick_at_every_target():
    # a node short of one item returns its lowest item; each target from 0 to
    # one past the optimum is checked in both directions, against brute force
    # on random families and the recursive test on the corpus
    rng = random.Random(41)
    cases = []
    for _ in range(300):
        n = rng.randint(1, 10)
        conflicts = [0] * n
        for i, j in combinations(range(n), 2):
            if rng.random() < 0.4:
                conflicts[i] |= 1 << j
                conflicts[j] |= 1 << i
        pool = rng.getrandbits(n) | rng.getrandbits(n)
        cases.append((conflicts, pool, _least_pick))
    corpus = set()
    for g, m in _cycle_corpus():
        masks = alternating_cycle_masks(g, m)
        in_m = edge_mask(m.edge_ids)
        for within in (in_m, ~in_m):  # the disjoint and the compatible family
            corpus.add(tuple(exact.overlap_conflicts(masks, within)))
    cases += [(list(c), (1 << len(c)) - 1, _ref_least_pick) for c in corpus]
    optima = set()
    for conflicts, pool, least in cases:
        opt = _ref_max_independent_size(conflicts, pool)
        for target in range(opt + 2):
            expected = least(conflicts, pool, target)
            assert (expected is None) == (target > opt)
            got = exact._independent_feasible(conflicts, pool, target)
            assert got == expected, (conflicts, pool, target)
        optima.add(opt)
    assert {0, 1, 2, 3, 4} <= optima


def test_witness_rebuild_tests_no_element_outside_the_unhit_sets(monkeypatch):
    calls = []
    feasible = exact._hit_feasible

    def counted(sets, allowed, budget):
        calls.append(budget)
        return feasible(sets, allowed, budget)

    monkeypatch.setattr(exact, "_hit_feasible", counted)
    # once 0 is taken, 1 and 2 lie in no unhit set and cannot finish {3, 4}
    assert exact.min_hitting_set([[0, 1], [0, 2], [3, 4]]) == (2, (0, 3))
    assert calls == [1, 0]


def test_solvers_hold_no_recursion():
    # a nested function or a call cycle among exact's functions would bring
    # back a search depth bounded by the interpreter's recursion limit
    with open(exact.__file__, encoding="utf-8") as f:
        tree = ast.parse(f.read())
    functions = {node.name: node for node in tree.body if isinstance(node, ast.FunctionDef)}
    calls = {}
    for name, node in functions.items():
        nested = [
            n.name
            for n in ast.walk(node)
            if n is not node and isinstance(n, (ast.FunctionDef, ast.AsyncFunctionDef))
        ]
        assert not nested, (name, nested)
        calls[name] = {
            n.func.id
            for n in ast.walk(node)
            if isinstance(n, ast.Call) and isinstance(n.func, ast.Name) and n.func.id in functions
        }
    assert {"_hit_feasible", "_independent_feasible"} <= calls.keys()
    for name in functions:
        reached, frontier = set(), [name]
        while frontier:
            for callee in calls[frontier.pop()]:
                if callee not in reached:
                    reached.add(callee)
                    frontier.append(callee)
        assert name not in reached, name
