"""Hexagonal systems: lattice construction, invariants, recognizers."""

import random
from itertools import combinations

import pytest

from matchforce.errors import Disconnected, HasHole, LimitExceeded, NotATree, NotAValidCut
from matchforce.generators import (
    GLUE_PRESETS,
    enumerate_hex_systems,
    gen_named,
    gen_truncated_parallelogram,
    glue_preset,
)
from matchforce.graphs import (
    BLACK,
    DEFAULT_MATCHING_CAP,
    Matching,
    build_graph,
    edge_fixedness,
    enumerate_perfect_matchings,
)
from matchforce.hexsys import (
    _is_tree,
    alternating_hexagons,
    build_hex_system,
    clar_number,
    fries_numbers,
    inner_dual,
    is_all_kink_catahex,
    is_truncated_parallelogram,
    normal_hex_components,
    parallel_cuts,
    sachs_cut_check,
    transform_cell,
    tree_independent_domination,
)


def test_single_cell_is_a_hexagon():
    h = build_hex_system([(0, 0)])
    assert h.graph.n == 6 and h.graph.m == 6
    assert len(h.boundary_edges) == 6
    assert h.face_vertices[0] == tuple(range(6)) or len(set(h.face_vertices[0])) == 6


def test_boundary_edges_lie_in_exactly_one_cell():
    for n in range(1, 6):
        for h in enumerate_hex_systems(n):
            faces = [eid for fe in h.face_edges for eid in fe]
            assert h.boundary_edges == {eid for eid in faces if faces.count(eid) == 1}, h.cells


def test_triphenylene_counts():
    h = gen_named("triphenylene")
    assert h.n_cells == 4
    assert h.graph.n == 18 and h.graph.m == 21
    assert h.graph.color is not None  # bipartite, colors assigned


def test_ring_has_hole():
    with pytest.raises(HasHole):
        build_hex_system([(1, 0), (0, 1), (-1, 1), (-1, 0), (0, -1), (1, -1)])


def test_disconnected_cells_rejected():
    with pytest.raises(Disconnected):
        build_hex_system([(0, 0), (5, 5)])


def test_peaks_are_black():
    h = gen_truncated_parallelogram((3, 2))
    g = h.graph
    for v, key in enumerate(h.vertex_keys):
        x, y = key
        neighbors = [h.vertex_keys[w] for w, _ in g.adjacency[v]]
        if all(ny < y for _, ny in neighbors):  # local top corner
            assert g.color[v] == BLACK


def test_derived_graph_is_bipartite_and_colored():
    h = gen_truncated_parallelogram((4, 2, 1))
    g = h.graph
    assert g.color is not None
    for u, v in g.edges:
        assert g.color[u] != g.color[v]


# ----------------------------------------------------------------- invariants

def test_single_hexagon_clar_and_fries():
    h = build_hex_system([(0, 0)])
    value, (m, cells) = clar_number(h)
    assert value == 1 and cells == ((0, 0),)
    fr = fries_numbers(h)
    assert (fr.maximum, fr.minimum) == (1, 1)


def test_triphenylene_clar_and_fries():
    h = gen_named("triphenylene")
    value, _ = clar_number(h)
    assert value == 3
    fr = fries_numbers(h)
    assert fr.maximum == 4   # all-kink with four hexagons
    assert fr.minimum == 1


def test_h22_clar_equals_max_forcing():
    from matchforce.forcing import forcing_spectrum

    h = gen_truncated_parallelogram((2, 2))
    value, _ = clar_number(h)
    assert value == forcing_spectrum(h.graph).max == 2


def test_alternating_hexagons_flags():
    h = build_hex_system([(0, 0)])
    for m in enumerate_perfect_matchings(h.graph):
        assert alternating_hexagons(h, m) == (0,)


# ------------------------------------------------------------------- duals

def test_single_cell_dual():
    d = inner_dual(build_hex_system([(0, 0)]))
    assert d.n == 1 and d.m == 0
    assert _is_tree(d)


def test_triphenylene_dual_is_a_star():
    d = inner_dual(gen_named("triphenylene"))
    assert d.n == 4 and d.m == 3
    degrees = sorted(d.degree(v) for v in range(4))
    assert degrees == [1, 1, 1, 3]
    assert _is_tree(d)


def test_parallelogram_dual_contains_cycle():
    # the compact 2x2 rhombus is pericondensed: four ring cells plus one
    # diagonal contact, so the dual has 5 edges on 4 nodes
    d = inner_dual(gen_truncated_parallelogram((2, 2)))
    assert d.n == 4 and d.m == 5
    assert not _is_tree(d)


# -------------------------------------------------------------- recognizers

def test_all_kink_recognition():
    assert is_all_kink_catahex(gen_named("triphenylene"))
    assert not is_all_kink_catahex(gen_truncated_parallelogram((3,)))
    assert not is_all_kink_catahex(gen_truncated_parallelogram((2, 2)))


def test_truncated_parallelogram_recognition():
    ok, params = is_truncated_parallelogram(gen_truncated_parallelogram((5, 5, 3, 2)))
    assert ok and params == (5, 5, 3, 2)
    ok, params = is_truncated_parallelogram(build_hex_system([(0, 0)]))
    assert ok and params == (1,)
    ok, params = is_truncated_parallelogram(gen_named("triphenylene"))
    assert not ok and params is None


def test_recognition_is_symmetry_invariant():
    base = gen_truncated_parallelogram((4, 2, 1)).cells
    for sym in range(12):
        h = build_hex_system([transform_cell(c, sym) for c in base])
        ok, params = is_truncated_parallelogram(h)
        assert ok and params == (4, 2, 1)


def test_zigzag_chain_is_not_truncated_parallelogram():
    h = build_hex_system([(0, 0), (1, 0), (1, 1), (2, 1)])
    ok, _ = is_truncated_parallelogram(h)
    assert not ok


# ------------------------------------------------------ independent domination

def test_idom_single_node():
    g = build_graph(1, [])
    assert tree_independent_domination(g) == (1, (0,))


def test_idom_star_picks_center():
    d = inner_dual(gen_named("triphenylene"))
    value, witness = tree_independent_domination(d)
    assert value == 1
    (center,) = witness
    assert d.degree(center) == 3


def test_idom_rejects_non_tree():
    g = build_graph(3, [(0, 1), (1, 2), (0, 2)])
    with pytest.raises(NotATree):
        tree_independent_domination(g)


def brute_idom(g):
    best = g.n
    for mask in range(1 << g.n):
        picked = {v for v in range(g.n) if mask >> v & 1}
        if len(picked) >= best:
            continue
        if any(u in picked and v in picked for u, v in g.edges):
            continue
        dominated = set(picked)
        for u, v in g.edges:
            if u in picked:
                dominated.add(v)
            if v in picked:
                dominated.add(u)
        if len(dominated) == g.n:
            best = len(picked)
    return best


def test_idom_matches_brute_force_on_fixed_trees():
    trees = [
        [(0, 1)],
        [(0, 1), (1, 2), (2, 3)],
        [(0, 1), (0, 2), (0, 3), (3, 4), (4, 5)],
        [(0, 1), (1, 2), (1, 3), (3, 4), (3, 5), (5, 6)],
        [(0, 1), (0, 2), (2, 3), (2, 4), (4, 5), (5, 6), (6, 7)],
    ]
    for edges in trees:
        n = max(max(e) for e in edges) + 1
        g = build_graph(n, edges)
        value, witness = tree_independent_domination(g)
        assert value == brute_idom(g)
        wset = set(witness)
        assert len(wset) == value
        assert all(not (u in wset and v in wset) for u, v in g.edges)
        dominated = set(wset)
        for u, v in g.edges:
            if u in wset:
                dominated.add(v)
            if v in wset:
                dominated.add(u)
        assert dominated == set(range(n))


# -------------------------------------------------------------------- cuts

def test_single_hexagon_cuts():
    h = build_hex_system([(0, 0)])
    cuts = parallel_cuts(h)
    assert len(cuts) == 3 and all(len(c) == 2 for c in cuts)
    for cut in cuts:
        ok, value = sachs_cut_check(h, cut)
        assert ok and value == 1


def test_invalid_cut_rejected():
    h = build_hex_system([(0, 0)])
    with pytest.raises(NotAValidCut):
        sachs_cut_check(h, [0, 1])


def test_linear_chain_cuts_are_invariant():
    h = gen_truncated_parallelogram((3,))
    for cut in parallel_cuts(h):
        ok, value = sachs_cut_check(h, cut)
        assert ok and value >= 1


def test_triphenylene_cuts_are_invariant():
    h = gen_named("triphenylene")
    for cut in parallel_cuts(h):
        ok, _ = sachs_cut_check(h, cut)
        assert ok


# ------------------------------------------------------- normal components

def test_fixed_edge_instance_splits_into_two_parallelogram_components():
    # two 2-cell blocks meeting around a forced joint: both components
    # are truncated parallelograms and the whole has anti-forcing number 2
    h = build_hex_system([(-2, 1), (-2, 2), (-1, 1), (0, 0), (0, 1)])
    comps = normal_hex_components(h, edge_fixedness(h.graph))
    assert len(comps) == 2
    for comp in comps:
        ok, _ = is_truncated_parallelogram(comp)
        assert ok


def test_normal_system_has_single_component():
    h = gen_truncated_parallelogram((3, 2))
    comps = normal_hex_components(h, edge_fixedness(h.graph))
    assert len(comps) == 1 and comps[0].n_cells == h.n_cells


def _pattern_alternating_hexagons(h, m):
    """The per-edge pattern test the cached edge bitmasks replaced."""
    out = []
    mset = m.edge_set
    for ci, fe in enumerate(h.face_edges):
        pattern = [eid in mset for eid in fe]
        if sum(pattern) == 3 and all(pattern[i] != pattern[(i + 1) % 6] for i in range(6)):
            out.append(ci)
    return tuple(out)


def test_bitmask_alternating_hexagons_match_the_pattern_test():
    rng = random.Random(11)
    matchings = subsets = 0
    for n in range(1, 6):
        for h in enumerate_hex_systems(n):
            for m in enumerate_perfect_matchings(h.graph):
                assert alternating_hexagons(h, m) == _pattern_alternating_hexagons(h, m)
                matchings += 1
            for _ in range(10):
                m = Matching(e for e in range(h.graph.m) if rng.random() < 0.5)
                expected = _pattern_alternating_hexagons(h, m)
                assert alternating_hexagons(h, m) == expected
                subsets += bool(expected)
    # subsets with at least one alternating hexagon
    assert matchings > 1000 and subsets > 100


def test_alternating_hexagons_ignore_ids_outside_the_graph():
    h = gen_named("triphenylene")
    for m in enumerate_perfect_matchings(h.graph):
        stray = Matching(m.edge_ids + (-1, h.graph.m, 10**9))
        assert alternating_hexagons(h, stray) == alternating_hexagons(h, m)


# ------------------------------------------------------- resonant hexagons

def _hexagon(side):
    """The hexagon-shaped system with `side` cells along each edge."""
    k = side - 1
    return build_hex_system(
        (q, r) for q in range(-k, k + 1) for r in range(-k, k + 1) if abs(q + r) <= k
    )


def _listed_resonance(h, max_matchings=DEFAULT_MATCHING_CAP):
    """Every perfect matching and its alternating hexagons, by enumeration."""
    pms = enumerate_perfect_matchings(h.graph, max_matchings)
    return pms, [alternating_hexagons(h, m) for m in pms]


def _resonance_corpus():
    out = [h for n in range(1, 6) for h in enumerate_hex_systems(n)]
    out += [gen_truncated_parallelogram(p) for p in ((4, 4, 4), (5, 5, 5), (4,) * 4, (5,) * 4, (6,) * 5)]
    out += [glue_preset(k) for k in sorted(GLUE_PRESETS)]
    out.append(_hexagon(3))
    return out


def _brute_clar_and_fries(h):
    """Clar and Fries with their witnesses, by trying every hexagon subset."""
    pms = enumerate_perfect_matchings(h.graph)
    alts = [alternating_hexagons(h, m) for m in pms]
    clar = (-1, None)
    for m, alt in zip(pms, alts):
        for k in range(len(alt), clar[0], -1):
            # combinations come in lexicographic order, so the first is the least
            packing = next(
                (
                    s
                    for s in combinations(alt, k)
                    if not any(b in h.cell_adjacency[a] for a, b in combinations(s, 2))
                ),
                None,
            )
            if packing is not None:
                clar = (k, (m, tuple(h.cells[c] for c in packing)))
                break
    counts = [len(alt) for alt in alts]
    i, j = counts.index(max(counts)), counts.index(min(counts))
    witness = [(pms[x], tuple(h.cells[c] for c in alts[x])) for x in (i, j)]
    return clar, (counts[i], counts[j], *witness)


def test_clar_and_fries_match_a_brute_force_reference():
    checked = 0
    for h in _resonance_corpus():
        if not enumerate_perfect_matchings(h.graph):
            continue
        clar, fries = _brute_clar_and_fries(h)
        assert clar_number(h) == clar, h.cells
        assert tuple(fries_numbers(h)) == fries, h.cells
        checked += 1
    assert checked > 100


def test_the_resonance_search_raises_just_past_the_pm_count():
    for h in (gen_named("triphenylene"), glue_preset(4), _hexagon(3)):
        k = len(enumerate_perfect_matchings(h.graph))
        for search in (_listed_resonance, clar_number, fries_numbers):
            with pytest.raises(LimitExceeded):
                search(h, k - 1)
            assert search(h, k) == search(h)
