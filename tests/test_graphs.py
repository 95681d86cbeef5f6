"""Graph core: construction, matchings, alternating cycles, contraction."""

import gc
import random
import time
from itertools import combinations, islice
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

from matchforce.errors import (
    BadColoring,
    DuplicateEdge,
    LimitExceeded,
    NoPerfectMatching,
    NotBipartite,
    NotPerfect,
    SelfLoop,
)
from matchforce.generators import (
    enumerate_hex_systems,
    gen_named,
    gen_truncated_parallelogram,
    glue_preset,
)
from matchforce.hexsys import build_hex_system
from matchforce import graphs
from matchforce.antiforcing import anti_forcing_edges, antiforcing_number
from matchforce.forcing import compatible_cycles, forcing_number
from matchforce.graphs import (
    _canonical_rotation,
    _iter_perfect_matchings,
    FIXED_DOUBLE,
    FIXED_SINGLE,
    FREE,
    AltCycle,
    DirectedCycle,
    Graph,
    Matching,
    all_alternating_cycle_masks,
    alternating_cycle_masks,
    build_graph,
    directed_cycle_masks,
    edge_mask,
    count_perfect_matchings,
    edge_fixedness,
    enumerate_alternating_cycles,
    enumerate_directed_cycles,
    enumerate_perfect_matchings,
    has_unique_perfect_matching,
    matching_partner,
    normal_components,
    orient_and_contract,
)


def c6():
    return gen_named("C6")


def permanent_count(g):
    """Independent matching count for colored graphs via the biadjacency permanent."""
    assert g.color is not None
    whites = [v for v in range(g.n) if g.color[v] == 0]
    blacks = [v for v in range(g.n) if g.color[v] == 1]
    if len(whites) != len(blacks):
        return 0
    b_index = {b: i for i, b in enumerate(blacks)}
    rows = []
    for w in whites:
        mask = 0
        for x, _ in g.adjacency[w]:
            mask |= 1 << b_index[x]
        rows.append(mask)

    from functools import lru_cache

    @lru_cache(maxsize=None)
    def count(i, used):
        if i == len(rows):
            return 1
        total = 0
        avail = rows[i] & ~used
        while avail:
            bit = avail & -avail
            avail ^= bit
            total += count(i + 1, used | bit)
        return total

    return count(0, 0)


# ------------------------------------------------------------ construction

def test_build_graph_rejects_self_loop():
    with pytest.raises(SelfLoop):
        build_graph(3, [(0, 0)])


def test_build_graph_rejects_duplicate_edge():
    with pytest.raises(DuplicateEdge):
        build_graph(3, [(0, 1), (1, 0)])


def test_build_graph_rejects_out_of_range():
    with pytest.raises(ValueError):
        build_graph(2, [(0, 5)])


def test_build_graph_rejects_improper_coloring():
    with pytest.raises(BadColoring):
        build_graph(2, [(0, 1)], color=[0, 0])
    with pytest.raises(BadColoring):
        build_graph(2, [(0, 1)], color=[0, 2])


def test_even_cycle_is_auto_colored():
    g = c6()
    assert g.n == 6 and g.m == 6
    assert g.color is not None
    for u, v in g.edges:
        assert g.color[u] != g.color[v]


def test_dodecahedron_is_not_bipartite():
    g = gen_named("dodecahedron")
    assert g.n == 20 and g.m == 30
    assert g.color is None
    with pytest.raises(BadColoring):
        build_graph(20, g.edges, color=[v % 2 for v in range(20)])


# ------------------------------------------------------------- enumeration

def test_c6_has_two_perfect_matchings_in_lex_order():
    pms = enumerate_perfect_matchings(c6())
    assert [m.edge_ids for m in pms] == [(0, 2, 4), (1, 3, 5)]


def test_triphenylene_count_matches_permanent_oracle():
    g = gen_named("triphenylene").graph
    pms = enumerate_perfect_matchings(g)
    assert len(pms) == permanent_count(g) == 9


def remove_edges(g, edge_ids):
    """Copy of g without the given edges; colors carry over unchanged."""
    drop = set(edge_ids)
    kept = tuple(e for eid, e in enumerate(g.edges) if eid not in drop)
    return Graph(n=g.n, edges=kept, color=g.color)


def relabel_graph(g, perm):
    """Graph with vertex i renamed to perm[i]; edge order re-canonicalized."""
    edges = sorted(tuple(sorted((perm[u], perm[v]))) for u, v in g.edges)
    color = None
    if g.color is not None:
        color = [0] * g.n
        for v, c in enumerate(g.color):
            color[perm[v]] = c
    return Graph(n=g.n, edges=tuple(edges), color=tuple(color) if color else None)


def test_dodecahedron_count_is_order_independent():
    g = gen_named("dodecahedron")
    reversed_g = relabel_graph(g, [g.n - 1 - v for v in range(g.n)])
    assert count_perfect_matchings(g) == count_perfect_matchings(reversed_g) == 36


def test_the_count_equals_the_enumeration_on_general_graphs(monkeypatch):
    # the frontier count on a BFS order against the listed matchings on the
    # dodecahedron and the seeded general graphs perfbench runs; test_sweep
    # holds it to them on the hexagonal corpora
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "perfbench"))
    from gengraph import DEFAULT_SEED, RECHECK_SEED, general_graphs

    cases = [gen_named("dodecahedron")]
    cases += [g for seed in (DEFAULT_SEED, RECHECK_SEED) for _, g in general_graphs(seed)]
    for g in cases:
        assert g.color is None
        assert count_perfect_matchings(g) == len(enumerate_perfect_matchings(g)), g


@st.composite
def small_graphs(draw):
    """Any simple graph on at most 10 vertices, odd, empty, disconnected or not bipartite."""
    n = draw(st.integers(min_value=0, max_value=10))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    return build_graph(n, [e for e in pairs if draw(st.booleans())])


@settings(max_examples=300, deadline=None)
@given(small_graphs())
@example(build_graph(0, []))  # one perfect matching, the empty one
@example(build_graph(3, [(0, 1), (1, 2), (0, 2)]))  # odd order
# two disjoint copies of K4: disconnected and not bipartite, 3 * 3 matchings
@example(build_graph(8, [(a + k, b + k) for k in (0, 4) for a, b in combinations(range(4), 2)]))
def test_the_count_equals_the_enumeration_on_random_graphs(g):
    assert count_perfect_matchings(g) == len(enumerate_perfect_matchings(g))


def _stack_coloring(n, edges):
    """The depth-first 2-coloring that two_coloring's BFS replaced: least vertex white."""
    adj = [[] for _ in range(n)]
    for u, v in edges:
        adj[u].append(v)
        adj[v].append(u)
    color = [-1] * n
    for start in range(n):
        if color[start] == -1:
            color[start], stack = 0, [start]
            while stack:
                u = stack.pop()
                for w in adj[u]:
                    if color[w] == -1:
                        color[w] = color[u] ^ 1
                        stack.append(w)
                    elif color[w] == color[u]:
                        return None
    return tuple(color)


@settings(max_examples=300, deadline=None)
@given(small_graphs())
def test_the_bfs_coloring_is_the_depth_first_one(g):
    assert graphs.two_coloring(g.n, g.edges) == _stack_coloring(g.n, g.edges) == g.color


def test_matching_cap_raises():
    with pytest.raises(LimitExceeded):
        enumerate_perfect_matchings(c6(), max_matchings=1)


# count_perfect_matchings lists no matching, so it takes no matching cap
@pytest.mark.parametrize("fn", [enumerate_perfect_matchings, edge_fixedness])
@pytest.mark.parametrize("name", ["C6", "triphenylene", "dodecahedron"])
def test_matching_walks_raise_just_past_the_pm_count(fn, name):
    obj = gen_named(name)
    g = obj.graph if hasattr(obj, "cells") else obj
    k = len(enumerate_perfect_matchings(g))
    with pytest.raises(LimitExceeded):
        fn(g, k - 1)
    assert fn(g, k) == fn(g)


def test_every_enumerated_matching_is_perfect():
    g = gen_truncated_parallelogram((2, 1)).graph
    for m in enumerate_perfect_matchings(g):
        covered = set()
        for eid in m.edge_ids:
            u, v = g.edges[eid]
            assert u not in covered and v not in covered
            covered.update((u, v))
        assert covered == set(range(g.n))


# ---------------------------------------------------------- unique matching

def test_single_edge_has_unique_matching():
    g = build_graph(2, [(0, 1)])
    assert has_unique_perfect_matching(g) == (True, Matching([0]))


def test_c6_is_not_unique():
    assert has_unique_perfect_matching(c6()) == (False, None)


def test_unique_check_runs_on_non_bipartite():
    g = gen_named("dodecahedron")
    assert has_unique_perfect_matching(g) == (False, None)


def test_pendant_chain_is_unique():
    # path on 6 vertices: alternating forced edges
    g = build_graph(6, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5)])
    unique, m = has_unique_perfect_matching(g)
    assert unique and m.edge_ids == (0, 2, 4)


def test_odd_graph_has_no_matching():
    g = build_graph(3, [(0, 1), (1, 2)])
    assert has_unique_perfect_matching(g) == (False, None)


def test_stalled_bipartite_graphs_enumerate_nothing(monkeypatch):
    def no_enumeration(*args, **kwargs):
        raise AssertionError("perfect matchings enumerated")

    monkeypatch.setattr(graphs, "_iter_perfect_matchings", no_enumeration)
    # both have minimum degree 2, so the pendant reduction stalls at once
    for g in (c6(), gen_truncated_parallelogram((2,)).graph):
        assert has_unique_perfect_matching(g) == (False, None)
    assert len(anti_forcing_edges(gen_truncated_parallelogram((2,)).graph)) == 4


# ------------------------------------------------------- alternating cycles

def test_c6_single_alternating_cycle():
    g = c6()
    for m in enumerate_perfect_matchings(g):
        cycles = enumerate_alternating_cycles(g, m)
        assert len(cycles) == 1
        assert cycles[0].vertex_seq == (0, 1, 2, 3, 4, 5) or len(cycles[0]) == 6


def test_matchings_answer_membership_and_cycles_their_length():
    g = c6()
    m = enumerate_perfect_matchings(g)[0]
    assert [e in m for e in range(g.m)] == [e in m.edge_ids for e in range(g.m)]
    assert sum(e in m for e in range(g.m)) == len(m) == 3
    (cycle,) = enumerate_alternating_cycles(g, m)
    assert len(cycle) == len(cycle.vertex_seq) == 6
    assert len(AltCycle((0, 1, 2, 3), frozenset())) == 4


def test_alternation_is_sound():
    h = gen_named("triphenylene")
    g = h.graph
    for m in enumerate_perfect_matchings(g):
        for cycle in enumerate_alternating_cycles(g, m):
            seq = cycle.vertex_seq
            assert len(seq) % 2 == 0 and len(seq) >= 4
            flags = []
            for i in range(len(seq)):
                u, v = seq[i], seq[(i + 1) % len(seq)]
                eid = g.edges.index((u, v) if u < v else (v, u))
                assert eid in cycle.edge_ids
                flags.append(eid in m.edge_set)
            assert all(flags[i] != flags[(i + 1) % len(flags)] for i in range(len(flags)))


def test_symmetric_difference_closure():
    h = gen_named("triphenylene")
    g = h.graph
    pms = enumerate_perfect_matchings(g)
    for m in pms[:3]:
        enumerated = {c.edge_ids for c in enumerate_alternating_cycles(g, m)}
        from_pairs = set()
        for other in pms:
            if other.edge_ids == m.edge_ids:
                continue
            diff = m.edge_set ^ other.edge_set
            # split the symmetric difference into connected pieces
            remaining = set(diff)
            while remaining:
                seed = remaining.pop()
                comp = {seed}
                frontier = [seed]
                while frontier:
                    e = frontier.pop()
                    for other_e in list(remaining):
                        if set(g.edges[e]) & set(g.edges[other_e]):
                            remaining.discard(other_e)
                            comp.add(other_e)
                            frontier.append(other_e)
                from_pairs.add(frozenset(comp))
        assert from_pairs == enumerated


def test_cycle_requires_perfect_matching():
    g = c6()
    with pytest.raises(NotPerfect):
        enumerate_alternating_cycles(g, Matching([0]))


def test_cycle_cap_raises():
    g = gen_named("dodecahedron")
    m = enumerate_perfect_matchings(g)[0]
    with pytest.raises(LimitExceeded):
        enumerate_alternating_cycles(g, m, max_cycles=3)


# --------------------------------------------------------------- fixedness

def test_k2_edge_is_fixed_double():
    g = build_graph(2, [(0, 1)])
    assert edge_fixedness(g) == (FIXED_DOUBLE,)
    assert normal_components(g, edge_fixedness(g)) == ()


def test_c6_edges_are_all_free():
    assert set(edge_fixedness(c6())) == {FREE}
    comps = normal_components(c6(), edge_fixedness(c6()))
    assert len(comps) == 1 and comps[0].graph.n == 6


def test_fixedness_needs_a_matching():
    g = build_graph(3, [(0, 1), (1, 2)])
    with pytest.raises(NoPerfectMatching):
        edge_fixedness(g)


# -------------------------------------------------------------- contraction

def test_c6_contracts_to_directed_triangle():
    g = c6()
    m = enumerate_perfect_matchings(g)[0]
    d = orient_and_contract(g, m)
    assert d.node_count == 3 and len(d.arcs) == 3
    cycles = enumerate_directed_cycles(d)
    assert len(cycles) == 1 and len(cycles[0].node_seq) == 3


def test_c4_contracts_to_two_antiparallel_arcs():
    g = gen_named("C4")
    m = enumerate_perfect_matchings(g)[0]
    d = orient_and_contract(g, m)
    assert d.node_count == 2 and len(d.arcs) == 2
    assert {d.arcs[0], d.arcs[1]} == {(0, 1), (1, 0)}
    assert len(enumerate_directed_cycles(d)) == 1


def test_contraction_needs_bipartite():
    g = gen_named("dodecahedron")
    m = enumerate_perfect_matchings(g)[0]
    with pytest.raises(NotBipartite):
        orient_and_contract(g, m)


def test_contraction_cycles_match_alternating_cycles():
    g = gen_named("triphenylene").graph
    for m in enumerate_perfect_matchings(g):
        alt = enumerate_alternating_cycles(g, m)
        d = orient_and_contract(g, m)
        directed = enumerate_directed_cycles(d)
        assert len(alt) == len(directed)
        # the non-matching edges of each cycle survive as arc provenance
        alt_edge_sets = sorted(sorted(c.edge_ids - m.edge_set) for c in alt)
        arc_edge_sets = sorted(
            sorted(d.arc_edges[a] for a in c.arc_ids) for c in directed
        )
        assert alt_edge_sets == arc_edge_sets


def test_remove_edges_keeps_colors():
    g = c6()
    g2 = remove_edges(g, [0])
    assert g2.m == 5 and g2.color == g.color


# ------------------------------------------- explicit-stack PM enumeration

def _recursive_perfect_matchings(g):
    """The recursive `yield from` backtracker the explicit stack replaced."""
    covered = bytearray(g.n)
    chosen = []
    adjacency = g.adjacency

    def extend(start):
        v = start
        while v < g.n and covered[v]:
            v += 1
        if v == g.n:
            yield tuple(chosen)
            return
        for w, eid in adjacency[v]:
            if not covered[w]:
                covered[v] = covered[w] = 1
                chosen.append(eid)
                yield from extend(v + 1)
                covered[v] = covered[w] = 0
                chosen.pop()

    if g.n % 2 == 0:
        yield from extend(0)


def _seeded_graphs(count, seed):
    rng = random.Random(seed)
    out = []
    while len(out) < count:
        n = rng.choice((6, 8, 10, 12))
        edges = set()
        while len(edges) < 2 * n:
            u, v = rng.sample(range(n), 2)
            edges.add((min(u, v), max(u, v)))
        g = build_graph(n, sorted(edges))
        if g.color is None:
            out.append(g)
    return out


def test_explicit_stack_yields_the_recursive_sequence():
    cases = [h.graph for n in range(1, 6) for h in enumerate_hex_systems(n)]
    for name in ("triphenylene", "dodecahedron", "C4", "C6"):
        obj = gen_named(name)
        cases.append(getattr(obj, "graph", obj))
    cases += [glue_preset(k).graph for k in (1, 2, 3, 4)]
    cases += _seeded_graphs(12, seed=7)
    cases.append(build_graph(3, [(0, 1), (1, 2)]))  # odd order: nothing to yield
    cases.append(build_graph(0, []))  # the empty matching of the empty graph
    total = relabelled = 0
    for g in cases:
        walked = g._search_copy or g  # a non-bipartite graph is walked in BFS order
        got = list(_iter_perfect_matchings(g))
        assert got == list(_recursive_perfect_matchings(walked)), g
        total += len(got)
        relabelled += walked is not g
    assert total > 1000
    assert relabelled == 13  # the dodecahedron and the seeded graphs


def _random_non_bipartite(count, seed):
    """Sparser and denser general graphs than _seeded_graphs, some with no perfect matching."""
    rng = random.Random(seed)
    out = []
    while len(out) < count:
        n = rng.choice((6, 8, 10, 12, 14))
        pairs = list(combinations(range(n), 2))
        g = build_graph(n, rng.sample(pairs, rng.randint(n, min(len(pairs), 3 * n))))
        if g.color is None:
            out.append(g)
    return out


def _native_reference(g):
    """Sorted edge ids of every perfect matching, from the recursive walk in g's own ids."""
    return sorted(tuple(sorted(chosen)) for chosen in _recursive_perfect_matchings(g))


def test_bfs_walk_answers_as_the_native_order_walk():
    # only the order of the matchings may depend on the walked copy
    cases = [gen_named("dodecahedron"), *_seeded_graphs(12, seed=7)]
    cases += _random_non_bipartite(40, seed=19)
    without_pm = unique = 0
    for g in cases:
        ref = _native_reference(g)
        assert [m.edge_ids for m in enumerate_perfect_matchings(g)] == ref, g
        if ref:
            counts = [sum(e in ids for ids in ref) for e in range(g.m)]
            labels = [
                FIXED_SINGLE if c == 0 else FIXED_DOUBLE if c == len(ref) else FREE for c in counts
            ]
            assert list(edge_fixedness(g)) == labels, g
        else:
            with pytest.raises(NoPerfectMatching):
                edge_fixedness(g)
            without_pm += 1
        unique += len(ref) == 1
        expected = (True, Matching(ref[0])) if len(ref) == 1 else (False, None)
        assert has_unique_perfect_matching(g) == expected, g
        anti = [
            e for e in range(g.m)
            if len(list(islice(_recursive_perfect_matchings(remove_edges(g, [e])), 2))) == 1
        ]
        assert list(anti_forcing_edges(g)) == anti, g
    assert without_pm and unique


def _random_cubic(n, rng):
    """A simple cubic graph from the pairing model, redrawn until no loop or double edge."""
    stubs = [v for v in range(n) for _ in range(3)]
    while True:
        rng.shuffle(stubs)
        pairs = {tuple(sorted(stubs[i : i + 2])) for i in range(0, len(stubs), 2)}
        if len(pairs) * 2 == len(stubs) and all(u != v for u, v in pairs):
            return build_graph(n, sorted(pairs))


def test_bfs_walk_reaches_a_large_cubic_graphs_first_matching():
    # in native ids the backtracker ran for minutes without reaching one
    g = _random_cubic(100, random.Random(0))
    assert g.color is None
    start = time.perf_counter()
    first = next(_iter_perfect_matchings(g))
    matching_partner(g, Matching(first))  # raises NotPerfect unless it covers every vertex
    assert has_unique_perfect_matching(g) == (False, None)
    assert time.perf_counter() - start < 5
    assert anti_forcing_edges(g) == ()


def test_instance_caches_leave_no_reference_cycles():
    # a cache that refers back to its own graph makes every graph cyclic garbage,
    # which only the collector frees, and peak memory rises with it
    gc.collect()
    gc.disable()
    try:
        g = build_graph(4, [(0, 1), (1, 2), (0, 2), (2, 3)])
        h = build_hex_system([(0, 0), (1, 0), (0, 1)])
        for graph in (g, h.graph):
            hash(graph)
            graph.adjacency
            count_perfect_matchings(graph)
            graph._search_copy
            enumerate_perfect_matchings(graph)
        hash(h)
        assert g._search_copy is not None and h.graph._search_copy is None
        del g, h, graph
        assert gc.collect() == 0
    finally:
        gc.enable()


def test_long_chain_counts_without_recursion():
    # a linear chain of n hexagons has n + 1 perfect matchings
    g = gen_truncated_parallelogram((2000,)).graph
    assert count_perfect_matchings(g) == 2001


# --------------------------------------------- explicit-stack cycle kernel

def _recursive_alternating_cycles(g, m, max_cycles):
    """The recursive walk the cycle kernel replaced, in discovery order."""
    partner = matching_partner(g, m)
    match_edge = [-1] * g.n
    for eid in m.edge_ids:
        u, v = g.edges[eid]
        match_edge[u] = eid
        match_edge[v] = eid
    non_m_adj = [[] for _ in range(g.n)]
    for eid, (u, v) in enumerate(g.edges):
        if eid not in m.edge_set:
            non_m_adj[u].append((v, eid))
            non_m_adj[v].append((u, eid))

    cycles = []
    on_path = bytearray(g.n)
    path = []
    path_edges = []

    def walk(root, u):
        for w, eid in non_m_adj[u]:
            if w == root:
                vs = _canonical_rotation(path)
                cycles.append(AltCycle(vs, frozenset(path_edges + [eid])))
                if len(cycles) > max_cycles:
                    raise LimitExceeded(f"more than {max_cycles} alternating cycles")
            elif w > root and not on_path[w]:
                pw = partner[w]
                if pw > root and not on_path[pw]:
                    on_path[w] = on_path[pw] = 1
                    path.extend((w, pw))
                    path_edges.extend((eid, match_edge[w]))
                    walk(root, pw)
                    path_edges.pop()
                    path_edges.pop()
                    path.pop()
                    path.pop()
                    on_path[w] = on_path[pw] = 0

    for s in range(g.n):
        t = partner[s]
        if t < s:
            continue
        on_path[s] = on_path[t] = 1
        path.extend((s, t))
        path_edges.append(match_edge[s])
        walk(s, t)
        path_edges.pop()
        path.pop()
        path.pop()
        on_path[s] = on_path[t] = 0
    return cycles


def _recursive_directed_cycles(d, max_cycles):
    """The recursive walk the cycle kernel replaced, in discovery order."""
    out_arcs = [[] for _ in range(d.node_count)]
    for aid, (tail, head) in enumerate(d.arcs):
        out_arcs[tail].append((head, aid))
    cycles = []
    on_path = bytearray(d.node_count)
    path = []
    arc_path = []

    def walk(root, u):
        for head, aid in out_arcs[u]:
            if head == root and len(path) >= 2:
                cycles.append(DirectedCycle(tuple(path), frozenset(arc_path + [aid])))
                if len(cycles) > max_cycles:
                    raise LimitExceeded(f"more than {max_cycles} directed cycles")
            elif head > root and not on_path[head]:
                on_path[head] = 1
                path.append(head)
                arc_path.append(aid)
                walk(root, head)
                arc_path.pop()
                path.pop()
                on_path[head] = 0

    for root in range(d.node_count):
        on_path[root] = 1
        path.append(root)
        walk(root, root)
        path.pop()
        on_path[root] = 0
    return cycles


def _cycle_corpus():
    cases = [h.graph for n in range(1, 6) for h in enumerate_hex_systems(n)]
    for name in ("triphenylene", "dodecahedron", "C4", "C6"):
        obj = gen_named(name)
        cases.append(getattr(obj, "graph", obj))
    cases += [glue_preset(k).graph for k in (1, 2, 3, 4)]
    cases += _seeded_graphs(12, seed=7)
    cases.append(build_graph(4, [(0, 1), (1, 2), (2, 3)]))  # a unique matching: no cycle
    return [(g, m) for g in cases for m in enumerate_perfect_matchings(g)]


CAPS = (0, 1, 3, 20)  # 20 splits the dodecahedron's matchings (20 or 24 cycles)


def _outcome(fn, *args):
    """fn's result, or the LimitExceeded it raised as a marker."""
    try:
        return fn(*args)
    except LimitExceeded:
        return LimitExceeded


def test_cycle_kernel_matches_the_recursive_walks():
    alternating = directed = 0
    caps_hit = set()
    for g, m in _cycle_corpus():
        ref = _recursive_alternating_cycles(g, m, 10**6)
        ordered = sorted(ref, key=lambda c: (len(c.vertex_seq), c.vertex_seq))
        assert enumerate_alternating_cycles(g, m) == tuple(ordered), (g, m)
        assert alternating_cycle_masks(g, m) == tuple(edge_mask(c.edge_ids) for c in ref)
        alternating += len(ref)
        for cap in CAPS:
            ref_raises = _outcome(_recursive_alternating_cycles, g, m, cap) is LimitExceeded
            for fn in (enumerate_alternating_cycles, alternating_cycle_masks):
                assert (_outcome(fn, g, m, cap) is LimitExceeded) == ref_raises, (g, m, cap)
            caps_hit.add((cap, ref_raises))
        if g.color is None:
            continue
        d = orient_and_contract(g, m)
        ref = _recursive_directed_cycles(d, 10**6)
        ordered = sorted(ref, key=lambda c: (len(c.node_seq), c.node_seq, sorted(c.arc_ids)))
        assert enumerate_directed_cycles(d) == tuple(ordered), (g, m)
        assert directed_cycle_masks(d) == tuple(edge_mask(c.arc_ids) for c in ref)
        directed += len(ref)
        for cap in CAPS:
            ref_raises = _outcome(_recursive_directed_cycles, d, cap) is LimitExceeded
            for fn in (enumerate_directed_cycles, directed_cycle_masks):
                assert (_outcome(fn, d, cap) is LimitExceeded) == ref_raises, (g, m, cap)
    assert alternating > 10_000 and directed > 5_000
    # every cap both fires and holds somewhere in the corpus
    assert caps_hit == {(cap, raises) for cap in CAPS for raises in (False, True)}


def test_cycle_masks_decide_disjointness_and_compatibility():
    pairs = 0
    for g, m in _cycle_corpus():
        in_m = edge_mask(m.edge_ids)
        cycles = enumerate_alternating_cycles(g, m)
        masks = [edge_mask(c.edge_ids) for c in cycles]
        for i, a in enumerate(cycles):
            for j in range(i + 1, len(cycles)):
                b = cycles[j]
                assert compatible_cycles(g, m, a, b) == (not masks[i] & masks[j] & ~in_m)
                assert (not a.vertex_set & b.vertex_set) == (not masks[i] & masks[j] & in_m)
                pairs += 1
    assert pairs > 40_000


def _tp_params(cells):
    """Every row-length sequence of a truncated parallelogram of at most `cells` cells."""
    out = []
    todo = [()]
    while todo:
        rows = todo.pop()
        if rows:
            out.append(rows)
        top = rows[-1] if rows else cells
        todo += [rows + (n,) for n in range(1, min(top, cells - sum(rows)) + 1)]
    return out


def _random_regular_graphs(count, seed):
    """count simple non-bipartite regular graphs of degree 3 or 4, by the pairing model."""
    rng = random.Random(seed)
    out = []
    while len(out) < count:
        n, d = rng.choice(((8, 3), (10, 3), (12, 3), (14, 3), (8, 4), (10, 4), (12, 4)))
        points = [v for v in range(n) for _ in range(d)]
        rng.shuffle(points)
        edges = {(min(u, v), max(u, v)) for u, v in zip(points[::2], points[1::2]) if u != v}
        if 2 * len(edges) == n * d:
            g = build_graph(n, sorted(edges))
            if g.color is None:
                out.append(g)
    return out


def _zigzag(cells):
    return build_hex_system([(k // 2 + k % 2, k // 2) for k in range(cells)])


def _two_copies(g):
    return build_graph(2 * g.n, [*g.edges, *((u + g.n, v + g.n) for u, v in g.edges)])


def _kernel_calls(monkeypatch):
    calls = []
    kernel = graphs.alternating_cycle_masks

    def counted(g, m, *args):
        calls.append(m)
        return kernel(g, m, *args)

    monkeypatch.setattr(graphs, "alternating_cycle_masks", counted)
    return calls


def _assert_derived_masks_match_the_kernel(g):
    pms = enumerate_perfect_matchings(g)
    rows = list(all_alternating_cycle_masks(g, pms))
    assert len(rows) == len(pms)
    for m, row in zip(pms, rows):
        assert sorted(row) == sorted(alternating_cycle_masks(g, m)), (g, m)
    return pms, rows


def _derivation_corpus():
    """Polyhexes to 5 cells, TPs to 6, the presets, the named graphs and random regular graphs."""
    cases = [h.graph for n in range(1, 6) for h in enumerate_hex_systems(n)]
    cases += [gen_truncated_parallelogram(p).graph for p in _tp_params(6)]
    cases += [glue_preset(k).graph for k in (1, 2, 3, 4)]
    for name in ("triphenylene", "dodecahedron", "C4", "C6"):
        obj = gen_named(name)
        cases.append(getattr(obj, "graph", obj))
    return cases + _random_regular_graphs(24, seed=11)


def test_cycles_read_off_pairs_of_matchings_match_the_kernel(monkeypatch):
    cases = _derivation_corpus()
    regular = cases[-24:]
    kernel_calls = _kernel_calls(monkeypatch)
    cycles = 0
    for g in cases:
        cycles += sum(map(len, _assert_derived_masks_match_the_kernel(g)[1]))
    assert cycles > 10_000
    assert sum(len(enumerate_perfect_matchings(g)) > 1 for g in regular) >= 20
    # every first matching of these shares a cycle with at least 1/16 of the others
    assert not kernel_calls


def test_cycles_of_a_product_of_systems_take_the_kernel(monkeypatch):
    # two disjoint zigzag chains of 6 cells: 21 * 21 matchings, and the first
    # is one cycle away from 2 * 9 of the other 440, under 1/16 of them
    g = _two_copies(_zigzag(6).graph)
    kernel_calls = _kernel_calls(monkeypatch)
    pms, rows = _assert_derived_masks_match_the_kernel(g)
    assert len(pms) == 441 and len(rows[0]) == 18
    # the derivation asks the kernel for every matching after the first
    assert kernel_calls == list(pms[1:])


@pytest.mark.parametrize(
    "g, sizes",
    [
        (build_graph(2, [(0, 1)]), [0]),
        (gen_named("C6"), [1, 1]),
        (build_graph(8, [(v, (v + 1) % 8) for v in range(8)]), [1, 1]),  # a pair to walk
    ],
    ids=["K2", "C6", "C8"],
)
def test_cycles_read_off_one_or_two_matchings(g, sizes):
    pms, rows = _assert_derived_masks_match_the_kernel(g)
    assert list(map(len, rows)) == sizes


@pytest.mark.parametrize(
    "g", [gen_named("dodecahedron"), _two_copies(_zigzag(6).graph)], ids=["pairs", "kernel"]
)
def test_cycle_cap_is_the_kernels_on_both_routes(g):
    # the derivation takes no cap: its rows are bounded by the listed
    # matchings (test_each_alternating_cycle_gives_its_own_listed_matching)
    pms = enumerate_perfect_matchings(g)
    counts = [len(alternating_cycle_masks(g, m)) for m in pms]
    most = max(counts)
    widest = pms[counts.index(most)]
    with pytest.raises(LimitExceeded) as kernel:
        alternating_cycle_masks(g, widest, most - 1)
    assert str(kernel.value) == f"more than {most - 1} alternating cycles"
    assert len(alternating_cycle_masks(g, widest, most)) == most
    assert max(map(len, all_alternating_cycle_masks(g, pms))) == most


def test_each_alternating_cycle_gives_its_own_listed_matching():
    # M ⊕ C is a perfect matching for each M-alternating cycle C, a different
    # one per cycle, so a row has fewer than K masks on either route; on
    # bipartite input the contraction's directed cycles are as many
    rows_seen = contracted = 0
    for g in _derivation_corpus() + [_two_copies(_zigzag(6).graph)]:
        pms = enumerate_perfect_matchings(g)
        listed = {edge_mask(m.edge_ids) for m in pms}
        for m, row in zip(pms, all_alternating_cycle_masks(g, pms)):
            mask = edge_mask(m.edge_ids)
            assert len(row) < len(pms)
            others = {mask ^ c for c in row}
            assert len(others) == len(row) and mask not in others and others <= listed
            if g.color is not None:
                assert len(directed_cycle_masks(orient_and_contract(g, m))) == len(row)
                contracted += 1
            rows_seen += 1
    assert rows_seen > 2_000 and contracted > 1_000


def test_long_chain_cycles_without_recursion():
    # the first matching of a linear chain of 600 hexagons has one cycle per
    # run of consecutive hexagons ending at the last, 600 in all
    g = gen_truncated_parallelogram((600,)).graph
    m = enumerate_perfect_matchings(g)[0]
    assert forcing_number(g, m)[0] == 1
    assert antiforcing_number(g, m)[0] == 1
    assert len(enumerate_directed_cycles(orient_and_contract(g, m))) == 600
