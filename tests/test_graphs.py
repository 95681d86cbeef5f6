"""Graph core: construction, matchings, alternating cycles, contraction."""

import random

import pytest

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
from matchforce import graphs
from matchforce.antiforcing import anti_forcing_edges, antiforcing_number
from matchforce.forcing import compatible_cycles, forcing_number
from matchforce.graphs import (
    _canonical_rotation,
    _iter_perfect_matchings,
    FIXED_DOUBLE,
    FREE,
    AltCycle,
    DirectedCycle,
    Graph,
    Matching,
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


def test_matching_cap_raises():
    with pytest.raises(LimitExceeded):
        enumerate_perfect_matchings(c6(), max_matchings=1)


@pytest.mark.parametrize(
    "fn", [enumerate_perfect_matchings, count_perfect_matchings, edge_fixedness]
)
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
    total = 0
    for g in cases:
        got = list(_iter_perfect_matchings(g))
        assert got == list(_recursive_perfect_matchings(g)), g
        total += len(got)
    assert total > 1000


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


def test_long_chain_cycles_without_recursion():
    # the first matching of a linear chain of 600 hexagons has one cycle per
    # run of consecutive hexagons ending at the last, 600 in all
    g = gen_truncated_parallelogram((600,)).graph
    m = enumerate_perfect_matchings(g)[0]
    assert forcing_number(g, m)[0] == 1
    assert antiforcing_number(g, m)[0] == 1
    assert len(enumerate_directed_cycles(orient_and_contract(g, m))) == 600
