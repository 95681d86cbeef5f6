"""Anti-forcing numbers, spectra, compatible sets, anti-forcing edges."""

import itertools
import random
from collections import Counter
from pathlib import Path

import pytest

from matchforce import antiforcing, graphs
from matchforce.antiforcing import (
    anti_forcing_edges,
    antiforcing_number,
    antiforcing_spectrum,
    is_antiforcing_set,
    max_compatible_alternating_set,
    min_feedback_arc_set,
)
from matchforce.errors import IntersectsM, LimitExceeded
from matchforce.forcing import forcing_number, is_forcing_set
from matchforce.generators import (
    enumerate_hex_systems,
    gen_named,
    gen_truncated_parallelogram,
    glue_preset,
)
from matchforce.graphs import (
    Graph,
    _iter_perfect_matchings,
    alternating_cycle_masks,
    build_graph,
    edge_mask,
    enumerate_perfect_matchings,
    has_unique_perfect_matching,
    orient_and_contract,
)
from matchforce.verify import _THM16_EXTRAS
from test_graphs import _cycle_corpus, _seeded_graphs, remove_edges


def test_hexagon_single_non_matching_edge_antiforces():
    g = gen_truncated_parallelogram((1,)).graph
    for m in enumerate_perfect_matchings(g):
        for e in range(g.m):
            if e not in m.edge_set:
                assert is_antiforcing_set(g, m, [e])
    assert len(anti_forcing_edges(g)) == 6


def test_antiforcing_set_must_avoid_matching():
    g = gen_named("C6")
    m = enumerate_perfect_matchings(g)[0]
    with pytest.raises(IntersectsM):
        is_antiforcing_set(g, m, [m.edge_ids[0]])


def test_empty_set_never_antiforces_triphenylene():
    g = gen_named("triphenylene").graph
    for m in enumerate_perfect_matchings(g)[:3]:
        assert not is_antiforcing_set(g, m, [])


def test_antiforcing_agrees_with_unique_matching_after_deletion():
    g = gen_named("triphenylene").graph
    for m in enumerate_perfect_matchings(g)[:3]:
        non_m = [e for e in range(g.m) if e not in m.edge_set]
        for s in itertools.combinations(non_m, 2):
            hit = is_antiforcing_set(g, m, s)
            unique, um = has_unique_perfect_matching(remove_edges(g, s))
            # the surviving unique matching must be m itself
            assert hit == unique
            if unique:
                survivors = [e for e in range(g.m) if e not in set(s)]
                restored = {survivors[e] for e in um.edge_ids}
                assert restored == set(m.edge_set)


def test_set_checks_agree_with_cycle_hitting_and_enumerate_no_cycle(monkeypatch):
    """Each set check against the cycle-hitting test it replaced, on the f and
    af witnesses, each witness less one edge, the empty set and seeded
    subsets; the checks then run with the cycle kernel made to raise."""
    rng = random.Random(3)
    cases = []
    for g, m in _cycle_corpus():
        masks = alternating_cycle_masks(g, m)
        non_m = [e for e in range(g.m) if e not in m.edge_set]
        for check, side, number, extra in (
            (is_forcing_set, list(m.edge_ids), forcing_number, []),
            # an id outside the graph is no edge, so it deletes nothing
            (is_antiforcing_set, non_m, antiforcing_number, [g.m]),
        ):
            witness = list(number(g, m)[1])
            sets = [witness, [], witness + extra]
            sets += [witness[:i] + witness[i + 1 :] for i in range(len(witness))]
            sets += [rng.sample(side, rng.randint(1, len(side))) for _ in range(3) if side]
            for s in sets:
                hit = edge_mask(e for e in s if e < g.m)
                cases.append((check, g, m, s, all(c & hit for c in masks)))

    def no_cycles(*args):
        raise AssertionError("a set check enumerated alternating cycles")

    monkeypatch.setattr(graphs, "_simple_cycles", no_cycles)
    outcomes = Counter()
    for check, g, m, s, expected in cases:
        assert check(g, m, s) == expected, (check.__name__, g, m, s)
        outcomes[check, g.color is None, expected] += 1
    # both answers, from both checks, on bipartite and non-bipartite graphs
    assert len(outcomes) == 8 and min(outcomes.values()) >= 500, outcomes


def test_c6_antiforcing_number_is_one():
    g = gen_named("C6")
    m = enumerate_perfect_matchings(g)[0]
    value, witness = antiforcing_number(g, m)
    assert value == 1
    assert is_antiforcing_set(g, m, witness)


def test_triphenylene_antiforcing_spectrum():
    g = gen_named("triphenylene").graph
    s = antiforcing_spectrum(g)
    assert s.value_set == (2, 3, 4)
    assert s.min == 2 and s.max == 4


def test_sandwich_bound_on_named_instances():
    for name in ("triphenylene", "dodecahedron", "C4", "C6"):
        obj = gen_named(name)
        g = obj.graph if hasattr(obj, "cells") else obj
        slack = g.max_degree - 1
        for m in enumerate_perfect_matchings(g):
            f, _ = forcing_number(g, m)
            af, _ = antiforcing_number(g, m)
            assert f <= af <= slack * f, (name, f, af)


def test_compatible_family_revalidates():
    g = gen_named("triphenylene").graph
    for m in enumerate_perfect_matchings(g):
        af, _ = antiforcing_number(g, m)
        cp, family = max_compatible_alternating_set(g, m)
        assert family.mode == "compatible"
        assert family.is_valid(g, m)
        assert cp == af  # bipartite planar: the minimax is tight
        assert af >= cp  # and never below (general bound)


def test_anti_forcing_edge_counts_for_parallelogram_families():
    assert len(anti_forcing_edges(gen_truncated_parallelogram((3,)).graph)) == 4
    assert len(anti_forcing_edges(gen_truncated_parallelogram((3, 3)).graph)) == 2
    assert len(anti_forcing_edges(gen_truncated_parallelogram((5, 5, 3, 2)).graph)) == 1
    assert len(anti_forcing_edges(gen_named("triphenylene").graph)) == 0


def _edge_deletion_corpus():
    polyhexes = [h.graph for n in range(1, 6) for h in enumerate_hex_systems(n)]
    general = _seeded_graphs(12, seed=11)
    # two triangles joined by an edge have one perfect matching and no pendant
    # vertex; a pendant path on vertex 0 adds a forced edge before the stall
    triangles = [(0, 1), (0, 2), (1, 2), (2, 3), (3, 4), (3, 5), (4, 5)]
    general.append(build_graph(6, triangles))
    general.append(build_graph(8, triangles + [(0, 6), (6, 7)]))
    cases = polyhexes + general
    for name in ("triphenylene", "dodecahedron", "C4", "C6"):
        obj = gen_named(name)
        cases.append(getattr(obj, "graph", obj))
    cases += [glue_preset(k).graph for k in (1, 2, 3, 4)]
    cases += [gen_truncated_parallelogram(params).graph for params, _ in _THM16_EXTRAS]
    # deleting a few edges leaves pendant vertices for the reduction to take
    rng = random.Random(5)
    for g in polyhexes + general:
        cases.append(remove_edges(g, rng.sample(range(g.m), rng.randint(1, min(4, g.m)))))
    return cases


def test_anti_forcing_edges_match_the_definition():
    cases = _edge_deletion_corpus()
    found = 0
    for g in cases:
        pms = enumerate_perfect_matchings(g)
        assert has_unique_perfect_matching(g) == ((True, pms[0]) if len(pms) == 1 else (False, None))
        expected = tuple(
            e for e in range(g.m) if len(enumerate_perfect_matchings(remove_edges(g, [e]))) == 1
        )
        assert anti_forcing_edges(g) == expected, g
        found += len(expected)
    assert sum(g.color is None for g in cases) >= 20 and found > 500
    assert sum(len(anti_forcing_edges(g)) for g in cases if g.color is None) >= 15


def _recording_unique_matching(monkeypatch):
    asked = []

    def recording(g, without=()):
        asked.extend(without)
        return graphs._unique_matching(g, without)

    monkeypatch.setattr(antiforcing, "_unique_matching", recording)
    return asked


def _cycles_route(g):
    """Does anti_forcing_edges decide g from one matching's alternating cycles?"""
    try:
        k = graphs.count_perfect_matchings(g)
    except LimitExceeded:
        return False
    return k == 0 or g.color is None or 2 * (k - 1) <= g.n


def _union_or_all(g):
    first_two = list(itertools.islice(_iter_perfect_matchings(g), 2))
    return sorted(set().union(*first_two)) if len(first_two) == 2 else list(range(g.m))


def test_anti_forcing_edges_ask_only_about_the_union_of_two_matchings(monkeypatch):
    # on the pendant route two perfect matchings that avoid e both survive in
    # g − e, so only the edges of the first two are asked; with fewer, every
    # edge is.  The cycles route asks no uniqueness question at all.
    asked = _recording_unique_matching(monkeypatch)
    routes = Counter()
    skipped = 0
    for g in _edge_deletion_corpus():
        asked.clear()
        anti_forcing_edges(g)
        cycles = _cycles_route(g)
        if cycles:
            assert asked == [], g
        else:
            union = _union_or_all(g)
            assert asked == union, g
            skipped += g.m - len(union)
        routes[cycles, g.color is None] += 1
    # the pendant route runs on bipartite input alone
    assert routes[True, True] >= 20 and routes[True, False] > 400 and routes[False, False] > 40
    assert not routes[False, True] and skipped > 500


def test_anti_forcing_edges_fall_back_to_the_union_when_the_count_stops(monkeypatch):
    # with the sweep's state cap at 0 the count raises unless it finds no
    # matching first, and the pendant tests over the first two matchings
    # give the same answers
    cases = _edge_deletion_corpus()
    expected = [anti_forcing_edges(g) for g in cases]
    asked = _recording_unique_matching(monkeypatch)
    monkeypatch.setattr(graphs, "FRONTIER_STATE_CAP", 0)
    fresh = [Graph(g.n, g.edges, g.color) for g in cases]  # no count cached
    stopped = 0
    for g, want in zip(fresh, expected):
        asked.clear()
        assert anti_forcing_edges(g) == want, g
        if not _cycles_route(g):
            assert asked == _union_or_all(g), g
            stopped += 1
    assert stopped > 500


def _ladder_and_k24(rungs):
    """A ladder joined by one edge to K_{2,4}: bipartite, every degree ≥ 2, no perfect matching."""
    n = 2 * rungs
    edges = [(2 * i, 2 * i + 1) for i in range(rungs)]
    edges += [(i, i + 2) for i in range(n - 2)]
    edges += [(a, b) for a in (n, n + 1) for b in range(n + 2, n + 6)]
    return build_graph(n + 6, edges + [(0, n + 2)])


def test_anti_forcing_edges_list_no_matching_when_there_is_none(monkeypatch):
    # the backtracker would spend Fibonacci(40)-many dead ends on the ladder
    g = _ladder_and_k24(40)
    assert g.color is not None

    def no_listing(*args, **kwargs):
        raise AssertionError("anti_forcing_edges listed a matching")

    monkeypatch.setattr(antiforcing, "_iter_perfect_matchings", no_listing)
    assert anti_forcing_edges(g) == ()
    assert anti_forcing_edges(_ladder_and_k24(4)) == ()


def test_a_long_chain_takes_the_cycles_route(monkeypatch):
    g = gen_truncated_parallelogram((200,)).graph
    asked = _recording_unique_matching(monkeypatch)
    assert len(anti_forcing_edges(g)) == 4  # as for every chain of 2 to 5 cells
    assert asked == []


def _diagonal_strip(rungs):
    """A ladder with one diagonal in each square: not bipartite, K a Fibonacci number."""
    edges = [(2 * i, 2 * i + 1) for i in range(rungs)]
    for i in range(rungs - 1):
        edges += [(2 * i, 2 * i + 2), (2 * i + 1, 2 * i + 3), (2 * i, 2 * i + 3)]
    return build_graph(2 * rungs, edges)


def test_a_count_past_the_matching_cap_takes_the_pendant_route(monkeypatch):
    # the count takes no cap, so anti_forcing_edges holds K to the matching cap
    # itself: at 30 rungs walking M's cycles takes 2.6 s, the pendant tests 1 ms
    g = _diagonal_strip(30)
    assert g.color is None
    assert graphs.count_perfect_matchings(g) == 1_346_269 > graphs.DEFAULT_MATCHING_CAP
    expected = tuple(
        e
        for e in range(g.m)
        if len(list(itertools.islice(_iter_perfect_matchings(remove_edges(g, [e])), 2))) == 1
    )

    def no_walk(*args, **kwargs):
        raise AssertionError("anti_forcing_edges walked the cycles of a matching")

    monkeypatch.setattr(antiforcing, "alternating_cycle_masks", no_walk)
    assert anti_forcing_edges(g) == expected


def test_anti_forcing_edges_match_deletion_on_the_benchmark_instances(monkeypatch):
    # against G − e enumerated, capped at two matchings: on the polyhexes of at
    # most 5 cells, the dodecahedron, and the large benzenoids and two seeded
    # general graphs that perfbench runs
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "perfbench"))
    from gengraph import DEFAULT_SEED, general_graphs
    from workloads import KEKULE_TPS

    cases = [h.graph for n in range(1, 6) for h in enumerate_hex_systems(n)]
    cases += [gen_truncated_parallelogram(params).graph for params in KEKULE_TPS]
    cases += [gen_named("dodecahedron")] + [g for _, g in general_graphs(DEFAULT_SEED)]
    found = 0
    for g in cases:
        expected = tuple(
            e
            for e in range(g.m)
            if len(list(itertools.islice(_iter_perfect_matchings(remove_edges(g, [e])), 2))) == 1
        )
        assert anti_forcing_edges(g) == expected, g
        found += len(expected)
    assert found > 100


def test_truncated_parallelogram_unique_after_deleting_its_edge():
    g = gen_truncated_parallelogram((5, 5, 3, 2)).graph
    (edge,) = anti_forcing_edges(g)
    unique, m = has_unique_perfect_matching(remove_edges(g, [edge]))
    assert unique and m is not None


def test_h5555_minimum_antiforcing_is_one():
    g = gen_truncated_parallelogram((5, 5, 5, 5)).graph
    s = antiforcing_spectrum(g)
    assert s.min == 1


def test_feedback_set_matches_antiforcing_number():
    g = gen_named("triphenylene").graph
    for m in enumerate_perfect_matchings(g)[:4]:
        af, _ = antiforcing_number(g, m)
        fb, arcs = min_feedback_arc_set(orient_and_contract(g, m))
        assert fb == af


def smallest_global_antiforcing_set(g, limit=3):
    """Direct search: fewest edge deletions leaving a unique perfect matching."""
    for k in range(limit + 1):
        for s in itertools.combinations(range(g.m), k):
            unique, _ = has_unique_perfect_matching(remove_edges(g, s))
            if unique:
                return k
    return None


def test_antiforcing_number_matches_definitional_brute_force():
    """Independent route: fewest non-matching edges whose removal pins the PM."""
    from matchforce.generators import enumerate_hex_systems

    def brute(g, m):
        non_m = [e for e in range(g.m) if e not in m.edge_set]
        for k in range(len(non_m) + 1):
            for s in itertools.combinations(non_m, k):
                unique, _ = has_unique_perfect_matching(remove_edges(g, s))
                if unique:
                    return k
        raise AssertionError("unreachable")

    for n in (1, 2, 3):
        for h in enumerate_hex_systems(n):
            g = h.graph
            for m in enumerate_perfect_matchings(g):
                assert antiforcing_number(g, m)[0] == brute(g, m)


def test_spectrum_minimum_matches_direct_global_search():
    from matchforce.generators import glue_preset

    instances = [
        gen_named("C6"),
        gen_named("triphenylene").graph,
        gen_truncated_parallelogram((2, 2)).graph,
        gen_truncated_parallelogram((3, 1)).graph,
        glue_preset(1).graph,
    ]
    for g in instances:
        direct = smallest_global_antiforcing_set(g)
        assert direct is not None  # all of these have small anti-forcing numbers
        assert antiforcing_spectrum(g).min == direct
