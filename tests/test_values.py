"""Value-only per-matching functions against the solvers that return witnesses.

Every per-matching value has one library implementation, read from the
edge masks of the matching's alternating cycles (`forcing.VALUE_OF`, read
for every matching by `forcing.matching_values`), plus the value-only
feedback set and Clar count.  These tests hold each to the size its witness
solver reports, count the cycle enumerations the verify suites make, pin
the one table and the one loop, and check that the searches free what they
build without the cyclic garbage collector.
"""

import ast
import gc
import subprocess
import sys
import tracemalloc
from pathlib import Path

import pytest

from matchforce import antiforcing, exact, forcing, graphs, hexsys, report, verify
from matchforce.antiforcing import (
    antiforcing_number,
    feedback_value,
    max_compatible_alternating_set,
    min_feedback_arc_set,
)
from matchforce.forcing import VALUE_OF, forcing_number, max_disjoint_alternating_cycles
from matchforce.generators import enumerate_hex_systems, gen_named, glue_preset
from matchforce.graphs import (
    alternating_cycle_masks,
    edge_mask,
    enumerate_alternating_cycles,
    enumerate_directed_cycles,
    enumerate_perfect_matchings,
    orient_and_contract,
)
from matchforce.hexsys import (
    alternating_hexagons,
    build_hex_system,
    clar_number,
    is_all_kink_catahex,
)
from matchforce.io import serialize_instance
from matchforce.report import compute_report

SOLVER_OF = {
    "f": forcing_number,
    "af": antiforcing_number,
    "disjoint": max_disjoint_alternating_cycles,
    "compatible": max_compatible_alternating_set,
}


def _graphs():
    out = [
        (f"polyhex-{n}-{i}", h.graph)
        for n in range(1, 5)
        for i, h in enumerate(enumerate_hex_systems(n))
    ]
    for name in ("triphenylene", "dodecahedron", "C6"):
        obj = gen_named(name)
        out.append((name, obj.graph if hasattr(obj, "cells") else obj))
    out.append(("glue-preset-1", glue_preset(1).graph))
    return out


def test_value_functions_match_witness_solvers():
    assert set(VALUE_OF) == set(SOLVER_OF)
    solved = 0
    compatible_below_af = 0
    for name, g in _graphs():
        for m in enumerate_perfect_matchings(g):
            side, masks = edge_mask(m.edge_ids), alternating_cycle_masks(g, m)
            values = {}
            for family, value_fn in VALUE_OF.items():
                values[family] = value_fn(side, masks)
                size = SOLVER_OF[family](g, m)[0]
                assert values[family] == size, (name, m.edge_ids, family)
            compatible_below_af += values["compatible"] < values["af"]
            if g.color is not None:
                d = orient_and_contract(g, m)
                assert feedback_value(d) == min_feedback_arc_set(d)[0], (name, m.edge_ids)
            solved += 1
    assert solved > 300
    # the dodecahedron is not bipartite: c' < af on six of its matchings
    assert compatible_below_af == 6


def _reference_clar(h):
    """The strict `>` scan over per-matching witness solves."""
    best, witness = -1, None
    for m in enumerate_perfect_matchings(h.graph):
        alt = alternating_hexagons(h, m)
        conflicts = [
            sum(1 << j for j, d in enumerate(alt) if d in h.cell_adjacency[c]) for c in alt
        ]
        size, picked = exact.max_independent_indices(conflicts)
        if size > best:
            best, witness = size, (m, tuple(h.cells[alt[i]] for i in picked))
    return best, witness


def test_clar_number_matches_the_strict_scan():
    checked = 0
    for n in range(1, 6):
        for h in enumerate_hex_systems(n):
            if not enumerate_perfect_matchings(h.graph):
                continue
            assert clar_number(h) == _reference_clar(h), h.cells
            checked += 1
    assert checked > 100


def _clear_verify_caches():
    for value in vars(verify).values():
        if hasattr(value, "cache_clear"):
            value.cache_clear()


def _counted(monkeypatch, mod, attr):
    calls = []
    orig = getattr(mod, attr)

    def counted(*args, **kwargs):
        calls.append(args[:2])
        return orig(*args, **kwargs)

    monkeypatch.setattr(mod, attr, counted)
    return calls


def test_verify_enumerates_each_matchings_cycles_once(monkeypatch):
    # verify reads every per-instance fact through report.Profile
    derive_calls = _counted(monkeypatch, forcing, "all_alternating_cycle_masks")
    directed_calls = _counted(monkeypatch, antiforcing, "directed_cycle_masks")
    hitting_set_calls = _counted(monkeypatch, exact, "min_hitting_set")
    independent_calls = _counted(monkeypatch, exact, "max_independent_indices")
    _clear_verify_caches()
    try:
        assert verify.run_suite("thm9", max_cells=3).ok
        # af and c' are read from one derivation per graph, over all its matchings
        assert derive_calls and len(derive_calls) == len(set(derive_calls))
        assert all(pms == enumerate_perfect_matchings(g) for g, pms in derive_calls)
        assert not hitting_set_calls
        assert directed_calls
        del derive_calls[:], directed_calls[:]
        # a warm rerun reads af, c' and the feedback values off the cached profiles
        assert verify.run_suite("thm9", max_cells=3).ok
        assert not derive_calls and not directed_calls
        assert verify.run_suite("cor12", max_cells=3).ok
        assert not independent_calls
    finally:
        _clear_verify_caches()


def test_verify_reads_cached_families_for_a_subset(monkeypatch):
    derive_calls = _counted(monkeypatch, forcing, "all_alternating_cycle_masks")
    search_calls = _counted(monkeypatch, report, "enumerate_perfect_matchings")
    _clear_verify_caches()
    try:
        assert verify.run_suite("thm5", max_cells=4).ok
        # one derivation per instance, over all its matchings (told apart by
        # identity, as two distinct systems may share a graph)
        assert derive_calls and len(derive_calls) == len({id(g) for g, _ in derive_calls})
        del derive_calls[:]
        # thm3 reads f and thm11 reads af, both filled in by thm5's (f, af)
        assert verify.run_suite("thm3", max_cells=4).ok
        assert verify.run_suite("thm11", max_cells=4).ok
        assert not derive_calls
        # every instance was searched once, by thm5 (two distinct systems may
        # share a graph, so the graph objects are told apart by identity)
        assert search_calls and len(search_calls) == len({id(g) for g, _ in search_calls})
        del search_calls[:]
        assert verify.run_suite("cor12", max_cells=4).ok
        assert not search_calls
    finally:
        _clear_verify_caches()


def test_resonance_is_tested_only_where_it_is_read(monkeypatch, tmp_path):
    # the per-matching values never pay for the resonant hexagons; Clar and
    # Fries test them once per matching of each instance
    hexagon_calls = _counted(monkeypatch, hexsys, "alternating_hexagons")
    _clear_verify_caches()
    try:
        assert verify.run_suite("thm5", max_cells=4).ok
        path = tmp_path / "triphenylene.hex"
        path.write_text(serialize_instance(gen_named("triphenylene")))
        compute_report(path, ["f", "af"])
        assert not hexagon_calls
        assert verify.run_suite("thm3", max_cells=4).ok
        cap = graphs.DEFAULT_MATCHING_CAP
        profiles = [verify._profile(h, cap) for _, h in verify.polyhex_corpus(4)]
        assert hexagon_calls == [(p.obj, m) for p in profiles for m in p.pms]
        del hexagon_calls[:]
        assert verify.run_suite("cor12", max_cells=4).ok
        assert not hexagon_calls
    finally:
        _clear_verify_caches()


def test_catahex_suites_search_only_all_kink_catahexes(monkeypatch):
    search_calls = _counted(monkeypatch, report, "enumerate_perfect_matchings")
    _clear_verify_caches()
    try:
        assert verify.run_suite("thm14", max_cells=5).ok
        catahexes = [h for _, h in verify.polyhex_corpus(5) if is_all_kink_catahex(h)]
        assert len(catahexes) == 60 < len(verify.polyhex_corpus(5))
        assert [g for g, _ in search_calls] == [h.graph for h in catahexes]
        # thm15 reads the profiles thm14 filled in
        assert verify.run_suite("thm15", max_cells=5).ok
        assert len(search_calls) == len(catahexes)
    finally:
        _clear_verify_caches()


def test_thm20_reads_its_edge_labels_from_the_profile(monkeypatch):
    search_calls = _counted(monkeypatch, report, "enumerate_perfect_matchings")
    fixedness_calls = _counted(monkeypatch, graphs, "edge_fixedness")
    _clear_verify_caches()
    try:
        result = verify.run_suite("thm20", max_cells=5)
        assert result.ok and len(result.checks) > 2
        # one search per distinct instance, and no second enumeration for the labels
        instances = {h for _, h in verify.polyhex_corpus(5)}
        instances |= {build_hex_system(cells) for _, cells in verify._THM20_CONSTRUCTED}
        assert len(search_calls) == len(instances) == len({g for g, _ in search_calls})
        assert not fixedness_calls
    finally:
        _clear_verify_caches()


def test_equal_instances_hash_equal_and_share_one_profile():
    # each instance hashes its fields once; equal ones still hash equal, so
    # a truncated parallelogram built on its own reads the polyhex's profile
    h, same = (build_hex_system([(0, 0), (1, 0), (0, 1)]) for _ in range(2))
    assert h == same and h is not same and hash(h) == hash(same)
    assert h.graph == same.graph and h.graph is not same.graph
    g = h.graph
    assert hash(g) == hash(same.graph) == hash(graphs.Graph(g.n, g.edges, g.color))
    assert h != build_hex_system([(0, 0), (1, 0), (1, 1)])
    _clear_verify_caches()
    try:
        cap = graphs.DEFAULT_MATCHING_CAP
        polyhexes = {h: verify._profile(h, cap) for _, h in verify.polyhex_corpus(5)}
        tps = verify.tp_corpus(5)
        assert len(tps) == 18
        for _, tp in tps:
            assert verify._profile(tp, cap) is polyhexes[tp]
    finally:
        _clear_verify_caches()


def test_verify_reads_every_instance_fact_through_one_cached_profile():
    # a second cache or a direct enumeration in verify would bring back a
    # second implementation of the facts report.Profile computes
    with open(verify.__file__, encoding="utf-8") as f:
        tree = ast.parse(f.read())
    cached = [
        node.name
        for node in ast.walk(tree)
        if isinstance(node, ast.FunctionDef)
        and any("cache" in ast.unparse(d) for d in node.decorator_list)
    ]
    assert cached == ["_profile"]
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    used |= {n.attr for n in ast.walk(tree) if isinstance(n, ast.Attribute)}
    used |= {a.name for n in ast.walk(tree) if isinstance(n, ast.ImportFrom) for a in n.names}
    banned = {"alternating_cycle_masks", "alternating_hexagons", "VALUE_OF"}
    banned |= {"_max_independent", "_resonant_mask", "feedback_value", "orient_and_contract"}
    assert not used & banned


def test_one_value_table_and_one_loop_over_the_matchings():
    # graphs defines the masks' derivation over all matchings, and only
    # forcing.matching_values reads it; only forcing builds the family table
    namers, assigners = set(), set()
    for path in Path(graphs.__file__).parent.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            # a name, an attribute, a definition or an imported alias
            named = {getattr(node, a, None) for a in ("id", "attr", "name")}
            if "all_alternating_cycle_masks" in named:
                namers.add(path.name)
            if isinstance(node, (ast.Assign, ast.AnnAssign, ast.AugAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                if any("VALUE_OF" in ast.unparse(t) for t in targets):
                    assigners.add(path.name)
    assert namers == {"graphs.py", "forcing.py"}
    assert assigners == {"forcing.py"}


def _held(fn, module):
    """Bytes allocated in `module` by fn() that stay held with gc disabled."""
    where = [tracemalloc.Filter(True, module.__file__)]
    was_enabled = gc.isenabled()
    gc.disable()
    tracemalloc.start()
    try:
        before = tracemalloc.take_snapshot().filter_traces(where)
        fn()
        after = tracemalloc.take_snapshot().filter_traces(where)
    finally:
        tracemalloc.stop()
        if was_enabled:
            gc.enable()
    return sum(max(s.size_diff, 0) for s in after.compare_to(before, "lineno"))


def test_directed_cycle_enumeration_frees_its_cycles_without_gc():
    g = gen_named("triphenylene").graph
    pms = enumerate_perfect_matchings(g)
    d = orient_and_contract(g, max(pms, key=lambda m: len(enumerate_alternating_cycles(g, m))))
    assert len(enumerate_directed_cycles(d)) > 1
    assert _held(lambda: enumerate_directed_cycles(d), graphs) == 0


@pytest.mark.parametrize(
    "solve",
    [
        lambda: exact.min_hitting_size([0b110, 0b1100, 0b11000, 0b10010]),
        lambda: exact.min_hitting_set([{1, 2}, {2, 3}, {3, 4}, {4, 1}]),
        lambda: exact.max_independent_size([0b10, 0b101, 0b1010, 0b100]),
    ],
    ids=["min_hitting_size", "min_hitting_set", "max_independent_size"],
)
def test_exact_searches_free_their_closures_without_gc(solve):
    solve()
    assert _held(solve, exact) == 0


_COLD_RUN = """
import gc, sys, weakref
sys.path.insert(0, sys.argv[1])
from workloads import clear_caches
from matchforce import verify
from matchforce.hexsys import HexSystem
from matchforce.report import Profile

def run_all():
    for suite in verify.SUITE_IDS:
        assert verify.run_suite(suite, max_cells=3).ok, suite

run_all()
gc.collect()
first = [weakref.ref(o) for o in gc.get_objects() if isinstance(o, (HexSystem, Profile))]
clear_caches()
run_all()
gc.collect()
print(len(first), sum(ref() is not None for ref in first))
"""


def test_clearing_the_caches_frees_every_system_and_profile():
    # The benchmark's cold pass empties the package's functools caches; a cache
    # kept anywhere else would carry one run's systems and profiles into the
    # next.  A fresh interpreter holds no object of another test.
    perfbench = Path(__file__).resolve().parents[1] / "perfbench"
    done = subprocess.run(
        [sys.executable, "-c", _COLD_RUN, str(perfbench)],
        capture_output=True, text=True, timeout=300,
    )
    assert done.returncode == 0, done.stderr
    seen, survived = map(int, done.stdout.split())
    assert seen > 20 and survived == 0
