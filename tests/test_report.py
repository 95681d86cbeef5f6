"""Invariant reports against per-matching solves, work counts and memory.

compute_report enumerates the perfect matchings at most once per call,
solves each once and keeps only the values; on a hexagonal system pm_count,
clar and fries are swept, whatever else the call names.  These tests hold it
to the library's per-matching functions, count the enumerations it makes,
and bound its memory.
"""

import importlib
import json
import sys
import tracemalloc
from pathlib import Path

import pytest

from matchforce import exact, graphs, hexsys
from matchforce.antiforcing import antiforcing_number
from matchforce.errors import LimitExceeded, NoPerfectMatching
from matchforce.forcing import forcing_number
from matchforce.generators import (
    enumerate_hex_systems,
    gen_named,
    gen_truncated_parallelogram,
    glue_preset,
)
from matchforce.graphs import build_graph, enumerate_alternating_cycles, enumerate_perfect_matchings
from matchforce.io import serialize_instance
from matchforce.report import compute_report, replay
from test_hexsys import _hexagon

SIX = ["f", "F", "af", "Af", "f_spectrum", "af_spectrum"]


def _write(tmp_path, name, obj):
    suffix = ".hex" if hasattr(obj, "cells") else ".graph"
    path = tmp_path / (name + suffix)
    path.write_text(serialize_instance(obj))
    return path


def _graph(obj):
    return obj.graph if hasattr(obj, "cells") else obj


def _instances():
    out = [
        (f"polyhex-{n}-{i}", h)
        for n in range(1, 5)
        for i, h in enumerate(enumerate_hex_systems(n))
    ]
    out += [(name, gen_named(name)) for name in ("triphenylene", "dodecahedron", "C6")]
    out.append(("glue-preset-1", glue_preset(1)))
    return out


def _expected(g):
    """The six f/af invariants, built from one full solve per matching."""
    pms = enumerate_perfect_matchings(g)
    out = {}
    for family, number_fn in (("f", forcing_number), ("af", antiforcing_number)):
        solved = [number_fn(g, m) for m in pms]
        values = [v for v, _ in solved]
        for name, extreme in ((family, min), (family.capitalize(), max)):
            best = extreme(values)
            i = next(i for i, v in enumerate(values) if v == best)
            witness = {"matching": list(pms[i].edge_ids), "edge_set": list(solved[i][1])}
            out[name] = (best, witness)
        out[family + "_spectrum"] = ({
            "values": values,
            "min": min(values),
            "max": max(values),
            "value_set": sorted(set(values)),
        }, None)
    return out


def test_report_matches_per_matching_solves(tmp_path):
    instances = _instances()
    assert len(instances) == 59 + 4
    for name, obj in instances:
        path = _write(tmp_path, name, obj)
        if not enumerate_perfect_matchings(_graph(obj)):
            with pytest.raises(NoPerfectMatching):
                compute_report(path, SIX)
            continue
        report = compute_report(path, SIX)
        got = {e["name"]: (e["value"], e["witness"]) for e in report["invariants"]}
        assert got == _expected(_graph(obj)), name


def _count_calls(monkeypatch, orig):
    """Record the second argument of every call of orig, through every module binding."""
    calls = []

    def counted(*args, **kwargs):
        calls.append(args[1] if len(args) > 1 else None)
        return orig(*args, **kwargs)

    for key, mod in list(sys.modules.items()):
        if key == "matchforce" or key.startswith("matchforce."):
            for attr, value in list(vars(mod).items()):
                if value is orig:
                    monkeypatch.setattr(mod, attr, counted)
    return calls


@pytest.fixture
def alt_cycle_calls(monkeypatch):
    """Calls of the masks' derivation over all matchings, the kernel and the cycle builder."""
    return (
        _count_calls(monkeypatch, graphs.all_alternating_cycle_masks),
        _count_calls(monkeypatch, graphs.alternating_cycle_masks),
        _count_calls(monkeypatch, graphs.enumerate_alternating_cycles),
    )


def test_report_solves_each_matching_once_and_replay_recomputes(tmp_path, alt_cycle_calls):
    derive_calls, kernel_calls, cycle_calls = alt_cycle_calls
    obj = gen_named("triphenylene")
    pms = enumerate_perfect_matchings(obj.graph)
    path = _write(tmp_path, "triphenylene", obj)
    report = compute_report(path, SIX)
    # one derivation hands every matching its cycle masks once, for f and af
    # together; triphenylene's matchings are read off their pairs, not walked
    assert derive_calls == [pms]
    assert not kernel_calls
    # only the witness rebuilds, one for each of f, F, af, Af, build cycle objects
    assert len(cycle_calls) <= 4
    del derive_calls[:]
    assert replay(report, path) == []
    assert derive_calls == [pms]


def test_replay_builds_no_witness(tmp_path, monkeypatch):
    # replay recomputes each value and re-checks the reported witness; only
    # compute builds one, a forcing_number or antiforcing_number solve (one
    # cycle-object enumeration and one hitting set) for each of f, F, af, Af
    path = _write(tmp_path, "triphenylene", gen_named("triphenylene"))
    solves = [
        _count_calls(monkeypatch, fn)
        for fn in (graphs.enumerate_alternating_cycles, exact.min_hitting_set)
    ]
    report = compute_report(path, ["f", "F", "af", "Af"])
    assert [len(made) for made in solves] == [4, 4]
    for made in solves:
        del made[:]
    assert replay(report, path) == []
    assert solves == [[], []]


def _peak(fn):
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_report_memory_does_not_grow_with_cycles_of_all_matchings(tmp_path):
    obj = gen_named("dodecahedron")
    pms = enumerate_perfect_matchings(obj)
    counts = [len(enumerate_alternating_cycles(obj, m)) for m in pms]
    # retaining every matching's cycles would cost >= 20x the largest enumeration
    assert sum(counts) >= 20 * max(counts)
    largest = pms[counts.index(max(counts))]
    path = _write(tmp_path, "dodecahedron", obj)
    compute_report(path, SIX)  # first-call imports and caches stay out of the peak
    one = _peak(lambda: enumerate_alternating_cycles(obj, largest))
    whole = _peak(lambda: compute_report(path, SIX))
    assert whole <= 8 * one, (whole, one)


@pytest.fixture
def kekule_calls(monkeypatch):
    """Calls of the matching search, the count, its sweep, the resonance pass, the hexagon test."""
    return {
        name: _count_calls(monkeypatch, fn)
        for name, fn in (
            ("search", graphs.enumerate_perfect_matchings),
            ("count", graphs.count_perfect_matchings),
            ("steps", graphs._cover_steps),  # once per sweep, the count's or the resonance pass's
            ("resonance", hexsys._sweep_resonance),
            ("hexagons", hexsys.alternating_hexagons),
        )
    }


def _reset(calls):
    for made in calls.values():
        del made[:]


def test_kekule_report_sweeps_and_enumerates_no_matchings(tmp_path, kekule_calls):
    h = gen_truncated_parallelogram((3, 3, 2))
    n_pm = len(enumerate_perfect_matchings(h.graph))
    assert n_pm > 10
    path = _write(tmp_path, "tp-3-3-2", h)
    _reset(kekule_calls)
    report = compute_report(path, ["pm_count", "clar", "fries"])
    assert report["invariants"][0]["value"] == n_pm
    # pm_count, clar and fries all come from the frontier sweep; only its three
    # witness matchings (Clar, Fries maximum and minimum) have their hexagons tested
    assert not kekule_calls["search"] and len(kekule_calls["hexagons"]) == 3
    # pm_count alone asks the count, with no cap, and it sweeps once; one
    # resonance pass serves both clar and fries, and asks no count
    assert kekule_calls["count"] == [None]
    assert len(kekule_calls["steps"]) == 2 and len(kekule_calls["resonance"]) == 1
    _reset(kekule_calls)
    assert replay(report, path) == []
    assert not kekule_calls["search"] and len(kekule_calls["count"]) == 1
    assert len(kekule_calls["steps"]) == 2 and len(kekule_calls["resonance"]) == 1
    # the sweep's witnesses again, and the witness checks: one for clar and
    # one for each side of fries
    assert len(kekule_calls["hexagons"]) == 6


def test_kekule_report_with_a_per_matching_invariant_enumerates_once(tmp_path, kekule_calls):
    h = gen_truncated_parallelogram((3, 3, 2))
    path = _write(tmp_path, "tp-3-3-2", h)
    swept = compute_report(path, ["pm_count", "clar", "fries"])["invariants"]
    _reset(kekule_calls)
    report = compute_report(path, ["pm_count", "clar", "fries", "f"])
    # one search gives the matchings for f; pm_count, clar and fries still come
    # from one forward count and one resonance pass, whose three witness
    # matchings alone have their hexagons tested
    assert kekule_calls["search"] == [graphs.DEFAULT_MATCHING_CAP]
    assert len(kekule_calls["steps"]) == 2 and len(kekule_calls["resonance"]) == 1
    assert len(kekule_calls["hexagons"]) == 3 < len(enumerate_perfect_matchings(h.graph))
    # so the three equal the swept-only report's values and witnesses
    read = report["invariants"][:3]
    assert [(e["value"], e["witness"]) for e in read] == [(e["value"], e["witness"]) for e in swept]
    assert replay(report, path) == []


def test_pm_count_is_swept_once_per_load(tmp_path, kekule_calls):
    # on a graph and on a hexagonal system alike, the count sweeps forward
    # once per load, lists no matching, and the resonance pass does not run
    for name, value in (("dodecahedron", 36), ("triphenylene", 9)):
        path = _write(tmp_path, name, gen_named(name))
        _reset(kekule_calls)
        report = compute_report(path, ["pm_count"])
        assert report["invariants"][0]["value"] == value
        assert replay(report, path) == []
        assert not kekule_calls["search"] and not kekule_calls["resonance"]
        assert len(kekule_calls["count"]) == len(kekule_calls["steps"]) == 2
    # with a per-matching invariant in the call, the matchings are listed
    # for it, and pm_count is still the count
    path = _write(tmp_path, "dodecahedron", gen_named("dodecahedron"))
    _reset(kekule_calls)
    report = compute_report(path, ["pm_count", "f"])
    assert report["invariants"][0]["value"] == 36
    assert len(kekule_calls["search"]) == len(kekule_calls["count"]) == 1


def test_pm_count_is_zero_without_a_perfect_matching(tmp_path):
    h = next(h for h in enumerate_hex_systems(3) if not enumerate_perfect_matchings(h.graph))
    path = _write(tmp_path, "no-pm", h)
    report = compute_report(path, ["pm_count"])
    assert report["invariants"][0]["value"] == 0
    assert replay(report, path) == []
    # the other invariants reject a system with no perfect matching
    for other in ("f", "clar", "fries"):
        with pytest.raises(NoPerfectMatching):
            compute_report(path, ["pm_count", other])


def test_replay_describes_an_entry_it_cannot_recompute(tmp_path):
    # fries on a graph and clar without a perfect matching are one line each,
    # and the entries after them are still checked
    path = _write(tmp_path, "dodecahedron", gen_named("dodecahedron"))
    report = compute_report(path, ["pm_count"])
    report["invariants"].insert(0, {"name": "fries", "value": {"max": 1, "min": 1}})
    report["invariants"][1]["value"] = 35
    assert replay(report, path) == [
        "fries: cannot be recomputed: fries needs a hexagonal system",
        "pm_count: recomputed 36 != reported 35",
    ]
    h = next(h for h in enumerate_hex_systems(3) if not enumerate_perfect_matchings(h.graph))
    path = _write(tmp_path, "no-pm", h)
    report = compute_report(path, ["pm_count"])
    report["invariants"].insert(0, {"name": "clar", "value": 1, "witness": {"matching": []}})
    report["invariants"][1]["value"] = 1
    assert replay(report, path) == [
        "clar: cannot be recomputed: graph has no perfect matching",
        "pm_count: recomputed 0 != reported 1",
    ]


def test_replay_describes_a_cap_it_hits(tmp_path, monkeypatch):
    # a count past 10**6 takes no matching cap; a replay that meets the
    # state cap describes it
    path = _write(tmp_path, "hexagon-5", _hexagon(5))
    report = compute_report(path, ["pm_count"])
    assert report["invariants"][0]["value"] == 267227532
    monkeypatch.setattr(graphs, "FRONTIER_STATE_CAP", 100)
    assert replay(report, path) == [
        "pm_count: cannot be recomputed: frontier sweep holds 105 states at vertex 32 of 150, "
        "more than 100"
    ]


def test_a_per_matching_invariant_refuses_past_the_cap_before_listing(tmp_path, monkeypatch):
    # TP(5,5,5) has K = 56: the count refuses a cap of 10 with the listing's
    # own message, and nothing is listed
    path = _write(tmp_path, "tp-5-5-5", gen_truncated_parallelogram((5, 5, 5)))
    with pytest.raises(LimitExceeded) as listed:
        enumerate_perfect_matchings(gen_truncated_parallelogram((5, 5, 5)).graph, 10)
    searches = _count_calls(monkeypatch, graphs.enumerate_perfect_matchings)
    for name in SIX:
        with pytest.raises(LimitExceeded) as refused:
            compute_report(path, [name], max_matchings=10)
        assert str(refused.value) == str(listed.value) == "more than 10 perfect matchings"
    assert not searches
    # where the count stops at the state cap, the matchings are listed as before
    monkeypatch.setattr(graphs, "FRONTIER_STATE_CAP", 1)
    with pytest.raises(LimitExceeded, match="^more than 10 perfect matchings$"):
        compute_report(path, ["f"], max_matchings=10)
    assert searches == [10]
    assert compute_report(path, ["F"])["invariants"][0]["value"] == 3  # the Clar number


def _entry(report, name):
    return next(e for e in report["invariants"] if e["name"] == name)


@pytest.mark.parametrize(
    "tamper, line",
    [
        (
            lambda r: _entry(r, "clar")["witness"]["hexagons"].pop(),
            "clar: witness hexagons are not all alternating",
        ),
        (
            lambda r: _entry(r, "fries")["witness"]["max_hexagons"].pop(),
            "fries: max witness does not re-validate",
        ),
        (lambda r: r.update(invariants="x"), "malformed invariant list"),
        (None, "instance hash differs from the report"),  # replayed on TP(3,3)
    ],
    ids=["clar-cell", "fries-max-cell", "invariant-list", "other-instance"],
)
def test_replay_names_each_tampering_by_its_line(tmp_path, tamper, line):
    path = _write(tmp_path, "triphenylene", gen_named("triphenylene"))
    report = compute_report(path, ["clar", "fries"])
    if tamper is None:
        other = _write(tmp_path, "tp-3,3", gen_truncated_parallelogram((3, 3)))
        assert replay(report, other)[0] == line
    else:
        tamper(report)
        assert replay(report, path) == [line]


@pytest.mark.parametrize(
    "name, field, line",
    [
        ("f", "matching", "f: witness matching is not a perfect matching"),
        ("clar", "matching", "clar: witness matching is not a perfect matching"),
        ("fries", "max_hexagons", "fries: max witness does not re-validate"),
    ],
)
def test_replay_takes_no_repeated_entry_in_a_witness(tmp_path, name, field, line):
    # a matching's ids and a Fries witness's cells are sets: a repeat is no
    # perfect matching, and is not the resonant cells of one
    path = _write(tmp_path, "triphenylene", gen_named("triphenylene"))
    report = json.loads(json.dumps(compute_report(path, ["f", "clar", "fries"])))
    assert replay(report, path) == []
    items = _entry(report, name)["witness"][field]
    items.append(items[0])
    assert replay(report, path) == [line]


@pytest.mark.parametrize("reported", [True, 1.0])
def test_replay_tells_an_int_from_a_bool_or_a_float(tmp_path, reported):
    # K2's one perfect matching, reported as JSON true or 1.0
    path = _write(tmp_path, "k2", build_graph(2, [(0, 1)]))
    report = json.loads(json.dumps(compute_report(path, ["pm_count"])))
    assert replay(report, path) == []
    report["invariants"][0]["value"] = reported
    assert replay(report, path) == [f"pm_count: recomputed 1 != reported {reported!r}"]


def test_replay_tells_an_int_from_a_float_inside_a_value(tmp_path):
    # triphenylene's Fries numbers are 4 and 1; a float 4.0 for the 4 is one line
    path = _write(tmp_path, "triphenylene", gen_named("triphenylene"))
    report = json.loads(json.dumps(compute_report(path, ["fries"])))
    assert report["invariants"][0]["value"] == {"max": 4, "min": 1}
    report["invariants"][0]["value"]["max"] = 4.0
    assert replay(report, path) == [
        "fries: recomputed {'max': 4, 'min': 1} != reported {'max': 4.0, 'min': 1}"
    ]


@pytest.mark.parametrize(
    "name, field, new",
    [("Af", "matching", True), ("Af", "edge_set", False), ("clar", "hexagons", -1.0),
     ("fries", "max_hexagons", -1.0)],
)
def test_replay_takes_only_ints_inside_a_witness(tmp_path, name, field, new):
    # true, false and -1.0 compare equal to the 1, 0 and -1 they replace, so
    # only their type tells them apart
    path = _write(tmp_path, "triphenylene", gen_named("triphenylene"))
    report = json.loads(json.dumps(compute_report(path, ["Af", "clar", "fries"])))
    assert replay(report, path) == []
    items = _entry(report, name)["witness"][field]
    if isinstance(items[0], list):  # a hexagon's coordinates
        items = items[0]
    assert type(items[0]) is int and items[0] == new
    items[0] = new
    assert replay(report, path) == [f"{name}: malformed witness"]


@pytest.mark.parametrize("name", ["pm_count", "anti_forcing_edges"])
def test_replay_takes_no_witness_where_an_invariant_has_none(tmp_path, name):
    path = _write(tmp_path, "triphenylene", gen_named("triphenylene"))
    report = compute_report(path, [name])
    assert report["invariants"][0]["witness"] is None
    report["invariants"][0]["witness"] = {"anything": [1, 2]}
    assert replay(report, path) == [f"{name}: malformed witness"]


def test_every_name_the_benchmark_traces_exists(monkeypatch):
    # perfbench's tracer looks each name up when it installs, so a renamed
    # function would break the benchmark and nothing here
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "perfbench"))
    from tracer import LAYERS

    for layer, names in LAYERS.items():
        module = importlib.import_module(f"matchforce.{layer}")
        for name in names:
            assert callable(getattr(module, name, None)), f"{layer}.{name}"
