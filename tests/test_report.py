"""Invariant reports against per-matching solves, work counts and memory.

compute_report enumerates the perfect matchings once per call, solves each
once and keeps only the values; these tests hold it to the library's
per-matching functions, count the enumerations it makes, and bound its
memory.
"""

import sys
import tracemalloc

import pytest

from matchforce import graphs, hexsys
from matchforce.antiforcing import antiforcing_number
from matchforce.errors import NoPerfectMatching
from matchforce.forcing import forcing_number
from matchforce.generators import (
    enumerate_hex_systems,
    gen_named,
    gen_truncated_parallelogram,
    glue_preset,
)
from matchforce.graphs import enumerate_alternating_cycles, enumerate_perfect_matchings
from matchforce.hexsys import edge_weights
from matchforce.io import serialize_instance
from matchforce.report import compute_report, replay

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
    """Calls of the cycle kernel's mask entry point, and of the cycle-object builder."""
    return (
        _count_calls(monkeypatch, graphs.alternating_cycle_masks),
        _count_calls(monkeypatch, graphs.enumerate_alternating_cycles),
    )


def test_report_solves_each_matching_once_and_replay_recomputes(tmp_path, alt_cycle_calls):
    mask_calls, cycle_calls = alt_cycle_calls
    obj = gen_named("triphenylene")
    n_pm = len(enumerate_perfect_matchings(obj.graph))
    path = _write(tmp_path, "triphenylene", obj)
    report = compute_report(path, SIX)
    # one solve per matching, plus one witness rebuild for each of f, F, af, Af
    assert len(mask_calls) + len(cycle_calls) <= n_pm + 4
    assert set(mask_calls) == set(enumerate_perfect_matchings(obj.graph))
    # only the witness rebuilds build cycle objects
    assert len(cycle_calls) <= 4
    del mask_calls[:]
    assert replay(report, path) == []
    assert len(mask_calls) >= n_pm


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
    """Calls of the matching search, the streamed count and the one-matching hexagon check."""
    return {
        name: _count_calls(monkeypatch, fn)
        for name, fn in (
            ("search", graphs.weighted_perfect_matchings),
            ("count", graphs.count_perfect_matchings),
            ("hexagons", hexsys.alternating_hexagons),
        )
    }


def _reset(calls):
    for made in calls.values():
        del made[:]


def test_kekule_report_enumerates_matchings_once_per_call(tmp_path, kekule_calls):
    h = gen_truncated_parallelogram((3, 3, 2))
    n_pm = len(enumerate_perfect_matchings(h.graph))
    assert n_pm > 10
    path = _write(tmp_path, "tp-3-3-2", h)
    _reset(kekule_calls)
    report = compute_report(path, ["pm_count", "clar", "fries"])
    assert report["invariants"][0]["value"] == n_pm
    # one weighted search gives the matchings and every one's resonant hexagons
    assert len(kekule_calls["search"]) == 1 and not kekule_calls["count"]
    assert kekule_calls["search"] == [edge_weights(h)]
    assert not kekule_calls["hexagons"]
    _reset(kekule_calls)
    assert replay(report, path) == []
    assert len(kekule_calls["search"]) == 1 and not kekule_calls["count"]
    # only the witness checks: one for clar and one for each side of fries
    assert len(kekule_calls["hexagons"]) <= 3


def test_pm_count_alone_streams_the_count(tmp_path, kekule_calls):
    path = _write(tmp_path, "triphenylene", gen_named("triphenylene"))
    _reset(kekule_calls)
    report = compute_report(path, ["pm_count"])
    assert report["invariants"][0]["value"] == 9
    assert replay(report, path) == []
    assert not kekule_calls["search"] and len(kekule_calls["count"]) == 2


def test_pm_count_is_zero_without_a_perfect_matching(tmp_path):
    h = next(h for h in enumerate_hex_systems(3) if not enumerate_perfect_matchings(h.graph))
    path = _write(tmp_path, "no-pm", h)
    report = compute_report(path, ["pm_count"])
    assert report["invariants"][0]["value"] == 0
    assert replay(report, path) == []
    # with other invariants it reads the empty enumeration, which they reject
    for other in ("f", "clar", "fries"):
        with pytest.raises(NoPerfectMatching):
            compute_report(path, ["pm_count", other])
