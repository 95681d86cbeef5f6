"""Invariant reports: stable serializable records with re-checkable witnesses."""

from __future__ import annotations

import hashlib
import json
import time
from functools import cached_property
from itertools import combinations
from pathlib import Path
from typing import Any, Callable

from .antiforcing import (
    VALUE_OF,
    anti_forcing_edges,
    antiforcing_number,
    is_antiforcing_set,
)
from .errors import (
    InapplicableInvariant,
    IntersectsM,
    NoPerfectMatching,
    NotPerfect,
    NotSubsetOfM,
)
from .forcing import Spectrum, forcing_number, is_forcing_set
from .graphs import (
    DEFAULT_CYCLE_CAP,
    DEFAULT_MATCHING_CAP,
    Graph,
    Matching,
    alternating_cycle_masks,
    count_perfect_matchings,
    enumerate_perfect_matchings,
    matching_partner,
)
from .hexsys import HexSystem, _clar_from, _fries_from, alternating_hexagons
from .io import load_instance, serialize_instance

SCHEMA_VERSION = 1

# family -> ((value, witness) of a matching, witness check, what a witness
#            must be); the value alone comes from VALUE_OF
_FAMILIES = {
    "f": (forcing_number, is_forcing_set, "a forcing set"),
    "af": (antiforcing_number, is_antiforcing_set, "an anti-forcing set"),
}

# invariant -> (family, extreme over the matchings, or None for the spectrum)
_PER_MATCHING = {
    "f": ("f", min),
    "F": ("f", max),
    "af": ("af", min),
    "Af": ("af", max),
    "f_spectrum": ("f", None),
    "af_spectrum": ("af", None),
}

# invariants read from each matching's alternating hexagons
_HEXAGONS = ("clar", "fries")


class _Call:
    """The instance and caps of one compute_report or replay call.

    The perfect matchings are enumerated once per call.  Each one is solved
    once: its alternating cycles' edge masks are enumerated once, every family
    the call's invariants need is read from them, and only those ints are
    kept; its alternating hexagons are found once for clar and fries together.
    Nothing outlives the call.
    """

    def __init__(self, kind: str, obj: Graph | HexSystem, caps: dict[str, int], names) -> None:
        self.kind = kind
        self.obj = obj
        self.graph = obj.graph if kind == "hex" else obj
        self.caps = caps
        wanted = {_PER_MATCHING[n][0] for n in names if n in _PER_MATCHING}
        self.families = tuple(f for f in _FAMILIES if f in wanted)
        # pm_count streams the count unless the matchings are enumerated anyway
        self.keeps_matchings = any(
            n in _PER_MATCHING or (kind == "hex" and n in _HEXAGONS) for n in names
        )

    @cached_property
    def pms(self) -> tuple[Matching, ...]:
        """Every perfect matching in canonical order, possibly none."""
        return enumerate_perfect_matchings(self.graph, self.caps["max_matchings"])

    @property
    def matchings(self) -> tuple[Matching, ...]:
        """The perfect matchings of an instance that must have at least one."""
        if not self.pms:
            raise NoPerfectMatching("graph has no perfect matching")
        return self.pms

    @cached_property
    def hexagons(self) -> tuple[tuple[int, ...], ...]:
        """Each matching's alternating hexagons, in matching order."""
        return tuple(alternating_hexagons(self.obj, m) for m in self.matchings)

    @cached_property
    def values(self) -> dict[str, tuple[int, ...]]:
        rows = []
        for m in self.matchings:
            masks = alternating_cycle_masks(self.graph, m, self.caps["max_cycles"])
            rows.append(tuple(VALUE_OF[f](self.graph, m, masks) for f in self.families))
        return dict(zip(self.families, zip(*rows)))


def _per_matching(family: str, extreme: Callable | None) -> Callable[[_Call], tuple]:
    number_fn = _FAMILIES[family][0]

    def invariant(call: _Call):
        values = call.values[family]
        if extreme is None:
            s = Spectrum(values)
            return {
                "values": list(s.values),
                "min": s.min,
                "max": s.max,
                "value_set": list(s.value_set),
            }, None
        # the first matching in canonical order to attain the extreme
        m = call.matchings[values.index(extreme(values))]
        value, witness = number_fn(call.graph, m, call.caps["max_cycles"])
        return value, {"matching": list(m.edge_ids), "edge_set": list(witness)}

    return invariant


def _inv_pm_count(call: _Call):
    if call.keeps_matchings:
        return len(call.pms), None
    return count_perfect_matchings(call.graph, call.caps["max_matchings"]), None


def _inv_clar(call: _Call):
    if call.kind != "hex":
        raise InapplicableInvariant("clar needs a hexagonal system")
    value, (m, cells) = _clar_from(call.obj, call.matchings, call.hexagons)
    return value, {"matching": list(m.edge_ids), "hexagons": [list(c) for c in cells]}


def _inv_fries(call: _Call):
    if call.kind != "hex":
        raise InapplicableInvariant("fries needs a hexagonal system")
    fr = _fries_from(call.obj, call.matchings, call.hexagons)
    value = {"max": fr.maximum, "min": fr.minimum}
    witness = {
        "max_matching": list(fr.max_witness[0].edge_ids),
        "max_hexagons": [list(c) for c in fr.max_witness[1]],
        "min_matching": list(fr.min_witness[0].edge_ids),
        "min_hexagons": [list(c) for c in fr.min_witness[1]],
    }
    return value, witness


def _inv_anti_forcing_edges(call: _Call):
    return list(anti_forcing_edges(call.graph)), None


REGISTRY: dict[str, Callable[[_Call], tuple]] = {
    "pm_count": _inv_pm_count,
    **{name: _per_matching(*spec) for name, spec in _PER_MATCHING.items()},
    "clar": _inv_clar,
    "fries": _inv_fries,
    "anti_forcing_edges": _inv_anti_forcing_edges,
}


def compute_report(
    path: str | Path,
    invariants: list[str],
    max_matchings: int = DEFAULT_MATCHING_CAP,
    max_cycles: int = DEFAULT_CYCLE_CAP,
) -> dict[str, Any]:
    kind, obj = load_instance(path)
    call = _Call(
        kind, obj, {"max_matchings": max_matchings, "max_cycles": max_cycles}, invariants
    )
    canonical = serialize_instance(obj)
    entries = []
    for name in invariants:
        if name not in REGISTRY:
            raise InapplicableInvariant(f"unknown invariant {name!r}")
        start = time.perf_counter()
        value, witness = REGISTRY[name](call)
        entries.append(
            {
                "name": name,
                "value": value,
                "witness": witness,
                "runtime_ms": round((time.perf_counter() - start) * 1000, 3),
            }
        )
    return {
        "schema": SCHEMA_VERSION,
        "instance": {
            "id": Path(path).stem,
            "kind": kind,
            "sha256": hashlib.sha256(canonical.encode()).hexdigest(),
        },
        "invariants": entries,
        "theorems": [],
    }


def dumps_report(report: dict[str, Any]) -> str:
    return json.dumps(report, indent=2, sort_keys=False) + "\n"


def _perfect(call: _Call, edge_ids) -> Matching | None:
    """The witness's matching, or None when it is no perfect matching of the instance."""
    m = Matching(edge_ids)
    try:
        matching_partner(call.graph, m)
    except NotPerfect:
        return None
    return m


def _check_witness(name: str, value, witness, call: _Call) -> list[str]:
    obj = call.obj
    if name in _PER_MATCHING:
        _, is_set, what = _FAMILIES[_PER_MATCHING[name][0]]
        m = _perfect(call, witness["matching"])
        s = witness["edge_set"]
        if m is None:
            return [f"{name}: witness matching is not a perfect matching"]
        if len(s) != value:
            return [f"{name}: witness size {len(s)} != {value}"]
        try:
            ok = is_set(call.graph, m, s)
        except (NotSubsetOfM, IntersectsM):  # edges on the wrong side of m
            ok = False
        return [] if ok else [f"{name}: witness is not {what}"]
    if name == "clar":
        m = _perfect(call, witness["matching"])
        cells = [obj.cell_index.get(tuple(c)) for c in witness["hexagons"]]
        if m is None:
            return ["clar: witness matching is not a perfect matching"]
        if None in cells or len(set(cells)) != len(cells):
            return ["clar: witness hexagons are not distinct cells of the system"]
        if any(b in obj.cell_adjacency[a] for a, b in combinations(cells, 2)):
            return ["clar: witness hexagons are not pairwise non-adjacent"]
        if len(cells) != value or not set(cells) <= set(alternating_hexagons(obj, m)):
            return ["clar: witness hexagons are not all alternating"]
        return []
    problems = []
    if name == "fries":
        for side in ("max", "min"):
            m = _perfect(call, witness[f"{side}_matching"])
            cells = {tuple(c) for c in witness[f"{side}_hexagons"]}
            if m is None:
                problems.append(f"fries: {side} witness matching is not a perfect matching")
                continue
            alt = {obj.cells[i] for i in alternating_hexagons(obj, m)}
            if cells != alt or len(cells) != value[side]:
                problems.append(f"fries: {side} witness does not re-validate")
    return problems


def replay(report: dict[str, Any], path: str | Path) -> list[str]:
    """Recompute a report against its instance; returns mismatch descriptions."""
    kind, obj = load_instance(path)
    problems = []
    canonical = serialize_instance(obj)
    digest = hashlib.sha256(canonical.encode()).hexdigest()
    if digest != report["instance"]["sha256"]:
        problems.append("instance hash differs from the report")
    caps = {"max_matchings": DEFAULT_MATCHING_CAP, "max_cycles": DEFAULT_CYCLE_CAP}
    call = _Call(kind, obj, caps, [e["name"] for e in report["invariants"]])
    for entry in report["invariants"]:
        name = entry["name"]
        if name not in REGISTRY:
            problems.append(f"unknown invariant {name!r}")
            continue
        value, _ = REGISTRY[name](call)
        if value != entry["value"]:
            problems.append(f"{name}: recomputed {value!r} != reported {entry['value']!r}")
        if entry.get("witness") is not None:
            try:
                problems += _check_witness(name, entry["value"], entry["witness"], call)
            except (KeyError, TypeError):  # a field missing or of the wrong type
                problems.append(f"{name}: malformed witness")
    return problems
