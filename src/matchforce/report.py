"""Invariant reports: stable serializable records with re-checkable witnesses."""

from __future__ import annotations

import hashlib
import json
import time
from functools import cached_property
from itertools import combinations
from pathlib import Path
from typing import Any, Callable

from . import exact
from .antiforcing import (
    anti_forcing_edges,
    antiforcing_number,
    feedback_value,
    is_antiforcing_set,
)
from .errors import (
    InapplicableInvariant,
    IntersectsM,
    LimitExceeded,
    NoPerfectMatching,
    NotPerfect,
    NotSubsetOfM,
)
from .forcing import Spectrum, forcing_number, is_forcing_set, matching_values
from .graphs import (
    DEFAULT_MATCHING_CAP,
    Graph,
    Matching,
    _fixedness,
    _too_many_matchings,
    count_perfect_matchings,
    edge_mask,
    enumerate_perfect_matchings,
    matching_partner,
    orient_and_contract,
)
from .hexsys import (
    HexSystem,
    _resonant_mask,
    alternating_hexagons,
    clar_number,
    fries_numbers,
    inner_dual,
    is_truncated_parallelogram,
    parallel_cuts,
)
from .io import load_instance, serialize_instance

SCHEMA_VERSION = 1

# family -> ((value, witness) of a matching, witness check, what a witness
#            must be); the value alone comes from forcing.VALUE_OF
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


class Profile:
    """The per-instance facts that every invariant and identity is read from.

    Each fact is computed once, when first asked for: the perfect matchings
    and their count, the edge labels, each matching's value of each
    forcing.VALUE_OF family, each matching's minimum feedback arc set on a
    bipartite graph, and the anti-forcing edges; on a hexagonal system also
    each matching's resonant cells, the Clar number, whether it is a
    truncated parallelogram, its maximal parallel cuts as edge masks and its
    inner dual.  The count and the anti-forcing edges list no matching.
    A matching's alternating cycles are never kept: a call of `values` that
    misses a family reads every missing family in one
    forcing.matching_values pass, which keeps only the values.  `feedback`
    comes from each matching's contraction (orient_and_contract), never
    from its alternating cycles, so thm9's third equality stays a check.

    `max_matchings` caps only what lists matchings: LimitExceeded past
    that many.  A report's per-matching invariant raises it before listing
    when the count is already past the cap (_refuse_past_the_cap).  It
    bounds each matching's alternating cycles too, since each M-alternating
    cycle C gives its own perfect matching M ⊕ C, so a matching has fewer
    cycles than there are matchings.  Where a single-matching
    solver meets a listed matching (`feedback`, on a contraction whose
    directed cycles are the alternating cycles one to one, and a report's f
    or af witness), its cycle cap is the number of matchings, never reached.

    Reports never read `resonant` or `clar`: pm_count is the frontier count
    (count_perfect_matchings) on every instance, and on a hexagonal system
    clar and fries come from the resonance sweep (clar_number,
    fries_numbers), whatever else the call names; the sweeps list no
    matching, so only graphs.FRONTIER_STATE_CAP bounds them.  `resonant`
    and `clar` are verify's value-only read-off for thm3, thm11, cor12,
    thm13 and thm15: on its polyhexes of at most 5 cells listing the
    matchings and reading them is cheaper than the sweep, and reading Clar
    and Fries off the sweep instead made a cold run of all 13 suites at 5
    cells about 13 % slower.
    """

    def __init__(self, obj: Graph | HexSystem, max_matchings: int = DEFAULT_MATCHING_CAP) -> None:
        self.obj = obj
        self.graph = obj.graph if isinstance(obj, HexSystem) else obj
        self.max_matchings = max_matchings
        self._values: dict[str, tuple[int, ...]] = {}

    @cached_property
    def pms(self) -> tuple[Matching, ...]:
        """Every perfect matching in canonical order, possibly none."""
        return enumerate_perfect_matchings(self.graph, self.max_matchings)

    @cached_property
    def pm_count(self) -> int:
        """The number of perfect matchings, by the frontier count, which lists none."""
        return count_perfect_matchings(self.graph)

    @property
    def matchings(self) -> tuple[Matching, ...]:
        """The perfect matchings of an instance that must have at least one."""
        if not self.pms:
            raise NoPerfectMatching("graph has no perfect matching")
        return self.pms

    @cached_property
    def resonant(self) -> tuple[int, ...]:
        """Each matching's resonant cells, bit c for cell c, in matching order."""
        return tuple(_resonant_mask(self.obj, m) for m in self.pms)

    @cached_property
    def labels(self) -> tuple[str, ...]:
        """Each edge's edge_fixedness label, read from the matchings."""
        return _fixedness(self.graph, (m.edge_ids for m in self.pms))

    @cached_property
    def clar(self) -> int:
        """The Clar number: the largest packing of one matching's resonant cells."""
        best = 0
        for mask in self.resonant:
            # a packing among k resonant cells cannot beat best when k <= best
            if mask.bit_count() > best:
                best = max(best, exact._max_independent(self.obj.cell_conflicts, mask)[0])
        return best

    @cached_property
    def feedback(self) -> tuple[int, ...]:
        """Each matching's minimum feedback arc set size on its contraction, in matching order."""
        g, cap = self.graph, len(self.pms)
        return tuple(feedback_value(orient_and_contract(g, m), cap) for m in self.pms)

    @cached_property
    def af_edges(self) -> tuple[int, ...]:
        """The edges whose sole deletion leaves a unique perfect matching (anti_forcing_edges)."""
        return anti_forcing_edges(self.graph)

    @cached_property
    def is_tp(self) -> bool:
        """Is the hexagonal system a truncated parallelogram (is_truncated_parallelogram)?"""
        return is_truncated_parallelogram(self.obj)[0]

    @cached_property
    def cut_masks(self) -> tuple[int, ...]:
        """The hexagonal system's maximal parallel cuts as edge masks, in parallel_cuts order."""
        return tuple(map(edge_mask, parallel_cuts(self.obj)))

    @cached_property
    def dual(self) -> Graph:
        """The hexagonal system's inner dual graph (inner_dual)."""
        return inner_dual(self.obj)

    def values(self, families: tuple[str, ...]) -> dict[str, tuple[int, ...]]:
        """Per-matching values of each named forcing.VALUE_OF family, in matching order."""
        missing = [f for f in families if f not in self._values]
        if missing:
            self._values.update(matching_values(self.graph, self.matchings, missing))
        return self._values


def _refuse_past_the_cap(p: Profile) -> None:
    """LimitExceeded at once when the count shows more matchings than p lists.

    The count lists none, so this raises what listing would raise after
    max_matchings matchings.  Where the count itself stops at
    FRONTIER_STATE_CAP, the listing decides.  Profile.pms does not ask, so
    verify pays no count for its listings.
    """
    try:
        k = p.pm_count
    except LimitExceeded:
        return
    if k > p.max_matchings:
        raise _too_many_matchings(p.max_matchings)


def _per_matching(family: str, extreme: Callable | None) -> Callable[[Profile, Any], tuple]:
    number_fn = _FAMILIES[family][0]

    def invariant(p: Profile, names):
        if family not in p._values:  # the first read of the family may list
            _refuse_past_the_cap(p)
        # one pass over the matchings fills in every family the call reads
        wanted = {_PER_MATCHING[n][0] for n in names if n in _PER_MATCHING}
        values = p.values(tuple(f for f in _FAMILIES if f in wanted))[family]
        if extreme is None:
            s = Spectrum(values)
            return {
                "values": list(s.values),
                "min": s.min,
                "max": s.max,
                "value_set": list(s.value_set),
            }, None
        # the first matching in canonical order to attain the extreme
        value = extreme(values)
        m = p.matchings[values.index(value)]
        return value, lambda: {
            "matching": list(m.edge_ids),
            "edge_set": list(number_fn(p.graph, m, len(p.pms))[1]),
        }

    return invariant


def _inv_pm_count(p: Profile, names):
    return p.pm_count, None


def _inv_clar(p: Profile, names):
    if not isinstance(p.obj, HexSystem):
        raise InapplicableInvariant("clar needs a hexagonal system")
    value, (m, cells) = clar_number(p.obj)
    return value, lambda: {"matching": list(m.edge_ids), "hexagons": [list(c) for c in cells]}


def _inv_fries(p: Profile, names):
    if not isinstance(p.obj, HexSystem):
        raise InapplicableInvariant("fries needs a hexagonal system")
    fr = fries_numbers(p.obj)
    return {"max": fr.maximum, "min": fr.minimum}, lambda: {
        "max_matching": list(fr.max_witness[0].edge_ids),
        "max_hexagons": [list(c) for c in fr.max_witness[1]],
        "min_matching": list(fr.min_witness[0].edge_ids),
        "min_hexagons": [list(c) for c in fr.min_witness[1]],
    }


def _inv_anti_forcing_edges(p: Profile, names):
    return list(p.af_edges), None


# name -> invariant(profile, names of every invariant in the call) -> (value,
# None or a function that builds the witness, which replay never calls)
REGISTRY: dict[str, Callable[[Profile, Any], tuple]] = {
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
) -> dict[str, Any]:
    kind, obj = load_instance(path)
    # a fresh profile per call: nothing is reused across calls or kept after one
    profile = Profile(obj, max_matchings)
    canonical = serialize_instance(obj)
    entries = []
    for name in invariants:
        if name not in REGISTRY:
            raise InapplicableInvariant(f"unknown invariant {name!r}")
        start = time.perf_counter()
        value, witness = REGISTRY[name](profile, invariants)
        entries.append(
            {
                "name": name,
                "value": value,
                "witness": witness() if witness else None,
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


def _ints(items) -> list[int]:
    """A witness's edge ids or cell coordinates; TypeError unless each is an int, not true or 1.0."""
    items = list(items)
    if any(type(x) is not int for x in items):
        raise TypeError("a witness holds a non-integer")
    return items


def _perfect(p: Profile, edge_ids) -> Matching | None:
    """The witness's matching, or None when it is no perfect matching of the instance."""
    edge_ids = _ints(edge_ids)
    m = Matching(edge_ids)
    if len(m) != len(edge_ids):  # Matching keeps a repeated id once
        return None
    try:
        matching_partner(p.graph, m)
    except NotPerfect:
        return None
    return m


def _check_witness(name: str, value, witness, p: Profile) -> list[str]:
    obj = p.obj
    if name in _PER_MATCHING:
        _, is_set, what = _FAMILIES[_PER_MATCHING[name][0]]
        m = _perfect(p, witness["matching"])
        s = _ints(witness["edge_set"])
        if m is None:
            return [f"{name}: witness matching is not a perfect matching"]
        if len(s) != value:
            return [f"{name}: witness size {len(s)} != {value}"]
        try:
            ok = is_set(p.graph, m, s)
        except (NotSubsetOfM, IntersectsM):  # edges on the wrong side of m
            ok = False
        return [] if ok else [f"{name}: witness is not {what}"]
    if name == "clar":
        m = _perfect(p, witness["matching"])
        cells = [obj.cell_index.get(tuple(_ints(c))) for c in witness["hexagons"]]
        if m is None:
            return ["clar: witness matching is not a perfect matching"]
        if None in cells or len(set(cells)) != len(cells):
            return ["clar: witness hexagons are not distinct cells of the system"]
        if any(b in obj.cell_adjacency[a] for a, b in combinations(cells, 2)):
            return ["clar: witness hexagons are not pairwise non-adjacent"]
        if len(cells) != value or not set(cells) <= set(alternating_hexagons(obj, m)):
            return ["clar: witness hexagons are not all alternating"]
        return []
    problems = []  # fries, the last invariant with a witness
    for side in ("max", "min"):
        m = _perfect(p, witness[f"{side}_matching"])
        cells = [tuple(_ints(c)) for c in witness[f"{side}_hexagons"]]
        if m is None:
            problems.append(f"fries: {side} witness matching is not a perfect matching")
            continue
        # sorted lists, not sets, so a repeated cell does not match
        alt = sorted(obj.cells[i] for i in alternating_hexagons(obj, m))
        if sorted(cells) != alt or len(alt) != value[side]:
            problems.append(f"fries: {side} witness does not re-validate")
    return problems


def _well_formed(entry) -> bool:
    """Is a report entry a dict with a string name and a value?"""
    return isinstance(entry, dict) and isinstance(entry.get("name"), str) and "value" in entry


def replay(report: dict[str, Any], path: str | Path) -> list[str]:
    """Recompute a report against its instance; returns mismatch descriptions.

    A malformed report, record, entry or witness, or an entry that cannot be
    recomputed on the instance (fries on a graph), is one more description.
    """
    _, obj = load_instance(path)
    if not isinstance(report, dict):  # a list or a string read from a report file
        return ["malformed report"]
    problems = []
    canonical = serialize_instance(obj)
    digest = hashlib.sha256(canonical.encode()).hexdigest()
    instance = report.get("instance")
    if not isinstance(instance, dict) or "sha256" not in instance:
        problems.append("malformed instance record")
    elif digest != instance["sha256"]:
        problems.append("instance hash differs from the report")
    profile = Profile(obj)
    entries = report.get("invariants")
    if not isinstance(entries, list):
        problems.append("malformed invariant list")
        entries = []
    names = [e["name"] for e in entries if _well_formed(e)]
    for i, entry in enumerate(entries):
        if not _well_formed(entry):
            problems.append(f"invariant entry {i}: malformed")
            continue
        name = entry["name"]
        if name not in REGISTRY:
            problems.append(f"unknown invariant {name!r}")
            continue
        try:
            value, builder = REGISTRY[name](profile, names)
        except (InapplicableInvariant, LimitExceeded, NoPerfectMatching) as e:
            problems.append(f"{name}: cannot be recomputed: {e}")
            continue
        # as JSON, so that true or 1.0 does not pass for 1
        if json.dumps(value, sort_keys=True) != json.dumps(entry["value"], sort_keys=True):
            problems.append(f"{name}: recomputed {value!r} != reported {entry['value']!r}")
        if entry.get("witness") is not None and builder is None:  # it must carry null
            problems.append(f"{name}: malformed witness")
        elif entry.get("witness") is not None:
            try:
                problems += _check_witness(name, entry["value"], entry["witness"], profile)
            except (KeyError, TypeError):  # a field missing or of the wrong type
                problems.append(f"{name}: malformed witness")
    return problems
