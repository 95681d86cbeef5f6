"""Forcing sets, forcing numbers and spectra, disjoint cycle packings.

A forcing set of a perfect matching is a subset of it contained in no other
perfect matching; equivalently, one meeting every alternating cycle.  The
forcing number is the smallest such set, computed here as an exact minimum
hitting set over the enumerated alternating cycles.

Every per-matching value without a witness is read here, from the edge
masks of the matching's alternating cycles: VALUE_OF is the one table of
families (f, af, disjoint, compatible), and matching_values the one loop
that reads them for every perfect matching of a graph.
"""

from __future__ import annotations

from collections.abc import Iterable, Sequence
from dataclasses import dataclass
from functools import cached_property
from itertools import combinations

from . import exact
from .errors import NoPerfectMatching, NotSubsetOfM
from .graphs import (
    AltCycle,
    DEFAULT_CYCLE_CAP,
    DEFAULT_MATCHING_CAP,
    Graph,
    Matching,
    _unique_matching,
    all_alternating_cycle_masks,
    edge_mask,
    enumerate_alternating_cycles,
    enumerate_perfect_matchings,
    matching_partner,
)

DISJOINT = "disjoint"
COMPATIBLE = "compatible"


@dataclass(frozen=True)
class CycleFamily:
    """A family of alternating cycles under a pairwise-intersection rule.

    mode "disjoint": members share no vertex.  mode "compatible": members
    may only overlap in matching edges (every shared vertex must lie on a
    shared matching edge).
    """

    cycles: tuple[AltCycle, ...]
    mode: str

    def __len__(self) -> int:
        return len(self.cycles)

    def is_valid(self, g: Graph, m: Matching) -> bool:
        if self.mode == DISJOINT:
            return all(not a.vertex_set & b.vertex_set for a, b in combinations(self.cycles, 2))
        return all(compatible_cycles(g, m, a, b) for a, b in combinations(self.cycles, 2))


def compatible_cycles(g: Graph, m: Matching, a: AltCycle, b: AltCycle) -> bool:
    """True when two alternating cycles are disjoint or meet only in m-edges."""
    shared_edges = a.edge_ids & b.edge_ids
    if not shared_edges <= m.edge_set:
        return False
    shared_vertices = a.vertex_set & b.vertex_set
    if not shared_vertices:
        return True
    covered: set[int] = set()
    for eid in shared_edges:
        covered.update(g.edges[eid])
    return shared_vertices <= covered


@dataclass(frozen=True)
class Spectrum:
    """Per-matching invariant values, indexed like the canonical enumeration."""

    values: tuple[int, ...]

    @cached_property
    def min(self) -> int:
        return min(self.values)

    @cached_property
    def max(self) -> int:
        return max(self.values)

    @cached_property
    def value_set(self) -> tuple[int, ...]:
        return tuple(sorted(set(self.values)))


def is_forcing_set(g: Graph, m: Matching, edge_ids) -> bool:
    """Is m the only perfect matching that contains this subset of m?

    The perfect matchings containing it are those of g once every other
    edge at its ends is deleted, so _unique_matching decides it.
    """
    s = frozenset(edge_ids)
    if not s <= m.edge_set:
        raise NotSubsetOfM(f"{sorted(s - m.edge_set)} are not matching edges")
    matching_partner(g, m)  # raises NotPerfect
    ends = {x for e in s for x in g.edges[e]}
    return _unique_matching(g, {e for x in ends for _, e in g.adjacency[x]} - s) is not None


def forcing_number(
    g: Graph, m: Matching, max_cycles: int = DEFAULT_CYCLE_CAP
) -> tuple[int, tuple[int, ...]]:
    """Exact forcing number with its lexicographically least witness."""
    cycles = enumerate_alternating_cycles(g, m, max_cycles)
    return exact.min_hitting_set(c.edge_ids & m.edge_set for c in cycles)


def max_disjoint_alternating_cycles(
    g: Graph, m: Matching, max_cycles: int = DEFAULT_CYCLE_CAP
) -> tuple[int, CycleFamily]:
    """Largest family of pairwise vertex-disjoint alternating cycles."""
    cycles = enumerate_alternating_cycles(g, m, max_cycles)
    masks = [edge_mask(c.edge_ids) for c in cycles]
    # disjoint cycles share no m-edge
    conflicts = exact.overlap_conflicts(masks, edge_mask(m.edge_ids))
    size, picked = exact.max_independent_indices(conflicts)
    return size, CycleFamily(tuple(cycles[i] for i in picked), DISJOINT)


# family -> its value for one matching, from the matching's edge mask and its
# alternating cycles' edge masks; each equals the size its witness solver
# reports.  f and af hit every cycle's part in M, or outside M; disjoint and
# compatible pack cycles whose parts in M, or outside M, do not meet.
VALUE_OF = {
    "f": lambda m, masks: exact.min_hitting_size(c & m for c in masks),
    "af": lambda m, masks: exact.min_hitting_size(c & ~m for c in masks),
    "disjoint": lambda m, masks: exact.max_independent_size(exact.overlap_conflicts(masks, m)),
    "compatible": lambda m, masks: exact.max_independent_size(exact.overlap_conflicts(masks, ~m)),
}


def matching_values(
    g: Graph, pms: Sequence[Matching], families: Iterable[str]
) -> dict[str, tuple[int, ...]]:
    """Each named VALUE_OF family's value of every matching in pms, in order.

    pms lists every perfect matching of g.  One all_alternating_cycle_masks
    pass hands out each matching's cycle masks, and every family reads them
    before the next matching's are built, so only the values are kept.
    """
    columns: dict[str, list[int]] = {f: [] for f in families}
    for m, masks in zip(pms, all_alternating_cycle_masks(g, pms)):
        side = edge_mask(m.edge_ids)
        for f, column in columns.items():
            column.append(VALUE_OF[f](side, masks))
    return {f: tuple(column) for f, column in columns.items()}


def forcing_spectrum(g: Graph, max_matchings: int = DEFAULT_MATCHING_CAP) -> Spectrum:
    """f per perfect matching; min is f(G), max is F(G)."""
    return value_spectrum("f", g, max_matchings)


def value_spectrum(family: str, g: Graph, max_matchings: int) -> Spectrum:
    """The VALUE_OF family's value of every perfect matching of g, in canonical order."""
    pms = enumerate_perfect_matchings(g, max_matchings)
    if not pms:
        raise NoPerfectMatching("graph has no perfect matching")
    return Spectrum(matching_values(g, pms, (family,))[family])
