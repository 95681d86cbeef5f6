"""Forcing sets, forcing numbers and spectra, disjoint cycle packings.

A forcing set of a perfect matching is a subset of it contained in no other
perfect matching; equivalently, one meeting every alternating cycle.  The
forcing number is the smallest such set, computed here as an exact minimum
hitting set over the enumerated alternating cycles.
"""

from __future__ import annotations

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


def forcing_value(g: Graph, m: Matching, masks: tuple[int, ...]) -> int:
    """Forcing number of m from its alternating cycles' edge masks, without a witness."""
    side = edge_mask(m.edge_ids)
    return exact.min_hitting_size(c & side for c in masks)


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


def disjoint_value(g: Graph, m: Matching, masks: tuple[int, ...]) -> int:
    """Size of max_disjoint_alternating_cycles from m's cycle masks, without a witness."""
    return exact.max_independent_size(exact.overlap_conflicts(masks, edge_mask(m.edge_ids)))


def forcing_spectrum(
    g: Graph,
    max_matchings: int = DEFAULT_MATCHING_CAP,
    max_cycles: int = DEFAULT_CYCLE_CAP,
) -> Spectrum:
    """f per perfect matching; min is f(G), max is F(G)."""
    return value_spectrum(forcing_value, g, max_matchings, max_cycles)


def value_spectrum(value_fn, g: Graph, max_matchings: int, max_cycles: int) -> Spectrum:
    """value_fn(g, m, masks) of every perfect matching m, from its cycles' edge masks."""
    pms = enumerate_perfect_matchings(g, max_matchings)
    if not pms:
        raise NoPerfectMatching("graph has no perfect matching")
    rows = all_alternating_cycle_masks(g, pms, max_cycles)
    return Spectrum(tuple(value_fn(g, m, masks) for m, masks in zip(pms, rows)))
