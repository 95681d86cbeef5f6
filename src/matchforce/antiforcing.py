"""Anti-forcing sets, numbers, spectra, and compatible cycle families.

An anti-forcing set of a perfect matching is a set of non-matching edges
whose deletion leaves that matching as the unique one; equivalently, a set
meeting every alternating cycle from outside the matching.  The dual
packing object is the compatible alternating set: cycles pairwise disjoint
or overlapping only in matching edges.
"""

from __future__ import annotations

from . import exact
from .errors import IntersectsM, NoPerfectMatching
from .graphs import (
    AltCycle,
    ContractedDigraph,
    DEFAULT_CYCLE_CAP,
    DEFAULT_MATCHING_CAP,
    Graph,
    Matching,
    enumerate_alternating_cycles,
    enumerate_directed_cycles,
    enumerate_perfect_matchings,
    has_unique_perfect_matching,
    remove_edges,
)
from .forcing import (
    COMPATIBLE,
    CycleFamily,
    Spectrum,
    compatible_cycles,
    disjoint_value,
    forcing_value,
)


def is_antiforcing_set(
    g: Graph, m: Matching, edge_ids, max_cycles: int = DEFAULT_CYCLE_CAP
) -> bool:
    """Does the non-matching edge set meet every alternating cycle?"""
    s = frozenset(edge_ids)
    overlap = s & m.edge_set
    if overlap:
        raise IntersectsM(f"{sorted(overlap)} are matching edges")
    cycles = enumerate_alternating_cycles(g, m, max_cycles)
    return all(c.edge_ids & s for c in cycles)


def antiforcing_number(
    g: Graph, m: Matching, max_cycles: int = DEFAULT_CYCLE_CAP
) -> tuple[int, tuple[int, ...]]:
    """Exact anti-forcing number with its lexicographically least witness."""
    cycles = enumerate_alternating_cycles(g, m, max_cycles)
    return exact.min_hitting_set(c.edge_ids - m.edge_set for c in cycles)


def antiforcing_value(g: Graph, m: Matching, cycles: tuple[AltCycle, ...]) -> int:
    """Anti-forcing number of m from its alternating cycles, without a witness."""
    return exact.min_hitting_size(c.edge_ids - m.edge_set for c in cycles)


def max_compatible_alternating_set(
    g: Graph, m: Matching, max_cycles: int = DEFAULT_CYCLE_CAP
) -> tuple[int, CycleFamily]:
    """Largest cycle family pairwise disjoint or meeting only in m-edges."""
    cycles = enumerate_alternating_cycles(g, m, max_cycles)
    size, picked = exact.max_independent_indices(_compatible_conflicts(g, m, cycles))
    return size, CycleFamily(tuple(cycles[i] for i in picked), COMPATIBLE)


def compatible_value(g: Graph, m: Matching, cycles: tuple[AltCycle, ...]) -> int:
    """Size of max_compatible_alternating_set from m's cycles, without a witness."""
    return exact.max_independent_size(_compatible_conflicts(g, m, cycles))


def _compatible_conflicts(g: Graph, m: Matching, cycles: tuple[AltCycle, ...]) -> list[int]:
    conflicts = [0] * len(cycles)
    for i, a in enumerate(cycles):
        for j in range(i + 1, len(cycles)):
            if not compatible_cycles(g, m, a, cycles[j]):
                conflicts[i] |= 1 << j
                conflicts[j] |= 1 << i
    return conflicts


# family -> its value for one matching, read from that matching's alternating
# cycles; each equals the size its witness-returning solver reports
VALUE_OF = {
    "f": forcing_value,
    "af": antiforcing_value,
    "disjoint": disjoint_value,
    "compatible": compatible_value,
}


def antiforcing_spectrum(
    g: Graph,
    max_matchings: int = DEFAULT_MATCHING_CAP,
    max_cycles: int = DEFAULT_CYCLE_CAP,
) -> Spectrum:
    """af per perfect matching; min is af(G), max is Af(G)."""
    pms = enumerate_perfect_matchings(g, max_matchings)
    if not pms:
        raise NoPerfectMatching("graph has no perfect matching")
    return Spectrum(tuple(
        antiforcing_value(g, m, enumerate_alternating_cycles(g, m, max_cycles)) for m in pms
    ))


def anti_forcing_edges(g: Graph) -> tuple[int, ...]:
    """Edges whose sole deletion leaves a unique perfect matching."""
    out = []
    for eid in range(g.m):
        unique, _ = has_unique_perfect_matching(remove_edges(g, [eid]))
        if unique:
            out.append(eid)
    return tuple(out)


def min_feedback_arc_set(
    d: ContractedDigraph, max_cycles: int = DEFAULT_CYCLE_CAP
) -> tuple[int, tuple[int, ...]]:
    """Smallest arc set meeting every directed cycle, by exact hitting set."""
    cycles = enumerate_directed_cycles(d, max_cycles)
    return exact.min_hitting_set(c.arc_ids for c in cycles)


def feedback_value(d: ContractedDigraph, max_cycles: int = DEFAULT_CYCLE_CAP) -> int:
    """Size of min_feedback_arc_set, without a witness."""
    return exact.min_hitting_size(c.arc_ids for c in enumerate_directed_cycles(d, max_cycles))
