"""Anti-forcing sets, numbers, spectra, and compatible cycle families.

An anti-forcing set of a perfect matching is a set of non-matching edges
whose deletion leaves that matching as the unique one; equivalently, a set
meeting every alternating cycle from outside the matching.  The dual
packing object is the compatible alternating set: cycles pairwise disjoint
or overlapping only in matching edges.
"""

from __future__ import annotations

from itertools import islice

from . import exact
from .errors import IntersectsM
from .graphs import (
    ContractedDigraph,
    DEFAULT_CYCLE_CAP,
    DEFAULT_MATCHING_CAP,
    Graph,
    Matching,
    _iter_perfect_matchings,
    _unique_matching,
    directed_cycle_masks,
    edge_mask,
    enumerate_alternating_cycles,
    enumerate_directed_cycles,
    matching_partner,
)
from .forcing import COMPATIBLE, CycleFamily, Spectrum, value_spectrum


def is_antiforcing_set(g: Graph, m: Matching, edge_ids) -> bool:
    """Is m the unique perfect matching once these non-matching edges are deleted?"""
    s = frozenset(edge_ids)
    overlap = s & m.edge_set
    if overlap:
        raise IntersectsM(f"{sorted(overlap)} are matching edges")
    matching_partner(g, m)  # raises NotPerfect
    # ids outside the graph delete nothing
    return _unique_matching(g, {e for e in s if e in range(g.m)}) is not None


def antiforcing_number(
    g: Graph, m: Matching, max_cycles: int = DEFAULT_CYCLE_CAP
) -> tuple[int, tuple[int, ...]]:
    """Exact anti-forcing number with its lexicographically least witness."""
    cycles = enumerate_alternating_cycles(g, m, max_cycles)
    return exact.min_hitting_set(c.edge_ids - m.edge_set for c in cycles)


def max_compatible_alternating_set(
    g: Graph, m: Matching, max_cycles: int = DEFAULT_CYCLE_CAP
) -> tuple[int, CycleFamily]:
    """Largest cycle family pairwise disjoint or meeting only in m-edges."""
    cycles = enumerate_alternating_cycles(g, m, max_cycles)
    masks = [edge_mask(c.edge_ids) for c in cycles]
    # compatible cycles share no edge off m
    conflicts = exact.overlap_conflicts(masks, ~edge_mask(m.edge_ids))
    size, picked = exact.max_independent_indices(conflicts)
    return size, CycleFamily(tuple(cycles[i] for i in picked), COMPATIBLE)


def antiforcing_spectrum(g: Graph, max_matchings: int = DEFAULT_MATCHING_CAP) -> Spectrum:
    """af per perfect matching; min is af(G), max is Af(G)."""
    return value_spectrum("af", g, max_matchings)


def anti_forcing_edges(g: Graph) -> tuple[int, ...]:
    """Edges whose sole deletion leaves a unique perfect matching.

    Each edge tested costs one pendant reduction of g without it.  Given two
    perfect matchings, only their union is tested: g − e keeps both for any
    other edge e, which so is not anti-forcing.
    """
    first_two = list(islice(_iter_perfect_matchings(g), 2))
    tested = sorted(set().union(*first_two)) if len(first_two) == 2 else range(g.m)
    return tuple(e for e in tested if _unique_matching(g, (e,)) is not None)


def min_feedback_arc_set(
    d: ContractedDigraph, max_cycles: int = DEFAULT_CYCLE_CAP
) -> tuple[int, tuple[int, ...]]:
    """Smallest arc set meeting every directed cycle, by exact hitting set."""
    cycles = enumerate_directed_cycles(d, max_cycles)
    return exact.min_hitting_set(c.arc_ids for c in cycles)


def feedback_value(d: ContractedDigraph, max_cycles: int = DEFAULT_CYCLE_CAP) -> int:
    """Size of min_feedback_arc_set, without a witness."""
    return exact.min_hitting_size(directed_cycle_masks(d, max_cycles))
