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
from .errors import IntersectsM, LimitExceeded
from .graphs import (
    ContractedDigraph,
    DEFAULT_CYCLE_CAP,
    DEFAULT_MATCHING_CAP,
    Graph,
    Matching,
    _bit_ids,
    _iter_perfect_matchings,
    _unique_matching,
    alternating_cycle_masks,
    count_perfect_matchings,
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

    Fix one perfect matching M.  Every perfect matching of g is M ⊕ U for
    one set U of pairwise vertex-disjoint M-alternating cycles (Lovász and
    Plummer, Matching Theory, 1986), and g − e keeps exactly those that
    avoid e.  An edge e outside M: M survives, and so does M ⊕ C for every
    cycle C that misses e, so e is anti-forcing iff it lies on every cycle.
    An edge e of M: M ⊕ U avoids e iff a cycle of U passes through e.  Two
    such cycles C, C' give M ⊕ C and M ⊕ C'; a lone C together with a cycle
    D vertex-disjoint from it gives M ⊕ C and M ⊕ (C ∪ D).  A cycle that
    meets C shares a vertex with it, so also that vertex's M edge.  So e is
    anti-forcing iff exactly one cycle C passes through it and every other
    cycle shares an M edge with C.  With no cycle M is g's only matching,
    and exactly the edges outside M are anti-forcing.

    M has at most K − 1 alternating cycles, K the number of perfect
    matchings (each gives its own M ⊕ C), while the per-edge route below
    runs at least n/2 pendant reductions.  So the cycles decide when
    K − 1 ≤ n/2, and on non-bipartite input, where a stalled reduction
    would also list matchings of g − e.  With K = 0 nothing is listed.
    Otherwise, and when the count exceeds its cap, each edge is tested by
    one pendant reduction of g without it; given two perfect matchings only
    their union is tested, since g − e keeps both for any other edge e.
    """
    try:
        k = count_perfect_matchings(g)
    except LimitExceeded:
        k = None
    if k == 0:
        return ()
    if k is not None and (g.color is None or 2 * (k - 1) <= g.n):
        m = Matching(next(_iter_perfect_matchings(g)))
        inside = edge_mask(m.edge_ids)
        cycles = alternating_cycle_masks(g, m, k)
        anti = (1 << g.m) - 1 & ~inside  # the edges outside M, while on every cycle
        once = twice = 0
        for c in cycles:
            anti &= c
            twice |= once & c
            once |= c
        single = once & ~twice & inside  # the M edges on exactly one cycle
        for c in cycles:
            own, shared = c & single, c & inside
            if own and all(d & shared for d in cycles):
                anti |= own
        return tuple(sorted(_bit_ids(anti)))
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
