"""Hexagonal systems built from axial cell coordinates on an integer lattice.

Lattice convention (all integer, no floating point):
  * a cell (q, r) has center key (2q + r, 3r);
  * its six corner keys are the center plus, in cyclic order,
    (1, 1), (0, 2), (-1, 1), (-1, -1), (0, -2), (1, -1);
  * edge-adjacent cells share exactly two corner keys, and the hexagons are
    "pointy-top": one edge direction is vertical.

Corner keys never have y divisible by 3, so `y mod 3 == 2` is a proper
2-coloring with every top corner (local y-maximum) black.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, NamedTuple

from . import exact
from .errors import (
    Disconnected,
    HasHole,
    MatchforceError,
    NoPerfectMatching,
    NotATree,
    NotAValidCut,
)
from .graphs import (
    BLACK,
    DEFAULT_MATCHING_CAP,
    FREE,
    Graph,
    Matching,
    WHITE,
    _reach,
    build_graph,
    edge_fixedness,
    edge_mask,
    normal_components,
    weighted_perfect_matchings,
)

Cell = tuple[int, int]
VertexKey = tuple[int, int]

CORNER_OFFSETS: tuple[VertexKey, ...] = (
    (1, 1), (0, 2), (-1, 1), (-1, -1), (0, -2), (1, -1),
)

# neighbor offset across the edge between corners i and i+1 (mod 6)
EDGE_NEIGHBOR: tuple[Cell, ...] = (
    (0, 1), (-1, 1), (-1, 0), (0, -1), (1, -1), (1, 0),
)

NEIGHBOR_OFFSETS = EDGE_NEIGHBOR


def cell_center(cell: Cell) -> VertexKey:
    q, r = cell
    return (2 * q + r, 3 * r)


def cell_corners(cell: Cell) -> tuple[VertexKey, ...]:
    cx, cy = cell_center(cell)
    return tuple((cx + dx, cy + dy) for dx, dy in CORNER_OFFSETS)


def transform_cell(cell: Cell, symmetry: int) -> Cell:
    """Apply one of the 12 lattice symmetries (0-5 rotations, 6-11 mirrored).

    The cell goes to cube coordinates (q, -q - r, r), turns there, and comes
    back as the first and last of them.
    """
    q, r = cell
    x, y, z = q, -q - r, r
    if symmetry >= 6:
        y, z = z, y
    for _ in range(symmetry % 6):
        x, y, z = -z, -x, -y
    return (x, z)


@dataclass(frozen=True)
class HexSystem:
    """A connected, hole-free set of hexagonal cells plus its derived graph."""

    cells: tuple[Cell, ...]
    graph: Graph
    vertex_keys: tuple[VertexKey, ...]
    face_vertices: tuple[tuple[int, ...], ...]
    face_edges: tuple[tuple[int, ...], ...]
    boundary_edges: frozenset[int]

    @property
    def n_cells(self) -> int:
        return len(self.cells)

    @cached_property
    def cell_index(self) -> dict[Cell, int]:
        return {c: i for i, c in enumerate(self.cells)}

    @cached_property
    def edge_cells(self) -> tuple[tuple[int, ...], ...]:
        """Per edge id: indices of the (one or two) cells it borders."""
        owners: list[list[int]] = [[] for _ in range(self.graph.m)]
        for ci, eids in enumerate(self.face_edges):
            for eid in eids:
                owners[eid].append(ci)
        return tuple(tuple(o) for o in owners)

    @cached_property
    def cell_adjacency(self) -> tuple[tuple[int, ...], ...]:
        adj: list[set[int]] = [set() for _ in range(self.n_cells)]
        for owners in self.edge_cells:
            if len(owners) == 2:
                a, b = owners
                adj[a].add(b)
                adj[b].add(a)
        return tuple(tuple(sorted(a)) for a in adj)

    @cached_property
    def cell_conflicts(self) -> tuple[int, ...]:
        """Per bit 2c: the bits 2d of the cells d adjacent to cell c (0 at odd bits)."""
        out = [0] * (2 * self.n_cells)
        for c, nbrs in enumerate(self.cell_adjacency):
            out[2 * c] = sum(1 << 2 * d for d in nbrs)
        return tuple(out)

    @cached_property
    def cell_edge_masks(self) -> tuple[tuple[int, int, int], ...]:
        """Per cell: bitmasks over edge ids of its even-position, odd-position and all six edges."""
        out = []
        for fe in self.face_edges:
            even, odd = edge_mask(fe[0::2]), edge_mask(fe[1::2])
            out.append((even, odd, even | odd))
        return tuple(out)


@dataclass(frozen=True)
class InnerDual:
    """One node per cell, adjacency between cells sharing a lattice edge."""

    graph: Graph
    cells: tuple[Cell, ...]

    @property
    def is_tree(self) -> bool:
        return self.graph.m == self.graph.n - 1 and _connected_nodes(self.graph)


class FriesNumbers(NamedTuple):
    maximum: int
    minimum: int
    max_witness: tuple[Matching, tuple[Cell, ...]]
    min_witness: tuple[Matching, tuple[Cell, ...]]


def _connected_nodes(g: Graph) -> bool:
    return g.n > 0 and len(_reach(0, lambda u: (w for w, _ in g.adjacency[u]))) == g.n


def _check_cells_connected(cells: set[Cell]) -> None:
    def neighbours(cell: Cell) -> list[Cell]:
        q, r = cell
        return [nb for dq, dr in NEIGHBOR_OFFSETS if (nb := (q + dq, r + dr)) in cells]

    seen = _reach(min(cells), neighbours)
    if len(seen) != len(cells):
        missing = sorted(cells - seen)
        raise Disconnected(f"cell set is not edge-connected; unreachable: {missing}")


def build_hex_system(cells: Iterable[Cell]) -> HexSystem:
    """Derive the vertex/edge graph of a cell set, with validation.

    Cells must be nonempty, connected through shared edges, and hole-free:
    the number of bounded faces of the derived graph must equal the number
    of cells.
    """
    cell_list = tuple(sorted({(int(q), int(r)) for q, r in cells}))
    if not cell_list:
        raise Disconnected("empty cell set")
    _check_cells_connected(set(cell_list))

    keys = sorted({k for c in cell_list for k in cell_corners(c)})
    key_index = {k: i for i, k in enumerate(keys)}

    edge_index: dict[tuple[int, int], int] = {}
    edges: list[tuple[int, int]] = []
    face_vertices = []
    face_edge_keys = []
    for c in cell_list:
        corners = [key_index[k] for k in cell_corners(c)]
        face_vertices.append(tuple(corners))
        fe = []
        for i in range(6):
            u, v = corners[i], corners[(i + 1) % 6]
            fe.append((u, v) if u < v else (v, u))
        face_edge_keys.append(fe)
        for e in fe:
            if e not in edge_index:
                edge_index[e] = 0
    for e in sorted(edge_index):
        edge_index[e] = len(edges)
        edges.append(e)

    n = len(keys)
    bounded_faces = len(edges) - n + 1
    if bounded_faces != len(cell_list):
        raise HasHole(
            f"{bounded_faces} bounded faces for {len(cell_list)} cells; "
            "the cell set encloses a hole"
        )

    color = tuple(BLACK if y % 3 == 2 else WHITE for _, y in keys)
    graph = Graph(n=n, edges=tuple(edges), color=color)
    face_edges = tuple(tuple(edge_index[e] for e in fe) for fe in face_edge_keys)

    counts = [0] * len(edges)
    for fe in face_edges:
        for eid in fe:
            counts[eid] += 1
    boundary = frozenset(eid for eid, c in enumerate(counts) if c == 1)

    return HexSystem(
        cells=cell_list,
        graph=graph,
        vertex_keys=tuple(keys),
        face_vertices=tuple(face_vertices),
        face_edges=face_edges,
        boundary_edges=boundary,
    )


def inner_dual(h: HexSystem) -> InnerDual:
    edges = sorted(
        (i, j)
        for i, nbrs in enumerate(h.cell_adjacency)
        for j in nbrs
        if i < j
    )
    return InnerDual(graph=build_graph(len(h.cells), edges), cells=h.cells)


def alternating_hexagons(h: HexSystem, m: Matching) -> tuple[int, ...]:
    """Cell indices whose six boundary edges alternate in and out of m.

    A hexagon alternates exactly when m holds all three of its even-position
    edges and none of its odd-position ones, or the other way round.  This
    checks one matching, such as a witness; resonant_matchings reads every
    matching's resonant cells off the search itself.
    """
    ids = m.edge_ids
    if ids and (ids[0] < 0 or ids[-1] >= h.graph.m):
        # ids that name no edge of h border no cell
        ids = [eid for eid in ids if 0 <= eid < h.graph.m]
    mask = edge_mask(ids)
    return tuple(
        ci
        for ci, (even, odd, both) in enumerate(h.cell_edge_masks)
        if (mask & both) in (even, odd)
    )


def edge_weights(h: HexSystem) -> list[int]:
    """Per edge id: the sum of 4**c over the cells c it borders.

    Summed over a matching's edges, this holds in bits 2c and 2c + 1 how
    many of cell c's six edges the matching contains.
    """
    weight = [0] * h.graph.m
    for c, eids in enumerate(h.face_edges):
        for eid in eids:
            weight[eid] += 1 << 2 * c
    return weight


def resonant_matchings(
    h: HexSystem, max_matchings: int = DEFAULT_MATCHING_CAP
) -> tuple[tuple[Matching, ...], tuple[int, ...]]:
    """Every perfect matching in canonical order, and each one's resonant cells.

    One search gives both.  Each edge weighs edge_weights (4**c summed over
    its cells), so a matching's weight sum keeps each cell's matched-edge
    count in its own 2-bit field.  A perfect matching holds at most three of
    a hexagon's six edges, and exactly three only when they alternate, so
    the fields that read 3 are the resonant cells: a cell c is resonant when
    bit 2c of `s & s >> 1 & low` is set, and that is the mask returned.
    """
    pms, sums = weighted_perfect_matchings(h.graph, edge_weights(h), max_matchings)
    low = (4**h.n_cells - 1) // 3  # bit 2c for every cell c
    return pms, tuple(s & s >> 1 & low for s in sums)


def _mask_cells(h: HexSystem, mask: int) -> tuple[Cell, ...]:
    """The cells c whose bit 2c is set in `mask`, in cell order."""
    return tuple(cell for c, cell in enumerate(h.cells) if mask >> 2 * c & 1)


def _clar_best(h: HexSystem, masks: Iterable[int]) -> tuple[int, int]:
    """Largest packing over the resonant masks, and the first index to attain it (0, 0 if none)."""
    best = first = 0
    for i, mask in enumerate(masks):
        # a packing among k resonant cells cannot beat best when k <= best
        if mask.bit_count() > best:
            count = exact._max_independent_size(h.cell_conflicts, mask)
            if count > best:
                best, first = count, i
    return best, first


def _clar_packing(h: HexSystem, mask: int) -> tuple[Cell, ...]:
    """The lexicographically least largest set of pairwise non-adjacent cells in `mask`."""
    _, picked = exact.max_independent_indices(h.cell_conflicts, mask)
    return tuple(h.cells[bit >> 1] for bit in picked)


def _hex_matchings(
    h: HexSystem, max_matchings: int
) -> tuple[tuple[Matching, ...], tuple[int, ...]]:
    found = resonant_matchings(h, max_matchings)
    if not found[0]:
        raise NoPerfectMatching("hexagonal system has no perfect matching")
    return found


def _fries_from(h: HexSystem, pms: tuple[Matching, ...], masks: tuple[int, ...]) -> FriesNumbers:
    """Fries numbers and witnesses from the matchings and their resonant masks."""
    counts = [mask.bit_count() for mask in masks]
    # the first matching in canonical order to attain each extreme
    i, j = counts.index(max(counts)), counts.index(min(counts))
    return FriesNumbers(
        counts[i],
        counts[j],
        (pms[i], _mask_cells(h, masks[i])),
        (pms[j], _mask_cells(h, masks[j])),
    )


def clar_number(
    h: HexSystem, max_matchings: int = DEFAULT_MATCHING_CAP
) -> tuple[int, tuple[Matching, tuple[Cell, ...]]]:
    """Largest set of disjoint simultaneously-alternating hexagons over all PMs."""
    pms, masks = _hex_matchings(h, max_matchings)
    best, i = _clar_best(h, masks)
    return best, (pms[i], _clar_packing(h, masks[i]))


def fries_numbers(
    h: HexSystem, max_matchings: int = DEFAULT_MATCHING_CAP
) -> FriesNumbers:
    """Max and min count of alternating hexagons over all perfect matchings."""
    return _fries_from(h, *_hex_matchings(h, max_matchings))


def is_all_kink_catahex(h: HexSystem) -> bool:
    """Catacondensed (tree inner dual) with no cell fused along parallel edges."""
    if not inner_dual(h).is_tree:
        return False
    # a cell fused on two opposite edges has neighbours at offsets d and -d
    cellset = set(h.cells)
    return not any(
        (q + dq, r + dr) in cellset and (q - dq, r - dr) in cellset
        for q, r in h.cells
        for dq, dr in NEIGHBOR_OFFSETS
    )


def _row_params(cells: Iterable[Cell]) -> tuple[int, ...] | None:
    """Row sizes if the cells form contiguous right-aligned descending rows."""
    rows: dict[int, list[int]] = {}
    for q, r in cells:
        rows.setdefault(r, []).append(q)
    rs = sorted(rows)
    if rs != list(range(rs[0], rs[0] + len(rs))):
        return None
    sizes = []
    right_end = None
    for r in rs:
        qs = sorted(rows[r])
        if qs != list(range(qs[0], qs[0] + len(qs))):
            return None
        if right_end is None:
            right_end = qs[-1]
        elif qs[-1] != right_end:
            return None
        sizes.append(len(qs))
    if any(a < b for a, b in zip(sizes, sizes[1:])):
        return None
    return tuple(sizes)


def is_truncated_parallelogram(h: HexSystem) -> tuple[bool, tuple[int, ...] | None]:
    """Recognize descending right-aligned rows under all 12 lattice symmetries.

    Several symmetries may read off valid row sequences (a linear chain reads
    as both one long row and many one-cell rows); the lexicographically
    greatest one is returned as the canonical parameter tuple.
    """
    readings = []
    for sym in range(12):
        params = _row_params(transform_cell(c, sym) for c in h.cells)
        if params is not None:
            readings.append(params)
    if not readings:
        return False, None
    return True, max(readings)


def tree_independent_domination(
    t: InnerDual | Graph,
) -> tuple[int, tuple[int, ...]]:
    """Smallest independent dominating set of a tree, by rooted 3-state DP.

    States per vertex: chosen into the set; unchosen but dominated inside its
    subtree; unchosen and still waiting for its parent.  Linear time, with a
    witness reconstruction that breaks ties toward the first-listed option.
    """
    g = t.graph if isinstance(t, InnerDual) else t
    if g.n == 0 or g.m != g.n - 1 or not _connected_nodes(g):
        raise NotATree("independent domination DP needs a tree")

    IN, DOM, WAIT = 0, 1, 2
    INF = g.n + 1
    order, parent = [0], [-1] * g.n  # rooted at 0, parents before children
    for u in order:
        for w, _ in g.adjacency[u]:
            if w != parent[u]:
                parent[w] = u
                order.append(w)
    kids = [[w for w, _ in g.adjacency[u] if parent[w] == u] for u in range(g.n)]

    # cost[u][s]: smallest set inside u's subtree with u in state s
    cost = [(0, 0, 0)] * g.n
    for u in reversed(order):
        ks = [cost[w] for w in kids[u]]
        c_dom = sum(min(a, b) for a, b, _ in ks)
        if all(a > b for a, b, _ in ks):  # one child must still join the set
            c_dom += min((a - b for a, b, _ in ks), default=INF)
        c_in = 1 + sum(min(b, c) for _, b, c in ks)
        cost[u] = (c_in, min(c_dom, INF), sum(b for _, b, _ in ks))

    state = [IN if cost[0][IN] <= cost[0][DOM] else DOM] + [WAIT] * (g.n - 1)
    for u in order:
        for w in kids[u]:
            a, b, c = cost[w]
            if state[u] == IN:
                state[w] = DOM if b <= c else WAIT
            elif state[u] == DOM:
                state[w] = IN if a <= b else DOM
            else:
                state[w] = DOM
        if state[u] == DOM and kids[u] and all(state[w] == DOM for w in kids[u]):
            state[min(kids[u], key=lambda w: cost[w][IN] - cost[w][DOM])] = IN
    return min(cost[0][IN], cost[0][DOM]), tuple(v for v in range(g.n) if state[v] == IN)


def parallel_cuts(h: HexSystem) -> tuple[tuple[int, ...], ...]:
    """All maximal parallel edge cuts running hexagon-to-hexagon across h.

    Each cut starts and ends on boundary edges; consecutive members are
    opposite edges of a common hexagon.
    """
    cuts: set[tuple[int, ...]] = set()
    for start in sorted(h.boundary_edges):
        owners = h.edge_cells[start]
        cell = owners[0]
        cut = [start]
        eid = start
        while True:
            slot = h.face_edges[cell].index(eid)
            nxt = h.face_edges[cell][(slot + 3) % 6]
            cut.append(nxt)
            nxt_owners = [c for c in h.edge_cells[nxt] if c != cell]
            if not nxt_owners:
                break
            cell = nxt_owners[0]
            eid = nxt
        cuts.add(tuple(sorted(cut)))
    return tuple(sorted(cuts))


def sachs_cut_check(
    h: HexSystem,
    cut_edges: Iterable[int],
    max_matchings: int = DEFAULT_MATCHING_CAP,
) -> tuple[bool, int | None]:
    """Check that the cut meets every perfect matching in the same count.

    Returns (is_invariant, count).  The count should always be invariant for
    a valid cut; the boolean exists so the verification harness can catch a
    violation rather than trust it.
    """
    cut = tuple(sorted(set(cut_edges)))
    if cut not in set(parallel_cuts(h)):
        raise NotAValidCut(f"{list(cut)} is not a maximal parallel cut")
    pms, _ = _hex_matchings(h, max_matchings)
    cutset = set(cut)
    values = {len(cutset.intersection(m.edge_ids)) for m in pms}
    if len(values) == 1:
        return True, values.pop()
    return False, None


def normal_hex_components(
    h: HexSystem, max_matchings: int = DEFAULT_MATCHING_CAP, labels: tuple[str, ...] | None = None
) -> tuple[HexSystem, ...]:
    """Normal components of a hexagonal system, rebuilt as hexagonal systems.

    A component is the set of cells whose six edges are all free; for
    hexagonal systems the free subgraph decomposes exactly into such cell
    groups, which is re-checked here.  `labels` are the edge_fixedness
    labels of h's graph; they are computed when not given.
    """
    if labels is None:
        labels = edge_fixedness(h.graph, max_matchings)
    out = []
    for comp in normal_components(h.graph, labels=labels):
        comp_edges = set(comp.edge_ids)
        cells = [
            h.cells[ci]
            for ci in range(h.n_cells)
            if all(labels[e] == FREE and e in comp_edges for e in h.face_edges[ci])
        ]
        sub = build_hex_system(cells)
        if sub.graph.m != len(comp_edges):
            raise MatchforceError("free-edge component is not a union of whole hexagons")
        out.append(sub)
    return tuple(out)
