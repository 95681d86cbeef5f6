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

from . import exact, graphs
from .errors import (
    Disconnected,
    HasHole,
    MatchforceError,
    NoPerfectMatching,
    NotATree,
)
from .graphs import (
    BLACK,
    FREE,
    Graph,
    Matching,
    WHITE,
    _bit_ids,
    _check_frontier,
    _cover_steps,
    _reach,
    build_graph,
    edge_mask,
    normal_components,
)

Cell = tuple[int, int]
VertexKey = tuple[int, int]

# neighbor offset across the edge between corners i and i+1 (mod 6)
NEIGHBOR_OFFSETS: tuple[Cell, ...] = (
    (0, 1), (-1, 1), (-1, 0), (0, -1), (1, -1), (1, 0),
)


def cell_corners(cell: Cell) -> tuple[VertexKey, ...]:
    """The six corner keys, in the cyclic order of the lattice convention above."""
    q, r = cell
    x, y = 2 * q + r, 3 * r
    return (x + 1, y + 1), (x, y + 2), (x - 1, y + 1), (x - 1, y - 1), (x, y - 2), (x + 1, y - 1)


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

    @property
    def n_cells(self) -> int:
        return len(self.cells)

    def __hash__(self) -> int:
        return self._hash

    @cached_property
    def _hash(self) -> int:
        """The hash of the cells, taken once; equal systems have equal cells, so it agrees with ==."""
        return hash(self.cells)

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
    def boundary_edges(self) -> frozenset[int]:
        """The edge ids that border one cell only."""
        return frozenset(eid for eid, owners in enumerate(self.edge_cells) if len(owners) == 1)

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
        """Per cell c: the bits d of the cells d adjacent to it."""
        return tuple(sum(1 << d for d in nbrs) for nbrs in self.cell_adjacency)

    @cached_property
    def _resonance(self) -> tuple[_Clar, FriesNumbers] | None:
        """Clar and Fries numbers with their witnesses from one resonance sweep; None with no PM."""
        end = _sweep_resonance(self)
        if end is None:
            return None
        most, most_m, least, least_m, _, picked_m = end
        clar_m, most_m, least_m = (Matching(_bit_ids(mask)) for mask in (picked_m, most_m, least_m))
        best, pick = exact._max_independent(self.cell_conflicts, _resonant_mask(self, clar_m))
        witnesses = [(m, _mask_cells(self, _resonant_mask(self, m))) for m in (most_m, least_m)]
        return (best, (clar_m, _mask_cells(self, pick))), FriesNumbers(most, -least, *witnesses)

    @cached_property
    def cell_edge_masks(self) -> tuple[tuple[int, int, int], ...]:
        """Per cell: bitmasks over edge ids of its even-position, odd-position and all six edges."""
        out = []
        for fe in self.face_edges:
            even, odd = edge_mask(fe[0::2]), edge_mask(fe[1::2])
            out.append((even, odd, even | odd))
        return tuple(out)


class FriesNumbers(NamedTuple):
    maximum: int
    minimum: int
    max_witness: tuple[Matching, tuple[Cell, ...]]
    min_witness: tuple[Matching, tuple[Cell, ...]]


def _is_tree(g: Graph) -> bool:
    """Is g a tree: n − 1 edges, at least one node, and connected?"""
    if g.n == 0 or g.m != g.n - 1:
        return False
    return len(_reach(0, lambda u: (w for w, _ in g.adjacency[u]))) == g.n


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
    of cells.  Vertex ids follow the sorted corner keys, edge ids the sorted (u, v) pairs.
    """
    cell_list = tuple(sorted({(int(q), int(r)) for q, r in cells}))
    if not cell_list:
        raise Disconnected("empty cell set")
    _check_cells_connected(set(cell_list))

    corners = [cell_corners(c) for c in cell_list]
    keys = sorted({k for cs in corners for k in cs})
    key_index = {k: i for i, k in enumerate(keys)}
    face_vertices = tuple(tuple(map(key_index.__getitem__, cs)) for cs in corners)

    # a cell's corners 3, 2, 4, 1, 5, 0 have ascending keys, so ascending ids:
    # each edge is its pair (u, v), u < v, coded as u * n + v, which sorts as the pair does
    n = len(keys)
    face_codes = [
        (b * n + a, c * n + b, d * n + c, d * n + e, e * n + f, f * n + a)
        for a, b, c, d, e, f in face_vertices
    ]
    codes = sorted({k for fc in face_codes for k in fc})
    bounded_faces = len(codes) - n + 1
    if bounded_faces != len(cell_list):
        raise HasHole(
            f"{bounded_faces} bounded faces for {len(cell_list)} cells; "
            "the cell set encloses a hole"
        )

    edge_index = {k: i for i, k in enumerate(codes)}
    color = tuple(BLACK if y % 3 == 2 else WHITE for _, y in keys)
    return HexSystem(
        cells=cell_list,
        graph=Graph(n=n, edges=tuple(divmod(k, n) for k in codes), color=color),
        vertex_keys=tuple(keys),
        face_vertices=face_vertices,
        face_edges=tuple(tuple(map(edge_index.__getitem__, fc)) for fc in face_codes),
    )


def inner_dual(h: HexSystem) -> Graph:
    """One node per cell (in h.cells order), an edge between cells sharing a lattice edge."""
    edges = sorted(
        (i, j)
        for i, nbrs in enumerate(h.cell_adjacency)
        for j in nbrs
        if i < j
    )
    return build_graph(len(h.cells), edges)


def alternating_hexagons(h: HexSystem, m: Matching) -> tuple[int, ...]:
    """Cell indices whose six boundary edges alternate in and out of m.

    A hexagon alternates exactly when m holds all three of its even-position
    edges and none of its odd-position ones, or the other way round.  This
    is the one per-matching resonance test: the sweep's witnesses, replay's
    witness checks and, where a report or verify lists the matchings, each
    one's resonant cells are read from it.
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


def _mask_cells(h: HexSystem, mask: int) -> tuple[Cell, ...]:
    """The cells c whose bit c is set in `mask`, in cell order."""
    return tuple(cell for c, cell in enumerate(h.cells) if mask >> c & 1)


_Clar = tuple[int, tuple[Matching, tuple[Cell, ...]]]  # the value, its matching and cells


def _first(a: int, b: int) -> bool:
    """Does the path with edge mask a come before the one with mask b in canonical order?

    Both reach one sweep state, so they have covered the same vertices and
    hold the same number of edges.  Edge ids are sorted by end pair, so every
    edge a later vertex adds has a larger id than these.  For two edge sets
    of equal size, lexicographic order of their sorted ids puts first the one
    that holds the lowest edge of their symmetric difference; so keeping, per
    state and value, the first path by this rule keeps the first optimal
    matching in canonical order, the witness the enumeration gives, to state 0.
    """
    d = a ^ b
    return d & -d & a != 0


def _sweep_resonance(h: HexSystem) -> list | None:
    """The resonance sweep, forward only, keeping one layer: state 0's values and paths, or None.

    A state holds one of _cover_steps in its low `width` bits and, above
    them, each open cell's 2-bit field counting its matched edges; open cells
    share these slots.  A cell is open from its least vertex to its
    greatest, where every edge of it has been decided and it closes: its
    field is cleared, and a resonant close is counted when it read 3, that
    is when the cell alternates.  Such a cell may instead be picked as a
    sextet, which zeroes the fields of the neighbours that close later: two
    vertices of each are covered already, so at most two more of its edges
    can follow and it cannot read 3.  So the paths with no pick are the
    perfect matchings, and all paths are the perfect matchings each with a
    set of pairwise non-adjacent resonant cells.  Each state keeps the most
    and the fewest resonant closes over its paths with no pick (None when
    only picks reach it; the fewest negated, so all three are maxima) and
    the most picks over all its paths, each with the edge mask of the first
    path to reach it, by _first.  None: no perfect matching.  Listing no
    matching, it stops only at FRONTIER_STATE_CAP states in one layer.

    The steps are built from int masks, not sets of cells: per vertex, the
    OR of the fields of the cells with a corner there.  Cells open at one
    vertex hold distinct slots, so an OR of their fields is their sum, and
    an edge's step clears the OR of its ends' open cells less its own.
    """
    g, n_cells = h.graph, h.n_cells
    # a vertex covered by an earlier one lies less than this far ahead
    width = max((v - u for u, v in g.edges), default=0)
    low = (1 << width) - 1
    lo = [min(fv) for fv in h.face_vertices]
    hi = [max(fv) for fv in h.face_vertices]
    # a free slot for each cell, in the order the cells open; the cells that
    # close at a vertex give theirs up after those that open there take theirs
    slot, free, top = [0] * n_cells, [], 0
    cells = range(n_cells)
    for _, shuts, c in sorted([(lo[c], 0, c) for c in cells] + [(hi[c], 1, c) for c in cells]):
        if shuts:
            free.append(slot[c])
        elif free:
            slot[c] = free.pop()
        else:
            slot[c], top = top, top + 1
    field = [1 << width + 2 * s for s in slot]
    # per vertex: the cells with a corner there, and the OR of their fields
    at: list[list[int]] = [[] for _ in range(g.n)]
    fat = [0] * g.n
    for c, corners in enumerate(h.face_vertices):
        for x in corners:
            at[x].append(c)
            fat[x] |= field[c]

    # per vertex: each covering step, with the fields of its edge's cells
    # added, and what the move keeps.  An edge that covers a vertex of an open
    # cell it does not border zeroes that cell's field: the cell cannot
    # alternate, and at most two more of its edges can follow.
    tries: list[list[tuple[int, int, int, int]]] = [[] for _ in range(g.n)]
    for u, steps in enumerate(_cover_steps(g.n, g.edges)):
        for need, add, eid in steps:
            # the cells with a corner at u or v that are open at u
            near = fat[u]
            for c in at[g.edges[eid][1]]:
                if lo[c] <= u:
                    near |= field[c]
            # the cells the edge borders, among them
            own = 0
            for c in h.edge_cells[eid]:
                own |= field[c]
            tries[u].append((need, add + own, ~(3 * (near & ~own)), eid))
    # per vertex, in closing order (a stable sort: ties in cell order): (field
    # shift, what closing keeps, what a pick keeps) of each cell closing there
    closes: list[list[tuple[int, int, int]]] = [[] for _ in range(g.n)]
    for c in sorted(cells, key=hi.__getitem__):
        # the neighbours that close later, all open here
        later = 0
        for d in h.cell_adjacency[c]:
            if (hi[d], d) > (hi[c], c):
                later |= field[d]
        keep = ~(3 * field[c])
        closes[hi[c]].append((field[c].bit_length() - 1, keep, keep & ~(3 * later)))

    # per state: [most resonant closes, its path's edges, fewest negated, its
    # edges, most picks, its edges]
    layer: dict[int, list] = {0: [0, 0, 0, 0, 0, 0]}
    cap = graphs.FRONTIER_STATE_CAP
    for v in range(g.n):
        tried, closed_here = tries[v], closes[v]
        after: dict[int, list] = {}
        for s, (most, most_m, least, least_m, picked, picked_m) in layer.items():
            cov = s & low
            base = s - cov + (cov >> 1)
            # moves: (next state, edge bit or 0 at a covered vertex, picks, resonant closes)
            if cov & 1:
                moves = [(base, 0, 0, 0)]
            else:
                moves = [
                    (base + add & keep, 1 << eid, 0, 0) for need, add, keep, eid in tried if not cov & need
                ]
            for shift, keep, pick_keep in closed_here:
                closed = []
                for t, bit, picks, resonant in moves:
                    if t >> shift & 3 == 3:
                        closed.append((t & keep, bit, picks, resonant + 1))
                        closed.append((t & pick_keep, bit, picks + 1, resonant))
                    else:
                        closed.append((t & keep, bit, picks, resonant))
                moves = closed
            for t, bit, picks, resonant in moves:
                # plain comparisons: a call of max per move costs more
                now = after.get(t)
                if now is None:
                    now = after[t] = [None, 0, None, 0, -1, 0]
                value, mask = picked + picks, picked_m | bit
                if value > now[4] or value == now[4] and _first(mask, now[5]):
                    now[4], now[5] = value, mask
                if most is None or picks:
                    continue
                value, mask = most + resonant, most_m | bit
                if now[0] is None or value > now[0] or value == now[0] and _first(mask, now[1]):
                    now[0], now[1] = value, mask
                value, mask = least - resonant, least_m | bit
                if now[2] is None or value > now[2] or value == now[2] and _first(mask, now[3]):
                    now[2], now[3] = value, mask
        if len(after) > cap:
            _check_frontier(len(after), v, g.n)
        layer = after
    return layer.get(0)


def _resonant_mask(h: HexSystem, m: Matching) -> int:
    """The alternating_hexagons of one matching as a mask, bit c for cell c."""
    return sum(1 << c for c in alternating_hexagons(h, m))


def _kekule_resonance(h: HexSystem) -> tuple[_Clar, FriesNumbers]:
    if h._resonance is None:
        raise NoPerfectMatching("graph has no perfect matching")
    return h._resonance


def clar_number(h: HexSystem) -> _Clar:
    """Largest set of disjoint simultaneously-alternating hexagons over all PMs.

    The witness is the first perfect matching in canonical order to attain
    it, with the lexicographically least largest packing of its resonant
    cells.  From the resonance sweep that h keeps for fries_numbers too;
    every report reads its Clar number here.
    """
    return _kekule_resonance(h)[0]


def fries_numbers(h: HexSystem) -> FriesNumbers:
    """Max and min count of alternating hexagons over all perfect matchings.

    Each witness is the first perfect matching in canonical order to attain
    its extreme, with its resonant cells.  From the resonance sweep that h
    keeps for clar_number too; every report reads its Fries numbers here.
    """
    return _kekule_resonance(h)[1]


def is_all_kink_catahex(h: HexSystem) -> bool:
    """Catacondensed (tree inner dual) with no cell fused along parallel edges.

    Adjacent cells share one edge, so the inner dual of c cells and m edges
    has 6c − m edges.  It is connected, as build_hex_system, the only maker of
    a HexSystem, rejects disconnected cell sets; so it is a tree exactly when
    6c − m = c − 1, that is m = 5c + 1.
    """
    if h.graph.m != 5 * h.n_cells + 1:
        return False
    # a cell fused on two opposite edges has neighbours at offsets d and -d
    cellset = set(h.cells)
    return not any(
        (q + dq, r + dr) in cellset and (q - dq, r - dr) in cellset
        for q, r in h.cells
        for dq, dr in NEIGHBOR_OFFSETS
    )


def _row_params(cells: Iterable[Cell]) -> tuple[int, ...] | None:
    """Row sizes if the cells form contiguous right-aligned descending rows.

    One pass over the cells sorted by (r, q), ended by the first break.  Rows
    that end where the first does descend when no left end moves left.
    """
    sizes: list[int] = []
    prev_r = prev_q = left = right = None
    for r, q in sorted((r, q) for q, r in cells):
        if r == prev_r:
            if q != prev_q + 1:
                return None
            sizes[-1] += 1
        else:
            if prev_r is not None:
                right = prev_q if right is None else right
                if r != prev_r + 1 or q < left or prev_q != right:
                    return None
            left = q
            sizes.append(1)
        prev_r, prev_q = r, q
    if right is not None and prev_q != right:
        return None
    return tuple(sizes)


# transform_cell is linear in (q, r): each symmetry as its 2×2 map, the images of (1, 0), (0, 1)
_SYMMETRY_MAPS = tuple((transform_cell((1, 0), s), transform_cell((0, 1), s)) for s in range(12))


def is_truncated_parallelogram(h: HexSystem) -> tuple[bool, tuple[int, ...] | None]:
    """Recognize descending right-aligned rows under all 12 lattice symmetries.

    Several symmetries may read off valid row sequences (a linear chain reads
    as both one long row and many one-cell rows); the lexicographically
    greatest one is returned as the canonical parameter tuple.
    """
    readings = []
    for (a, b), (c, d) in _SYMMETRY_MAPS:
        params = _row_params([(a * q + c * r, b * q + d * r) for q, r in h.cells])
        if params is not None:
            readings.append(params)
    if not readings:
        return False, None
    return True, max(readings)


def tree_independent_domination(g: Graph) -> tuple[int, tuple[int, ...]]:
    """Smallest independent dominating set of a tree, by rooted 3-state DP.

    States per vertex: chosen into the set; unchosen but dominated inside its
    subtree; unchosen and still waiting for its parent.  Linear time, with a
    witness reconstruction that breaks ties toward the first-listed option.
    """
    if not _is_tree(g):
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
        # a DOM vertex has a child put IN: were every child's IN cost above its DOM cost,
        # the vertex's IN cost would be at most its DOM cost and its WAIT cost below it,
        # and neither the root rule nor a parent leaves such a vertex DOM
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


def normal_hex_components(h: HexSystem, labels: tuple[str, ...]) -> tuple[HexSystem, ...]:
    """Normal components of a hexagonal system, rebuilt as hexagonal systems.

    A component is the set of cells whose six edges are all free; for
    hexagonal systems the free subgraph decomposes exactly into such cell
    groups, which is re-checked here.  `labels` are the edge_fixedness
    labels of h's graph.
    """
    out = []
    for comp in normal_components(h.graph, labels):
        comp_edges = set(comp.edge_ids)
        cells = [
            h.cells[ci]
            for ci in range(h.n_cells)
            if all(labels[e] == FREE and e in comp_edges for e in h.face_edges[ci])
        ]
        # a component with no whole hexagon has no system to rebuild
        if not cells or (sub := build_hex_system(cells)).graph.m != len(comp_edges):
            raise MatchforceError("free-edge component is not a union of whole hexagons")
        out.append(sub)
    return tuple(out)
