"""Simple undirected graphs, perfect matchings, and alternating cycles.

Everything here is immutable and pure: a Graph never changes after
construction, enumeration results come back in a fixed canonical order, and
derived structures (matchings, cycles, the contracted digraph) index into
the parent graph's edge list.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from itertools import islice
from typing import Any, Callable, Collection, Iterable, Iterator, NamedTuple, Sequence

from .errors import (
    BadColoring,
    DuplicateEdge,
    LimitExceeded,
    NoPerfectMatching,
    NotBipartite,
    NotPerfect,
    SelfLoop,
)

WHITE = 0
BLACK = 1

DEFAULT_MATCHING_CAP = 10**6
DEFAULT_CYCLE_CAP = 10**6
# LimitExceeded once one layer of a frontier sweep holds more states than this
FRONTIER_STATE_CAP = 2**18

FIXED_SINGLE = "fixed-single"
FIXED_DOUBLE = "fixed-double"
FREE = "free"


@dataclass(frozen=True)
class Graph:
    """Immutable simple graph; the edge index is the position in `edges`."""

    n: int
    edges: tuple[tuple[int, int], ...]
    color: tuple[int, ...] | None = None

    @property
    def m(self) -> int:
        return len(self.edges)

    def __hash__(self) -> int:
        return self._hash

    @cached_property
    def _hash(self) -> int:
        """The hash of the fields, taken once: caches keyed by a graph re-hash it on every lookup."""
        return hash((self.n, self.edges, self.color))

    @cached_property
    def adjacency(self) -> tuple[tuple[tuple[int, int], ...], ...]:
        """Per vertex: (neighbor, edge id) pairs in edge-id order."""
        adj: list[list[tuple[int, int]]] = [[] for _ in range(self.n)]
        for eid, (u, v) in enumerate(self.edges):
            adj[u].append((v, eid))
            adj[v].append((u, eid))
        return tuple(tuple(a) for a in adj)

    @cached_property
    def _pm_count(self) -> int:
        """The number of perfect matchings, swept on a BFS order; see count_perfect_matchings."""
        rank = _bfs(self.n, self.edges)[0]
        steps = _cover_steps(self.n, ((rank[a], rank[b]) for a, b in self.edges))
        ways = {0: 1}  # per state of the vertex being swept: the partial matchings that reach it
        cap = FRONTIER_STATE_CAP
        for v, tried in enumerate(steps):
            after: dict[int, int] = {}
            for s, k in ways.items():
                for need, add, _ in tried if not s & 1 else ((0, 0, -1),):  # covered: one free move
                    if not s & need:
                        t = (s >> 1) + add
                        after[t] = after.get(t, 0) + k
            if not after:
                return 0
            if len(after) > cap:
                _check_frontier(len(after), v, self.n)
            ways = after
        return ways.get(0, 0)

    @cached_property
    def _search_copy(self) -> Graph | None:
        """The graph the matching backtracker walks in place of this one, or None for this one.

        Without a 2-coloring the vertices are renumbered in _bfs order, edge ids kept, so the
        vertex matched next borders those already matched, as in the count's sweep, and a dead
        end shows within a few steps instead of after a walk across the graph.  Bipartite
        input keeps its ids: a hexagonal system's already follow a sweep, and its relabelled
        walk ran slower.  None, not self, keeps the cache from making every graph a
        reference cycle.
        """
        if self.color is not None:
            return None
        rank = _bfs(self.n, self.edges)[0]
        return Graph(self.n, tuple((rank[u], rank[v]) for u, v in self.edges))

    @cached_property
    def _degrees(self) -> tuple[int, ...]:
        return tuple(map(len, self.adjacency))

    @cached_property
    def _pendants(self) -> tuple[int, ...]:  # the vertices with at most one edge
        return tuple(v for v, d in enumerate(self._degrees) if d <= 1)

    @cached_property
    def max_degree(self) -> int:
        return max(self._degrees, default=0)

    def degree(self, v: int) -> int:
        return len(self.adjacency[v])


@dataclass(frozen=True)
class Matching:
    """A set of pairwise disjoint edges, stored as sorted edge ids."""

    edge_ids: tuple[int, ...]

    def __init__(self, edge_ids: Iterable[int]):
        object.__setattr__(self, "edge_ids", tuple(sorted(set(edge_ids))))

    def __len__(self) -> int:
        return len(self.edge_ids)

    def __contains__(self, eid: int) -> bool:
        return eid in self.edge_set

    @cached_property
    def edge_set(self) -> frozenset[int]:
        return frozenset(self.edge_ids)


@dataclass(frozen=True)
class AltCycle:
    """An alternating cycle in canonical rotation.

    `vertex_seq` starts at the smallest cycle vertex and continues toward its
    smaller cycle neighbor; `edge_ids` is the induced edge set.
    """

    vertex_seq: tuple[int, ...]
    edge_ids: frozenset[int]

    def __len__(self) -> int:
        return len(self.vertex_seq)

    @cached_property
    def vertex_set(self) -> frozenset[int]:
        return frozenset(self.vertex_seq)


@dataclass(frozen=True)
class ContractedDigraph:
    """Digraph obtained by contracting every matching edge to a node.

    Node i corresponds to the i-th matching edge (in edge-id order); each arc
    remembers the non-matching edge it came from.  Parallel arcs are kept.
    """

    node_count: int
    arcs: tuple[tuple[int, int], ...]
    arc_edges: tuple[int, ...]


class DirectedCycle(NamedTuple):
    node_seq: tuple[int, ...]
    arc_ids: frozenset[int]


class InducedSubgraph(NamedTuple):
    """A relabelled subgraph plus the original vertex/edge ids it came from."""

    graph: Graph
    vertex_ids: tuple[int, ...]
    edge_ids: tuple[int, ...]


def _bfs(n: int, edges: Iterable[tuple[int, int]]) -> tuple[list[int], list[int]]:
    """Each vertex's place in BFS order and its depth, restarting at the least unvisited id.

    Neighbours come in edge order, from plain lists: Graph.adjacency's kept pairs made the
    collector run more often, and sorted neighbours cost more and narrowed no frontier.
    """
    adj: list[list[int]] = [[] for _ in range(n)]
    for u, v in edges:
        adj[u].append(v)
        adj[v].append(u)
    rank, depth = [-1] * n, [0] * n
    k = 0  # the next place
    for start in range(n):
        if rank[start] < 0:
            rank[start], k = k, k + 1
            queue = [start]
            for u in queue:  # a list's iterator sees what is appended to it
                for w in adj[u]:
                    if rank[w] < 0:
                        rank[w], k = k, k + 1
                        depth[w] = depth[u] + 1
                        queue.append(w)
    return rank, depth


def two_coloring(n: int, edges: Sequence[tuple[int, int]]) -> tuple[int, ...] | None:
    """BFS 2-coloring, each component's least vertex white; None when an odd cycle forbids one."""
    color = tuple(d & 1 for d in _bfs(n, edges)[1])
    return None if any(color[u] == color[v] for u, v in edges) else color


def _reach(start, neighbours: Callable[[Any], Iterable]) -> set:
    """Every node reachable from start, where neighbours(u) lists the nodes next to u."""
    seen = {start}
    stack = [start]
    while stack:
        for w in neighbours(stack.pop()):
            if w not in seen:
                seen.add(w)
                stack.append(w)
    return seen


def build_graph(
    n: int,
    edge_list: Iterable[tuple[int, int]],
    color: Iterable[int] | None = None,
) -> Graph:
    """Validate and freeze a graph; edge indices follow input order.

    When no coloring is supplied one is computed if the graph is bipartite;
    non-bipartite graphs simply carry no coloring.
    """
    edges: list[tuple[int, int]] = []
    seen: set[tuple[int, int]] = set()
    for u, v in edge_list:
        if not (0 <= u < n and 0 <= v < n):
            raise ValueError(f"edge ({u}, {v}) out of range for n={n}")
        if u == v:
            raise SelfLoop(f"self-loop at vertex {u}")
        e = (u, v) if u < v else (v, u)
        if e in seen:
            raise DuplicateEdge(f"duplicate edge {e}")
        seen.add(e)
        edges.append(e)

    if color is not None:
        col = tuple(color)
        if len(col) != n or any(c not in (WHITE, BLACK) for c in col):
            raise BadColoring("coloring must assign 0 or 1 to every vertex")
        for u, v in edges:
            if col[u] == col[v]:
                raise BadColoring(f"edge ({u}, {v}) joins two vertices of color {col[u]}")
    else:
        col = two_coloring(n, edges)
    return Graph(n=n, edges=tuple(edges), color=col)


def matching_partner(g: Graph, m: Matching) -> list[int]:
    """partner[v] for a perfect matching; raises NotPerfect otherwise."""
    partner = [-1] * g.n
    edges, size = g.edges, g.m
    for eid in m.edge_ids:
        if eid < 0 or eid >= size:
            raise NotPerfect(f"edge id {eid} not in graph")
        u, v = edges[eid]
        if partner[u] != -1 or partner[v] != -1:
            raise NotPerfect(f"edge {eid} overlaps another matching edge")
        partner[u] = v
        partner[v] = u
    if any(p == -1 for p in partner):
        raise NotPerfect("matching does not cover every vertex")
    return partner


def _iter_perfect_matchings(g: Graph, without: Collection[int] = ()) -> Iterator[tuple[int, ...]]:
    """Backtracking over the lowest-index uncovered vertex, edges in id order, on g._search_copy.

    The copy keeps g's edge ids, so only the order of the matchings depends
    on it.  The search runs on an explicit stack with one frame per matched
    pair, so its depth is not bounded by the interpreter's recursion limit and
    a matching is handed out without passing through a chain of generators.
    The edges in `without` count as deleted: only their ends' neighbour
    lists are rebuilt.  Each matching is yielded as its edge ids in the
    order they were chosen.
    """
    n = g.n
    if n % 2:
        return
    g = g._search_copy or g
    adjacency: Sequence[Sequence[tuple[int, int]]] = g.adjacency
    if without:
        adjacency = list(adjacency)
        for e in without:
            for x in g.edges[e]:
                adjacency[x] = [a for a in adjacency[x] if a[1] not in without]
    covered = bytearray(n)
    # frame i matches frame_v[i] by edge chosen[i] (-1 before the first try);
    # frame_next[i] is the adjacency slot after the one chosen
    frame_v: list[int] = []
    frame_next: list[int] = []
    chosen: list[int] = []
    v = 0
    while True:
        while v < n and covered[v]:
            v += 1
        if v == n:
            yield tuple(chosen)
        else:
            covered[v] = 1
            frame_v.append(v)
            frame_next.append(0)
            chosen.append(-1)
        # advance the deepest frame to its next uncovered partner,
        # dropping frames that have none left
        while frame_v:
            u = frame_v[-1]
            adj = adjacency[u]
            i = frame_next[-1]
            if i:
                covered[adj[i - 1][0]] = 0
            k = len(adj)
            while i < k and covered[adj[i][0]]:
                i += 1
            if i < k:
                w, eid = adj[i]
                covered[w] = 1
                chosen[-1] = eid
                frame_next[-1] = i + 1
                v = u + 1
                break
            covered[u] = 0
            frame_v.pop()
            frame_next.pop()
            chosen.pop()
        else:
            return


def _cover_steps(n: int, edges: Iterable[tuple[int, int]]) -> list[list[tuple[int, int, int]]]:
    """Per vertex u: (need, add, edge id) of each edge from u to a later vertex v, in id order.

    A sweep state is one int whose low bits are the covered vertices from u
    on, shifted down a bit per vertex, so a step costs the same on a long
    chain as on a short one.  At u a state s with bit 0 set moves to s >> 1;
    else the edge takes it to (s >> 1) + add if v is uncovered: s & need == 0.
    """
    steps: list[list[tuple[int, int, int]]] = [[] for _ in range(n)]
    for eid, (u, v) in enumerate(edges):
        if u > v:
            u, v = v, u
        steps[u].append((1 << v - u, 1 << v - u - 1, eid))
    return steps


def _check_frontier(states: int, v: int, n: int) -> None:
    """LimitExceeded when a sweep's layer at vertex v of n holds over FRONTIER_STATE_CAP states."""
    if states > FRONTIER_STATE_CAP:
        raise LimitExceeded(
            f"frontier sweep holds {states} states at vertex {v} of {n}, "
            f"more than {FRONTIER_STATE_CAP}"
        )


def _too_many_matchings(max_matchings: int) -> LimitExceeded:
    """The error of a listing that finds more than max_matchings perfect matchings."""
    return LimitExceeded(f"more than {max_matchings} perfect matchings")


def _capped(g: Graph, max_matchings: int) -> Iterator[tuple[int, ...]]:
    """_iter_perfect_matchings of g; LimitExceeded once there are more than max_matchings."""
    for count, chosen in enumerate(_iter_perfect_matchings(g), 1):
        if count > max_matchings:
            raise _too_many_matchings(max_matchings)
        yield chosen


def _sorted_matching(edge_ids: tuple[int, ...]) -> Matching:
    """A Matching of ids that are already sorted and distinct, without sorting them again."""
    m = object.__new__(Matching)
    object.__setattr__(m, "edge_ids", edge_ids)
    return m


def enumerate_perfect_matchings(
    g: Graph, max_matchings: int = DEFAULT_MATCHING_CAP
) -> tuple[Matching, ...]:
    """Every perfect matching exactly once, sorted by edge-id sequence."""
    ids = sorted(tuple(sorted(chosen)) for chosen in _capped(g, max_matchings))
    return tuple(map(_sorted_matching, ids))


def count_perfect_matchings(g: Graph) -> int:
    """The number of perfect matchings (Kekulé structures), swept on a BFS order, none listed.

    No matching cap applies, as none is listed: LimitExceeded only past
    FRONTIER_STATE_CAP states in one sweep layer.
    """
    return g._pm_count


def _pendant_reduction(g: Graph, without: Collection[int] = ()) -> list[int] | None:
    """Take pendant edges as forced, one after another.

    The edges in `without` (distinct ids) count as deleted: they are
    skipped where g.adjacency is read, and no graph or list is copied.
    Returns None when an uncovered vertex runs out of edges (no perfect
    matching), else the forced edge ids.  Every uncovered vertex then keeps
    at least two edges to uncovered vertices.
    """
    adjacency = g.adjacency
    deg = list(g._degrees)
    ends = [x for e in without for x in g.edges[e]]
    for x in ends:
        deg[x] -= 1
    # degrees only fall, so a vertex is queued once it has at most one edge left
    queue = [*g._pendants, *(x for x in ends if deg[x] <= 1)]
    covered = bytearray(g.n)
    forced: list[int] = []
    while queue:
        v = queue.pop()
        if covered[v]:
            continue
        if not deg[v]:
            return None
        for u, eid in adjacency[v]:  # v's one edge left
            if not covered[u] and eid not in without:
                break
        forced.append(eid)
        for x in (v, u):
            covered[x] = 1
            for w, e in adjacency[x]:
                if not covered[w] and e not in without:
                    deg[w] -= 1
                    if deg[w] <= 1:
                        queue.append(w)
    return forced


def _unique_matching(g: Graph, without: Collection[int] = ()) -> Matching | None:
    """The perfect matching of g minus the edges `without` if it is the only one, else None.

    This is the one uniqueness test: the forcing and anti-forcing set checks,
    anti_forcing_edges and has_unique_perfect_matching all ask it.  A
    pendant edge lies in every perfect matching, so the pendant reduction
    keeps the set of perfect matchings.  When it stalls, every vertex left
    has degree ≥ 2.  On bipartite input that remainder has no perfect
    matching, or it has one, M, whose contraction (each M edge a node, each
    other edge an arc from its black end's node to its white end's node)
    gives every node an out-arc: its black vertex has a second edge.  A
    finite digraph in which every node has an out-arc holds a directed
    cycle, that is an M-alternating cycle, and switching M along it gives a
    second perfect matching.  So a stalled bipartite remainder has no unique
    perfect matching, and nothing is enumerated.  When a non-bipartite
    remainder is left, g minus `without` is enumerated, capped at two
    matchings.
    """
    forced = _pendant_reduction(g, without)
    if forced is None:
        return None
    if 2 * len(forced) == g.n:
        return Matching(forced)
    if g.color is not None:
        return None
    first_two = list(islice(_iter_perfect_matchings(g, without), 2))
    if len(first_two) != 1:
        return None
    return Matching(first_two[0])


def has_unique_perfect_matching(g: Graph) -> tuple[bool, Matching | None]:
    """Uniqueness test with the unique matching; near-linear on bipartite input.

    Pendant reduction decides bipartite input alone; where it leaves a
    non-bipartite remainder, g is enumerated, capped at two matchings.
    """
    m = _unique_matching(g)
    return m is not None, m


def _induced(g: Graph, vertices: list[int], edge_ids: list[int]) -> InducedSubgraph:
    index = {v: i for i, v in enumerate(vertices)}
    edges = tuple((index[g.edges[e][0]], index[g.edges[e][1]]) for e in edge_ids)
    color = tuple(g.color[v] for v in vertices) if g.color is not None else None
    sub = Graph(n=len(vertices), edges=tuple(tuple(sorted(e)) for e in edges), color=color)
    return InducedSubgraph(sub, tuple(vertices), tuple(edge_ids))


def _canonical_rotation(seq: list[int]) -> tuple[int, ...]:
    """Rotate/reflect a cyclic sequence: smallest vertex first, smaller neighbor second."""
    i = seq.index(min(seq))
    nxt = seq[(i + 1) % len(seq)]
    prev = seq[i - 1]
    if nxt <= prev:
        return tuple(seq[i:] + seq[:i])
    return tuple(seq[i::-1] + seq[:i:-1])


def _simple_cycles(succ, starts, max_cycles: int, what: str) -> Iterator[tuple[list[int], int]]:
    """The one cycle walk behind both enumerations, on an explicit stack.

    A path is a list of ends.  `succ[u]` lists the steps out of end u as
    (target, end, bit): the path leaves u toward `target` and goes on from
    `end`, and `bit` holds the edges the step adds.  Each start (root, first
    end, first bit) walks the cycles whose least vertex is the root: a step
    closes one when its target is the root, and otherwise needs its target
    and end above the root and off the path.  Before the walk, a backward
    search from the first end marks every end that can still close through
    vertices above the root, ignoring the path; the walk enters no other end
    and skips a root whose first end is unmarked, so only branches holding
    no cycle are cut.  Yields each cycle's ends (a live list, valid until
    the next cycle is drawn) and its bitmask, in discovery order.
    """
    pred: list[list[int]] = [[] for _ in succ]
    low = [-1] * len(succ)  # per end, the least vertex of its pair (or node)
    for x, steps in enumerate(succ):
        for target, end, _ in steps:
            pred[end].append(x)
            low[end] = target if target < end else end
    mark = [-1] * len(succ)
    on_path = bytearray(len(succ))
    found = 0
    for root, first, first_bit in starts:
        frontier = [first]
        while frontier:
            for x in pred[frontier.pop()]:
                if mark[x] != root and (low[x] > root or x == first):
                    mark[x] = root
                    frontier.append(x)
        if mark[first] != root:
            continue
        on_path[root] = 1  # root is low[first]
        ends, masks = [first], [first_bit]
        todo = [iter(succ[first])]
        while todo:
            for target, end, bit in todo[-1]:
                if target == root:
                    found += 1
                    if found > max_cycles:
                        raise LimitExceeded(f"more than {max_cycles} {what}")
                    yield ends, masks[-1] | bit
                elif mark[end] == root and not on_path[low[end]]:
                    on_path[low[end]] = 1
                    ends.append(end)
                    masks.append(masks[-1] | bit)
                    todo.append(iter(succ[end]))
                    break
            else:
                todo.pop()
                masks.pop()
                on_path[low[ends.pop()]] = 0


def _bit_ids(mask: int) -> frozenset[int]:
    return frozenset(i for i, bit in enumerate(reversed(bin(mask))) if bit == "1")


def edge_mask(edge_ids: Iterable[int]) -> int:
    """Bitmask with bit e set for every id e."""
    mask = 0
    for eid in edge_ids:
        mask |= 1 << eid
    return mask


def _alternating_walk(g: Graph, m: Matching, max_cycles: int) -> tuple[list[int], Iterator]:
    """The partners, and the kernel over m's alternating cycles.

    A cycle holds the matching edge of each of its vertices, so it is found
    once, from its least vertex's partner.  A step leaves its end by a
    non-matching edge to w and goes on from w's partner, adding both edges.
    """
    partner = matching_partner(g, m)
    match_bit = [0] * g.n
    for eid in m.edge_ids:
        u, v = g.edges[eid]
        match_bit[u] = match_bit[v] = 1 << eid
    succ: list[list[tuple[int, int, int]]] = [[] for _ in range(g.n)]
    for eid, (u, v) in enumerate(g.edges):
        bit = 1 << eid
        if match_bit[u] != bit:  # not a matching edge
            succ[u].append((v, partner[v], bit | match_bit[v]))
            succ[v].append((u, partner[u], bit | match_bit[u]))
    starts = [(s, partner[s], match_bit[s]) for s in range(g.n) if partner[s] > s]
    return partner, _simple_cycles(succ, starts, max_cycles, "alternating cycles")


def alternating_cycle_masks(
    g: Graph, m: Matching, max_cycles: int = DEFAULT_CYCLE_CAP
) -> tuple[int, ...]:
    """The edge bitmask of every alternating cycle, in discovery order."""
    return tuple(mask for _, mask in _alternating_walk(g, m, max_cycles)[1])


def all_alternating_cycle_masks(g: Graph, pms: Sequence[Matching]) -> Iterator[tuple[int, ...]]:
    """Each matching's alternating-cycle masks, in order; `pms` lists every perfect matching of g.

    For an M-alternating cycle C, M ⊕ C is a perfect matching M'; and the
    difference of two perfect matchings M ⊕ M' is a union of disjoint cycles
    that alternate in both.  So M's alternating cycles are exactly the
    differences M ⊕ M' that are one cycle, one per such M'.  The difference d
    of a pair is one cycle when the walk from an end of d's lowest edge,
    alternating the two matchings' partners, covers all of d's edges before
    it returns.  Under 8 edges d is one cycle without a walk, since an
    alternating cycle has at least 4.  Which pairs are cycles is kept as one
    K-bit int per matching, and a matching's masks are rebuilt from its int
    when it is handed out, so no list of masks outlives its row.  A row is
    complete, and handed out, once its pairs with every later matching are
    walked, so a consumer that stops early pays for the rows it read.  Held
    throughout: each matching's partner list and edge mask, and at most
    K(K - 1)/2 bits of the pair relation.

    The pairs cost K(K - 1)/2 walks however few of them are cycles, while the
    per-matching kernel (alternating_cycle_masks) costs about what it finds.
    So the first row is derived, and if fewer than 1/16 of its K - 1 pairs
    are cycles, every later matching takes the kernel.  Measured on zigzag
    chains and on disjoint pairs of systems, the two routes broke even at a
    first-row share between 0.035 and 0.056: the pairs took as long as the
    kernel on the 14-cell zigzag chain (0.035, 0.29 s each), 1.4 times as
    long on two disjoint TP(4,4,4) (0.056) and 4.4 times on two disjoint
    TP(4,4,4,4) (0.028), all three of which take the kernel.  At a share of
    0.07 the pairs took 0.44–0.68 of the kernel's time, and on TP(200,),
    where every pair is a cycle, 0.25 s against 48 s.  The first-row share
    is at least 0.41 on every perfbench compute-replay instance and at least
    0.23 on the 512 instances that verify's suites solve at 5 cells.

    There is no cycle cap: by that bijection a row holds at most K − 1
    masks, so the `max_matchings` that bounds the listing bounds them too.
    The kernel route passes K as the kernel's cap, which it never reaches.
    """
    k = len(pms)
    masks = [edge_mask(m.edge_ids) for m in pms]
    partners = [matching_partner(g, m) for m in pms]
    edges = g.edges
    cycles = [0] * k  # bit j of cycles[i]: pms[i] ⊕ pms[j] is one cycle
    for i, mi in enumerate(masks):
        pi, row = partners[i], cycles[i]
        for j in range(i + 1, k):
            d = mi ^ masks[j]
            left = d.bit_count()
            if left >= 8:
                pj = partners[j]
                u = edges[(d & -d).bit_length() - 1][0]
                x, left = pj[pi[u]], left - 2
                while x != u:
                    x, left = pj[pi[x]], left - 2
                if left:  # d holds another cycle
                    continue
            row |= 1 << j
            cycles[j] |= 1 << i
        cycles[i] = 0
        out = []
        while row:
            low = row & -row
            out.append(mi ^ masks[low.bit_length() - 1])
            row ^= low
        yield tuple(out)
        if i == 0 and 16 * len(out) < k - 1:
            for m in pms[1:]:
                yield alternating_cycle_masks(g, m, k)
            return


def enumerate_alternating_cycles(
    g: Graph, m: Matching, max_cycles: int = DEFAULT_CYCLE_CAP
) -> tuple[AltCycle, ...]:
    """All cycles alternating between matching and non-matching edges."""
    partner, walk = _alternating_walk(g, m, max_cycles)
    cycles = [
        AltCycle(_canonical_rotation([v for e in ends for v in (partner[e], e)]), _bit_ids(mask))
        for ends, mask in walk
    ]
    cycles.sort(key=lambda c: (len(c.vertex_seq), c.vertex_seq))
    return tuple(cycles)


def _fixedness(g: Graph, matchings: Iterable[Sequence[int]]) -> tuple[str, ...]:
    """Each edge's label, from the edge ids of every perfect matching of g."""
    counts = [0] * g.m
    total = 0
    for total, ids in enumerate(matchings, 1):
        for eid in ids:
            counts[eid] += 1
    if total == 0:
        raise NoPerfectMatching("graph has no perfect matching")
    return tuple(FIXED_SINGLE if c == 0 else FIXED_DOUBLE if c == total else FREE for c in counts)


def edge_fixedness(
    g: Graph, max_matchings: int = DEFAULT_MATCHING_CAP
) -> tuple[str, ...]:
    """Label every edge fixed-single / fixed-double / free by PM membership."""
    return _fixedness(g, _capped(g, max_matchings))


def normal_components(g: Graph, labels: tuple[str, ...]) -> tuple[InducedSubgraph, ...]:
    """Connected components of the subgraph spanned by the free edges.

    `labels` are g's edge_fixedness labels.
    """
    adj: dict[int, list[tuple[int, int]]] = {}
    for eid, lab in enumerate(labels):
        if lab == FREE:
            u, v = g.edges[eid]
            adj.setdefault(u, []).append((v, eid))
            adj.setdefault(v, []).append((u, eid))
    seen: set[int] = set()
    comps: list[InducedSubgraph] = []
    for start in sorted(adj):
        if start not in seen:
            verts = _reach(start, lambda u: (w for w, _ in adj[u]))
            seen |= verts
            edges = {eid for u in verts for _, eid in adj[u]}
            comps.append(_induced(g, sorted(verts), sorted(edges)))
    return tuple(comps)


def orient_and_contract(g: Graph, m: Matching) -> ContractedDigraph:
    """Contract each matching edge to a node; orient the rest black → white.

    Directed cycles of the result correspond one-to-one to alternating cycles
    of the graph, with arc provenance giving back the non-matching edges.
    """
    if g.color is None:
        raise NotBipartite("orientation requires a 2-coloring")
    partner = matching_partner(g, m)  # raises NotPerfect on bad input
    node_of = [-1] * g.n
    for i, eid in enumerate(m.edge_ids):
        u, v = g.edges[eid]
        node_of[u] = node_of[v] = i
    arcs: list[tuple[int, int]] = []
    provenance: list[int] = []
    for eid, (u, v) in enumerate(g.edges):
        if partner[u] == v:  # a matching edge
            continue
        black, white = (u, v) if g.color[u] == BLACK else (v, u)
        arcs.append((node_of[black], node_of[white]))
        provenance.append(eid)
    return ContractedDigraph(len(m), tuple(arcs), tuple(provenance))


def _directed_walk(d: ContractedDigraph, max_cycles: int) -> Iterator[tuple[list[int], int]]:
    """The kernel over d's cycles: each step follows one arc and adds its bit."""
    succ: list[list[tuple[int, int, int]]] = [[] for _ in range(d.node_count)]
    for aid, (tail, head) in enumerate(d.arcs):
        if head != tail:  # a loop closes no cycle
            succ[tail].append((head, head, 1 << aid))
    starts = [(root, root, 0) for root in range(d.node_count)]
    return _simple_cycles(succ, starts, max_cycles, "directed cycles")


def directed_cycle_masks(
    d: ContractedDigraph, max_cycles: int = DEFAULT_CYCLE_CAP
) -> tuple[int, ...]:
    """The arc bitmask of every directed cycle, in discovery order."""
    return tuple(mask for _, mask in _directed_walk(d, max_cycles))


def enumerate_directed_cycles(
    d: ContractedDigraph, max_cycles: int = DEFAULT_CYCLE_CAP
) -> tuple[DirectedCycle, ...]:
    """All node-simple directed cycles; parallel arcs yield distinct cycles."""
    walk = _directed_walk(d, max_cycles)
    cycles = [DirectedCycle(tuple(nodes), _bit_ids(mask)) for nodes, mask in walk]
    cycles.sort(key=lambda c: (len(c.node_seq), c.node_seq, sorted(c.arc_ids)))
    return tuple(cycles)
