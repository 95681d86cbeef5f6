"""Deterministic construction of the instance families the checks run over."""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Iterable

from .errors import (
    BadRowSequence,
    HasHole,
    InvalidGlue,
    TooLarge,
    UnknownName,
)
from .graphs import Graph, build_graph
from .hexsys import (
    Cell,
    HexSystem,
    NEIGHBOR_OFFSETS,
    VertexKey,
    _is_tree,
    build_hex_system,
    cell_corners,
    transform_cell,
)

MAX_ENUMERATED_CELLS = 6

# central cell plus its three pairwise non-adjacent neighbors
TRIPHENYLENE_CELLS: tuple[Cell, ...] = ((-1, 0), (0, 0), (0, 1), (1, -1))


def tp_cells(params: Iterable[int]) -> tuple[Cell, ...]:
    """Row layout: row i (1-based) sits at r=i-1, right-aligned at q=n1-1."""
    ns = tuple(int(x) for x in params)
    if not ns or any(n < 1 for n in ns) or any(a < b for a, b in zip(ns, ns[1:])):
        raise BadRowSequence(f"row lengths must be descending positive, got {ns}")
    n1 = ns[0]
    cells = []
    for i, ni in enumerate(ns):
        cells.extend((q, i) for q in range(n1 - ni, n1))
    return tuple(sorted(cells))


def gen_truncated_parallelogram(params: Iterable[int]) -> HexSystem:
    return build_hex_system(tp_cells(params))


def _dodecahedron_graph() -> Graph:
    """20-vertex 3-regular planar graph, frozen numbering.

    Outer ring 0..9 in a cycle; spokes i -- 10+i; inner vertices 10..19
    joined as 10+i -- 10+((i+2) mod 10), forming two interlocked pentagons.
    """
    edges = [(i, (i + 1) % 10) for i in range(10)]
    edges += [(i, 10 + i) for i in range(10)]
    edges += [(10 + i, 10 + (i + 2) % 10) for i in range(10)]
    return build_graph(20, edges)


def gen_named(name: str) -> Graph | HexSystem:
    """Named instances: triphenylene, dodecahedron, C4, C6."""
    key = name.strip().lower()
    if key == "triphenylene":
        return build_hex_system(TRIPHENYLENE_CELLS)
    if key == "dodecahedron":
        return _dodecahedron_graph()
    if key == "c4":
        return build_graph(4, [(0, 1), (1, 2), (2, 3), (3, 0)])
    if key == "c6":
        return build_graph(6, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (5, 0)])
    raise UnknownName(f"no generator named {name!r}")


@lru_cache(maxsize=None)
def _cell_sets(n: int) -> tuple[tuple[Cell, ...], ...]:
    """All connected n-cell sets up to translation, each (n − 1)-cell set grown by one cell.

    Each set is sorted, with its (r, q)-least cell on the origin, so a grown
    set moves only when the new cell comes before the origin in (r, q).
    """
    if n <= 1:
        return (((0, 0),),)
    grown: set[tuple[Cell, ...]] = set()
    for cells in _cell_sets(n - 1):
        cellset = set(cells)
        for q, r in cells:
            for dq, dr in NEIGHBOR_OFFSETS:
                nb = (q + dq, r + dr)
                if nb not in cellset:
                    more = cells + (nb,)
                    if (nb[1], nb[0]) < (0, 0):
                        more = tuple((a - nb[0], b - nb[1]) for a, b in more)
                    grown.add(tuple(sorted(more)))
    return tuple(sorted(grown))


@lru_cache(maxsize=None)
def enumerate_hex_systems(n: int) -> tuple[HexSystem, ...]:
    """Every hole-free system with n cells, deduplicated under translation."""
    if not 1 <= n <= MAX_ENUMERATED_CELLS:
        raise TooLarge(f"exhaustive enumeration is capped at {MAX_ENUMERATED_CELLS} cells")
    out = []
    for cells in _cell_sets(n):
        try:
            out.append(build_hex_system(cells))
        except HasHole:
            continue
    return tuple(out)


@dataclass(frozen=True)
class GlueSpec:
    """Placement recipe for gluing two truncated parallelograms.

    The first block sits in its generator layout; the second is transformed
    by one of the 12 lattice symmetries and then translated.  When given,
    `fused_path` pins down the expected shared boundary edges (as sorted
    corner-key pairs) and is re-validated against the geometry.
    """

    t1: tuple[int, ...]
    t2: tuple[int, ...]
    t2_symmetry: int = 0
    t2_offset: Cell = (0, 0)
    fused_path: tuple[tuple[VertexKey, VertexKey], ...] | None = None


def _cell_edge_keys(cells: Iterable[Cell]) -> set[tuple[VertexKey, VertexKey]]:
    """Every edge of the cells as a sorted pair of corner keys."""
    return {
        (u, v) if u < v else (v, u)
        for cs in map(cell_corners, cells)
        for u, v in zip(cs, cs[1:] + cs[:1])
    }


def _is_simple_path(edges: set[tuple[VertexKey, VertexKey]]) -> bool:
    # a tree with no vertex of degree more than 2 is a simple path
    index = {k: i for i, k in enumerate(sorted({k for e in edges for k in e}))}
    g = Graph(n=len(index), edges=tuple((index[u], index[v]) for u, v in edges))
    return _is_tree(g) and g.max_degree <= 2


def glue_af2(spec: GlueSpec) -> HexSystem:
    """Union of two truncated parallelograms sharing an odd boundary path.

    Only the geometry is validated (no overlap, the shared edges form a
    simple path of odd length, which makes the union hole-free); whether
    the result really has anti-forcing number 2 is checked downstream.
    """
    cells1 = set(tp_cells(spec.t1))
    cells2 = {
        (q + spec.t2_offset[0], r + spec.t2_offset[1])
        for q, r in (transform_cell(c, spec.t2_symmetry) for c in tp_cells(spec.t2))
    }
    if cells1 & cells2:
        raise InvalidGlue(f"blocks overlap on cells {sorted(cells1 & cells2)}")

    shared = _cell_edge_keys(cells1) & _cell_edge_keys(cells2)
    if not shared:
        raise InvalidGlue("blocks do not touch along any edge")
    if len(shared) % 2 == 0:
        raise InvalidGlue(f"fused path has even length {len(shared)}")
    if not _is_simple_path(shared):
        raise InvalidGlue("shared edges do not form a simple path")
    if spec.fused_path is not None and set(spec.fused_path) != shared:
        raise InvalidGlue("declared fused path does not match the geometry")

    # The union is connected and hole-free, so this cannot raise: where a
    # cell of each block has a corner at one lattice vertex, the two share
    # an edge, as any two of the three cells at a vertex do.  So the blocks,
    # two disks, meet in the shared path alone, and make one disk.
    return build_hex_system(cells1 | cells2)


# Frozen gluing presets; each produces a system with anti-forcing number 2,
# which the verification suite recomputes by brute force.  Preset 3 is
# triphenylene seen as a gluing; preset 4 additionally has minimum forcing
# number 1.
GLUE_PRESETS: dict[int, GlueSpec] = {
    1: GlueSpec(
        t1=(1,),
        t2=(2, 1),
        t2_symmetry=0,
        t2_offset=(-2, -1),
        fused_path=(((-1, -1), (-1, 1)),),
    ),
    2: GlueSpec(
        t1=(2,),
        t2=(3, 1),
        t2_symmetry=0,
        t2_offset=(0, 1),
        fused_path=(
            ((0, 2), (1, 1)),
            ((1, 1), (2, 2)),
            ((2, 2), (3, 1)),
        ),
    ),
    3: GlueSpec(
        t1=(1,),
        t2=(2, 1),
        t2_symmetry=0,
        t2_offset=(-2, 1),
        fused_path=(((-1, 1), (0, 2)),),
    ),
    4: GlueSpec(
        t1=(1,),
        t2=(3, 3),
        t2_symmetry=0,
        t2_offset=(-3, 1),
        fused_path=(((-1, 1), (0, 2)),),
    ),
}


def glue_preset(number: int) -> HexSystem:
    if number not in GLUE_PRESETS:
        raise UnknownName(f"glue preset {number} (have {sorted(GLUE_PRESETS)})")
    return glue_af2(GLUE_PRESETS[number])
