"""The polyhex corpus, the builder and the shape tests against their earlier forms.

Each reference below is the straightforward version the library used to run:
cell sets regrown from one cell for every size, corners from a table of
offsets, edges keyed by corner-id pairs, the inner dual tested for a tree,
and every symmetry applied cell by cell through transform_cell.  The library's
versions must agree with them field by field, error by error.
"""

from itertools import product

import pytest

from matchforce.errors import Disconnected, HasHole
from matchforce.generators import GLUE_PRESETS, _cell_sets, glue_preset, tp_cells
from matchforce.graphs import BLACK, WHITE, Graph, _reach
from matchforce.hexsys import (
    NEIGHBOR_OFFSETS,
    _is_tree,
    _row_params,
    build_hex_system,
    inner_dual,
    is_all_kink_catahex,
    is_truncated_parallelogram,
    transform_cell,
)
from matchforce.verify import _descending_tuples

CORNER_OFFSETS = ((1, 1), (0, 2), (-1, 1), (-1, -1), (0, -2), (1, -1))


def _reference_cell_sets(n):
    level = {((0, 0),)}
    for _ in range(n - 1):
        grown = set()
        for cells in level:
            cellset = set(cells)
            for q, r in cells:
                for dq, dr in NEIGHBOR_OFFSETS:
                    nb = (q + dq, r + dr)
                    if nb not in cellset:
                        cs = sorted(cellset | {nb}, key=lambda c: (c[1], c[0]))
                        q0, r0 = cs[0]
                        grown.add(tuple(sorted((a - q0, b - r0) for a, b in cs)))
        level = grown
    return tuple(sorted(level))


def _reference_corners(cell):
    q, r = cell
    cx, cy = 2 * q + r, 3 * r
    return tuple((cx + dx, cy + dy) for dx, dy in CORNER_OFFSETS)


def _reference_cell_edges(corners):
    return [(u, v) if u < v else (v, u) for u, v in zip(corners, corners[1:] + corners[:1])]


def _reference_build(cells):
    """build_hex_system's fields as (cells, n, edges, color, keys, face vertices, face edges)."""
    cell_list = tuple(sorted({(int(q), int(r)) for q, r in cells}))
    if not cell_list:
        raise Disconnected("empty cell set")
    cellset = set(cell_list)

    def neighbours(cell):
        q, r = cell
        return [nb for dq, dr in NEIGHBOR_OFFSETS if (nb := (q + dq, r + dr)) in cellset]

    seen = _reach(min(cellset), neighbours)
    if len(seen) != len(cellset):
        missing = sorted(cellset - seen)
        raise Disconnected(f"cell set is not edge-connected; unreachable: {missing}")

    keys = sorted({k for c in cell_list for k in _reference_corners(c)})
    key_index = {k: i for i, k in enumerate(keys)}
    face_vertices = tuple(tuple(key_index[k] for k in _reference_corners(c)) for c in cell_list)
    face_edge_keys = [_reference_cell_edges(corners) for corners in face_vertices]
    edges = sorted({e for fe in face_edge_keys for e in fe})
    edge_index = {e: i for i, e in enumerate(edges)}
    bounded_faces = len(edges) - len(keys) + 1
    if bounded_faces != len(cell_list):
        raise HasHole(
            f"{bounded_faces} bounded faces for {len(cell_list)} cells; "
            "the cell set encloses a hole"
        )
    color = tuple(BLACK if y % 3 == 2 else WHITE for _, y in keys)
    face_edges = tuple(tuple(edge_index[e] for e in fe) for fe in face_edge_keys)
    return cell_list, len(keys), tuple(edges), color, tuple(keys), face_vertices, face_edges


def _reference_row_params(cells):
    rows = {}
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


def _reference_is_tp(h):
    readings = []
    for sym in range(12):
        params = _reference_row_params([transform_cell(c, sym) for c in h.cells])
        if params is not None:
            readings.append(params)
    return (True, max(readings)) if readings else (False, None)


def _reference_all_kink(h):
    if not _is_tree(inner_dual(h)):
        return False
    cellset = set(h.cells)
    return not any(
        (q + dq, r + dr) in cellset and (q - dq, r - dr) in cellset
        for q, r in h.cells
        for dq, dr in NEIGHBOR_OFFSETS
    )


REFERENCE_SETS = {n: _reference_cell_sets(n) for n in range(1, 7)}
# every cell set of at most 6 cells (holes included), the truncated
# parallelograms of at most 8 cells, the glue presets and a disconnected set
CORPUS = (
    [cells for n in range(1, 7) for cells in REFERENCE_SETS[n]]
    + [tp_cells(p) for total in range(1, 9) for p in _descending_tuples(total)]
    + [glue_preset(k).cells for k in sorted(GLUE_PRESETS)]
    + [((0, 0), (0, 1), (3, -1), (3, 0))]
)


def _fields(h):
    g = h.graph
    return h.cells, g.n, g.edges, g.color, h.vertex_keys, h.face_vertices, h.face_edges


def _built(cells):
    try:
        return build_hex_system(cells)
    except (Disconnected, HasHole):
        return None


def test_the_cell_sets_are_grown_as_before():
    assert [len(REFERENCE_SETS[n]) for n in range(1, 7)] == [1, 3, 11, 44, 186, 814]
    for n in range(1, 7):
        assert _cell_sets(n) == REFERENCE_SETS[n]


def test_the_builder_matches_the_reference_field_by_field_and_error_by_error():
    outcomes = set()
    for cells in CORPUS + [()]:
        try:
            expected = _reference_build(cells)
        except (Disconnected, HasHole) as exc:
            with pytest.raises(type(exc)) as raised:
                build_hex_system(cells)
            assert str(raised.value) == str(exc)
            outcomes.add(type(exc))
            continue
        h = build_hex_system(cells)
        assert isinstance(h.graph, Graph) and _fields(h) == expected, cells
        outcomes.add(None)
    assert outcomes == {None, Disconnected, HasHole}


def test_the_row_reading_matches_the_reference_under_every_symmetry():
    readings = 0
    for cells, sym in product(CORPUS, range(12)):
        moved = [transform_cell(c, sym) for c in cells]
        params = _row_params(moved)
        assert params == _reference_row_params(moved), (cells, sym)
        readings += params is not None
    assert readings > 500


def test_the_recognizers_match_the_reference_under_every_symmetry():
    systems = [h for h in map(_built, CORPUS) if h is not None]
    kinks = tps = 0
    for h in systems:
        assert is_all_kink_catahex(h) == _reference_all_kink(h), h.cells
        kinks += is_all_kink_catahex(h)
    for h in systems:
        # the 12 symmetries form a group, so every image of h reads as h does
        expected = _reference_is_tp(h)
        for sym in range(12):
            moved = build_hex_system([transform_cell(c, sym) for c in h.cells])
            assert is_truncated_parallelogram(moved) == expected, (h.cells, sym)
        tps += expected[0]
    assert kinks > 50 and tps > 100
