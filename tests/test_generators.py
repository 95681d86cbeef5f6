"""Instance generators: layouts, the polyhex corpus, gluings."""

import pytest

from matchforce.errors import BadRowSequence, InvalidGlue, TooLarge, UnknownName
from matchforce.generators import (
    GLUE_PRESETS,
    GlueSpec,
    enumerate_hex_systems,
    gen_named,
    gen_truncated_parallelogram,
    glue_af2,
    glue_preset,
    tp_cells,
)
from matchforce.hexsys import is_truncated_parallelogram, transform_cell


def test_tp_layout_rows_are_right_aligned():
    cells = tp_cells((3, 2))
    assert cells == ((0, 0), (1, 0), (1, 1), (2, 0), (2, 1))


def test_tp_rejects_increasing_rows():
    with pytest.raises(BadRowSequence):
        gen_truncated_parallelogram((2, 3))
    with pytest.raises(BadRowSequence):
        gen_truncated_parallelogram(())
    with pytest.raises(BadRowSequence):
        gen_truncated_parallelogram((2, 0))


def test_tp_roundtrips_through_recognizer():
    for params in [(1,), (4,), (2, 2), (3, 1), (5, 5, 3, 2), (4, 3, 3, 1)]:
        h = gen_truncated_parallelogram(params)
        ok, canon = is_truncated_parallelogram(h)
        assert ok
        # canonical parameters regenerate a congruent cell set
        regenerated = gen_truncated_parallelogram(canon)
        shapes = set()
        for sym in range(12):
            t = sorted(transform_cell(c, sym) for c in regenerated.cells)
            q0 = min(q for q, _ in t)
            r0 = min(r for _, r in t)
            shapes.add(tuple(sorted((q - q0, r - r0) for q, r in t)))
        q0 = min(q for q, _ in h.cells)
        r0 = min(r for _, r in h.cells)
        original = tuple(sorted((q - q0, r - r0) for q, r in h.cells))
        assert original in shapes


def test_named_instances():
    assert gen_named("C4").n == 4
    assert gen_named("C6").m == 6
    assert gen_named("triphenylene").n_cells == 4
    dodeca = gen_named("dodecahedron")
    assert dodeca.n == 20 and dodeca.m == 30
    assert all(dodeca.degree(v) == 3 for v in range(20))
    assert dodeca.color is None
    with pytest.raises(UnknownName):
        gen_named("buckyball")


def test_polyhex_corpus_counts():
    # published fixed-polyhex counts, minus the single 6-cell ring with a hole
    expected = {1: 1, 2: 3, 3: 11, 4: 44, 5: 186, 6: 813}
    for n, count in expected.items():
        assert len(enumerate_hex_systems(n)) == count


def test_polyhex_corpus_count_is_order_independent():
    """Recount with a different canonical anchor (sort by (q, r), not (r, q))."""
    from matchforce.hexsys import NEIGHBOR_OFFSETS
    from matchforce.errors import HasHole
    from matchforce.hexsys import build_hex_system

    def canon(cells):
        cs = sorted(cells)  # plain (q, r) order this time
        q0, r0 = cs[0]
        return tuple(sorted((q - q0, r - r0) for q, r in cs))

    level = {((0, 0),)}
    for n in range(2, 7):
        grown = set()
        for cells in level:
            cellset = set(cells)
            for q, r in cells:
                for dq, dr in NEIGHBOR_OFFSETS:
                    nb = (q + dq, r + dr)
                    if nb not in cellset:
                        grown.add(canon(cellset | {nb}))
        level = grown
        hole_free = 0
        for cells in level:
            try:
                build_hex_system(cells)
                hole_free += 1
            except HasHole:
                pass
        assert hole_free == len(enumerate_hex_systems(n))


def test_recognizer_matches_congruence_oracle_on_corpus():
    """Independent route: a system is a TP iff congruent to some row layout."""

    def canon_shape(cells):
        best = None
        for sym in range(12):
            t = sorted(transform_cell(c, sym) for c in cells)
            q0 = min(q for q, _ in t)
            r0 = min(r for _, r in t)
            t = tuple(sorted((q - q0, r - r0) for q, r in t))
            if best is None or t < best:
                best = t
        return best

    def descending_tuples(total, cap=None):
        cap = cap or total
        if total == 0:
            yield ()
            return
        for first in range(min(cap, total), 0, -1):
            for rest in descending_tuples(total - first, first):
                yield (first,) + rest

    for n in range(1, 6):
        tp_shapes = {canon_shape(tp_cells(p)) for p in descending_tuples(n)}
        for h in enumerate_hex_systems(n):
            expected = canon_shape(h.cells) in tp_shapes
            ok, _ = is_truncated_parallelogram(h)
            assert ok == expected, h.cells


def test_corpus_too_large():
    with pytest.raises(TooLarge):
        enumerate_hex_systems(7)


def test_corpus_is_deterministic():
    first = [h.cells for h in enumerate_hex_systems(3)]
    second = [h.cells for h in enumerate_hex_systems(3)]
    assert first == second


def test_every_corpus_system_builds_clean():
    for h in enumerate_hex_systems(4):
        assert h.n_cells == 4
        assert h.graph.color is not None


# ---------------------------------------------------------------- gluings

def test_presets_are_valid_gluings():
    assert sorted(GLUE_PRESETS) == [1, 2, 3, 4]
    for k in GLUE_PRESETS:
        h = glue_preset(k)
        assert h.n_cells >= 4


def test_glue_rejects_overlap():
    with pytest.raises(InvalidGlue):
        glue_af2(GlueSpec((2,), (2,), 0, (0, 0)))


def test_glue_rejects_even_path():
    # one cell capping a 2-row touches both cells: two shared edges
    with pytest.raises(InvalidGlue):
        glue_af2(GlueSpec((2,), (1,), 0, (0, 1)))


def test_glue_rejects_shared_edges_that_are_not_a_path():
    # three shared edges in two pieces: one lone edge and a path of two
    with pytest.raises(InvalidGlue, match="shared edges do not form a simple path"):
        glue_af2(GlueSpec((2, 1), (3, 1), 3, (1, 2)))


def test_glue_rejects_disjoint_blocks():
    with pytest.raises(InvalidGlue):
        glue_af2(GlueSpec((1,), (1,), 0, (4, 0)))


def test_glue_rejects_wrong_declared_path():
    spec = GlueSpec((1,), (1,), 0, (1, 0), fused_path=(((9, 9), (9, 11)),))
    with pytest.raises(InvalidGlue):
        glue_af2(spec)


def test_glue_can_produce_a_truncated_parallelogram():
    # the generator does not reject gluings that happen to stay TPs;
    # downstream the anti-forcing number comes out as 1, not 2
    from matchforce.antiforcing import anti_forcing_edges

    h = glue_af2(GlueSpec((1,), (1,), 0, (1, 0)))
    ok, params = is_truncated_parallelogram(h)
    assert ok and params == (2,)
    assert anti_forcing_edges(h.graph)


def test_glue_rejects_closed_ring():
    # two bent 3-chains closing a ring around an empty center
    with pytest.raises(InvalidGlue):
        glue_af2(GlueSpec((2, 1), (2, 1), 3, (0, 2)))
