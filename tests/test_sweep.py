"""The frontier sweep behind pm_count, Clar and Fries on hexagonal systems.

The sweep is held to the enumerative reference (every matching's
alternating_hexagons, packed here by the tests) value for value and witness
for witness, its count beyond the enumeration cap to the
Dewar–Longuet-Higgins determinant and MacMahon's formula, and verify's
value-only Clar and Fries, read off the listed matchings (report.Profile),
to the sweep.
"""

import ast
import gc
import sys
import tracemalloc
from fractions import Fraction
from itertools import combinations, product

import pytest
from hypothesis import assume, given, settings, strategies as st

from matchforce import graphs, hexsys
from matchforce.errors import HasHole, LimitExceeded, NoPerfectMatching
from matchforce.exact import max_independent_indices, max_independent_size
from matchforce.generators import (
    enumerate_hex_systems,
    gen_truncated_parallelogram,
    glue_preset,
)
from matchforce.graphs import BLACK, count_perfect_matchings, enumerate_perfect_matchings
from matchforce.hexsys import (
    NEIGHBOR_OFFSETS,
    FriesNumbers,
    alternating_hexagons,
    build_hex_system,
    clar_number,
    fries_numbers,
)
from matchforce.io import serialize_hex
from matchforce.report import Profile, compute_report
from matchforce.verify import polyhex_corpus, preset_corpus, tp_corpus
from test_hexsys import _hexagon

TP_LADDER = ((4, 4, 4), (5,) * 4, (6,) * 5, (7,) * 6)
# the truncated parallelograms of the benchmark's kekule workload
KEKULE_TPS = ((400,), (12, 10, 8, 6, 4, 2), (9, 7, 5, 3, 1), (5,) * 8, (6,) * 6, (8,) * 6)


def _adjacent(h, cells):
    """Per listed cell: the bits j of the listed cells j adjacent to it."""
    return [sum(1 << j for j, d in enumerate(cells) if d in h.cell_adjacency[c]) for c in cells]


def _reference(h):
    """pm_count, Clar and Fries with their witnesses, from every enumerated matching.

    The Clar witness is the first matching in canonical order to reach the
    largest packing of its resonant cells, with its lexicographically least
    largest packing; each Fries witness is the first matching to reach the
    most or the fewest resonant cells, with those cells.
    """
    pms = enumerate_perfect_matchings(h.graph)
    if not pms:
        return 0, None, None
    resonant = [alternating_hexagons(h, m) for m in pms]
    best, clar_witness = 0, (pms[0], ())
    for m, alt in zip(pms, resonant):
        # a packing among k resonant cells cannot beat best when k <= best
        if len(alt) > best:
            k, pick = max_independent_indices(_adjacent(h, alt))
            if k > best:
                best, clar_witness = k, (m, tuple(h.cells[alt[j]] for j in pick))
    counts = [len(alt) for alt in resonant]
    i, j = counts.index(max(counts)), counts.index(min(counts))
    witnesses = [(pms[x], tuple(h.cells[c] for c in resonant[x])) for x in (i, j)]
    return len(pms), (best, clar_witness), FriesNumbers(counts[i], counts[j], *witnesses)


def _swept(h):
    count = count_perfect_matchings(h.graph)
    if not count:
        for search in (clar_number, fries_numbers):
            with pytest.raises(NoPerfectMatching):
                search(h)
        return 0, None, None
    return count, clar_number(h), fries_numbers(h)


def test_the_sweep_matches_the_enumeration_on_the_corpus():
    polyhexes = [h for n in range(1, 7) for h in enumerate_hex_systems(n)]
    assert len(polyhexes) == 1058
    corpus = polyhexes + [glue_preset(k) for k in (1, 2, 3, 4)]
    corpus += [gen_truncated_parallelogram(p) for p in TP_LADDER]
    kekule = [gen_truncated_parallelogram(p) for p in KEKULE_TPS] + [_hexagon(3)]
    # the chain's witnesses are masks over its 2,001 edges
    assert kekule[0].graph.m == 2001
    corpus += kekule
    counts = []
    for h in corpus:
        expected = _reference(h)
        assert _swept(h) == expected, h.cells
        counts.append(expected[0])
    assert 0 < counts[: len(polyhexes)].count(0) < len(polyhexes)
    assert counts[-len(kekule) :] == [401, 7752, 728, 1287, 924, 3003, 980]


@st.composite
def polyhexes(draw):
    """A hole-free polyhex of up to 10 cells, grown one neighbour at a time."""
    cells = [(0, 0)]
    for _ in range(draw(st.integers(min_value=0, max_value=9))):
        q, r = draw(st.sampled_from(cells))
        dq, dr = draw(st.sampled_from(NEIGHBOR_OFFSETS))
        if (q + dq, r + dr) not in cells:
            cells.append((q + dq, r + dr))
    try:
        return build_hex_system(cells)
    except HasHole:
        assume(False)


@settings(max_examples=150, deadline=None)
@given(polyhexes())
def test_the_sweep_matches_the_enumeration_on_random_polyhexes(h):
    assert _swept(h) == _reference(h)


def test_the_reference_clar_witness_is_the_first_maximum():
    # the size cut skips matchings but not the value, the first matching
    # attaining it or that matching's lexicographically least packing
    ties = 0
    for h in (h for n in range(1, 6) for h in enumerate_hex_systems(n)):
        pms = enumerate_perfect_matchings(h.graph)
        if not pms:
            assert _reference(h) == (0, None, None)
            continue
        counts, packings = [], []
        for m in pms:
            alt = alternating_hexagons(h, m)
            counts.append(max_independent_size(_adjacent(h, alt)))
            packings.append(next(
                p for p in combinations(alt, counts[-1])
                if not any(d in h.cell_adjacency[c] for c, d in combinations(p, 2))
            ))
        best = max(counts)
        i = counts.index(best)
        assert _reference(h)[1] == (best, (pms[i], tuple(h.cells[c] for c in packings[i])))
        ties += counts.count(best) > 1
    assert ties > 0


def test_the_profile_read_off_equals_the_sweep():
    # verify's value-only read-off (report.Profile) against the sweep on every
    # polyhex of at most 5 cells with a perfect matching
    checked = 0
    for h in (h for n in range(1, 6) for h in enumerate_hex_systems(n)):
        if not count_perfect_matchings(h.graph):
            continue
        p = Profile(h)
        fries = fries_numbers(h)
        assert p.clar == clar_number(h)[0], h.cells
        counts = [mask.bit_count() for mask in p.resonant]
        assert (max(counts), min(counts)) == (fries.maximum, fries.minimum), h.cells
        checked += 1
    assert checked == 165


def test_the_kept_sweep_still_checks_the_cap():
    # one call keeps the resonance sweep on the system; the next still checks
    # its own cap and its own empty case first
    h = gen_truncated_parallelogram((3, 3, 2))
    k = len(enumerate_perfect_matchings(h.graph))
    clar_number(h)
    for search in (fries_numbers, clar_number):
        with pytest.raises(LimitExceeded):
            search(h, max_matchings=k - 1)
    assert fries_numbers(h, max_matchings=k) == _reference(h)[2]
    h = next(h for h in enumerate_hex_systems(3) if not enumerate_perfect_matchings(h.graph))
    for search in (clar_number, fries_numbers, clar_number):
        with pytest.raises(NoPerfectMatching):
            search(h)


def _determinant(rows):
    """Determinant of a square integer matrix by Bareiss fraction-free elimination."""
    a = [list(row) for row in rows]
    n, sign, prev = len(a), 1, 1
    for k in range(n - 1):
        if not a[k][k]:
            swap = next((i for i in range(k + 1, n) if a[i][k]), None)
            if swap is None:
                return 0
            a[k], a[swap] = a[swap], a[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                a[i][j] = (a[i][j] * a[k][k] - a[i][k] * a[k][j]) // prev
        prev = a[k][k]
    return sign * a[-1][-1]


def _dewar_longuet_higgins(h):
    """|det B| for the black-by-white biadjacency matrix B: K(H) of a hole-free benzenoid."""
    g = h.graph
    black = [v for v in range(g.n) if g.color[v] == BLACK]
    white = [v for v in range(g.n) if g.color[v] != BLACK]
    if len(black) != len(white):
        return 0
    column = {v: j for j, v in enumerate(white)}
    rows = [[0] * len(white) for _ in black]
    for i, b in enumerate(black):
        for w, _ in g.adjacency[b]:
            rows[i][column[w]] = 1
    return abs(_determinant(rows))


def test_the_swept_count_is_the_kekule_determinant():
    for n in range(1, 7):
        for h in enumerate_hex_systems(n):
            assert count_perfect_matchings(h.graph) == _dewar_longuet_higgins(h), h.cells
    for side, k in ((3, 980), (4, 232_848), (5, 267_227_532)):
        h = _hexagon(side)
        assert count_perfect_matchings(h.graph, max_matchings=k) == k == _dewar_longuet_higgins(h)
        with pytest.raises(LimitExceeded):
            count_perfect_matchings(h.graph, max_matchings=k - 1)


def _macmahon(n):
    """MacMahon's box formula: K of the hexagon-shaped system with n cells along each edge."""
    k = Fraction(1)
    for i, j, l in product(range(1, n + 1), repeat=3):
        k *= Fraction(i + j + l - 1, i + j + l - 2)
    return k


def test_the_forward_count_equals_the_enumeration_the_resonance_pass_and_macmahon():
    corpus = polyhex_corpus(5) + tp_corpus(8) + preset_corpus()
    assert len(corpus) == 245 + 66 + 4
    for name, h in corpus:
        count = count_perfect_matchings(h.graph)
        assert count == len(enumerate_perfect_matchings(h.graph)), name
        # the resonance pass ends in state 0 exactly when some matching completes it
        assert (hexsys._sweep_resonance(h) is not None) == (count > 0), name
    counts = [count_perfect_matchings(_hexagon(n).graph, max_matchings=10**20) for n in range(1, 7)]
    assert counts == [_macmahon(n) for n in range(1, 7)]
    assert counts[-1] == 1_478_619_421_136
    # a linear chain of n hexagons has n + 1 perfect matchings
    assert count_perfect_matchings(gen_truncated_parallelogram((600,)).graph) == 601


def test_a_long_chain_needs_no_recursion(tmp_path):
    # a linear chain of n hexagons has n + 1 perfect matchings, Clar number 1
    # and Fries numbers 2 and 1
    path = tmp_path / "tp-600.hex"
    path.write_text(serialize_hex(gen_truncated_parallelogram((600,))))
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(150)
    try:
        report = compute_report(path, ["pm_count", "clar", "fries"])
    finally:
        sys.setrecursionlimit(limit)
    values = {e["name"]: e["value"] for e in report["invariants"]}
    assert values == {"pm_count": 601, "clar": 1, "fries": {"max": 2, "min": 1}}


# per module: the class whose methods it holds, and the sweep's functions
SWEEPS = (
    # the count: the graph's cached sweep, its order, steps and cap, and the entry point
    (graphs, "Graph", [
        "_pm_count", "_bfs", "_cover_steps", "_check_frontier", "count_perfect_matchings",
    ]),
    # the resonance pass, the tie rule, the gate the entry points share, the
    # entry points and the accessor that keeps the pass on the system
    (hexsys, "HexSystem", [
        "_sweep_resonance", "_first", "_kekule_resonance", "clar_number", "fries_numbers",
        "_resonance",
    ]),
)


def test_the_sweep_holds_no_recursion():
    # a nested function or a call cycle in the sweep would bring back a depth
    # bounded by the interpreter's recursion limit
    for module, cls, sweep in SWEEPS:
        with open(module.__file__, encoding="utf-8") as f:
            tree = ast.parse(f.read())
        owner = next(n for n in tree.body if isinstance(n, ast.ClassDef) and n.name == cls)
        functions = {
            node.name: node
            for node in tree.body + owner.body
            if isinstance(node, ast.FunctionDef)
        }
        # a call by name, or a read of a property such as g._pm_count or h._resonance
        calls = {
            name: {
                n.func.id if isinstance(n, ast.Call) else n.attr
                for n in ast.walk(node)
                if isinstance(n, ast.Call) and isinstance(n.func, ast.Name) and n.func.id in functions
                or isinstance(n, ast.Attribute) and n.attr in functions
            }
            for name, node in functions.items()
        }
        for name in sweep:
            node = functions[name]
            nested = [
                n
                for n in ast.walk(node)
                if n is not node and isinstance(n, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda))
            ]
            assert not nested, name
            reached, frontier = set(), [name]
            while frontier:
                for callee in calls[frontier.pop()]:
                    if callee not in reached:
                        reached.add(callee)
                        frontier.append(callee)
            assert name not in reached, name


@st.composite
def equal_size_masks(draw):
    """Two edge masks with the same number of edges."""
    size = draw(st.integers(min_value=1, max_value=12))
    ids = st.sets(st.integers(min_value=0, max_value=40), min_size=size, max_size=size)
    return sum(1 << i for i in draw(ids)), sum(1 << i for i in draw(ids))


@settings(max_examples=300, deadline=None)
@given(equal_size_masks())
def test_the_tie_rule_is_canonical_order(masks):
    # of two distinct edge sets of one size reaching one state, the sweep
    # keeps the one whose sorted ids come first
    a, b = masks
    assume(a != b)
    bits = [[i for i in range(mask.bit_length()) if mask >> i & 1] for mask in masks]
    assert hexsys._first(a, b) == (bits[0] < bits[1]) != hexsys._first(b, a)


def test_both_passes_stop_at_the_state_cap(monkeypatch):
    # past the cap, the count and the resonance pass each name the vertex they reached
    h = _hexagon(3)
    past = r"^frontier sweep holds \d+ states at vertex \d+ of 54, more than 4$"
    with monkeypatch.context() as m:
        m.setattr(graphs, "FRONTIER_STATE_CAP", 4)
        with pytest.raises(LimitExceeded, match=past):
            count_perfect_matchings(h.graph)
    assert count_perfect_matchings(h.graph) == 980  # a stopped sweep keeps nothing
    with monkeypatch.context() as m:
        m.setattr(graphs, "FRONTIER_STATE_CAP", 4)
        # the graph keeps its count, so here the resonance pass raises
        with pytest.raises(LimitExceeded, match=past):
            clar_number(h)
    assert clar_number(h)[0] == 7


def _resonance_peak(h):
    """The tracemalloc peak of h's resonance pass, in a state earlier tests cannot change.

    The system's cached graph properties and count are made first.  An
    object taken from one of the interpreter's free lists is not traced, and
    a collection empties them, so one unmeasured pass fills them first and
    the collector stays off.
    """
    h.edge_cells, h.cell_adjacency, h.cell_conflicts, h.cell_edge_masks
    count_perfect_matchings(h.graph)
    gc.disable()
    try:
        hexsys._sweep_resonance(h)
        tracemalloc.start()
        h._resonance
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
        gc.enable()


def test_the_resonance_pass_keeps_one_layer():
    # one layer peaks near 70 KiB on hexagon-3; every layer's moves took 912 KiB
    peak = _resonance_peak(_hexagon(3))
    assert peak < 256 * 1024, peak
    # TP(400,) peaks near 550 KiB, mostly the set-up over its 2,001 edges;
    # steps holding their edge as the mask 1 << eid took 870 KiB
    peak = _resonance_peak(gen_truncated_parallelogram((400,)))
    assert peak < 768 * 1024, peak
