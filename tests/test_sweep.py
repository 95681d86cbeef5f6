"""The frontier sweep behind pm_count, Clar and Fries on hexagonal systems.

The sweep is held to the enumerative reference (every matching's
alternating_hexagons, packed here by the tests) value for value and witness
for witness, its count beyond the enumeration cap to the
Dewar–Longuet-Higgins determinant and MacMahon's formula, and verify's
value-only Clar and Fries, read off the listed matchings (report.Profile),
to the sweep.
"""

import ast
import sys
import tracemalloc
from fractions import Fraction
from itertools import combinations, product

import pytest
from hypothesis import assume, given, settings, strategies as st

from matchforce import hexsys
from matchforce.errors import HasHole, LimitExceeded, NoPerfectMatching
from matchforce.exact import max_independent_indices, max_independent_size
from matchforce.generators import (
    enumerate_hex_systems,
    gen_truncated_parallelogram,
    glue_preset,
)
from matchforce.graphs import BLACK, enumerate_perfect_matchings
from matchforce.hexsys import (
    NEIGHBOR_OFFSETS,
    FriesNumbers,
    alternating_hexagons,
    build_hex_system,
    clar_number,
    fries_numbers,
    kekule_count,
)
from matchforce.io import serialize_hex
from matchforce.report import Caps, Profile, compute_report
from matchforce.verify import polyhex_corpus, preset_corpus, tp_corpus
from test_hexsys import _hexagon

TP_LADDER = ((4, 4, 4), (5,) * 4, (6,) * 5, (7,) * 6)


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
    count = kekule_count(h)
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
    without = 0
    for h in corpus:
        expected = _reference(h)
        assert _swept(h) == expected, h.cells
        without += not expected[0]
    assert 0 < without < len(polyhexes)


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
        if not kekule_count(h):
            continue
        p = Profile(h, Caps())
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
            assert kekule_count(h) == _dewar_longuet_higgins(h), h.cells
    for side, k in ((3, 980), (4, 232_848), (5, 267_227_532)):
        h = _hexagon(side)
        assert kekule_count(h, max_matchings=k) == k == _dewar_longuet_higgins(h)
        with pytest.raises(LimitExceeded):
            kekule_count(h, max_matchings=k - 1)


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
        count = hexsys._sweep_count(h)
        assert count == len(enumerate_perfect_matchings(h.graph)), name
        # the resonance pass ends in state 0 exactly when some matching completes it
        assert (hexsys._sweep_resonance(h) is not None) == (count > 0), name
    counts = [kekule_count(_hexagon(n), max_matchings=10**20) for n in range(1, 7)]
    assert counts == [_macmahon(n) for n in range(1, 7)]
    assert counts[-1] == 1_478_619_421_136
    # a linear chain of n hexagons has n + 1 perfect matchings
    assert kekule_count(gen_truncated_parallelogram((600,))) == 601


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


def test_the_sweep_holds_no_recursion():
    # a nested function or a call cycle in the sweep would bring back a depth
    # bounded by the interpreter's recursion limit
    with open(hexsys.__file__, encoding="utf-8") as f:
        tree = ast.parse(f.read())
    hex_system = next(n for n in tree.body if isinstance(n, ast.ClassDef) and n.name == "HexSystem")
    functions = {
        node.name: node
        for node in tree.body + hex_system.body
        if isinstance(node, ast.FunctionDef)
    }
    sweep = [name for name in functions if name.startswith("_sweep")]
    assert {"_sweep_count", "_sweep_resonance"} <= set(sweep)
    # the tie rule, the entry points, the gate they share and the accessors
    # that keep a sweep on the system
    sweep += ["_first", "_cover_steps", "kekule_count", "_kekule_resonance"]
    sweep += ["clar_number", "fries_numbers"]
    sweep += ["_kekule_count", "_resonance"]
    # a call by name, or a read of a property of the system such as h._resonance
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


def test_the_resonance_pass_keeps_one_layer():
    # one layer peaks near 80 KiB on hexagon-3; every layer's moves took 912 KiB
    h = _hexagon(3)
    # the system's cached graph properties stay out of the peak
    h.edge_cells, h.cell_adjacency, h.cell_conflicts, h.cell_edge_masks
    tracemalloc.start()
    try:
        h._resonance
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 256 * 1024, peak
