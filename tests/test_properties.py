"""Property tests over randomly generated instances."""

from itertools import islice

from hypothesis import assume, given, settings, strategies as st

from matchforce.antiforcing import antiforcing_number
from matchforce.errors import ParseError
from matchforce.forcing import forcing_number
from matchforce.graphs import (
    build_graph,
    enumerate_alternating_cycles,
    enumerate_directed_cycles,
    enumerate_perfect_matchings,
    has_unique_perfect_matching,
    orient_and_contract,
    _iter_perfect_matchings,
)
from matchforce.hexsys import tree_independent_domination
from matchforce.io import parse_graph, parse_hex, serialize_graph, serialize_hex


@st.composite
def bipartite_with_matching(draw):
    """Balanced bipartite graph guaranteed a perfect matching.

    Vertices 2i are white, 2i+1 black; the planted matching joins them,
    extra edges stay across the bipartition.
    """
    k = draw(st.integers(min_value=1, max_value=5))
    n = 2 * k
    edges = {(2 * i, 2 * i + 1) for i in range(k)}
    for w in range(0, n, 2):
        for b in range(1, n, 2):
            if (w, b) not in edges and b != w + 1 and draw(st.booleans()):
                edges.add(tuple(sorted((w, b))))
    color = [v % 2 for v in range(n)]
    return build_graph(n, sorted(edges), color)


@st.composite
def graph_with_matching(draw):
    """General graph with a planted perfect matching."""
    k = draw(st.integers(min_value=1, max_value=4))
    n = 2 * k
    edges = {(2 * i, 2 * i + 1) for i in range(k)}
    extra = draw(
        st.sets(
            st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)).filter(
                lambda e: e[0] != e[1]
            ),
            max_size=8,
        )
    )
    for u, v in extra:
        edges.add(tuple(sorted((u, v))))
    return build_graph(n, sorted(edges))


@settings(max_examples=60, deadline=None)
@given(bipartite_with_matching())
def test_symmetric_difference_decomposes_into_alternating_cycles(g):
    pms = enumerate_perfect_matchings(g, max_matchings=10_000)
    m = pms[0]
    cycles = {c.edge_ids for c in enumerate_alternating_cycles(g, m, 100_000)}
    for other in pms[1:]:
        diff = m.edge_set ^ other.edge_set
        remaining = set(diff)
        while remaining:
            seed = remaining.pop()
            comp = {seed}
            frontier = [seed]
            while frontier:
                e = frontier.pop()
                for f in list(remaining):
                    if set(g.edges[e]) & set(g.edges[f]):
                        remaining.discard(f)
                        comp.add(f)
                        frontier.append(f)
            assert frozenset(comp) in cycles


@settings(max_examples=60, deadline=None)
@given(bipartite_with_matching())
def test_contraction_bijects_cycles(g):
    for m in enumerate_perfect_matchings(g, max_matchings=10_000)[:3]:
        alt = enumerate_alternating_cycles(g, m, 100_000)
        d = orient_and_contract(g, m)
        directed = enumerate_directed_cycles(d, 100_000)
        assert len(alt) == len(directed)
        alt_sets = sorted(sorted(c.edge_ids - m.edge_set) for c in alt)
        arc_sets = sorted(sorted(d.arc_edges[a] for a in c.arc_ids) for c in directed)
        assert alt_sets == arc_sets


@settings(max_examples=60, deadline=None)
@given(graph_with_matching())
def test_sandwich_bound_on_random_graphs(g):
    slack = max(g.max_degree - 1, 1)
    for m in enumerate_perfect_matchings(g, max_matchings=10_000)[:4]:
        f, _ = forcing_number(g, m, 100_000)
        af, _ = antiforcing_number(g, m, 100_000)
        assert f <= af <= slack * f


@settings(max_examples=80, deadline=None)
@given(bipartite_with_matching())
def test_unique_check_agrees_with_capped_enumeration(g):
    unique, witness = has_unique_perfect_matching(g)
    first_two = list(islice(_iter_perfect_matchings(g), 2))
    assert unique == (len(first_two) == 1)
    if unique:
        assert witness.edge_ids == tuple(sorted(first_two[0]))


@st.composite
def random_tree(draw):
    n = draw(st.integers(min_value=1, max_value=10))
    edges = []
    for v in range(1, n):
        parent = draw(st.integers(min_value=0, max_value=v - 1))
        edges.append((parent, v))
    return build_graph(n, edges)


@settings(max_examples=80, deadline=None)
@given(random_tree())
def test_tree_domination_matches_brute_force(g):
    value, witness = tree_independent_domination(g)
    best = g.n
    for mask in range(1 << g.n):
        picked = {v for v in range(g.n) if mask >> v & 1}
        if len(picked) >= best:
            continue
        if any(u in picked and v in picked for u, v in g.edges):
            continue
        dominated = set(picked)
        for u, v in g.edges:
            if u in picked:
                dominated.add(v)
            if v in picked:
                dominated.add(u)
        if len(dominated) == g.n:
            best = len(picked)
    assert value == best
    wset = set(witness)
    assert len(wset) == value
    assert all(not (u in wset and v in wset) for u, v in g.edges)


@settings(max_examples=40, deadline=None)
@given(graph_with_matching())
def test_graph_format_roundtrip(g):
    assert parse_graph(serialize_graph(g)) == g


@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=1, max_value=4), st.randoms())
def test_hex_format_roundtrip(n, rng):
    from matchforce.generators import enumerate_hex_systems

    systems = enumerate_hex_systems(n)
    h = systems[rng.randrange(len(systems))]
    assert parse_hex(serialize_hex(h)).cells == h.cells


# ------------------------------------------------------------ parser fuzz

MAX_FUZZ_VERTICES = 64  # a declared vertex count is allocated, so keep it small
_ints = st.integers(min_value=-2, max_value=MAX_FUZZ_VERTICES).map(str)
_tokens = st.one_of(_ints, st.sampled_from(["p", "e", "c", "#", "x", "1.5", "0x1", "--", "é", ""]))
_junk = st.lists(_tokens, max_size=4).map(" ".join)


def _lines(*kinds):
    return st.lists(st.one_of(_junk, *kinds), max_size=10).map("\n".join)


_graph_texts = st.tuples(
    st.builds("p {} {}".format, _ints, st.integers(min_value=-1, max_value=8)),
    _lines(st.builds("e {} {}".format, _tokens, _tokens), st.builds("c {} {}".format, _tokens, _tokens)),
).map("\n".join)
_small = st.integers(min_value=-3, max_value=3)
_hex_texts = _lines(st.builds("{} {}".format, _small, _small), st.builds("{} {} # cell".format, _small, _small))


def _declared_vertices(text: str) -> int:
    """n when the first non-blank, comment-free line reads `p n ...`, else 0."""
    body = (line.split("#", 1)[0].split() for line in text.splitlines())
    first = next((parts for parts in body if parts), [])
    try:
        return int(first[1]) if first[0] == "p" else 0
    except (IndexError, ValueError):
        return 0


@settings(max_examples=300, deadline=None)
@given(st.one_of(_graph_texts, _hex_texts, st.text(max_size=60)))
def test_parsers_raise_nothing_but_parse_errors(text):
    assume(_declared_vertices(text) <= MAX_FUZZ_VERTICES)
    for parse in (parse_graph, parse_hex):
        try:
            parse(text)
        except ParseError:
            pass
