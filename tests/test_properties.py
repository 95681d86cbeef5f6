"""Property tests over randomly generated instances."""

import json
import tempfile
from functools import cache
from itertools import combinations, islice
from pathlib import Path

from hypothesis import assume, given, settings, strategies as st

from matchforce.antiforcing import antiforcing_number
from matchforce.errors import MatchforceError, ParseError
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
from matchforce.generators import enumerate_hex_systems, gen_named
from matchforce.hexsys import HexSystem, tree_independent_domination
from matchforce.io import (
    parse_graph,
    parse_hex,
    serialize_graph,
    serialize_hex,
    serialize_instance,
)
from matchforce.report import REGISTRY, compute_report, replay


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


@st.composite
def small_graph(draw):
    """Any simple graph on at most 10 vertices, with at most 20 edges."""
    n = draw(st.integers(min_value=0, max_value=10))
    pairs = list(combinations(range(n), 2))
    edges = draw(st.lists(st.sampled_from(pairs), max_size=20, unique=True)) if pairs else []
    return build_graph(n, edges)


_SMALL_POLYHEXES = [h for n in range(1, 5) for h in enumerate_hex_systems(n)]


@settings(max_examples=300, deadline=None)
@given(
    st.one_of(small_graph(), st.sampled_from(_SMALL_POLYHEXES)),
    st.lists(st.sampled_from(sorted(REGISTRY) + ["nonesuch"]), min_size=1, max_size=4),
    st.sampled_from([0, 1, 2, 5, 10**6]),
)
def test_compute_report_gives_a_report_that_replays_or_a_typed_error(obj, invariants, cap):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / ("instance.hex" if isinstance(obj, HexSystem) else "instance.graph")
        path.write_text(serialize_instance(obj))
        try:
            report = compute_report(path, invariants, max_matchings=cap)
        except MatchforceError:
            return
        assert replay(report, path) == []


def _report_paths(node, path=()):
    """The path of every value inside a report entry's value or witness, itself included."""
    yield path
    if isinstance(node, dict):
        children = node.items()
    elif isinstance(node, list):
        children = enumerate(node)
    else:
        return
    for key, child in children:
        yield from _report_paths(child, path + (key,))


@cache
def _mutated_reports():
    """Reports of triphenylene and the dodecahedron with every invariant that applies."""
    out = []
    with tempfile.TemporaryDirectory() as tmp:
        for name, invariants in (
            ("triphenylene", sorted(REGISTRY)),
            ("dodecahedron", sorted(set(REGISTRY) - {"clar", "fries"})),
        ):
            obj = gen_named(name)
            path = Path(tmp) / (name + (".hex" if isinstance(obj, HexSystem) else ".graph"))
            text = serialize_instance(obj)
            path.write_text(text)
            out.append((path.name, text, compute_report(path, invariants)))
    return out


_WRONG_TYPES = ["1", None, 1.5, True, [], {}, [["x"]]]
_OUT_OF_RANGE = [-1, 10**6, 2**70]


@st.composite
def mutated_report(draw):
    """(file name, instance text, report, path, new, off_by_one): the field at
    path is replaced by new, which is the old int plus or minus 1 when off_by_one."""
    name, text, report = draw(st.sampled_from(_mutated_reports()))
    report = json.loads(json.dumps(report))
    entry = draw(st.sampled_from(report["invariants"]))
    paths = [("value",) + p for p in _report_paths(entry["value"])]
    if entry["witness"] is not None:
        paths += [("witness",) + p for p in _report_paths(entry["witness"]) if p]
    path = draw(st.sampled_from(paths))
    parent = entry
    for key in path[:-1]:
        parent = parent[key]
    old = parent[path[-1]]
    if isinstance(old, int) and not isinstance(old, bool) and draw(st.booleans()):
        parent[path[-1]] = new = old + draw(st.sampled_from([-1, 1]))
        return name, text, report, path, new, True
    new = draw(st.sampled_from(_WRONG_TYPES + _OUT_OF_RANGE))
    assume(json.dumps(new) != json.dumps(old))
    parent[path[-1]] = new
    return name, text, report, path, new, False


@settings(max_examples=100, deadline=None)
@given(mutated_report())
def test_replay_describes_a_mutated_report_and_raises_nothing(case):
    # An off-by-one witness field can make another valid witness, and JSON
    # true passes for 1 inside a witness, so those two may replay clean.
    name, text, report, path, new, off_by_one = case
    with tempfile.TemporaryDirectory() as tmp:
        instance = Path(tmp) / name
        instance.write_text(text)
        problems = replay(report, instance)
    assert isinstance(problems, list) and all(isinstance(p, str) for p in problems)
    if path[0] == "value" or not (off_by_one or new is True):
        assert problems, (path, new)
