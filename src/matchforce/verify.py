"""Verification suites: re-check the governing identities on generated corpora.

Each suite id names one identity or bound and runs it over every applicable
instance of its corpus, reporting one check line per instance.  A failure
carries the counterexample in its detail string; the harness never trusts a
witness it did not recompute.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations

from .antiforcing import VALUE_OF, anti_forcing_edges, feedback_value
from .errors import UnknownSuite
from .generators import (
    GLUE_PRESETS,
    MAX_ENUMERATED_CELLS,
    enumerate_hex_systems,
    gen_named,
    gen_truncated_parallelogram,
    glue_preset,
)
from .graphs import (
    DEFAULT_CYCLE_CAP,
    DEFAULT_MATCHING_CAP,
    FIXED_SINGLE,
    Graph,
    Matching,
    alternating_cycle_masks,
    edge_fixedness,
    enumerate_alternating_cycles,  # noqa: F401  (perfbench traces it in every namespace)
    enumerate_perfect_matchings,
    orient_and_contract,
)
from .hexsys import (
    HexSystem,
    _clar_best,
    alternating_hexagons,
    build_hex_system,
    inner_dual,
    is_all_kink_catahex,
    is_truncated_parallelogram,
    normal_hex_components,
    parallel_cuts,
    tree_independent_domination,
)

SUITE_IDS = (
    "thm2",
    "thm3",
    "thm5",
    "lem8",
    "thm9",
    "thm11",
    "cor12",
    "thm13",
    "thm14",
    "thm15",
    "thm16",
    "thm20",
    "lem19",
)


@dataclass(frozen=True)
class Caps:
    max_matchings: int = DEFAULT_MATCHING_CAP
    max_cycles: int = DEFAULT_CYCLE_CAP


@dataclass(frozen=True)
class CheckResult:
    instance: str
    ok: bool
    detail: str = ""


@dataclass(frozen=True)
class SuiteResult:
    suite: str
    checks: tuple[CheckResult, ...]

    @property
    def failures(self) -> tuple[CheckResult, ...]:
        return tuple(c for c in self.checks if not c.ok)

    @property
    def ok(self) -> bool:
        return not self.failures

    def summary(self) -> str:
        return (
            f"suite {self.suite}: {len(self.checks)} checks, "
            f"{len(self.failures)} failures"
        )


# ---------------------------------------------------------------- corpora

def polyhex_corpus(max_cells: int) -> list[tuple[str, HexSystem]]:
    out = []
    for n in range(1, min(max_cells, MAX_ENUMERATED_CELLS) + 1):
        for i, h in enumerate(enumerate_hex_systems(n)):
            out.append((f"polyhex-{n}-{i:04d}", h))
    return out


def _descending_tuples(total: int):
    """All descending positive tuples with the given sum."""

    def rec(remaining: int, cap: int, prefix: tuple[int, ...]):
        if remaining == 0:
            yield prefix
            return
        for first in range(min(cap, remaining), 0, -1):
            yield from rec(remaining - first, first, prefix + (first,))

    yield from rec(total, total, ())


def tp_corpus(max_cells: int) -> list[tuple[str, HexSystem]]:
    out = []
    for total in range(1, max_cells + 1):
        for params in _descending_tuples(total):
            name = "tp-" + ",".join(map(str, params))
            out.append((name, gen_truncated_parallelogram(params)))
    return out


def preset_corpus(max_cells: int | None = None) -> list[tuple[str, HexSystem]]:
    out = []
    for k in sorted(GLUE_PRESETS):
        h = glue_preset(k)
        if max_cells is None or h.n_cells <= max_cells:
            out.append((f"preset-{k}", h))
    return out


def named_corpus() -> list[tuple[str, Graph | HexSystem]]:
    return [
        (f"named-{n}", gen_named(n))
        for n in ("triphenylene", "dodecahedron", "C4", "C6")
    ]


# ------------------------------------------------------- cached profiles

@lru_cache(maxsize=None)
def _graph_matchings(g: Graph, caps: Caps) -> tuple[Matching, ...]:
    return enumerate_perfect_matchings(g, caps.max_matchings)


def _matchings(obj: Graph | HexSystem, caps: Caps) -> tuple[Matching, ...]:
    return _graph_matchings(obj.graph if isinstance(obj, HexSystem) else obj, caps)


@lru_cache(maxsize=None)
def _value_table(g: Graph, caps: Caps) -> dict[str, tuple[int, ...]]:
    """The VALUE_OF families computed so far for g, filled in by _values."""
    return {}


def _values(g: Graph, caps: Caps, families: tuple[str, ...]) -> dict[str, tuple[int, ...]]:
    """Per-matching values of each named VALUE_OF family, in matching order.

    Families already computed for g are read back.  For the rest, the edge
    masks of each matching's alternating cycles are enumerated once and every
    missing family is read from them; they are dropped before the next matching.
    """
    table = _value_table(g, caps)
    missing = tuple(f for f in families if f not in table)
    if missing:
        rows = []
        for m in _graph_matchings(g, caps):
            masks = alternating_cycle_masks(g, m, caps.max_cycles)
            rows.append(tuple(VALUE_OF[f](g, m, masks) for f in missing))
        for i, f in enumerate(missing):
            table[f] = tuple(row[i] for row in rows)
    return table


@lru_cache(maxsize=None)
def _hexagon_table(h: HexSystem, caps: Caps) -> tuple[tuple[int, ...], ...]:
    """Each matching's alternating hexagons, in matching order."""
    return tuple(alternating_hexagons(h, m) for m in _matchings(h, caps))


def _fries_values(h: HexSystem, caps: Caps) -> tuple[int, ...]:
    return tuple(len(alt) for alt in _hexagon_table(h, caps))


@lru_cache(maxsize=None)
def _clar_value(h: HexSystem, caps: Caps) -> int:
    return _clar_best(h, _hexagon_table(h, caps))[0]


# ------------------------------------------------------------ the suites

def _pair_checks(corpus, caps: Caps, families, shown: str, holds) -> list[CheckResult]:
    """One check per instance with a matching: holds(g, a, b) on each matching's two values."""
    checks = []
    for name, obj in corpus:
        g = obj.graph if isinstance(obj, HexSystem) else obj
        if not _graph_matchings(g, caps):
            continue
        v = _values(g, caps, families)
        bad = [
            f"matching {i}: " + shown.format(a, b)
            for i, (a, b) in enumerate(zip(*(v[f] for f in families)))
            if not holds(g, a, b)
        ]
        checks.append(CheckResult(name, not bad, "; ".join(bad)))
    return checks


def _polyhex_checks(max_cells, caps: Caps, problem, keep=lambda h: True) -> list[CheckResult]:
    """One check per kept polyhex with a perfect matching; problem(h) is "" when it holds."""
    mc = max_cells if max_cells is not None else MAX_ENUMERATED_CELLS
    checks = []
    for name, h in polyhex_corpus(mc):
        if _matchings(h, caps) and keep(h):
            detail = problem(h)
            checks.append(CheckResult(name, not detail, detail))
    return checks


def _suite_thm2(max_cells: int | None, caps: Caps) -> list[CheckResult]:
    """f(G,M) equals the maximum disjoint cycle packing (bipartite planar)."""
    mc = max_cells if max_cells is not None else 8
    corpus: list[tuple[str, Graph | HexSystem]] = []
    corpus += polyhex_corpus(mc)
    corpus += tp_corpus(min(mc, 8))
    corpus += [(n, g) for n, g in named_corpus() if n in ("named-C4", "named-C6")]
    return _pair_checks(corpus, caps, ("f", "disjoint"), "f={} c={}", lambda g, f, c: f == c)


def _suite_thm3(max_cells: int | None, caps: Caps) -> list[CheckResult]:
    """Maximum forcing number equals the Clar number on hexagonal systems."""

    def problem(h: HexSystem) -> str:
        big_f, cl = max(_values(h.graph, caps, ("f",))["f"]), _clar_value(h, caps)
        return "" if big_f == cl else f"F={big_f} cl={cl}"

    return _polyhex_checks(max_cells, caps, problem)


def _sandwich_corpus(max_cells: int | None):
    mc = max_cells if max_cells is not None else MAX_ENUMERATED_CELLS
    corpus: list[tuple[str, Graph | HexSystem]] = []
    corpus += polyhex_corpus(mc)
    corpus += named_corpus()
    corpus += preset_corpus()
    return corpus


def _suite_thm5(max_cells: int | None, caps: Caps) -> list[CheckResult]:
    """f(G,M) <= af(G,M) <= (max degree - 1) * f(G,M) for every matching."""
    return _pair_checks(
        _sandwich_corpus(max_cells), caps, ("f", "af"), "f={} af={}",
        lambda g, f, af: f <= af <= (g.max_degree - 1) * f,
    )


def _suite_lem8(max_cells: int | None, caps: Caps) -> list[CheckResult]:
    """af(G,M) is at least the maximum compatible alternating set size."""
    return _pair_checks(
        _sandwich_corpus(max_cells), caps, ("af", "compatible"), "af={} c'={}",
        lambda g, af, cp: af >= cp,
    )


def _suite_thm9(max_cells: int | None, caps: Caps) -> list[CheckResult]:
    """Minimax: af(G,M) = c'(M) = minimum feedback set of the contraction."""
    mc = max_cells if max_cells is not None else 12
    corpus: list[tuple[str, HexSystem]] = []
    corpus += polyhex_corpus(mc)
    corpus += tp_corpus(mc)
    corpus += preset_corpus(mc)
    checks = []
    for name, h in corpus:
        g = h.graph
        if not _graph_matchings(g, caps):
            continue
        v = _values(g, caps, ("af", "compatible"))
        bad = []
        for i, m in enumerate(_graph_matchings(g, caps)):
            af, cp = v["af"][i], v["compatible"][i]
            fb = feedback_value(orient_and_contract(g, m), caps.max_cycles)
            if not af == cp == fb:
                bad.append(f"matching {i}: af={af} c'={cp} feedback={fb}")
        checks.append(CheckResult(name, not bad, "; ".join(bad)))
    return checks


def _suite_thm11(max_cells: int | None, caps: Caps) -> list[CheckResult]:
    """Maximum anti-forcing number equals the Fries number."""

    def problem(h: HexSystem) -> str:
        big_af, fries = max(_values(h.graph, caps, ("af",))["af"]), max(_fries_values(h, caps))
        return "" if big_af == fries else f"Af={big_af} Fries={fries}"

    return _polyhex_checks(max_cells, caps, problem)


def _suite_cor12(max_cells: int | None, caps: Caps) -> list[CheckResult]:
    """cl(H) <= Fries(H) <= 2 cl(H)."""

    def problem(h: HexSystem) -> str:
        cl, fries = _clar_value(h, caps), max(_fries_values(h, caps))
        return "" if cl <= fries <= 2 * cl else f"cl={cl} Fries={fries}"

    return _polyhex_checks(max_cells, caps, problem)


def _suite_thm13(max_cells: int | None, caps: Caps) -> list[CheckResult]:
    """Fries(H) = n exactly for all-kink catahexes; otherwise strictly below."""

    def problem(h: HexSystem) -> str:
        fries, all_kink = max(_fries_values(h, caps)), is_all_kink_catahex(h)
        ok = (fries == h.n_cells) == all_kink and fries <= h.n_cells
        return "" if ok else f"Fries={fries} n={h.n_cells} all-kink={all_kink}"

    return _polyhex_checks(max_cells, caps, problem)


def _tree_matching_number(g: Graph) -> int:
    for k in range(g.m, 0, -1):
        for sub in combinations(range(g.m), k):
            used: set[int] = set()
            ok = True
            for eid in sub:
                u, v = g.edges[eid]
                if u in used or v in used:
                    ok = False
                    break
                used.update((u, v))
            if ok:
                return k
    return 0


def _independence_number(g: Graph) -> int:
    best = 0
    for mask in range(1 << g.n):
        picked = [v for v in range(g.n) if mask >> v & 1]
        if len(picked) <= best:
            continue
        pset = set(picked)
        if all(u not in pset or v not in pset for u, v in g.edges):
            best = len(picked)
    return best


def _suite_thm14(max_cells: int | None, caps: Caps) -> list[CheckResult]:
    """All-kink catahex: Af = 2F exactly when the inner dual has a PM."""

    def problem(h: HexSystem) -> str:
        dual = inner_dual(h)
        v = _values(h.graph, caps, ("f", "af"))
        big_af = max(v["af"])
        big_f = max(v["f"])
        dual_pm = bool(enumerate_perfect_matchings(dual.graph, caps.max_matchings))
        nu = _tree_matching_number(dual.graph)
        alpha = _independence_number(dual.graph)
        bad = []
        if (big_af == 2 * big_f) != dual_pm:
            bad.append(f"Af={big_af} F={big_f} dual-PM={dual_pm}")
        if nu + alpha != dual.graph.n:
            bad.append(f"nu+alpha={nu + alpha} != n={dual.graph.n}")
        if dual_pm != (2 * nu == dual.graph.n):
            bad.append(f"dual PM flag inconsistent with nu={nu}")
        return "; ".join(bad)

    return _polyhex_checks(max_cells, caps, problem, keep=is_all_kink_catahex)


def _brute_independent_domination(g: Graph) -> int:
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
    return best


def _suite_thm15(max_cells: int | None, caps: Caps) -> list[CheckResult]:
    """All-kink catahex: f(H) = i(inner dual) = minimum Fries count."""

    def problem(h: HexSystem) -> str:
        dual = inner_dual(h)
        f_min = min(_values(h.graph, caps, ("f",))["f"])
        fries_min = min(_fries_values(h, caps))
        i_dp, witness = tree_independent_domination(dual)
        i_brute = _brute_independent_domination(dual.graph)
        bad = []
        if not f_min == i_dp == fries_min:
            bad.append(f"f={f_min} i={i_dp} fries_min={fries_min}")
        if i_dp != i_brute:
            bad.append(f"tree DP {i_dp} != brute force {i_brute}")
        wset = set(witness)
        dominated = set(wset)
        for u, v in dual.graph.edges:
            if u in wset and v in wset:
                bad.append("witness not independent")
            if u in wset:
                dominated.add(v)
            if v in wset:
                dominated.add(u)
        if len(dominated) != dual.graph.n or len(wset) != i_dp:
            bad.append("witness does not dominate at optimal size")
        return "; ".join(bad)

    return _polyhex_checks(max_cells, caps, problem, keep=is_all_kink_catahex)


_THM16_EXTRAS: tuple[tuple[tuple[int, ...], int], ...] = (
    ((1,), 6),
    ((2,), 4),
    ((3,), 4),
    ((4,), 4),
    ((5,), 4),
    ((2, 2), 2),
    ((3, 3), 2),
    ((2, 2, 2), 2),
    ((5, 5, 5, 5), 2),
    ((2, 1), 1),
    ((3, 2), 1),
    ((5, 5, 3, 2), 1),
)


def _af_is_one(h: HexSystem, caps: Caps) -> bool:
    if len(_matchings(h, caps)) < 2:
        return False  # a unique matching needs no deletions at all
    return bool(anti_forcing_edges(h.graph))


def _suite_thm16(max_cells: int | None, caps: Caps) -> list[CheckResult]:
    """af(H) = 1 exactly for truncated parallelograms; plus edge-count goldens."""
    mc = max_cells if max_cells is not None else MAX_ENUMERATED_CELLS
    checks = []
    for name, h in polyhex_corpus(mc):
        is_tp, _ = is_truncated_parallelogram(h)
        if not _matchings(h, caps):
            ok = not is_tp
            checks.append(
                CheckResult(name, ok, "" if ok else "recognized TP has no perfect matching")
            )
            continue
        af1 = _af_is_one(h, caps)
        checks.append(
            CheckResult(
                name, af1 == is_tp, "" if af1 == is_tp else f"af==1 is {af1}, TP is {is_tp}"
            )
        )
    for params, expected in _THM16_EXTRAS:
        h = gen_truncated_parallelogram(params)
        count = len(anti_forcing_edges(h.graph))
        name = "tp-" + ",".join(map(str, params))
        checks.append(
            CheckResult(
                name + "-edges",
                count == expected,
                "" if count == expected else f"{count} anti-forcing edges, expected {expected}",
            )
        )
    return checks


# two / three 2-cell blocks joined by forced middle cells: the first has two
# normal components (af=2), the second has three (af=3), exercising both
# directions of the equivalence
_THM20_CONSTRUCTED: tuple[tuple[str, tuple[tuple[int, int], ...]], ...] = (
    ("joined-2-blocks", ((-2, 1), (-2, 2), (-1, 1), (0, 0), (0, 1))),
    (
        "joined-3-blocks",
        ((-2, 1), (-2, 2), (-1, 1), (0, 0), (0, 1), (1, 0), (2, -1), (2, 0)),
    ),
)


def _suite_thm20(max_cells: int | None, caps: Caps) -> list[CheckResult]:
    """With a fixed single edge: af = 2 iff exactly two normal components, both TPs."""
    mc = max_cells if max_cells is not None else MAX_ENUMERATED_CELLS
    corpus = list(polyhex_corpus(mc))
    corpus += [(name, build_hex_system(cells)) for name, cells in _THM20_CONSTRUCTED]
    checks = []
    for name, h in corpus:
        if not _matchings(h, caps):
            continue
        labels = edge_fixedness(h.graph, caps.max_matchings)
        if FIXED_SINGLE not in labels:
            continue
        af_min = min(_values(h.graph, caps, ("af",))["af"])
        comps = normal_hex_components(h, caps.max_matchings)
        both_tp = len(comps) == 2 and all(is_truncated_parallelogram(c)[0] for c in comps)
        ok = (af_min == 2) == both_tp
        checks.append(
            CheckResult(
                name,
                ok,
                "" if ok else f"af={af_min}, components={len(comps)}, both TP={both_tp}",
            )
        )
    return checks


def _suite_lem19(max_cells: int | None, caps: Caps) -> list[CheckResult]:
    """Every maximal parallel cut meets every perfect matching equally often."""
    mc = max_cells if max_cells is not None else MAX_ENUMERATED_CELLS
    corpus: list[tuple[str, HexSystem]] = []
    corpus += polyhex_corpus(mc)
    corpus += tp_corpus(min(mc, 8))
    corpus += preset_corpus()
    checks = []
    for name, h in corpus:
        pms = _matchings(h, caps)
        if not pms:
            continue
        bad = []
        for cut in parallel_cuts(h):
            values = {len(set(cut) & m.edge_set) for m in pms}
            if len(values) != 1:
                bad.append(f"cut {cut}: counts {sorted(values)}")
        checks.append(CheckResult(name, not bad, "; ".join(bad)))
    return checks


_SUITES = {
    "thm2": _suite_thm2,
    "thm3": _suite_thm3,
    "thm5": _suite_thm5,
    "lem8": _suite_lem8,
    "thm9": _suite_thm9,
    "thm11": _suite_thm11,
    "cor12": _suite_cor12,
    "thm13": _suite_thm13,
    "thm14": _suite_thm14,
    "thm15": _suite_thm15,
    "thm16": _suite_thm16,
    "thm20": _suite_thm20,
    "lem19": _suite_lem19,
}


def run_suite(
    suite: str,
    max_cells: int | None = None,
    max_matchings: int = DEFAULT_MATCHING_CAP,
    max_cycles: int = DEFAULT_CYCLE_CAP,
) -> SuiteResult:
    if suite not in _SUITES:
        raise UnknownSuite(f"unknown suite {suite!r}; have {', '.join(SUITE_IDS)}")
    caps = Caps(max_matchings=max_matchings, max_cycles=max_cycles)
    checks = _SUITES[suite](max_cells, caps)
    return SuiteResult(suite, tuple(checks))
