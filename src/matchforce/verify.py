"""Verification suites: re-check the governing identities on generated corpora.

Each suite id names one identity or bound and runs it over every applicable
instance of its corpus, reporting one check line per instance.  A failure
carries the counterexample in its detail string; the harness never trusts a
witness it did not recompute.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Callable

from .errors import UnknownSuite
from .exact import max_independent_size, overlap_conflicts
from .generators import (
    GLUE_PRESETS,
    MAX_ENUMERATED_CELLS,
    enumerate_hex_systems,
    gen_named,
    gen_truncated_parallelogram,
    glue_preset,
)
from .graphs import (
    FIXED_SINGLE,
    Graph,
    count_perfect_matchings,
    edge_mask,
    enumerate_alternating_cycles,  # noqa: F401  (perfbench traces it in every namespace)
)
from .hexsys import (
    HexSystem,
    build_hex_system,
    is_all_kink_catahex,
    is_truncated_parallelogram,
    normal_hex_components,
    tree_independent_domination,
)
from .report import Profile


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

def polyhex_corpus(max_cells: int | None) -> list[tuple[str, HexSystem]]:
    """Every polyhex of at most max_cells cells; None stands for MAX_ENUMERATED_CELLS."""
    top = MAX_ENUMERATED_CELLS if max_cells is None else min(max_cells, MAX_ENUMERATED_CELLS)
    out = []
    for n in range(1, top + 1):
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
def _profile(obj: Graph | HexSystem) -> Profile:
    """The one profile of an instance, shared by every suite that reads it.

    It is keyed by the instance alone: it lists at the default matching cap,
    which no corpus instance comes near.  thm3 and thm11 read the f and af
    values thm5 filled in.  Each suite reads its instance facts here, so a
    warm rerun computes none again: the matchings and the values, edge
    labels, feedback values and resonant cells read off them (see Profile),
    the anti-forcing edges and the TP recognition (thm16, and thm16's
    goldens, which at max_cells 5 share eight polyhexes' profiles), the
    parallel cuts as edge masks (lem19) and the inner dual (thm14, thm15).
    The cache is not bounded: an entry holds the instance's matchings, ints,
    edge labels and inner dual, never its cycles; every corpus part is
    capped (see _Suite); and the benchmark and the tests clear it wherever a
    run has to start cold.
    """
    return Profile(obj)


# ------------------------------------------------------------ the suites

def _each_matching(columns, shown: str, holds) -> str:
    """One "matching i: ..." entry per matching whose values in columns fail holds."""
    return "; ".join(
        f"matching {i}: " + shown.format(*values)
        for i, values in enumerate(zip(*columns))
        if not holds(*values)
    )


def _thm2(g: Graph | HexSystem, p: Profile) -> str:
    """f(G,M) equals the maximum disjoint cycle packing (bipartite planar)."""
    v = p.values(("f", "disjoint"))
    return _each_matching((v["f"], v["disjoint"]), "f={} c={}", lambda f, c: f == c)


def _thm3(h: HexSystem, p: Profile) -> str:
    """Maximum forcing number equals the Clar number on hexagonal systems."""
    big_f, cl = max(p.values(("f",))["f"]), p.clar
    return "" if big_f == cl else f"F={big_f} cl={cl}"


def _thm5(g: Graph | HexSystem, p: Profile) -> str:
    """f(G,M) <= af(G,M) <= (max degree - 1) * f(G,M) for every matching."""
    v, d = p.values(("f", "af")), p.graph.max_degree
    return _each_matching((v["f"], v["af"]), "f={} af={}", lambda f, af: f <= af <= (d - 1) * f)


def _lem8(g: Graph | HexSystem, p: Profile) -> str:
    """af(G,M) is at least the maximum compatible alternating set size."""
    v = p.values(("af", "compatible"))
    return _each_matching((v["af"], v["compatible"]), "af={} c'={}", lambda af, cp: af >= cp)


def _thm9(h: HexSystem, p: Profile) -> str:
    """Minimax: af(G,M) = c'(M) = minimum feedback set of the contraction."""
    v = p.values(("af", "compatible"))
    return _each_matching(
        (v["af"], v["compatible"], p.feedback), "af={} c'={} feedback={}",
        lambda af, cp, fb: af == cp == fb,
    )


def _thm11(h: HexSystem, p: Profile) -> str:
    """Maximum anti-forcing number equals the Fries number."""
    big_af, fries = max(p.values(("af",))["af"]), max(map(int.bit_count, p.resonant))
    return "" if big_af == fries else f"Af={big_af} Fries={fries}"


def _cor12(h: HexSystem, p: Profile) -> str:
    """cl(H) <= Fries(H) <= 2 cl(H)."""
    cl, fries = p.clar, max(map(int.bit_count, p.resonant))
    return "" if cl <= fries <= 2 * cl else f"cl={cl} Fries={fries}"


def _thm13(h: HexSystem, p: Profile) -> str:
    """Fries(H) = n exactly for all-kink catahexes; otherwise strictly below."""
    fries, all_kink = max(map(int.bit_count, p.resonant)), is_all_kink_catahex(h)
    ok = (fries == h.n_cells) == all_kink and fries <= h.n_cells
    return "" if ok else f"Fries={fries} n={h.n_cells} all-kink={all_kink}"


def _all_kink_catahex(h: HexSystem, p: Profile) -> bool:
    return is_all_kink_catahex(h) and bool(p.pms)  # the shape first: no matchings listed


def _thm14(h: HexSystem, p: Profile) -> str:
    """All-kink catahex: Af = 2F exactly when the inner dual has a PM."""
    dual = p.dual
    v = p.values(("f", "af"))
    big_af, big_f = max(v["af"]), max(v["f"])
    dual_pm = count_perfect_matchings(dual) > 0
    # edges that share an end conflict in a matching, adjacent vertices in an independent set
    nu = max_independent_size(overlap_conflicts((1 << a | 1 << b for a, b in dual.edges), -1))
    alpha = max_independent_size([sum(1 << w for w, _ in nbrs) for nbrs in dual.adjacency])
    bad = []
    if (big_af == 2 * big_f) != dual_pm:
        bad.append(f"Af={big_af} F={big_f} dual-PM={dual_pm}")
    if nu + alpha != dual.n:
        bad.append(f"nu+alpha={nu + alpha} != n={dual.n}")
    if dual_pm != (2 * nu == dual.n):
        bad.append(f"dual PM flag inconsistent with nu={nu}")
    return "; ".join(bad)


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


def _thm15(h: HexSystem, p: Profile) -> str:
    """All-kink catahex: f(H) = i(inner dual) = minimum Fries count."""
    dual = p.dual
    f_min, fries_min = min(p.values(("f",))["f"]), min(map(int.bit_count, p.resonant))
    i_dp, witness = tree_independent_domination(dual)
    i_brute = _brute_independent_domination(dual)
    bad = []
    if not f_min == i_dp == fries_min:
        bad.append(f"f={f_min} i={i_dp} fries_min={fries_min}")
    if i_dp != i_brute:
        bad.append(f"tree DP {i_dp} != brute force {i_brute}")
    wset = set(witness)
    dominated = set(wset)
    for u, v in dual.edges:
        if u in wset and v in wset:
            bad.append("witness not independent")
        if u in wset:
            dominated.add(v)
        if v in wset:
            dominated.add(u)
    if len(dominated) != dual.n or len(wset) != i_dp:
        bad.append("witness does not dominate at optimal size")
    return "; ".join(bad)


def _thm16(h: HexSystem, p: Profile) -> str:
    """af(H) = 1 exactly for truncated parallelograms; plus edge-count goldens."""
    # the count, which anti_forcing_edges reads too, tells none, one or several matchings
    k, is_tp = p.pm_count, p.is_tp
    if not k:
        return "recognized TP has no perfect matching" if is_tp else ""
    # a unique matching needs no deletions at all
    af1 = k > 1 and bool(p.af_edges)
    return "" if af1 == is_tp else f"af==1 is {af1}, TP is {is_tp}"


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


def _thm20(h: HexSystem, p: Profile) -> str:
    """With a fixed single edge: af = 2 iff exactly two normal components, both TPs."""
    af_min = min(p.values(("af",))["af"])
    comps = normal_hex_components(h, p.labels)
    # the components are no corpus instances, so they are recognized here, not profiled
    both_tp = len(comps) == 2 and all(is_truncated_parallelogram(c)[0] for c in comps)
    ok = (af_min == 2) == both_tp
    return "" if ok else f"af={af_min}, components={len(comps)}, both TP={both_tp}"


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


def _lem19(h: HexSystem, p: Profile) -> str:
    """Every maximal parallel cut meets every perfect matching equally often."""
    masks = [edge_mask(m.edge_ids) for m in p.pms]
    bad = []
    for cut in p.cut_masks:
        values = {(cut & mask).bit_count() for mask in masks}
        if len(values) != 1:
            ids = tuple(e for e in range(cut.bit_length()) if cut >> e & 1)
            bad.append(f"cut {ids}: counts {sorted(values)}")
    return "; ".join(bad)


# ------------------------------------------------------------ the table

_Instance = tuple[str, Graph | HexSystem]


@dataclass(frozen=True)
class _Suite:
    """One suite: its corpus, the instances it keeps, and its problem on them.

    The corpus is every polyhex of at most max_cells cells, the TPs of at most
    min(max_cells, tp_cap) cells (None means tp_cap), then extra(max_cells).
    keep(obj, p) reads the instance's profile, which computes nothing until it is
    read, so a keep that drops an instance before reading p.pms lists no matchings.
    problem(obj, p) is "" when the identity holds.  goldens: fixed TP edge counts.
    """

    problem: Callable[[Graph | HexSystem, Profile], str]
    tp_cap: int = 0
    extra: Callable[[int | None], list[_Instance]] = lambda max_cells: []
    keep: Callable[[Graph | HexSystem, Profile], object] = lambda obj, p: p.pms
    goldens: tuple[tuple[tuple[int, ...], int], ...] = ()

    def corpus(self, max_cells: int | None) -> list[_Instance]:
        tps = tp_corpus(self.tp_cap if max_cells is None else min(max_cells, self.tp_cap))
        return polyhex_corpus(max_cells) + tps + self.extra(max_cells)


_CYCLES = ("named-C4", "named-C6")
# presets: thm9 keeps those of at most max_cells cells, the others all four
_SUITES: dict[str, _Suite] = {
    "thm2": _Suite(_thm2, tp_cap=8, extra=lambda c: [x for x in named_corpus() if x[0] in _CYCLES]),
    "thm3": _Suite(_thm3),
    "thm5": _Suite(_thm5, extra=lambda c: named_corpus() + preset_corpus()),
    "lem8": _Suite(_lem8, extra=lambda c: named_corpus() + preset_corpus()),
    "thm9": _Suite(_thm9, tp_cap=12, extra=preset_corpus),
    "thm11": _Suite(_thm11),
    "cor12": _Suite(_cor12),
    "thm13": _Suite(_thm13),
    "thm14": _Suite(_thm14, keep=_all_kink_catahex),
    "thm15": _Suite(_thm15, keep=_all_kink_catahex),
    "thm16": _Suite(_thm16, keep=lambda h, p: True, goldens=_THM16_EXTRAS),
    "thm20": _Suite(
        _thm20,
        extra=lambda c: [(name, build_hex_system(cells)) for name, cells in _THM20_CONSTRUCTED],
        keep=lambda h, p: p.pms and FIXED_SINGLE in p.labels,
    ),
    "lem19": _Suite(_lem19, tp_cap=8, extra=lambda c: preset_corpus()),
}
SUITE_IDS = tuple(_SUITES)


def run_suite(suite: str, max_cells: int | None = None) -> SuiteResult:
    """One check per instance of the suite's corpus that it keeps, then one per golden."""
    if suite not in _SUITES:
        raise UnknownSuite(f"unknown suite {suite!r}; have {', '.join(SUITE_IDS)}")
    row, checks = _SUITES[suite], []
    for name, obj in row.corpus(max_cells):
        p = _profile(obj)
        if row.keep(obj, p):
            detail = row.problem(obj, p)
            checks.append(CheckResult(name, not detail, detail))
    for params, expected in row.goldens:
        count = len(_profile(gen_truncated_parallelogram(params)).af_edges)
        detail = "" if count == expected else f"{count} anti-forcing edges, expected {expected}"
        name = "tp-" + ",".join(map(str, params)) + "-edges"
        checks.append(CheckResult(name, not detail, detail))
    return SuiteResult(suite, tuple(checks))
