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

from .antiforcing import anti_forcing_edges
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
    edge_mask,
    enumerate_alternating_cycles,  # noqa: F401  (perfbench traces it in every namespace)
    enumerate_perfect_matchings,
)
from .hexsys import (
    HexSystem,
    build_hex_system,
    inner_dual,
    is_all_kink_catahex,
    is_truncated_parallelogram,
    normal_hex_components,
    parallel_cuts,
    tree_independent_domination,
)
from .report import Caps, Profile


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
def _profile(obj: Graph | HexSystem, caps: Caps) -> Profile:
    """The one profile of an instance, shared by every suite that reads it.

    thm3 and thm11 read the f and af values thm5 filled in.  The cache is not
    bounded: an entry holds only the instance's matchings, ints and edge
    labels, never its cycles; the corpora are capped by MAX_ENUMERATED_CELLS;
    and the benchmark and the tests clear it wherever a run has to start cold.
    """
    return Profile(obj, caps)


# ------------------------------------------------------------ the suites

def _checks(corpus, caps: Caps, problem, keep=lambda obj: True) -> list[CheckResult]:
    """One check per kept instance with a perfect matching; problem(obj, p) is "" when it holds.

    keep is asked first, so an instance it drops has no matchings enumerated.
    """
    checks = []
    for name, obj in corpus:
        if keep(obj) and (p := _profile(obj, caps)).pms:
            detail = problem(obj, p)
            checks.append(CheckResult(name, not detail, detail))
    return checks


def _pair_checks(corpus, caps: Caps, families, shown: str, holds) -> list[CheckResult]:
    """One check per instance with a matching: holds(g, a, b) on each matching's two values."""

    def problem(obj, p: Profile) -> str:
        v = p.values(families)
        return "; ".join(
            f"matching {i}: " + shown.format(a, b)
            for i, (a, b) in enumerate(zip(*(v[f] for f in families)))
            if not holds(p.graph, a, b)
        )

    return _checks(corpus, caps, problem)


def _polyhex_checks(max_cells, caps: Caps, problem, keep=lambda h: True) -> list[CheckResult]:
    mc = max_cells if max_cells is not None else MAX_ENUMERATED_CELLS
    return _checks(polyhex_corpus(mc), caps, problem, keep)


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

    def problem(h: HexSystem, p: Profile) -> str:
        big_f, cl = max(p.values(("f",))["f"]), p.clar
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

    def problem(h: HexSystem, p: Profile) -> str:
        v = p.values(("af", "compatible"))
        return "; ".join(
            f"matching {i}: af={af} c'={cp} feedback={fb}"
            for i, (af, cp, fb) in enumerate(zip(v["af"], v["compatible"], p.feedback))
            if not af == cp == fb
        )

    return _checks(corpus, caps, problem)


def _suite_thm11(max_cells: int | None, caps: Caps) -> list[CheckResult]:
    """Maximum anti-forcing number equals the Fries number."""

    def problem(h: HexSystem, p: Profile) -> str:
        big_af, fries = max(p.values(("af",))["af"]), max(map(int.bit_count, p.resonant))
        return "" if big_af == fries else f"Af={big_af} Fries={fries}"

    return _polyhex_checks(max_cells, caps, problem)


def _suite_cor12(max_cells: int | None, caps: Caps) -> list[CheckResult]:
    """cl(H) <= Fries(H) <= 2 cl(H)."""

    def problem(h: HexSystem, p: Profile) -> str:
        cl, fries = p.clar, max(map(int.bit_count, p.resonant))
        return "" if cl <= fries <= 2 * cl else f"cl={cl} Fries={fries}"

    return _polyhex_checks(max_cells, caps, problem)


def _suite_thm13(max_cells: int | None, caps: Caps) -> list[CheckResult]:
    """Fries(H) = n exactly for all-kink catahexes; otherwise strictly below."""

    def problem(h: HexSystem, p: Profile) -> str:
        fries, all_kink = max(map(int.bit_count, p.resonant)), is_all_kink_catahex(h)
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

    def problem(h: HexSystem, p: Profile) -> str:
        dual = inner_dual(h)
        v = p.values(("f", "af"))
        big_af, big_f = max(v["af"]), max(v["f"])
        dual_pm = bool(enumerate_perfect_matchings(dual, caps.max_matchings))
        nu = _tree_matching_number(dual)
        alpha = _independence_number(dual)
        bad = []
        if (big_af == 2 * big_f) != dual_pm:
            bad.append(f"Af={big_af} F={big_f} dual-PM={dual_pm}")
        if nu + alpha != dual.n:
            bad.append(f"nu+alpha={nu + alpha} != n={dual.n}")
        if dual_pm != (2 * nu == dual.n):
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

    def problem(h: HexSystem, p: Profile) -> str:
        dual = inner_dual(h)
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


def _af_is_one(h: HexSystem, p: Profile) -> bool:
    if len(p.pms) < 2:
        return False  # a unique matching needs no deletions at all
    return bool(anti_forcing_edges(h.graph))


def _suite_thm16(max_cells: int | None, caps: Caps) -> list[CheckResult]:
    """af(H) = 1 exactly for truncated parallelograms; plus edge-count goldens."""
    mc = max_cells if max_cells is not None else MAX_ENUMERATED_CELLS
    checks = []
    for name, h in polyhex_corpus(mc):
        is_tp, _ = is_truncated_parallelogram(h)
        p = _profile(h, caps)
        if not p.pms:
            detail = "recognized TP has no perfect matching" if is_tp else ""
        else:
            af1 = _af_is_one(h, p)
            detail = "" if af1 == is_tp else f"af==1 is {af1}, TP is {is_tp}"
        checks.append(CheckResult(name, not detail, detail))
    for params, expected in _THM16_EXTRAS:
        count = len(anti_forcing_edges(gen_truncated_parallelogram(params).graph))
        detail = "" if count == expected else f"{count} anti-forcing edges, expected {expected}"
        name = "tp-" + ",".join(map(str, params)) + "-edges"
        checks.append(CheckResult(name, not detail, detail))
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
        p = _profile(h, caps)
        if not p.pms or FIXED_SINGLE not in p.labels:
            continue
        af_min = min(p.values(("af",))["af"])
        comps = normal_hex_components(h, p.labels)
        both_tp = len(comps) == 2 and all(is_truncated_parallelogram(c)[0] for c in comps)
        ok = (af_min == 2) == both_tp
        detail = "" if ok else f"af={af_min}, components={len(comps)}, both TP={both_tp}"
        checks.append(CheckResult(name, ok, detail))
    return checks


def _suite_lem19(max_cells: int | None, caps: Caps) -> list[CheckResult]:
    """Every maximal parallel cut meets every perfect matching equally often."""
    mc = max_cells if max_cells is not None else MAX_ENUMERATED_CELLS
    corpus: list[tuple[str, HexSystem]] = []
    corpus += polyhex_corpus(mc)
    corpus += tp_corpus(min(mc, 8))
    corpus += preset_corpus()

    def problem(h: HexSystem, p: Profile) -> str:
        masks = [edge_mask(m.edge_ids) for m in p.pms]
        bad = []
        for cut in parallel_cuts(h):
            cut_mask = edge_mask(cut)
            values = {(cut_mask & mask).bit_count() for mask in masks}
            if len(values) != 1:
                bad.append(f"cut {cut}: counts {sorted(values)}")
        return "; ".join(bad)

    return _checks(corpus, caps, problem)


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
SUITE_IDS = tuple(_SUITES)


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
