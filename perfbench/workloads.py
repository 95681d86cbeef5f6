"""The three workloads: their instances, their operations and how each is checked.

Run as a script it is the set-up step the benchmark times: a fresh
interpreter imports matchforce, builds the workload's instances and writes
them as instance files, printing each file's sha256.

    python3 perfbench/workloads.py --workload kekule --seed 0 --out DIR
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from dataclasses import dataclass
from functools import cache, partial
from pathlib import Path
from typing import Callable

import paths
from gengraph import GENERAL_GRAPHS, general_graphs, graph_seed, sha256_of

from matchforce import generators, report, verify
from matchforce.hexsys import build_hex_system
from matchforce.io import serialize_instance

WORKLOADS = ("verify-sweep", "compute-replay", "kekule")

VERIFY_MAX_CELLS = 5
ALL_INVARIANTS = ("pm_count", "f", "F", "af", "Af", "f_spectrum", "af_spectrum", "anti_forcing_edges")
HEX_INVARIANTS = ("clar", "fries")
KEKULE_INVARIANTS = ("pm_count", "clar", "fries", "anti_forcing_edges")

COMPUTE_REPLAY_TPS = ((4, 4, 4), (5, 5, 5), (4, 4, 4, 4), (5, 5, 3, 2), (30,))
KEKULE_TPS = ((6,) * 6, (8,) * 6, (12, 10, 8, 6, 4, 2), (5,) * 8, (9, 7, 5, 3, 1))

# pm_count on the chain TP(600,): a linear chain of n hexagons has n + 1
# perfect matchings.  The library raises RecursionError on it, so the value
# cannot be recorded from the library itself.
PROBE_INSTANCE = "tp-600"
PROBE_GOLDEN = 601


@dataclass(frozen=True)
class Op:
    """One operation of a pass.

    kind is "suite" (target = suite id), "compute" or "replay" (target =
    instance file name).  timer names the end-to-end sum the op's time goes
    to; golden is the key of the expected output.  A suite op that is not
    warm first empties the package's caches.
    """

    kind: str
    target: str
    timer: str
    golden: str
    invariants: tuple[str, ...] = ()
    warm: bool = False


def _tp_name(params: tuple[int, ...]) -> str:
    return "tp-" + "-".join(map(str, params))


def _hexagon(side: int):
    """The hexagon-shaped system with `side` cells along each edge."""
    k = side - 1
    return build_hex_system(
        (q, r) for q in range(-k, k + 1) for r in range(-k, k + 1) if abs(q + r) <= k
    )


def instances(workload: str, seed: int) -> list[tuple[str, Callable[[], object]]]:
    """(file name, builder of the Graph or HexSystem) for each instance file."""
    tp = generators.gen_truncated_parallelogram
    if workload == "verify-sweep":
        return []
    if workload == "compute-replay":
        out = [
            ("triphenylene.hex", lambda: generators.gen_named("triphenylene")),
            ("dodecahedron.graph", lambda: generators.gen_named("dodecahedron")),
        ]
        out += [(f"preset-{k}.hex", partial(generators.glue_preset, k)) for k in (1, 2, 3, 4)]
        out += [(_tp_name(p) + ".hex", partial(tp, p)) for p in COMPUTE_REPLAY_TPS]
        graphs = cache(partial(general_graphs, graph_seed(seed)))
        out += [
            (name + ".graph", lambda i=i: graphs()[i][1])
            for i, (name, *_) in enumerate(GENERAL_GRAPHS)
        ]
        return out
    if workload == "kekule":
        out = [(_tp_name(p) + ".hex", partial(tp, p)) for p in KEKULE_TPS]
        out.append(("hexagon-3.hex", partial(_hexagon, 3)))
        out += [(_tp_name(p) + ".hex", partial(tp, p)) for p in ((400,), (600,))]
        return out
    raise ValueError(f"unknown workload {workload!r}")


def write_instances(workload: str, seed: int, out_dir: Path) -> list[tuple[str, str]]:
    """Write the instance files; returns (file name, sha256 of its text)."""
    out_dir.mkdir(parents=True, exist_ok=True)
    written = []
    for name, build in instances(workload, seed):
        text = serialize_instance(build())
        (out_dir / name).write_text(text)
        written.append((name, sha256_of(text)))
    return written


def operations(workload: str, seed: int) -> list[Op]:
    """The operations of one pass, in order."""
    if workload == "verify-sweep":
        # A cold run as a fresh `matchforce verify` process sees it, then the
        # same suite again with corpus and profile caches warm.
        ops = []
        for sid in verify.SUITE_IDS:
            ops.append(Op("suite", sid, "compute", f"suite:{sid}"))
            ops.append(Op("suite", sid, "replay", f"suite:{sid}", warm=True))
        return ops

    def pair(name: str, invariants: tuple[str, ...], golden_suffix: str = "") -> list[Op]:
        return [
            Op("compute", name, "compute", f"compute:{name}{golden_suffix}", invariants),
            Op("replay", name, "replay", f"replay:{name}{golden_suffix}"),
        ]

    ops = []
    if workload == "compute-replay":
        seeded = {name + ".graph" for name, *_ in GENERAL_GRAPHS}
        for name, _ in instances(workload, seed):
            invariants = ALL_INVARIANTS + (HEX_INVARIANTS if name.endswith(".hex") else ())
            suffix = f"@g{graph_seed(seed)}" if name in seeded else ""
            ops += pair(name, invariants, suffix)
        return ops
    if workload == "kekule":
        for p in KEKULE_TPS:
            ops += pair(_tp_name(p) + ".hex", KEKULE_INVARIANTS)
        ops += pair("hexagon-3.hex", KEKULE_INVARIANTS)
        ops += pair(_tp_name((400,)) + ".hex", ("pm_count", "clar", "fries"))
        return ops
    raise ValueError(f"unknown workload {workload!r}")


def clear_caches() -> None:
    """Empty every functools cache in the package, as a fresh process has them."""
    for name, mod in list(sys.modules.items()):
        if name != "matchforce" and not name.startswith("matchforce."):
            continue
        for obj in list(vars(mod).values()):
            # A traced run replaces cached functions by wrappers that keep the
            # cached function as __wrapped__.
            for candidate in (obj, getattr(obj, "__wrapped__", None)):
                clear = getattr(candidate, "cache_clear", None)
                if callable(clear):
                    clear()


def suite_text(result) -> str:
    """Check lines and summary, as `matchforce verify` prints them."""
    lines = [
        f"ok   {c.instance}" if c.ok else f"FAIL {c.instance}: {c.detail}"
        for c in result.checks
    ]
    lines.append(result.summary())
    return "\n".join(lines) + "\n"


def report_text(rep: dict) -> str:
    """The report JSON without the run-dependent runtime_ms fields."""
    stripped = dict(rep)
    stripped["invariants"] = [
        {k: v for k, v in entry.items() if k != "runtime_ms"} for entry in rep["invariants"]
    ]
    return report.dumps_report(stripped)


class OpFailed(Exception):
    """An operation's output is not what it should be."""


def run_op(op: Op, instance_dir: Path, reports: dict) -> tuple[str, object, float]:
    """Run one operation; returns (output text, library result, seconds).

    The seconds cover the library call alone.  A compute op leaves its
    report in `reports` for the replay op that follows it.
    """
    if op.kind == "suite":
        if not op.warm:
            clear_caches()
        start = time.perf_counter()
        result = verify.run_suite(op.target, max_cells=VERIFY_MAX_CELLS)
        elapsed = time.perf_counter() - start
        return suite_text(result), result, elapsed
    path = instance_dir / op.target
    if op.kind == "compute":
        start = time.perf_counter()
        rep = report.compute_report(path, list(op.invariants))
        elapsed = time.perf_counter() - start
        reports[op.target] = rep
        return report_text(rep), rep, elapsed
    if op.kind == "replay":
        if op.target not in reports:
            raise OpFailed(f"no report of {op.target} to replay")
        start = time.perf_counter()
        problems = report.replay(reports[op.target], path)
        elapsed = time.perf_counter() - start
        return json.dumps(problems) + "\n", problems, elapsed
    raise ValueError(f"unknown op kind {op.kind!r}")


def check_op(op: Op, text: str, result, goldens: dict[str, str]) -> None:
    """Raise OpFailed unless the output matches its golden and reports no failure."""
    if op.kind == "suite" and not result.ok:
        raise OpFailed(f"suite {op.target}: {len(result.failures)} failing checks")
    if op.kind == "replay" and result:
        raise OpFailed(f"replay {op.target}: {'; '.join(result)}")
    if op.golden not in goldens:
        raise OpFailed(f"no golden recorded for {op.golden}")
    if text != goldens[op.golden]:
        raise OpFailed(f"{op.golden}: output differs from the golden")


def load_goldens(workload: str) -> dict[str, str]:
    return json.loads((paths.GOLDEN_DIR / f"{workload}.json").read_text())


def instance_dir(workload: str) -> Path:
    return paths.OUT_DIR / "instances" / workload


def main() -> None:
    parser = argparse.ArgumentParser(description="Build and write a workload's instance files.")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args()
    for name, digest in write_instances(args.workload, args.seed, args.out):
        print(f"instance {name} sha256={digest}")


if __name__ == "__main__":
    main()
