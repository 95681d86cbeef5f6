"""matchforce benchmark: one workload, closed loop, one process, no threads.

    python3 perfbench/run.py --workload compute-replay --seed 0 --seconds 40 --trace 0

Set-up is timed in fresh interpreters (start, `import matchforce`, build and
write the instance files).  Then the workload's operations run one at a time,
pass after pass, until --seconds is used up (at least two passes); each
operation's output is compared with its golden, and the fixed reference
workload of reference.py is timed before and after each operation.  The last
line of standard output is one JSON object: end-to-end metrics with
--trace 0, per-layer metrics from one traced pass with --trace 1.  See
perfbench/README.md.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field

import paths
import workloads
from reference import timed_reference
from tracer import Tracer, metric_specs

from matchforce import report

SETUP_RUNS = 7
MIN_PASSES = 2
REF_WINDOW = 6


def _timers() -> dict[str, float]:
    return {"compute": 0.0, "replay": 0.0}


@dataclass
class Pass:
    """Sums over one pass, in seconds and in reference units ("ref").

    wall covers each operation's whole step (library call and output
    check); the timers cover the library calls alone.
    """

    wall_s: float = 0.0
    wall_ref: float = 0.0
    seconds: dict[str, float] = field(default_factory=_timers)
    refs: dict[str, float] = field(default_factory=_timers)
    attempted: int = 0
    failures: list[str] = field(default_factory=list)


def measure_setup(workload: str, seed: int) -> tuple[float, str]:
    """Median wall time of SETUP_RUNS set-up processes, and the last one's output."""
    command = [
        sys.executable, str(paths.BENCH_DIR / "workloads.py"),
        "--workload", workload, "--seed", str(seed),
        "--out", str(workloads.instance_dir(workload)),
    ]
    times = []
    for _ in range(SETUP_RUNS):
        start = time.perf_counter()
        proc = subprocess.run(command, capture_output=True, text=True, check=True, timeout=120)
        times.append(time.perf_counter() - start)
    return statistics.median(times), proc.stdout


def run_pass(ops, instance_dir, goldens, tracer: Tracer | None = None) -> Pass:
    result = Pass()
    reports: dict = {}
    refs = [timed_reference()]
    steps = []  # (timer, seconds of the whole step, seconds of the library call)
    for op_id, op in enumerate(ops):
        result.attempted += 1
        elapsed = 0.0
        if tracer:
            tracer.begin_op(op_id, f"{op.kind}:{op.target}")
        start = time.perf_counter()
        try:
            text, value, elapsed = workloads.run_op(op, instance_dir, reports)
            workloads.check_op(op, text, value, goldens)
        except Exception as exc:  # a failed op is counted and the pass goes on
            result.failures.append(f"{op.kind} {op.target}: {type(exc).__name__}: {exc}")
        finally:
            steps.append((op.timer, time.perf_counter() - start, elapsed))
            if tracer:
                tracer.end_op()
        refs.append(timed_reference())
    for i, (timer, step, elapsed) in enumerate(steps):
        # Reference samples i and i+1 bracket op i; the median of the
        # REF_WINDOW samples around them smooths the reference's own jitter.
        lo = max(0, i + 1 - REF_WINDOW // 2)
        ref = statistics.median(refs[lo : lo + REF_WINDOW])
        result.wall_s += step
        result.wall_ref += step / ref
        result.seconds[timer] += elapsed
        result.refs[timer] += elapsed / ref
    return result


def run_probe(instance_dir) -> tuple[bool, str]:
    """pm_count on TP(600,), run once outside the timed passes.

    RecursionError is the library's known defect on long chains and is
    reported, not counted as a failed operation; any other outcome than the
    golden value makes the run incorrect.
    """
    path = instance_dir / f"{workloads.PROBE_INSTANCE}.hex"
    try:
        rep = report.compute_report(path, ["pm_count"])
    except RecursionError:
        return True, (
            f"known defect: pm_count on {workloads.PROBE_INSTANCE} raises RecursionError "
            f"(golden {workloads.PROBE_GOLDEN})"
        )
    except Exception as exc:  # reported as an incorrect result
        return False, f"pm_count on {workloads.PROBE_INSTANCE}: {type(exc).__name__}: {exc}"
    value = rep["invariants"][0]["value"]
    return value == workloads.PROBE_GOLDEN, (
        f"pm_count on {workloads.PROBE_INSTANCE} = {value} (golden {workloads.PROBE_GOLDEN})"
    )


def _summary(name: str, unit: str, values: list[float]) -> str:
    # With fewer than eleven passes no percentile has ten samples beyond it,
    # so the tail is given as the maximum.
    return (
        f"{name}: median {statistics.median(values):.4f} {unit}, "
        f"max {max(values):.4f} {unit}, n={len(values)} passes"
    )


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    setup_s, setup_out = measure_setup(args.workload, args.seed)
    print(setup_out, end="")
    ops = workloads.operations(args.workload, args.seed)
    goldens = workloads.load_goldens(args.workload)
    instance_dir = workloads.instance_dir(args.workload)

    passes: list[Pass] = []
    pass_times: list[float] = []
    started = time.perf_counter()
    if args.trace:
        passes.append(run_pass(ops, instance_dir, goldens))
        tracer = Tracer()
        tracer.install()
        try:
            passes.append(run_pass(ops, instance_dir, goldens, tracer))
        finally:
            tracer.uninstall()
        tracer.write_spans(paths.OUT_DIR / f"spans-{args.workload}.jsonl")
    else:
        while True:
            pass_start = time.perf_counter()
            passes.append(run_pass(ops, instance_dir, goldens))
            pass_times.append(time.perf_counter() - pass_start)
            elapsed = time.perf_counter() - started
            if len(passes) >= MIN_PASSES and elapsed + statistics.median(pass_times) > args.seconds:
                break

    probe_ok, probe_note = True, ""
    if args.workload == "kekule":
        probe_ok, probe_note = run_probe(instance_dir)
        print(probe_note)

    attempted = sum(p.attempted for p in passes)
    failures = [f for p in passes for f in p.failures]
    for line in failures:
        print(f"FAILED {line}")
    print(f"workload {args.workload} seed {args.seed}: {len(ops)} ops per pass, {len(passes)} passes")
    print(f"setup_s: {setup_s:.4f} s, median of {SETUP_RUNS} processes")
    print(_summary("wall_s", "s", [p.wall_s for p in passes]))
    print(_summary("wall_ref", "ref", [p.wall_ref for p in passes]))

    if args.trace:
        values = tracer.metrics(overhead_ratio=passes[1].wall_ref / passes[0].wall_ref)
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in metric_specs()}
    else:
        for timer in ("compute", "replay"):
            print(_summary(f"{timer}_s", "s", [p.seconds[timer] for p in passes]))
            print(_summary(f"{timer}_ref", "ref", [p.refs[timer] for p in passes]))
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        metrics = {
            "setup_s": {"value": setup_s, "unit": "s"},
            "wall_ref": {"value": statistics.median(p.wall_ref for p in passes), "unit": "ref"},
            "compute_ref": {"value": statistics.median(p.refs["compute"] for p in passes), "unit": "ref"},
            "replay_ref": {"value": statistics.median(p.refs["replay"] for p in passes), "unit": "ref"},
            "peak_rss_mb": {"value": peak_rss_mb, "unit": "MB"},
        }
    print(json.dumps({
        "correct": not failures and probe_ok,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
