"""Tests of the benchmark's own code: python3 -m pytest -q perfbench"""

from __future__ import annotations

import json
import sys

import pytest

import gengraph
import paths
import reference
import run
import workloads
from tracer import Tracer, metric_specs

from matchforce.graphs import count_perfect_matchings
from matchforce.io import serialize_graph


@pytest.mark.parametrize("seed", [gengraph.DEFAULT_SEED, gengraph.RECHECK_SEED])
def test_general_graphs_are_deterministic_and_valid(seed):
    first = gengraph.general_graphs(seed)
    again = gengraph.general_graphs(seed)
    assert [serialize_graph(g) for _, g in first] == [serialize_graph(g) for _, g in again]
    for (name, n, degree, (low, high)), (got_name, g) in zip(gengraph.GENERAL_GRAPHS, first):
        assert got_name == name and g.n == n
        assert all(g.degree(v) == degree for v in range(n))
        assert g.color is None  # non-bipartite
        assert gengraph._connected(g.n, list(g.edges))
        assert low <= count_perfect_matchings(g) <= high


def test_reference_work_is_fixed():
    assert reference.reference() == (2245, 12)


def test_general_graphs_differ_between_seeds():
    texts = {serialize_graph(g) for s in range(gengraph.GOLDEN_SEEDS) for _, g in gengraph.general_graphs(s)}
    assert len(texts) == 2 * gengraph.GOLDEN_SEEDS


def test_golden_reports_hash_the_generated_graphs():
    goldens = workloads.load_goldens("compute-replay")
    for seed in range(gengraph.GOLDEN_SEEDS):
        for name, g in gengraph.general_graphs(seed):
            golden = json.loads(goldens[f"compute:{name}.graph@g{seed}"])
            assert golden["instance"]["sha256"] == gengraph.sha256_of(serialize_graph(g))


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_every_op_matches_its_golden(workload, tmp_path):
    workloads.write_instances(workload, gengraph.DEFAULT_SEED, tmp_path)
    goldens = workloads.load_goldens(workload)
    result = run.run_pass(workloads.operations(workload, gengraph.DEFAULT_SEED), tmp_path, goldens)
    assert result.failures == []
    assert result.attempted == {"verify-sweep": 26, "compute-replay": 26, "kekule": 14}[workload]


def test_probe_checks_the_chain_value(tmp_path):
    workloads.write_instances("kekule", 0, tmp_path)
    ok, note = run.run_probe(tmp_path)
    assert ok, note


def test_a_wrong_output_fails_the_op(tmp_path):
    workloads.write_instances("compute-replay", 0, tmp_path)
    ops = workloads.operations("compute-replay", 0)[:2]
    goldens = workloads.load_goldens("compute-replay")
    goldens[ops[0].golden] = goldens[ops[0].golden].replace('"value": 9', '"value": 10', 1)
    result = run.run_pass(ops, tmp_path, goldens)
    assert len(result.failures) == 1 and "differs from the golden" in result.failures[0]


def _bindings() -> dict[tuple[str, str], int]:
    return {
        (key, attr): id(value)
        for key, mod in sys.modules.items()
        if key == "matchforce" or key.startswith("matchforce.")
        for attr, value in vars(mod).items()
    }


def _outputs(ops, instance_dir) -> list[str]:
    reports: dict = {}
    return [workloads.run_op(op, instance_dir, reports)[0] for op in ops]


def test_wrappers_leave_results_byte_identical(tmp_path):
    workloads.write_instances("compute-replay", 0, tmp_path)
    cr = workloads.operations("compute-replay", 0)
    ops = [op for op in cr if op.target in ("triphenylene.hex", "rr4-16.graph", "preset-2.hex")]
    ops += [op for op in workloads.operations("verify-sweep", 0) if op.target in ("thm9", "thm16")]
    plain = _outputs(ops, tmp_path)
    before = _bindings()

    counts = []
    for _ in range(2):
        tracer = Tracer()
        tracer.install()
        try:
            assert _bindings() != before
            traced = _outputs(ops, tmp_path)
        finally:
            tracer.uninstall()
        assert _bindings() == before
        assert traced == plain
        values = tracer.metrics(overhead_ratio=1.0)
        counts.append({k: v for k, v in values.items() if not k.endswith(("_s", ".s", ".ms"))})
    assert counts[0] == counts[1]
    assert counts[0]["graphs.enumerate_alternating_cycles.calls"] > 0


def test_tracer_wraps_every_namespace_that_binds_a_function():
    import matchforce.antiforcing
    import matchforce.forcing
    import matchforce.graphs
    import matchforce.verify

    tracer = Tracer()
    tracer.install()
    try:
        for mod in (matchforce.graphs, matchforce.forcing, matchforce.antiforcing, matchforce.verify):
            assert hasattr(mod.enumerate_alternating_cycles, "__wrapped__")
    finally:
        tracer.uninstall()
    assert not hasattr(matchforce.graphs.enumerate_alternating_cycles, "__wrapped__")


def test_metrics_match_benchmark_json():
    bench = json.loads((paths.ROOT / "BENCHMARK.json").read_text())
    specs = metric_specs()
    assert [(m["name"], m["unit"]) for m in bench["per_layer"]] == specs
    assert set(Tracer().metrics(overhead_ratio=1.0)) == {name for name, _ in specs}
    assert [w["name"] for w in bench["workloads"]] == list(workloads.WORKLOADS)
