"""File formats, invariant reports, and the command line."""

import json
import os
import random
import re
import subprocess
import sys
import time
from itertools import combinations
from pathlib import Path

import pytest

import matchforce
from matchforce import cli
from matchforce.antiforcing import antiforcing_spectrum, is_antiforcing_set
from matchforce.cli import main
from matchforce.errors import MatchforceError, NoPerfectMatching, ParseError, UnknownName
from matchforce.forcing import forcing_spectrum
from matchforce.generators import (
    enumerate_hex_systems,
    gen_named,
    gen_truncated_parallelogram,
    glue_preset,
)
from matchforce.graphs import Matching, build_graph, enumerate_perfect_matchings
from matchforce.hexsys import alternating_hexagons
from matchforce.io import (
    load_instance,
    parse_graph,
    parse_hex,
    serialize_graph,
    serialize_hex,
)
from matchforce.report import compute_report, replay
from test_hexsys import _hexagon


# ---------------------------------------------------------------- formats

def test_graph_roundtrip_object_level():
    for name in ("C4", "C6", "dodecahedron"):
        g = gen_named(name)
        assert parse_graph(serialize_graph(g)) == g


def test_graph_serialization_is_a_fixed_point():
    g = gen_named("C6")
    text = serialize_graph(g)
    assert serialize_graph(parse_graph(text)) == text


def test_graph_parser_accepts_comments_and_colors():
    text = "# a square\np 4 4\ne 0 1\ne 1 2\ne 2 3\ne 3 0\nc 0 0\nc 1 1\nc 2 0\nc 3 1\n"
    g = parse_graph(text)
    assert g.m == 4 and g.color == (0, 1, 0, 1)


def test_graph_parser_rejects_bad_input():
    with pytest.raises(ParseError):
        parse_graph("e 0 1\n")
    with pytest.raises(ParseError):
        parse_graph("p 2 2\ne 0 1\n")  # promised two edges
    with pytest.raises(ParseError):
        parse_graph("p 2 1\ne 0 1\nc 0 0\n")  # partial coloring
    with pytest.raises(ParseError):
        parse_graph("p 2 1\ne 0 0\n")  # self loop
    with pytest.raises(ParseError):
        parse_graph("p -2 0\n")  # negative vertex count


def test_hex_roundtrip():
    h = gen_truncated_parallelogram((3, 2))
    assert parse_hex(serialize_hex(h)).cells == h.cells
    text = serialize_hex(h)
    assert serialize_hex(parse_hex(text)) == text


def test_hex_parser_is_order_insensitive_but_rejects_duplicates():
    assert parse_hex("1 0\n0 0\n").cells == ((0, 0), (1, 0))
    with pytest.raises(ParseError):
        parse_hex("0 0\n0 0\n")
    with pytest.raises(ParseError):
        parse_hex("# nothing\n")


def test_load_instance_dispatches_on_extension(tmp_path):
    gp = tmp_path / "a.graph"
    gp.write_text(serialize_graph(gen_named("C6")))
    kind, obj = load_instance(gp)
    assert kind == "graph" and obj.n == 6
    hp = tmp_path / "b.hex"
    hp.write_text(serialize_hex(gen_named("triphenylene")))
    kind, obj = load_instance(hp)
    assert kind == "hex" and obj.n_cells == 4
    with pytest.raises(ParseError):
        load_instance(tmp_path / "c.txt")


# ---------------------------------------------------------------- reports

def test_report_replays_cleanly(tmp_path):
    path = tmp_path / "tri.hex"
    path.write_text(serialize_hex(gen_named("triphenylene")))
    report = compute_report(path, ["pm_count", "f", "af", "clar", "fries"])
    assert replay(report, path) == []
    values = {e["name"]: e["value"] for e in report["invariants"]}
    assert values["pm_count"] == 9
    assert values["f"] == 1 and values["af"] == 2
    assert values["clar"] == 3
    assert values["fries"] == {"max": 4, "min": 1}


def test_report_replay_detects_tampering(tmp_path):
    path = tmp_path / "c6.graph"
    path.write_text(serialize_graph(gen_named("C6")))
    report = compute_report(path, ["f"])
    report["invariants"][0]["value"] = 99
    assert replay(report, path)


def test_report_replay_names_an_unknown_invariant(tmp_path):
    path = tmp_path / "c6.graph"
    path.write_text(serialize_graph(gen_named("C6")))
    report = compute_report(path, ["f", "af"])
    report["invariants"][0]["name"] = "nonesuch"
    assert replay(report, path) == ["unknown invariant 'nonesuch'"]


def _triphenylene_f_report(tmp_path):
    path = tmp_path / "tri.hex"
    path.write_text(serialize_hex(gen_named("triphenylene")))
    return compute_report(path, ["f", "af"]), path


def test_report_replay_reports_an_entry_without_a_value(tmp_path):
    report, path = _triphenylene_f_report(tmp_path)
    del report["invariants"][0]["value"]
    assert replay(report, path) == ["invariant entry 0: malformed"]


def test_report_replay_reports_a_missing_instance_record(tmp_path):
    report, path = _triphenylene_f_report(tmp_path)
    del report["instance"]
    assert replay(report, path) == ["malformed instance record"]


def test_report_replay_reports_an_entry_that_is_a_string(tmp_path):
    report, path = _triphenylene_f_report(tmp_path)
    report["invariants"][1] = "af"
    assert replay(report, path) == ["invariant entry 1: malformed"]


@pytest.mark.parametrize(
    "wrap", [lambda r: [r], json.dumps, lambda r: None], ids=["list", "string", "null"]
)
def test_report_replay_reports_a_report_that_is_no_object(tmp_path, wrap):
    report, path = _triphenylene_f_report(tmp_path)
    assert replay(wrap(report), path) == ["malformed report"]


def _tampered(tmp_path, name, change):
    path = tmp_path / "tri.hex"
    path.write_text(serialize_hex(gen_named("triphenylene")))
    report = compute_report(path, ["f", "F", "af", "Af", "f_spectrum", "af_spectrum"])
    entry = next(e for e in report["invariants"] if e["name"] == name)
    change(entry, load_instance(path)[1].graph)
    return replay(report, path)


def test_report_replay_detects_tampered_F_value(tmp_path):
    def change(entry, g):
        entry["value"] += 1

    problems = _tampered(tmp_path, "F", change)
    assert any(p.startswith("F: recomputed") for p in problems)


def test_report_replay_detects_tampered_af_spectrum_entry(tmp_path):
    def change(entry, g):
        entry["value"]["values"][0] += 1

    problems = _tampered(tmp_path, "af_spectrum", change)
    assert any(p.startswith("af_spectrum: recomputed") for p in problems)


def test_report_replay_detects_swapped_Af_witness(tmp_path):
    def change(entry, g):
        m = Matching(entry["witness"]["matching"])
        size = len(entry["witness"]["edge_set"])
        outside = [e for e in range(g.m) if e not in m.edge_set]
        for candidate in combinations(outside, size):
            if not is_antiforcing_set(g, m, candidate):
                entry["witness"]["edge_set"] = list(candidate)
                return
        raise AssertionError("every same-size set is anti-forcing")

    problems = _tampered(tmp_path, "Af", change)
    assert problems == ["Af: witness is not an anti-forcing set"]


def test_report_replay_rejects_f_witness_with_a_non_matching_edge(tmp_path):
    def change(entry, g):
        m = Matching(entry["witness"]["matching"])
        outside = next(e for e in range(g.m) if e not in m.edge_set)
        entry["witness"]["edge_set"][0] = outside

    problems = _tampered(tmp_path, "f", change)
    assert problems == ["f: witness is not a forcing set"]


def test_report_replay_rejects_af_witness_with_a_matching_edge(tmp_path):
    def change(entry, g):
        entry["witness"]["edge_set"][0] = entry["witness"]["matching"][0]

    problems = _tampered(tmp_path, "af", change)
    assert problems == ["af: witness is not an anti-forcing set"]


def _tampered_hex(tmp_path, name, change):
    path = tmp_path / "tri.hex"
    path.write_text(serialize_hex(gen_named("triphenylene")))
    report = compute_report(path, ["f", "clar", "fries"])
    entry = next(e for e in report["invariants"] if e["name"] == name)
    change(entry, load_instance(path)[1])
    return replay(report, path)


def test_report_replay_rejects_adjacent_clar_hexagons(tmp_path):
    def change(entry, h):
        # the Fries-maximum matching alternates on every cell, and the
        # centre touches both others
        m = max(enumerate_perfect_matchings(h.graph), key=lambda m: len(alternating_hexagons(h, m)))
        cells = [(-1, 0), (0, 0), (0, 1)]
        assert {h.cell_index[c] for c in cells} <= set(alternating_hexagons(h, m))
        entry["witness"] = {"matching": list(m.edge_ids), "hexagons": [list(c) for c in cells]}
        entry["value"] = 3

    problems = _tampered_hex(tmp_path, "clar", change)
    assert problems == ["clar: witness hexagons are not pairwise non-adjacent"]


def test_report_replay_rejects_repeated_or_foreign_clar_hexagons(tmp_path):
    def repeat(entry, h):
        entry["witness"]["hexagons"][1] = entry["witness"]["hexagons"][0]

    def foreign(entry, h):
        entry["witness"]["hexagons"][0] = [7, 7]

    for change in (repeat, foreign):
        problems = _tampered_hex(tmp_path, "clar", change)
        assert problems == ["clar: witness hexagons are not distinct cells of the system"]


def test_report_replay_rejects_a_clar_witness_that_is_no_perfect_matching(tmp_path):
    def change(entry, h):
        entry["witness"]["matching"] = entry["witness"]["matching"][1:]

    problems = _tampered_hex(tmp_path, "clar", change)
    assert problems == ["clar: witness matching is not a perfect matching"]


def test_report_replay_rejects_a_fries_witness_that_is_no_perfect_matching(tmp_path):
    def change(entry, h):
        # the even-position edges of the reported hexagons: no perfect
        # matching, though on the min side the one hexagon still alternates
        for side in ("max", "min"):
            cells = [h.cell_index[tuple(c)] for c in entry["witness"][f"{side}_hexagons"]]
            entry["witness"][f"{side}_matching"] = sorted(
                {h.face_edges[c][i] for c in cells for i in (0, 2, 4)}
            )

    problems = _tampered_hex(tmp_path, "fries", change)
    assert problems == [
        "fries: max witness matching is not a perfect matching",
        "fries: min witness matching is not a perfect matching",
    ]


def test_report_replay_reports_an_f_witness_missing_an_edge(tmp_path):
    def change(entry, g):
        del entry["witness"]["matching"][0]

    problems = _tampered(tmp_path, "f", change)
    assert problems == ["f: witness matching is not a perfect matching"]


@pytest.mark.parametrize("name", ["f", "clar", "fries"])
def test_report_replay_reports_an_empty_witness(tmp_path, name):
    def change(entry, h):
        entry["witness"] = {}

    problems = _tampered_hex(tmp_path, name, change)
    assert problems == [f"{name}: malformed witness"]


@pytest.mark.parametrize("bad_id", [-1, 10**6])
def test_report_replay_reports_edge_ids_outside_the_graph(tmp_path, bad_id):
    def clar(entry, h):
        entry["witness"]["matching"][0] = bad_id

    def fries(entry, h):
        entry["witness"]["max_matching"][0] = bad_id

    assert _tampered_hex(tmp_path, "clar", clar) == [
        "clar: witness matching is not a perfect matching"
    ]
    assert _tampered_hex(tmp_path, "fries", fries) == [
        "fries: max witness matching is not a perfect matching"
    ]


# -------------------------------------------------------------------- CLI

def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_cli_compute_triphenylene_spectrum(tmp_path, capsys):
    path = tmp_path / "triphenylene.hex"
    path.write_text(serialize_hex(gen_named("triphenylene")))
    code, out, _ = run_cli(capsys, "compute", "--in", str(path), "--inv", "af_spectrum")
    assert code == 0
    report = json.loads(out)
    entry = report["invariants"][0]
    assert entry["name"] == "af_spectrum"
    assert entry["value"]["value_set"] == [2, 3, 4]


def test_cli_compute_c6(tmp_path, capsys):
    path = tmp_path / "c6.graph"
    path.write_text(serialize_graph(gen_named("C6")))
    code, out, _ = run_cli(capsys, "compute", "--in", str(path), "--inv", "f,af")
    assert code == 0
    report = json.loads(out)
    assert [e["value"] for e in report["invariants"]] == [1, 1]


def test_cli_exit_codes(tmp_path, capsys):
    bad = tmp_path / "bad.graph"
    bad.write_text("not a graph\n")
    code, _, err = run_cli(capsys, "compute", "--in", str(bad), "--inv", "f")
    assert code == 2

    gp = tmp_path / "c6.graph"
    gp.write_text(serialize_graph(gen_named("C6")))
    code, _, _ = run_cli(capsys, "compute", "--in", str(gp), "--inv", "clar")
    assert code == 3

    code, _, _ = run_cli(capsys, "compute", "--in", str(gp), "--inv", "f", "--max-matchings", "1")
    assert code == 4

    code, _, _ = run_cli(capsys, "compute", "--in", str(gp), "--inv", "nonesuch")
    assert code == 3

    code, _, _ = run_cli(capsys, "verify", "--suite", "nope")
    assert code == 2


@pytest.mark.parametrize("error", MatchforceError.__subclasses__(), ids=lambda e: e.__name__)
def test_cli_ends_every_library_error_by_its_exit_code(tmp_path, capsys, monkeypatch, error):
    def fail(*args, **kwargs):
        raise error("boom")

    code, label = cli.EXITS[error]
    for target, argv in (
        ("compute_report", ("compute", "--in", str(tmp_path / "c6.graph"), "--inv", "f")),
        ("run_suite", ("verify", "--suite", "thm2")),
        ("gen_named", ("generate", "named", "C6", "--out", str(tmp_path / "c6.graph"))),
    ):
        monkeypatch.setattr(cli, target, fail)
        assert run_cli(capsys, *argv) == (code, "", f"{label}: boom\n"), argv


def test_cli_compute_rejects_an_instance_file_that_is_not_utf8(tmp_path, capsys):
    path = tmp_path / "bin.graph"
    path.write_bytes(b"\xff\xfe\x00")
    code, out, err = run_cli(capsys, "compute", "--in", str(path), "--inv", "pm_count")
    assert code == 2
    assert out == ""
    assert err.startswith(f"parse error: cannot read {path}: ")


@pytest.mark.parametrize("counts", ["-2 0", "-1 0", "2 -1"])
def test_cli_compute_rejects_negative_counts_in_a_graph_file(tmp_path, capsys, counts):
    path = tmp_path / "neg.graph"
    path.write_text(f"p {counts}\n")
    code, out, err = run_cli(capsys, "compute", "--in", str(path), "--inv", "pm_count")
    assert code == 2
    assert out == ""
    assert err == f"parse error: negative count in problem line 'p {counts}'\n"


@pytest.mark.parametrize(
    "name, text, message",
    [
        ("x.graph", "p 4 x\n", "bad problem line 'p 4 x'"),
        ("c.graph", "p 2 1\ne 0 1\nc 0 0\nc 0 1\n", "vertex 0 colored twice"),
        ("c6.txt", "p 2 1\ne 0 1\n", "unknown instance extension '.txt' (want .graph or .hex)"),
    ],
)
def test_cli_compute_names_a_parse_error(tmp_path, capsys, name, text, message):
    path = tmp_path / name
    path.write_text(text)
    code, out, err = run_cli(capsys, "compute", "--in", str(path), "--inv", "pm_count")
    assert (code, out, err) == (2, "", f"parse error: {message}\n")


@pytest.mark.parametrize(
    "args",
    [
        ("compute", "--inv", "pm_count", "--max-matchings", "-5"),
        ("compute", "--inv", "f", "--max-matchings", "-1"),
        ("verify", "--suite", "thm2", "--max-cells", "-3"),
        ("verify", "--suite", "thm2", "--max-matchings", "-1"),
        ("verify", "--suite", "thm9", "--max-matchings", "-1"),
    ],
)
def test_cli_rejects_negative_caps_and_cell_counts(tmp_path, capsys, args):
    gp = tmp_path / "c6.graph"
    gp.write_text(serialize_graph(gen_named("C6")))
    if args[0] == "compute":
        args = args[:1] + ("--in", str(gp)) + args[1:]
    code, out, err = run_cli(capsys, *args)
    assert code == 2
    assert out == ""
    if args[0] == "verify" and "--max-matchings" in args:
        # no corpus instance comes near the matching cap, so verify takes none
        assert err.endswith("error: unrecognized arguments: --max-matchings -1\n")
    else:
        assert "must not be negative" in err


def test_cli_has_no_cycle_cap(tmp_path, capsys):
    # max_matchings bounds every matching's alternating cycles, so there is
    # no second cap to set
    gp = tmp_path / "c6.graph"
    gp.write_text(serialize_graph(gen_named("C6")))
    for args in (("compute", "--in", str(gp), "--inv", "f"), ("verify", "--suite", "thm2")):
        code, out, err = run_cli(capsys, *args, "--max-cycles", "5")
        assert (code, out) == (2, "")
        assert err.endswith("error: unrecognized arguments: --max-cycles 5\n")


def test_cli_takes_zero_caps_as_caps(tmp_path, capsys):
    gp = tmp_path / "c6.graph"
    gp.write_text(serialize_graph(gen_named("C6")))
    code, _, err = run_cli(capsys, "compute", "--in", str(gp), "--inv", "f", "--max-matchings", "0")
    assert code == 4
    assert err == "cap exceeded: more than 0 perfect matchings\n"


def test_cli_sweeps_hexagon_5_past_the_matching_cap(tmp_path, capsys):
    # K = 267,227,532 is past the default matching cap, which bounds only
    # what lists matchings: the count, Clar and Fries answer and replay clean
    path, out = tmp_path / "hexagon-5.hex", tmp_path / "report.json"
    path.write_text(serialize_hex(_hexagon(5)))
    code, _, err = run_cli(
        capsys, "compute", "--in", str(path), "--inv", "pm_count,clar,fries", "--out", str(out)
    )
    assert (code, err) == (0, "")
    report = json.loads(out.read_text())
    values = [e["value"] for e in report["invariants"]]
    assert values == [267_227_532, 19, {"max": 37, "min": 1}]
    assert replay(report, path) == []
    # listing its matchings still stops at the cap
    code, _, err = run_cli(
        capsys, "compute", "--in", str(path), "--inv", "f", "--max-matchings", "1000"
    )
    assert (code, err) == (4, "cap exceeded: more than 1000 perfect matchings\n")


def test_cli_refuses_a_listing_past_the_cap_by_the_count(tmp_path, capsys, monkeypatch):
    # TP(5,5,5) has K = 56 perfect matchings; the count refuses 10 before any is listed
    path = tmp_path / "tp-5-5-5.hex"
    path.write_text(serialize_hex(gen_truncated_parallelogram((5, 5, 5))))

    def listed(*args, **kwargs):
        raise AssertionError("a matching was listed")

    monkeypatch.setattr("matchforce.report.enumerate_perfect_matchings", listed)
    code, out, err = run_cli(
        capsys, "compute", "--in", str(path), "--inv", "f", "--max-matchings", "10"
    )
    assert (code, out, err) == (4, "", "cap exceeded: more than 10 perfect matchings\n")


def _random_cubic(n, seed):
    """A simple 3-regular graph on n vertices from the pairing model."""
    rng = random.Random(seed)
    stubs = [v for v in range(n) for _ in range(3)]
    while True:
        rng.shuffle(stubs)
        pairs = {tuple(sorted(stubs[i : i + 2])) for i in range(0, len(stubs), 2)}
        if len(pairs) * 2 == len(stubs) and all(u != v for u, v in pairs):
            return build_graph(n, sorted(pairs))


def test_cli_pm_count_stops_at_the_state_cap(tmp_path, capsys):
    # a random cubic graph on 100 vertices leaves a wide frontier in any BFS
    # order; the count stops at the state cap, naming the vertex it reached,
    # in about 0.5 s (2-vCPU shared host) where listing its matchings ran
    # until the matching cap
    gp = tmp_path / "cubic-100.graph"
    gp.write_text(serialize_graph(_random_cubic(100, 0)))
    start = time.perf_counter()
    code, out, err = run_cli(capsys, "compute", "--in", str(gp), "--inv", "pm_count")
    assert time.perf_counter() - start < 10
    assert (code, out) == (4, "")
    past = r"frontier sweep holds \d+ states at vertex \d+ of 100, more than 262144"
    assert re.fullmatch(f"cap exceeded: {past}\n", err), err


def test_spectra_without_a_perfect_matching_are_inapplicable(tmp_path, capsys):
    path3 = build_graph(3, [(0, 1), (1, 2)])
    for spectrum in (forcing_spectrum, antiforcing_spectrum):
        with pytest.raises(NoPerfectMatching, match="^graph has no perfect matching$"):
            spectrum(path3)
    path = tmp_path / "p3.graph"
    path.write_text(serialize_graph(path3))
    code, out, err = run_cli(capsys, "compute", "--in", str(path), "--inv", "f_spectrum")
    assert (code, out, err) == (3, "", "inapplicable invariant: graph has no perfect matching\n")


@pytest.mark.parametrize("inv", ["f", "clar", "fries"])
def test_cli_compute_without_a_perfect_matching_is_inapplicable(tmp_path, capsys, inv):
    h = next(h for h in enumerate_hex_systems(3) if h.graph.n == 13)
    path = tmp_path / "no-pm.hex"
    path.write_text(serialize_hex(h))
    code, out, err = run_cli(capsys, "compute", "--in", str(path), "--inv", inv)
    assert code == 3
    assert out == ""
    assert err == "inapplicable invariant: graph has no perfect matching\n"


def test_cli_compute_kekule_invariants_on_a_long_chain(tmp_path, capsys):
    path = tmp_path / "tp-600.hex"
    path.write_text(serialize_hex(gen_truncated_parallelogram((600,))))
    code, out, _ = run_cli(capsys, "compute", "--in", str(path), "--inv", "pm_count,clar,fries")
    assert code == 0
    values = {e["name"]: e["value"] for e in json.loads(out)["invariants"]}
    assert values["pm_count"] == 601
    assert values["clar"] == 1
    assert values["fries"] == {"max": 2, "min": 1}


def test_python_m_matchforce_runs_the_command_line(tmp_path):
    path = tmp_path / "tri.hex"
    path.write_text(serialize_hex(gen_named("triphenylene")))
    src = Path(matchforce.__file__).resolve().parent.parent
    paths = [str(src), os.environ.get("PYTHONPATH")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, paths)))
    argv = ["compute", "--in", str(path), "--inv", "pm_count,clar"]
    done = subprocess.run(
        [sys.executable, "-m", "matchforce", *argv],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    values = {e["name"]: e["value"] for e in json.loads(done.stdout)["invariants"]}
    assert values == {"pm_count": 9, "clar": 3}


def test_cli_compute_writes_out_file(tmp_path, capsys):
    gp = tmp_path / "c6.graph"
    gp.write_text(serialize_graph(gen_named("C6")))
    out_path = tmp_path / "report.json"
    code, out, _ = run_cli(
        capsys, "compute", "--in", str(gp), "--inv", "pm_count", "--out", str(out_path)
    )
    assert code == 0 and out == ""
    assert json.loads(out_path.read_text())["invariants"][0]["value"] == 2


@pytest.mark.parametrize(
    "argv",
    [
        ("compute", "--in", "{c6}", "--inv", "pm_count"),
        ("verify", "--suite", "thm13", "--max-cells", "1"),
        ("generate", "trunc-para", "2,2"),
    ],
    ids=lambda argv: argv[0],
)
def test_cli_unwritable_out_exits_2_with_one_line(tmp_path, capsys, argv):
    # exit 1 means a failed verification, so a failed write must not end there
    gp = tmp_path / "c6.graph"
    gp.write_text(serialize_graph(gen_named("C6")))
    out_path = tmp_path / "missing" / "out.json"
    code, _, err = run_cli(capsys, *(a.format(c6=gp) for a in argv), "--out", str(out_path))
    assert code == 2
    assert err.startswith("write error: ") and len(err.splitlines()) == 1
    assert not out_path.parent.exists()


def test_cli_verify_small_suite(tmp_path, capsys):
    out_path = tmp_path / "thm13.json"
    code, out, _ = run_cli(
        capsys, "verify", "--suite", "thm13", "--max-cells", "2", "--out", str(out_path)
    )
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[-1].startswith("suite thm13:")
    assert all(line.startswith("ok") for line in lines[:-1])
    entries = json.loads(out_path.read_text())["theorems"]
    assert entries and all(e["status"] == "pass" for e in entries)


def test_cli_generate_trunc_para(tmp_path, capsys):
    out = tmp_path / "tp.hex"
    code, _, _ = run_cli(capsys, "generate", "trunc-para", "5,5,3,2", "--out", str(out))
    assert code == 0
    assert len(out.read_text().strip().splitlines()) == 15


def test_cli_generate_named_dodecahedron(tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    code, _, _ = run_cli(capsys, "generate", "named", "dodecahedron")
    assert code == 0
    text = (tmp_path / "dodecahedron.graph").read_text()
    assert sum(1 for line in text.splitlines() if line.startswith("e ")) == 30


def test_cli_generate_polyhex_corpus(tmp_path, capsys):
    out_dir = tmp_path / "corpus"
    code, _, _ = run_cli(capsys, "generate", "polyhex-corpus", "2", "--out", str(out_dir))
    assert code == 0
    assert len(list(out_dir.glob("*.hex"))) == 3


def test_cli_generate_corpus_is_byte_identical_across_runs(tmp_path, capsys):
    dirs = [tmp_path / "a", tmp_path / "b"]
    for d in dirs:
        code, _, _ = run_cli(capsys, "generate", "polyhex-corpus", "3", "--out", str(d))
        assert code == 0
    files_a = sorted(p.name for p in dirs[0].glob("*.hex"))
    files_b = sorted(p.name for p in dirs[1].glob("*.hex"))
    assert files_a == files_b
    for name in files_a:
        assert (dirs[0] / name).read_bytes() == (dirs[1] / name).read_bytes()


def test_cli_generate_glue_preset(tmp_path, capsys):
    out = tmp_path / "p1.hex"
    code, _, _ = run_cli(capsys, "generate", "glue-preset", "1", "--out", str(out))
    assert code == 0
    assert parse_hex(out.read_text()).n_cells >= 4


def test_cli_generate_named_builds_its_instance_once(tmp_path, capsys, monkeypatch):
    names = []
    monkeypatch.setattr(cli, "gen_named", lambda name: names.append(name) or gen_named(name))
    monkeypatch.chdir(tmp_path)
    code, out, _ = run_cli(capsys, "generate", "named", "C6")
    assert (code, out, names) == (0, "wrote c6.graph\n", ["C6"])
    assert (tmp_path / "c6.graph").read_text() == serialize_graph(gen_named("C6"))


def test_cli_unknown_glue_preset_ends_as_unknown_name(capsys):
    with pytest.raises(UnknownName) as raised:
        glue_preset(99)
    code, out, err = run_cli(capsys, "generate", "glue-preset", "99")
    assert (code, out, err) == (2, "", f"bad input: {raised.value}\n")


def test_cli_generate_rejects_bad_params(tmp_path, capsys):
    code, _, _ = run_cli(capsys, "generate", "trunc-para", "2,3")
    assert code == 2
    code, _, _ = run_cli(capsys, "generate", "named", "nonesuch")
    assert code == 2
    code, _, _ = run_cli(capsys, "generate", "polyhex-corpus", "7", "--out", str(tmp_path / "c7"))
    assert code == 2 and not (tmp_path / "c7").exists()
