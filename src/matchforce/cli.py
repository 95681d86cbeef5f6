"""Command line front end: compute invariants, verify identities, generate files.

Exit codes: 0 success, 1 verification failure, 2 parse/usage error, bad
input or an unwritable output, 3 inapplicable invariant or no perfect
matching, 4 a cap exceeded (listed matchings or frontier-sweep states).
Every error class and its code are listed once, in EXITS.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from . import errors
from .generators import (
    gen_named,
    gen_truncated_parallelogram,
    glue_preset,
    enumerate_hex_systems,
)
from .graphs import DEFAULT_MATCHING_CAP
from .io import serialize_hex, serialize_instance
from .hexsys import HexSystem
from .report import REGISTRY, compute_report, dumps_report
from .verify import SUITE_IDS, run_suite

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_PARSE = 2
EXIT_INAPPLICABLE = 3
EXIT_CAP = 4

# error class -> (exit code, stderr label); an error is reported under the
# first class of its method resolution order found here
EXITS: dict[type[Exception], tuple[int, str]] = {
    errors.ParseError: (EXIT_PARSE, "parse error"),
    **dict.fromkeys(
        (
            errors.SelfLoop, errors.DuplicateEdge, errors.BadColoring, errors.Disconnected,
            errors.HasHole, errors.BadRowSequence, errors.UnknownName, errors.TooLarge,
            errors.InvalidGlue, errors.UnknownSuite, errors.NotPerfect, errors.NotSubsetOfM,
            errors.IntersectsM, ValueError,  # ValueError: a generate parameter that is no int
        ),
        (EXIT_PARSE, "bad input"),
    ),
    **dict.fromkeys(
        (
            errors.InapplicableInvariant, errors.NoPerfectMatching, errors.NotBipartite,
            errors.NotATree,
        ),
        (EXIT_INAPPLICABLE, "inapplicable invariant"),
    ),
    errors.LimitExceeded: (EXIT_CAP, "cap exceeded"),
    OSError: (EXIT_PARSE, "write error"),  # an output that cannot be written
}


def _count(text: str) -> int:
    """argparse type for caps and cell counts: a non-negative int."""
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"must not be negative: {value}")
    return value


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="matchforce",
        description="forcing / anti-forcing invariants of perfect matchings",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_compute = sub.add_parser("compute", help="compute invariants of an instance file")
    p_compute.add_argument("--in", dest="infile", required=True, help=".graph or .hex file")
    p_compute.add_argument(
        "--inv",
        required=True,
        help="comma-separated invariants: " + ",".join(sorted(REGISTRY)),
    )
    p_compute.add_argument("--out", help="write the report here instead of stdout")
    p_compute.add_argument(
        "--max-matchings", type=_count, default=DEFAULT_MATCHING_CAP, metavar="N",
        help="list at most N perfect matchings, for f, F, af, Af and the spectra",
    )

    p_verify = sub.add_parser("verify", help="run one verification suite")
    p_verify.add_argument("--suite", required=True, choices=SUITE_IDS)
    p_verify.add_argument(
        "--max-cells",
        type=_count,
        default=None,
        metavar="N",
        help="cap each corpus part at min(N, its own cap): polyhexes 6 cells, "
        "TPs 8 (thm2, lem19) or 12 (thm9); thm9 also drops presets over N; "
        "omitted, every part runs to its own cap",
    )
    p_verify.add_argument("--out", help="also write the check results as JSON")

    p_gen = sub.add_parser("generate", help="write instance files")
    p_gen.add_argument(
        "family", choices=("trunc-para", "named", "polyhex-corpus", "glue-preset")
    )
    p_gen.add_argument("params", help="e.g. 5,5,3,2 / dodecahedron / 4 / 1")
    p_gen.add_argument("--out", help="output file (or directory for polyhex-corpus)")
    return parser


def _cmd_compute(args) -> int:
    invariants = [s for s in args.inv.split(",") if s]
    report = compute_report(args.infile, invariants, max_matchings=args.max_matchings)
    text = dumps_report(report)
    if args.out:
        Path(args.out).write_text(text)
    else:
        sys.stdout.write(text)
    return EXIT_OK


def _cmd_verify(args) -> int:
    result = run_suite(args.suite, max_cells=args.max_cells)
    for check in result.checks:
        if check.ok:
            print(f"ok   {check.instance}")
        else:
            print(f"FAIL {check.instance}: {check.detail}")
    print(result.summary())
    if args.out:
        import json

        entries = [
            {
                "theorem": result.suite,
                "instance": c.instance,
                "status": "pass" if c.ok else "fail",
                **({"counterexample": c.detail} if not c.ok else {}),
            }
            for c in result.checks
        ]
        Path(args.out).write_text(json.dumps({"theorems": entries}, indent=2) + "\n")
    return EXIT_OK if result.ok else EXIT_FAIL


def _cmd_generate(args) -> int:
    if args.family == "polyhex-corpus":
        n = int(args.params)
        systems = enumerate_hex_systems(n)  # before mkdir: TooLarge leaves no directory
        out_dir = Path(args.out or f"polyhex-{n}")
        out_dir.mkdir(parents=True, exist_ok=True)
        for i, h in enumerate(systems):
            (out_dir / f"polyhex-{n}-{i:04d}.hex").write_text(serialize_hex(h))
        print(f"wrote {len(systems)} files to {out_dir}")
        return EXIT_OK
    if args.family == "trunc-para":
        obj = gen_truncated_parallelogram(tuple(int(x) for x in args.params.split(",")))
        stem = "tp-" + args.params.replace(",", "_")
    elif args.family == "named":
        obj = gen_named(args.params)
        stem = args.params.lower()
    else:  # glue-preset
        obj = glue_preset(int(args.params))
        stem = f"glue-preset-{args.params}"
    out = Path(args.out or stem + (".hex" if isinstance(obj, HexSystem) else ".graph"))
    out.write_text(serialize_instance(obj))
    print(f"wrote {out}")
    return EXIT_OK


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on usage errors, matching the parse-error contract
        return int(exc.code) if exc.code else EXIT_OK
    command = {"compute": _cmd_compute, "verify": _cmd_verify, "generate": _cmd_generate}
    try:
        return command[args.command](args)
    except tuple(EXITS) as exc:
        code, label = next(EXITS[c] for c in type(exc).__mro__ if c in EXITS)
        print(f"{label}: {exc}", file=sys.stderr)
        return code


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
