"""Command-line front end: solve, oracle, preprocess, curves and evaluate.

Exit status contract: 0 on success, 1 when the instance fails validation (the
report is printed), a parameter is out of range or a selector matches
nothing, 2 on I/O errors.  All configuration is explicit flags; the
environment is intentionally ignored so identical invocations reproduce
identical results.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from . import __version__
from .fds_solver import (
    evaluate_point_pair,
    oracle_grid,
    restricted_problems,
    solve_global,
)
from .level_curves import curves_to_csv, trace_level_curve
from .mixed_distance import BRANCH_A, BRANCH_B, ORIENTATIONS, branch_field
from .model import (
    NetworkPoint,
    ProblemInstance,
    load_instance,
    network_point,
    validate_instance,
)
from .preprocess import TYPE1, all_pairs_shortest_paths, preprocess_instance


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    # argparse exits with status 2 on bad flags; the contract wants usage + 1
    def error(self, message):
        raise _UsageError(message)


def _build_parser() -> _Parser:
    parser = _Parser(prog="tripcover", description=__doc__)
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p: argparse.ArgumentParser) -> None:
        p.add_argument("--instance", required=True, help="instance JSON document")
        p.add_argument("--out", default="-", help="output path, '-' for stdout")
        p.add_argument("--grid-res", type=int, default=200, help="oracle grid points per axis")
        p.add_argument("--trace-res", type=int, default=256, help="samples per curve arc")
        p.add_argument("--cov-tol", type=float, default=1e-9, help="coverage test slack")
        p.add_argument("--refine-tol", type=float, default=1e-9, help="crossing bisection tolerance")
        p.add_argument("--jobs", type=int, default=1, help="worker processes")
        p.add_argument("--format", choices=("json", "csv"), default=None, help="output format")

    p_solve = sub.add_parser("solve", help="solve the two-transfer-point problem")
    common(p_solve)
    p_solve.add_argument(
        "--timing", action="store_true", help="include runtime_ms in the result document"
    )

    p_oracle = sub.add_parser("oracle", help="brute-force grid lower bound")
    common(p_oracle)

    p_pre = sub.add_parser("preprocess", help="dump distances, bottlenecks, segments, classes")
    common(p_pre)

    p_curves = sub.add_parser("curves", help="export level curves as CSV")
    common(p_curves)
    p_curves.add_argument(
        "--segments",
        required=True,
        help="segment pair selector 'P,Q' (global indices, see preprocess)",
    )
    p_curves.add_argument(
        "--pair",
        action="append",
        default=None,
        help="O/D pair selector 'i,j'; repeatable, default all pairs",
    )

    p_eval = sub.add_parser("evaluate", help="trip lengths and coverage at a point pair")
    common(p_eval)
    p_eval.add_argument("--x1", required=True, help="first transfer point 'EDGE:ARC'")
    p_eval.add_argument("--x2", required=True, help="second transfer point 'EDGE:ARC'")

    return parser


def _write_out(text: str, out: str) -> None:
    if out == "-":
        sys.stdout.write(text)
    else:
        Path(out).write_text(text, encoding="utf-8")


def _write_json(doc: dict, out: str) -> None:
    _write_out(json.dumps(doc, indent=2) + "\n", out)


def _load_checked(path: str) -> ProblemInstance | None:
    """Load and validate; prints the report and returns None on failure."""

    inst = load_instance(path)
    report = validate_instance(inst)
    for warning in report.warnings:
        print(f"warning: {warning}", file=sys.stderr)
    if not report.is_valid:
        for violation in report.errors:
            print(f"error: {violation}", file=sys.stderr)
        return None
    return inst


def _point_doc(p: NetworkPoint) -> dict:
    return {
        "edge": p.edge,
        "arc_length": p.arc_length,
        "x": p.point.x,
        "y": p.point.y,
    }


def _cmd_solve(args) -> int:
    inst = _load_checked(args.instance)
    if inst is None:
        return 1
    solution, stats = solve_global(
        inst,
        trace_res=args.trace_res,
        cov_tol=args.cov_tol,
        refine_tol=args.refine_tol,
        jobs=args.jobs,
    )
    if not args.timing:
        # runtime varies run to run; omit it so identical invocations
        # produce byte-identical documents
        stats = {k: v for k, v in stats.items() if k != "runtime_ms"}
    doc = {
        "objective": solution.objective,
        "X1": _point_doc(solution.x1),
        "X2": _point_doc(solution.x2),
        "covered": [list(pair) for pair in solution.covered],
        "stats": stats,
    }
    _write_json(doc, args.out)
    return 0


def _cmd_oracle(args) -> int:
    inst = _load_checked(args.instance)
    if inst is None:
        return 1
    result = oracle_grid(inst, res=args.grid_res, cov_tol=args.cov_tol)
    doc = {
        "objective": result.objective,
        "X1": _point_doc(result.x1),
        "X2": _point_doc(result.x2),
        "grid_res": args.grid_res,
    }
    _write_json(doc, args.out)
    return 0


def _cmd_preprocess(args) -> int:
    inst = _load_checked(args.instance)
    if inst is None:
        return 1
    prep = preprocess_instance(inst)
    problems = restricted_problems(inst, prep)
    seg_index = {seg: k for k, seg in enumerate(prep.segments)}
    doc = {
        "vertex_ids": [v.id for v in inst.network.vertices],
        "distance_matrix": prep.dist.tolist(),
        "bottlenecks": [
            {
                "edge": b.edge,
                "arc_length": b.arc_length,
                "defining_vertices": list(b.vertices),
            }
            for per_edge in prep.bottlenecks
            for b in per_edge
        ],
        "segments": [
            {"index": k, "edge": s.edge, "start": s.start, "end": s.end}
            for k, s in enumerate(prep.segments)
        ],
        "pair_classes": [
            {
                "p": seg_index[problem.seg_p],
                "q": seg_index[problem.seg_q],
                "type": 1 if problem.domain.pair_class.kind == TYPE1 else 2,
                "diagonal": problem.domain.pair_class.diagonal,
                "forms": [
                    {"c0": f.c0, "cx": f.cx, "cy": f.cy}
                    for f in problem.domain.pair_class.forms
                ],
            }
            for problem in problems
        ],
    }
    _write_json(doc, args.out)
    return 0


def _cmd_curves(args) -> int:
    inst = _load_checked(args.instance)
    if inst is None:
        return 1
    try:
        sp, sq = (int(v) for v in args.segments.split(","))
    except ValueError:
        print(f"error: bad --segments selector {args.segments!r}", file=sys.stderr)
        return 1
    prep = preprocess_instance(inst)
    segments = prep.segments
    if not (0 <= sp < len(segments) and 0 <= sq < len(segments)):
        print(
            f"error: --segments {args.segments} matches nothing "
            f"({len(segments)} segments)",
            file=sys.stderr,
        )
        return 1

    wanted: list[tuple[int, int]] | None = None
    if args.pair:
        wanted = []
        for token in args.pair:
            try:
                i, j = (int(v) for v in token.split(","))
            except ValueError:
                print(f"error: bad --pair selector {token!r}", file=sys.stderr)
                return 1
            wanted.append((i, j))
    pairs = [
        p
        for p in inst.pairs
        if wanted is None or (p.origin, p.dest) in wanted
    ]
    if not pairs:
        print("error: --pair selector matches no O/D pair", file=sys.stderr)
        return 1

    from .preprocess import classify_segment_pair
    from .mixed_distance import pair_domain

    pc = classify_segment_pair(segments[sp], segments[sq], prep.dist, inst.network)
    dom = pair_domain(inst.network, segments[sp], segments[sq], pc)
    branches = (BRANCH_A, BRANCH_B) if (pc.kind == TYPE1 and not pc.diagonal) else (BRANCH_A,)
    curves = []
    for pair in pairs:
        for orientation in ORIENTATIONS:
            for branch in branches:
                field = branch_field(inst, dom, pair, orientation, branch)
                curves.append(trace_level_curve(field, pair.acceptance, args.trace_res))
    if args.format == "json":
        doc = {
            "segments": [sp, sq],
            "curves": [
                {
                    "pair_i": c.field.pair[0],
                    "pair_j": c.field.pair[1],
                    "orientation": c.field.orientation,
                    "branch": c.field.branch,
                    "level": c.level,
                    "polylines": [poly.tolist() for poly in c.polylines],
                }
                for c in curves
            ],
        }
        _write_json(doc, args.out)
    else:
        _write_out(curves_to_csv(curves), args.out)
    return 0


def _parse_network_point(inst: ProblemInstance, token: str, flag: str) -> NetworkPoint:
    try:
        edge_str, arc_str = token.split(":")
        edge, arc = int(edge_str), float(arc_str)
    except ValueError as exc:
        raise _UsageError(f"bad {flag} value {token!r}, expected EDGE:ARC") from exc
    if not 0 <= edge < len(inst.network.edges):
        raise _UsageError(f"{flag}: edge {edge} does not exist")
    try:
        return network_point(inst.network, edge, arc)
    except ValueError as exc:
        raise _UsageError(f"{flag}: {exc}") from exc


def _cmd_evaluate(args) -> int:
    inst = _load_checked(args.instance)
    if inst is None:
        return 1
    x1 = _parse_network_point(inst, args.x1, "--x1")
    x2 = _parse_network_point(inst, args.x2, "--x2")
    dist = all_pairs_shortest_paths(inst.network)
    rows, total = evaluate_point_pair(inst, dist, x1, x2, tol=args.cov_tol)
    doc = {
        "X1": _point_doc(x1),
        "X2": _point_doc(x2),
        "pairs": rows,
        "covered": [[r["i"], r["j"]] for r in rows if r["covered"]],
        "objective": total,
    }
    _write_json(doc, args.out)
    return 0


_COMMANDS = {
    "solve": _cmd_solve,
    "oracle": _cmd_oracle,
    "preprocess": _cmd_preprocess,
    "curves": _cmd_curves,
    "evaluate": _cmd_evaluate,
}


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        if args.command != "curves" and args.format == "csv":
            raise _UsageError("csv output is only available for the curves subcommand")
        try:
            return _COMMANDS[args.command](args)
        except ValueError as exc:  # a malformed instance or a parameter out of range
            print(f"error: {exc}", file=sys.stderr)
            return 1
        except OSError as exc:
            print(f"i/o error: {exc}", file=sys.stderr)
            return 2
    except _UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        parser.print_usage(sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
