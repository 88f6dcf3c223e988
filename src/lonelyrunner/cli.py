"""Command-line surface: one subcommand per problem formulation.

JSON certificate documents go to stdout, logs to stderr, SVG to the path
given by ``--svg`` (or stdout).  Exit codes: 0 success, 1 usage error, 2
mathematical counterexample found (or an invalid certificate under
``check``), 3 prime-budget or horizon exhaustion.
"""

from __future__ import annotations

import argparse
import functools
import sys
from fractions import Fraction
from typing import Sequence

from .arith import QuadExt, SpeedSet
from . import billiards, certificates, fieldsearch, gap, render, viewobstruct

__all__ = ["run", "main", "build_parser"]

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_COUNTEREXAMPLE = 2
EXIT_EXHAUSTED = 3


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse would sys.exit(2); remap to exit 1
        raise UsageError(f"{self.prog}: {message}\n{self.format_usage()}")


def _parse_speeds(text: str) -> list[int]:
    try:
        return [int(part) for part in text.split(",") if part.strip() != ""]
    except ValueError:
        raise UsageError(f"cannot parse speed list {text!r}; expected e.g. 1,2,3")


def _parse_rational(text: str) -> Fraction:
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError):
        raise UsageError(f"cannot parse rational {text!r}; expected p/q")


def _parse_slope(text: str) -> QuadExt:
    """Slope syntax: ``p/q`` for a rational, ``sqrt3*p/q`` for a sqrt(3)
    multiple."""
    text = text.strip()
    if text.startswith("sqrt3*"):
        return QuadExt(0, _parse_rational(text[len("sqrt3*") :]))
    if text == "sqrt3":
        return QuadExt(0, 1)
    return QuadExt(_parse_rational(text))


@functools.cache
def build_parser() -> _Parser:
    """The argparse tree, built once per process and shared by every call."""
    parser = _Parser(prog="lrc", description=__doc__)
    sub = parser.add_subparsers(dest="subcommand", metavar="SUBCOMMAND")

    json_flag = dict(metavar="PATH", help="write the JSON document here instead of stdout")

    p = sub.add_parser("gap", help="exact gap certificate for a speed set")
    p.add_argument("--speeds", required=True, help="comma-separated speeds, e.g. 1,2,3")
    p.add_argument(
        "--grid",
        type=int,
        nargs="?",
        const=0,
        help="also run the grid oracle cross-check (resolution N; omit N for the default)",
    )
    p.add_argument("--json", **json_flag)

    p = sub.add_parser("lonely", help="loneliest time for one runner")
    p.add_argument("--speeds", required=True, help="runner speeds (may include 0)")
    p.add_argument("--focus", type=int, required=True, help="index of the focus runner")
    p.add_argument("--json", **json_flag)

    p = sub.add_parser("verify", help="exhaustive sweep of the gap bound 1/(k+1)")
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--max-speed", type=int, required=True)
    p.add_argument("--jobs", type=int, default=1)
    p.add_argument("--json", **json_flag)

    p = sub.add_parser("kappa", help="per-instance bound sandwich 1/(2k) .. 1/(k+1)")
    p.add_argument("--speeds", required=True)
    p.add_argument("--json", **json_flag)

    p = sub.add_parser("obstruct", help="minimal cube scale for a ray direction")
    p.add_argument("--direction", required=True, help="comma-separated coordinates")
    p.add_argument("--alpha", help="scale to test for a concrete witness, e.g. 1/3")
    p.add_argument("--json", **json_flag)

    p = sub.add_parser("kscan", help="supremum of minimal scales over a direction box")
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--max-coord", type=int, required=True)
    p.add_argument("--jobs", type=int, default=1)
    p.add_argument("--json", **json_flag)

    p = sub.add_parser("billiard", help="square-table path and minimal obstacle")
    p.add_argument("--slope", required=True, help="rational slope p/q")
    p.add_argument("--alpha", help="obstacle scale to classify contact against")
    p.add_argument("--segments", type=int, default=12)
    p.add_argument("--json", **json_flag)

    p = sub.add_parser("triangle", help="triangle-table obstruction and path")
    p.add_argument("--slope", required=True, help="p/q or sqrt3*p/q, inside (0, sqrt3)")
    p.add_argument("--alpha", help="obstacle scale to test along the walk")
    p.add_argument("--horizon", type=int, default=10_000, help="cells to walk")
    p.add_argument("--strikes", type=int, help="also fold this many path segments")
    p.add_argument(
        "--min-obstacle",
        action="store_true",
        help="bisect for the minimal obstructing scale within the horizon",
    )
    p.add_argument("--tolerance", default="1/1024", help="bracket width for --min-obstacle")
    p.add_argument("--json", **json_flag)

    p = sub.add_parser("invisible", help="drop d runners to certify a larger gap")
    p.add_argument("--speeds", required=True)
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--prime-budget", type=int, default=100_000)
    p.add_argument("--json", **json_flag)

    p = sub.add_parser("conj34", help="residue witness (n, x, m) for a speed set")
    p.add_argument("--speeds", required=True)
    p.add_argument("--json", **json_flag)

    p = sub.add_parser("check", help="re-validate a certificate document")
    p.add_argument("path", help="JSON document path, or - for stdin")
    p.add_argument("--json", **json_flag)

    p = sub.add_parser("render", help="render a figure as SVG")
    p.add_argument("--scene", required=True, choices=render.SCENES)
    p.add_argument("--alpha", help="obstacle scale")
    p.add_argument("--slope", help="path slope (billiard scenes)")
    p.add_argument("--rays", help="comma-separated ray slopes (obstruction scenes)")
    p.add_argument("--extent", type=int, help="drawn extent in cells")
    p.add_argument("--segments", type=int, help="square path segments")
    p.add_argument("--strikes", type=int, help="triangle path strikes")
    p.add_argument("--svg", metavar="PATH", help="write SVG here instead of stdout")

    return parser


def _emit(doc: certificates.CertificateDocument, args, out) -> None:
    text = certificates.serialize(doc)
    target = getattr(args, "json", None)
    if target:
        with open(target, "w", encoding="utf-8") as handle:
            handle.write(text)
    else:
        out.write(text)


def _cmd_gap(args, out) -> int:
    speeds = SpeedSet(_parse_speeds(args.speeds))
    cert = gap.exact_gap(speeds)
    grid = None
    if args.grid is not None:
        resolution = args.grid if args.grid > 0 else 64 * speeds.max * len(speeds)
        grid = (resolution, gap.gap_grid_oracle(speeds, resolution))
    _emit(certificates.gap_document(cert, grid), args, out)
    return EXIT_OK


def _cmd_lonely(args, out) -> int:
    report = gap.lonely_time(_parse_speeds(args.speeds), args.focus)
    _emit(certificates.lonely_document(report), args, out)
    return EXIT_OK


def _cmd_verify(args, out) -> int:
    report = gap.verify_lrc(args.k, args.max_speed, jobs=args.jobs)
    _emit(certificates.verify_document(report), args, out)
    return EXIT_OK if report.holds else EXIT_COUNTEREXAMPLE


def _cmd_kappa(args, out) -> int:
    speeds = SpeedSet(_parse_speeds(args.speeds))
    cert = gap.exact_gap(speeds)
    lower, upper, holds = gap.kappa_bounds(cert)
    _emit(certificates.kappa_document(speeds, lower, upper, cert.delta, holds), args, out)
    return EXIT_OK if holds else EXIT_COUNTEREXAMPLE


def _cmd_obstruct(args, out) -> int:
    direction = viewobstruct.Direction(_parse_speeds(args.direction))
    min_scale = viewobstruct.min_scale_for_direction(direction)
    alpha = None if args.alpha is None else _parse_rational(args.alpha)
    witness = None
    if alpha is not None:
        witness = viewobstruct.obstruction_witness(direction, alpha)
    _emit(certificates.obstruct_document(direction, alpha, min_scale, witness), args, out)
    return EXIT_OK


def _cmd_kscan(args, out) -> int:
    report = viewobstruct.kprime_scan(args.k, args.max_coord, jobs=args.jobs)
    _emit(certificates.kscan_document(report), args, out)
    return EXIT_OK


def _cmd_billiard(args, out) -> int:
    slope = _parse_rational(args.slope)
    path = billiards.square_path_segments(slope, args.segments)
    min_obstacle = billiards.square_min_obstacle(slope)
    alpha = None if args.alpha is None else _parse_rational(args.alpha)
    contact = None
    if alpha is not None:
        contact = billiards.square_obstacle_contact(path, alpha)
    _emit(certificates.billiard_document(path, min_obstacle, alpha, contact), args, out)
    return EXIT_OK


def _cmd_triangle(args, out) -> int:
    slope = _parse_slope(args.slope)
    alpha = None if args.alpha is None else _parse_rational(args.alpha)
    hit = None
    if alpha is not None:
        hit = billiards.triangle_obstruction_check(slope, alpha, args.horizon)
    path = None
    if args.strikes is not None:
        path = billiards.triangle_path_segments(slope, args.strikes)
    bracket = None
    if args.min_obstacle:
        tolerance = _parse_rational(args.tolerance)
        lo, hi = billiards.triangle_min_obstacle(slope, args.horizon, tolerance)
        bracket = (lo, hi, tolerance)
    _emit(
        certificates.triangle_document(slope, alpha, args.horizon, hit, path, bracket),
        args,
        out,
    )
    if alpha is not None and hit is None:
        return EXIT_EXHAUSTED  # no hit within the horizon: unsettled
    return EXIT_OK


def _cmd_invisible(args, out) -> int:
    speeds = SpeedSet(_parse_speeds(args.speeds))
    cert = fieldsearch.invisible_subset(speeds, args.d, prime_budget=args.prime_budget)
    _emit(certificates.invisible_document(cert, args.prime_budget), args, out)
    return EXIT_OK


def _cmd_conj34(args, out) -> int:
    speeds = SpeedSet(_parse_speeds(args.speeds))
    witness = fieldsearch.conj34_witness(speeds)
    if witness is None:
        doc = certificates.CertificateDocument(
            command="conj34",
            inputs={"speeds": list(speeds)},
            result={"refuted": True},
        )
        _emit(doc, args, out)
        return EXIT_COUNTEREXAMPLE
    _emit(certificates.conj34_document(speeds, witness), args, out)
    return EXIT_OK


def _cmd_check(args, out) -> int:
    if args.path == "-":
        text = sys.stdin.read()
    else:
        try:
            with open(args.path, "r", encoding="utf-8") as handle:
                text = handle.read()
        except OSError as exc:
            raise UsageError(f"cannot read {args.path}: {exc}")
    try:
        doc = certificates.parse(text)
    except ValueError as exc:
        raise UsageError(str(exc))
    issues = certificates.validate_document(doc)
    report = certificates.CertificateDocument(
        command="check",
        inputs={"target_command": doc.command},
        result={"valid": not issues, "issues": issues},
    )
    _emit(report, args, out)
    return EXIT_OK if not issues else EXIT_COUNTEREXAMPLE


_DEFAULT_TILING_RAYS = "sqrt3*1/5,sqrt3*1/8,sqrt3*1/11"


def _cmd_render(args, out) -> int:
    params: dict = {}
    if args.scene == "obstruction2d":
        params["alpha"] = _parse_rational(args.alpha if args.alpha else "1/3")
        rays = args.rays if args.rays else "2,1/2,1/5"
        params["rays"] = [_parse_rational(r) for r in rays.split(",")]
        if args.extent:
            params["extent"] = args.extent
    elif args.scene == "square_billiard":
        if not args.slope:
            raise UsageError("square_billiard needs --slope")
        params["slope"] = _parse_rational(args.slope)
        if args.alpha:
            params["alpha"] = _parse_rational(args.alpha)
        if args.segments:
            params["segments"] = args.segments
    elif args.scene == "triangle_billiard":
        if not args.slope:
            raise UsageError("triangle_billiard needs --slope")
        params["slope"] = _parse_slope(args.slope)
        if args.alpha:
            params["alpha"] = _parse_rational(args.alpha)
        if args.strikes:
            params["strikes"] = args.strikes
    elif args.scene == "triangle_tiling":
        params["alpha"] = _parse_rational(args.alpha if args.alpha else "1/4")
        rays = args.rays if args.rays else _DEFAULT_TILING_RAYS
        params["rays"] = [_parse_slope(r) for r in rays.split(",")]
        if args.extent:
            params["extent"] = args.extent
    text = render.render_svg(args.scene, **params)
    if args.svg:
        with open(args.svg, "w", encoding="utf-8") as handle:
            handle.write(text)
    else:
        out.write(text)
    return EXIT_OK


_COMMANDS = {
    "gap": _cmd_gap,
    "lonely": _cmd_lonely,
    "verify": _cmd_verify,
    "kappa": _cmd_kappa,
    "obstruct": _cmd_obstruct,
    "kscan": _cmd_kscan,
    "billiard": _cmd_billiard,
    "triangle": _cmd_triangle,
    "invisible": _cmd_invisible,
    "conj34": _cmd_conj34,
    "check": _cmd_check,
    "render": _cmd_render,
}


def run(argv: Sequence[str], out=None, err=None) -> int:
    """Dispatch one CLI invocation; returns the exit code."""
    out = sys.stdout if out is None else out
    err = sys.stderr if err is None else err
    parser = build_parser()
    try:
        args = parser.parse_args(list(argv))
        if args.subcommand is None:
            raise UsageError(parser.format_usage())
        handler = _COMMANDS[args.subcommand]
        return handler(args, out)
    except UsageError as exc:
        err.write(str(exc).rstrip() + "\n")
        return EXIT_USAGE
    except fieldsearch.PrimeBudgetExhausted as exc:
        err.write(f"prime budget exhausted: {exc}\n")
        return EXIT_EXHAUSTED
    except ArithmeticError as exc:
        # A violated bound is a mathematical counterexample, not bad usage.
        err.write(f"counterexample: {exc}\n")
        return EXIT_COUNTEREXAMPLE
    except ValueError as exc:
        err.write(f"error: {exc}\n")
        return EXIT_USAGE


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
