"""Command-line surface: one subcommand per problem formulation.

Each problem subcommand turns its flags into a document's ``inputs`` and
emits what ``certificates.produce`` builds from them, the same rule that
``check`` holds a document to.  JSON certificate documents go to stdout,
error messages to stderr, SVG to the path given by ``--svg`` (or stdout).
Exit codes: 0 success, 1 usage error, 2 mathematical counterexample found
(or an invalid certificate under ``check``), 3 prime-budget or horizon
exhaustion.
"""

from __future__ import annotations

import argparse
import functools
import os
import sys
from fractions import Fraction
from typing import NamedTuple, Sequence

from .arith import QuadExt
from . import billiards, certificates, fieldsearch, render

__all__ = ["run", "main", "build_parser"]

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_COUNTEREXAMPLE = 2
EXIT_EXHAUSTED = 3


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    plain: dict[str, "_Plain"]  # set on the top-level parser: each subparser's table

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


def _rational_input(text: str) -> dict[str, int]:
    return certificates.encode_rational(_parse_rational(text))


def _slope_input(text: str) -> dict:
    return certificates.encode_quadext(_parse_slope(text))


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
    p.add_argument(
        "--speeds", type=_parse_speeds, required=True, help="comma-separated speeds, e.g. 1,2,3"
    )
    p.add_argument(
        "--grid",
        type=int,
        nargs="?",
        const=0,
        help="also run the grid oracle cross-check (resolution N; omit N for the default)",
    )
    p.add_argument("--json", **json_flag)

    p = sub.add_parser("lonely", help="loneliest time for one runner")
    p.add_argument(
        "--speeds", type=_parse_speeds, required=True, help="runner speeds (may include 0)"
    )
    p.add_argument("--focus", type=int, required=True, help="index of the focus runner")
    p.add_argument("--json", **json_flag)

    p = sub.add_parser("verify", help="exhaustive sweep of the gap bound 1/(k+1)")
    p.add_argument("--k", type=int, required=True, help="number of speeds, 1 <= k <= 10")
    p.add_argument("--max-speed", type=int, required=True)
    p.add_argument("--json", **json_flag)

    p = sub.add_parser(
        "kappa",
        help="the lower bound 1/(2k) that every k-set meets, and 1/(k+1), the infimum over k-sets",
    )
    p.add_argument("--speeds", type=_parse_speeds, required=True)
    p.add_argument("--json", **json_flag)

    p = sub.add_parser("obstruct", help="minimal cube scale for a ray direction")
    p.add_argument(
        "--direction", type=_parse_speeds, required=True, help="comma-separated coordinates"
    )
    p.add_argument(
        "--alpha", type=_rational_input, help="scale to test for a concrete witness, e.g. 1/3"
    )
    p.add_argument("--json", **json_flag)

    p = sub.add_parser("kscan", help="supremum of minimal scales over a direction box")
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--max-coord", type=int, required=True)
    p.add_argument("--json", **json_flag)

    p = sub.add_parser("billiard", help="square-table path and minimal obstacle")
    p.add_argument("--slope", type=_rational_input, required=True, help="rational slope p/q")
    p.add_argument(
        "--alpha", type=_rational_input, help="obstacle scale to classify contact against"
    )
    p.add_argument("--segments", type=int, default=12)
    p.add_argument("--json", **json_flag)

    p = sub.add_parser("triangle", help="triangle-table obstruction and path")
    p.add_argument(
        "--slope", type=_slope_input, required=True, help="p/q or sqrt3*p/q, inside (0, sqrt3)"
    )
    p.add_argument("--alpha", type=_rational_input, help="obstacle scale to test along the walk")
    p.add_argument("--horizon", type=int, default=billiards._HORIZON, help="cells to walk")
    p.add_argument("--strikes", type=int, help="also fold this many path segments")
    p.add_argument(
        "--min-obstacle",
        dest="tolerance",
        metavar="TOL",
        type=_rational_input,
        nargs="?",
        const=certificates.encode_rational(billiards._TOLERANCE),
        help="bisect for the minimal obstructing scale within the horizon, to a "
        f"bracket width TOL (omit TOL for {billiards._TOLERANCE})",
    )
    p.add_argument("--json", **json_flag)

    p = sub.add_parser("invisible", help="drop d runners to certify a larger gap")
    p.add_argument("--speeds", type=_parse_speeds, required=True)
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--prime-budget", type=int, default=fieldsearch._PRIME_BUDGET)
    p.add_argument("--json", **json_flag)

    p = sub.add_parser("conj34", help="residue witness (n, x, m) for a speed set")
    p.add_argument("--speeds", type=_parse_speeds, required=True)
    p.add_argument("--json", **json_flag)

    p = sub.add_parser("check", help="re-validate a certificate document")
    p.add_argument("path", help="JSON document path, or - for stdin")
    p.add_argument("--json", **json_flag)

    p = sub.add_parser("render", help="render a figure as SVG")
    p.add_argument("--scene", required=True, choices=render.SCENES)
    p.add_argument("--alpha", type=_parse_rational, help="obstacle scale")
    p.add_argument("--slope", help="path slope (billiard scenes)")
    p.add_argument("--rays", help="comma-separated ray slopes (obstruction scenes)")
    p.add_argument("--extent", type=int, help="drawn extent in cells, at most 100")
    p.add_argument("--segments", type=int, help="square path segments")
    p.add_argument("--strikes", type=int, help="triangle path strikes")
    p.add_argument("--svg", metavar="PATH", help="write SVG here instead of stdout")

    parser.plain = {name: _Plain.of(command) for name, command in sub.choices.items()}
    return parser


class _Plain(NamedTuple):
    """What ``_read`` needs of one subparser, taken from its actions."""

    defaults: dict  # every dest and its default, in declaration order
    flags: dict  # each single-value flag's full spelling to its action
    positionals: tuple  # the positional actions, in order
    required: tuple  # the actions argparse requires

    @classmethod
    def of(cls, command: argparse.ArgumentParser) -> "_Plain":
        actions = command._actions
        return cls(
            defaults={
                a.dest: a.default
                for a in actions
                if a.dest is not argparse.SUPPRESS and a.default is not argparse.SUPPRESS
            },
            flags={flag: a for a in actions if a.nargs is None for flag in a.option_strings},
            positionals=tuple(a for a in actions if not a.option_strings),
            required=tuple(a for a in actions if a.required),
        )


def _emit(text: str, target, out) -> None:
    """``text`` to the file ``target`` if one is named, else to ``out``."""
    if not target:
        out.write(text)
        return
    try:
        with open(target, "w", encoding="utf-8") as handle:
            handle.write(text)
    except OSError as exc:
        raise UsageError(f"cannot write {target}: {exc}")


_NOT_INPUTS = ("subcommand", "json")


def _cmd_produce(args, out) -> int:
    """Flags to document-form inputs, the producer, and an exit code read
    from the document."""
    inputs = {key: value for key, value in vars(args).items() if key not in _NOT_INPUTS}
    doc = certificates.produce(args.subcommand, inputs)
    _emit(certificates.serialize(doc), args.json, out)
    result = doc.result
    if result.get("counterexamples") or result.get("refuted") or any(
        result.get(key) is False for key in ("holds", "matches_conjecture", "lonely")
    ):
        return EXIT_COUNTEREXAMPLE
    if doc.command == "triangle" and result["hit"] == {"found": False}:
        return EXIT_EXHAUSTED  # no hit within the horizon: unsettled
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
    _emit(certificates.serialize(report), args.json, out)
    return EXIT_OK if not issues else EXIT_COUNTEREXAMPLE


_NOT_PARAMS = ("subcommand", "scene", "svg")


def _cmd_render(args, out) -> int:
    """The flags that were given, parsed, to ``render.render_svg``, which
    binds them to the scene's drawing signature and its defaults."""
    params = {
        key: value
        for key, value in vars(args).items()
        if value is not None and key not in _NOT_PARAMS
    }
    parse_slope = _parse_slope if args.scene.startswith("triangle_") else _parse_rational
    if "slope" in params:
        params["slope"] = parse_slope(params["slope"])
    if "rays" in params:
        params["rays"] = [parse_slope(ray) for ray in params["rays"].split(",")]
    _emit(render.render_svg(args.scene, **params), args.svg, out)
    return EXIT_OK


_COMMANDS = {"check": _cmd_check, "render": _cmd_render}


def _read(argv: list[str]) -> argparse.Namespace | None:
    """The namespace of a plain argv (see ``_parse``), or None.  It holds
    ``subcommand``, then every dest at its default in declaration order, as
    argparse's does; each given value then goes through its action's
    ``type`` and ``choices``, in argv order."""
    plain = build_parser().plain.get(argv[0]) if argv else None
    if plain is None:
        return None
    given = {}
    positionals = iter(plain.positionals)
    i, n = 1, len(argv)
    while i < n:
        token = argv[i]
        if token.startswith("-") and token != "-":
            action = plain.flags.get(token)
            if action is None or action in given or i + 1 == n or argv[i + 1].startswith("-"):
                return None
            given[action] = argv[i + 1]
            i += 2
        else:
            action = next(positionals, None)
            if action is None:
                return None
            given[action] = token
            i += 1
    if any(action not in given for action in plain.required):
        return None
    args = argparse.Namespace(subcommand=argv[0], **plain.defaults)
    try:
        for action, text in given.items():
            value = text if action.type is None else action.type(text)
            if action.choices is not None and value not in action.choices:
                return None
            setattr(args, action.dest, value)
    except (ValueError, TypeError, argparse.ArgumentTypeError):
        return None
    return args


def _parse(argv: list[str]) -> argparse.Namespace:
    """The namespace ``build_parser().parse_args(argv)`` gives, with the same
    errors.  ``_read`` reads the plain form of argv without argparse: a
    subcommand, then its flags spelled in full, each once and each followed
    by one value that does not start with ``-``, and its positionals (``-``
    among them).  It declines any other argv, and the full parse reads it:
    help, abbreviated flags, ``--flag=value``, the flags whose value is
    optional (``--grid``, ``--min-obstacle``), a repeated flag, a value that
    starts with ``-``, ``--``, a missing or extra argument, a value outside
    ``choices``, and a ``ValueError``, ``TypeError`` or ``ArgumentTypeError``
    from a type.  So argparse alone gives help and every usage error; a
    ``UsageError`` from a type propagates from either, as the same text."""
    args = _read(argv)
    if args is None:
        parser = build_parser()
        args = parser.parse_args(argv)
        if args.subcommand is None:
            raise UsageError(parser.format_usage())
    return args


def run(argv: Sequence[str], out=None, err=None) -> int:
    """Dispatch one CLI invocation; returns the exit code."""
    out = sys.stdout if out is None else out
    err = sys.stderr if err is None else err
    try:
        args = _parse(list(argv))
        handler = _COMMANDS.get(args.subcommand, _cmd_produce)
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
    try:
        code = run(sys.argv[1:])
        sys.stdout.flush()
    except BrokenPipeError as exc:
        # The reader of stdout is gone: exit as for an unwritable --json
        # path, and point stdout at os.devnull so the flush at exit is quiet.
        sys.stderr.write(f"cannot write stdout: {exc}\n")
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        code = EXIT_USAGE
    sys.exit(code)


if __name__ == "__main__":
    main()
