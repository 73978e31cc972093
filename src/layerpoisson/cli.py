"""Command-line front end: solve, verify, tables, numcheck.

Output formats: plain canonical text, LaTeX, or JSON (set per-invocation
with --output or by default through LAYERPOISSON_OUTPUT).  Exit status: 0
on success (for solve/verify, a solution certified exact), 1 when the
solution is not certified, 2 for any input error, 3 for an internal fault.

``run()`` is the entry point of the ``layerpoisson`` script and of ``python
-m layerpoisson.cli``.  It calls ``main()`` and then ``gc.freeze()`` before it
exits, so that the interpreter's last full garbage collection at shutdown
skips every object the process holds: that collection only frees memory the
operating system takes back anyway, and it is a tenth of a short process.
Everything else about exiting stays as it is: atexit handlers, the flush of
stdout and stderr, and the output of a profiler that reports after the
module returns.  Library callers and tests call ``main()``, which never
freezes, as many times as they like in one process.
"""

from __future__ import annotations

import argparse
import gc
import os
import re
import sys
from fractions import Fraction

from . import dirichlet, mixed
from .parsing import PolyParseError, parse_poly
from .polyring import Poly, Ring, _json_text, to_latex, to_text
from .solver import LayerProblem, SolutionReport, solve, verify

OUTPUT_ENV_VAR = "LAYERPOISSON_OUTPUT"
FORMATS = ("plain", "latex", "json")


class UsageError(ValueError):
    pass


def _default_output() -> str:
    fmt = os.environ.get(OUTPUT_ENV_VAR) or "plain"
    if fmt not in FORMATS:
        raise UsageError(f"${OUTPUT_ENV_VAR} must be one of {', '.join(FORMATS)}, not {fmt!r}")
    return fmt


# problem field -> the flag that gives it when no --problem file is used
_FLAGS = {"n": "dim", "a": "width", "kind": "kind", "rhs": "rhs", "lower": "lower", "upper": "upper"}


def _problem_spec(args) -> dict:
    """The six problem fields, from the --problem file or from the flags."""
    if args.problem:
        import json  # here, not at the top: importing it costs a process about 1 ms

        try:
            with open(args.problem, encoding="utf-8") as fh:
                spec = json.load(fh)
        except ValueError as exc:  # not UTF-8, or not JSON
            raise UsageError(f"cannot read problem file: {exc}") from None
        if not isinstance(spec, dict):
            raise UsageError("problem file must hold a JSON object")
    else:
        spec = {field: getattr(args, flag) for field, flag in _FLAGS.items()}
    for field, flag in _FLAGS.items():
        if spec.get(field) is None:
            raise UsageError(f"problem file is missing field {field!r}" if args.problem
                             else f"--{flag} is required unless --problem is given")
    return spec


def _parse(field: str, expr, n: int) -> Poly:
    if not isinstance(expr, str):
        raise UsageError(f"{field} must be a string, not {type(expr).__name__}")
    try:
        return parse_poly(expr, n)
    except PolyParseError as exc:
        raise UsageError(f"cannot parse {field}: {exc}") from None


# an integer or p/q literal of the expression grammar, with an optional sign
_RATIONAL_RE = re.compile(r"\s*([-+]?\d+)(?:/(\d+))?\s*")


def _width(value) -> Fraction:
    """A JSON int, or a string holding an integer or p/q literal; never a float."""
    text = str(value)  # a float, bool, list or object never reads as a literal
    match = _RATIONAL_RE.fullmatch(text)
    try:
        if match:
            return Fraction(int(match[1]), int(match[2] or 1))
    except ZeroDivisionError:
        raise UsageError(f"width: zero denominator in {text!r}") from None
    except ValueError:  # more digits than int() takes
        pass
    raise UsageError(f"width: not a rational number: {text!r}")


def _dimension(value) -> int:
    """A JSON int, or a string holding an integer literal; never a float."""
    text = str(value)  # through str, so a JSON float is refused, not truncated
    match = _RATIONAL_RE.fullmatch(text)
    try:
        if match and match[2] is None:
            return int(match[1])
    except ValueError:  # more digits than int() takes
        pass
    raise UsageError(f"dimension: not an integer: {text!r}")


def _problem_from_args(args) -> LayerProblem:
    spec = _problem_spec(args)
    n = _dimension(spec["n"])
    try:
        return LayerProblem(
            n=n,
            a=_width(spec["a"]),
            kind=spec["kind"],
            rhs=_parse("rhs", spec["rhs"], n),
            lower=_parse("lower", spec["lower"], n),
            upper=_parse("upper", spec["upper"], n),
        )
    except (ValueError, TypeError, ZeroDivisionError) as exc:
        raise UsageError(str(exc)) from None


def _report_json(report: SolutionReport) -> str:
    """``json.dumps(report.to_json_dict(), indent=2)``, byte for byte."""
    fields = (("solution", report.u), ("residual_pde", report.residual_pde),
              ("residual_lower", report.residual_lower), ("residual_upper", report.residual_upper))
    polys = "".join(f'\n  "{key}": {_json_text(p, 1)},' for key, p in fields)
    return f'{{{polys}\n  "verified": {str(report.verified).lower()}\n}}'


def _print_report(report: SolutionReport, n: int, fmt: str) -> None:
    names = Ring(n).names
    if fmt == "json":
        print(_report_json(report))
        return
    render = to_latex if fmt == "latex" else to_text
    print(f"solution: {render(report.u, names)}")
    print(f"residual_pde: {render(report.residual_pde, names)}")
    print(f"residual_lower: {render(report.residual_lower, names)}")
    print(f"residual_upper: {render(report.residual_upper, names)}")
    print(f"verified: {str(report.verified).lower()}")


def _cmd_solve(args) -> int:
    problem = _problem_from_args(args)
    report = solve(problem)
    _print_report(report, problem.n, args.output)
    return 0 if report.verified else 1


def _cmd_verify(args) -> int:
    problem = _problem_from_args(args)
    u = _parse("solution", args.solution, problem.n)
    report = verify(u, problem)
    _print_report(report, problem.n, args.output)
    return 0 if report.verified else 1


_FAMILIES = {
    "f": dirichlet.f_poly,
    "p": mixed.p_poly,
    "q": mixed.q_poly,
}


def _cmd_tables(args) -> int:
    if args.max_m < 0:
        raise UsageError("--max-m must be non-negative")
    gen = _FAMILIES[args.family]
    names = Ring(0, formal_a=True).names
    entries = [(m, gen(m)) for m in range(args.max_m + 1)]
    if args.output == "json":
        import json

        payload = [
            {"m": m, "poly": p.to_json_dict(), "text": to_text(p, names)}
            for m, p in entries
        ]
        print(json.dumps(payload, indent=2))
    elif args.output == "latex":
        for m, p in entries:
            print(f"{args.family}_{{{2 * m}}}(y) = {to_latex(p, names)}")
    else:
        for m, p in entries:
            print(f"{args.family}{2 * m}(y) = {to_text(p, names)}")
    return 0


def _cmd_numcheck(args) -> int:
    # numpy and scipy take most of a second to import; only the checks need
    # them, and they are an optional extra
    from . import numcheck

    try:
        results = numcheck.run_all_checks()
    except ModuleNotFoundError as exc:
        if (exc.name or "").partition(".")[0] not in ("numpy", "scipy"):
            raise
        raise UsageError(f"numcheck needs numpy and scipy (the 'numcheck' extra): {exc}") from None
    if args.output == "json":
        import json

        print(json.dumps([r.to_json_dict() for r in results], indent=2))
    else:
        for r in results:
            status = "pass" if r.passed else "FAIL"
            print(f"{status}  {r.name:<42} error={r.error:.3e} tol={r.tolerance:.1e}")
        n_fail = sum(not r.passed for r in results)
        print(f"{len(results) - n_fail}/{len(results)} checks passed")
    return 0 if all(r.passed for r in results) else 1


def _add_problem_args(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--problem", help="JSON problem file (overrides the flags below)")
    sub.add_argument("--dim", help="spatial dimension n")
    sub.add_argument("--width", help="layer width a, rational like 1 or 7/3")
    sub.add_argument("--kind", choices=("dirichlet", "mixed"))
    sub.add_argument("--rhs", help="right-hand side polynomial in x1..xn, y")
    sub.add_argument("--lower", help="boundary value at y=0 (no y)")
    sub.add_argument("--upper", help="value (dirichlet) or y-derivative (mixed) at y=a")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="layerpoisson",
        description="Exact polynomial solver for the Poisson equation in a layer.",
    )
    # one dest for both positions: SUPPRESS leaves it unset where it is not
    # given, so the flag after the subcommand wins over the one before it
    output = dict(
        choices=FORMATS,
        default=argparse.SUPPRESS,
        help=f"output format (default from ${OUTPUT_ENV_VAR}, else plain)",
    )
    parser.add_argument("--output", **output)
    fmt_parent = argparse.ArgumentParser(add_help=False)
    fmt_parent.add_argument("--output", **output)
    subs = parser.add_subparsers(dest="command", required=True)

    sub = subs.add_parser(
        "solve", parents=[fmt_parent], help="solve a layer problem and certify the result"
    )
    _add_problem_args(sub)
    sub.set_defaults(func=_cmd_solve)

    sub = subs.add_parser("verify", parents=[fmt_parent], help="check a candidate solution exactly")
    _add_problem_args(sub)
    sub.add_argument("--solution", required=True, help="candidate solution polynomial")
    sub.set_defaults(func=_cmd_verify)

    sub = subs.add_parser("tables", parents=[fmt_parent], help="dump a polynomial family with symbolic width")
    sub.add_argument("--family", choices=tuple(_FAMILIES), required=True)
    sub.add_argument("--max-m", type=int, default=5)
    sub.set_defaults(func=_cmd_tables)

    sub = subs.add_parser("numcheck", parents=[fmt_parent], help="run the numeric cross-check battery")
    sub.set_defaults(func=_cmd_numcheck)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if "output" not in args:
            args.output = _default_output()
        return args.func(args)
    except (UsageError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # a fault of the program, not of its input
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 3


def run() -> None:
    """``sys.exit(main())``, with every object frozen first so that shutdown's collection skips it."""
    try:
        code = main()
    finally:  # argparse's SystemExit, for --help and usage errors, exits here too
        gc.freeze()
    sys.exit(code)


if __name__ == "__main__":
    run()
