import gc
import json
import os
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import pytest

from layerpoisson import cli
from layerpoisson.cli import main
from layerpoisson.parsing import MAX_NESTING, parse_poly
from layerpoisson.polyring import MAX_DIMENSION
from layerpoisson.solver import LayerProblem, solve, verify

from conftest import P


EXAMPLE_1_ARGS = [
    "solve", "--dim", "1", "--width", "1", "--kind", "dirichlet",
    "--rhs", "x^4*y^3", "--lower", "8*x^4-8*x^2+1", "--upper", "8*x^4-8*x^2+1",
]


def test_solve_example_1_plain(capsys):
    assert main(EXAMPLE_1_ARGS) == 0
    out = capsys.readouterr().out
    assert "verified: true" in out
    assert "1/2520*y^9" in out
    assert "residual_pde: 0" in out


def test_solve_example_1_json(capsys):
    assert main(["--output", "json"] + EXAMPLE_1_ARGS) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["verified"] is True
    got = {tuple(t["exp"]): t["coeff"] for t in report["solution"]["terms"]}
    assert got[(0, 9)] == "1/2520"
    assert got[(2, 2)] == "-48"
    # canonical graded-lex ordering of the serialized terms
    exps = [tuple(t["exp"]) for t in report["solution"]["terms"]]
    assert exps == sorted(exps, key=lambda e: (sum(e), e), reverse=True)


def test_solve_problem_file(tmp_path, capsys):
    spec = {
        "n": 3,
        "a": "1",
        "kind": "mixed",
        "rhs": "x1^3*x2^2*x3*y^3",
        "lower": "0",
        "upper": "0",
    }
    path = tmp_path / "problem.json"
    path.write_text(json.dumps(spec))
    assert main(["solve", "--problem", str(path)]) == 0
    assert "323/280" in capsys.readouterr().out


def test_solve_zero_width_is_usage_error(capsys):
    args = list(EXAMPLE_1_ARGS)
    args[args.index("--width") + 1] = "0"
    assert main(args) == 2
    assert "width" in capsys.readouterr().err


def test_solve_missing_flag_is_usage_error(capsys):
    assert main(["solve", "--dim", "1"]) == 2
    assert "required" in capsys.readouterr().err


def test_solve_rejects_y_in_boundary(capsys):
    args = list(EXAMPLE_1_ARGS)
    args[args.index("--lower") + 1] = "y^2"
    assert main(args) == 2


def test_verify_good_and_bad(capsys):
    base = [
        "verify", "--dim", "1", "--width", "1", "--kind", "dirichlet",
        "--rhs", "0", "--lower", "x^2", "--upper", "x^2",
    ]
    assert main(base + ["--solution", "x^2-y^2+y"]) == 0
    assert main(base + ["--solution", "x^2-y^2"]) == 1
    out = capsys.readouterr().out
    assert "verified: false" in out


def test_tables_plain(capsys):
    assert main(["tables", "--family", "q", "--max-m", "3"]) == 0
    out = capsys.readouterr().out
    assert "q0(y) = y" in out
    assert "q6(y) = -1/7*y^7 + 3*y^5*a^2 - 25*y^3*a^4 + 61*y*a^6" in out


def test_tables_latex(capsys):
    assert main(["--output", "latex", "tables", "--family", "f", "--max-m", "2"]) == 0
    out = capsys.readouterr().out
    assert "f_{0}(y) = ya^{-1}" in out
    assert "\\frac" in out


def test_tables_json_round_trip(capsys):
    assert main(["--output", "json", "tables", "--family", "p", "--max-m", "4"]) == 0
    payload = json.loads(capsys.readouterr().out)
    from layerpoisson.polyring import Poly

    assert [entry["m"] for entry in payload] == [0, 1, 2, 3, 4]
    p4 = Poly.from_json_dict(payload[2]["poly"])
    assert p4 == P("y^4 - 4*a*y^3 + 8*a^3*y", ("y", "a"))


def test_output_env_default(capsys, monkeypatch):
    monkeypatch.setenv("LAYERPOISSON_OUTPUT", "json")
    assert main(["tables", "--family", "f", "--max-m", "0"]) == 0
    json.loads(capsys.readouterr().out)


def test_round_trip_parse_render(capsys):
    # render with the CLI then re-parse: fixed point on a golden solution
    from layerpoisson.parsing import parse_poly
    from layerpoisson.polyring import to_text, Ring

    assert main(EXAMPLE_1_ARGS) == 0
    line = capsys.readouterr().out.splitlines()[0]
    text = line.removeprefix("solution: ")
    p = parse_poly(text, 1)
    assert to_text(p, Ring(1).names) == text


def test_tables_negative_max_m_is_usage_error(capsys):
    assert main(["tables", "--family", "f", "--max-m", "-1"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.strip() == "error: --max-m must be non-negative"


def test_cli_import_skips_numeric_stack():
    # numpy and scipy belong to the numcheck command alone
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    code = (
        "import sys, layerpoisson.cli; "
        "print(sorted(m for m in ('numpy', 'scipy') if m in sys.modules))"
    )
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True, timeout=60).stdout
    assert out.strip() == "[]"


def test_cli_import_skips_dataclasses_and_inspect():
    # each costs more at start-up than the package; -S keeps site hooks from loading them
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=src)
    code = (
        "import sys, layerpoisson.cli; "
        "print(sorted(m for m in ('dataclasses', 'inspect') if m in sys.modules))"
    )
    out = subprocess.run([sys.executable, "-S", "-c", code], env=env, capture_output=True,
                         text=True, check=True, timeout=60).stdout
    assert out.strip() == "[]"


PROBLEM_SPEC = {"n": 1, "a": "1", "kind": "dirichlet", "rhs": "x^2", "lower": "0", "upper": "0"}


def _problem_file(tmp_path, data) -> str:
    path = tmp_path / "problem.json"
    path.write_bytes(data if isinstance(data, bytes) else json.dumps(data).encode())
    return str(path)


@pytest.mark.parametrize("make_argv", [
    lambda tmp: ["solve", "--dim", "0", "--width", "1", "--kind", "dirichlet",
                 "--rhs", "x^2", "--lower", "0", "--upper", "0"],
    lambda tmp: ["solve", "--problem", _problem_file(tmp, [PROBLEM_SPEC])],
    lambda tmp: ["solve", "--problem", _problem_file(tmp, {**PROBLEM_SPEC, "n": "abc"})],
    lambda tmp: ["solve", "--problem", _problem_file(tmp, {**PROBLEM_SPEC, "rhs": 0})],
    lambda tmp: ["solve", "--problem", _problem_file(
        tmp, {k: v for k, v in PROBLEM_SPEC.items() if k != "upper"})],
    lambda tmp: ["solve", "--problem", _problem_file(tmp, b"\xff{")],
], ids=["dim-0", "json-array", "n-not-a-number", "rhs-not-a-string", "missing-upper", "not-utf8"])
def test_bad_problem_is_one_line_usage_error(make_argv, tmp_path, capsys):
    assert main(make_argv(tmp_path)) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1


def test_problem_file_accepts_numbers_as_strings(tmp_path, capsys):
    spec = {**PROBLEM_SPEC, "n": "3", "a": "7/3", "rhs": "x1*x2*y"}
    assert main(["solve", "--problem", _problem_file(tmp_path, spec)]) == 0
    assert "verified: true" in capsys.readouterr().out


def test_output_flag_after_subcommand_wins(capsys):
    tables = ["tables", "--family", "f", "--max-m", "0"]
    assert main(["--output", "json"] + tables) == 0
    json.loads(capsys.readouterr().out)
    assert main(tables + ["--output", "latex"]) == 0
    assert capsys.readouterr().out == "f_{0}(y) = ya^{-1}\n"
    assert main(["--output", "json"] + tables + ["--output", "plain"]) == 0
    assert capsys.readouterr().out == "f0(y) = y*a^-1\n"


def test_invalid_output_env_is_usage_error(capsys, monkeypatch):
    monkeypatch.setenv("LAYERPOISSON_OUTPUT", "xml")
    tables = ["tables", "--family", "f", "--max-m", "0"]
    assert main(tables) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
    assert "LAYERPOISSON_OUTPUT" in captured.err
    # an explicit --output does not read the variable
    assert main(tables + ["--output", "plain"]) == 0
    assert capsys.readouterr().out == "f0(y) = y*a^-1\n"


@pytest.mark.parametrize("make_argv", [
    lambda tmp: ["solve", "--dim", "1", "--width", "1/0", "--kind", "dirichlet",
                 "--rhs", "x^2", "--lower", "0", "--upper", "0"],
    lambda tmp: ["solve", "--problem", _problem_file(tmp, {**PROBLEM_SPEC, "a": "1/0"})],
], ids=["flag", "problem-file"])
def test_zero_denominator_width_names_the_width(make_argv, tmp_path, capsys):
    assert main(make_argv(tmp_path)) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: width: zero denominator in '1/0'\n"


def test_internal_fault_is_one_line_with_exit_3(monkeypatch, capsys):
    # exit 1 means "not certified" and 2 a bad input, so a fault of the program has its own code
    def broken_solve(problem):
        raise AssertionError("residual is not zero")

    monkeypatch.setattr(cli, "solve", broken_solve)
    assert main(EXAMPLE_1_ARGS) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "internal error: AssertionError: residual is not zero\n"


def test_overlong_integer_literal_is_one_line_usage_error(capsys):
    args = list(EXAMPLE_1_ARGS)
    args[args.index("--rhs") + 1] = "9" * 5000
    assert main(args) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: cannot parse rhs: integer literal too long (at position 0)\n"


@pytest.mark.skipif(getattr(sys, "get_int_max_str_digits", int)() != 4300,
                    reason="the inputs are sized for the default limit of 4300 digits")
@pytest.mark.parametrize("flag, text, error", [
    ("--rhs", "10^5000", "rhs: power has more than 4300 digits (at position 2)"),
    ("--rhs", "(10^2000)^3*x", "rhs: power has more than 4300 digits (at position 9)"),
    ("--rhs", "10^2000*10^2000*10^2000*x", "rhs: coefficient has more than 4300 digits (at position 0)"),
    ("--solution", "(10^2000)^3*x", "solution: power has more than 4300 digits (at position 9)"),
], ids=["power", "power-of-a-group", "product", "verify"])
def test_number_past_the_digit_limit_is_one_line_usage_error(flag, text, error, capsys):
    # printing such a number raises ValueError, an internal error with exit 3, so the
    # parser refuses it as bad input
    args = list(EXAMPLE_1_ARGS)
    if flag == "--solution":
        args[0] = "verify"
        args += [flag, text]
    else:
        args[args.index(flag) + 1] = text
    assert main(args) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: cannot parse " + error + "\n"


def test_deeply_nested_parentheses_are_one_line_usage_error(capsys):
    args = list(EXAMPLE_1_ARGS)
    args[args.index("--rhs") + 1] = "(" * 400 + "x" + ")" * 400
    assert main(args) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    # the first "(" past the limit is the one at index MAX_NESTING
    assert captured.err == (
        f"error: cannot parse rhs: expression nested too deeply (at position {MAX_NESTING})\n")


@pytest.mark.parametrize("make_argv, text", [
    (lambda tmp: ["solve", "--problem", _problem_file(tmp, {**PROBLEM_SPEC, "a": 0.1})], "0.1"),
    (lambda tmp: ["solve", "--problem", _problem_file(tmp, {**PROBLEM_SPEC, "a": 0.5})], "0.5"),
    (lambda tmp: ["solve", "--problem", _problem_file(tmp, {**PROBLEM_SPEC, "a": True})], "True"),
    (lambda tmp: ["solve", "--problem", _problem_file(tmp, {**PROBLEM_SPEC, "a": "1/2.0"})],
     "1/2.0"),
    (lambda tmp: ["solve", "--dim", "1", "--width", "2.5e-1", "--kind", "dirichlet",
                  "--rhs", "x^2", "--lower", "0", "--upper", "0"], "2.5e-1"),
    (lambda tmp: ["solve", "--dim", "1", "--width", "0.5", "--kind", "dirichlet",
                  "--rhs", "x^2", "--lower", "0", "--upper", "0"], "0.5"),
    (lambda tmp: ["solve", "--dim", "1", "--width", "1_0", "--kind", "dirichlet",
                  "--rhs", "x^2", "--lower", "0", "--upper", "0"], "1_0"),
    (lambda tmp: ["solve", "--dim", "1", "--width", "1/" + "9" * 5000, "--kind", "dirichlet",
                  "--rhs", "x^2", "--lower", "0", "--upper", "0"], "1/" + "9" * 5000),
], ids=["json-float", "json-float-half", "json-bool", "float-denominator", "flag-exponent",
        "flag-decimal", "flag-underscore", "flag-too-long"])
def test_width_that_is_not_a_rational_literal_is_refused(make_argv, text, tmp_path, capsys):
    assert main(make_argv(tmp_path)) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: width: not a rational number: {text!r}\n"


@pytest.mark.parametrize("a, width", [(2, "2"), ("7/3", "7/3"), (" 1/2 ", "1/2")])
def test_width_accepts_json_ints_and_rational_strings(a, width, tmp_path, capsys):
    spec = {**PROBLEM_SPEC, "a": a, "rhs": "0", "lower": "x", "upper": "x + 1"}
    assert main(["solve", "--problem", _problem_file(tmp_path, spec)]) == 0
    # u = x + y/a solves the problem, so the width shows in the solution
    assert capsys.readouterr().out.startswith(f"solution: x1 + {1 / Fraction(width)}*y\n")


@pytest.mark.parametrize("n, text", [(3.0, "3.0"), ("abc", "abc"), (True, "True")])
def test_dimension_that_is_not_an_integer_names_the_field(n, text, tmp_path, capsys):
    assert main(["solve", "--problem", _problem_file(tmp_path, {**PROBLEM_SPEC, "n": n})]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: dimension: not an integer: {text!r}\n"


def _solve_with_dim(dim):
    return ["solve", "--dim", dim, "--width", "1", "--kind", "dirichlet",
            "--rhs", "x^2", "--lower", "0", "--upper", "0"]


@pytest.mark.parametrize("make_argv, text", [
    (lambda tmp: _solve_with_dim("3.0"), "3.0"),
    (lambda tmp: _solve_with_dim("1_0"), "1_0"),
    (lambda tmp: _solve_with_dim("9" * 5000), "9" * 5000),
    (lambda tmp: _solve_with_dim("1/1"), "1/1"),
    (lambda tmp: ["solve", "--problem", _problem_file(tmp, {**PROBLEM_SPEC, "n": "1_0"})], "1_0"),
], ids=["flag-decimal", "flag-underscore", "flag-too-long", "flag-ratio", "json-underscore"])
def test_dimension_flag_and_file_refuse_the_same_literals(make_argv, text, tmp_path, capsys):
    assert main(make_argv(tmp_path)) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: dimension: not an integer: {text!r}\n"


@pytest.mark.parametrize("dim", ["1", " 1 ", "+1"])
def test_dimension_flag_accepts_an_integer_literal(dim, capsys):
    assert main(_solve_with_dim(dim)) == 0
    assert capsys.readouterr().out.startswith("solution: ")


def test_numcheck_without_numpy_is_one_error_line():
    # numpy and scipy are the optional 'numcheck' extra, so their absence is an input error
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=src)
    code = (
        "import sys; sys.modules['numpy'] = None; "
        "from layerpoisson.cli import main; sys.exit(main(['numcheck']))"
    )
    cp = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                        text=True, timeout=60)
    assert cp.returncode == 2
    assert cp.stdout == ""
    lines = cp.stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: numcheck needs numpy and scipy")


def test_dimension_past_the_bound_is_one_line_usage_error(capsys):
    start = time.perf_counter()
    assert main(_solve_with_dim("1" + "0" * 19)) == 2
    assert time.perf_counter() - start < 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: spatial dimension must be at most {MAX_DIMENSION}\n"


def test_solution_coefficient_past_the_digit_limit_prints(capsys):
    # the data fits the limit, but u = (y^2 - y) / (2*(10^digits - 1)) has a
    # denominator of digits + 1 digits
    digits = getattr(sys, "get_int_max_str_digits", int)() or 4300
    args = ["solve", "--dim", "1", "--width", "1", "--kind", "dirichlet",
            "--rhs", "1/" + "9" * digits, "--lower", "0", "--upper", "0"]
    den = "1" + "9" * (digits - 1) + "8"
    assert main(args) == 0
    assert capsys.readouterr().out == (
        f"solution: 1/{den}*y^2 - 1/{den}*y\nresidual_pde: 0\nresidual_lower: 0\n"
        "residual_upper: 0\nverified: true\n")
    assert main(["--output", "json"] + args) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["verified"] is True
    assert [t["coeff"] for t in report["solution"]["terms"]] == [f"1/{den}", f"-1/{den}"]


def _library_report(args):
    """The report the library gives for a solve or verify argument list, and the problem."""
    flags = dict(zip(args[1::2], args[2::2]))
    n = int(flags["--dim"])
    problem = LayerProblem(n=n, a=Fraction(flags["--width"]), kind=flags["--kind"],
                           rhs=parse_poly(flags["--rhs"], n), lower=parse_poly(flags["--lower"], n),
                           upper=parse_poly(flags["--upper"], n))
    if args[0] == "verify":
        return verify(parse_poly(flags["--solution"], n), problem)
    return solve(problem)


_EX23 = ["--dim", "3", "--width", "1", "--rhs", "x1^3*x2^2*x3*y^3", "--lower", "0", "--upper", "0"]
_NINES = "9" * (getattr(sys, "get_int_max_str_digits", int)() or 4300)


@pytest.mark.parametrize("args", [
    EXAMPLE_1_ARGS,
    ["solve", "--kind", "dirichlet"] + _EX23,
    ["solve", "--kind", "mixed"] + _EX23,
    ["solve", "--dim", "2", "--width", "7/3", "--kind", "mixed", "--rhs", "x1^3*x2*y^2 - 5/3*y^4",
     "--lower", "x1^2 - 2/7*x2", "--upper", "1/9*x1*x2^3"],
    ["verify", "--dim", "1", "--width", "1", "--kind", "dirichlet",
     "--rhs", "0", "--lower", "x^2", "--upper", "x^2", "--solution", "x^2-y^2 + 1/3*x*y^4"],
    ["solve", "--dim", "1", "--width", "1", "--kind", "dirichlet",
     "--rhs", "1/" + _NINES, "--lower", "0", "--upper", "0"],
], ids=["example-1", "example-2", "example-3", "mixed-width-7/3", "wrong-candidate", "nines"])
def test_json_output_is_json_dumps_of_the_report(args, capsys):
    report = _library_report(args)
    assert main(["--output", "json"] + args) == (0 if report.verified else 1)
    assert capsys.readouterr().out == json.dumps(report.to_json_dict(), indent=2) + "\n"


def test_flags_solve_does_not_import_json():
    # json is read only for a --problem file and written by json.dumps only for
    # tables and numcheck; -S keeps site hooks from loading it
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=src)
    code = "\n".join([
        "import contextlib, io, sys",
        "from layerpoisson.cli import main",
        f"args = {EXAMPLE_1_ARGS!r}",
        "with contextlib.redirect_stdout(io.StringIO()):",
        "    codes = [main(fmt + args) for fmt in ([], ['--output', 'json'], ['--output', 'latex'])]",
        "print(codes, 'json' in sys.modules)",
    ])
    out = subprocess.run([sys.executable, "-S", "-c", code], env=env, capture_output=True,
                         text=True, check=True, timeout=60).stdout
    assert out.strip() == "[0, 0, 0] False"


def _argparse_exit():
    raise SystemExit(2)


@pytest.mark.parametrize("fake_main, code", [(lambda: 1, 1), (_argparse_exit, 2)],
                         ids=["returns", "raises"])
def test_run_exits_with_the_code_of_main_after_one_freeze(fake_main, code, monkeypatch):
    freezes = []
    monkeypatch.setattr(gc, "freeze", lambda: freezes.append(1))
    monkeypatch.setattr(cli, "main", fake_main)
    with pytest.raises(SystemExit) as exc:
        cli.run()
    assert exc.value.code == code
    assert freezes == [1]


def test_main_freezes_nothing(capsys):
    before = gc.get_freeze_count()
    assert main(EXAMPLE_1_ARGS) == 0
    assert main(["--output", "json"] + EXAMPLE_1_ARGS) == 0
    capsys.readouterr()
    assert gc.get_freeze_count() == before


def _cli_env(monkeypatch):
    """The environment of a child process that reads the package from src/, as the parent does."""
    monkeypatch.delenv(cli.OUTPUT_ENV_VAR, raising=False)
    monkeypatch.setenv("COLUMNS", "80")  # argparse wraps help and usage to the terminal width
    src = str(Path(__file__).resolve().parents[1] / "src")
    return dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))


@pytest.mark.parametrize("args", [
    EXAMPLE_1_ARGS,
    ["--output", "latex"] + EXAMPLE_1_ARGS,
    ["--output", "json"] + EXAMPLE_1_ARGS,
    ["verify", "--dim", "1", "--width", "1", "--kind", "dirichlet",
     "--rhs", "0", "--lower", "x^2", "--upper", "x^2", "--solution", "x^2-y^2 + 1"],
    ["solve", "--dim", "0", "--width", "1", "--kind", "dirichlet",
     "--rhs", "0", "--lower", "0", "--upper", "0"],
    ["tables", "--family", "p", "--max-m", "3", "--output", "json"],
    ["solve", "--kind", "neumann"],
    ["--help"],
], ids=["plain", "latex", "json", "wrong-candidate", "usage-error", "tables", "argparse-error", "help"])
def test_module_process_matches_main_in_process(args, monkeypatch, capsys):
    env = _cli_env(monkeypatch)
    try:
        code = main(args)
    except SystemExit as exc:  # argparse exits by itself for --help and its own errors
        code = exc.code
    captured = capsys.readouterr()
    cp = subprocess.run([sys.executable, "-m", "layerpoisson.cli", *args], env=env,
                        capture_output=True, text=True, timeout=60)
    assert (cp.returncode, cp.stdout, cp.stderr) == (code, captured.out, captured.err)
    assert code in (0, 1, 2) and (captured.out or captured.err)


def test_profiler_still_reports_after_the_module_returns(monkeypatch):
    # cProfile prints its table once the module's code has exited: run() must
    # leave the interpreter to exit as usual, not cut it short
    env = _cli_env(monkeypatch)
    cp = subprocess.run([sys.executable, "-m", "cProfile", "-m", "layerpoisson.cli", *EXAMPLE_1_ARGS],
                        env=env, capture_output=True, text=True, timeout=60)
    assert "verified: true" in cp.stdout
    assert "function calls" in cp.stdout


@pytest.mark.parametrize("failing", [False, True])
def test_numcheck_reports_each_check_and_the_count(failing, monkeypatch, capsys):
    # the battery itself needs numpy and scipy; its report needs neither
    from layerpoisson import numcheck

    results = [numcheck.CheckResult("moment[m=0]", 1.0, 1.0, 1e-8),
               numcheck.CheckResult("series alternating m=2", 0.5, 0.25 if failing else 0.5, 1e-10)]
    monkeypatch.setattr(numcheck, "run_all_checks", lambda: results)
    assert main(["numcheck"]) == (1 if failing else 0)
    verdict, passed = ("FAIL", "1/2") if failing else ("pass", "2/2")
    assert capsys.readouterr().out.splitlines() == [
        "pass  moment[m=0]                                error=0.000e+00 tol=1.0e-08",
        f"{verdict}  series alternating m=2                     error={0.25 if failing else 0:.3e} tol=1.0e-10",
        f"{passed} checks passed",
    ]
    assert main(["numcheck", "--output", "json"]) == (1 if failing else 0)
    assert json.loads(capsys.readouterr().out) == [r.to_json_dict() for r in results]
