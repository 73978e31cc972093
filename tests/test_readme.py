"""The README's examples run as written: the library quick start and the problem file."""

import re
from fractions import Fraction
from pathlib import Path

from layerpoisson import LayerProblem, Ring, parse_poly, solve, to_text
from layerpoisson.cli import main

README = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")


def _block(after: str, lang: str) -> str:
    """The text of the first fenced ``lang`` block that follows the line ``after``."""
    match = re.search(rf"^{re.escape(after)}\n(?:.*\n)*?```{lang}\n((?:.*\n)*?)```$", README, re.M)
    assert match, f"no {lang} block after {after!r} in README.md"
    return match[1]


def test_the_library_quick_start_prints_the_solution_of_example_1(capsys):
    chebyshev = parse_poly("8*x^4 - 8*x^2 + 1", 1)
    problem = LayerProblem(n=1, a=Fraction(1), kind="dirichlet", rhs=parse_poly("x^4*y^3", 1),
                           lower=chebyshev, upper=chebyshev)
    exec(compile(_block("## Library quick start", "python"), "README.md", "exec"), {})
    assert capsys.readouterr().out == to_text(solve(problem).u, Ring(1).names) + "\n"


def test_the_problem_file_of_the_readme_solves(tmp_path, capsys):
    path = tmp_path / "problem.json"
    path.write_text(_block("Problem files are JSON:", "json"), encoding="utf-8")
    assert main(["solve", "--problem", str(path)]) == 0
    assert capsys.readouterr().out.endswith("verified: true\n")
