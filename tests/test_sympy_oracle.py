"""An independent oracle: the solver's output checked in sympy.

Seeded random problems of both kinds, n = 1..3, at rational widths, are
solved with the package.  The solution's canonical text and the problem's
data strings are then read by sympy, without going through ``Poly``, and
sympy checks that Δu = P and that both boundary traces hold.  The scalar
quotients the y-families are built from are checked against their closed
forms in Bernoulli and Euler numbers.
"""

import random
from fractions import Fraction

import pytest

sympy = pytest.importorskip("sympy")

from layerpoisson.parsing import parse_poly
from layerpoisson.polyring import Ring, to_text
from layerpoisson.series import quotient
from layerpoisson.solver import LayerProblem, solve

WIDTHS = (Fraction(1), Fraction(1, 2), Fraction(7, 3), Fraction(5, 4))


def _random_data(rng, names, degree, nterms):
    """A sum of random monomials with small rational coefficients, as text."""
    pieces = []
    for _ in range(nterms):
        exps = [0] * len(names)
        for _ in range(rng.randint(0, degree)):
            exps[rng.randrange(len(names))] += 1
        coeff = Fraction(rng.randint(-9, 9), rng.randint(1, 9))
        factors = [f"({coeff})"] + [f"{v}^{e}" for v, e in zip(names, exps) if e]
        pieces.append("*".join(factors))
    return " + ".join(pieces)


def _case(seed):
    rng = random.Random(seed)
    n = 1 + seed % 3
    kind = ("dirichlet", "mixed")[seed // 3 % 2]
    xs = Ring(n).names[:n]
    return dict(
        n=n, kind=kind, a=WIDTHS[seed % len(WIDTHS)],
        rhs=_random_data(rng, xs + ("y",), 8, 4),
        lower=_random_data(rng, xs, 7, 3),
        upper=_random_data(rng, xs, 7, 3),
    )


def _sym(text):
    return sympy.sympify(text.replace("^", "**"), rational=True)


@pytest.mark.parametrize("seed", range(12))
def test_solution_satisfies_the_problem_in_sympy(seed):
    case = _case(seed)
    n, kind, a = case["n"], case["kind"], case["a"]
    problem = LayerProblem(
        n=n, a=a, kind=kind,
        rhs=parse_poly(case["rhs"], n),
        lower=parse_poly(case["lower"], n),
        upper=parse_poly(case["upper"], n),
    )
    names = Ring(n).names
    u = _sym(to_text(solve(problem).u, names))

    xs = sympy.symbols(names[:n])
    y = sympy.Symbol("y")
    a_sym = sympy.Rational(a.numerator, a.denominator)
    rhs, lower, upper = (_sym(case[field]) for field in ("rhs", "lower", "upper"))

    laplacian = sum(sympy.diff(u, v, 2) for v in xs + (y,))
    top = u if kind == "dirichlet" else sympy.diff(u, y)
    assert sympy.expand(laplacian - rhs) == 0
    assert sympy.expand(u.subs(y, 0) - lower) == 0
    assert sympy.expand(top.subs(y, a_sym) - upper) == 0


def _t_coefficient(name, k):
    """The t^(2k) coefficient of the named even series, in closed form."""
    B, E, f = sympy.bernoulli, sympy.euler, sympy.factorial
    return {
        "t coth t": 2 ** (2 * k) * B(2 * k) / f(2 * k),
        "t/sinh t": (2 - 2 ** (2 * k)) * B(2 * k) / f(2 * k),
        "tanh(t)/t": 2 ** (2 * k + 2) * (2 ** (2 * k + 2) - 1) * B(2 * k + 2) / f(2 * k + 2),
        "sech t": E(2 * k) / f(2 * k),
    }[name]


@pytest.mark.parametrize("name", ["t coth t", "t/sinh t", "tanh(t)/t", "sech t"])
def test_scalar_quotients_match_bernoulli_and_euler_closed_forms(name):
    # s = -t^2, so the s^k coefficient is (-1)^k times the t^(2k) one
    for k in range(31):
        num, den = quotient(name, k)
        assert sympy.Rational(num, den) == (-1) ** k * _t_coefficient(name, k), k
