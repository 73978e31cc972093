import abc
import random
import sys
from fractions import Fraction

import pytest

from layerpoisson import dirichlet, mixed
from layerpoisson.parsing import parse_poly
from layerpoisson.particular import inv_laplacian_monomial_alt
from layerpoisson.polyring import Poly, Ring
from layerpoisson.solver import LayerProblem, rectangle_trace, solve, verify

from conftest import P, XY, X3Y

EXAMPLE_1 = LayerProblem(
    n=1,
    a=Fraction(1),
    rhs=P("x1^4*y^3"),
    kind="dirichlet",
    lower=P("8*x1^4 - 8*x1^2 + 1"),
    upper=P("8*x1^4 - 8*x1^2 + 1"),
)

EXAMPLE_1_SOLUTION = P(
    "1/20*x1^4*y^5 - 1/20*x1^4*y + 8*x1^4 - 1/70*x1^2*y^7 + 1/10*x1^2*y^3"
    " - 48*x1^2*y^2 + 1677/35*x1^2*y - 8*x1^2 + 1/2520*y^9 - 1/100*y^5 + 8*y^4"
    " - 559/35*y^3 + 8*y^2 - 239/12600*y + 1"
)

EXAMPLE_23_RHS = P("x1^3*x2^2*x3*y^3", X3Y)

EXAMPLE_2_SOLUTION = P(
    "1/20*x1^3*x2^2*x3*y^5 - 1/20*x1^3*x2^2*x3*y"
    " - 1/420*x1^3*x3*y^7 + 1/60*x1^3*x3*y^3 - 1/70*x1^3*x3*y"
    " - 1/140*x1*x2^2*x3*y^7 + 1/20*x1*x2^2*x3*y^3 - 3/70*x1*x2^2*x3*y"
    " + 1/2520*x1*x3*y^9 - 1/100*x1*x3*y^5 + 1/35*x1*x3*y^3 - 239/12600*x1*x3*y",
    X3Y,
)

EXAMPLE_3_SOLUTION = P(
    "1/20*x1^3*x2^2*x3*y^5 - 1/4*x1^3*x2^2*x3*y"
    " - 1/420*x1^3*x3*y^7 + 1/12*x1^3*x3*y^3 - 7/30*x1^3*x3*y"
    " - 1/140*x1*x2^2*x3*y^7 + 1/4*x1*x2^2*x3*y^3 - 7/10*x1*x2^2*x3*y"
    " + 1/2520*x1*x3*y^9 - 1/20*x1*x3*y^5 + 7/15*x1*x3*y^3 - 323/280*x1*x3*y",
    X3Y,
)


def test_example_1():
    report = solve(EXAMPLE_1)
    assert report.u == EXAMPLE_1_SOLUTION
    assert report.verified


def test_example_2():
    problem = LayerProblem(
        n=3, a=Fraction(1), rhs=EXAMPLE_23_RHS, kind="dirichlet",
        lower=Poly.zero(4), upper=Poly.zero(4),
    )
    report = solve(problem)
    assert report.u == EXAMPLE_2_SOLUTION
    assert report.verified


def test_example_3():
    problem = LayerProblem(
        n=3, a=Fraction(1), rhs=EXAMPLE_23_RHS, kind="mixed",
        lower=Poly.zero(4), upper=Poly.zero(4),
    )
    report = solve(problem)
    assert report.u == EXAMPLE_3_SOLUTION
    assert report.verified


def test_trivial_problem():
    problem = LayerProblem(
        n=1, a=Fraction(1), rhs=Poly.zero(2), kind="dirichlet",
        lower=Poly.zero(2), upper=Poly.zero(2),
    )
    assert solve(problem).u.is_zero()


def test_verify_paper_solutions():
    assert verify(EXAMPLE_1_SOLUTION, EXAMPLE_1).verified
    strip = LayerProblem(
        n=1, a=Fraction(1), rhs=Poly.zero(2), kind="dirichlet",
        lower=P("x1^2"), upper=P("x1^2"),
    )
    assert verify(P("x1^2 - y^2 + y"), strip).verified


def test_verify_detects_perturbation():
    u = EXAMPLE_1_SOLUTION + P("y^2 - y")  # y(y-a) with a=1
    report = verify(u, EXAMPLE_1)
    assert report.residual_pde == Poly.const(2, 2)
    assert not report.verified


def test_rectangle_trace():
    u = P("x1^2 - y^2 + y")
    t0, t1 = rectangle_trace(u, (Fraction(0), Fraction(1)))
    assert t0 == P("-y^2 + y", ("y",))
    assert t1 == P("1 - y^2 + y", ("y",))
    z0, z1 = rectangle_trace(Poly.zero(2), (Fraction(3), Fraction(-2)))
    assert z0.is_zero() and z1.is_zero()
    s0, s1 = rectangle_trace(P("x1*y"), (Fraction(0), Fraction(2)))
    assert s0.is_zero()
    assert s1 == P("2*y", ("y",))


@pytest.mark.parametrize("edges", [(0.1, 1), (0, 0.5), (True, 1), (0, False)])
def test_rectangle_trace_rejects_inexact_edges(edges):
    with pytest.raises(TypeError):
        rectangle_trace(P("x1^2 - y^2"), edges)


def test_problem_invariants():
    with pytest.raises(ValueError):
        LayerProblem(n=1, a=Fraction(0), rhs=Poly.zero(2), kind="dirichlet",
                     lower=Poly.zero(2), upper=Poly.zero(2))
    with pytest.raises(ValueError):
        LayerProblem(n=1, a=Fraction(1), rhs=Poly.zero(2), kind="dirichlet",
                     lower=P("y"), upper=Poly.zero(2))
    with pytest.raises(ValueError):
        LayerProblem(n=1, a=Fraction(1), rhs=Poly.zero(2), kind="neumann",
                     lower=Poly.zero(2), upper=Poly.zero(2))


@pytest.mark.parametrize("a", [0.1, 1.0, True, None])
def test_problem_rejects_an_inexact_width(a):
    with pytest.raises(TypeError):
        LayerProblem(n=1, a=a, rhs=Poly.zero(2), kind="dirichlet",
                     lower=Poly.zero(2), upper=Poly.zero(2))


def test_problem_accepts_exact_widths():
    for a in (1, Fraction(7, 3)):
        problem = LayerProblem(n=1, a=a, rhs=Poly.zero(2), kind="dirichlet",
                               lower=Poly.zero(2), upper=Poly.zero(2))
        assert isinstance(problem.a, Fraction) and problem.a == Fraction(a)


def _random_poly(rng, ring, max_deg, no_y=False):
    terms = {}
    for _ in range(rng.randint(0, 4)):
        while True:
            exp = tuple(rng.randint(0, max_deg) for _ in range(ring.nvars))
            if no_y:
                exp = exp[:-1] + (0,)
            if sum(exp) <= max_deg:
                break
        terms[exp] = Fraction(rng.randint(-9, 9), rng.randint(1, 5))
    return Poly(ring.nvars, terms)


def _random_problem(rng, kind=None):
    n = rng.randint(1, 3)
    ring = Ring(n)
    a = rng.choice([Fraction(1), Fraction(1, 2), Fraction(7, 3)])
    kind = kind or rng.choice(["dirichlet", "mixed"])
    return LayerProblem(
        n=n, a=a, kind=kind,
        rhs=_random_poly(rng, ring, 6),
        lower=_random_poly(rng, ring, 8, no_y=True),
        upper=_random_poly(rng, ring, 8, no_y=True),
    )


def test_randomized_self_verification():
    rng = random.Random(2024)
    for _ in range(120):
        assert solve(_random_problem(rng)).verified


def test_superposition():
    rng = random.Random(7)
    for _ in range(10):
        problem = _random_problem(rng)
        zero = Poly.zero(problem.ring.nvars)
        parts = [
            LayerProblem(n=problem.n, a=problem.a, kind=problem.kind,
                         rhs=problem.rhs, lower=zero, upper=zero),
            LayerProblem(n=problem.n, a=problem.a, kind=problem.kind,
                         rhs=zero, lower=problem.lower, upper=zero),
            LayerProblem(n=problem.n, a=problem.a, kind=problem.kind,
                         rhs=zero, lower=zero, upper=problem.upper),
        ]
        total = sum((solve(p).u for p in parts), start=zero)
        assert total == solve(problem).u


def test_linearity():
    rng = random.Random(13)
    for _ in range(8):
        p1 = _random_problem(rng, kind="dirichlet")
        p2 = LayerProblem(
            n=p1.n, a=p1.a, kind="dirichlet",
            rhs=_random_poly(rng, p1.ring, 6),
            lower=_random_poly(rng, p1.ring, 6, no_y=True),
            upper=_random_poly(rng, p1.ring, 6, no_y=True),
        )
        alpha, beta = Fraction(3, 2), Fraction(-5, 7)
        combined = LayerProblem(
            n=p1.n, a=p1.a, kind="dirichlet",
            rhs=alpha * p1.rhs + beta * p2.rhs,
            lower=alpha * p1.lower + beta * p2.lower,
            upper=alpha * p1.upper + beta * p2.upper,
        )
        assert solve(combined).u == alpha * solve(p1).u + beta * solve(p2).u


def test_dirichlet_reflection_symmetry():
    # swapping the two boundary planes maps the solution by y <- a - y
    rng = random.Random(31)
    for _ in range(10):
        problem = _random_problem(rng, kind="dirichlet")
        ring = problem.ring
        flip = ring.const(problem.a) - ring.y_var()
        reflected = LayerProblem(
            n=problem.n, a=problem.a, kind="dirichlet",
            rhs=problem.rhs.subs(ring.y, flip),
            lower=problem.upper, upper=problem.lower,
        )
        assert solve(reflected).u == solve(problem).u.subs(ring.y, flip)


def test_particular_solution_independence():
    # assembling from the x-integrated particular solution gives the same u
    problem = EXAMPLE_1
    ring = problem.ring
    tilde = inv_laplacian_monomial_alt(4, 3)
    u = tilde
    lower_corr = problem.lower - tilde.subs(ring.y, 0)
    upper_corr = problem.upper - tilde.subs(ring.y, problem.a)
    from layerpoisson import dirichlet

    for exp, coeff in lower_corr.terms.items():
        u = u + coeff * dirichlet.basis_v(exp[:1], 1, problem.a)
    for exp, coeff in upper_corr.terms.items():
        u = u + coeff * dirichlet.basis_u(exp[:1], 1, problem.a)
    assert u == EXAMPLE_1_SOLUTION


def test_solve_runs_on_plain_integers():
    # parse, LayerProblem and solve at width 7/3 from cold family stores make no
    # Fraction and no ABC dispatch: sys.setprofile sees every Python-level call,
    # and in fractions.py only the width's numerator and denominator may run
    fractions_file = Fraction.__new__.__code__.co_filename
    allowed = {Fraction.numerator.fget.__code__, Fraction.denominator.fget.__code__}
    dispatch = {abc.ABCMeta.__instancecheck__.__code__, abc.ABCMeta.__subclasscheck__.__code__}
    seen = []

    def profile(frame, event, arg):
        code = frame.f_code
        if event == "call" and (code in dispatch or code.co_filename == fractions_file
                                and code not in allowed):
            seen.append((code.co_name, frame.f_back.f_code.co_name))

    a = Fraction(7, 3)
    cases = [(1, "dirichlet", "x"), (1, "mixed", "x"), (2, "dirichlet", "x1"), (2, "mixed", "x2")]
    for n, kind, x in cases:
        for family in (dirichlet._c, dirichlet._c_flip, mixed._d, mixed._e):
            family.cache_clear()
        outer = sys.getprofile()
        sys.setprofile(profile)
        try:
            rhs = parse_poly(f"3/4*{x}^4*y^3 - (2*{x} + y)^3", n)
            lower = parse_poly(f"8*{x}^4 - 8*{x}^2 + 1/5", n)
            upper = parse_poly(f"{x}^6 - 2/7*{x}", n)
            report = solve(LayerProblem(n=n, a=a, kind=kind, rhs=rhs, lower=lower, upper=upper))
        finally:
            sys.setprofile(outer)
        assert report.verified
    assert seen == []
