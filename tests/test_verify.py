"""verify against the composition it replaced: Δu and the two traces taken
one at a time through ``Poly.laplacian``, ``Poly.subs`` and ``Poly.diff``."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from layerpoisson import solver
from layerpoisson.polyring import Poly
from layerpoisson.solver import LayerProblem, SolutionReport, solve, verify

from conftest import P, X3Y


def ref_verify(u, problem):
    """The residuals as verify computed them before it walked u once."""
    y = problem.n
    top = u if problem.kind == "dirichlet" else u.diff(y)
    return SolutionReport(
        u,
        u.laplacian(problem.n) - problem.rhs,
        u.subs(y, 0) - problem.lower,
        top.subs(y, problem.a) - problem.upper,
    )


coefficients = st.fractions(min_value=-50, max_value=50, max_denominator=30)
widths = st.one_of(
    st.sampled_from([Fraction(1), Fraction(1, 2), Fraction(7, 3)]),
    st.tuples(st.integers(1, 40), st.integers(1, 40)).map(lambda t: Fraction(*t)),
)


def polys(nvars, max_exps):
    """Random polynomials in nvars variables, exponent i at most max_exps[i]."""
    exps = st.tuples(*(st.integers(0, m) for m in max_exps))
    return st.dictionaries(exps, coefficients, max_size=12).map(lambda d: Poly(nvars, d))


@st.composite
def cases(draw):
    n = draw(st.sampled_from([1, 2, 3]))
    u = draw(polys(n + 1, [5] * n + [7]))
    kind = draw(st.sampled_from(["dirichlet", "mixed"]))
    a = draw(widths)
    data = [draw(polys(n + 1, [4] * n + [5])), draw(polys(n + 1, [4] * n + [0])),
            draw(polys(n + 1, [4] * n + [0]))]
    problem = LayerProblem(n=n, a=a, kind=kind, rhs=data[0], lower=data[1], upper=data[2])
    if draw(st.booleans()):
        # u's own data, so that the residuals are zero
        own = ref_verify(u, LayerProblem(n=n, a=a, kind=kind, rhs=Poly(n + 1), lower=Poly(n + 1),
                                         upper=Poly(n + 1)))
        problem = LayerProblem(n=n, a=a, kind=kind, rhs=own.residual_pde,
                               lower=own.residual_lower, upper=own.residual_upper)
    return u, problem


@given(cases())
@settings(max_examples=200, deadline=None)
def test_verify_matches_the_composition(case):
    u, problem = case
    got = verify(u, problem)
    assert got == ref_verify(u, problem)
    assert got.verified == ref_verify(u, problem).verified


def _problem(n, kind, a=Fraction(7, 3)):
    zero = Poly(n + 1)
    return LayerProblem(n=n, a=a, kind=kind, rhs=zero, lower=zero, upper=zero)


@pytest.mark.parametrize("kind", ["dirichlet", "mixed"])
@pytest.mark.parametrize("text", [
    "0",                                  # u = 0
    "3/4*x1^3*x2^2 - x1*x3 + 5",          # free of y
    "x1^-1*x2^2*y^3 + x1^-2*y",           # negative x exponents: the Laplacian skips them
    "2*x1^5*x3^3*y^9 - 7/5*x2^4*y^2 + 1/3*y",
])
def test_edge_cases_match_the_composition(text, kind):
    u = P(text, X3Y)
    problem = _problem(3, kind)
    assert verify(u, problem) == ref_verify(u, problem)


def test_mixed_solution_with_only_y0_terms_has_zero_top_trace():
    u = P("x1^2 - 2/3*x1 + 4")
    report = verify(u, _problem(1, "mixed"))
    assert report == ref_verify(u, _problem(1, "mixed"))
    assert report.residual_upper.is_zero()
    assert report.residual_lower == u


@pytest.mark.parametrize("kind", ["dirichlet", "mixed"])
@pytest.mark.parametrize("text", ["y^-1", "x1^3*y^2 + 2*y^-3", "x1^-2*y^-1 + 5"])
def test_negative_y_exponent_raises_zero_division(text, kind):
    u = P(text)
    with pytest.raises(ZeroDivisionError):
        ref_verify(u, _problem(1, kind))
    with pytest.raises(ZeroDivisionError):
        verify(u, _problem(1, kind))


def test_verify_calls_neither_subs_nor_diff_nor_laplacian(monkeypatch):
    problem = LayerProblem(n=2, a=Fraction(7, 3), kind="mixed", rhs=P("x1^3*x2^2*y^3", ("x1", "x2", "y")),
                           lower=P("x1^2*x2", ("x1", "x2", "y")), upper=P("x2^4 - 1", ("x1", "x2", "y")))
    u = solve(problem).u

    def refused(*args, **kwargs):
        raise AssertionError("verify walks u itself")

    for name in ("subs", "diff", "laplacian"):
        monkeypatch.setattr(Poly, name, refused)
    assert verify(u, problem).verified


def test_solve_takes_the_particular_traces_through_traces(monkeypatch):
    calls = []
    traces = solver._traces

    def counted(p, problem):
        calls.append(p)
        return traces(p, problem)

    monkeypatch.setattr(solver, "_traces", counted)
    problem = LayerProblem(n=1, a=Fraction(1, 2), kind="dirichlet", rhs=P("x1^4*y^3"),
                           lower=P("x1^2"), upper=P("1"))
    assert solve(problem).verified
    assert len(calls) == 1


# -- the per-x-part Laplacian: Δu is summed in one {y exponent: numerator}
# map per x part, and only the nonzero entries become terms

X2Y = ("x1", "x2", "y")


def _own_problem(u, n, kind, a=Fraction(7, 3)):
    """The problem whose data are u's own Laplacian and traces, so u solves it."""
    own = ref_verify(u, _problem(n, kind, a))
    return LayerProblem(n=n, a=a, kind=kind, rhs=own.residual_pde, lower=own.residual_lower,
                        upper=own.residual_upper)


def _x_parts(p, n):
    return {exp[:n] for exp in p.nums}


@pytest.mark.parametrize("kind", ["dirichlet", "mixed"])
@pytest.mark.parametrize("n, text, names", [
    (1, "x1^2*y^3", ("x1", "y")),                         # x part (0,) only through ∂²_x1
    (2, "x1^3*x2^2*y - 5/7*x1^3*y^4", X2Y),               # (1, 2) and (3, 0) only through shifts
    (3, "2*x1^2*x2^4*x3^3*y^2", X3Y),                     # three shifted parts, none in u
])
def test_x_part_reached_only_through_a_spatial_shift(n, text, names, kind):
    u = P(text, names)
    lap = ref_verify(u, _problem(n, kind)).residual_pde
    assert _x_parts(lap, n) - _x_parts(u, n), "the case needs an x part that u lacks"
    for problem in (_problem(n, kind), _own_problem(u, n, kind)):
        assert verify(u, problem) == ref_verify(u, problem)
    assert verify(u, _own_problem(u, n, kind)).verified


@pytest.mark.parametrize("kind", ["dirichlet", "mixed"])
@pytest.mark.parametrize("n, text, names", [
    (1, "x1^2 - y^2", ("x1", "y")),
    (1, "x1^4 - 6*x1^2*y^2 + y^4 + 3*x1*y", ("x1", "y")),  # Re (x1 + i y)^4, plus a harmonic term
    (3, "x1*x2*x3^2 - x1*x2*y^2", X3Y),
    (3, "x1^2*x2 + x3^2*x2 - 2*x2*y^2 + 7/3*x1*x3*y", X3Y),  # three contributions to one entry
])
def test_y_and_x_contributions_that_cancel_exactly(n, text, names, kind):
    u = P(text, names)
    report = verify(u, _problem(n, kind))
    assert report == ref_verify(u, _problem(n, kind))
    assert report.residual_pde.is_zero() and report.residual_pde.nums == {}


@pytest.mark.parametrize("kind", ["dirichlet", "mixed"])
@pytest.mark.parametrize("n, text, names", [
    (2, "x1^2*y + 3*x2^2*y", X2Y),                          # both into x part (0, 0): 8y
    (2, "x1^2*y^3 - x2^2*y^3 + x1^4*x2^2", X2Y),            # the two shifts cancel
    (3, "x1^2*x3*y^2 + x2^2*x3*y^2 - 2/5*x1^2*x2^2*x3", X3Y),
])
def test_two_variables_shifting_into_one_x_part(n, text, names, kind):
    u = P(text, names)
    for problem in (_problem(n, kind), _own_problem(u, n, kind)):
        assert verify(u, problem) == ref_verify(u, problem)
    assert verify(u, _own_problem(u, n, kind)).verified
