"""Value semantics of the package's immutable records: Ring, LayerProblem, SolutionReport, CheckResult.

Each is compared, hashed and printed field by field, refuses assignment
and deletion, and (for LayerProblem) validates its data on construction.
"""

import copy
import pickle
import re
from fractions import Fraction

import pytest

from layerpoisson import LayerProblem, Poly, Ring, SolutionReport, solve
from layerpoisson.numcheck import CheckResult
from layerpoisson.parsing import parse_poly
from layerpoisson.particular import inv_laplacian_monomial
from layerpoisson.polyring import MAX_DIMENSION

from conftest import P


def _problem(**changes):
    fields = dict(n=1, a=Fraction(2), rhs=P("x1^2"), kind="dirichlet",
                  lower=Poly.zero(2), upper=P("x1"))
    fields.update(changes)
    return LayerProblem(**fields)


def test_ring_equality_and_hash():
    assert Ring(2) == Ring(2, False) == Ring(n=2, formal_a=False)
    assert hash(Ring(2)) == hash(Ring(n=2, formal_a=False)) == hash((2, False))
    assert len({Ring(2), Ring(2, False), Ring(2, True), Ring(3)}) == 3
    assert Ring(2) != Ring(3)
    assert Ring(2) != Ring(2, formal_a=True)
    assert Ring(2) != (2, False)


def test_ring_repr():
    assert repr(Ring(2)) == "Ring(n=2, formal_a=False)"
    assert repr(Ring(0, formal_a=True)) == "Ring(n=0, formal_a=True)"


def test_ring_names_is_cached():
    ring = Ring(2, formal_a=True)
    assert ring.names == ("x1", "x2", "y", "a")
    assert ring.names is ring.names
    # the cached value takes no part in equality
    assert ring == Ring(2, formal_a=True)


def test_layer_problem_positional_and_keyword():
    rhs, lower, upper = P("x1^2"), Poly.zero(2), P("x1")
    by_position = LayerProblem(1, 2, rhs, "dirichlet", lower, upper)
    by_keyword = LayerProblem(upper=upper, lower=lower, kind="dirichlet", rhs=rhs, a=2, n=1)
    assert by_position == by_keyword == _problem()
    assert hash(by_position) == hash(by_keyword)
    assert isinstance(by_position.a, Fraction) and by_position.a == 2
    assert by_position.ring == Ring(1)


@pytest.mark.parametrize("changes", [
    dict(a=Fraction(7, 3)), dict(rhs=P("x1^2 + 1")), dict(kind="mixed"),
    dict(lower=P("x1")), dict(upper=Poly.zero(2)),
], ids=["a", "rhs", "kind", "lower", "upper"])
def test_layer_problem_inequality(changes):
    assert _problem(**changes) != _problem()
    assert len({_problem(**changes), _problem()}) == 2


def test_layer_problem_repr():
    assert repr(_problem()) == (
        "LayerProblem(n=1, a=Fraction(2, 1), rhs=Poly(2, {(2, 0): Fraction(1, 1)}), "
        "kind='dirichlet', lower=Poly(2, {}), upper=Poly(2, {(1, 0): Fraction(1, 1)}))"
    )


def test_solution_report_equality_hash_and_repr():
    report = solve(_problem())
    same = SolutionReport(report.u, Poly.zero(2), Poly.zero(2), Poly.zero(2))
    assert report == same and hash(report) == hash(same)
    assert report != SolutionReport(report.u, Poly.zero(2), P("1"), Poly.zero(2))
    assert report != solve(_problem(kind="mixed"))
    assert repr(SolutionReport(P("x1"), Poly.zero(2), P("-1"), Poly.zero(2))) == (
        "SolutionReport(u=Poly(2, {(1, 0): Fraction(1, 1)}), residual_pde=Poly(2, {}), "
        "residual_lower=Poly(2, {(0, 0): Fraction(-1, 1)}), residual_upper=Poly(2, {}))"
    )


@pytest.mark.parametrize("problem", [_problem(), _problem(kind="mixed")], ids=["dirichlet", "mixed"])
@pytest.mark.parametrize("verified", [True, False], ids=["verified", "failing"])
def test_solution_report_parts_name_the_solution_then_the_residuals_in_field_order(problem, verified):
    report = solve(problem)
    if not verified:
        report = SolutionReport(report.u, report.residual_pde, P("-1"), P("x1"))
    assert report.verified is verified
    assert report.parts == (("solution", report.u), ("residual_pde", report.residual_pde),
                            ("residual_lower", report.residual_lower),
                            ("residual_upper", report.residual_upper))


@pytest.mark.parametrize("verified", [True, False], ids=["verified", "failing"])
def test_solution_report_json_keys_are_its_parts_then_verified(verified):
    report = solve(_problem())
    if not verified:
        report = SolutionReport(report.u, P("x1"), report.residual_lower, report.residual_upper)
    doc = report.to_json_dict()
    assert list(doc) == ["solution", "residual_pde", "residual_lower", "residual_upper", "verified"]
    assert doc["verified"] is verified
    assert [doc[key] for key, _ in report.parts] == [p.to_json_dict() for _, p in report.parts]


@pytest.mark.parametrize("record, names", [
    (Ring(1), ("n", "formal_a", "names", "other")),
    (_problem(), ("n", "a", "rhs", "kind", "lower", "upper", "other")),
    (SolutionReport(Poly.zero(2), Poly.zero(2), Poly.zero(2), Poly.zero(2)),
     ("u", "residual_pde", "residual_lower", "residual_upper", "other")),
], ids=["Ring", "LayerProblem", "SolutionReport"])
def test_records_refuse_assignment_and_deletion(record, names):
    before = repr(record)
    for name in names:
        with pytest.raises(AttributeError):
            setattr(record, name, 0)
        with pytest.raises(AttributeError):
            delattr(record, name)
    assert repr(record) == before


@pytest.mark.parametrize("record", [
    Ring(2, formal_a=True), _problem(),
    SolutionReport(P("x1"), Poly.zero(2), P("-1"), Poly.zero(2)),
], ids=["Ring", "LayerProblem", "SolutionReport"])
def test_records_survive_copy(record):
    twin = copy.copy(record)
    assert twin == record and hash(twin) == hash(record) and repr(twin) == repr(record)


def test_ring_survives_deepcopy_and_pickle():
    ring = Ring(2, formal_a=True)
    for twin in (copy.deepcopy(ring), pickle.loads(pickle.dumps(ring))):
        assert twin == ring and twin.names == ring.names


@pytest.mark.parametrize("changes, error, message", [
    (dict(n=0), ValueError, "spatial dimension must be at least 1"),
    (dict(n=0, a=None), ValueError, "spatial dimension must be at least 1"),
    (dict(a=None), TypeError, "a layer problem needs a rational width"),
    (dict(a=0.5), TypeError, "expected an exact rational scalar, not float"),
    (dict(a=True), TypeError, "expected an exact rational scalar, not bool"),
    (dict(a=0), ValueError, "layer width must be positive"),
    (dict(a=Fraction(-1, 2)), ValueError, "layer width must be positive"),
    (dict(kind="neumann"), ValueError, "unknown problem kind 'neumann'"),
    (dict(rhs="x1^2"), ValueError, "rhs must be a Poly in the ring x1..x1, y"),
    (dict(lower=Poly.zero(3)), ValueError, "lower must be a Poly in the ring x1..x1, y"),
    (dict(upper=Poly.zero(1)), ValueError, "upper must be a Poly in the ring x1..x1, y"),
    (dict(lower=P("y")), ValueError, "boundary polynomial lower must not involve y"),
    (dict(upper=P("x1*y")), ValueError, "boundary polynomial upper must not involve y"),
], ids=["n-0", "n-before-a", "a-none", "a-float", "a-bool", "a-zero", "a-negative",
        "kind", "rhs-not-poly", "lower-ring", "upper-ring", "lower-y", "upper-y"])
def test_layer_problem_validation_errors(changes, error, message):
    with pytest.raises(error, match=f"^{re.escape(message)}$"):
        _problem(**changes)


_TWINS = {
    "copy": copy.copy,
    "deepcopy": copy.deepcopy,
    "pickle": lambda value: pickle.loads(pickle.dumps(value)),
}


@pytest.mark.parametrize("how", sorted(_TWINS))
@pytest.mark.parametrize("value", [
    Poly.zero(3), P("-7/3*x1^4*y^2*a^-1 + 1/2*y - 5", ("x1", "y", "a")), _problem(),
    solve(_problem(rhs=P("x1^2*y - 1/3"), lower=P("2*x1"))),
], ids=["zero-Poly", "Poly", "LayerProblem", "SolutionReport"])
def test_values_survive_copy_deepcopy_and_pickle(value, how):
    twin = _TWINS[how](value)
    assert type(twin) is type(value)
    assert twin == value and hash(twin) == hash(value) and repr(twin) == repr(value)


def test_poly_copy_stays_immutable():
    twin = pickle.loads(pickle.dumps(P("x1 + 1/2")))
    with pytest.raises(AttributeError, match="Poly is immutable"):
        twin.den = 1
    assert twin + 1 == P("x1 + 3/2")


@pytest.mark.parametrize("name", ["nvars", "den", "nums", "other"])
def test_poly_refuses_deletion(name):
    p = P("1/2*x1^2 - y")
    with pytest.raises(AttributeError, match="Poly is immutable"):
        delattr(p, name)
    assert p == P("1/2*x1^2 - y") and p.den == 2


def test_layer_problem_dimension_is_bounded():
    n = MAX_DIMENSION
    zero = Poly.zero(n + 1)
    assert LayerProblem(n=n, a=1, rhs=zero, kind="dirichlet", lower=zero, upper=zero).n == n
    zero = Poly.zero(n + 2)
    with pytest.raises(ValueError, match=f"^spatial dimension must be at most {n}$"):
        LayerProblem(n=n + 1, a=1, rhs=zero, kind="dirichlet", lower=zero, upper=zero)


@pytest.mark.parametrize("n, name", [(True, "bool"), (1.0, "float"), (Fraction(1), "Fraction")])
def test_dimension_that_is_not_an_int_is_refused(n, name):
    message = f"^spatial dimension must be an integer, not {name}$"
    with pytest.raises(TypeError, match=message):
        _problem(n=n)
    with pytest.raises(TypeError, match=message):
        parse_poly("x1 + y", n)
    with pytest.raises(TypeError, match=message):
        inv_laplacian_monomial(0, 0, n)


@pytest.mark.parametrize("n", [0, MAX_DIMENSION + 1])
def test_the_monomial_image_checks_the_dimension_as_parse_poly_does(n):
    message = "at least 1" if n < 1 else f"at most {MAX_DIMENSION}"
    for build in (lambda: parse_poly("y", n), lambda: inv_laplacian_monomial(0, 0, n)):
        with pytest.raises(ValueError, match=f"^spatial dimension must be {message}$"):
            build()


def test_check_result_json_dict():
    result = CheckResult("moment", 1.5, 1.25, 0.5)
    assert result.to_json_dict() == {"name": "moment", "value": 1.5, "reference": 1.25,
                                     "error": 0.25, "tolerance": 0.5, "passed": True}
    assert not CheckResult("moment", 1.5, 1.0, 0.25).passed
    assert result == CheckResult("moment", 1.5, 1.25, 0.5) != CheckResult("moment", 1.5, 1.25, 1.0)
    assert repr(result) == "CheckResult(name='moment', value=1.5, reference=1.25, tolerance=0.5)"
