"""Shape arguments: ring sizes, variable indices, orders, positions and names.

Every one passes ``polyring.check_index`` (a bool or non-int is a
TypeError, a negative value or one not below the size a ValueError),
``polyring.check_length`` or ``check_dimension``, and variable names must
be distinct.  Each refusal here was once a silent misreading: a bool read
as 0 or 1, a negative index read from the end, a repeated position or
name read into the last slot that carries it.
"""

from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from layerpoisson import dirichlet, mixed
from layerpoisson.dirichlet import c_coeffs
from layerpoisson.parsing import parse_expr
from layerpoisson.particular import inv_laplacian
from layerpoisson.polyring import Poly, Ring, check_index, check_length, lift, to_latex, to_text

from conftest import P

BASES = [dirichlet.basis_u, dirichlet.basis_v, mixed.mixed_basis_u, mixed.mixed_basis_v]


@pytest.mark.parametrize("value, size", [(0, None), (7, None), (0, 1), (2, 3)])
def test_check_index_takes_an_int_in_range(value, size):
    assert check_index(value, "index", size) is None


@pytest.mark.parametrize("value, name", [(True, "bool"), (False, "bool"), (1.0, "float"),
                                         (Fraction(1), "Fraction"), ("1", "str")])
def test_check_index_refuses_a_bool_or_non_int(value, name):
    for size in (None, 3):
        with pytest.raises(TypeError, match=f"^index must be an integer, not {name}$"):
            check_index(value, "index", size)


@pytest.mark.parametrize("value, size, bound", [(-1, None, "non-negative"), (-1, 3, "in range\\(3\\)"),
                                                (3, 3, "in range\\(3\\)"), (0, 0, "in range\\(0\\)")])
def test_check_index_refuses_a_value_out_of_range(value, size, bound):
    with pytest.raises(ValueError, match=f"^index must be {bound}, not {value}$"):
        check_index(value, "index", size)


def test_check_length():
    check_length((1, 2), 2, "point")
    with pytest.raises(ValueError, match="^point has length 3, expected 2$"):
        check_length((1, 2, 3), 2, "point")


# -- lift ----------------------------------------------------------------------

def test_lift_refuses_a_repeated_position():
    # lift(3x^2y + 5xy^2, 2, (0, 0)) once returned 5x^2 + 3x
    with pytest.raises(ValueError, match="^positions must be distinct$"):
        lift(P("3*x1^2*y + 5*x1*y^2"), 2, (0, 0))
    with pytest.raises(ValueError, match="^positions must be distinct$"):
        lift(P("3*x1^2"), 3, (1, 1))


@pytest.mark.parametrize("positions, bound", [((-1, 0), "in range\\(3\\), not -1"),
                                              ((0, 3), "in range\\(3\\), not 3")],
                         ids=["negative", "past-the-end"])
def test_lift_refuses_a_position_out_of_range(positions, bound):
    # lift(3x^2y, 3, (-1, 0)) once wrote x into the last slot
    with pytest.raises(ValueError, match=f"^position must be {bound}$"):
        lift(P("3*x1^2*y"), 3, positions)


@pytest.mark.parametrize("positions, name", [((True, 0), "bool"), ((0, 1.0), "float"),
                                            ((None, False), "bool")], ids=["bool", "float", "bool-kept"])
def test_lift_refuses_a_position_that_is_not_an_int(positions, name):
    with pytest.raises(TypeError, match=f"^position must be an integer, not {name}$"):
        lift(P("3*y"), 3, positions)


@pytest.mark.parametrize("nvars", [True, 2.0], ids=repr)
def test_lift_refuses_nvars_that_is_not_an_int(nvars):
    with pytest.raises(TypeError, match=f"^nvars must be an integer, not {type(nvars).__name__}$"):
        lift(P("3*y"), nvars, (None, 0))


def test_lift_refuses_positions_of_the_wrong_length():
    with pytest.raises(ValueError, match="^positions has length 1, expected 2$"):
        lift(P("3*y"), 2, (0,))


@st.composite
def injective_lifts(draw):
    """(p, nvars, positions): p in k variables, positions an injective map into range(nvars)."""
    k = draw(st.integers(0, 4))
    nvars = draw(st.integers(k, 6))
    positions = draw(st.permutations(range(nvars)))[:k]
    exps = st.tuples(*[st.integers(0, 5)] * k)
    coeffs = st.fractions(max_denominator=50).filter(bool)
    return Poly(k, draw(st.dictionaries(exps, coeffs, max_size=6))), nvars, positions


@given(injective_lifts())
@settings(max_examples=200, deadline=None)
def test_lift_and_its_inverse_return_the_input(case):
    p, nvars, positions = case
    lifted = lift(p, nvars, positions)
    back = [positions.index(j) if j in positions else None for j in range(nvars)]
    assert lift(lifted, p.nvars, back) == p


# -- names -----------------------------------------------------------------------

def test_the_parser_refuses_repeated_names():
    # parse_expr("x + 2*x", ("x", "x")) once parsed into the second slot alone
    with pytest.raises(ValueError, match="^variable names must be distinct$"):
        parse_expr("x + 2*x", ("x", "x"))
    with pytest.raises(ValueError, match="^variable names must be distinct$"):
        parse_expr("1", ("x", "y", "x"))


@pytest.mark.parametrize("render", [to_text, to_latex], ids=lambda f: f.__name__)
def test_the_renderers_refuse_repeated_names(render):
    # to_text(x + 2*y, ("x", "x")) once printed "x + 2*x", which reads back as 3*x
    for p in (P("x1 + 2*y"), Poly.zero(2)):
        with pytest.raises(ValueError, match="^variable names must be distinct$"):
            render(p, ("x", "x"))
    with pytest.raises(ValueError, match="^names has length 1, expected 2$"):
        render(P("x1"), ("x",))


names = st.lists(st.from_regex(r"[A-Za-z_][A-Za-z_0-9]{1,4}", fullmatch=True),
                 min_size=1, max_size=4, unique=True)


@st.composite
def named_polys(draw):
    ns = draw(names)
    exps = st.tuples(*[st.integers(0, 5)] * len(ns))
    coeffs = st.one_of(st.integers(-10 ** 6, 10 ** 6),
                       st.fractions(max_denominator=10 ** 4)).filter(bool)
    return Poly(len(ns), draw(st.dictionaries(exps, coeffs, max_size=6))), tuple(ns)


@given(named_polys())
@settings(max_examples=200, deadline=None)
def test_text_reads_back_under_distinct_multi_letter_names(case):
    p, ns = case
    assert parse_expr(to_text(p, ns), ns) == p


# -- indices, orders and sizes -----------------------------------------------------

NOT_INDICES = [(True, TypeError, "an integer, not bool"), (1.0, TypeError, "an integer, not float"),
               (-1, ValueError, None)]


@pytest.mark.parametrize("bad, error, tail", NOT_INDICES, ids=["bool", "float", "negative"])
def test_variable_indices_and_orders_are_checked(bad, error, tail):
    p = P("3*x1^2*y")
    calls = {
        "variable index": [lambda: Poly.variable(2, bad), lambda: p.diff(bad),
                           lambda: p.subs(bad, 2), lambda: p.degree_in(bad)],
        "order": [lambda: p.diff(0, bad)],
        "spatial dimension": [lambda: p.laplacian(bad), lambda: Ring(bad)],
        "exponent": [lambda: p ** bad],
        "spatial index": [lambda: Ring(2).x(bad)],
    }
    # a negative value is refused against the size where there is one
    tail = tail or "(non-negative|in range\\(\\d\\)), not -1"
    for what, fns in calls.items():
        for fn in fns:
            with pytest.raises(error, match=f"^{what} must be {tail}$"):
                fn()


def test_degree_in_and_laplacian_no_longer_read_from_the_end():
    # degree_in(-1) once read y, and laplacian(-1) returned 0
    p = Poly(2, {(2, 1): 3})
    with pytest.raises(ValueError, match="^variable index must be in range\\(2\\), not -1$"):
        p.degree_in(-1)
    with pytest.raises(ValueError, match="^spatial dimension must be in range\\(2\\), not -1$"):
        p.laplacian(-1)
    with pytest.raises(ValueError, match="^variable index must be in range\\(2\\), not 2$"):
        Poly.zero(2).degree_in(2)


def test_a_float_power_is_a_type_error():
    with pytest.raises(TypeError, match="^exponent must be an integer, not float$"):
        P("x1") ** 1.5
    with pytest.raises(ValueError, match="^exponent must be non-negative, not -2$"):
        P("x1") ** -2


@pytest.mark.parametrize("nvars", [True, 2.0], ids=repr)
def test_poly_refuses_nvars_that_is_not_an_int(nvars):
    message = f"^nvars must be an integer, not {type(nvars).__name__}$"
    with pytest.raises(TypeError, match=message):
        Poly(nvars, {(1,) * int(nvars): 3})
    with pytest.raises(TypeError, match=message):
        Poly.from_json_dict({"nvars": nvars, "terms": [{"exp": [1] * int(nvars), "coeff": "3"}]})


def test_poly_refuses_negative_nvars_and_exponents_of_the_wrong_length():
    with pytest.raises(ValueError, match="^nvars must be non-negative, not -1$"):
        Poly(-1)
    with pytest.raises(ValueError, match="^exponent has length 1, expected 2$"):
        Poly(2, {(1,): 3})


def test_shape_sequences_are_checked_by_length():
    with pytest.raises(ValueError, match="^point has length 3, expected 2$"):
        P("x1").eval((1, 2, 3))
    with pytest.raises(ValueError, match="^point has length 1, expected 2$"):
        P("x1").eval_float((1.0,))
    with pytest.raises(ValueError, match="^multi-index has length 1, expected 2$"):
        Ring(2).x_monomial((1,))
    with pytest.raises(ValueError, match="^multi-index has length 1, expected 2$"):
        dirichlet.basis_u(3, 2, 1)


def test_coefficient_list_refuses_a_negative_order():
    # c_coeffs(-1) once returned [], as f_poly(-1) refused
    with pytest.raises(ValueError, match="^order must be non-negative, not -1$"):
        c_coeffs(-1)
    assert len(c_coeffs(0, 1)) == 1


# -- the solver's dimension ---------------------------------------------------------

BAD_DIMENSIONS = [(0, ValueError, "spatial dimension must be at least 1"),
                  (True, TypeError, "spatial dimension must be an integer, not bool"),
                  (1.0, TypeError, "spatial dimension must be an integer, not float")]


@pytest.mark.parametrize("n, error, message", BAD_DIMENSIONS, ids=["zero", "bool", "float"])
def test_inv_laplacian_checks_its_dimension(n, error, message):
    # inv_laplacian(y^2, 0) once returned 1/12*y^4, and n = True the n = 1 answer
    with pytest.raises(error, match=f"^{message}$"):
        inv_laplacian(Poly(int(n) + 1, {(0,) * int(n) + (2,): 1}), n)


@pytest.mark.parametrize("basis", BASES, ids=lambda basis: basis.__name__)
@pytest.mark.parametrize("n, error, message", BAD_DIMENSIONS, ids=["zero", "bool", "float"])
def test_each_basis_checks_its_dimension_for_both_kinds_of_datum(basis, n, error, message):
    # basis_u((), 0, 1) once returned y
    for datum in (Poly(int(n) + 1, {(0,) * (int(n) + 1): 1}), (0,) * int(n)):
        with pytest.raises(error, match=f"^{message}$"):
            basis(datum, n, 1)
