import pytest

from layerpoisson.parsing import MAX_NESTING, PolyParseError, parse_expr, parse_poly
from layerpoisson.polyring import Poly

from conftest import P, XY, X3Y


def test_example_monomial():
    assert parse_poly("x1^3*x2^2*x3*y^3", 3) == P("x1^3*x2^2*x3*y^3", X3Y)


def test_boundary_polynomial_with_alias():
    assert parse_poly("8*x^4 - 8*x^2 + 1", 1) == P("8*x1^4 - 8*x1^2 + 1")


def test_zero():
    assert parse_poly("0", 1).is_zero()


def test_whitespace_insensitive():
    assert parse_poly(" 2*x1 ^2  -  y ", 1) == parse_poly("2*x1^2-y", 1)


def test_rational_literals():
    assert parse_poly("1/2520*y^9", 1) == P("1/2520*y^9")


def test_parentheses_and_unary_minus():
    assert parse_poly("-(x1 - y)^2", 1) == P("-x1^2 + 2*x1*y - y^2")
    assert parse_poly("- -3", 1) == Poly.const(2, 3)


def test_implicit_multiplication_rejected():
    with pytest.raises(PolyParseError):
        parse_poly("8x^4", 1)


def test_float_literal_rejected():
    with pytest.raises(PolyParseError):
        parse_poly("0.5*x1", 1)


def test_unknown_variable():
    with pytest.raises(PolyParseError):
        parse_poly("x2 + y", 1)


def test_syntax_error_has_position():
    with pytest.raises(PolyParseError) as exc:
        parse_poly("x1 + * y", 1)
    assert exc.value.position == 5


def test_negative_exponent_rejected_by_default():
    with pytest.raises(PolyParseError):
        parse_expr("y*a^-1", ("y", "a"))


def test_exponent_must_be_integer_literal():
    with pytest.raises(PolyParseError):
        parse_poly("x1^y", 1)
    with pytest.raises(PolyParseError):
        parse_poly("x1^(2)", 1)


def test_error_position_after_the_x_alias():
    with pytest.raises(PolyParseError) as exc:
        parse_poly("x + * y", 1)
    assert exc.value.position == 4


@pytest.mark.parametrize("text, position", [("x1 + " + "9" * 5000, 5), ("x1^" + "9" * 5000, 3)],
                         ids=["term", "exponent"])
def test_overlong_integer_literal_is_a_parse_error(text, position):
    with pytest.raises(PolyParseError, match="integer literal too long") as exc:
        parse_poly(text, 1)
    assert exc.value.position == position


def test_nesting_up_to_the_limit_parses():
    assert parse_poly("(" * MAX_NESTING + "x + y" + ")" * MAX_NESTING, 1) == parse_poly("x + y", 1)


def test_nesting_past_the_limit_is_a_parse_error():
    text = "-(" * 400 + "x" + ")" * 400
    with pytest.raises(PolyParseError, match="expression nested too deeply") as exc:
        parse_poly(text, 1)
    # the position of the first "(" past the limit
    assert exc.value.position == 2 * MAX_NESTING + 1


def test_large_dimension_builds_the_exponents_of_the_names_used():
    p = parse_poly("x4999*y", 5000)
    assert p.nvars == 5001 and p.den == 1
    assert p.nums == {(0,) * 4998 + (1, 0, 1): 1}
