import sys
import time
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from layerpoisson import parsing
from layerpoisson.parsing import MAX_NESTING, PolyParseError, parse_expr, parse_poly
from layerpoisson.polyring import MAX_DIMENSION, Poly, to_text

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


# the interpreter's limit on the digits of an int converted to text (4300 by default)
LIMIT = getattr(sys, "get_int_max_str_digits", int)()
needs_limit = pytest.mark.skipif(not LIMIT, reason="the interpreter has no integer string-conversion limit")
HALF = LIMIT // 2 + 1  # two factors of 10^HALF make more than LIMIT digits


def _refused(text):
    """The message and position of the parse error text raises."""
    with pytest.raises(PolyParseError) as exc:
        parse_poly(text, 1)
    return str(exc.value), exc.value.position


@needs_limit
@pytest.mark.parametrize("text, what, position", [
    (f"10^{LIMIT + 700}", "power", 2),
    (f"(10^{HALF})^3*x", "power", len(f"(10^{HALF})")),
    (f"x + (1/10)^{LIMIT + 1000}", "power", len("x + (1/10)")),
    (f"x + (1/10)^{LIMIT}", "coefficient", 0),
    (f"(10^{HALF}*x)^2", "power", len(f"(10^{HALF}*x)")),
    (f"10^{HALF}*10^{HALF}*10^{HALF}*x", "coefficient", 0),
    (f"10^{LIMIT}", "coefficient", 0),
    (f"1/9*x*(10^{HALF} + y)^2", "coefficient", 0),
], ids=["power", "power-of-a-group", "denominator", "denominator-at-the-limit", "power-of-a-monomial",
        "product", "limit", "power-of-a-sum"])
def test_number_past_the_digit_limit_is_a_parse_error(text, what, position):
    assert _refused(text) == (f"{what} has more than {LIMIT} digits (at position {position})", position)


@needs_limit
def test_huge_power_of_a_number_is_refused_before_it_is_computed():
    start = time.perf_counter()
    assert _refused("2^100000000*x") == (f"power has more than {LIMIT} digits (at position 1)", 1)
    assert time.perf_counter() - start < 1.0  # computing 2^100000000 takes about a second


@needs_limit
def test_numbers_up_to_the_digit_limit_parse_and_render():
    assert to_text(parse_poly(f"10^{LIMIT - 1}", 1), ("x1", "y")) == "1" + "0" * (LIMIT - 1)
    assert to_text(parse_poly(f"-(1/10)^{LIMIT - 1}*x", 1), ("x1", "y")) == f"-1/1{'0' * (LIMIT - 1)}*x1"
    # in lowest terms: the numerator stored over the common denominator 11 has LIMIT + 1 digits
    p = parse_poly(f"1/11*x + 10^{LIMIT - 1}*y", 1)
    assert p.den == 11 and p.nums[0, 1] >= 10 ** LIMIT
    assert p.terms == {(1, 0): Fraction(1, 11), (0, 1): 10 ** (LIMIT - 1)}
    assert to_text(p, ("x1", "y")).endswith("+ 1" + "0" * (LIMIT - 1) + "*y")


@needs_limit
@given(st.integers(2, 10 ** 12), st.integers(1, 10 ** 6), st.integers(0, 5000))
@settings(max_examples=100, deadline=None)
def test_power_of_a_number_is_refused_exactly_past_the_digit_limit(p, q, e):
    r = Fraction(p, q) ** e
    fits = max(abs(r.numerator), r.denominator) < 10 ** LIMIT
    try:
        got = parse_poly(f"({p}/{q})^{e}", 1)
    except PolyParseError as exc:
        assert not fits, str(exc)
    else:
        assert fits
        assert got.constant_value() == r


@needs_limit
def test_a_limit_of_zero_refuses_nothing():
    sys.set_int_max_str_digits(0)
    try:
        assert parse_poly(f"10^{LIMIT}*x", 1).nums == {(1, 0): 10 ** LIMIT}
    finally:
        sys.set_int_max_str_digits(LIMIT)


@pytest.mark.parametrize("n", [MAX_DIMENSION + 1, 10 ** 20])
def test_dimension_past_the_bound_is_refused_before_any_name_is_built(n, monkeypatch):
    def refused(n):
        raise AssertionError("the names of the ring were built")

    monkeypatch.setattr(parsing, "_ring_slots", refused)
    with pytest.raises(ValueError, match=f"^spatial dimension must be at most {MAX_DIMENSION}$"):
        parse_poly("x1 + y", n)


def test_zero_denominator_is_refused_at_its_position():
    with pytest.raises(PolyParseError, match=r"^zero denominator \(at position 2\)$") as exc:
        parse_poly("1/0", 1)
    assert exc.value.position == 2


def test_unexpected_character_is_refused_at_its_position():
    with pytest.raises(PolyParseError, match=r"^unexpected character '\$' \(at position 2\)$") as exc:
        parse_poly("x $ 1", 1)
    assert exc.value.position == 2
