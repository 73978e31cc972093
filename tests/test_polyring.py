import json
import sys
import time
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from layerpoisson.polyring import (
    Poly, Ring, _decimal, _integer, _json_text, lift, poly_sum, reduced, to_latex, to_text)
from layerpoisson.parsing import parse_expr

from conftest import P, XY, XYA, YA


def test_add_cancellation():
    assert P("x1^2 + y") + P("-x1^2") == P("y")


def test_add_identity():
    p = P("3*x1^2*y - 1/2")
    assert p + Poly.zero(2) == p


def test_add_rational_reduction():
    assert P("1/3*y") + P("1/6*y") == P("1/2*y")


def test_add_nvars_mismatch():
    with pytest.raises(ValueError):
        P("x1") + Poly.variable(3, 0)


def test_mul_basic():
    x = P("x1")
    assert x * x == P("x1^2")
    p = P("x1^3 - 2*y")
    assert p * Poly.const(2, 1) == p
    assert P("x1 - y") * P("x1 + y") == P("x1^2 - y^2")


def test_diff_examples():
    assert P("y^3").diff(1) == P("3*y^2")
    assert P("x1^4*y").diff(0, 2) == P("12*x1^2*y")
    assert P("y^2").diff(0) == Poly.zero(2)


def test_diff_commutes():
    p = P("x1^3*y^2 - 5*x1*y^4 + 7")
    assert p.diff(0).diff(1) == p.diff(1).diff(0)


def test_laplacian_particular_example():
    u = P("1/20*x1^4*y^5 - 1/70*x1^2*y^7 + 1/2520*y^9")
    assert u.laplacian(1) == P("x1^4*y^3")


def test_laplacian_harmonic():
    assert P("x1^2 - y^2").laplacian(1).is_zero()


def test_laplacian_3d_example():
    from conftest import X3Y

    u = P(
        "1/20*x1^3*x2^2*x3*y^5 - 1/420*x1^3*x3*y^7 - 1/140*x1*x2^2*x3*y^7"
        " + 1/2520*x1*x3*y^9",
        X3Y,
    )
    assert u.laplacian(3) == P("x1^3*x2^2*x3*y^3", X3Y)


def test_laplacian_skips_formal_width():
    p = P("y^2*a^2", XYA)
    assert p.laplacian(1) == P("2*a^2", XYA)


def test_laplacian_dimension_error():
    with pytest.raises(ValueError):
        P("x1*y").laplacian(2)


def test_subs_boundary_traces():
    ring = Ring(0, formal_a=True)
    u0 = P("y*a^-1", ("y", "a"))
    assert u0.subs(ring.y, ring.a_var()) == Poly.const(2, 1)
    strip = P("x1^2 - y^2 + y")
    assert strip.subs(1, 0) == P("x1^2")
    assert strip.subs(1, 1) == P("x1^2")


def test_subs_polynomial_value():
    p = P("x1^2*y + y^2")
    assert p.subs(1, P("x1 - 1")) == P("x1^3 - x1^2 + x1^2 - 2*x1 + 1")


def test_subs_involution():
    ring = Ring(1, formal_a=True)
    p = P("x1^3*y^2 - y*a + 5*a^2", XYA)
    flip = ring.a_var() - ring.y_var()
    assert p.subs(ring.y, flip).subs(ring.y, flip) == p


def test_eval():
    assert P("x1^2 + y").eval((2, 3)) == 7
    assert Poly.zero(2).eval((5, 11)) == 0
    # f_2 at a=1, y=1/2: -y(y^2-a^2)/(3a)
    f2 = P("-1/3*y^3*a^-1 + 1/3*y*a", ("y", "a"))
    assert f2.eval((Fraction(1, 2), 1)) == Fraction(1, 8)


def test_eval_length_mismatch():
    with pytest.raises(ValueError):
        P("x1").eval((1, 2, 3))


def test_negative_exponent_arithmetic():
    ainv = P("a^-1", ("y", "a"))
    a = P("a", ("y", "a"))
    assert ainv * a == Poly.const(2, 1)
    assert ainv.subs(1, Fraction(7, 3)) == Poly.const(2, Fraction(3, 7))


def test_canonical_text_round_trip():
    text = "1/20*x1^4*y^5 - 1/70*x1^2*y^7 + 1/2520*y^9"
    p = P(text)
    assert to_text(p, XY) == text
    assert parse_expr(to_text(p, XY), XY) == p


def test_json_round_trip():
    p = P("-3*x1^2*y + 1/2*y^3 - 7")
    blob = json.dumps(p.to_json_dict())
    assert Poly.from_json_dict(json.loads(blob)) == p


def test_json_term_order_is_canonical():
    p = P("y^9 + x1^2*y^7 + x1^4*y^5")
    exps = [tuple(t["exp"]) for t in p.to_json_dict()["terms"]]
    assert exps == [(4, 5), (2, 7), (0, 9)]


def test_latex_rendering():
    p = P("1/3*x1^2*y - y^2 + 2")
    assert to_latex(p, XY) == "\\frac{1}{3}x_{1}^{2}y - y^{2} + 2"


def test_text_and_latex_rendering_of_a_laurent_polynomial():
    # unit and rational coefficients of both signs, a negative power of a, a constant
    p = P("x1^2*y^2 - 3/4*x1*y*a - y*a^-1 + 7/2", XYA)
    assert to_text(p, XYA) == "x1^2*y^2 - 3/4*x1*y*a - y*a^-1 + 7/2"
    assert to_latex(p, XYA) == "x_{1}^{2}y^{2} - \\frac{3}{4}x_{1}ya - ya^{-1} + \\frac{7}{2}"


@pytest.mark.parametrize("coeff", [0.5, 2.0, True, False])
def test_inexact_coefficients_are_rejected(coeff):
    with pytest.raises(TypeError):
        Poly(2, {(1, 0): coeff})
    with pytest.raises(TypeError):
        Poly.const(2, coeff)


INEXACT = [0.5, 2.0, True, False]


@pytest.mark.parametrize("value", INEXACT)
def test_inexact_coefficient_in_a_term_map_is_rejected(value):
    with pytest.raises(TypeError):
        Poly(2, [((0, 1), 1), ((0, 1), value)])


@pytest.mark.parametrize("entry", [1.5, 2.0, True, False, "2", Fraction(1)])
def test_non_integer_exponent_entry_is_rejected(entry):
    with pytest.raises(TypeError, match=f"exponent entries must be integers, not {type(entry).__name__}"):
        Poly(2, {(entry, 0): 3})
    with pytest.raises(TypeError, match="exponent entries must be integers"):
        Poly.monomial(2, (0, entry))


@pytest.mark.parametrize("entry", ["1.5", "true", '"2"'])
def test_non_integer_exponent_entry_in_json_is_rejected(entry):
    blob = f'{{"nvars": 2, "terms": [{{"exp": [{entry}, 0], "coeff": "3"}}]}}'
    with pytest.raises(TypeError, match="exponent entries must be integers"):
        Poly.from_json_dict(json.loads(blob))


@pytest.mark.parametrize("value", INEXACT)
def test_inexact_scalar_operand_is_rejected(value):
    # + and - go through _coerce
    p = P("x1 + y")
    with pytest.raises(TypeError):
        p + value
    with pytest.raises(TypeError):
        value - p


@pytest.mark.parametrize("value", INEXACT)
def test_inexact_scalar_factor_is_rejected(value):
    p = P("x1 + y")
    with pytest.raises(TypeError):
        p * value
    with pytest.raises(TypeError):
        value * p


@pytest.mark.parametrize("value", INEXACT)
def test_inexact_scalar_divisor_is_rejected(value):
    with pytest.raises(TypeError):
        P("x1 + y") / value


@pytest.mark.parametrize("value", INEXACT)
def test_inexact_substituted_scalar_is_rejected(value):
    with pytest.raises(TypeError):
        P("x1 + y").subs(0, value)


@pytest.mark.parametrize("value", INEXACT)
def test_inexact_evaluation_point_is_rejected(value):
    with pytest.raises(TypeError):
        Poly.variable(2, 0).eval([value, 0])
    with pytest.raises(TypeError):
        Poly.variable(2, 0).eval([0, value])


def test_diff_of_a_negative_power():
    assert P("a^-1", YA).diff(1) == P("-a^-2", YA)
    assert P("a^-1", YA).diff(1, 2) == P("2*a^-3", YA)
    assert P("y*a^-2 + a", YA).diff(1) == P("-2*y*a^-3 + 1", YA)


def test_laplacian_of_a_negative_power():
    # the second partial in x of 1/2*x^-1*y^2 is x^-3*y^2; it was once left out
    assert Poly(2, {(-1, 2): Fraction(1, 2)}).laplacian(1) == P("x1^-1 + x1^-3*y^2")
    assert P("x1^-2*x2^3", ("x1", "x2", "y")).laplacian(2) == P("6*x1^-4*x2^3 + 6*x1^-2*x2",
                                                                ("x1", "x2", "y"))


@pytest.mark.parametrize("flag", [True, False])
def test_comparison_with_a_bool_is_false(flag):
    p = Poly.const(2, 1)
    assert not p == flag
    assert p != flag


def test_equal_term_maps_give_equal_polys_and_hashes():
    # however a polynomial was built, its stored form is the canonical one
    half_x = Poly(1, {(1,): Fraction(1, 2)})
    assert half_x.terms == {(1,): Fraction(1, 2)}
    cases = [
        (half_x * 2, Poly(1, {(1,): 1})),
        (P("1/6*x1 + 1/3*y") - P("1/3*y + 1/6*x1"), Poly(2)),
    ]
    A, B = P("3/4*x1^2 - 5/6*y"), P("1/10*x1*y + 7/15*y - 2")
    cases += [((A + B) - B, A), ((A * 6) / 6, A)]
    for p, q in cases:
        assert p.terms == q.terms
        assert p == q
        assert hash(p) == hash(q)
        assert (p.nvars, p.den, p.nums) == (q.nvars, q.den, q.nums)


def test_a_constant_poly_is_not_equal_to_a_scalar():
    # equality is equality of (nvars, den, nums), so it agrees with the hash
    one = Poly.const(2, 1)
    assert one != 1
    assert 1 != one
    assert not one == 1
    assert Poly(2) != 0
    assert 1 not in {one}


def test_equal_polys_built_different_ways_hash_alike():
    target = Poly(2, {(1, 1): 1, (0, 0): Fraction(1, 2)})
    ways = [
        P("x1*y + 1/2"),
        (P("2*x1*y") + 1) / 2,
        P("x1 + 1/2") * P("y") + P("1/2 - 1/2*y"),
        Poly(2, [((1, 1), Fraction(2, 3)), ((0, 0), Fraction(1, 2)), ((1, 1), Fraction(1, 3))]),
        Poly.from_json_dict(target.to_json_dict()),
        lift(P("x1*y*a^2 + 1/2", XYA).subs(2, 1), 2, (0, 1, None)),
    ]
    for p in ways:
        assert p == target
        assert hash(p) == hash(target)
        assert p in {target}
    assert len(set(ways)) == 1


def test_lift_and_drop():
    p = P("y^3 - y*a^2", ("y", "a"))
    lifted = lift(p, 3, (1, 2))
    assert lifted == P("y^3 - y*a^2", XYA)
    with pytest.raises(ValueError):
        lift(p, 1, (0, None))


# -- ring axioms on random polynomials ------------------------------------

coeffs = st.fractions(
    min_value=-5, max_value=5, max_denominator=6
)
exponents = st.tuples(st.integers(0, 3), st.integers(0, 3))
polys = st.dictionaries(exponents, coeffs, max_size=5).map(lambda d: Poly(2, d))


@given(polys, polys, polys)
@settings(max_examples=60, deadline=None)
def test_ring_axioms(p, q, r):
    assert (p + q) + r == p + (q + r)
    assert p + q == q + p
    assert (p * q) * r == p * (q * r)
    assert p * q == q * p
    assert p * (q + r) == p * q + p * r
    assert p + Poly.zero(2) == p
    assert p * Poly.const(2, 1) == p


@given(polys, polys, coeffs, coeffs)
@settings(max_examples=40, deadline=None)
def test_laplacian_linear(p, q, alpha, beta):
    lhs = (alpha * p + beta * q).laplacian(1)
    assert lhs == alpha * p.laplacian(1) + beta * q.laplacian(1)


@given(polys)
@settings(max_examples=40, deadline=None)
def test_serialize_parse_fixed_point(p):
    text = to_text(p, XY)
    assert to_text(parse_expr(text, XY), XY) == text


needs_settable_limit = pytest.mark.skipif(
    not hasattr(sys, "set_int_max_str_digits"),
    reason="the interpreter has no integer string-conversion limit")


def _under_limit(limit, make):
    """make() with the integer string-conversion limit set to limit, then restored."""
    before = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(limit)
    try:
        return make()
    finally:
        sys.set_int_max_str_digits(before)


@needs_settable_limit
def test_coefficients_past_the_digit_limit_print_in_full():
    # a 700-digit numerator over a 700-digit denominator, and integers of 1401
    # and 2101 digits whose zeros cross the places where the digits are split
    num, den = -(3 * 10 ** 699 + 1), 7 * 10 ** 699 + 9
    p = Poly(2, {(2, 1): Fraction(num, den), (0, 1): 10 ** 1400 + 7, (0, 0): -(10 ** 2100)})
    assert p.terms[(2, 1)] == Fraction(num, den)

    def written():
        return to_text(p, XY), to_latex(p, XY), json.dumps(p.to_json_dict())

    expected = _under_limit(0, written)
    den_digits = _under_limit(0, lambda: str(den))
    assert len(den_digits) == 700 and all(den_digits in text for text in expected)
    assert _under_limit(640, written) == expected


@needs_settable_limit
@pytest.mark.parametrize("k", [639, 640, 641, 1279, 1280, 1281, 4300, 9000])
def test_decimal_writes_any_int_under_a_lowered_limit(k):
    values = [sign * (10 ** k + d) for sign in (1, -1) for d in (-1, 0, 1)]
    expected = _under_limit(0, lambda: [str(v) for v in values])
    assert _under_limit(640, lambda: [_decimal(v) for v in values]) == expected


@needs_settable_limit
@pytest.mark.parametrize("k", [639, 640, 641, 1279, 1280, 1281, 4300, 9000])
def test_integer_reads_any_decimal_under_a_lowered_limit(k):
    values = [sign * (10 ** k + d) for sign in (1, -1) for d in (-1, 0, 1)]
    texts = _under_limit(0, lambda: [str(v) for v in values])
    assert _under_limit(640, lambda: [_integer(t) for t in texts]) == values
    assert _under_limit(640, lambda: _integer("+" + texts[0])) == values[0]


@needs_settable_limit
@pytest.mark.parametrize("text", ["", "-", "12a", "1" * 700 + "x", "1" * 700 + "-1", "٣" * 700])
def test_integer_refuses_what_is_not_a_decimal(text):
    with pytest.raises(ValueError):
        _under_limit(640, lambda: _integer(text))


@needs_settable_limit
def test_json_and_repr_past_the_digit_limit():
    # 1/(2*(10^700 - 1))*y^2 under a limit of 640 digits, as 1/(2*(10^4300 - 1))*y^2
    # is under the default one; and a numerator that crosses it too
    den = 2 * (10 ** 700 - 1)
    p = Poly(2, {(0, 2): Fraction(1, den), (1, 0): Fraction(-(10 ** 1400 + 7), den - 1), (0, 0): 3})

    def written():
        return json.dumps(p.to_json_dict(), indent=2), repr(p)

    blob, text = expected = _under_limit(0, written)
    assert _under_limit(640, written) == expected
    assert _under_limit(640, lambda: Poly.from_json_dict(json.loads(blob))) == p
    # the repr of the map of Fractions in canonical order, as it reads with no limit
    terms = {exp: p.terms[exp] for exp in [(0, 2), (1, 0), (0, 0)]}
    assert text == _under_limit(0, lambda: f"Poly(2, {terms!r})")


def test_json_round_trip_past_the_default_digit_limit():
    p = Poly(2, {(0, 2): Fraction(1, 2 * (10 ** 4300 - 1))})
    assert Poly.from_json_dict(json.loads(json.dumps(p.to_json_dict()))) == p
    assert repr(p).startswith("Poly(2, {(0, 2): Fraction(1, 1999")


@st.composite
def json_polys(draw):
    """A Poly in 0 to 4 variables; its last slot may carry a negative (width) exponent."""
    nvars = draw(st.integers(0, 4))
    exps = st.tuples(*[st.integers(0, 6)] * (nvars - 1), st.integers(-3, 3)) if nvars else st.just(())
    coeffs = st.one_of(
        st.integers(-10 ** 40, 10 ** 40).filter(bool),
        st.builds(Fraction, st.integers(-10 ** 30, 10 ** 30).filter(bool), st.integers(1, 10 ** 25)),
        st.just(Fraction(-1, 2 * (10 ** 4300 - 1))),  # past the default digit limit
    )
    return Poly(nvars, draw(st.dictionaries(exps, coeffs, max_size=8)))


@given(json_polys(), st.integers(0, 3))
@settings(max_examples=200, deadline=None)
def test_json_writer_matches_json_dumps(p, level):
    expected = json.dumps(p.to_json_dict(), indent=2)
    assert _json_text(p) == expected
    # the same Poly as the value level lists deep
    doc = p.to_json_dict()
    for _ in range(level):
        doc = [doc]
    opening = "".join("  " * i + "[\n" for i in range(level)) + "  " * level
    closing = "".join("\n" + "  " * i + "]" for i in reversed(range(level)))
    assert json.dumps(doc, indent=2) == opening + _json_text(p, level) + closing


@pytest.mark.parametrize("p", [
    Poly(0), Poly(3), Poly.const(0, Fraction(-5, 7)), Poly.const(2, 1),
    Poly(2, {(1, -2): Fraction(1, 3), (0, 0): -(10 ** 40)}),
    # a coefficient past the default digit limit
    Poly(2, {(0, 2): Fraction(1, 2 * (10 ** 4300 - 1)), (0, 1): Fraction(-1, 2 * (10 ** 4300 - 1))}),
], ids=["zero-0", "zero-3", "constant-0", "one-2", "laurent", "past-the-limit"])
def test_json_writer_matches_json_dumps_on_edge_cases(p):
    expected = json.dumps(p.to_json_dict(), indent=2)
    assert _json_text(p) == expected
    assert json.dumps({"k": p.to_json_dict()}, indent=2) == '{\n  "k": ' + _json_text(p, 1) + "\n}"


def test_render_in_no_variables():
    assert to_text(Poly.const(0, Fraction(-5, 7)), ()) == "-5/7"
    assert to_latex(Poly.const(0, 3), ()) == "3"
    assert to_text(Poly(0), ()) == "0"


def test_negation_and_a_lone_summand_take_no_gcd():
    # one term whose parts have about 560k bits: a gcd of them takes a
    # quarter of a second, and the content of either result is known already
    p = reduced(1, 3 ** 353000, {(5,): 2 ** 560000 + 1})
    zero = Poly.zero(1)
    for shortcut in (lambda: -p, lambda: poly_sum(1, (zero, p, zero))):
        start = time.perf_counter()
        q = shortcut()
        assert time.perf_counter() - start < 0.05
        assert q.den == p.den and q.nums.keys() == p.nums.keys()
    assert (-p).nums == {(5,): -(2 ** 560000 + 1)}


def test_truth_value_is_nonzero():
    assert not Poly(2)
    assert Poly.variable(2, 0)


def test_total_degree_of_zero_is_zero():
    assert Poly(2).total_degree() == 0
