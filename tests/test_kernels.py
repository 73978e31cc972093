"""The integer-numerator kernels against plain ``Fraction`` references.

A ``Poly`` holds integer numerators over one common denominator, and
every operation on it (sum, difference, scalar and polynomial product,
derivative, the Laplacian, substitution, the particular solution and the
harmonic corrections) computes on those integers, as do its readers (text
and LaTeX rendering, JSON, exact and float evaluation).  Each is checked
here against a term-by-term ``Fraction`` loop written in this file, on
random polynomials.
"""

import json
import math
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from layerpoisson import dirichlet, mixed
from layerpoisson.parsing import parse_expr
from layerpoisson.particular import inv_laplacian
from layerpoisson.polyring import Poly, to_latex, to_text
from layerpoisson.series import correction

FAMILIES = {"c": dirichlet._c, "c_flip": dirichlet._c_flip, "d": mixed._d, "e": mixed._e}

rationals = st.fractions(min_value=-7, max_value=7, max_denominator=9)
nonzero = rationals.filter(bool)
widths = st.one_of(st.none(), st.fractions(min_value=Fraction(1, 9), max_value=5, max_denominator=9))


EXP = st.integers(0, 5)
LAURENT = st.integers(-3, 3)  # exponents of the width slot a


def term_maps(*slots):
    """Random term maps whose i-th exponent is drawn from slots[i]."""
    return st.dictionaries(st.tuples(*slots), rationals, max_size=8)


# -- plain Fraction references ---------------------------------------------


def ref_add(p, q, sign=1):
    out = dict(p)
    for exp, c in q.items():
        out[exp] = out.get(exp, Fraction(0)) + sign * c
    return {exp: c for exp, c in out.items() if c}


def ref_scale(terms, r):
    return {exp: c * r for exp, c in terms.items() if c * r}


def ref_mul(p, q):
    out = {}
    for ea, ca in p.items():
        for eb, cb in q.items():
            key = tuple(i + j for i, j in zip(ea, eb))
            out[key] = out.get(key, Fraction(0)) + ca * cb
    return {exp: c for exp, c in out.items() if c}


def ref_diff(terms, var, order):
    out = {}
    for exp, c in terms.items():
        e = exp[var]
        fall = math.prod(e - i for i in range(order))
        if fall:
            out[exp[:var] + (e - order,) + exp[var + 1:]] = c * fall
    return out


def ref_subs_poly(terms, var, value, nvars):
    out, one = {}, {(0,) * nvars: Fraction(1)}
    for exp, c in terms.items():
        power = one
        for _ in range(exp[var]):
            power = ref_mul(power, value)
        rest = {exp[:var] + (0,) + exp[var + 1:]: c}
        out = ref_add(out, ref_mul(rest, power))
    return out


def ref_second_partials(terms, count):
    out = {}
    for exp, c in terms.items():
        for var in range(count):
            e = exp[var]
            if e >= 2:
                key = exp[:var] + (e - 2,) + exp[var + 1:]
                out[key] = out.get(key, Fraction(0)) + c * e * (e - 1)
    return {exp: c for exp, c in out.items() if c}


def ref_subs(terms, var, r):
    out = {}
    for exp, c in terms.items():
        key = exp[:var] + (0,) + exp[var + 1:]
        out[key] = out.get(key, Fraction(0)) + c * r ** exp[var]
    return {exp: c for exp, c in out.items() if c}


def ref_sorted(terms):
    """Terms in canonical order: graded lexicographic, highest first."""
    return sorted(terms.items(), key=lambda t: (sum(t[0]), t[0]), reverse=True)


def ref_render(terms, names, latex):
    """The renderer as it was when it formatted reduced ``Fraction`` coefficients."""
    if not terms:
        return "0"
    times, power = ("", "{}^{{{}}}") if latex else ("*", "{}^{}")
    pieces = []
    for i, (exp, coeff) in enumerate(ref_sorted(terms)):
        mono = times.join(
            name if e == 1 else power.format(name, e)
            for name, e in zip(names, exp)
            if e != 0
        )
        mag = abs(coeff)
        if latex and mag.denominator != 1:
            number = f"\\frac{{{mag.numerator}}}{{{mag.denominator}}}"
        else:
            number = str(mag)
        if not mono:
            body = number
        elif mag == 1:
            body = mono
        else:
            body = f"{number}{times}{mono}"
        if i == 0:
            pieces.append(f"-{body}" if coeff < 0 else body)
        else:
            pieces.append(f"- {body}" if coeff < 0 else f"+ {body}")
    return " ".join(pieces)


def ref_json(terms, nvars):
    return {
        "nvars": nvars,
        "terms": [{"exp": list(exp), "coeff": str(c)} for exp, c in ref_sorted(terms)],
    }


def ref_eval(terms, point):
    total = Fraction(0)
    for exp, c in terms.items():
        for v, e in zip(point, exp):
            c *= Fraction(v) ** e
        total += c
    return total


def ref_eval_float(terms, point):
    total = 0.0
    for exp, c in terms.items():
        val = float(c)
        for v, e in zip(point, exp):
            if e:
                val *= float(v) ** e
        total += val
    return total


def ref_series(terms, n, image):
    """Σ_j Σ_terms c * image(j, m) for the terms c x^k y^m of Δ_x^j g."""
    out, j = {}, 0
    while terms:
        for exp, c in terms.items():
            for tail, q in image(j, exp[n]).items():
                key = exp[:n] + tail
                out[key] = out.get(key, Fraction(0)) + c * q
        terms = ref_second_partials(terms, n)
        j += 1
    return {exp: c for exp, c in out.items() if c}


def ref_inv_laplacian(terms, n):
    def image(j, m):
        e = m + 2 * j + 2
        return {(e,): Fraction((-1) ** j * math.factorial(m), math.factorial(e))}

    return ref_series(terms, n, image)


def ref_correction(family, terms, n, a):
    return ref_series(terms, n, lambda j, m: dict(family(j, a).terms))


# -- the kernels against them -----------------------------------------------


@given(st.integers(1, 3).flatmap(lambda n: st.tuples(st.just(n), term_maps(*[EXP] * (n + 1), LAURENT))))
@settings(max_examples=80, deadline=None)
def test_laplacian_matches_fraction_reference(case):
    # the last slot is a Laurent width slot that the Laplacian leaves alone
    n, terms = case
    p = Poly(n + 2, terms)
    assert p.laplacian(n).terms == ref_second_partials(p.terms, n + 1)


laurent_terms = term_maps(EXP, EXP, LAURENT)  # x1, y, a


@given(laurent_terms, laurent_terms)
@settings(max_examples=80, deadline=None)
def test_sum_and_difference_match_reference(p_terms, q_terms):
    p, q = Poly(3, p_terms), Poly(3, q_terms)
    assert (p + q).terms == ref_add(p.terms, q.terms)
    assert (p - q).terms == ref_add(p.terms, q.terms, -1)
    assert (-p).terms == ref_scale(p.terms, -1)


@given(laurent_terms, rationals)
@settings(max_examples=80, deadline=None)
def test_scalar_product_and_quotient_match_reference(terms, r):
    p = Poly(3, terms)
    assert (p * r).terms == ref_scale(p.terms, r)
    assert (r * p).terms == ref_scale(p.terms, r)
    if r:
        assert (p / r).terms == ref_scale(p.terms, 1 / r)


@given(laurent_terms, laurent_terms)
@settings(max_examples=80, deadline=None)
def test_polynomial_product_matches_reference(p_terms, q_terms):
    p, q = Poly(3, p_terms), Poly(3, q_terms)
    assert (p * q).terms == ref_mul(p.terms, q.terms)


@given(laurent_terms, st.sampled_from([0, 1, 2]), st.integers(0, 3))
@settings(max_examples=80, deadline=None)
def test_diff_matches_reference(terms, var, order):
    # var 2 is the Laurent slot: negative powers have nonzero derivatives of every order
    p = Poly(3, terms)
    assert p.diff(var, order).terms == ref_diff(p.terms, var, order)


@given(term_maps(EXP, st.integers(0, 3), LAURENT), laurent_terms.filter(lambda t: len(t) <= 3),
       st.sampled_from([0, 1]))
@settings(max_examples=60, deadline=None)
def test_subs_of_a_polynomial_matches_reference(terms, value_terms, var):
    p, value = Poly(3, terms), Poly(3, value_terms)
    assert p.subs(var, value).terms == ref_subs_poly(p.terms, var, value.terms, 3)


@given(laurent_terms, st.sampled_from([0, 1]), st.one_of(st.just(Fraction(0)), rationals))
@settings(max_examples=80, deadline=None)
def test_subs_of_a_spatial_or_vertical_scalar_matches_reference(terms, var, r):
    p = Poly(3, terms)
    assert p.subs(var, r).terms == ref_subs(p.terms, var, r)


@given(laurent_terms, nonzero)
@settings(max_examples=80, deadline=None)
def test_subs_into_the_laurent_slot_matches_reference(terms, r):
    p = Poly(3, terms)
    assert p.subs(2, r).terms == ref_subs(p.terms, 2, r)


@given(laurent_terms)
@settings(max_examples=40, deadline=None)
def test_subs_of_zero_into_a_negative_power_raises(terms):
    p = Poly(3, terms)
    if any(exp[2] < 0 for exp in p.terms):
        with pytest.raises(ZeroDivisionError):
            p.subs(2, 0)
    else:
        assert p.subs(2, 0).terms == ref_subs(p.terms, 2, Fraction(0))


@given(st.integers(1, 3).flatmap(lambda n: st.tuples(st.just(n), term_maps(*[EXP] * (n + 1)))))
@settings(max_examples=60, deadline=None)
def test_inv_laplacian_matches_fraction_reference(case):
    n, terms = case
    P = Poly(n + 1, terms)
    assert inv_laplacian(P, n).terms == ref_inv_laplacian(P.terms, n)


@pytest.mark.parametrize("name", sorted(FAMILIES))
@given(case=st.integers(1, 3).flatmap(
    lambda n: st.tuples(st.just(n), term_maps(*[EXP] * n, st.just(0)))), a=widths)
@settings(max_examples=30, deadline=None)
def test_correction_matches_fraction_reference(name, case, a):
    # symbolic width (a=None) puts the result in x1..xn, y, a
    n, terms = case
    family = FAMILIES[name]
    g = Poly(n + 1, terms)
    assert correction(family, g, n, a).terms == ref_correction(family, g.terms, n, a)


# -- the readers against them -----------------------------------------------

XYA = ("x1", "y", "a")
LATEX_XYA = ("x_{1}", "y", "a")
wide = st.one_of(
    rationals,
    st.integers(-10**40, 10**40),
    st.fractions(min_value=-10**12, max_value=10**12, max_denominator=10**25),
)
wide_polys = st.dictionaries(st.tuples(EXP, EXP, LAURENT), wide, max_size=8).map(lambda t: Poly(3, t))


@given(wide_polys)
@settings(max_examples=150, deadline=None)
def test_text_and_json_round_trip(p):
    assert parse_expr(to_text(p, XYA), XYA, allow_negative_exponents=True) == p
    assert Poly.from_json_dict(json.loads(json.dumps(p.to_json_dict()))) == p


@given(wide_polys)
@settings(max_examples=150, deadline=None)
def test_renderers_and_json_match_fraction_reference(p):
    assert to_text(p, XYA) == ref_render(p.terms, XYA, latex=False)
    assert to_latex(p, XYA) == ref_render(p.terms, LATEX_XYA, latex=True)
    assert p.to_json_dict() == ref_json(p.terms, 3)
    assert repr(p) == f"Poly(3, {dict(ref_sorted(p.terms))!r})"


@given(wide_polys, rationals, rationals, nonzero)
@settings(max_examples=150, deadline=None)
def test_eval_and_eval_float_match_fraction_reference(p, x, y, a):
    assert p.eval((x, y, a)) == ref_eval(p.terms, (x, y, a))
    point = (float(x), float(y), float(a))
    assert p.eval_float(point) == ref_eval_float(p.terms, point)
