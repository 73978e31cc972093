"""The integer-numerator kernels against plain ``Fraction`` references.

A ``Poly`` holds integer numerators over one common denominator, and
every operation on it (sum, difference, scalar and polynomial product,
derivative, the Laplacian, substitution, the particular solution and the
harmonic corrections) computes on those integers, as do its readers (text
and LaTeX rendering, JSON, exact and float evaluation).  Each is checked
here against a term-by-term ``Fraction`` loop written in this file, on
random polynomials.  The parser, which builds that form directly, is
checked against the parser as it was when it built a ``Poly`` per atom, on
random expressions.  The y-family generator, which forms scalar quotients
and family members as integer numerator/denominator pairs, is checked
against the generator as it was when it computed on ``Fraction``.  The
x-integrated particular solution, now the y-integrated series with x and
y swapped, is checked against the ``Fraction`` loop that computed it.
"""

import json
import math
import re
from fractions import Fraction
from functools import lru_cache

import pytest
from hypothesis import given, settings, strategies as st

from layerpoisson import dirichlet, mixed
from layerpoisson.parsing import PolyParseError, parse_expr
from layerpoisson.particular import inv_laplacian, inv_laplacian_monomial_alt
from layerpoisson.polyring import Poly, to_latex, to_text
from layerpoisson.series import correction, quotient

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



# -- the parser against the one that built a Poly per atom ------------------

_REF_TOKEN_RE = re.compile(r"(\d+\.\d*|\.\d+)|(\d+)|([A-Za-z_][A-Za-z_0-9]*)|([-+*/^()])")


def ref_tokenize(text):
    tokens = []
    pos = 0
    while pos < len(text):
        if text[pos].isspace():
            pos += 1
            continue
        m = _REF_TOKEN_RE.match(text, pos)
        if not m:
            raise PolyParseError(f"unexpected character {text[pos]!r}", pos)
        if m.group(1):
            raise PolyParseError("floating-point literals are not accepted", pos)
        if m.group(2):
            tokens.append(("int", m.group(2), pos))
        elif m.group(3):
            tokens.append(("name", m.group(3), pos))
        else:
            tokens.append(("op", m.group(4), pos))
        pos = m.end()
    return tokens


class RefParser:
    """Recursive descent that builds a Poly per atom and adds terms pairwise."""

    def __init__(self, text, names, allow_negative_exponents):
        self.text = text
        self.names = {name: i for i, name in enumerate(names)}
        self.nvars = len(names)
        self.allow_negative_exponents = allow_negative_exponents
        self.tokens = ref_tokenize(text)
        self.pos = 0

    def peek(self):
        return self.tokens[self.pos] if self.pos < len(self.tokens) else (None, None, len(self.text))

    def take(self):
        tok = self.peek()
        self.pos += 1
        return tok

    def expect_op(self, op):
        kind, value, at = self.take()
        if kind != "op" or value != op:
            raise PolyParseError(f"expected {op!r}", at)

    def parse(self):
        p = self.expr()
        kind, value, at = self.peek()
        if kind is not None:
            raise PolyParseError(f"unexpected {value!r}", at)
        return p

    def expr(self):
        p = self.term()
        while True:
            kind, value, _ = self.peek()
            if kind == "op" and value in "+-":
                self.take()
                q = self.term()
                p = p + q if value == "+" else p - q
            else:
                return p

    def term(self):
        p = self.unary()
        while True:
            kind, value, _ = self.peek()
            if kind == "op" and value == "*":
                self.take()
                p = p * self.unary()
            else:
                return p

    def unary(self):
        sign = 1
        while True:
            kind, value, _ = self.peek()
            if kind == "op" and value in "+-":
                self.take()
                if value == "-":
                    sign = -sign
            else:
                break
        p = self.power()
        return p if sign == 1 else -p

    def power(self):
        p = self.atom()
        kind, value, at = self.peek()
        if kind == "op" and value == "^":
            self.take()
            e = self.exponent()
            if e >= 0:
                return p ** e
            if len(p.nums) != 1:
                raise PolyParseError("negative exponent requires a single monomial base", at)
            (exp, num), = p.nums.items()
            return Poly.monomial(
                self.nvars, tuple(v * e for v in exp), Fraction(num, p.den) ** e
            )
        return p

    def exponent(self):
        negative = False
        kind, value, at = self.take()
        if kind == "op" and value == "-" and self.allow_negative_exponents:
            negative = True
            kind, value, at = self.take()
        if kind != "int":
            raise PolyParseError("exponent must be a non-negative integer literal", at)
        e = int(value)
        if negative:
            return -e
        return e

    def atom(self):
        kind, value, at = self.take()
        if kind == "int":
            num = int(value)
            k, v, _ = self.peek()
            if k == "op" and v == "/":
                self.take()
                k2, v2, at2 = self.take()
                if k2 != "int":
                    raise PolyParseError("expected integer denominator", at2)
                den = int(v2)
                if den == 0:
                    raise PolyParseError("zero denominator", at2)
                return Poly.const(self.nvars, Fraction(num, den))
            return Poly.const(self.nvars, num)
        if kind == "name":
            if value not in self.names:
                raise PolyParseError(f"unknown variable {value!r}", at)
            return Poly.variable(self.nvars, self.names[value])
        if kind == "op" and value == "(":
            p = self.expr()
            self.expect_op(")")
            return p
        raise PolyParseError("expected a number, variable, or parenthesized expression", at)


def parsed(parser, text, allow):
    """The Poly that parser makes of text, or the message and position of its error."""
    try:
        return parser(text, XYA, allow)
    except PolyParseError as exc:
        return str(exc), exc.position


def ref_parse_expr(text, names, allow_negative_exponents):
    return RefParser(text, names, allow_negative_exponents).parse()


def _joined(parts, ops):
    """Token lists parts[i] joined by the operator tokens ops[i - 1]."""
    return [tok for i, part in enumerate(parts) for tok in ([ops[i - 1]] if i else []) + part]


def _power(base, e):
    return base + ["^"] + (["-", str(-e)] if e < 0 else [str(e)])


integer_literals = st.integers(0, 12).map(lambda k: [str(k)])
rational_literals = st.tuples(st.integers(0, 12), st.integers(1, 9)).map(lambda t: [str(t[0]), "/", str(t[1])])
variables = st.sampled_from(XYA).map(lambda name: [name])
positive = st.tuples(st.integers(1, 12), st.integers(1, 9)).map(lambda t: [str(t[0]), "/", str(t[1])])
# a single monomial takes any integer power: "a^-2", "2/3^-1", "y^0"
monomial_powers = st.tuples(st.one_of(variables, positive), st.integers(-2, 3)).map(lambda t: _power(*t))
atoms = st.one_of(integer_literals, rational_literals, variables, monomial_powers)


def _compound(inner, group_exponents):
    group = inner.map(lambda toks: ["(", *toks, ")"])
    factor = st.one_of(atoms, group, st.tuples(group, group_exponents).map(lambda t: _power(*t)))
    signed = st.tuples(st.lists(st.sampled_from("+-"), max_size=2), factor).map(lambda t: t[0] + t[1])
    product = st.lists(signed, min_size=1, max_size=3).map(lambda fs: _joined(fs, ["*"] * len(fs)))
    return st.lists(product, min_size=1, max_size=3).flatmap(
        lambda ps: st.lists(st.sampled_from("+-"), min_size=len(ps), max_size=len(ps)).map(
            lambda ops: _joined(ps, ops)))


# well-formed expressions, and ones that may also raise a group to a negative power
expressions = st.recursive(atoms, lambda inner: _compound(inner, st.integers(0, 2)), max_leaves=8)
any_expressions = st.recursive(atoms, lambda inner: _compound(inner, st.integers(-1, 2)), max_leaves=8)
separators = st.sampled_from(["", " "])


@given(expressions, separators)
@settings(max_examples=200, deadline=None)
def test_parser_matches_reference(tokens, sep):
    text = sep.join(tokens)
    got = parsed(parse_expr, text, True)
    assert isinstance(got, Poly), got
    assert got == parsed(ref_parse_expr, text, True)
    # without negative exponents, both refuse the same "-" or take the same string
    assert parsed(parse_expr, text, False) == parsed(ref_parse_expr, text, False)


@given(any_expressions, separators, st.booleans(), st.data())
@settings(max_examples=300, deadline=None)
def test_parser_errors_match_reference(tokens, sep, allow, data):
    # one token dropped or duplicated; the result, or the error and its position, must agree
    i = data.draw(st.integers(0, len(tokens) - 1))
    copies = data.draw(st.sampled_from([0, 2]))
    text = sep.join(tokens[:i] + tokens[i:i + 1] * copies + tokens[i + 1:])
    assert parsed(parse_expr, text, allow) == parsed(ref_parse_expr, text, allow)


# -- the y-families against the generator that computed on Fraction --------


def ref_sinhc(i):
    return Fraction((-1) ** i, math.factorial(2 * i + 1))


def ref_cosh(i):
    return Fraction((-1) ** i, math.factorial(2 * i))


def ref_one(i):
    return Fraction(i == 0)


def ref_zero(i):
    return Fraction(0)


REF_QUOTIENTS = {
    "t/sinh t": (ref_one, ref_sinhc),
    "t coth t": (ref_cosh, ref_sinhc),
    "tanh(t)/t": (ref_sinhc, ref_cosh),
    "sech t": (ref_one, ref_cosh),
}


@lru_cache(maxsize=None)
def ref_quotient(name, j):
    if j < 0:
        return Fraction(0)
    N, D = REF_QUOTIENTS[name]
    Q = [ref_quotient(name, i) for i in range(j)]
    return N(j) - sum((D(i) * Q[j - i] for i in range(1, j + 1)), Fraction(0))


def ref_member(j, a, A=ref_zero, B=ref_zero, odd=False):
    unit = {}
    for i in range(j + 1):
        ca, cb = A(j - i), B(j - i)
        if ca:
            unit[2 * i] = ca * ref_cosh(i)
        if cb:
            unit[2 * i + 1] = cb * ref_sinhc(i)
    degree = 2 * j + odd
    if a is None:
        return Poly(2, {(l, degree - l): c for l, c in unit.items()})
    return Poly(1, {(l,): c * a ** (degree - l) for l, c in unit.items()})


REF_FAMILIES = {
    "c": lambda j, a: ref_member(j, a, B=lambda i: ref_quotient("t/sinh t", i)),
    "c_flip": lambda j, a: ref_member(j, a, A=ref_one, B=lambda i: -ref_quotient("t coth t", i)),
    "d": lambda j, a: ref_member(j, a, A=ref_one, B=lambda i: ref_quotient("tanh(t)/t", i - 1)),
    "e": lambda j, a: ref_member(j, a, B=lambda i: ref_quotient("sech t", i), odd=True),
}

family_widths = st.one_of(
    st.none(), st.builds(Fraction, st.integers(1, 10**6), st.integers(1, 10**6)))


@given(st.sampled_from(sorted(REF_QUOTIENTS)), st.integers(0, 40))
@settings(max_examples=100, deadline=None)
def test_quotient_matches_fraction_reference(name, j):
    # a reduced pair with a positive denominator
    ref = ref_quotient(name, j)
    assert quotient(name, j) == (ref.numerator, ref.denominator)


@given(st.sampled_from(sorted(FAMILIES)), st.integers(0, 30), family_widths)
@settings(max_examples=150, deadline=None)
def test_family_member_matches_fraction_reference(name, j, a):
    got, ref = FAMILIES[name](j, a), REF_FAMILIES[name](j, a)
    assert (got.nvars, got.den, got.nums) == (ref.nvars, ref.den, ref.nums)


# -- the x-integrated particular solution ------------------------------------


def ref_inv_laplacian_monomial_alt(k, m):
    """Σ_j (-1)^j k!m!/((k+2j+2)!(m-2j)!) x^(k+2j+2) y^(m-2j), one Fraction term at a time."""
    result = Poly.zero(2)
    sign = 1
    ratio = Fraction(1)   # k!/(k+2j+2)!
    fall = Fraction(1)    # m!/(m-2j)! = m(m-1)...(m-2j+1)
    for j in range(m // 2 + 1):
        ratio *= Fraction(1, (k + 2 * j + 1) * (k + 2 * j + 2))
        result = result + Poly.monomial(2, (k + 2 * j + 2, m - 2 * j), sign * ratio * fall)
        fall *= (m - 2 * j) * (m - 2 * j - 1)
        sign = -sign
    return result


@given(st.integers(0, 30), st.integers(0, 30))
@settings(max_examples=150, deadline=None)
def test_x_integrated_solution_matches_fraction_reference(k, m):
    got, ref = inv_laplacian_monomial_alt(k, m), ref_inv_laplacian_monomial_alt(k, m)
    assert (got.nvars, got.den, got.nums) == (ref.nvars, ref.den, ref.nums)
    assert to_text(got, ("x", "y")) == to_text(ref, ("x", "y"))


@given(st.integers(0, 30), st.integers(0, 30))
@settings(max_examples=150, deadline=None)
def test_x_integrated_solution_solves_the_monomial(k, m):
    u1 = inv_laplacian_monomial_alt(k, m)
    assert u1.laplacian(1) == Poly.monomial(2, (k, m))
    assert u1.total_degree() == k + m + 2


# -- the Δ_x series on data with large content -------------------------------
# apply_dx_series takes each power's integer content out and cancels it
# against each image's denominator, so these data make that content large:
# numerators of up to 30 digits that share a factor of up to 28, or are
# independent, over a denominator of up to 25 digits, with exponents up to
# 16 (whose Δ_x powers carry large factorials).

EXP16 = st.integers(0, 16)
CONTENT_WIDTHS = st.one_of(
    st.sampled_from([None, Fraction(1), Fraction(7, 3)]),
    st.tuples(st.integers(1, 40), st.integers(1, 40)).map(lambda t: Fraction(*t)),
)


def content_terms(n, y):
    """Term maps over x1..xn, y (y exponent from ``y``) with large numerators and denominators."""
    exps = st.tuples(*[EXP16] * n, y)
    shared = st.builds(
        lambda k, d, small: {exp: Fraction(k * s, d) for exp, s in small.items()},
        st.integers(1, 10**28), st.integers(1, 10**25),
        st.dictionaries(exps, st.integers(-99, 99).filter(bool), min_size=1, max_size=4),
    )
    independent = st.dictionaries(
        exps, st.builds(Fraction, st.integers(-10**30, 10**30), st.integers(1, 10**25)), max_size=4
    )
    return st.one_of(shared, independent)


@given(st.integers(1, 3).flatmap(lambda n: st.tuples(st.just(n), content_terms(n, EXP16))))
@settings(max_examples=40, deadline=None)
def test_inv_laplacian_on_large_content_matches_fraction_reference(case):
    n, terms = case
    P = Poly(n + 1, terms)
    assert inv_laplacian(P, n).terms == ref_inv_laplacian(P.terms, n)


@pytest.mark.parametrize("name", sorted(FAMILIES))
@given(case=st.integers(1, 3).flatmap(lambda n: st.tuples(st.just(n), content_terms(n, st.just(0)))),
       a=CONTENT_WIDTHS)
@settings(max_examples=25, deadline=None)
def test_correction_on_large_content_matches_fraction_reference(name, case, a):
    n, terms = case
    family = FAMILIES[name]
    g = Poly(n + 1, terms)
    assert correction(family, g, n, a).terms == ref_correction(family, g.terms, n, a)
