"""The layer solution operators as one series in the spatial Laplacian.

Every operator the solver needs is a function of the spatial Laplacian
Δ_x, and on polynomial data its series stops after finitely many terms:

    particular solution   Σ_j (-1)^j I_y^(j+1) Δ_x^j P,   I_y = ∫_0^y ∫_0^s
    harmonic correction   Σ_j s_j(y) Δ_x^j g

The y-family s_j of a correction is the sequence of coefficients of one
even-power-series quotient, written in s = -t^2 so that s stands for Δ_x.
``dirichlet`` and ``mixed`` define their two families each.  At unit width
the addition theorems split every such quotient as
A(s) cosh(ty) + B(s) sinh(ty)/t, where A and B are 0, 1, or one of the
scalar quotients t/sinh t, t coth t, tanh(t)/t and sech t.  So only scalar
series are divided, and s_j is a sum of j + 1 terms.  Each s_j is
homogeneous in (y, a), so at width a it is the unit-width member with y^l
scaled by a^(degree - l).  The width is a positive rational, giving
polynomials in y, or None, giving polynomials in (y, a), with negative
powers of a where the degree is below that of y.

All of it runs on integers.  A scalar coefficient is a pair (num, den):
those of cosh t and sinh(t)/t are ±1/(2i)! and ±1/(2i+1)!, and the s^j
coefficient of a quotient adds its j + 1 parts over their lcm and divides
out one gcd.  A member puts its j + 1 products A(j-i) cosh_i or
B(j-i) sinhc_i over their lcm; at a rational width p/q it scales the
numerator of y^l, e = degree - l, by p^(e - lo) q^(hi - e) over
p^-lo q^hi, as ``Poly.subs`` does, and it returns through ``reduced``.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache
from typing import Callable, Optional, Union

from .polyring import Exponent, Poly, as_scalar, reduced, second_partials

Width = Optional[Fraction]  # None = keep a symbolic
Ratio = tuple[int, int]  # num, den with den > 0
Coeff = Callable[[int], Ratio]  # s^i coefficient of a scalar series
Family = Callable[[int, Width], Poly]  # (j, width) -> s_j(y)
Image = Callable[[int, int], Poly]  # (j, m) -> T_j y^m, a Poly in y (and possibly a)


def width(a: Union[None, int, Fraction]) -> Width:
    """Validated width: None (symbolic) or a positive Fraction."""
    if a is None:
        return None
    a = as_scalar(a)
    if a <= 0:
        raise ValueError("layer width must be positive")
    return a


def normalize_index(k, n: int) -> tuple[int, ...]:
    """A multi-index of length n; a bare int is accepted for n = 1."""
    if isinstance(k, int):
        if n != 1:
            raise ValueError("integer exponent only valid for n = 1")
        k = (k,)
    k = tuple(k)
    if len(k) != n:
        raise ValueError(f"multi-index length {len(k)} does not match n={n}")
    if any(e < 0 for e in k):
        raise ValueError("multi-index entries must be non-negative")
    return k


def boundary_data(g, n: int) -> Poly:
    """Boundary data as a Poly in x1..xn, y: x^k for a multi-index k, or g itself."""
    if not isinstance(g, Poly):
        return Poly.monomial(n + 1, normalize_index(g, n) + (0,))
    if g.nvars != n + 1 or g.degree_in(n) > 0:
        raise ValueError(f"boundary data must be a Poly in x1..x{n}, y free of y")
    return g


def _zero(i: int) -> Ratio:
    return 0, 1


def one(i: int) -> Ratio:
    """s^i coefficient of the series 1."""
    return int(i == 0), 1


@lru_cache(maxsize=1024)
def _sinhc(i: int) -> Ratio:
    """s^i coefficient of sinh(t)/t; times y^(2i+1), that of sinh(ty)/t."""
    return (-1) ** i, math.factorial(2 * i + 1)


@lru_cache(maxsize=1024)
def _cosh(i: int) -> Ratio:
    """s^i coefficient of cosh(t); times y^(2i), that of cosh(ty)."""
    return (-1) ** i, math.factorial(2 * i)


def negated(c: Ratio) -> Ratio:
    """The ratio -c."""
    return -c[0], c[1]


_QUOTIENTS = {
    "t/sinh t": (one, _sinhc),
    "t coth t": (_cosh, _sinhc),
    "tanh(t)/t": (_sinhc, _cosh),
    "sech t": (one, _cosh),
}


@lru_cache(maxsize=1024)
def quotient(name: str, j: int) -> Ratio:
    """s^j coefficient of the named scalar quotient N(s)/D(s), where D(0) = 1.

    N(j) - Σ_{i=1..j} D(i) Q(j-i), its j + 1 parts put over their lcm and
    reduced once.
    """
    if j < 0:
        return 0, 1
    N, D = _QUOTIENTS[name]
    # filling 0 .. j-1 in order keeps the recursion one level deep
    Q = [quotient(name, i) for i in range(j)]
    parts = [N(j)]
    for i in range(1, j + 1):
        (dn, dd), (qn, qd) = D(i), Q[j - i]
        parts.append((-dn * qn, dd * qd))
    den = math.lcm(*(d for _, d in parts))
    num = sum(n * (den // d) for n, d in parts)
    g = math.gcd(num, den)
    return num // g, den // g


def member(j: int, a: Width, A: Coeff = _zero, B: Coeff = _zero, odd: bool = False) -> Poly:
    """Coefficient s_j(y) of Δ_x^j in A(s) cosh(ty) + B(s) sinh(ty)/t, at width a.

    A and B give the unit-width s^i coefficients.  The family is homogeneous
    of degree 2j in (y, a), or 2j + 1 when ``odd``.
    """
    if j < 0:
        raise ValueError("order must be non-negative")
    unit = {}  # y exponent -> (num, den) at unit width
    for i in range(j + 1):
        (an, ad), (bn, bd) = A(j - i), B(j - i)
        if an:
            cn, cd = _cosh(i)
            unit[2 * i] = an * cn, ad * cd
        if bn:
            sn, sd = _sinhc(i)
            unit[2 * i + 1] = bn * sn, bd * sd
    L = math.lcm(*(d for _, d in unit.values()))
    scaled = {l: n * (L // d) for l, (n, d) in unit.items()}  # numerators over L
    degree = 2 * j + odd
    if a is None:
        return reduced(2, L, {(l, degree - l): c for l, c in scaled.items()})
    # a^e at a = p/q, e = degree - l, is p^(e - lo) q^(hi - e) over p^-lo q^hi
    exps = [degree - l for l in scaled]
    lo, hi = min([0, *exps]), max([0, *exps])
    p, q = a.numerator, a.denominator
    nums = {(l,): c * p ** (degree - l - lo) * q ** (hi - degree + l) for l, c in scaled.items()}
    return reduced(1, L * p ** -lo * q ** hi, nums)


def apply_dx_series(g: Poly, n: int, image: Image, nvars: int) -> Poly:
    """The series Σ_j T_j Δ_x^j g, a Poly in ``nvars`` variables.

    ``g`` lives in the ring x1..xn, y.  ``image(j, m)`` is T_j y^m; each
    output key is the x exponent of a term of Δ_x^j g followed by an
    exponent of that image.  The powers Δ_x^j g share the denominator of
    g, and the images used are put over the lcm L of theirs, so the sum
    is accumulated in integers over g.den*L.
    """
    powers = []  # numerators of Δ_x^j g
    h = g.nums
    while h:
        powers.append(h)
        h = second_partials(h, n)
    used = {(j, m): image(j, m) for j, h in enumerate(powers) for m in {e[n] for e in h}}
    L = math.lcm(*{t.den for t in used.values()})
    scaled = {
        key: [(tail, q * (L // t.den)) for tail, q in t.nums.items()] for key, t in used.items()
    }
    out: dict[Exponent, int] = {}
    for j, h in enumerate(powers):
        for exp, c in h.items():
            x = exp[:n]
            for tail, q in scaled[j, exp[n]]:
                key = x + tail
                out[key] = out.get(key, 0) + c * q
    return reduced(nvars, g.den * L, out)


def correction(family: Family, g: Poly, n: int, a: Width) -> Poly:
    """Σ_j s_j(y) Δ_x^j g for y-free data g: the harmonic extension it names.

    The result lives in x1..xn, y, followed by a when the width is symbolic.
    """
    # g is free of y, so the image of y^m is only asked for m = 0
    return apply_dx_series(g, n, lambda j, m: family(j, a), n + 1 + (a is None))
