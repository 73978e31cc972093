"""The layer solution operators as one series in the spatial Laplacian.

Every operator the solver needs is a function of the spatial Laplacian
Δ_x, and on polynomial data its series stops after finitely many terms:

    particular solution   Σ_j (-1)^j I_y^(j+1) Δ_x^j P,   I_y = ∫_0^y ∫_0^s
    harmonic correction   Σ_j s_j(y) Δ_x^j g

Δ(s_j Δ_x^j g) = s_j'' Δ_x^j g + s_j Δ_x^(j+1) g, so a correction is
harmonic when its y-family obeys one recurrence, s_j'' = -s_{j-1}, with
s_j(0) = 0 for j >= 1 and one condition at the top: s_j(a) = 0 for the
Dirichlet families, or s_j'(a) = 0 for the mixed ones.  ``member`` takes
that step, s_j = -I_y s_{j-1} + c y, with the scalar c that meets the top
condition; ``dirichlet`` and ``mixed`` seed their two families each at
j = 0.  The width is a positive rational, giving polynomials in y, or
None, giving polynomials in (y, a), with negative powers of a where the
degree is below that of y.

All of it runs on integers.  A step puts its integrated terms over one
lcm.  At a rational width p/q the top value or slope is summed over q^hi,
as ``solver._residual_parts`` does; at the symbolic width every member is
homogeneous in (y, a), so c is a multiple of one power of a.  Each member
returns through ``reduced``.  ``apply_dx_series`` takes the integer
content of each power Δ_x^j g out before any product and cancels it
against each image's denominator once per image, as the factorials of
Δ_x^j x^k and of the family cancel in the paper's binomial sums; its
result is then reduced by a small common factor, not a large one.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Callable, Optional, Union

from .polyring import Exponent, Poly, as_scalar, reduced, second_partials

Width = Optional[Fraction]  # None = keep a symbolic
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


def seed(a: Width, terms: dict[tuple[int, int], int]) -> Poly:
    """Σ c y^l a^k over ``terms`` {(l, k): c}, at width a: a Poly in y, or in (y, a)."""
    if a is None:
        return Poly(2, terms)
    return Poly(1, {(l,): c * a ** k for (l, k), c in terms.items()})


def member(family: Family, j: int, a: Width, slope: bool = False) -> Poly:
    """s_j = -I_y s_{j-1} + c y, the member of ``family`` after s_{j-1}, at width a.

    The scalar c makes s_j(a) = 0, or ∂_y s_j(a) = 0 when ``slope``.  Members
    0 .. j-1 are read through ``family`` in order, so the recursion stays one
    level deep.
    """
    if j < 1:
        raise ValueError("order must be positive")
    for i in range(j):
        prev = family(i, a)
    # -I_y y^l = -y^(l+2) / ((l+1)(l+2)), over one lcm M; then c y cancels
    # the top value Σ n_l a^(l+2), or the top slope Σ (l+2) n_l a^(l+1)
    M = math.lcm(*((e[0] + 1) * (e[0] + 2) for e in prev.nums))
    den = prev.den * M
    nums, top = {}, 0
    if a is None:
        for (l, k), c in prev.nums.items():
            n = -c * (M // ((l + 1) * (l + 2)))
            nums[l + 2, k] = n
            top += n * (l + 2 if slope else 1)
        # s_{j-1} is homogeneous of degree d in (y, a), so c is a multiple of a^(d+1)
        d = sum(next(iter(prev.nums)))
        nums[1, d + 1] = -top
        return reduced(2, den, nums)
    # a^(l+1) at a = p/q is p^(l+1) q^(hi-l-1) over q^hi
    p, q = a.numerator, a.denominator
    hi = max(prev.nums)[0] + 1
    scale = q ** hi
    for (l,), c in prev.nums.items():
        n = -c * (M // ((l + 1) * (l + 2)))
        nums[l + 2,] = n * scale
        top += n * (l + 2 if slope else 1) * p ** (l + 1) * q ** (hi - l - 1)
    nums[1,] = -top
    return reduced(1, den * scale, nums)


def quotient(name: str, j: int) -> tuple[int, int]:
    """s^j coefficient of a scalar quotient, s = -t^2, as a reduced (num, den).

    Each is the y coefficient of a unit-width family member: t/sinh t of
    ``_c(j)``, t coth t of ``-_c_flip(j)``, tanh(t)/t of ``_d(j + 1)`` and
    sech t of ``_e(j)``.
    """
    if j < 0:
        return 0, 1
    from . import dirichlet, mixed  # both import this module

    family, i, sign = {
        "t/sinh t": (dirichlet._c, j, 1),
        "t coth t": (dirichlet._c_flip, j, -1),
        "tanh(t)/t": (mixed._d, j + 1, 1),
        "sech t": (mixed._e, j, 1),
    }[name]
    s = family(i, Fraction(1))
    num = sign * s.nums.get((1,), 0)
    g = math.gcd(num, s.den)
    return num // g, s.den // g


def apply_dx_series(g: Poly, n: int, image: Image, nvars: int) -> Poly:
    """The series Σ_j T_j Δ_x^j g, a Poly in ``nvars`` variables.

    ``g`` lives in the ring x1..xn, y.  ``image(j, m)`` is T_j y^m; each
    output key is the x exponent of a term of Δ_x^j g followed by an
    exponent of that image.  Δ_x^j g is k_j h_j / g.den with h_j primitive;
    the content k_j is cancelled against each image's denominator once per
    image, and the images, each scaled by what is left of k_j, are put over
    the lcm L of their reduced denominators.  So the sum is accumulated in
    integers over g.den*L, and ``reduced`` finds only a small gcd.
    """
    powers = []  # (k_j, h_j)
    h, k = g.nums, 1
    while h:
        c = math.gcd(*h.values())
        if c != 1:
            h, k = {exp: v // c for exp, v in h.items()}, k * c
        powers.append((k, h))
        h = second_partials(h, n)
    used = {}  # (j, m) -> (numerators of T_j y^m, its den / r, k_j / r), r = gcd(k_j, den)
    for j, (k, h) in enumerate(powers):
        for m in {e[n] for e in h}:
            t = image(j, m)
            r = math.gcd(k, t.den)
            used[j, m] = t.nums, t.den // r, k // r
    L = math.lcm(*{d for _, d, _ in used.values()})
    scaled = {key: [(tail, q * f * (L // d)) for tail, q in nums.items()]
              for key, (nums, d, f) in used.items()}
    out: dict[Exponent, int] = {}
    for j, (_, h) in enumerate(powers):
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
