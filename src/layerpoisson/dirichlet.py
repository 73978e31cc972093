"""Harmonic bases for the Dirichlet problem in a layer.

The harmonic polynomial with value g(x) at y = a and zero at y = 0 is the
finite series Σ_j s_j(y) Δ_x^j g, where s_j is the coefficient of Δ_x^j in
sinh(ty)/sinh(ta) read with -t^2 standing for Δ_x.  Swapping the two
traces uses sinh(t(a-y))/sinh(ta) instead.  This module defines both
families with ``series.family``: seeded at j = 0 with y/a and 1 - y/a, each
keeps one list of members per width, grown in order by ``series.member``
with s_j(a) = 0.  It applies them to
boundary data with ``series.correction``: a multi-index k stands for the
data x^k, and the solver passes its whole boundary polynomial.

On a monomial the series is the paper's explicit basis

    u_k(x, y) = sum over componentwise m <= floor(k/2) of
                binom(k, 2m) x^(k-2m) f_{2m}(y),

where the moment polynomial is f_{2m} = (2m)! s_m for an integer order m,
and a multi-index m scales f_{2|m|} by ``multiindex_factor(m)``.  The
width a is a positive rational, or None to keep it as a formal symbol
(each family member then carries one overall 1/a).
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Sequence, Union

from .polyring import Poly, check_index
from .series import boundary_data, correction, family, normalize_index, width

AMode = Union[None, int, Fraction]  # None = keep a symbolic


# s_j of sinh(ty)/sinh(ta): value x^k at y=a, 0 at y=0
_c = family(__name__, "_c", {(1, -1): 1})
# s_j of sinh(t(a-y))/sinh(ta): value x^k at y=0, 0 at y=a
_c_flip = family(__name__, "_c_flip", {(0, 0): 1, (1, -1): -1})


def c_coeffs(M: int, a: AMode = None) -> list[Poly]:
    """Coefficients c_0 .. c_{2M} of t^{2m} in sinh(ty)/sinh(ta)."""
    check_index(M, "order")
    a = width(a)
    return [(-1) ** m * _c(m, a) for m in range(M + 1)]


def f_poly(m: int, a: AMode = None) -> Poly:
    """The moment polynomial f_{2m}(y), symbolic or at a rational width."""
    return _c(m, width(a)) * math.factorial(2 * m)


def multiindex_factor(m: Sequence[int]) -> Fraction:
    """Rational factor mapping f_{2|m|} to the multi-index member f_{2m}.

    Equal to (prod (2mi)!) |m|! / (|2m|! prod mi!).
    """
    m = tuple(m)
    normalize_index(m, len(m))
    total = sum(m)
    num = math.factorial(total)
    den = math.factorial(2 * total)
    for mi in m:
        num *= math.factorial(2 * mi)
        den *= math.factorial(mi)
    return Fraction(num, den)


def multiindex_f(m: Sequence[int], a: AMode = None) -> Poly:
    """The multi-index moment polynomial f_{2m} = factor(m) * f_{2|m|}."""
    m = tuple(m)
    return multiindex_factor(m) * f_poly(sum(m), a)


def basis_u(k, n: int, a: AMode = None) -> Poly:
    """Harmonic polynomial with trace 0 at y=0 and g at y=a.

    g is x^k for a multi-index k, or k itself when it is a Poly in
    x1..xn, y free of y.
    """
    return correction(_c, boundary_data(k, n), n, width(a))


def basis_v(k, n: int, a: AMode = None) -> Poly:
    """Harmonic polynomial with trace g at y=0 and 0 at y=a (g as in basis_u)."""
    return correction(_c_flip, boundary_data(k, n), n, width(a))
