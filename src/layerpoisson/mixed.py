"""Harmonic bases for the mixed Dirichlet-Neumann problem in a layer.

Both corrections are finite series Σ_j s_j(y) Δ_x^j g in the spatial
Laplacian, with s_j the coefficient of Δ_x^j (-t^2 standing for Δ_x) in
one series quotient.  This module defines the two families with
``series.family``: seeded at j = 0 with 1 and y, each keeps one list of
members per width, grown in order by ``series.member`` with ∂_y s_j(a) = 0.
It applies them with
``series.correction``:

  * value g at y=0 and zero y-derivative at y=a: cosh(t(a-y))/cosh(ta);
  * zero value at y=0 and y-derivative g at y=a: sinh(ty)/(t cosh(ta)).

The paper's families are p_{2m} = (2m)! s_m and q_{2m} = (2m)! s_m of
these two quotients; on a monomial x^k the series is the explicit basis
sum binom(k,2m) x^(k-2m) p_{2m}(y) (q for the derivative trace), scaled by
the same multi-index factor as in the Dirichlet case.  The bases take a
multi-index k for the data x^k, or the whole boundary polynomial.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Sequence

from .dirichlet import AMode, multiindex_factor
from .polyring import Poly
from .series import boundary_data, correction, family, width


# s_j of cosh(t(a-y))/cosh(ta): value x^k at y=0, zero ∂_y at y=a
_d = family(__name__, "_d", {(0, 0): 1}, slope=True)
# s_j of sinh(ty)/(t cosh(ta)): value 0 at y=0, ∂_y x^k at y=a
_e = family(__name__, "_e", {(1, 0): 1}, slope=True)


def p_poly(m: int, a: AMode = None) -> Poly:
    """Value-trace family p_{2m}(y); p_0 = 1, degree 2m in y."""
    return _d(m, width(a)) * math.factorial(2 * m)


def q_poly(m: int, a: AMode = None) -> Poly:
    """Derivative-trace family q_{2m}(y); q_0 = y, degree 2m+1 in y."""
    return _e(m, width(a)) * math.factorial(2 * m)


def mixed_multiindex_factor(m: Sequence[int]) -> Fraction:
    """Multi-index scaling factor; identical to the Dirichlet-family factor."""
    return multiindex_factor(m)


def mixed_basis_u(k, n: int, a: AMode = None) -> Poly:
    """Harmonic polynomial: value g at y=0, zero y-derivative at y=a.

    g is x^k for a multi-index k, or k itself when it is a Poly in
    x1..xn, y free of y.
    """
    return correction(_d, boundary_data(k, n), n, width(a))


def mixed_basis_v(l, n: int, a: AMode = None) -> Poly:
    """Harmonic polynomial: value 0 at y=0, y-derivative g at y=a (g as in mixed_basis_u)."""
    return correction(_e, boundary_data(l, n), n, width(a))
