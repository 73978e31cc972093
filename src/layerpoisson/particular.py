"""Particular polynomial solutions of the layer Poisson equation.

Given a polynomial right-hand side P(x, y), the particular solution is the
finite series in the spatial Laplacian

    u = sum_j (-1)^j I_y^(j+1) Δ_x^j P,    I_y = ∫_0^y ∫_0^s,

applied to the whole of P at once by ``series.apply_dx_series``.  On a
monomial x^k y^m this is the paper's y-integrated formula, and the result
has total degree deg(P) + 2.  Each image I_j y^m = -I_y I_{j-1} y^m is
made from the denominator of I_{j-1} y^m; nothing is kept between calls.
"""

from __future__ import annotations

from .polyring import Poly, check_data, check_dimension, lift
from .series import apply_dx_series, normalize_index


def inv_laplacian_monomial(k, m: int, n: int) -> Poly:
    """Polynomial u with laplacian(u, n) = x^k y^m, via the y-integrated form.

    u = sum_{j=0}^{floor(|k|/2)} (-1)^j m!/(m+2j+2)! y^(m+2j+2) lap_x^j x^k
    """
    check_dimension(n)
    k = normalize_index(k, n)
    return inv_laplacian(Poly.monomial(n + 1, k + (m,)), n)


def inv_laplacian_monomial_alt(k: int, m: int) -> Poly:
    """The x-integrated particular solution for n = 1.

    u1 = sum_{j=0}^{floor(m/2)} (-1)^j k!m!/((k+2j+2)!(m-2j)!) x^(k+2j+2) y^(m-2j)

    which is the y-integrated solution for x^m y^k with x and y swapped.
    """
    return lift(inv_laplacian(Poly.monomial(2, (m, k)), 1), 2, (1, 0))


def inv_laplacian(P: Poly, n: int) -> Poly:
    """Particular solution of laplacian(u, n) = P: the I_y series on all of P."""
    check_data(P, n, "right-hand side")

    def image(j: int, m: int, last: int) -> tuple[int, dict]:
        # (-1)^j I_y^(j+1) y^m = (-1)^j y^e / ((m+1)...e), e = m+2j+2, over last = (m+1)...(e-2)
        e = m + 2 * j + 2
        return last * (e - 1) * e, {(e,): -1 if j & 1 else 1}

    return apply_dx_series(P, n, lambda J: image, n + 1)
