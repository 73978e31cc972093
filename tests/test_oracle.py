"""The paper's explicit basis formula as an oracle for the series solver.

The oracle builds each basis member the way the paper states it,

    u_k = sum over componentwise m <= floor(k/2) of
          binom(k, 2m) x^(k-2m) * multiindex_factor(m) * f_{2|m|}(y),

with p_{2m} or q_{2m} in place of f_{2m} for the mixed problem.  Its
families come from power-series division in the ring (y, a) with a formal
width, the lower-trace member is u_k(x, a - y) by composition, and a
rational width is substituted at the end.  None of that is code the solver
runs.
"""

import itertools
import math
from fractions import Fraction

import pytest

from layerpoisson import dirichlet, mixed, series
from layerpoisson.dirichlet import basis_u, basis_v, multiindex_factor
from layerpoisson.mixed import mixed_basis_u, mixed_basis_v
from layerpoisson.parsing import parse_poly
from layerpoisson.polyring import Poly, Ring, lift
from layerpoisson.solver import LayerProblem, solve

YA = Ring(0, formal_a=True)
Y, A = YA.y_var(), YA.a_var()


def _divide(numerator, denominator, M):
    """Coefficients of t^(2m), m <= M, of N(t)/D(t) with D_0 = 1."""
    out = []
    for m in range(M + 1):
        acc = numerator(m)
        for i in range(1, m + 1):
            acc = acc - denominator(i) * out[m - i]
        out.append(acc)
    return out


def _scaled(coeffs):
    """(-1)^m (2m)! times the t^(2m) coefficient."""
    return [(-1) ** m * math.factorial(2 * m) * c for m, c in enumerate(coeffs)]


def _over_factorial(y_exp, a_exp, k):
    """y^y_exp a^a_exp / k!"""
    return Poly.monomial(2, (y_exp, a_exp), Fraction(1, math.factorial(k)))


def f_family(M):
    # sinh(ty)/sinh(ta) = (sinh(ty)/(ta)) / (sinh(ta)/(ta))
    num = lambda i: _over_factorial(2 * i + 1, -1, 2 * i + 1)
    den = lambda i: _over_factorial(0, 2 * i, 2 * i + 1)
    return _scaled(_divide(num, den, M))


def p_family(M):
    num = lambda i: (A - Y) ** (2 * i) * Fraction(1, math.factorial(2 * i))
    den = lambda i: _over_factorial(0, 2 * i, 2 * i)
    return _scaled(_divide(num, den, M))


def q_family(M):
    num = lambda i: _over_factorial(2 * i + 1, 0, 2 * i + 1)
    den = lambda i: _over_factorial(0, 2 * i, 2 * i)
    return _scaled(_divide(num, den, M))


def explicit_basis(k, family):
    """sum binom(k,2m) x^(k-2m) factor(m) family_{|m|}(y) in the ring x, y, a."""
    n = len(k)
    ring = Ring(n, formal_a=True)
    fam = family(sum(k) // 2)
    u = ring.zero()
    for m in itertools.product(*(range(ki // 2 + 1) for ki in k)):
        binom = math.prod(math.comb(ki, 2 * mi) for ki, mi in zip(k, m))
        x_part = Poly.monomial(ring.nvars, tuple(ki - 2 * mi for ki, mi in zip(k, m)) + (0, 0))
        y_part = lift(fam[sum(m)], ring.nvars, (ring.y, ring.a))
        u = u + binom * multiindex_factor(m) * x_part * y_part
    return u


def flipped(u, n):
    ring = Ring(n, formal_a=True)
    return u.subs(ring.y, ring.a_var() - ring.y_var())


def at_width(u, n, a):
    if a is None:
        return u
    ring = Ring(n, formal_a=True)
    return lift(u.subs(ring.a, a), n + 1, tuple(range(n + 1)) + (None,))


ORACLES = [
    (basis_u, lambda k: explicit_basis(k, f_family)),
    (basis_v, lambda k: flipped(explicit_basis(k, f_family), len(k))),
    (mixed_basis_u, lambda k: explicit_basis(k, p_family)),
    (mixed_basis_v, lambda k: explicit_basis(k, q_family)),
]
INDICES = [(0,), (1,), (6,), (11,), (0, 0), (3, 2), (4, 5), (0, 0, 0), (2, 1, 1), (3, 2, 4)]
WIDTHS = [None, Fraction(1), Fraction(1, 2), Fraction(7, 3)]


@pytest.mark.parametrize("k", INDICES, ids=str)
def test_series_basis_matches_explicit_formula(k):
    n = len(k)
    for public, oracle in ORACLES:
        expected = oracle(k)
        for a in WIDTHS:
            assert public(k, n, a) == at_width(expected, n, a), (public.__name__, a)


def _clear_family_caches():
    for mod in (series, dirichlet, mixed):
        for fn in vars(mod).values():
            if hasattr(fn, "cache_clear"):
                fn.cache_clear()


@pytest.mark.parametrize("a", WIDTHS, ids=str)
def test_basis_of_whole_data_is_the_sum_over_its_monomials(a):
    n = 2
    g = parse_poly("3*x1^4*x2 - 1/2*x2^3 + 7", n)
    for public, _ in ORACLES:
        expected = sum((c * public(exp[:n], n, a) for exp, c in g.terms.items()),
                       public((0, 0), n, a) * 0)
        assert public(g, n, a) == expected, public.__name__
    with pytest.raises(ValueError):
        basis_u(parse_poly("x1*y", n), n, a)
    with pytest.raises(ValueError):
        basis_u(g, 1, a)


def test_family_cache_is_keyed_by_width():
    def problem(kind, a):
        return LayerProblem(
            n=2, a=a, kind=kind,
            rhs=parse_poly("x1^3*x2^2*y^2 - 2*x2^4", 2),
            lower=parse_poly("x1^6 + 1/3*x1*x2", 2),
            upper=parse_poly("x2^5 - x1^2*x2^2", 2),
        )

    widths = (Fraction(1, 2), Fraction(7, 3))
    for kind in ("dirichlet", "mixed"):
        _clear_family_caches()
        shared = {a: solve(problem(kind, a)).u for a in widths}
        fresh = {}
        for a in reversed(widths):
            _clear_family_caches()
            fresh[a] = solve(problem(kind, a)).u
        assert shared == fresh
        assert shared[widths[0]] != shared[widths[1]]
