"""The rule every y-family is built from, checked on the families themselves.

A harmonic correction Σ_j s_j(y) Δ_x^j g needs s_j'' = -s_{j-1} and
s_j(0) = 0 for j >= 1, and one condition at the top: s_j(a) = 0 for the
Dirichlet families ``_c`` and ``_c_flip``, ∂_y s_j(a) = 0 for the mixed
families ``_d`` and ``_e``.  Each family starts from its own member at
j = 0.  At the symbolic width a member is a Poly in (y, a), and its top
value is taken by substituting the Poly a for y.
"""

import sys
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from layerpoisson import dirichlet, mixed
from layerpoisson.parsing import parse_expr
from layerpoisson.polyring import Poly, lift

# family, whether the top condition is on ∂_y, member 0 over (y, a)
FAMILIES = {
    "c": (dirichlet._c, False, "y*a^-1"),
    "c_flip": (dirichlet._c_flip, False, "1 - y*a^-1"),
    "d": (mixed._d, True, "1"),
    "e": (mixed._e, True, "y"),
}
WIDTHS = [None, Fraction(1), Fraction(1, 2), Fraction(7, 3)]
A = Poly.variable(2, 1)


def at_width(p, a):
    """A Poly in (y, a) at a rational width, as a Poly in y; unchanged at None."""
    return p if a is None else lift(p.subs(1, a), 1, (0, None))


def check_rule(name, j, a):
    family, slope, first = FAMILIES[name]
    s = family(j, a)
    if j == 0:
        assert s == at_width(parse_expr(first, ("y", "a"), allow_negative_exponents=True), a)
        return
    assert s.diff(0, 2) == -family(j - 1, a)
    assert s.subs(0, 0).is_zero()
    top = s.diff(0) if slope else s
    assert top.subs(0, A if a is None else a).is_zero()


@pytest.mark.parametrize("a", WIDTHS, ids=str)
@pytest.mark.parametrize("name", sorted(FAMILIES))
def test_family_obeys_the_recurrence(name, a):
    for j in range(41):
        check_rule(name, j, a)


@given(
    st.sampled_from(sorted(FAMILIES)),
    st.integers(0, 40),
    st.builds(Fraction, st.integers(1, 10**6), st.integers(1, 10**6)),
)
@settings(max_examples=100, deadline=None)
def test_family_obeys_the_recurrence_at_random_widths(name, j, a):
    check_rule(name, j, a)


def _clear_family_caches():
    for family, _, _ in FAMILIES.values():
        family.cache_clear()


def _depth():
    frame, n = sys._getframe(), 0
    while frame is not None:
        frame, n = frame.f_back, n + 1
    return n


def test_a_cold_member_is_built_without_deep_recursion():
    # member j reads members 0 .. j-1 in order, so a cold j = 150 needs
    # a few frames, not one chain of 150 calls
    limit = sys.getrecursionlimit()
    _clear_family_caches()
    try:
        sys.setrecursionlimit(_depth() + 50)
        dirichlet._c(150, Fraction(7, 3))
        mixed._e(150, Fraction(7, 3))
    finally:
        sys.setrecursionlimit(limit)
        _clear_family_caches()
