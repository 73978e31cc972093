"""The rule every y-family is built from, checked on the families themselves.

A harmonic correction Σ_j s_j(y) Δ_x^j g needs s_j'' = -s_{j-1} and
s_j(0) = 0 for j >= 1, and one condition at the top: s_j(a) = 0 for the
Dirichlet families ``_c`` and ``_c_flip``, ∂_y s_j(a) = 0 for the mixed
families ``_d`` and ``_e``.  Each family starts from its own member at
j = 0.  At the symbolic width a member is a Poly in (y, a), and its top
value is taken by substituting the Poly a for y.
"""

import math
import sys
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from layerpoisson import dirichlet, mixed, series
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


@pytest.mark.parametrize("j", [True, False, 1.5, 2.0, Fraction(1), "1"], ids=repr)
def test_family_refuses_an_order_that_is_not_an_int(j):
    for family, _, _ in FAMILIES.values():
        for a in WIDTHS:
            with pytest.raises(TypeError, match=f"order must be an integer, not {type(j).__name__}"):
                family(j, a)


def test_moment_polynomial_refuses_an_order_that_is_not_an_int():
    # f_poly(True) once returned f_2, and f_poly(1.5) failed on a list index
    for m in (True, 1.5):
        with pytest.raises(TypeError, match=f"order must be an integer, not {type(m).__name__}"):
            dirichlet.f_poly(m)


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


# -- the store: one list per width, grown in order, bounded by whole widths


def test_each_family_reports_its_module_and_its_lookups():
    for name, (family, _, _) in FAMILIES.items():
        module = dirichlet if name.startswith("c") else mixed
        assert family.__module__ == module.__name__
    _clear_family_caches()
    try:
        a = Fraction(7, 3)
        dirichlet._c(5, a)
        dirichlet._c(3, a)
        dirichlet._c(5, a)
        info = dirichlet._c.cache_info()
        # a hit is a member already stored; a cold s_5 is one miss, not six
        assert (info.hits, info.misses) == (2, 1)
    finally:
        _clear_family_caches()


def _counted_steps(monkeypatch):
    steps = []
    step = series.member

    def counted(*args):
        steps.append(args)
        return step(*args)

    monkeypatch.setattr(series, "member", counted)
    return steps


def test_a_cold_member_past_the_bound_takes_one_step_per_order(monkeypatch):
    a = Fraction(7, 3)
    _clear_family_caches()
    expected = dirichlet._c(24, a)
    _clear_family_caches()
    monkeypatch.setattr(series, "_MAX_MEMBERS", 16)
    steps = _counted_steps(monkeypatch)
    try:
        assert dirichlet._c(24, a) == expected
    finally:
        _clear_family_caches()
    assert len(steps) == 24


def test_alternating_widths_under_the_bound_gives_fresh_members(monkeypatch):
    widths = (Fraction(1, 2), Fraction(7, 3))
    fresh = {}
    for a in widths:
        _clear_family_caches()
        fresh[a] = [mixed._e(j, a) for j in range(13)]
    _clear_family_caches()
    monkeypatch.setattr(series, "_MAX_MEMBERS", 16)
    try:
        for _ in range(3):
            for a in widths:
                for j in (12, 3, 0, 7):
                    assert mixed._e(j, a) == fresh[a][j]
        # 13 members of each width do not fit in 16, so only one width is held
        assert mixed._e.cache_info().currsize == 13
    finally:
        _clear_family_caches()


def test_a_hit_keeps_its_width_when_another_is_evicted(monkeypatch):
    A, B, C = Fraction(1, 2), Fraction(7, 3), Fraction(5)
    _clear_family_caches()
    monkeypatch.setattr(series, "_MAX_MEMBERS", 16)
    steps = _counted_steps(monkeypatch)
    try:
        dirichlet._c(4, A)
        dirichlet._c(4, B)
        dirichlet._c(2, A)  # a hit: A is now used more recently than B
        dirichlet._c(7, C)  # 5 + 5 + 8 members do not fit in 16: B goes
        assert dirichlet._c.cache_info().currsize == 13
        del steps[:]
        dirichlet._c(4, A)
        assert steps == []
        dirichlet._c(4, B)
        assert len(steps) == 4
    finally:
        _clear_family_caches()


def test_threads_growing_one_family_get_the_members_of_a_serial_build():
    # more threads than cores, switching often: a member appended twice or
    # out of order would shift every later member of the list
    from concurrent.futures import ThreadPoolExecutor

    a = Fraction(7, 3)
    orders = [29, 7, 18, 29, 3, 25, 12, 0] * 4
    _clear_family_caches()
    serial = [dirichlet._c_flip(j, a) for j in range(30)]
    _clear_family_caches()
    interval = sys.getswitchinterval()
    try:
        sys.setswitchinterval(1e-6)
        with ThreadPoolExecutor(max_workers=8) as pool:
            futures = [pool.submit(dirichlet._c_flip, j, a) for j in orders]
            got = [f.result(timeout=60) for f in futures]
        assert got == [serial[j] for j in orders]
        assert [dirichlet._c_flip(j, a) for j in range(30)] == serial
    finally:
        sys.setswitchinterval(interval)
        _clear_family_caches()


def test_quotient_refuses_an_order_that_is_not_an_int():
    # quotient("tanh(t)/t", True) once returned the coefficient at j = 1
    for j in (True, False, 1.5, 2.0, Fraction(1), "1"):
        for name in ("t/sinh t", "t coth t", "tanh(t)/t", "sech t"):
            with pytest.raises(TypeError, match=f"^order must be an integer, not {type(j).__name__}$"):
                series.quotient(name, j)


@pytest.mark.parametrize("j", [-1, 0, 3])
def test_quotient_names_the_four_quotients_for_an_unknown_name(j):
    with pytest.raises(ValueError, match="unknown quotient 'tanh t'") as info:
        series.quotient("tanh t", j)
    for name in ("t/sinh t", "t coth t", "tanh(t)/t", "sech t"):
        assert repr(name) in str(info.value)


# -- one store lookup per series


def _lookups(family):
    info = family.cache_info()
    return info.hits + info.misses


@pytest.mark.parametrize("a", [Fraction(7, 3), None], ids=repr)
def test_a_correction_reads_its_family_with_one_lookup(a):
    n = 2
    bases = ((dirichlet.basis_u, dirichlet._c), (dirichlet.basis_v, dirichlet._c_flip),
             (mixed.mixed_basis_u, mixed._d), (mixed.mixed_basis_v, mixed._e))
    # x1^10 + x2^6 has six Δ_x powers: the series reads s_0 .. s_5 with one lookup,
    # and a second series reads them again with one hit
    g = Poly(3, {(10, 0, 0): 1, (0, 6, 0): Fraction(1, 3)})
    for basis, family in bases:
        _clear_family_caches()
        try:
            basis(g, n, a)
            assert _lookups(family) == 1
            assert family.cache_info().currsize == 6
            basis(g, n, a)
            assert (family.cache_info().hits, family.cache_info().misses) == (1, 1)
        finally:
            _clear_family_caches()


def test_a_harmonic_datum_grows_only_the_first_member():
    # Re (x1 + i x2)^40 is harmonic, so its series is one power and needs s_0
    # alone; a bound from the degree of the data would grow 20 members
    n = 2
    g = Poly(3, {(40 - k, k, 0): (-1) ** (k // 2) * math.comb(40, k) for k in range(0, 41, 2)})
    assert g.laplacian(n).is_zero()
    for basis, family in ((dirichlet.basis_u, dirichlet._c), (mixed.mixed_basis_v, mixed._e)):
        _clear_family_caches()
        try:
            u = basis(g, n, Fraction(7, 3))
            assert _lookups(family) == 1
            assert family.cache_info().currsize == 1
            assert u.laplacian(n).is_zero()
        finally:
            _clear_family_caches()
