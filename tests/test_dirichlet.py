import math
from fractions import Fraction

import pytest

from layerpoisson.dirichlet import (
    basis_u,
    basis_v,
    c_coeffs,
    f_poly,
    multiindex_f,
    multiindex_factor,
)
from layerpoisson.particular import inv_laplacian_monomial
from layerpoisson.polyring import Poly, Ring, lift

from conftest import P, XYA, YA


def test_c0_c2():
    c = c_coeffs(1)
    assert c[0] == P("y*a^-1", YA)
    assert c[1] == P("1/6*y^3*a^-1 - 1/6*y*a", YA)


def test_c4_boundary_value():
    # at y = a the series sinh(xy)/sinh(xa) is identically 1, so every
    # coefficient beyond c_0 vanishes there
    c4 = c_coeffs(2, a=1)[2]
    assert c4.eval((1,)) == 0


def test_f_table_matches_displayed_polynomials():
    expected = {
        0: "y*a^-1",
        1: "-1/3*y*a^-1*(y^2 - a^2)",
        2: "1/15*y*a^-1*(3*y^4 - 10*y^2*a^2 + 7*a^4)",
        3: "-1/21*y*a^-1*(3*y^6 - 21*y^4*a^2 + 49*y^2*a^4 - 31*a^6)",
        # the y^4 a^4 coefficient is 294, not the printed 249 (digit
        # transposition); see test_f8_defect_detected_by_harmonicity
        4: "1/45*y*a^-1*(5*y^8 - 60*y^6*a^2 + 294*y^4*a^4 - 620*y^2*a^6 + 381*a^8)",
        5: "-1/33*y*a^-1*(3*y^10 - 55*y^8*a^2 + 462*y^6*a^4 - 2046*y^4*a^6"
           " + 4191*y^2*a^8 - 2555*a^10)",
    }
    for m, text in expected.items():
        assert f_poly(m) == P(text, YA), f"f_{2 * m}"


def test_f8_defect_detected_by_harmonicity():
    # swap in the printed 249 coefficient and the degree-8 basis member
    # stops being harmonic; the generated 294 version is harmonic
    ring = Ring(1, formal_a=True)
    printed_f8 = P("1/45*y*a^-1*(5*y^8 - 60*y^6*a^2 + 249*y^4*a^4 - 620*y^2*a^6 + 381*a^8)", YA)
    u8 = ring.zero()
    for m in range(5):
        fm = printed_f8 if m == 4 else f_poly(m)
        u8 = u8 + math.comb(8, 2 * m) * Poly.monomial(ring.nvars, (8 - 2 * m, 0, 0)) * lift(
            fm, ring.nvars, (ring.y, ring.a)
        )
    assert not u8.laplacian(1).is_zero()
    assert basis_u(8, 1).laplacian(1).is_zero()


def test_f_parity_odd_in_y():
    for m in range(8):
        f = f_poly(m)
        assert all(exp[0] % 2 == 1 for exp in f.terms)


def test_f_degree_and_boundary_values():
    for m in range(8):
        f = f_poly(m, a=1)
        assert f.degree_in(0) == 2 * m + 1
        assert f.eval((0,)) == 0
        assert f.eval((1,)) == (1 if m == 0 else 0)


def test_series_division_identity():
    # (sum c_{2m} t^{2m}) * (series of sinh(ta)) == series of sinh(ty),
    # as an exact identity in the ring (y, a, t) modulo t^(2M+2)
    M = 8
    names = ("y", "a", "t")
    nv = 3
    c = c_coeffs(M)
    lhs_c = sum(
        (lift(c[m], nv, (0, 1)) * Poly.monomial(nv, (0, 0, 2 * m)) for m in range(M + 1)),
        start=Poly.zero(nv),
    )
    sinh_a = sum(
        (
            Poly.monomial(nv, (0, 2 * i + 1, 2 * i + 1), Fraction(1, math.factorial(2 * i + 1)))
            for i in range(M + 1)
        ),
        start=Poly.zero(nv),
    )
    sinh_y = sum(
        (
            Poly.monomial(nv, (2 * i + 1, 0, 2 * i + 1), Fraction(1, math.factorial(2 * i + 1)))
            for i in range(M + 1)
        ),
        start=Poly.zero(nv),
    )
    product = lhs_c * sinh_a
    truncated = Poly(nv, {e: c_ for e, c_ in product.terms.items() if e[2] <= 2 * M + 1})
    assert truncated == sinh_y


def test_basis_u_examples():
    assert basis_u(3, 1) == P("x1*y*a^-1*(x1^2 - y^2 + a^2)", XYA)
    assert basis_u(5, 1) == P(
        "1/3*x1*y*a^-1*(3*x1^4 - 10*x1^2*y^2 + 10*x1^2*a^2 + 3*y^4 - 10*y^2*a^2 + 7*a^4)",
        XYA,
    )
    for n in (1, 2, 3):
        u0 = basis_u((0,) * n, n)
        ring = Ring(n, formal_a=True)
        assert u0 == lift(P("y*a^-1", YA), ring.nvars, (ring.y, ring.a))


def test_basis_u_oracles():
    for n in (1, 2, 3):
        ks = [(0,) * n, (4,) + (0,) * (n - 1), tuple(range(2, 2 + n))]
        if n == 1:
            ks.append((12,))
        for k in ks:
            for a in (Fraction(1, 2), Fraction(1), Fraction(7, 3)):
                u = basis_u(k, n, a)
                ring = Ring(n)
                assert u.laplacian(n).is_zero()
                assert u.subs(ring.y, 0).is_zero()
                assert u.subs(ring.y, a) == ring.x_monomial(k)


def test_basis_v_examples():
    assert basis_v(0, 1) == P("(a - y)*a^-1", XYA)
    assert basis_v(1, 1) == P("x1*(a - y)*a^-1", XYA)
    # substitute y <- a-y in the displayed u2
    u2 = P("1/3*y*a^-1*(3*x1^2 - y^2 + a^2)", XYA)
    ring = Ring(1, formal_a=True)
    assert basis_v(2, 1) == u2.subs(ring.y, ring.a_var() - ring.y_var())


def test_basis_v_traces():
    for k, n in [((3,), 1), ((2, 1), 2)]:
        for a in (Fraction(1), Fraction(7, 3)):
            v = basis_v(k, n, a)
            ring = Ring(n)
            assert v.laplacian(n).is_zero()
            assert v.subs(ring.y, 0) == ring.x_monomial(k)
            assert v.subs(ring.y, a).is_zero()


def test_basis_v_from_flipped_f_family():
    # v_k equals the assembly with every f_{2m} evaluated at a - y
    ring = Ring(1, formal_a=True)
    flip = ring.a_var() - ring.y_var()
    k = 5
    expected = ring.zero()
    for m in range(k // 2 + 1):
        f_flipped = lift(f_poly(m), ring.nvars, (ring.y, ring.a)).subs(ring.y, flip)
        expected = expected + math.comb(k, 2 * m) * Poly.monomial(
            ring.nvars, (k - 2 * m, 0, 0)
        ) * f_flipped
    assert basis_v(k, 1) == expected


def test_multiindex_f_examples():
    assert multiindex_factor((2, 1, 1)) == Fraction(1, 35)
    assert multiindex_f((2, 1, 1)) == f_poly(4) * Fraction(1, 35)
    assert multiindex_f((0, 0, 0)) == P("y*a^-1", YA)
    assert multiindex_factor((1, 1)) == Fraction(1, 3)
    # the (1,1) factor is what makes the n=2 basis member harmonic
    assert basis_u((2, 2), 2).laplacian(2).is_zero()


def test_rejects_bad_input():
    with pytest.raises(ValueError):
        f_poly(-1)
    with pytest.raises(ValueError):
        f_poly(2, a=0)
    with pytest.raises(ValueError):
        basis_u((1, 2), 1)


@pytest.mark.parametrize("a", [0.5, 1.0, True])
def test_rejects_inexact_width(a):
    with pytest.raises(TypeError):
        basis_u(2, 1, a)


@pytest.mark.parametrize("k, n, name", [
    (True, 1, "bool"), ((True,), 1, "bool"), ((2, False), 2, "bool"),
    ((2.0,), 1, "float"), ((Fraction(2),), 1, "Fraction"),
], ids=["bare-bool", "bool", "bool-in-2d", "float", "Fraction"])
def test_rejects_a_multi_index_entry_that_is_not_an_int(k, n, name):
    with pytest.raises(TypeError, match=f"^multi-index entries must be integers, not {name}$"):
        basis_u(k, n, 1)
    with pytest.raises(TypeError, match=f"^multi-index entries must be integers, not {name}$"):
        inv_laplacian_monomial(k, 0, n)


@pytest.mark.parametrize("M", [True, 1.5, 2.0, Fraction(1), "1"], ids=repr)
def test_coefficient_list_refuses_an_order_that_is_not_an_int(M):
    # c_coeffs(True) once returned two coefficients, and c_coeffs(1.5) failed in range
    with pytest.raises(TypeError, match=f"^order must be an integer, not {type(M).__name__}$"):
        c_coeffs(M)


@pytest.mark.parametrize("m, name", [
    ((True, 0), "bool"), ((1, False), "bool"), ((1.5, 0), "float"), ((Fraction(1), 2), "Fraction"),
], ids=["bool", "bool-second", "float", "Fraction"])
def test_multiindex_factor_refuses_an_entry_that_is_not_an_int(m, name):
    # multiindex_f((True, 0)) once equalled multiindex_f((1, 0))
    for fn in (multiindex_factor, multiindex_f):
        with pytest.raises(TypeError, match=f"^multi-index entries must be integers, not {name}$"):
            fn(m)
