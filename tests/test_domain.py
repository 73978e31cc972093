"""The solver's domain: data in x1..xn, y with no negative exponent.

``polyring.check_data`` is the one check of that rule, and each entry
point makes it: ``LayerProblem`` for rhs, lower and upper,
``particular.inv_laplacian`` for its right-hand side, and
``series.boundary_data`` for the four harmonic bases.  Data outside the
domain is refused with one ValueError before any series work, never
solved and certified.  A series on Laurent x data would never end, since
the Laplacian of x^-k is never zero, so the series is replaced here by a
function that fails at once.
"""

import abc
import re
import sys
from fractions import Fraction

import pytest

from layerpoisson import dirichlet, mixed, particular, series
from layerpoisson.particular import inv_laplacian, inv_laplacian_monomial, inv_laplacian_monomial_alt
from layerpoisson.polyring import Poly
from layerpoisson.solver import LayerProblem, solve

ZERO = Poly(2)


@pytest.fixture
def no_series(monkeypatch):
    def refused(*args):
        raise AssertionError("data outside the domain reached a series")

    monkeypatch.setattr(series, "apply_dx_series", refused)
    monkeypatch.setattr(particular, "apply_dx_series", refused)


@pytest.mark.parametrize("name, exp", [
    ("rhs", (-1, 0)), ("lower", (-1, 0)), ("upper", (-1, 0)), ("rhs", (2, -1)),
], ids=["rhs-x", "lower-x", "upper-x", "rhs-y"])
def test_layer_problem_refuses_a_negative_exponent(name, exp):
    data = dict(rhs=ZERO, lower=ZERO, upper=ZERO)
    data[name] = Poly(2, {exp: 1})
    with pytest.raises(ValueError, match=f"^{name} must have no negative exponent$"):
        LayerProblem(n=1, a=Fraction(1), kind="dirichlet", **data)


def test_inv_laplacian_refuses_a_negative_exponent_before_the_series(no_series):
    with pytest.raises(ValueError, match="^right-hand side must have no negative exponent$"):
        inv_laplacian(Poly(3, {(-2, 1, 0): 1, (1, 0, 2): 1}), 2)


@pytest.mark.parametrize("basis", [dirichlet.basis_u, dirichlet.basis_v,
                                   mixed.mixed_basis_u, mixed.mixed_basis_v],
                         ids=lambda basis: basis.__name__)
@pytest.mark.parametrize("a", [Fraction(7, 3), None], ids=repr)
def test_each_basis_refuses_a_negative_exponent_before_the_series(basis, a, no_series):
    with pytest.raises(ValueError, match="^boundary data must have no negative exponent$"):
        basis(Poly(3, {(-2, 1, 0): 1, (1, 0, 0): 1}), 2, a)


def test_a_laurent_right_hand_side_is_refused_not_certified():
    # once solved as u = 1/2*x^-1*y^2 - 1/2*x^-1*y with verified: True, though
    # its Laplacian is x^-1 + x^-3*(y^2 - y)
    with pytest.raises(ValueError, match="^rhs must have no negative exponent$"):
        solve(LayerProblem(n=1, a=1, kind="dirichlet", rhs=Poly(2, {(-1, 0): 1}),
                           lower=Poly(2), upper=Poly(2)))


@pytest.mark.parametrize("call, args", [
    (inv_laplacian_monomial, (1, -1, 1)), (inv_laplacian_monomial_alt, (-1, 2)),
    (inv_laplacian_monomial_alt, (2, -1)),
], ids=["monomial-y", "alt-first", "alt-second"])
def test_the_monomial_images_refuse_a_negative_exponent(call, args):
    with pytest.raises(ValueError, match=re.escape("must have no negative exponent")):
        call(*args)


def test_a_multi_index_datum_makes_no_fraction():
    # basis_u builds x1^4*x2^2 from its multi-index in integers: sys.setprofile sees
    # every Python-level call, and in fractions.py only the width's numerator and
    # denominator may run, with no ABC dispatch anywhere
    fractions_file = Fraction.__new__.__code__.co_filename
    allowed = {Fraction.numerator.fget.__code__, Fraction.denominator.fget.__code__}
    dispatch = {abc.ABCMeta.__instancecheck__.__code__, abc.ABCMeta.__subclasscheck__.__code__}
    seen = []

    def profile(frame, event, arg):
        code = frame.f_code
        if event == "call" and (code in dispatch or code.co_filename == fractions_file
                                and code not in allowed):
            seen.append((code.co_name, frame.f_back.f_code.co_name))

    a = Fraction(7, 3)
    outer = sys.getprofile()
    sys.setprofile(profile)
    try:
        u = dirichlet.basis_u((4, 2), 2, a)
    finally:
        sys.setprofile(outer)
    assert seen == []
    assert u == dirichlet.basis_u(Poly(3, {(4, 2, 0): 1}), 2, a)
