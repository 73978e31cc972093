"""Refusals that no other test reaches: one assertion per message.

Each call here is refused by a check of its own before any work starts,
and none needs numpy or scipy: ``numcheck`` refuses its arguments before
it imports them.
"""

from fractions import Fraction

import pytest

from layerpoisson import numcheck, series
from layerpoisson.particular import inv_laplacian_monomial
from layerpoisson.polyring import Poly, Ring
from layerpoisson.solver import LayerProblem, rectangle_trace, verify

from conftest import P, X3Y


def test_a_poly_is_not_divided_by_zero():
    with pytest.raises(TypeError, match="^can only divide a Poly by a nonzero scalar$"):
        P("x1 + y") / 0


def test_constant_value_of_a_non_constant_is_refused():
    with pytest.raises(ValueError, match="^polynomial is not constant$"):
        P("2 + y").constant_value()


def test_a_non_constant_is_not_substituted_into_a_negative_power():
    with pytest.raises(ValueError, match="^cannot substitute a non-constant into a negative power$"):
        P("x1^-1*y").subs(0, P("y"))


def test_a_ring_without_the_width_symbol_has_no_a_slot():
    with pytest.raises(ValueError, match="^ring has no formal width symbol$"):
        Ring(1).a


def test_verify_refuses_a_solution_in_the_wrong_ring():
    zero = Poly(2)
    problem = LayerProblem(n=1, a=Fraction(1), kind="dirichlet", rhs=zero, lower=zero, upper=zero)
    with pytest.raises(ValueError, match=r"^solution must live in the ring x1\.\.x1, y$"):
        verify(P("x1 + x2 + y", X3Y), problem)


def test_rectangle_traces_are_for_one_spatial_dimension():
    with pytest.raises(ValueError, match="^rectangle traces are defined for n = 1 only$"):
        rectangle_trace(P("x1 + y", X3Y), (0, 1))


def test_a_negative_multi_index_entry_is_refused():
    with pytest.raises(ValueError, match="^multi-index entries must be non-negative$"):
        inv_laplacian_monomial((2, -1), 0, 2)


@pytest.mark.parametrize("name", ["t/sinh t", "t coth t", "tanh(t)/t", "sech t"])
def test_a_quotient_at_a_negative_order_is_zero(name):
    assert series.quotient(name, -1) == (0, 1)


def test_numcheck_refuses_a_height_outside_the_layer():
    for call in (lambda: numcheck.poisson_kernel_1d(0.5, 1.0, 1.0),
                 lambda: numcheck.poisson_kernel_3d(0.5, 0.0, 1.0),
                 lambda: numcheck.convolution_check(2, 0.5, -0.5, 1.0)):
        with pytest.raises(ValueError, match=r"^y must lie strictly inside \(0, a\)$"):
            call()


def test_numcheck_refuses_a_negative_radius():
    with pytest.raises(ValueError, match="^radius must be non-negative$"):
        numcheck.poisson_kernel_3d(-0.5, 0.5, 1.0)


def test_numcheck_refuses_an_unknown_moment_kind():
    with pytest.raises(ValueError, match="^kind must be 'plus' or 'minus'$"):
        numcheck.moment_integral(1, 0.5, 1.0, kind="both")


def test_numcheck_refuses_a_series_of_no_terms():
    with pytest.raises(ValueError, match="^need at least one term$"):
        numcheck.trig_series_sum(1, 0.5, 1.0, True, 0)
