import contextlib
import math
import random
import signal
import sys
import time
import tracemalloc
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from layerpoisson.particular import (
    inv_laplacian,
    inv_laplacian_monomial,
    inv_laplacian_monomial_alt,
)
from layerpoisson.polyring import Poly, Ring, reduced

from conftest import P, XY, X3Y


def test_monomial_example_1d():
    u = inv_laplacian_monomial(4, 3, 1)
    assert u == P("1/20*x1^4*y^5 - 1/70*x1^2*y^7 + 1/2520*y^9")


def test_monomial_example_3d():
    u = inv_laplacian_monomial((3, 2, 1), 3, 3)
    assert u == P(
        "1/20*x1^3*x2^2*x3*y^5 - 1/420*x1^3*x3*y^7 - 1/140*x1*x2^2*x3*y^7"
        " + 1/2520*x1*x3*y^9",
        X3Y,
    )


def test_monomial_constant_rhs():
    assert inv_laplacian_monomial(0, 0, 1) == P("1/2*y^2")


def test_alt_example():
    assert inv_laplacian_monomial_alt(4, 3) == P("1/30*x1^6*y^3 - 1/280*x1^8*y")
    assert inv_laplacian_monomial_alt(0, 0) == P("1/2*x1^2")
    u = inv_laplacian_monomial_alt(1, 1)
    assert u == P("1/6*x1^3*y")
    assert u.laplacian(1) == P("x1*y")


def test_alt_refuses_a_non_integer_exponent():
    # it once rendered 1/12*x^4*y^1.5
    with pytest.raises(TypeError, match="exponent entries must be integers, not float"):
        inv_laplacian_monomial_alt(2, 1.5)


def test_alt_differs_by_harmonic():
    u = inv_laplacian_monomial(4, 3, 1)
    u1 = inv_laplacian_monomial_alt(4, 3)
    assert (u - u1).laplacian(1).is_zero()


def test_inv_laplacian_zero():
    assert inv_laplacian(Poly.zero(2), 1).is_zero()


def test_inv_laplacian_linearity_example():
    u = inv_laplacian(P("x1^4*y^3 + 2"), 1)
    assert u == P("1/20*x1^4*y^5 - 1/70*x1^2*y^7 + 1/2520*y^9 + y^2")
    assert u.laplacian(1) == P("x1^4*y^3 + 2")


def test_inv_laplacian_rejects_wrong_ring():
    with pytest.raises(ValueError):
        inv_laplacian(P("y*a", ("x1", "y", "a")), 1)


def test_random_monomials_laplacian_oracle():
    rng = random.Random(1234)
    for _ in range(500):
        n = rng.randint(1, 4)
        k = tuple(rng.randint(0, 8 // n) for _ in range(n))
        m = rng.randint(0, 8)
        ring = Ring(n)
        u = inv_laplacian_monomial(k, m, n)
        target = Poly.monomial(ring.nvars, k + (m,))
        assert u.laplacian(n) == target
        # degree is exactly deg(P) + 2, x-exponents never exceed k
        assert u.total_degree() == sum(k) + m + 2
        for exp in u.terms:
            assert all(e <= ki for e, ki in zip(exp[:n], k))


def test_random_linearity():
    rng = random.Random(99)
    for _ in range(20):
        n = rng.randint(1, 3)
        ring = Ring(n)
        def rand_poly():
            terms = {}
            for _ in range(rng.randint(1, 4)):
                exp = tuple(rng.randint(0, 3) for _ in range(ring.nvars))
                terms[exp] = Fraction(rng.randint(-5, 5), rng.randint(1, 4))
            return Poly(ring.nvars, terms)
        p, q = rand_poly(), rand_poly()
        alpha, beta = Fraction(2, 3), Fraction(-7, 2)
        assert inv_laplacian(alpha * p + beta * q, n) == (
            alpha * inv_laplacian(p, n) + beta * inv_laplacian(q, n)
        )


@given(st.integers(1, 3).flatmap(lambda n: st.tuples(
    st.just(n),
    st.dictionaries(st.tuples(*[st.integers(0, 6)] * (n + 1)),
                    st.fractions(min_value=-9, max_value=9, max_denominator=9).filter(bool),
                    max_size=6))))
@settings(max_examples=100, deadline=None)
def test_inv_laplacian_has_no_y0_or_y1_term(case):
    # every image I_y^(j+1) y^m has y exponent m + 2j + 2, so the particular
    # solution vanishes at y=0 and solve needs no lower trace of it
    n, terms = case
    u = inv_laplacian(Poly(n + 1, terms), n)
    assert all(exp[n] >= 2 for exp in u.nums)


def test_image_of_a_high_power_is_one_short_product():
    # m!/(m+2)! is 1/((m+1)(m+2)): no factorial of a six-digit number is formed
    start = time.perf_counter()
    u = inv_laplacian(Poly.monomial(2, (0, 400000)), 1)
    elapsed = time.perf_counter() - start
    assert u == reduced(2, 400001 * 400002, {(0, 400002): 1})
    assert elapsed < 0.5
    # the j = 1 image of y^3 is -y^7/(4*5*6*7), grown from the j = 0 image y^5/(4*5)
    u = inv_laplacian(Poly.monomial(2, (2, 3)), 1)
    assert u == reduced(2, 4 * 5 * 6 * 7, {(2, 5): 42, (0, 7): -2})


def test_high_power_of_x_has_its_closed_form_quickly():
    # u = Σ_j (-1)^j N!/((N-2j)!(2j+2)!) x^(N-2j) y^(2j+2); each image of y^0
    # is grown from the one before it, within the call
    n_x = 4000
    start = time.perf_counter()
    u = inv_laplacian(Poly.monomial(2, (n_x, 0)), 1)
    elapsed = time.perf_counter() - start
    expected = Poly(2, {(n_x - 2 * j, 2 * j + 2): Fraction((-1) ** j * math.comb(n_x, 2 * j),
                                                             (2 * j + 1) * (2 * j + 2))
                        for j in range(n_x // 2 + 1)})
    assert u == expected
    assert elapsed < 1.0


@contextlib.contextmanager
def cut_after(seconds):
    """Fail a call that runs past ``seconds`` from inside it, rather than wait for its end."""
    def stop(signum, frame):
        raise TimeoutError(f"still running after {seconds} s")

    if not hasattr(signal, "setitimer"):  # no interval timer here, so the call runs to its end
        yield
        return
    previous = signal.signal(signal.SIGALRM, stop)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


def x_power_solution(n_x):
    """u for x^N: Σ_j (-1)^j C(N+2, 2j+2) x^(N-2j) y^(2j+2) / ((N+1)(N+2)), in integers."""
    nums, binom = {}, (n_x + 2) * (n_x + 1) // 2  # C(N+2, 2j+2), stepped from j - 1 to j
    for j in range(n_x // 2 + 1):
        nums[n_x - 2 * j, 2 * j + 2] = -binom if j & 1 else binom
        binom = binom * (n_x - 2 * j) * (n_x - 2 * j - 1) // ((2 * j + 3) * (2 * j + 4))
    return reduced(2, (n_x + 1) * (n_x + 2), nums)


def test_a_long_series_carries_small_ratios():
    # Δ_x^j x^8000 has a content c_0...c_j of about 26j bits, and the image of
    # y^0 a denominator (2j+2)! as long; the series carries only their reduced
    # ratio, whose denominator divides 8001*8002, from one j to the next, so
    # no step takes a gcd of two long products
    p = Poly.monomial(2, (8000, 0))
    with cut_after(5.0):
        start = time.perf_counter()
        u = inv_laplacian(p, 1)
        elapsed = time.perf_counter() - start
    assert u == x_power_solution(8000)
    assert elapsed < 1.0


def test_a_long_series_holds_a_few_times_its_output():
    # the powers keep their step contents c_j, not the running products, so
    # the peak is a small multiple of the output's own integers, which grow
    # like N^2 bits in all
    p = Poly.monomial(2, (8000, 0))
    tracemalloc.start()
    try:
        with cut_after(10.0):
            u = inv_laplacian(p, 1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    output = sum(map(sys.getsizeof, u.nums.values())) + sys.getsizeof(u.den)
    assert peak <= 5 * output
