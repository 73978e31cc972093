import math

import pytest

from layerpoisson import dirichlet, numcheck


def test_kernel_1d_center_value():
    assert numcheck.poisson_kernel_1d(0.0, 0.5, 1.0) == pytest.approx(0.5)


def test_kernel_1d_decay():
    a = 1.0
    far = numcheck.poisson_kernel_1d(10.0, 0.3, a)
    assert far < 1e-12
    ratio = numcheck.poisson_kernel_1d(11.0, 0.3, a) / far
    assert ratio == pytest.approx(math.exp(-math.pi), rel=1e-3)


def test_kernel_1d_domain():
    with pytest.raises(ValueError):
        numcheck.poisson_kernel_1d(0.0, 1.5, 1.0)


def test_kernel_normalization():
    for y in (0.1, 0.3, 0.5, 0.7, 0.9):
        assert numcheck.moment_integral(0, y, 1.0, "plus") == pytest.approx(y, abs=1e-8)


def test_moment_integral_m2():
    y, a = 0.4, 1.0
    expected = (y / (15 * a)) * (3 * y ** 4 - 10 * y ** 2 * a ** 2 + 7 * a ** 4)
    assert numcheck.moment_integral(2, y, a, "plus") == pytest.approx(expected, abs=1e-8)


def test_moment_integral_minus_kind():
    y, a = 0.7, 1.0
    expected = dirichlet.f_poly(1).eval_float((a - y, a))
    assert numcheck.moment_integral(1, y, a, "minus") == pytest.approx(expected, abs=1e-8)


def test_moment_integral_domains():
    with pytest.raises(ValueError):
        numcheck.moment_integral(1, 1.5, 1.0, "plus")
    with pytest.raises(ValueError):
        numcheck.moment_integral(1, -0.5, 1.0, "minus")


def test_kernel_3d_limit_matches_series():
    # Taylor expansion near r=0: sinh(pi r/a)/r -> pi/a + (pi/a)^3 r^2/6
    y, a = 0.35, 1.2
    exact0 = numcheck.poisson_kernel_3d(0.0, y, a)
    s, c = math.sin(math.pi * y / a), math.cos(math.pi * y / a)
    series0 = (math.pi / (4 * a ** 3)) * s / (1 + c) ** 2
    assert exact0 == pytest.approx(series0, rel=1e-12)
    small = numcheck.poisson_kernel_3d(1e-6, y, a)
    assert small == pytest.approx(exact0, abs=1e-8)


def test_kernel_recurrence():
    for r, y, a in [(0.5, 0.3, 1.0), (1.1, 0.8, 1.5), (0.25, 0.2, 0.7)]:
        assert numcheck.kernel_recurrence_residual(r, y, a) < 1e-6


def test_kernel_3d_radial_integral():
    # 4 pi int_0^inf r^2 P3(r, y) dr = y/a
    from scipy.integrate import quad

    y, a = 0.3, 1.0
    val, _ = quad(lambda r: 4 * math.pi * r * r * numcheck.poisson_kernel_3d(r, y, a),
                  0, 30, limit=200)
    assert val == pytest.approx(y / a, abs=1e-6)


def test_moment_integral_3d_multiindex():
    # the 3-D moment integral with x^(4,2,2) weight equals f_8/35
    from scipy.integrate import quad

    y, a = 0.5, 1.0
    expected = dirichlet.multiindex_f((2, 1, 1)).eval_float((y, a))

    # angular average of x1^4 x2^2 x3^2 over the sphere of radius r:
    # r^8 * (3!! * 1!! * 1!!) / 11!! * 3 ... use the even-moment formula
    # E[x1^4 x2^2 x3^2] on the unit sphere = (3*1*1)/(9*7*5*3) doubled factorials
    angular = 3.0 / (9 * 7 * 5 * 3)
    val, _ = quad(
        lambda r: 4 * math.pi * r * r * angular * r ** 8 * numcheck.poisson_kernel_3d(r, y, a),
        0, 40, limit=300,
    )
    assert val == pytest.approx(expected, abs=1e-5)


def test_trig_series_alternating():
    y = 1.0
    closed = y * (3 * y ** 4 - 10 * math.pi ** 2 * y ** 2 + 7 * math.pi ** 4) / 720
    assert numcheck.trig_series_sum(2, y, math.pi, True, 10_000) == pytest.approx(
        closed, abs=1e-10
    )
    assert numcheck.trig_series_closed_form(2, y, math.pi, True) == pytest.approx(closed)


def test_trig_series_non_alternating():
    y = 1.0
    closed = (
        y * (math.pi - y)
        * (3 * y ** 3 - 12 * math.pi * y ** 2 + 8 * math.pi ** 2 * y + 8 * math.pi ** 3)
        / 720
    )
    assert numcheck.trig_series_sum(2, y, math.pi, False, 10_000) == pytest.approx(
        closed, abs=1e-9
    )
    assert numcheck.trig_series_closed_form(2, y, math.pi, False) == pytest.approx(closed)


def test_trig_series_zero_argument():
    assert numcheck.trig_series_sum(2, 0.0, math.pi, True, 100) == 0.0


def test_convolution_examples():
    val = numcheck.convolution_check(3, 0.7, 0.4, 1.0)
    assert val == pytest.approx(0.7 * 0.4 * (0.49 - 0.16 + 1.0), abs=1e-7)
    assert numcheck.convolution_check(0, 1.3, 0.25, 1.0) == pytest.approx(0.25, abs=1e-8)
    exact = dirichlet.basis_u(5, 1).eval_float((1.2, 0.9, 2.0))
    assert numcheck.convolution_check(5, 1.2, 0.9, 2.0) == pytest.approx(exact, abs=1e-6)


def test_run_all_checks_pass():
    results = numcheck.run_all_checks()
    failures = [r for r in results if not r.passed]
    assert not failures, [f.name for f in failures]


def test_quad_refuses_a_large_error_estimate(monkeypatch):
    import scipy.integrate

    monkeypatch.setattr(scipy.integrate, "quad", lambda f, lo, hi, **kwargs: (1.0, 1e-3))
    with pytest.raises(numcheck.QuadratureError, match="too large"):
        numcheck._quad(math.sin, 0.0, 1.0)
