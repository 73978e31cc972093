"""Floating-point cross-validation of the exact polynomial families.

The exact pipeline never touches floats; this module independently checks
it against the integral and series representations behind it: the layer
Poisson kernels in closed form (n = 1 and n = 3), moment integrals by
adaptive quadrature, partial sums of the associated trigonometric series,
and direct convolution quadrature against the harmonic basis.  numpy and
scipy, the optional 'numcheck' extra, are imported by the functions that
use them, so the module itself imports without them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from . import dirichlet


def poisson_kernel_1d(x: float, y: float, a: float) -> float:
    """Closed-form layer Poisson kernel for n = 1; defined for 0 < y < a."""
    if not 0 < y < a:
        raise ValueError("y must lie strictly inside (0, a)")
    return (1.0 / (2.0 * a)) * math.sin(math.pi * y / a) / (
        math.cosh(math.pi * x / a) + math.cos(math.pi * y / a)
    )


def poisson_kernel_3d(r: float, y: float, a: float) -> float:
    """Closed-form layer Poisson kernel for n = 3, radial in x.

    The apparent singularity at r = 0 is removable; the limit is
    (pi / 4a^3) sin(pi y/a) / (1 + cos(pi y/a))^2.
    """
    if not 0 < y < a:
        raise ValueError("y must lie strictly inside (0, a)")
    if r < 0:
        raise ValueError("radius must be non-negative")
    s = math.sin(math.pi * y / a)
    c = math.cos(math.pi * y / a)
    if r < 1e-12:
        return (math.pi / (4.0 * a ** 3)) * s / (1.0 + c) ** 2
    return (1.0 / (4.0 * a ** 2)) * s * math.sinh(math.pi * r / a) / (
        r * (math.cosh(math.pi * r / a) + c) ** 2
    )


class QuadratureError(RuntimeError):
    """Adaptive quadrature failed to reach the requested accuracy."""


def _quad(f, lo, hi, tol=1e-12) -> float:
    from scipy.integrate import quad
    value, err = quad(f, lo, hi, epsabs=tol, epsrel=tol, limit=300)
    if not math.isfinite(value) or err > max(1e-6, 1e-6 * abs(value)):
        raise QuadratureError(f"integral error estimate {err} too large")
    return value


def moment_integral(m: int, y: float, a: float, kind: str = "plus") -> float:
    """Even moment of the n = 1 kernel by adaptive quadrature.

    kind="plus" integrates against the kernel with +cos (valid for
    -a < y < a, equals f_{2m}(y)); kind="minus" uses -cos (valid for
    0 < y < 2a, equals f_{2m}(a - y)).
    """
    if kind not in ("plus", "minus"):
        raise ValueError("kind must be 'plus' or 'minus'")
    if kind == "plus" and not -a < y < a:
        raise ValueError("plus kind requires -a < y < a")
    if kind == "minus" and not 0 < y < 2 * a:
        raise ValueError("minus kind requires 0 < y < 2a")
    sign = 1.0 if kind == "plus" else -1.0
    s = math.sin(math.pi * y / a)
    c = math.cos(math.pi * y / a)

    def integrand(t: float) -> float:
        return t ** (2 * m) * s / (math.cosh(math.pi * t / a) + sign * c)

    # truncate where the exponential tail is negligible: t^{2m} e^{-pi t/a}
    T = a * (12.0 + 2 * m * 4.0)
    return (1.0 / (2.0 * a)) * 2.0 * _quad(integrand, 0.0, T)


def trig_series_sum(m: int, y: float, a: float, alternating: bool, terms: int) -> float:
    """Partial sum of sum_k (+-1)^(k-1) sin(pi k y / a) / k^(2m+1)."""
    if terms < 1:
        raise ValueError("need at least one term")
    import numpy as np
    k = np.arange(1, terms + 1, dtype=float)
    signs = np.where(np.arange(terms) % 2 == 0, 1.0, -1.0) if alternating else 1.0
    return float(np.sum(signs * np.sin(math.pi * k * y / a) / k ** (2 * m + 1)))


def trig_series_closed_form(m: int, y: float, a: float, alternating: bool) -> float:
    """Closed-form value of the series via the exact moment polynomial."""
    f = dirichlet.f_poly(m, a=None)
    scale = math.pi ** (2 * m + 1) / (2.0 * math.factorial(2 * m) * a ** (2 * m))
    point = y if alternating else a - y
    return scale * f.eval_float((point, a))


def convolution_check(k: int, x: float, y: float, a: float) -> float:
    """Convolution of x^k boundary data with the n = 1 kernel, by quadrature."""
    if not 0 < y < a:
        raise ValueError("y must lie strictly inside (0, a)")
    T = a * (12.0 + 4.0 * k)

    def integrand(t: float) -> float:
        return (x - t) ** k * poisson_kernel_1d(t, y, a)

    return _quad(integrand, x - T, x + T)


def kernel_recurrence_residual(r: float, y: float, a: float, h: float = 1e-5) -> float:
    """|P3(r,y) + (1/(2 pi r)) dP1/dr| via central finite differences."""
    dP1 = (poisson_kernel_1d(r + h, y, a) - poisson_kernel_1d(r - h, y, a)) / (2 * h)
    return abs(poisson_kernel_3d(r, y, a) + dP1 / (2.0 * math.pi * r))


@dataclass(frozen=True)
class CheckResult:
    name: str
    value: float
    reference: float
    tolerance: float

    @property
    def error(self) -> float:
        return abs(self.value - self.reference)

    @property
    def passed(self) -> bool:
        return self.error <= self.tolerance

    def to_json_dict(self) -> dict:
        return {
            "name": self.name,
            "value": self.value,
            "reference": self.reference,
            "error": self.error,
            "tolerance": self.tolerance,
            "passed": self.passed,
        }


def run_all_checks() -> list[CheckResult]:
    """The full numeric cross-check battery, deterministic and self-contained."""
    import numpy as np
    results: list[CheckResult] = []
    rng = np.random.default_rng(20240817)

    # moment integrals vs the exact moment polynomials, m <= 4
    for m in range(5):
        for _ in range(5):
            a = float(rng.uniform(0.5, 2.5))
            y = float(rng.uniform(0.05 * a, 0.95 * a))
            exact = dirichlet.f_poly(m).eval_float((y, a))
            approx = moment_integral(m, y, a, "plus")
            tol = 1e-6 * max(1.0, abs(exact))
            results.append(CheckResult(f"moment[m={m}] y={y:.3f} a={a:.3f}", approx, exact, tol))

    # kernel normalization: zeroth moment equals y/a
    for frac in (0.1, 0.3, 0.5, 0.7, 0.9):
        a = 1.0
        y = frac * a
        results.append(
            CheckResult(f"normalization y={y:.1f}", moment_integral(0, y, a, "plus"), y / a, 1e-8)
        )

    # trigonometric series, m=2, a=pi instances
    y = 1.0
    alt_closed = y * (3 * y ** 4 - 10 * math.pi ** 2 * y ** 2 + 7 * math.pi ** 4) / 720.0
    results.append(
        CheckResult(
            "series alternating m=2",
            trig_series_sum(2, y, math.pi, True, 10_000),
            alt_closed,
            1e-10,
        )
    )
    plain_closed = (
        y * (math.pi - y) * (3 * y ** 3 - 12 * math.pi * y ** 2 + 8 * math.pi ** 2 * y + 8 * math.pi ** 3) / 720.0
    )
    results.append(
        CheckResult(
            "series non-alternating m=2",
            trig_series_sum(2, y, math.pi, False, 10_000),
            plain_closed,
            1e-9,
        )
    )

    # convolution against the exact Dirichlet basis, 10 points
    for _ in range(10):
        k = int(rng.integers(0, 6))
        a = float(rng.uniform(0.5, 2.0))
        x = float(rng.uniform(-1.5, 1.5))
        y = float(rng.uniform(0.1 * a, 0.9 * a))
        exact = dirichlet.basis_u(k, 1).eval_float((x, y, a))
        approx = convolution_check(k, x, y, a)
        tol = 1e-6 * max(1.0, abs(exact))
        results.append(CheckResult(f"convolution k={k} x={x:.2f} y={y:.2f}", approx, exact, tol))

    # dimension recurrence between the n=1 and n=3 kernels
    for _ in range(8):
        a = float(rng.uniform(0.5, 2.0))
        r = float(rng.uniform(0.2, 1.5))
        y = float(rng.uniform(0.1 * a, 0.9 * a))
        results.append(
            CheckResult(
                f"kernel recurrence r={r:.2f} y={y:.2f}",
                kernel_recurrence_residual(r, y, a),
                0.0,
                1e-5,
            )
        )

    return results
