"""Full layer boundary value problems: assembly and exact verification.

solve() splits the problem into a particular solution of the Poisson
equation plus a harmonic correction whose boundary data absorbs whatever
the particular solution left on the two hyperplanes.  Each part is one
finite series in the spatial Laplacian (see ``series``), applied to the
whole data polynomial: the harmonic corrections are the basis functions
of ``dirichlet`` or ``mixed`` with the boundary polynomial as their data.
Every step is exact rational arithmetic, so verify() certifies the result
by checking that three residual polynomials are identically zero.
verify() walks u once: one pass over its terms, grouped by their x part,
gives the Laplacian and both boundary traces together.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Literal

from . import dirichlet, mixed
from .particular import inv_laplacian
from .polyring import Poly, Ring, _Record, as_scalar, check_data, check_dimension, lift, poly_sum, reduced
from .series import width

Kind = Literal["dirichlet", "mixed"]


class LayerProblem(_Record):
    """Poisson problem in the layer 0 < y < a with polynomial data.

    ``lower`` is the prescribed value at y=0.  ``upper`` is the value at
    y=a for a Dirichlet problem, or the y-derivative at y=a for a mixed
    problem.  The three data polynomials pass ``check_data``, and the
    boundary polynomials must not involve y.  n is at most ``MAX_DIMENSION``.
    """

    _fields = ("n", "a", "rhs", "kind", "lower", "upper")

    def __init__(self, n: int, a: Fraction, rhs: Poly, kind: Kind, lower: Poly, upper: Poly):
        check_dimension(n)
        if a is None:
            raise TypeError("a layer problem needs a rational width")
        a = width(a)
        if kind not in ("dirichlet", "mixed"):
            raise ValueError(f"unknown problem kind {kind!r}")
        for name, p in (("rhs", rhs), ("lower", lower), ("upper", upper)):
            check_data(p, n, name)
        for name, p in (("lower", lower), ("upper", upper)):
            if p.degree_in(n) != 0:
                raise ValueError(f"boundary polynomial {name} must not involve y")
        super().__init__(n, a, rhs, kind, lower, upper)

    @property
    def ring(self) -> Ring:
        return Ring(self.n)


class SolutionReport(_Record):
    """A candidate solution together with its exact residuals."""

    _fields = ("u", "residual_pde", "residual_lower", "residual_upper")

    def __init__(self, u: Poly, residual_pde: Poly, residual_lower: Poly, residual_upper: Poly):
        super().__init__(u, residual_pde, residual_lower, residual_upper)

    @property
    def verified(self) -> bool:
        return (
            self.residual_pde.is_zero()
            and self.residual_lower.is_zero()
            and self.residual_upper.is_zero()
        )

    def to_json_dict(self) -> dict:
        return {
            "solution": self.u.to_json_dict(),
            "residual_pde": self.residual_pde.to_json_dict(),
            "residual_lower": self.residual_lower.to_json_dict(),
            "residual_upper": self.residual_upper.to_json_dict(),
            "verified": self.verified,
        }


def _traces(p: Poly, problem: LayerProblem) -> Poly:
    """The top trace the problem's kind prescribes: p or ∂p/∂y at y=a.

    The particular solution needs no lower trace: each of its terms has a
    y exponent of at least 2, so it is 0 at y=0.
    """
    y = problem.n
    top = p if problem.kind == "dirichlet" else p.diff(y)
    return top.subs(y, problem.a)


def solve(problem: LayerProblem) -> SolutionReport:
    """Unique polynomial solution of the layer problem, with certification."""
    n, a = problem.n, problem.a
    tilde = inv_laplacian(problem.rhs, n)
    lower_corr = problem.lower
    upper_corr = problem.upper - _traces(tilde, problem)
    if problem.kind == "dirichlet":
        lower, upper = dirichlet.basis_v(lower_corr, n, a), dirichlet.basis_u(upper_corr, n, a)
    else:
        lower, upper = mixed.mixed_basis_u(lower_corr, n, a), mixed.mixed_basis_v(upper_corr, n, a)
    u = poly_sum(tilde.nvars, (tilde, lower, upper))

    report = verify(u, problem)
    if not report.verified:
        # the construction is exact, so this can only mean an internal bug
        raise AssertionError("internal consistency failure: nonzero residual from solve()")
    return report


def verify(u: Poly, problem: LayerProblem) -> SolutionReport:
    """Exact residuals of a candidate solution against the problem data."""
    n = problem.n
    if u.nvars != n + 1:
        raise ValueError(f"solution must live in the ring x1..x{n}, y")
    return SolutionReport(u, *_residual_parts(u, problem))


def _residual_parts(u: Poly, problem: LayerProblem) -> tuple[Poly, Poly, Poly]:
    """Δu − rhs, u − lower at y=0, and u or ∂u/∂y minus upper at y=a, from one walk over u.

    The terms are grouped by their x part into {y exponent: numerator}
    maps, and Δu is accumulated in maps of the same shape.  A group gives
    its ∂²/∂y² terms, its y⁰ term and one top-trace sum term by term; each
    ∂²/∂x_v² moves the whole group into the map of one shifted x part.
    The exponent x + (e,) of a term of Δu is built only for the nonzero
    terms left after those sums.  At a = p/q the top trace is a sum over
    q^hi, hi the largest y exponent: c y^e contributes c p^e q^(hi-e) to
    the value and c e p^(e-1) q^(hi-e+1) to the y-derivative, a weight
    computed only for the y exponents u has.  Each part then has its data
    subtracted over one common denominator.
    """
    n, nums = problem.n, u.nums
    groups: dict[tuple[int, ...], dict[int, int]] = {}  # x part -> {y exponent: numerator}
    for exp, c in nums.items():
        x, e = exp[:n], exp[n]
        group = groups.get(x)
        if group is None:
            groups[x] = {e: c}
        else:
            group[e] = c
    ys = set().union(*groups.values())  # the y exponents of u
    if min(ys, default=0) < 0:
        raise ZeroDivisionError("substituting 0 into a negative power")
    hi = max(ys, default=0)
    p, q = problem.a.numerator, problem.a.denominator
    if problem.kind == "dirichlet":
        scale = {e: p ** e * q ** (hi - e) for e in ys}
    else:
        scale = {e: e * p ** (e - 1) * q ** (hi - e + 1) if e else 0 for e in ys}
    lap: dict[tuple[int, ...], dict[int, int]] = {}  # x part -> {y exponent: numerator} of Δu
    lower, top = {}, {}
    for x, group in groups.items():
        base = x + (0,)
        trace = 0
        out = lap.setdefault(x, {})
        for e, c in group.items():
            if e >= 2:
                out[e - 2] = out.get(e - 2, 0) + c * (e * (e - 1))
            elif not e:
                lower[base] = c
            trace += c * scale[e]
        top[base] = trace
        for v, xv in enumerate(x):
            if xv >= 2 or xv < 0:
                f = xv * (xv - 1)
                shifted = x[:v] + (xv - 2,) + x[v + 1:]
                out = lap.get(shifted)
                if out is None:
                    lap[shifted] = {e: c * f for e, c in group.items()}
                else:
                    for e, c in group.items():
                        out[e] = out.get(e, 0) + c * f
    nvars, den = u.nvars, u.den
    lap_nums = {x + (e,): c for x, out in lap.items() for e, c in out.items() if c}
    return (_minus(nvars, den, lap_nums, problem.rhs), _minus(nvars, den, lower, problem.lower),
            _minus(nvars, den * q ** hi, top, problem.upper))


def _minus(nvars: int, den: int, nums: dict[tuple[int, ...], int], data: Poly) -> Poly:
    """Σ nums[exp]/den x^exp − data, accumulated in ``nums`` over the lcm of the denominators."""
    common = math.lcm(den, data.den)
    if common != den:
        f = common // den
        nums = {exp: c * f for exp, c in nums.items()}
    f = common // data.den
    for exp, c in data.nums.items():
        nums[exp] = nums.get(exp, 0) - c * f
    return reduced(nvars, common, nums)


def rectangle_trace(u: Poly, x_edges: tuple[Fraction, Fraction]) -> tuple[Poly, Poly]:
    """Induced side traces u(b0, y), u(b1, y) of a strip solution (n=1 only).

    A polynomial solution determined by data on the two horizontal sides of
    a rectangle fixes the values on the two vertical sides; this returns
    them as polynomials in y.
    """
    if u.nvars != 2:
        raise ValueError("rectangle traces are defined for n = 1 only")
    b0, b1 = (as_scalar(b) for b in x_edges)
    return (
        lift(u.subs(0, b0), 1, (None, 0)),
        lift(u.subs(0, b1), 1, (None, 0)),
    )
