"""Full layer boundary value problems: assembly and exact verification.

solve() splits the problem into a particular solution of the Poisson
equation plus a harmonic correction whose boundary data absorbs whatever
the particular solution left on the two hyperplanes.  Each part is one
finite series in the spatial Laplacian (see ``series``), applied to the
whole data polynomial: the harmonic corrections are the basis functions
of ``dirichlet`` or ``mixed`` with the boundary polynomial as their data.  Every step is exact
rational arithmetic, so verify() certifies the result by checking that
three residual polynomials are identically zero.  verify() walks u once:
one pass over its terms, grouped by their x part, gives the Laplacian and
both boundary traces together.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Literal

from . import dirichlet, mixed
from .particular import inv_laplacian
from .polyring import Poly, Ring, _Record, as_scalar, lift, poly_sum, reduced
from .series import width

Kind = Literal["dirichlet", "mixed"]


class LayerProblem(_Record):
    """Poisson problem in the layer 0 < y < a with polynomial data.

    ``lower`` is the prescribed value at y=0.  ``upper`` is the value at
    y=a for a Dirichlet problem, or the y-derivative at y=a for a mixed
    problem.  All three data polynomials live in the ring x1..xn, y; the
    boundary polynomials must not involve y.
    """

    _fields = ("n", "a", "rhs", "kind", "lower", "upper")

    def __init__(self, n: int, a: Fraction, rhs: Poly, kind: Kind, lower: Poly, upper: Poly):
        if n < 1:
            raise ValueError("spatial dimension must be at least 1")
        if a is None:
            raise TypeError("a layer problem needs a rational width")
        a = width(a)
        if kind not in ("dirichlet", "mixed"):
            raise ValueError(f"unknown problem kind {kind!r}")
        nvars = Ring(n).nvars
        for name, p in (("rhs", rhs), ("lower", lower), ("upper", upper)):
            if not isinstance(p, Poly) or p.nvars != nvars:
                raise ValueError(f"{name} must be a Poly in the ring x1..x{n}, y")
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


def _traces(p: Poly, problem: LayerProblem) -> tuple[Poly, Poly]:
    """The boundary traces the problem's kind prescribes: p at y=0, and p or ∂p/∂y at y=a."""
    y = problem.n
    top = p if problem.kind == "dirichlet" else p.diff(y)
    return p.subs(y, 0), top.subs(y, problem.a)


def solve(problem: LayerProblem) -> SolutionReport:
    """Unique polynomial solution of the layer problem, with certification."""
    n, a = problem.n, problem.a
    tilde = inv_laplacian(problem.rhs, n)
    tilde_lower, tilde_upper = _traces(tilde, problem)
    lower_corr = problem.lower - tilde_lower
    upper_corr = problem.upper - tilde_upper
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
    if u.nvars != problem.ring.nvars:
        raise ValueError(f"solution must live in the ring x1..x{n}, y")
    lap, lower, upper = _residual_parts(u, problem)
    return SolutionReport(u, lap - problem.rhs, lower - problem.lower, upper - problem.upper)


def _residual_parts(u: Poly, problem: LayerProblem) -> tuple[Poly, Poly, Poly]:
    """Δu, u at y=0, and u or ∂u/∂y at y=a, from one walk over the terms of u.

    The terms are grouped by their x part.  A group gives its ∂²/∂y² terms,
    its y⁰ term and one top-trace sum term by term; each ∂²/∂x_v² moves the
    whole group to one shifted x part.  At a = p/q the top trace is a sum
    over q^hi, hi the largest y exponent: c y^e contributes c p^e q^(hi-e)
    to the value and c e p^(e-1) q^(hi-e+1) to the y-derivative.
    """
    n, nums = problem.n, u.nums
    groups: dict[tuple[int, ...], list[tuple[int, int]]] = {}  # x part -> (y exponent, numerator)
    for exp, c in nums.items():
        x = exp[:n]
        group = groups.get(x)
        if group is None:
            groups[x] = [(exp[n], c)]
        else:
            group.append((exp[n], c))
    ys = {exp[n] for exp in nums}
    if ys and min(ys) < 0:
        raise ZeroDivisionError("substituting 0 into a negative power")
    hi = max(ys, default=0)
    p, q = problem.a.numerator, problem.a.denominator
    if problem.kind == "dirichlet":
        scale = [p ** e * q ** (hi - e) for e in range(hi + 1)]
    else:
        scale = [e * p ** (e - 1) * q ** (hi - e + 1) if e else 0 for e in range(hi + 1)]
    lap, lower, top = {}, {}, {}
    for x, group in groups.items():
        base = x + (0,)
        trace = 0
        for e, c in group:
            if e >= 2:
                key = x + (e - 2,)
                lap[key] = lap.get(key, 0) + c * (e * (e - 1))
            elif not e:
                lower[base] = c
            trace += c * scale[e]
        top[base] = trace
        for v, xv in enumerate(x):
            if xv >= 2:
                f = xv * (xv - 1)
                shifted = x[:v] + (xv - 2,) + x[v + 1:]
                for e, c in group:
                    key = shifted + (e,)
                    lap[key] = lap.get(key, 0) + c * f
    nvars, den = u.nvars, u.den
    return reduced(nvars, den, lap), reduced(nvars, den, lower), reduced(nvars, den * q ** hi, top)


def rectangle_trace(u: Poly, x_edges: tuple[Fraction, Fraction]) -> tuple[Poly, Poly]:
    """Induced side traces u(b0, y), u(b1, y) of a strip solution (n=1 only).

    A polynomial solution determined by data on the two horizontal sides of
    a rectangle fixes the values on the two vertical sides; this returns
    them as polynomials in y.
    """
    ring = Ring(1)
    if u.nvars != ring.nvars:
        raise ValueError("rectangle traces are defined for n = 1 only")
    b0, b1 = (as_scalar(b) for b in x_edges)
    return (
        lift(u.subs(0, b0), 1, (None, 0)),
        lift(u.subs(0, b1), 1, (None, 0)),
    )
