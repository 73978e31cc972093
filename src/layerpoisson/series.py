"""The layer solution operators as one series in the spatial Laplacian.

Every operator the solver needs is a function of the spatial Laplacian
Δ_x, and on polynomial data its series stops after finitely many terms:

    particular solution   Σ_j (-1)^j I_y^(j+1) Δ_x^j P,   I_y = ∫_0^y ∫_0^s
    harmonic correction   Σ_j s_j(y) Δ_x^j g

Δ(s_j Δ_x^j g) = s_j'' Δ_x^j g + s_j Δ_x^(j+1) g, so a correction is
harmonic when its y-family obeys one recurrence, s_j'' = -s_{j-1}, with
s_j(0) = 0 for j >= 1 and one condition at the top: s_j(a) = 0 for the
Dirichlet families, or s_j'(a) = 0 for the mixed ones.  ``member`` takes
that step, s_j = -I_y s_{j-1} + c y, with the scalar c that meets the top
condition.  ``family`` makes one y-family from its member at j = 0: a
store of one list [s_0, s_1, ...] per rational width, grown in order by
``member`` and read once per series; ``dirichlet`` and ``mixed`` make two
families each.  A member at a positive rational width is a polynomial in
y; at the symbolic width (None) it is a polynomial in (y, a), with
negative powers of a where the degree is below that of y, read off the
member at a = 1.

All of it runs on integers, with no ``Fraction`` arithmetic.  s_0 is
substituted at a = p/q with ``Poly.subs``; a step puts its integrated
terms over one lcm and sums the top value or slope at a = p/q over q^hi, as
``solver._residual_parts`` does.  ``apply_dx_series`` makes every power
Δ_x^j g, j = 0..J, first, with its integer content out, then asks its
image source once, with J, for ``image(j, m, last)``: T_j y^m as (den,
nums), given the den of T_(j-1) y^m; a family answers from one lookup.
Per y power it carries content over den in lowest terms, as the
factorials of Δ_x^j x^k and of the family cancel in the paper's binomial
sums, so its result is reduced by a small common factor.
"""

from __future__ import annotations

import math
import threading
from collections import OrderedDict, namedtuple
from fractions import Fraction
from typing import Callable, Optional, Union

from .polyring import (Exponent, Poly, _lowest, as_scalar, check_data, check_index, check_integer,
                       check_length, lift, reduced, second_partials)

Width = Optional[Fraction]  # None = keep a symbolic
Family = Callable[[int, Width], Poly]  # (j, width) -> s_j(y)


def width(a: Union[None, int, Fraction]) -> Width:
    """Validated width: None (symbolic) or a positive Fraction."""
    if a is None:
        return None
    a = as_scalar(a)
    if a.numerator <= 0:
        raise ValueError("layer width must be positive")
    return a


def normalize_index(k, n: int) -> tuple[int, ...]:
    """A multi-index of length n; a bare int is accepted for n = 1.

    Its entries are ints; bool and other types are refused, as ``as_scalar``
    refuses them for scalars.
    """
    k = (k,) if isinstance(k, int) else tuple(k)
    check_length(k, n, "multi-index")
    for e in k:
        check_integer(e, "multi-index entries must be integers")
    if any(e < 0 for e in k):
        raise ValueError("multi-index entries must be non-negative")
    return k


def boundary_data(g, n: int) -> Poly:
    """Boundary data as a Poly in x1..xn, y: x^k for a multi-index k, or g itself."""
    if not isinstance(g, Poly):
        g = reduced(n + 1, 1, {normalize_index(g, n) + (0,): 1})
    check_data(g, n, "boundary data")
    if g.degree_in(n) > 0:
        raise ValueError("boundary data must not involve y")
    return g


def member(prev: Poly, p: int, q: int, slope: bool) -> Poly:
    """s_j = -I_y s_{j-1} + c y at width a = p/q, from prev = s_{j-1}.

    The scalar c makes s_j(a) = 0, or ∂_y s_j(a) = 0 when ``slope``.
    """
    # -I_y y^l = -y^(l+2) / ((l+1)(l+2)), over one lcm M; then c y cancels
    # the top value Σ n_l a^(l+2), or the top slope Σ (l+2) n_l a^(l+1),
    # where a^(l+1) is p^(l+1) q^(hi-l-1) over q^hi, its two factors
    # tabulated once for the step
    nums = prev.nums
    M = math.lcm(*((e[0] + 1) * (e[0] + 2) for e in nums))
    hi = max(nums)[0] + 1
    ps, qs = [p], [1]
    for _ in range(hi - 1):
        ps.append(ps[-1] * p)
        qs.append(qs[-1] * q)
    scale = qs[-1] * q
    out, top = {}, 0
    for (l,), c in nums.items():
        n = -c * (M // ((l + 1) * (l + 2)))
        out[l + 2,] = n * scale
        top += n * (l + 2 if slope else 1) * ps[l] * qs[hi - l - 1]
    out[1,] = -top
    return reduced(1, prev.den * M * scale, out)


# members held per family, over all its widths, before whole widths are evicted
_MAX_MEMBERS = 1024

_CacheInfo = namedtuple("CacheInfo", "hits misses maxsize currsize")
_UNIT = Fraction(1)  # the width whose members give the symbolic ones


def family(module: str, name: str, first: dict[tuple[int, int], int], slope: bool = False) -> Family:
    """The y-family seeded with ``first`` = {(l, k): c}, s_0 = Σ c y^l a^k.

    s_j(a) = 0 is its top condition, or ∂_y s_j(a) = 0 when ``slope``.  The
    family keeps one list [s_0, s_1, ...] per width p/q, grown in order by
    ``member``.  A lookup, ``members(J, a)``, returns that list, grown to s_J
    first, for the caller to read: a series reads s_0 .. s_J in one lookup,
    and a cold s_J takes J steps.  ``get(j, a)`` is s_j, read from that
    list; at the symbolic width it converts s_j alone.  A lookup is a hit
    when s_J is already stored.  The widths are kept in an ``OrderedDict``
    in recency order; when the lists hold more than ``_MAX_MEMBERS``
    members in all, the least recently used widths are dropped whole,
    never the one in use.  The symbolic width is read from the unit-width
    list: every member is homogeneous in (y, a), s_j = Σ c_l y^l a^(d-l)
    with c_l its y^l coefficient at a = 1 and d = 2j + deg s_0.  A lookup
    holds the family's lock, so threads can share it.
    """
    lists: OrderedDict[tuple[int, int], list[Poly]] = OrderedDict()  # least recently used first
    degree = sum(next(iter(first)))
    first = reduced(2, 1, dict(first))  # s_0 in (y, a)
    hits = misses = 0
    lock = threading.Lock()  # one thread at a time reads, grows or evicts

    def symbolic(s: Poly, j: int) -> Poly:
        d = 2 * j + degree
        return _lowest(2, s.den, {(l, d - l): c for (l,), c in s.nums.items()})

    def members(J: int, a: Width) -> list[Poly]:
        nonlocal hits, misses
        if a is None:
            return list(map(symbolic, members(J, _UNIT)[:J + 1], range(J + 1)))
        key = a.numerator, a.denominator
        with lock:
            found = lists.get(key)
            if found is not None:
                lists.move_to_end(key)
                if J < len(found):
                    hits += 1
                    return found
            misses += 1
            if found is None:
                found = lists[key] = [lift(first.subs(1, a), 1, (0, None))]
            p, q = key
            while len(found) <= J:
                found.append(member(found[-1], p, q, slope))
            total = sum(map(len, lists.values()))
            while total > _MAX_MEMBERS and len(lists) > 1:
                total -= len(lists.popitem(last=False)[1])
            return found

    def get(j: int, a: Width) -> Poly:
        check_index(j, "order")
        s = members(j, _UNIT if a is None else a)[j]
        return symbolic(s, j) if a is None else s

    def cache_info() -> _CacheInfo:
        with lock:
            return _CacheInfo(hits, misses, _MAX_MEMBERS, sum(map(len, lists.values())))

    def cache_clear() -> None:
        nonlocal hits, misses
        with lock:
            lists.clear()
            hits = misses = 0

    get.__module__, get.__name__, get.__qualname__ = module, name, name
    get.members, get.cache_info, get.cache_clear = members, cache_info, cache_clear
    return get


def quotient(name: str, j: int) -> tuple[int, int]:
    """s^j coefficient of a scalar quotient, s = -t^2, as a reduced (num, den).

    Each is the y coefficient of a unit-width family member: t/sinh t of
    ``_c(j)``, t coth t of ``-_c_flip(j)``, tanh(t)/t of ``_d(j + 1)`` and
    sech t of ``_e(j)``.  A negative ``j`` gives (0, 1).
    """
    check_integer(j, "order must be an integer")
    from . import dirichlet, mixed  # both import this module

    quotients = {
        "t/sinh t": (dirichlet._c, j, 1),
        "t coth t": (dirichlet._c_flip, j, -1),
        "tanh(t)/t": (mixed._d, j + 1, 1),
        "sech t": (mixed._e, j, 1),
    }
    if name not in quotients:
        raise ValueError(f"unknown quotient {name!r}; expected one of {', '.join(map(repr, quotients))}")
    if j < 0:
        return 0, 1
    family, i, sign = quotients[name]
    s = family(i, _UNIT)
    r = Fraction(sign * s.nums.get((1,), 0), s.den)
    return r.numerator, r.denominator


def apply_dx_series(g: Poly, n: int, images: Callable[[int], Callable], nvars: int) -> Poly:
    """The series Σ_j T_j Δ_x^j g, a Poly in ``nvars`` variables.

    ``g`` lives in the ring x1..xn, y.  Every power Δ_x^j g, j = 0..J, is
    made first; then ``images(J)``, called once, gives ``image(j, m, last)``:
    T_j y^m as a pair (den, nums) that is only read, given the den of
    T_(j-1) y^m as ``last`` (1 at j = 0).  Each output key is the x exponent
    of a term of Δ_x^j g followed by an exponent of that image.  Δ_x^j g is
    c_0...c_j h_j / g.den, with h_j primitive and c_j the content step j
    takes out.  Δ_x keeps y exponents, so each y^m is asked for at j = 0, 1,
    2, ... until it dies, and its ratio f/d = c_0...c_j / den is carried in
    lowest terms from one j to the next; the images, each scaled by its f,
    are put over the lcm L of the d.  So the sum is accumulated in integers
    over g.den*L, and ``reduced`` finds only a small gcd.
    """
    powers = []  # (h_j, c_j), then (h_j, {m: (nums of T_j y^m, d, f)})
    h = g.nums
    while h:
        c = math.gcd(*h.values())
        if c != 1:
            h = {exp: v // c for exp, v in h.items()}
        powers.append((h, c))
        h = second_partials(h, n)
    image = images(len(powers) - 1)
    ratios = {}  # m -> (f, d, den) at the last j; den / last is small for the particular images
    for j, (h, c) in enumerate(powers):
        used = {}
        for m in {e[n] for e in h}:
            f, d, last = ratios.get(m, (1, 1, 1))
            den, nums = image(j, m, last)
            r = math.gcd(last, den)
            f, d = f * c * (last // r), d * (den // r)
            r = math.gcd(f, d)
            f, d = f // r, d // r
            ratios[m], used[m] = (f, d, den), (nums, d, f)
        powers[j] = h, used
    L = math.lcm(*{d for _, used in powers for _, d, _ in used.values()})
    out: dict[Exponent, int] = {}
    for h, used in powers:
        scaled = {}
        for m, (nums, d, f) in used.items():
            f *= L // d
            scaled[m] = [(tail, q * f) for tail, q in nums.items()]
        for exp, c in h.items():
            x = exp[:n]
            for tail, q in scaled[exp[n]]:
                key = x + tail
                out[key] = out.get(key, 0) + c * q
    return reduced(nvars, g.den * L, out)


def correction(family: Family, g: Poly, n: int, a: Width) -> Poly:
    """Σ_j s_j(y) Δ_x^j g for y-free data g: the harmonic extension it names.

    The result lives in x1..xn, y, followed by a when the width is symbolic;
    the series reads s_0 .. s_J with one ``family.members(J, a)`` lookup.
    """
    def images(J: int):
        members = family.members(J, a)
        # g is free of y, so the image of y^m is only asked for m = 0
        return lambda j, m, last: (members[j].den, members[j].nums)

    return apply_dx_series(g, n, images, n + 1 + (a is None))
