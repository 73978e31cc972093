"""Exact sparse multivariate polynomial arithmetic over the rationals.

A polynomial is stored in one canonical form: a positive common
denominator ``den`` and a map ``nums`` from exponent tuples to nonzero
``int`` numerators, with ``gcd(den, *nums) == 1``; the coefficient of
x^exp is nums[exp]/den.  Every operation computes in ``int`` and returns
through ``reduced``, which drops zero numerators and divides out the gcd,
so equality of polynomials is equality of (nvars, den, nums).  Every
reader in this package, the renderers, JSON and evaluation included, reads
``den``/``nums``; ``terms``, a map of reduced ``Fraction`` coefficients, is
a view rebuilt on each read for callers outside it.  All values are
immutable and every operation is a pure function; instances can be shared
freely between threads.

Variable convention used throughout the package: the first ``n`` slots are
the spatial variables x1..xn, the next slot is the vertical variable y,
and an optional last slot holds the formal layer-width symbol ``a``.  Only
the ``a`` slot may carry a negative exponent (the harmonic-basis families
carry one overall 1/a factor); ``check_data`` refuses other data at the
solver's entry points.  ``second_partials`` takes any integer exponent.

Three entry rules.  A scalar that enters a ``Poly`` (a coefficient, an
operand, a substituted value, an evaluation point) passes ``as_scalar``,
which refuses ``float`` and ``bool``; solver data passes ``check_data``; a
shape argument (a ring size, index, order or position, or a sequence of one
entry per variable) passes ``check_index`` or ``check_length``.  Variable
names, for the renderers and ``parsing.parse_expr``, must be distinct.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import cached_property
from operator import add
from typing import Iterable, Iterator, Mapping, Sequence, Union

Exponent = tuple[int, ...]
Scalar = Union[int, Fraction]


class Poly:
    """Immutable sparse polynomial in ``nvars`` variables."""

    __slots__ = ("nvars", "den", "nums")

    def __init__(self, nvars: int, terms: Mapping[Exponent, Scalar] | Iterable = ()):
        check_index(nvars, "nvars")
        items = terms.items() if isinstance(terms, Mapping) else terms
        coeffs: dict[Exponent, Fraction] = {}
        for exp, coeff in items:
            exp = tuple(exp)
            check_length(exp, nvars, "exponent")
            for e in exp:
                check_integer(e, "exponent entries must be integers")
            coeff = as_scalar(coeff)
            coeffs[exp] = coeffs[exp] + coeff if exp in coeffs else coeff
        den = math.lcm(*(c.denominator for c in coeffs.values()))
        nums = {exp: c.numerator * (den // c.denominator) for exp, c in coeffs.items()}
        self._store(nvars, den, nums)

    def _store(self, nvars: int, den: int, nums: dict[Exponent, int]) -> "Poly":
        """Set the canonical form of Σ nums[exp]/den x^exp; den is any nonzero int."""
        if 0 in nums.values():
            nums = {exp: c for exp, c in nums.items() if c}
        if den != 1:
            g = math.gcd(den, *nums.values())
            if den < 0:
                g = -g
            if g != 1:
                den //= g
                nums = {exp: c // g for exp, c in nums.items()}
        _set_nvars(self, nvars)
        _set_den(self, den)
        _set_nums(self, nums)
        return self

    def __setattr__(self, name, value):
        raise AttributeError("Poly is immutable")

    def __delattr__(self, name):
        raise AttributeError("Poly is immutable")

    def __reduce__(self):
        # copy, deepcopy and pickle rebuild through reduced, not through __setattr__
        return reduced, (self.nvars, self.den, self.nums)

    @property
    def terms(self) -> dict[Exponent, Fraction]:
        """The coefficients as a map from exponents to reduced Fractions, built on each read."""
        return {exp: Fraction(c, self.den) for exp, c in self.nums.items()}

    # -- constructors ------------------------------------------------------

    @staticmethod
    def zero(nvars: int) -> "Poly":
        return Poly(nvars)

    @staticmethod
    def const(nvars: int, value: Scalar) -> "Poly":
        check_index(nvars, "nvars")  # before (0,) * nvars refuses a float in Python's words
        return Poly(nvars, {(0,) * nvars: value})

    @staticmethod
    def variable(nvars: int, index: int) -> "Poly":
        check_index(nvars, "nvars")
        check_index(index, "variable index", nvars)
        return Poly(nvars, {(0,) * index + (1,) + (0,) * (nvars - index - 1): 1})

    @staticmethod
    def monomial(nvars: int, exp: Sequence[int], coeff: Scalar = 1) -> "Poly":
        return Poly(nvars, {tuple(exp): coeff})

    # -- basic predicates --------------------------------------------------

    def is_zero(self) -> bool:
        return not self.nums

    def __bool__(self) -> bool:
        return bool(self.nums)

    def is_constant(self) -> bool:
        return all(all(e == 0 for e in exp) for exp in self.nums)

    def constant_value(self) -> Fraction:
        """The value of a constant polynomial (raises if non-constant)."""
        if not self.nums:
            return Fraction(0)
        if not self.is_constant():
            raise ValueError("polynomial is not constant")
        return Fraction(next(iter(self.nums.values())), self.den)

    def total_degree(self) -> int:
        """Max total degree over all terms; 0 for the zero polynomial."""
        if not self.nums:
            return 0
        return max(sum(exp) for exp in self.nums)

    def degree_in(self, var: int) -> int:
        check_index(var, "variable index", self.nvars)
        if not self.nums:
            return 0
        return max(exp[var] for exp in self.nums)

    # -- equality / hashing ------------------------------------------------

    def __eq__(self, other) -> bool:
        if not isinstance(other, Poly):
            return NotImplemented
        return self.nvars == other.nvars and self.den == other.den and self.nums == other.nums

    def __hash__(self) -> int:
        return hash((self.nvars, self.den, frozenset(self.nums.items())))

    # -- arithmetic --------------------------------------------------------

    def _coerce(self, other) -> "Poly":
        if isinstance(other, Poly):
            if other.nvars != self.nvars:
                raise ValueError(f"variable-count mismatch: {self.nvars} vs {other.nvars}")
            return other
        return Poly.const(self.nvars, as_scalar(other))

    def __add__(self, other) -> "Poly":
        return poly_sum(self.nvars, (self, self._coerce(other)))

    __radd__ = __add__

    def __neg__(self) -> "Poly":
        return _lowest(self.nvars, self.den, {exp: -c for exp, c in self.nums.items()})

    def __sub__(self, other) -> "Poly":
        return self + (-self._coerce(other))

    def __rsub__(self, other) -> "Poly":
        return self._coerce(other) + (-self)

    def __mul__(self, other) -> "Poly":
        # a Poly is tested for first: isinstance against Fraction dispatches through its ABC
        if not isinstance(other, Poly):
            r = as_scalar(other)
            nums = {exp: c * r.numerator for exp, c in self.nums.items()}
            return reduced(self.nvars, self.den * r.denominator, nums)
        other = self._coerce(other)
        out: dict[Exponent, int] = {}
        for ea, ca in self.nums.items():
            for eb, cb in other.nums.items():
                key = tuple(map(add, ea, eb))
                out[key] = out.get(key, 0) + ca * cb
        return reduced(self.nvars, self.den * other.den, out)

    __rmul__ = __mul__

    def __truediv__(self, other) -> "Poly":
        other = as_scalar(other)
        if not other:
            raise TypeError("can only divide a Poly by a nonzero scalar")
        return self * (1 / other)

    def __pow__(self, n: int) -> "Poly":
        check_index(n, "exponent")
        result = _lowest(self.nvars, 1, {(0,) * self.nvars: 1})
        base = self
        while n:
            if n & 1:
                result = result * base
            n >>= 1
            if n:
                base = base * base
        return result

    # -- calculus ----------------------------------------------------------

    def diff(self, var: int, order: int = 1) -> "Poly":
        """Partial derivative of the given order with respect to one variable."""
        check_index(var, "variable index", self.nvars)
        check_index(order, "order")
        if order == 0:
            return self
        out: dict[Exponent, int] = {}
        for exp, c in self.nums.items():
            e = exp[var]
            if 0 <= e < order:  # the falling factorial below is 0
                continue
            # falling factorial e*(e-1)*...*(e-order+1), nonzero for negative e
            fall = 1
            for i in range(order):
                fall *= e - i
            new = list(exp)
            new[var] = e - order
            out[tuple(new)] = c * fall
        return reduced(self.nvars, self.den, out)

    def laplacian(self, n: int) -> "Poly":
        """Sum of second partials in x1..xn and y (variables 0..n)."""
        check_index(n, "spatial dimension", self.nvars)
        return reduced(self.nvars, self.den, second_partials(self.nums, n + 1))

    # -- substitution / evaluation ----------------------------------------

    def subs(self, var: int, value) -> "Poly":
        """Substitute a polynomial or scalar for one variable, exactly.

        A negative exponent on the substituted variable is only allowed for
        a nonzero scalar value (the Laurent slot for the width symbol).
        """
        check_index(var, "variable index", self.nvars)
        if not isinstance(value, Poly):
            return self._subs_scalar(var, as_scalar(value))
        value = self._coerce(value)
        if value.is_constant():
            return self._subs_scalar(var, value.constant_value())
        # group terms by the exponent of var, multiply each group by value^e, and sum once
        groups: dict[int, dict[Exponent, int]] = {}
        for exp, c in self.nums.items():
            e = exp[var]
            if e < 0:
                raise ValueError("cannot substitute a non-constant into a negative power")
            groups.setdefault(e, {})[exp[:var] + (0,) + exp[var + 1:]] = c
        powers = [Poly.const(self.nvars, 1)]
        for _ in range(max(groups, default=0)):
            powers.append(powers[-1] * value)
        parts = [reduced(self.nvars, self.den, g) * powers[e] for e, g in groups.items()]
        return poly_sum(self.nvars, parts)

    def _subs_scalar(self, var: int, r: Fraction) -> "Poly":
        """Substitute r = p/q: every term c*v^e becomes c*p^(e-lo)*q^(hi-e) over p^-lo*q^hi."""
        exps = {exp[var] for exp in self.nums}
        lo, hi = min(exps, default=0), max(exps, default=0)
        if not r.numerator:
            if lo < 0:
                raise ZeroDivisionError("substituting 0 into a negative power")
            kept = {exp: c for exp, c in self.nums.items() if not exp[var]}
            return reduced(self.nvars, self.den, kept)
        lo, hi = min(lo, 0), max(hi, 0)
        p, q = r.numerator, r.denominator
        scale = {e: p ** (e - lo) * q ** (hi - e) for e in exps}
        out: dict[Exponent, int] = {}
        for exp, c in self.nums.items():
            key = exp[:var] + (0,) + exp[var + 1:]
            out[key] = out.get(key, 0) + c * scale[exp[var]]
        return reduced(self.nvars, self.den * p ** -lo * q ** hi, out)

    def eval(self, point: Sequence[Scalar]) -> Fraction:
        """Exact value at a rational point."""
        check_length(point, self.nvars, "point")
        pt = [as_scalar(v) for v in point]
        total = 0
        for exp, c in self.nums.items():
            for v, e in zip(pt, exp):
                if e:
                    c *= v ** e
            total += c
        return Fraction(total, self.den)

    def eval_float(self, point: Sequence[float]) -> float:
        """Floating-point value, for the numeric cross-check module only."""
        check_length(point, self.nvars, "point")
        total = 0.0
        for exp, c in self.nums.items():
            val = c / self.den  # int / int is correctly rounded, as float(Fraction) is
            for v, e in zip(point, exp):
                if e:
                    val *= float(v) ** e
            total += val
        return total

    # -- canonical ordering / serialization --------------------------------

    def _ordered(self) -> Iterator[tuple[Exponent, int, int]]:
        """(exp, num, den) per term in canonical order, graded lexicographic,
        highest first; num/den is the coefficient in lowest terms."""
        nums, den = self.nums, self.den
        # two stable sorts, by exponent and then by degree, give the order of
        # the key (sum(exp), exp) without a Python-level key function
        order = sorted(sorted(nums, reverse=True), key=sum, reverse=True)
        if den == 1:
            for exp in order:
                yield exp, nums[exp], 1
            return
        gcd = math.gcd
        for exp in order:
            num = nums[exp]
            g = gcd(num, den)
            yield exp, num // g, den // g

    def to_json_dict(self) -> dict:
        return {
            "nvars": self.nvars,
            "terms": [
                {"exp": list(exp),
                 "coeff": f"{_decimal(num)}/{_decimal(den)}" if den != 1 else _decimal(num)}
                for exp, num, den in self._ordered()
            ],
        }

    @staticmethod
    def from_json_dict(data: dict) -> "Poly":
        terms = {}
        for t in data["terms"]:
            num, _, den = str(t["coeff"]).partition("/")
            terms[tuple(t["exp"])] = Fraction(_integer(num), _integer(den) if den else 1)
        return Poly(data["nvars"], terms)

    def __repr__(self) -> str:
        # the repr of the map {exp: Fraction(num, den)}, with every int written by _decimal
        terms = ", ".join(f"{exp!r}: Fraction({_decimal(num)}, {_decimal(den)})"
                          for exp, num, den in self._ordered())
        return f"Poly({self.nvars}, {{{terms}}})"


# the slot setters, which bypass the refusing __setattr__
_set_nvars, _set_den, _set_nums = (Poly.__dict__[name].__set__ for name in Poly.__slots__)


def as_scalar(value) -> Fraction:
    """An exact rational scalar as a Fraction; float, bool and other types are refused."""
    if value.__class__ is Fraction:  # immutable, so it is returned as it is
        return value
    if isinstance(value, bool) or not isinstance(value, (int, Fraction)):
        raise TypeError(f"expected an exact rational scalar, not {type(value).__name__}")
    return Fraction(value)


def _decimal(i: int) -> str:
    """i in decimal, however many digits it has.

    ``str`` refuses an int with more digits than ``sys.get_int_max_str_digits()``;
    such an int is split by a power of ten into two halves, each written
    the same way.  The interpreter-wide limit is never changed.
    """
    try:
        return str(i)
    except ValueError:  # more digits than the limit, which is at least 640
        pass
    if i < 0:
        return "-" + _decimal(-i)
    half = i.bit_length() * 30103 // 200000  # b bits are about 0.30103 b digits
    high, low = divmod(i, 10 ** half)
    return _decimal(high) + _decimal(low).zfill(half)


def _integer(text: str) -> int:
    """The int a decimal string holds, however many digits; the inverse of ``_decimal``.

    ``int`` refuses a string of more digits than ``sys.get_int_max_str_digits()``;
    such a string is split into two halves, each read the same way.  The
    interpreter-wide limit is never changed.
    """
    try:
        return int(text)
    except ValueError:
        text = text.strip()
        digits = text[1:] if text[:1] in ("-", "+") else text
        if not (digits.isascii() and digits.isdigit()):  # not a number at all
            raise
    half = len(digits) // 2  # more digits than the limit, which is at least 640
    value = _integer(digits[:-half]) * 10 ** half + _integer(digits[-half:])
    return -value if text[0] == "-" else value


def reduced(nvars: int, den: int, nums: dict[Exponent, int]) -> Poly:
    """The Poly Σ nums[exp]/den x^exp in canonical form; den is any nonzero int.

    The Poly may keep ``nums`` itself as its stored map, so the caller hands
    the dict over and never changes it afterwards; a stored map is never
    changed either, so passing one on (as ``__reduce__`` does) is safe.
    """
    return object.__new__(Poly)._store(nvars, den, nums)


def _lowest(nvars: int, den: int, nums: dict[Exponent, int]) -> Poly:
    """The Poly Σ nums[exp]/den x^exp from a map already in canonical form.

    den > 0, no numerator is 0 and gcd(den, *nums) == 1 hold already, as for
    the negation or a copy of a stored Poly's map, so no gcd is searched for;
    the caller hands ``nums`` over as for ``reduced``.
    """
    p = object.__new__(Poly)
    _set_nvars(p, nvars)
    _set_den(p, den)
    _set_nums(p, nums)
    return p


def poly_sum(nvars: int, polys: Sequence[Poly]) -> Poly:
    """The sum of polys, accumulated once over the lcm of their denominators.

    The accumulator starts as a copy of the operand with the most terms,
    scaled to the common denominator, and the other operands are added to
    it term by term.  A sum with one nonzero operand is a copy of it.
    """
    if not polys:
        return reduced(nvars, 1, {})
    sizes = [len(p.nums) for p in polys]
    first = sizes.index(max(sizes))
    seed = polys[first]
    if sizes.count(0) == len(sizes) - 1:
        return _lowest(nvars, seed.den, dict(seed.nums))
    den = math.lcm(*[p.den for p in polys])
    scale = den // seed.den
    out = dict(seed.nums) if scale == 1 else {exp: c * scale for exp, c in seed.nums.items()}
    for i, p in enumerate(polys):
        if i != first:
            scale = den // p.den
            for exp, c in p.nums.items():
                out[exp] = out.get(exp, 0) + c * scale
    return reduced(nvars, den, out)


def second_partials(nums: Mapping[Exponent, int], count: int) -> dict[Exponent, int]:
    """Sum of the second partials in variables 0..count-1 of a map of numerators."""
    out: dict[Exponent, int] = {}
    for exp, c in nums.items():
        key = list(exp)
        for var in range(count):
            e = key[var]
            if e >= 2 or e < 0:  # e(e-1) x^(e-2) is zero only for e in {0, 1}
                key[var] = e - 2
                k = tuple(key)
                key[var] = e
                out[k] = out.get(k, 0) + c * (e * (e - 1))
    return {exp: c for exp, c in out.items() if c} if 0 in out.values() else out


def lift(p: Poly, nvars: int, positions: Sequence[int | None]) -> Poly:
    """Re-embed a polynomial into a ring with a different variable layout.

    ``positions[i]`` is the index of old variable i in the new ring, or None
    if the variable is dropped (every term must then have exponent 0 there).
    """
    check_index(nvars, "nvars")
    check_length(positions, p.nvars, "positions")
    kept = [pos for pos in positions if pos is not None]
    for pos in kept:
        check_index(pos, "position", nvars)
    if len(set(kept)) < len(kept):
        raise ValueError("positions must be distinct")
    out: dict[Exponent, int] = {}
    for exp, c in p.nums.items():
        new = [0] * nvars
        for e, pos in zip(exp, positions):
            if pos is None:
                if e != 0:
                    raise ValueError("cannot drop a variable that occurs in a term")
            else:
                new[pos] = e
        out[tuple(new)] = c
    return reduced(nvars, p.den, out)


class _Record:
    """Immutable value with field-wise ``==``, ``hash`` and ``repr`` over ``_fields``.

    Written out by hand so that importing the package loads neither
    ``inspect`` nor what it imports, which cost more than the package
    itself at start-up.  A subclass names its fields in ``_fields``, and
    its ``__init__`` passes their values on in that order.
    """

    _fields: tuple[str, ...] = ()

    def __init__(self, *values):
        self.__dict__.update(zip(self._fields, values, strict=True))

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def _values(self) -> tuple:
        return tuple(getattr(self, name) for name in self._fields)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self):
        return hash(self._values())

    def __repr__(self):
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__qualname__}({fields})"


# the largest spatial dimension that check_dimension accepts: every
# term carries an exponent tuple of n + 1 entries, and the parser n + 1 names
MAX_DIMENSION = 100_000


def check_integer(value, message: str) -> None:
    """Refuse a bool or any other non-int value: a TypeError, ``message`` and its type."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise TypeError(f"{message}, not {type(value).__name__}")


def check_index(value, what: str, size: int | None = None) -> None:
    """Refuse a shape argument unless it is an int, not bool, at least 0 and below ``size`` if given."""
    if value.__class__ is not int:  # the message is only formatted for a value that may be refused
        check_integer(value, f"{what} must be an integer")
    if value < 0 or size is not None and value >= size:
        bound = "non-negative" if size is None else f"in range({size})"
        raise ValueError(f"{what} must be {bound}, not {value}")


def check_length(seq, size: int, what: str) -> None:
    """Refuse a sequence that must hold one entry per variable unless it has ``size`` entries."""
    if len(seq) != size:
        raise ValueError(f"{what} has length {len(seq)}, expected {size}")


def check_dimension(n) -> None:
    """Refuse a spatial dimension n unless it is an int, not bool, from 1 to ``MAX_DIMENSION``."""
    check_integer(n, "spatial dimension must be an integer")
    if n < 1:
        raise ValueError("spatial dimension must be at least 1")
    if n > MAX_DIMENSION:
        raise ValueError(f"spatial dimension must be at most {MAX_DIMENSION}")


def check_data(p, n: int, name: str) -> None:
    """Refuse solver data unless it is a Poly in x1..xn, y, n a dimension, with no negative exponent."""
    check_dimension(n)
    if not isinstance(p, Poly) or p.nvars != n + 1:
        raise ValueError(f"{name} must be a Poly in the ring x1..x{n}, y")
    if min(map(min, p.nums), default=0) < 0:
        raise ValueError(f"{name} must have no negative exponent")


class Ring(_Record):
    """Variable layout for a layer of spatial dimension ``n``.

    Variables are x1..xn (indices 0..n-1), then y (index n), then the
    formal width symbol a (index n+1) when ``formal_a`` is set.
    """

    _fields = ("n", "formal_a")

    def __init__(self, n: int, formal_a: bool = False):
        check_index(n, "spatial dimension")
        super().__init__(n, formal_a)

    @property
    def nvars(self) -> int:
        return self.n + 1 + (1 if self.formal_a else 0)

    @property
    def y(self) -> int:
        return self.n

    @property
    def a(self) -> int:
        if not self.formal_a:
            raise ValueError("ring has no formal width symbol")
        return self.n + 1

    @cached_property
    def names(self) -> tuple[str, ...]:
        names = [f"x{i + 1}" for i in range(self.n)] + ["y"]
        if self.formal_a:
            names.append("a")
        return tuple(names)

    def zero(self) -> Poly:
        return Poly(self.nvars)

    def const(self, value: Scalar) -> Poly:
        return Poly.const(self.nvars, value)

    def x(self, i: int) -> Poly:
        check_index(i, "spatial index", self.n)
        return Poly.variable(self.nvars, i)

    def y_var(self) -> Poly:
        return Poly.variable(self.nvars, self.y)

    def a_var(self) -> Poly:
        return Poly.variable(self.nvars, self.a)

    def x_monomial(self, k: Sequence[int], coeff: Scalar = 1) -> Poly:
        """The monomial x1^k1 * ... * xn^kn."""
        check_length(k, self.n, "multi-index")
        return Poly.monomial(self.nvars, tuple(k) + (0,) * (self.nvars - self.n), coeff)


def _latex_name(name: str) -> str:
    if len(name) > 1 and name[1:].isdigit():
        return f"{name[0]}_{{{name[1:]}}}"
    return name


def _render(p: Poly, names: Sequence[str], latex: bool) -> str:
    """Terms in canonical order, signs between them, unit coefficients left out.

    Each variable's power strings, each reduced denominator's digits and the
    text of each exponent prefix ``exp[:-1]`` are written once per call.
    """
    check_length(names, p.nvars, "names")
    if len(set(names)) < p.nvars:
        raise ValueError("variable names must be distinct")
    if not p.nums:
        return "0"
    if latex:
        names = [_latex_name(name) for name in names]
        times, sup, close, frac, over, end = "", "^{", "}", "\\frac{", "}{", "}"
    else:
        times, sup, close, frac, over, end = "*", "^", "", "", "/", ""
    powers = [{1: name} for name in names]

    def power(var: int, e: int) -> str:
        text = powers[var].get(e)
        if text is None:
            text = powers[var][e] = names[var] + sup + _decimal(e) + close
        return text

    last = p.nvars - 1
    tails = powers[last] if powers else {}
    heads: dict[Exponent, str] = {}
    dens: dict[int, str] = {}
    pieces: list[str] = []
    append = pieces.append
    for exp, num, den in p._ordered():
        head = exp[:-1]
        mono = heads.get(head)
        if mono is None:
            mono = heads[head] = times.join([power(var, e) for var, e in enumerate(head) if e])
        e = exp[-1] if exp else 0
        if e:
            tail = tails.get(e) or power(last, e)
            mono = mono + times + tail if mono else tail
        if num < 0:
            append(" - ")
            num = -num
        else:
            append(" + ")
        if den != 1:
            digits = dens.get(den)
            if digits is None:
                digits = dens[den] = _decimal(den)
            number = frac + _decimal(num) + over + digits + end
        elif num == 1 and mono:
            append(mono)
            continue
        else:
            number = _decimal(num)
        append(number + times + mono if mono else number)
    pieces[0] = "-" if pieces[0] == " - " else ""
    return "".join(pieces)


def _json_text(p: Poly, level: int = 0) -> str:
    """``json.dumps(p.to_json_dict(), indent=2)``, byte for byte, written straight
    from ``_ordered``; its lines after the first are indented as in a value
    ``level`` levels deep in a larger document."""
    i0, i1, i2, i3, i4 = ("\n" + "  " * (level + k) for k in range(5))
    if not p.nums:
        return f'{{{i1}"nvars": {p.nvars},{i1}"terms": []{i0}}}'
    sep = "," + i4
    head = "{" + i3 + '"exp": [' + (i4 if p.nvars else "")
    mid = (i3 if p.nvars else "") + "]," + i3 + '"coeff": "'
    tail = '"' + i2 + "}"
    dens: dict[int, str] = {}
    terms: list[str] = []
    for exp, num, den in p._ordered():
        coeff = _decimal(num)
        if den != 1:
            digits = dens.get(den)
            if digits is None:
                digits = dens[den] = "/" + _decimal(den)
            coeff += digits
        terms.append(head + sep.join(map(str, exp)) + mid + coeff + tail)
    items = ("," + i2).join(terms)
    return f'{{{i1}"nvars": {p.nvars},{i1}"terms": [{i2}{items}{i1}]{i0}}}'


def to_text(p: Poly, names: Sequence[str]) -> str:
    """Canonical text form, e.g. ``1/20*x1^4*y^5 - 1/70*x1^2*y^7``."""
    return _render(p, names, latex=False)


def to_latex(p: Poly, names: Sequence[str]) -> str:
    """LaTeX form in canonical order, nothing factored."""
    return _render(p, names, latex=True)
