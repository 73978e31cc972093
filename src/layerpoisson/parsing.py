"""Parser for exact polynomial expressions.

Grammar: ``+ - * ^``, parentheses, integer and rational literals such as
``3`` or ``1/2520``, and variable names.  Multiplication is always explicit
(``8*x^4``, never ``8x^4``) and floating-point literals are rejected, so
every accepted expression denotes an exact polynomial.

The parser builds the stored form of ``polyring`` directly: a number or a
variable is one numerator over one denominator, and the terms of a sum are
accumulated once, by ``poly_sum``.  A variable power ``name ^ digits`` is
one token, read by the tokenizer's one pass and built as one monomial.
Any other single monomial also takes any integer power in one step; a
negative exponent is allowed only on a single monomial, and only when the
caller asks for it.  A monomial x_i^e is built once per ring size and
shared, since a ``Poly`` is immutable; ``parse_poly`` likewise builds the
name map of each dimension once.  In ``parse_poly`` with n = 1, ``x``
is an alias of ``x1``.  Parentheses nest at most ``MAX_NESTING`` deep; a
deeper group is a ``PolyParseError`` at its opening parenthesis.

No number the parser returns has more digits than Python's limit on
converting an int to text, ``sys.get_int_max_str_digits()`` (0 is no
limit), so everything parsed can be printed.  A literal past it is a
``PolyParseError`` at its digits; a power of a number, at its ``^``, before
it is computed, once a lower bound on its digits from the bit length of
the base passes the limit; and a coefficient of the result, a product of
literals for example, at position 0 when its numerator or denominator in
lowest terms has more digits than the limit.
"""

from __future__ import annotations

import re
import sys
from functools import lru_cache
from typing import Mapping, Sequence

from .polyring import Poly, Ring, check_dimension, poly_sum, reduced


class PolyParseError(ValueError):
    """Syntax or semantic error in a polynomial expression."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.position = position


# parentheses recurse through expr .. atom, so their depth is bounded well
# below what the interpreter's default recursion limit allows
MAX_NESTING = 100

# leading whitespace, then one token: a float literal (refused), an integer,
# a name with an optional power ``^ digits`` (no "." after the digits, so
# that a float exponent is refused at its own position), an operator, any
# other character (refused), or the end of the text
_TOKEN_RE = re.compile(
    r"\s*(?:(\d+\.\d*|\.\d+)|(\d+)|([A-Za-z_][A-Za-z_0-9]*)(?:\s*\^\s*(\d+)(?![\d.]))?"
    r"|([-+*/^()])|(.)|\Z)", re.S)


def _int(digits: str, at: int) -> int:
    try:
        return int(digits)
    except ValueError:  # more digits than sys.get_int_max_str_digits()
        raise PolyParseError("integer literal too long", at) from None


def _max_digits() -> int:
    """The interpreter's limit on the digits of an int converted to text; 0 is no limit."""
    return getattr(sys, "get_int_max_str_digits", int)()


@lru_cache(maxsize=1024)  # a Poly is immutable, so one monomial serves every parse
def _monomial(nvars: int, slot: int, e: int) -> Poly:
    """The monomial x_slot^e in a ring of nvars variables."""
    return reduced(nvars, 1, {(0,) * slot + (e,) + (0,) * (nvars - slot - 1): 1})


def _tokenize(text: str) -> list[tuple[str | None, object, int]]:
    """(kind, value, position) per token, ending with the sentinel (None, None, len(text)).

    A name is a "power" token (name, e) when ``^ e`` follows it, else a
    "name" token.
    """
    tokens = []
    match = _TOKEN_RE.match
    pos = 0
    while True:
        m = match(text, pos)
        group = m.lastindex
        if group is None:
            tokens.append((None, None, len(text)))
            return tokens
        at = m.start(group)
        if group == 2:
            tokens.append(("int", _int(m[2], at), at))
        elif group == 3:
            tokens.append(("name", m[3], at))
        elif group == 4:
            tokens.append(("power", (m[3], _int(m[4], at)), m.start(3)))
        elif group == 5:
            tokens.append(("op", m[5], at))
        elif group == 1:
            raise PolyParseError("floating-point literals are not accepted", at)
        else:
            raise PolyParseError(f"unexpected character {m[6]!r}", at)
        pos = m.end()


class _Parser:
    def __init__(self, text: str, slots: Mapping[str, int], nvars: int,
                 allow_negative_exponents: bool):
        self.text = text
        self.slots = slots  # name -> variable index; exponent vectors are built per use
        self.const_exp = (0,) * nvars  # the exponent vector of a number
        self.nvars = nvars
        self.allow_negative_exponents = allow_negative_exponents
        self.tokens = _tokenize(text)
        self.pos = 0
        self.depth = 0  # open parentheses around the current position

    def peek(self):
        return self.tokens[self.pos]

    def take(self):
        # taking the end sentinel is always followed by an error, so pos never
        # moves past it into an index that is not there
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def accept(self, ops: str):
        """If the next token is one of the operators in ops, take it and return it; else None."""
        kind, value, _ = self.tokens[self.pos]
        if kind == "op" and value in ops:
            self.pos += 1
            return value
        return None

    def parse(self) -> Poly:
        p = self.expr()
        kind, _, at = self.peek()
        if kind is not None:
            m = _TOKEN_RE.match(self.text, at)
            raise PolyParseError(f"unexpected {m[3] or m[m.lastindex]!r}", at)
        limit = _max_digits()
        # 10^limit has more than 3*limit bits, so no shorter number can reach it
        if limit and max(map(int.bit_length, (p.den, *p.nums.values()))) > 3 * limit:
            top = 10 ** limit
            for _, num, den in p._ordered():
                if abs(num) >= top or den >= top:
                    raise PolyParseError(f"coefficient has more than {limit} digits", 0)
        return p

    def expr(self) -> Poly:
        terms = [self.term()]
        while op := self.accept("+-"):
            terms.append(self.term() if op == "+" else -self.term())
        return poly_sum(self.nvars, terms)

    def term(self) -> Poly:
        p = self.unary()
        while self.accept("*"):
            p = p * self.unary()
        return p

    def unary(self) -> Poly:
        sign = 1
        while op := self.accept("+-"):
            if op == "-":
                sign = -sign
        p = self.power()
        return p if sign == 1 else -p

    def power(self) -> Poly:
        kind, value, at = self.tokens[self.pos]
        if kind == "power":
            self.pos += 1
            return self.variable(*value, at)
        p = self.atom()
        at = self.peek()[2]
        if not self.accept("^"):
            return p
        e = self.exponent()
        if len(p.nums) == 1:
            (exp, num), = p.nums.items()
            exp, den = tuple(v * e for v in exp), p.den
            if e < 0:
                num, den, e = den, num, -e
            # base^e >= 2^(e*(b-1)), so it has more than e*(b-1)*0.30102 digits
            b = max(num.bit_length(), den.bit_length())
            limit = _max_digits()
            if limit and e * (b - 1) * 30102 // 100000 >= limit:
                raise PolyParseError(f"power has more than {limit} digits", at)
            return reduced(self.nvars, den ** e, {exp: num ** e})
        if e < 0:
            raise PolyParseError("negative exponent requires a single monomial base", at)
        return p ** e

    def exponent(self) -> int:
        sign = -1 if self.allow_negative_exponents and self.accept("-") else 1
        kind, value, at = self.take()
        if kind != "int":
            raise PolyParseError("exponent must be a non-negative integer literal", at)
        return sign * value

    def variable(self, name: str, e: int, at: int) -> Poly:
        """The monomial name^e."""
        i = self.slots.get(name)
        if i is None:
            raise PolyParseError(f"unknown variable {name!r}", at)
        return _monomial(self.nvars, i, e)

    def atom(self) -> Poly:
        kind, value, at = self.take()
        if kind == "int":
            den = 1
            if self.accept("/"):
                kind, den, at = self.take()
                if kind != "int":
                    raise PolyParseError("expected integer denominator", at)
                if den == 0:
                    raise PolyParseError("zero denominator", at)
            return reduced(self.nvars, den, {self.const_exp: value})
        if kind == "name":
            return self.variable(value, 1, at)
        if kind == "op" and value == "(":
            if self.depth == MAX_NESTING:
                raise PolyParseError("expression nested too deeply", at)
            self.depth += 1
            p = self.expr()
            self.depth -= 1
            if not self.accept(")"):
                raise PolyParseError("expected ')'", self.peek()[2])
            return p
        raise PolyParseError("expected a number, variable, or parenthesized expression", at)


def parse_expr(text: str, names: Sequence[str], allow_negative_exponents: bool = False) -> Poly:
    """Parse an expression over the given variable names into a Poly."""
    slots = {name: i for i, name in enumerate(names)}
    if len(slots) < len(names):
        raise ValueError("variable names must be distinct")
    return _Parser(text, slots, len(names), allow_negative_exponents).parse()


def parse_poly(expr: str, n: int) -> Poly:
    """Parse user input over x1..xn (alias x when n = 1) and y.

    Returns a Poly in the rational-width ring: variables x1..xn then y.
    n is at most ``MAX_DIMENSION``.
    """
    check_dimension(n)
    return _Parser(expr, _ring_slots(n), n + 1, False).parse()


@lru_cache(maxsize=8)  # the parser only reads the map, so one serves every parse
def _ring_slots(n: int) -> dict[str, int]:
    """Variable name -> slot in the ring x1..xn, y, with x an alias of x1 when n = 1."""
    slots = {name: i for i, name in enumerate(Ring(n).names)}
    if n == 1:
        slots["x"] = 0
    return slots
