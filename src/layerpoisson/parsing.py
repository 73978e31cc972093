"""Parser for exact polynomial expressions.

Grammar: ``+ - * ^``, parentheses, integer and rational literals such as
``3`` or ``1/2520``, and variable names.  Multiplication is always explicit
(``8*x^4``, never ``8x^4``) and floating-point literals are rejected, so
every accepted expression denotes an exact polynomial.

The parser builds the stored form of ``polyring`` directly: a number or a
variable is one numerator over one denominator, and the terms of a sum are
accumulated once, by ``poly_sum``.  A single monomial takes any integer
power in one step; a negative exponent is allowed only on a single monomial,
and only when the caller asks for it.  In ``parse_poly`` with n = 1, ``x``
is an alias of ``x1``.  Parentheses nest at most ``MAX_NESTING`` deep; a
deeper group is a ``PolyParseError`` at its opening parenthesis.
"""

from __future__ import annotations

import re
from fractions import Fraction
from typing import Mapping, Sequence

from .polyring import Poly, Ring, poly_sum, reduced


class PolyParseError(ValueError):
    """Syntax or semantic error in a polynomial expression."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.position = position


# parentheses recurse through expr .. atom, so their depth is bounded well
# below what the interpreter's default recursion limit allows
MAX_NESTING = 100

_TOKEN_RE = re.compile(r"(\d+\.\d*|\.\d+)|(\d+)|([A-Za-z_][A-Za-z_0-9]*)|([-+*/^()])")


def _tokenize(text: str) -> list[tuple[str, str | int, int]]:
    tokens = []
    pos = 0
    while pos < len(text):
        if text[pos].isspace():
            pos += 1
            continue
        m = _TOKEN_RE.match(text, pos)
        if not m:
            raise PolyParseError(f"unexpected character {text[pos]!r}", pos)
        if m.group(1):
            raise PolyParseError("floating-point literals are not accepted", pos)
        if m.group(2):
            try:
                tokens.append(("int", int(m.group(2)), pos))
            except ValueError:  # more digits than sys.get_int_max_str_digits()
                raise PolyParseError("integer literal too long", pos) from None
        elif m.group(3):
            tokens.append(("name", m.group(3), pos))
        else:
            tokens.append(("op", m.group(4), pos))
        pos = m.end()
    return tokens


class _Parser:
    def __init__(self, text: str, slots: Mapping[str, int], nvars: int,
                 allow_negative_exponents: bool):
        self.text = text
        # each name's exponent vector, and the exponent vector of a number
        self.names = {name: tuple(int(j == i) for j in range(nvars)) for name, i in slots.items()}
        self.const_exp = (0,) * nvars
        self.nvars = nvars
        self.allow_negative_exponents = allow_negative_exponents
        self.tokens = _tokenize(text)
        self.pos = 0
        self.depth = 0  # open parentheses around the current position

    def peek(self):
        return self.tokens[self.pos] if self.pos < len(self.tokens) else (None, None, len(self.text))

    def take(self):
        tok = self.peek()
        self.pos += 1
        return tok

    def accept(self, ops: str):
        """If the next token is one of the operators in ops, take it and return it; else None."""
        kind, value, _ = self.peek()
        if kind == "op" and value in ops:
            self.pos += 1
            return value
        return None

    def parse(self) -> Poly:
        p = self.expr()
        kind, _, at = self.peek()
        if kind is not None:
            raise PolyParseError(f"unexpected {_TOKEN_RE.match(self.text, at).group()!r}", at)
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
        p = self.atom()
        at = self.peek()[2]
        if not self.accept("^"):
            return p
        e = self.exponent()
        if len(p.nums) == 1:
            (exp, num), = p.nums.items()
            c = Fraction(num, p.den) ** e
            return reduced(self.nvars, c.denominator, {tuple(v * e for v in exp): c.numerator})
        if e < 0:
            raise PolyParseError("negative exponent requires a single monomial base", at)
        return p ** e

    def exponent(self) -> int:
        sign = -1 if self.allow_negative_exponents and self.accept("-") else 1
        kind, value, at = self.take()
        if kind != "int":
            raise PolyParseError("exponent must be a non-negative integer literal", at)
        return sign * value

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
            if value not in self.names:
                raise PolyParseError(f"unknown variable {value!r}", at)
            return reduced(self.nvars, 1, {self.names[value]: 1})
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
    return _Parser(text, slots, len(names), allow_negative_exponents).parse()


def parse_poly(expr: str, n: int) -> Poly:
    """Parse user input over x1..xn (alias x when n = 1) and y.

    Returns a Poly in the rational-width ring: variables x1..xn then y.
    """
    if n < 1:
        raise ValueError("spatial dimension must be at least 1")
    slots = {name: i for i, name in enumerate(Ring(n).names)}
    if n == 1:
        slots["x"] = 0
    return _Parser(expr, slots, n + 1, False).parse()
