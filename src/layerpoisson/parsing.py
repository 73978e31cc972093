"""Parser for exact polynomial expressions.

Grammar: ``+ - * ^``, parentheses, integer and rational literals such as
``3`` or ``1/2520``, and variable names.  Multiplication is always explicit
(``8*x^4``, never ``8x^4``) and floating-point literals are rejected, so
every accepted expression denotes an exact polynomial.
"""

from __future__ import annotations

import re
from fractions import Fraction
from typing import Sequence

from .polyring import Poly


class PolyParseError(ValueError):
    """Syntax or semantic error in a polynomial expression."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.position = position


_TOKEN_RE = re.compile(r"(\d+\.\d*|\.\d+)|(\d+)|([A-Za-z_][A-Za-z_0-9]*)|([-+*/^()])")


def _tokenize(text: str) -> list[tuple[str, str, int]]:
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
            tokens.append(("int", m.group(2), pos))
        elif m.group(3):
            tokens.append(("name", m.group(3), pos))
        else:
            tokens.append(("op", m.group(4), pos))
        pos = m.end()
    return tokens


class _Parser:
    def __init__(self, text: str, names: Sequence[str], allow_negative_exponents: bool):
        self.text = text
        self.names = {name: i for i, name in enumerate(names)}
        self.nvars = len(names)
        self.allow_negative_exponents = allow_negative_exponents
        self.tokens = _tokenize(text)
        self.pos = 0

    def peek(self):
        return self.tokens[self.pos] if self.pos < len(self.tokens) else (None, None, len(self.text))

    def take(self):
        tok = self.peek()
        self.pos += 1
        return tok

    def expect_op(self, op: str):
        kind, value, at = self.take()
        if kind != "op" or value != op:
            raise PolyParseError(f"expected {op!r}", at)

    def parse(self) -> Poly:
        p = self.expr()
        kind, value, at = self.peek()
        if kind is not None:
            raise PolyParseError(f"unexpected {value!r}", at)
        return p

    def expr(self) -> Poly:
        p = self.term()
        while True:
            kind, value, _ = self.peek()
            if kind == "op" and value in "+-":
                self.take()
                q = self.term()
                p = p + q if value == "+" else p - q
            else:
                return p

    def term(self) -> Poly:
        p = self.unary()
        while True:
            kind, value, _ = self.peek()
            if kind == "op" and value == "*":
                self.take()
                p = p * self.unary()
            else:
                return p

    def unary(self) -> Poly:
        sign = 1
        while True:
            kind, value, _ = self.peek()
            if kind == "op" and value in "+-":
                self.take()
                if value == "-":
                    sign = -sign
            else:
                break
        p = self.power()
        return p if sign == 1 else -p

    def power(self) -> Poly:
        p = self.atom()
        kind, value, at = self.peek()
        if kind == "op" and value == "^":
            self.take()
            e = self.exponent()
            if e >= 0:
                return p ** e
            # Laurent power: only single monomials can carry a negative exponent
            if len(p.nums) != 1:
                raise PolyParseError("negative exponent requires a single monomial base", at)
            (exp, num), = p.nums.items()
            return Poly.monomial(
                self.nvars, tuple(v * e for v in exp), Fraction(num, p.den) ** e
            )
        return p

    def exponent(self) -> int:
        negative = False
        kind, value, at = self.take()
        if kind == "op" and value == "-" and self.allow_negative_exponents:
            negative = True
            kind, value, at = self.take()
        if kind != "int":
            raise PolyParseError("exponent must be a non-negative integer literal", at)
        e = int(value)
        if negative:
            # only the Laurent width slot carries negative powers; the caller
            # enforces which variable this lands on
            return -e
        return e

    def atom(self) -> Poly:
        kind, value, at = self.take()
        if kind == "int":
            num = int(value)
            k, v, _ = self.peek()
            if k == "op" and v == "/":
                self.take()
                k2, v2, at2 = self.take()
                if k2 != "int":
                    raise PolyParseError("expected integer denominator", at2)
                den = int(v2)
                if den == 0:
                    raise PolyParseError("zero denominator", at2)
                return Poly.const(self.nvars, Fraction(num, den))
            return Poly.const(self.nvars, num)
        if kind == "name":
            if value not in self.names:
                raise PolyParseError(f"unknown variable {value!r}", at)
            return Poly.variable(self.nvars, self.names[value])
        if kind == "op" and value == "(":
            p = self.expr()
            self.expect_op(")")
            return p
        raise PolyParseError("expected a number, variable, or parenthesized expression", at)


def parse_expr(text: str, names: Sequence[str], allow_negative_exponents: bool = False) -> Poly:
    """Parse an expression over the given variable names into a Poly."""
    return _Parser(text, names, allow_negative_exponents).parse()


def parse_poly(expr: str, n: int) -> Poly:
    """Parse user input over x1..xn (alias x when n = 1) and y.

    Returns a Poly in the rational-width ring: variables x1..xn then y.
    """
    if n < 1:
        raise ValueError("spatial dimension must be at least 1")
    names = [f"x{i + 1}" for i in range(n)] + ["y"]
    if n == 1:
        # accept "x" as an alias for "x1"
        expr = re.sub(r"\bx\b", "x1", expr)
    return parse_expr(expr, names)
