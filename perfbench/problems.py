"""Seeded problem sets for the benchmark workloads, and their exact check.

A problem is held as exact term maps (exponent tuple -> Fraction) over the
ring x1..xn, y, so the benchmark knows its data without parsing anything.
The text handed to the solver is rendered from those maps in the package's
canonical serialization, which this module states independently of the
package: graded lexicographic order, highest first, as in ``to_text``.

``check_solution`` is an oracle that shares no code with the package: it
evaluates the Laplacian and the two boundary traces of a candidate ``u``
in plain ``Fraction`` arithmetic and compares them with the data.
"""

from __future__ import annotations

import hashlib
import random
from dataclasses import dataclass
from fractions import Fraction

Terms = dict  # exponent tuple (length n+1, last slot y) -> Fraction

WIDTHS = (Fraction(1), Fraction(1, 2), Fraction(7, 3))
KINDS = ("dirichlet", "mixed")

# (n, total degree) rungs; each rung is solved for both kinds.
LADDER_RUNGS = (
    (1, 6), (1, 12), (1, 20), (1, 28), (1, 40),
    (2, 6), (2, 12), (2, 20), (2, 32),
    (3, 6), (3, 10), (3, 16), (3, 24),
)
# monomials in rhs, lower and upper: two of fixed shape, of total degree deg
# and deg - 1, and the rest of total degree at most deg // 2
NTERMS = (4, 3, 3)

# small seeded problems of the cli workload: (n, kind, degree, style, output)
CLI_SEEDED = (
    (1, "dirichlet", 8, "flags", "plain"),
    (2, "mixed", 6, "file", "json"),
    (3, "dirichlet", 5, "flags", "json"),
    (2, "dirichlet", 8, "file", "plain"),
)


@dataclass(frozen=True)
class Problem:
    pid: str
    n: int
    a: Fraction
    kind: str
    rhs: Terms
    lower: Terms
    upper: Terms
    style: str = "flags"  # cli only: data as flags or as a --problem file
    output: str = "plain"  # cli only: plain or json

    @property
    def names(self) -> tuple[str, ...]:
        """Variable names of the solver's output ring."""
        return tuple(f"x{i + 1}" for i in range(self.n)) + ("y",)

    @property
    def input_names(self) -> tuple[str, ...]:
        # users write plain x in one dimension; the parser takes it as x1
        return ("x", "y") if self.n == 1 else self.names

    def texts(self) -> dict[str, str]:
        names = self.input_names
        return {
            "rhs": canonical_text(self.rhs, names),
            "lower": canonical_text(self.lower, names),
            "upper": canonical_text(self.upper, names),
        }

    def to_json(self) -> dict:
        enc = lambda t: [[list(e), str(c)] for e, c in t.items()]
        return {
            "pid": self.pid, "n": self.n, "a": str(self.a), "kind": self.kind,
            "rhs": enc(self.rhs), "lower": enc(self.lower), "upper": enc(self.upper),
            "style": self.style, "output": self.output,
        }

    @staticmethod
    def from_json(d: dict) -> "Problem":
        dec = lambda t: {tuple(e): Fraction(c) for e, c in t}
        return Problem(
            d["pid"], d["n"], Fraction(d["a"]), d["kind"],
            dec(d["rhs"]), dec(d["lower"]), dec(d["upper"]), d["style"], d["output"],
        )


def canonical_text(terms: Terms, names) -> str:
    """The canonical text form, e.g. ``1/20*x1^4*y^5 - 1/70*x1^2*y^7``."""
    if not terms:
        return "0"
    pieces = []
    order = sorted(terms.items(), key=lambda t: (sum(t[0]), t[0]), reverse=True)
    for i, (exp, coeff) in enumerate(order):
        mono = "*".join(
            name if e == 1 else f"{name}^{e}" for name, e in zip(names, exp) if e
        )
        mag = abs(coeff)
        body = str(mag) if not mono else mono if mag == 1 else f"{mag}*{mono}"
        if i == 0:
            pieces.append(f"-{body}" if coeff < 0 else body)
        else:
            pieces.append(f"- {body}" if coeff < 0 else f"+ {body}")
    return " ".join(pieces)


def parse_canonical(text: str, names) -> Terms:
    """Inverse of ``canonical_text`` on its own output (no general parsing)."""
    if text == "0":
        return {}
    index = {name: i for i, name in enumerate(names)}
    tokens = text.split(" ")
    signed = [tokens[0]] + [op + body for op, body in zip(tokens[1::2], tokens[2::2])]
    terms: Terms = {}
    for piece in signed:
        sign = -1 if piece[0] == "-" else 1
        factors = piece.lstrip("+-").split("*")
        coeff = Fraction(1)
        if factors[0][0].isdigit():
            coeff = Fraction(factors.pop(0))
        exp = [0] * len(names)
        for f in factors:
            name, _, e = f.partition("^")
            exp[index[name]] = int(e) if e else 1
        terms[tuple(exp)] = sign * coeff
    return terms


def digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def u_stats(u: Terms) -> dict:
    """Size of a solution: its term count and its largest coefficient part in bits."""
    bits = max((max(c.numerator.bit_length(), c.denominator.bit_length())
                for c in u.values()), default=0)
    return {"u_terms": len(u), "u_coeff_bits": bits}


# -- the exact oracle ------------------------------------------------------


def _clean(terms: Terms) -> Terms:
    return {e: c for e, c in terms.items() if c}


def check_solution(u: Terms, p: Problem) -> str | None:
    """None when u solves the problem exactly, else what is wrong."""
    n, a = p.n, p.a
    lap: Terms = {}
    for exp, c in u.items():
        for var in range(n + 1):
            e = exp[var]
            if e >= 2:
                new = exp[:var] + (e - 2,) + exp[var + 1:]
                lap[new] = lap.get(new, 0) + c * e * (e - 1)
    if _clean(lap) != _clean(p.rhs):
        return "laplacian(u) != rhs"
    lower = {exp: c for exp, c in u.items() if exp[n] == 0}
    if _clean(lower) != _clean(p.lower):
        return "u(x, 0) != lower"
    upper: Terms = {}
    for exp, c in u.items():
        e = exp[n]
        if p.kind == "mixed":
            if e == 0:
                continue
            c, e = c * e, e - 1
        key = exp[:n] + (0,)
        upper[key] = upper.get(key, 0) + c * a**e
    if _clean(upper) != _clean(p.upper):
        return "upper trace of u != upper"
    return None


# -- generators ------------------------------------------------------------
#
# Solve cost depends on the exponent structure of the high-degree terms far
# more than on coefficients, so that structure is fixed per rung (drawn from
# a generator keyed by the rung, not by the seed).  The seed draws every
# coefficient, a relabelling of x1..xn, and the low-degree extra terms.  That
# keeps the cost of a pass nearly the same from seed to seed while the inputs
# still differ.


def _monomial(rng: random.Random, total: int, slots: int, nvars: int) -> tuple:
    """Random exponent of the given total degree over the first ``slots`` variables."""
    cuts = sorted(rng.sample(range(total + slots - 1), slots - 1))
    parts = [b - a - 1 for a, b in zip([-1] + cuts, cuts + [total + slots - 1])]
    return tuple(parts) + (0,) * (nvars - slots)


def _poly(shape: random.Random, rng: random.Random, n: int, deg: int, nterms: int,
          with_y: bool, perm: list[int]) -> Terms:
    slots = n + 1 if with_y else n
    exps = [_monomial(shape, deg - i, slots, n + 1) for i in range(2)]
    exps += [_monomial(rng, rng.randint(0, deg // 2), slots, n + 1) for _ in range(nterms - 2)]
    terms: Terms = {}
    for exp in exps:
        exp = tuple(exp[i] for i in perm) + exp[n:]
        coeff = Fraction(rng.choice((-1, 1)) * rng.randint(1, 9), shape.randint(1, 9))
        terms[exp] = terms.get(exp, 0) + coeff
    return _clean(terms)


def random_problem(rng, pid, n, kind, deg, a, style="flags", output="plain") -> Problem:
    shape = random.Random(f"shape-{n}-{deg}-{kind}")
    perm = list(range(n))
    rng.shuffle(perm)
    nr, nl, nu = NTERMS
    return Problem(
        pid, n, a, kind,
        _poly(shape, rng, n, deg, nr, True, perm),
        _poly(shape, rng, n, deg, nl, False, perm),
        _poly(shape, rng, n, deg, nu, False, perm),
        style, output,
    )


def ladder(seed: int) -> list[Problem]:
    """The solve ladder: every rung for both kinds, widths assigned in turn."""
    rng = random.Random(f"ladder-{seed}")
    out = []
    for i, (n, deg) in enumerate(LADDER_RUNGS):
        for j, kind in enumerate(KINDS):
            a = WIDTHS[(i + j) % len(WIDTHS)]
            out.append(random_problem(rng, f"n{n}-d{deg}-{kind}", n, kind, deg, a))
    return out


_CHEBYSHEV_T4 = {(4, 0): Fraction(8), (2, 0): Fraction(-8), (0, 0): Fraction(1)}
_EX23_RHS = {(3, 2, 1, 3): Fraction(1)}

PAPER_EXAMPLES = (
    # example 1: rhs x^4 y^3, Chebyshev T4 on both planes, a = 1
    Problem("cli-ex1", 1, Fraction(1), "dirichlet", {(4, 3): Fraction(1)},
            _CHEBYSHEV_T4, _CHEBYSHEV_T4, "flags", "plain"),
    # examples 2 and 3: rhs x1^3 x2^2 x3 y^3 with zero data, a = 1
    Problem("cli-ex2", 3, Fraction(1), "dirichlet", _EX23_RHS, {}, {}, "file", "plain"),
    Problem("cli-ex3", 3, Fraction(1), "mixed", _EX23_RHS, {}, {}, "file", "json"),
)


def cli_problems(seed: int) -> list[Problem]:
    rng = random.Random(f"cli-{seed}")
    out = list(PAPER_EXAMPLES)
    for i, (n, kind, deg, style, output) in enumerate(CLI_SEEDED):
        a = WIDTHS[i % len(WIDTHS)]
        out.append(random_problem(rng, f"cli-s{i}-n{n}-{kind}", n, kind, deg, a, style, output))
    return out
