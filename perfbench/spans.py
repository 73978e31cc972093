"""Timing wrappers for a traced run, and the per-layer roll-up of their spans.

A wrapper is installed where the caller looks the function up: the module
attribute the caller reads at call time (``solver.inv_laplacian``,
``dirichlet.basis_v``, ``cli.solve`` ...), and the ``Poly`` special methods
on the class itself.  ``Tracer.installed`` restores every original on exit.

A span is (name, start, end, parent, problem, count).  Spans stay in memory
until the worker writes them out.  A span's self time is its duration minus
the durations of its direct children; children never overlap, because the
program is single-threaded.
"""

from __future__ import annotations

import contextlib
import functools
import json
import sys
import time

from layerpoisson import dirichlet, mixed, parsing, polyring, solver

Poly = polyring.Poly


def _terms_out(args, out):
    return len(out.terms)


def _term_pairs(args, out):
    a, b = args
    return len(a.terms) * (len(b.terms) if isinstance(b, Poly) else 1)


def _targets():
    """(owner, attribute, span name, counter) for every wrapped entry point."""
    t = [
        (parsing, "parse_poly", "parsing", _terms_out),  # the ladder's own lookup
        (solver, "inv_laplacian", "particular", _terms_out),
        (dirichlet, "basis_u", "dirichlet", None),
        (dirichlet, "basis_v", "dirichlet", None),
        (mixed, "mixed_basis_u", "mixed", None),
        (mixed, "mixed_basis_v", "mixed", None),
        (solver, "solve", "solver.solve", None),
        (solver, "verify", "solver.verify", None),
        (polyring, "to_text", "polyring.render", None),
        (Poly, "to_json_dict", "polyring.render", None),
        (Poly, "subs", "polyring.subs", None),
        (Poly, "diff", "polyring.diff", None),
    ]
    # __radd__ and __rmul__ are the same functions as __add__ and __mul__, but
    # each class attribute is looked up on its own and so wrapped on its own
    t += [(Poly, m, "polyring.mul", _term_pairs) for m in ("__mul__", "__rmul__")]
    t += [(Poly, m, "polyring.add", None) for m in ("__add__", "__radd__")]
    # the command line module pulls in numpy and scipy, so only a worker that
    # runs the command line imports it
    cli = sys.modules.get("layerpoisson.cli")
    if cli is not None:
        t += [
            (cli, "parse_poly", "parsing", _terms_out),
            (cli, "solve", "solver.solve", None),
            (cli, "to_text", "polyring.render", None),
            (cli, "to_latex", "polyring.render", None),
        ]
    return t


class Tracer:
    def __init__(self):
        self.spans: list[list] = []  # [name, start_ns, end_ns, parent, problem, count]
        self._stack = [-1]
        self.problem = None

    def _wrap(self, name, fn, counter):
        spans, stack, clock = self.spans, self._stack, time.perf_counter_ns

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            rec = [name, 0, 0, stack[-1], self.problem, 0]
            stack.append(len(spans))
            spans.append(rec)
            rec[1] = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                rec[2] = clock()
                stack.pop()
            if counter is not None:
                rec[5] = counter(args, out)
            return out

        return wrapper

    @contextlib.contextmanager
    def installed(self):
        saved = []
        try:
            for owner, attr, name, counter in _targets():
                fn = getattr(owner, attr)
                saved.append((owner, attr, fn))
                setattr(owner, attr, self._wrap(name, fn, counter))
            yield self
        finally:
            for owner, attr, fn in reversed(saved):
                setattr(owner, attr, fn)

    @contextlib.contextmanager
    def root(self, name, problem):
        """A root span for one problem; the wrapped calls inside nest under it."""
        self.problem = problem
        rec = [name, 0, 0, -1, problem, 0]
        self._stack.append(len(self.spans))
        self.spans.append(rec)
        rec[1] = time.perf_counter_ns()
        try:
            yield
        finally:
            rec[2] = time.perf_counter_ns()
            self._stack.pop()

    def rollup(self) -> dict:
        """Per span name: calls, total and self nanoseconds, summed count."""
        child_ns = [0] * len(self.spans)
        for name, start, end, parent, _, _ in self.spans:
            if parent >= 0:
                child_ns[parent] += end - start
        out: dict[str, dict] = {}
        for i, (name, start, end, _, _, count) in enumerate(self.spans):
            r = out.setdefault(name, {"calls": 0, "total_ns": 0, "self_ns": 0, "count": 0})
            r["calls"] += 1
            r["total_ns"] += end - start
            r["self_ns"] += end - start - child_ns[i]
            r["count"] += count
        return out

    def write(self, path, worker: int) -> None:
        with open(path, "a", encoding="utf-8") as fh:
            for i, (name, start, end, parent, problem, count) in enumerate(self.spans):
                fh.write(json.dumps([worker, i, parent, problem, name, start, end, count]) + "\n")


def cache_counts() -> dict[str, list[int]]:
    """Summed lru_cache [hits, misses] of the family generators, per module."""
    out = {}
    for mod in (dirichlet, mixed):
        hits = misses = 0
        for fn in vars(mod).values():
            if hasattr(fn, "cache_info") and getattr(fn, "__module__", None) == mod.__name__:
                info = fn.cache_info()
                hits, misses = hits + info.hits, misses + info.misses
        out[mod.__name__.rsplit(".", 1)[1]] = [hits, misses]
    return out

