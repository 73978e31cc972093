"""Child interpreter of the benchmark: ``python worker.py <module>``.

It imports the named module of the package, reports how long that took on
one JSON line, then serves JSON jobs from stdin, one reply line per job,
until stdin closes.  The parent times the worker from spawn to that first
line, which is the worker's set-up time.

Jobs:
  {"op": "solve", "problems": [...], "trace": bool, "spans": path}
      run the unit of work on each problem: parse_poly on rhs, lower and
      upper, LayerProblem, solve().  Only that is timed.  Each output is
      then checked: certificate, exact oracle, and (on first sight of a
      problem, or when tracing) the digest of to_text(u).
  {"op": "cli", "pid": id, "argv": [...], "trace": bool, "spans": path}
      run layerpoisson.cli.main(argv) with stdout captured.
"""

import contextlib
import importlib
import io
import json
import os
import resource
import sys
import time
import traceback

import problems as P

_seen: dict = {}  # pid -> u from this worker's first solve of it


def _unit(p: P.Problem, texts: dict[str, str]):
    from layerpoisson import parsing, solver  # loaded before the first job

    t0 = time.perf_counter()
    rhs = parsing.parse_poly(texts["rhs"], p.n)
    lower = parsing.parse_poly(texts["lower"], p.n)
    upper = parsing.parse_poly(texts["upper"], p.n)
    problem = solver.LayerProblem(n=p.n, a=p.a, kind=p.kind, rhs=rhs, lower=lower, upper=upper)
    report = solver.solve(problem)
    return report, time.perf_counter() - t0


def _check(p: P.Problem, report, full: bool) -> dict:
    from layerpoisson import polyring

    if not report.verified:
        return {"ok": False, "why": "certificate has a nonzero residual"}
    if not full:
        if report.u != _seen[p.pid]:
            return {"ok": False, "why": "u differs from this worker's first solve"}
        return {"ok": True}
    why = P.check_solution(report.u.terms, p)
    if why:
        return {"ok": False, "why": why}
    _seen[p.pid] = report.u
    text = polyring.to_text(report.u, p.names)
    return {"ok": True, "digest": P.digest(text), **P.u_stats(report.u.terms)}


def _root(tracer, name, pid):
    return tracer.root(name, pid) if tracer else contextlib.nullcontext()


def _solve(job, tracer) -> dict:
    out = []
    for d in job["problems"]:
        p = P.Problem.from_json(d)
        texts = p.texts()
        full = tracer is not None or p.pid not in _seen
        try:
            with _root(tracer, "unit", p.pid):
                report, t = _unit(p, texts)
            with _root(tracer, "check", p.pid):
                rec = {"pid": p.pid, "t": t, **_check(p, report, full)}
        except Exception:  # a failing problem is counted, and the run goes on
            rec = {"pid": p.pid, "ok": False, "why": traceback.format_exc(limit=3)}
        out.append(rec)
    return {"results": out}


def _cli(job, tracer) -> dict:
    from layerpoisson import cli

    buf = io.StringIO()
    t0 = time.perf_counter()
    try:
        with _root(tracer, "cli.main", job["pid"]), contextlib.redirect_stdout(buf):
            code = cli.main(job["argv"])
    except SystemExit as exc:
        code = exc.code
    except Exception:
        return {"exit": -1, "stdout": traceback.format_exc(limit=3)}
    return {"exit": code, "stdout": buf.getvalue(), "main_s": time.perf_counter() - t0}


def _run(job) -> dict:
    op = {"solve": _solve, "cli": _cli}[job["op"]]
    if not job.get("trace"):
        return op(job, None)
    import spans

    tracer = spans.Tracer()
    before = spans.cache_counts()
    with tracer.installed():
        reply = op(job, tracer)
    after = spans.cache_counts()
    reply["rollup"] = tracer.rollup()
    reply["cache"] = {m: [a - b for a, b in zip(after[m], before[m])] for m in after}
    tracer.write(job["spans"], os.getpid())
    return reply


def main() -> None:
    t0 = time.perf_counter()
    importlib.import_module(sys.argv[1])
    print(json.dumps({"import_s": time.perf_counter() - t0}), flush=True)
    for line in sys.stdin:
        reply = _run(json.loads(line))
        reply["maxrss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        print(json.dumps(reply), flush=True)


if __name__ == "__main__":
    main()
