"""Benchmark of layerpoisson: time from problem text to a certified exact solution.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --record --seed N

Run it from anywhere inside a checkout; it builds nothing and runs the
package from ``src/``.  Workloads (see README.md in this directory):

  cli          one ``python -m layerpoisson.cli solve ...`` process per problem
  ladder-cold  the seeded solve ladder, each problem in a fresh interpreter
  ladder-warm  the same ladder in one interpreter after a warm-up pass

The last line of stdout is the result: ``correct``, ``attempted``,
``failed`` and ``metrics`` (end-to-end metrics with ``--trace 0``,
per-layer metrics with ``--trace 1``).  The line before it is run
metadata.  Every output is checked: the solver's certificate, an exact
oracle that shares no code with the package, and, for seeds with stored
references, the digest of ``to_text(u)``.  ``--record`` stores those
digests for a new seed.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import problems as P

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
REFS = HERE / "refs.json"
ENV = dict(os.environ, PYTHONPATH=os.pathsep.join(
    [str(SRC)] + ([os.environ["PYTHONPATH"]] if os.environ.get("PYTHONPATH") else [])))
WORKLOADS = ("cli", "ladder-cold", "ladder-warm")
WARM_WORKERS = 3  # ladder-warm sets up this many times per run
CLI_SETUP_PROBES = 3
MIN_CLI_SAMPLES = 11  # the tail needs ten samples beyond it
CHILD_TIMEOUT_S = 120


class WorkerDied(RuntimeError):
    pass


class Worker:
    """A child interpreter running worker.py, one JSON job at a time."""

    def __init__(self, module: str):
        self.spawned = time.perf_counter()
        self.proc = subprocess.Popen(
            [sys.executable, str(HERE / "worker.py"), module],
            cwd=ROOT, env=ENV, stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True,
        )
        self.hello = self._reply()
        self.ready_s = time.perf_counter() - self.spawned

    def _reply(self) -> dict:
        line = self.proc.stdout.readline()
        if not line:
            raise WorkerDied(f"worker exited with code {self.proc.wait(CHILD_TIMEOUT_S)}")
        return json.loads(line)

    def call(self, **job) -> dict:
        self.proc.stdin.write(json.dumps(job) + "\n")
        self.proc.stdin.flush()
        return self._reply()

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.proc.stdin.close()
        try:
            self.proc.wait(CHILD_TIMEOUT_S)
        finally:
            if self.proc.poll() is None:
                self.proc.kill()
                self.proc.wait()
        self.proc.stdout.close()


def repeat_rounds(budget_s: float, one_round) -> None:
    """Run whole rounds, at least one, while the next is projected to end within budget."""
    start = time.perf_counter()
    rounds = 0
    while True:
        one_round()
        rounds += 1
        elapsed = time.perf_counter() - start
        if elapsed + elapsed / rounds > budget_s:
            return


class Run:
    def __init__(self, workload: str, seed: int, seconds: float, trace: bool):
        self.workload, self.seed, self.seconds, self.trace = workload, seed, seconds, trace
        self.refs = json.loads(REFS.read_text()).get(str(seed)) if REFS.exists() else None
        self.samples: dict[str, list[float]] = {}  # pid -> seconds, untraced
        self.traced: dict[str, list[float]] = {}  # pid -> seconds, traced round
        self.setup: list[float] = []
        self.attempted = 0
        self.failures: list[str] = []
        self.rollup: dict = {}
        self.cache: dict = {}
        self.u_terms = 0
        self.u_bits = 0
        self.cli_import: list[float] = []
        self.cli_main: list[float] = []
        self.span_file = OUT / f"spans-{workload}-seed{seed}.jsonl"

    # -- bookkeeping -------------------------------------------------------

    def record(self, pid: str, ok: bool, why: str | None, t: float | None,
               digest: str | None, into: dict) -> None:
        self.attempted += 1
        if ok and digest is not None and self.refs is not None and self.refs.get(pid) != digest:
            ok, why = False, "digest of to_text(u) differs from the stored reference"
        if not ok:
            self.failures.append(f"{pid}: {why}")
            return
        into.setdefault(pid, []).append(t)

    def record_solve(self, reply: dict, into: dict) -> None:
        for r in reply["results"]:
            self.record(r["pid"], r["ok"], r.get("why"), r.get("t"), r.get("digest"), into)
            if into is self.traced and r["ok"]:
                self.u_terms += r["u_terms"]
                self.u_bits = max(self.u_bits, r["u_coeff_bits"])
        self.absorb(reply)

    def absorb(self, reply: dict) -> None:
        if "rollup" in reply:
            merge(self.rollup, reply["rollup"])
            merge(self.cache, reply["cache"])

    def solve_job(self, problems: list[P.Problem], trace: bool = False) -> dict:
        return {"op": "solve", "problems": [p.to_json() for p in problems],
                "trace": trace, "spans": str(self.span_file)}

    # -- workloads ---------------------------------------------------------

    def ladder_cold(self) -> None:
        ladder = P.ladder(self.seed)
        with Worker("layerpoisson"):
            pass  # untimed: byte-compiles the package and fills the file cache

        def one_round(trace=False):
            for p in ladder:
                with Worker("layerpoisson") as w:
                    reply = w.call(**self.solve_job([p], trace))
                if not trace:
                    self.setup.append(w.ready_s)
                self.record_solve(reply, self.traced if trace else self.samples)

        repeat_rounds(self.seconds / 2 if self.trace else self.seconds, one_round)
        if self.trace:
            one_round(trace=True)
            self.cli_probe(ladder[0])

    def ladder_warm(self) -> None:
        ladder = P.ladder(self.seed)
        workers = 1 if self.trace else WARM_WORKERS
        budget = (self.seconds / 2 if self.trace else self.seconds) / workers
        for _ in range(workers):
            with Worker("layerpoisson") as w:
                warmup = w.call(**self.solve_job(ladder))
                self.setup.append(time.perf_counter() - w.spawned)
                self.record_solve(warmup, {})
                repeat_rounds(budget, lambda: self.record_solve(
                    w.call(**self.solve_job(ladder)), self.samples))
                if self.trace:
                    self.record_solve(w.call(**self.solve_job(ladder, True)), self.traced)
        if self.trace:
            self.cli_probe(ladder[0])

    def cli(self) -> None:
        cases = [(p, cli_argv(p, self.seed)) for p in P.cli_problems(self.seed)]
        with Worker("layerpoisson.cli"):
            pass  # untimed: byte-compiles the package and fills the file cache
        for _ in range(CLI_SETUP_PROBES):
            with Worker("layerpoisson.cli") as w:
                self.setup.append(w.ready_s)
        budget = self.seconds / 2 if self.trace else self.seconds
        start = time.perf_counter()
        i = 0
        while time.perf_counter() - start < budget or i < MIN_CLI_SAMPLES:
            p, argv = cases[i % len(cases)]
            t0 = time.perf_counter()
            cp = subprocess.run([sys.executable, "-m", "layerpoisson.cli", *argv], cwd=ROOT,
                                env=ENV, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S)
            t = time.perf_counter() - t0
            self.record_cli(p, cp.returncode, cp.stdout, t, self.samples)
            i += 1
        if self.trace:
            for p, argv in cases:
                t0 = time.perf_counter()
                with Worker("layerpoisson.cli") as w:
                    reply = w.call(op="cli", pid=p.pid, argv=argv, trace=True,
                                   spans=str(self.span_file))
                t = time.perf_counter() - t0
                self.cli_import.append(w.hello["import_s"])
                self.cli_main.append(reply.get("main_s", 0.0))
                self.record_cli(p, reply["exit"], reply["stdout"], t, self.traced)
                self.absorb(reply)

    def cli_probe(self, p: P.Problem) -> None:
        """cli.* on a ladder: one command-line solve of the first ladder problem."""
        with Worker("layerpoisson.cli") as w:
            reply = w.call(op="cli", pid=p.pid, argv=cli_argv(p, self.seed), trace=False)
        self.cli_import.append(w.hello["import_s"])
        self.cli_main.append(reply.get("main_s", 0.0))

    def record_cli(self, p: P.Problem, code: int, stdout: str, t: float, into: dict) -> None:
        try:
            text = cli_solution_text(p, code, stdout)
            terms = P.parse_canonical(text, p.names)
            why = P.check_solution(terms, p)
        except (ValueError, KeyError, IndexError) as exc:
            text, why = None, f"unreadable output: {exc!r}"
        if into is self.traced and why is None:
            stats = P.u_stats(terms)
            self.u_terms += stats["u_terms"]
            self.u_bits = max(self.u_bits, stats["u_coeff_bits"])
        self.record(p.pid, why is None, why, t, text and P.digest(text), into)

    # -- results -----------------------------------------------------------

    def execute(self) -> None:
        if self.trace:
            OUT.mkdir(exist_ok=True)
            self.span_file.write_text("")
        {"cli": self.cli, "ladder-cold": self.ladder_cold, "ladder-warm": self.ladder_warm}[
            self.workload]()

    def throughput(self, samples: dict) -> float:
        """Problems per second for one pass, each problem at its median time."""
        return len(samples) / sum(statistics.median(ts) for ts in samples.values())

    def end_to_end(self) -> tuple[dict, dict]:
        lat = sorted(t for ts in self.samples.values() for t in ts)
        if len(lat) < 11:
            raise RuntimeError(f"only {len(lat)} latency samples; the tail needs 11")
        k = len(lat) - 10
        metrics = {
            "latency_p50_ms": (statistics.median(lat) * 1e3, "ms"),
            "latency_tail_ms": (lat[k - 1] * 1e3, "ms"),
            "throughput_per_s": (self.throughput(self.samples), "1/s"),
            "setup_s": (statistics.median(self.setup), "s"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024, "MB"),
        }
        meta = {"latency_samples": len(lat), "tail_percentile": round(100 * k / len(lat), 2),
                "setup_samples": len(self.setup),
                "per_problem_ms": {pid: round(statistics.median(ts) * 1e3, 3)
                                   for pid, ts in self.samples.items()}}
        return metrics, meta

    def per_layer(self) -> dict:
        r = lambda name, key: self.rollup.get(name, {}).get(key, 0)
        m: dict = {
            "cli.import_s": (statistics.median(self.cli_import), "s"),
            "cli.main_s": (statistics.median(self.cli_main), "s"),
        }
        for layer in ("parsing", "particular", "dirichlet", "mixed"):
            m[f"{layer}.calls"] = (r(layer, "calls"), "count")
            m[f"{layer}.self_s"] = (r(layer, "self_ns") / 1e9, "s")
        for layer in ("parsing", "particular"):
            m[f"{layer}.terms_out"] = (r(layer, "count"), "count")
        for layer in ("dirichlet", "mixed"):
            hits, misses = self.cache.get(layer, [0, 0])
            m[f"{layer}.cache_hit_ratio"] = (hits / (hits + misses) if hits + misses else 0.0,
                                             "ratio")
            m[f"{layer}.cache_lookups"] = (hits + misses, "count")
        m["solver.solve.self_s"] = (r("solver.solve", "self_ns") / 1e9, "s")
        m["solver.verify.calls"] = (r("solver.verify", "calls"), "count")
        m["solver.verify.self_s"] = (r("solver.verify", "self_ns") / 1e9, "s")
        m["solver.u_terms"] = (self.u_terms, "count")
        m["solver.u_coeff_bits"] = (self.u_bits, "bits")
        for op in ("mul", "add", "subs", "diff"):
            m[f"polyring.{op}.calls"] = (r(f"polyring.{op}", "calls"), "count")
            m[f"polyring.{op}.s"] = (r(f"polyring.{op}", "self_ns") / 1e9, "s")
        m["polyring.mul.term_pairs"] = (r("polyring.mul", "count"), "count")
        m["polyring.render.s"] = (r("polyring.render", "self_ns") / 1e9, "s")
        m["trace.overhead_ratio"] = (
            self.throughput(self.traced) / self.throughput(self.samples), "ratio")
        return m


def merge(total: dict, part: dict) -> None:
    """Add one roll-up or cache-count map into another, in place."""
    for key, val in part.items():
        if isinstance(val, dict):
            merge(total.setdefault(key, {}), val)
        elif isinstance(val, list):
            total[key] = [x + y for x, y in zip(total.get(key, [0] * len(val)), val)]
        else:
            total[key] = total.get(key, 0) + val


def cli_argv(p: P.Problem, seed: int) -> list[str]:
    texts = p.texts()
    if p.style == "file":
        path = OUT / "problems" / f"seed{seed}-{p.pid}.json"
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps({"n": p.n, "a": str(p.a), "kind": p.kind, **texts}))
        data = ["--problem", str(path.relative_to(ROOT))]
    else:
        data = [f"--dim={p.n}", f"--width={p.a}", f"--kind={p.kind}",
                f"--rhs={texts['rhs']}", f"--lower={texts['lower']}", f"--upper={texts['upper']}"]
    return ["solve", *data, f"--output={p.output}"]


def cli_solution_text(p: P.Problem, code: int, stdout: str) -> str:
    """The canonical text of u from a certified command-line report."""
    if code != 0:
        raise ValueError(f"exit code {code}")
    if p.output == "json":
        report = json.loads(stdout)
        if report["verified"] is not True:
            raise ValueError("report not verified")
        terms = {tuple(t["exp"]): Fraction(t["coeff"]) for t in report["solution"]["terms"]}
        return P.canonical_text(terms, p.names)
    lines = dict(line.split(": ", 1) for line in stdout.splitlines())
    if lines["verified"] != "true":
        raise ValueError("report not verified")
    return lines["solution"]


def commit() -> str:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if head.startswith("ref: "):
            ref = head[5:]
            loose = git / ref
            if loose.exists():
                return loose.read_text().strip()
            for line in (git / "packed-refs").read_text().splitlines():
                if line.endswith(" " + ref):
                    return line.split()[0]
        return head
    except OSError:
        return "unknown"


def src_lines() -> int:
    return sum(len(f.read_text().splitlines()) for f in sorted(SRC.rglob("*.py")))


def record_references(seed: int) -> None:
    """Solve every problem of every workload in-process and store its digest."""
    sys.path.insert(0, str(SRC))
    from layerpoisson import parsing, polyring, solver

    digests = {}
    for p in P.cli_problems(seed) + P.ladder(seed):
        t = p.texts()
        report = solver.solve(solver.LayerProblem(
            n=p.n, a=p.a, kind=p.kind, rhs=parsing.parse_poly(t["rhs"], p.n),
            lower=parsing.parse_poly(t["lower"], p.n), upper=parsing.parse_poly(t["upper"], p.n)))
        why = P.check_solution(report.u.terms, p)
        text = polyring.to_text(report.u, p.names)
        if why or not report.verified or text != P.canonical_text(report.u.terms, p.names):
            raise SystemExit(f"seed {seed}, {p.pid}: not recording a wrong solution ({why})")
        digests[p.pid] = P.digest(text)
    refs = json.loads(REFS.read_text()) if REFS.exists() else {}
    refs[str(seed)] = digests
    REFS.write_text(json.dumps(refs, indent=1, sort_keys=True) + "\n")
    print(f"recorded {len(digests)} reference digests for seed {seed} in {REFS.name}")


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--record", action="store_true", help="store reference digests for --seed")
    args = ap.parse_args()
    if not (SRC / "layerpoisson" / "__init__.py").is_file():
        print(f"error: no package at {SRC}; run from a layerpoisson checkout", file=sys.stderr)
        return 2
    if args.record:
        record_references(args.seed)
        return 0
    if args.workload is None:
        ap.error("--workload is required")

    run = Run(args.workload, args.seed, args.seconds, bool(args.trace))
    run.execute()
    if run.trace:
        metrics, extra = run.per_layer(), {"span_file": str(run.span_file.relative_to(ROOT))}
    else:
        metrics, extra = run.end_to_end()
    failed = len(run.failures)
    meta = {
        "workload": args.workload, "seed": args.seed, "trace": bool(args.trace),
        "commit": commit(), "python": platform.python_version(), "nproc": os.cpu_count(),
        "problems": len(P.cli_problems(args.seed) if args.workload == "cli" else P.ladder(args.seed)),
        "src_lines": src_lines(),
        "reference": "digest" if run.refs is not None else "oracle-only",
        "failed_frac": {"value": failed / run.attempted, "unit": "fraction"},
        "failures": run.failures[:5],
        **extra,
    }
    print(json.dumps({"meta": meta}))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": run.attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
