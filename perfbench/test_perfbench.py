"""Self-tests of the benchmark.  Run: python3 -m pytest perfbench -q  (about 2 min)."""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import problems as P  # noqa: E402
import run as bench  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
# counts that depend only on the seed's inputs and the program, never on timing
DETERMINISTIC_SUFFIXES = (".calls", ".term_pairs", ".terms_out", ".cache_lookups",
                          "u_terms", "u_coeff_bits")


def bench_run(workload, trace, seconds=1, seed=0, cwd=ROOT):
    cp = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=600,
    )
    assert cp.returncode == 0, cp.stderr
    *_, meta, result = cp.stdout.strip().splitlines()
    return json.loads(meta)["meta"], json.loads(result)


@pytest.mark.parametrize("workload", WORKLOADS)
def test_short_run_passes_its_checks_and_reports_every_metric(workload):
    meta, result = bench_run(workload, trace=0)
    assert sorted(result) == ["attempted", "correct", "failed", "metrics"]
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert meta["reference"] == "digest"  # seed 0 has stored reference digests
    assert meta["failed_frac"] == {"value": 0.0, "unit": "fraction"}
    units = {k: v["unit"] for k, v in result["metrics"].items()}
    assert units == {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert all(v["value"] > 0 for v in result["metrics"].values())


@pytest.mark.parametrize("workload", WORKLOADS)
def test_two_traced_runs_give_equal_counts(workload):
    first = bench_run(workload, trace=1)[1]
    second = bench_run(workload, trace=1)[1]
    assert first["correct"] and second["correct"]
    names = [m["name"] for m in SPEC["per_layer"]]
    assert sorted(first["metrics"]) == sorted(names)
    counts = [n for n in names if n.endswith(DETERMINISTIC_SUFFIXES)]
    assert {n: first["metrics"][n]["value"] for n in counts} == {
        n: second["metrics"][n]["value"] for n in counts}
    assert all(first["metrics"][n]["value"] > 0 for n in counts)


def test_refuses_to_run_without_the_package(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    cp = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "cli", "--seed", "0",
                         "--seconds", "1", "--trace", "0"],
                        cwd=tmp_path, capture_output=True, text=True, timeout=180)
    assert cp.returncode != 0
    assert '"correct"' not in cp.stdout


def test_oracle_rejects_a_wrong_solution():
    from layerpoisson import parsing, solver

    for p in P.cli_problems(0):
        t = p.texts()
        u = solver.solve(solver.LayerProblem(
            n=p.n, a=p.a, kind=p.kind, rhs=parsing.parse_poly(t["rhs"], p.n),
            lower=parsing.parse_poly(t["lower"], p.n),
            upper=parsing.parse_poly(t["upper"], p.n))).u.terms
        assert P.check_solution(u, p) is None
        exp, c = next(iter(u.items()))
        assert P.check_solution({**u, exp: c + 1}, p) is not None


def test_canonical_text_round_trips_and_matches_the_package():
    from layerpoisson import parsing, polyring

    p = P.ladder(0)[-1]
    rhs = parsing.parse_poly(p.texts()["rhs"], p.n)
    assert rhs.terms == p.rhs
    text = polyring.to_text(rhs, p.names)
    assert P.canonical_text(p.rhs, p.names) == text
    assert P.parse_canonical(text, p.names) == p.rhs


def test_a_digest_miss_counts_as_a_failure():
    run = bench.Run("ladder-warm", 0, 1, False)
    run.refs = {"n1-d6-dirichlet": "0" * 16}
    run.record("n1-d6-dirichlet", True, None, 0.1, "1" * 16, run.samples)
    assert run.attempted == 1 and len(run.failures) == 1 and not run.samples


def test_seeds_change_inputs_but_not_the_ladder_shape():
    a, b = P.ladder(1), P.ladder(2)
    assert [p.pid for p in a] == [p.pid for p in b]
    assert [p.rhs for p in a] != [p.rhs for p in b]
    assert P.ladder(1) == a
