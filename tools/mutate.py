"""Mutation gate: every mutant in tools/mutants.json must be caught by its tests.

Each mutant names a file, a text that occurs in it exactly once, the text
that replaces it, and the tests that must fail once it is replaced.  The
script copies ``src/``, ``tests/`` and ``pytest.ini`` into a temporary
directory, runs the named tests there once on the unchanged copy (they
must pass), then applies one mutant at a time and runs only its tests.
A mutant is killed when pytest reports failed tests (exit code 1); it
survives when they pass.  Anything else (an import error, a test id that
matches nothing, a timeout) is reported as an error.  The exit code is 0
only when every mutant is killed.

    python3 tools/mutate.py

Standard library only; pytest and the test dependencies must be importable.
"""

import json
import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
COPIED = ("src", "tests", "pytest.ini")
TIMEOUT = 600  # seconds per pytest run; a mutant that hangs its tests is an error


def run_tests(tree: Path, tests: list[str]) -> str:
    """'passed', 'failed' or an error description, for pytest on ``tests`` in ``tree``."""
    # no bytecode is written, so a mutated file is never read through a stale .pyc
    env = dict(os.environ, PYTHONPATH=str(tree / "src"), PYTHONDONTWRITEBYTECODE="1")
    command = [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider", *tests]
    try:
        done = subprocess.run(command, cwd=tree, env=env, capture_output=True, text=True,
                              timeout=TIMEOUT)
    except subprocess.TimeoutExpired:
        return f"error: timed out after {TIMEOUT} s"
    if done.returncode in (0, 1):
        return ("passed", "failed")[done.returncode]
    last = (done.stdout.strip().splitlines() or ["no output"])[-1]
    return f"error: pytest exited {done.returncode}: {last}"


def main() -> int:
    mutants = json.loads((ROOT / "tools" / "mutants.json").read_text(encoding="utf-8"))
    failures = 0
    with tempfile.TemporaryDirectory(prefix="mutate-") as tmp:
        tree = Path(tmp)
        for name in COPIED:
            source = ROOT / name
            if source.is_dir():
                shutil.copytree(source, tree / name, ignore=shutil.ignore_patterns("__pycache__"))
            else:
                shutil.copy2(source, tree / name)

        every_test = sorted({t for m in mutants for t in m["tests"]})
        baseline = run_tests(tree, every_test)
        if baseline != "passed":
            print(f"the unmutated tree does not pass the listed tests: {baseline}")
            return 1

        for m in mutants:
            path = tree / m["file"]
            original = path.read_text(encoding="utf-8")
            count = original.count(m["old"])
            if count != 1:
                outcome = f"error: the old text occurs {count} times in {m['file']}"
            else:
                path.write_text(original.replace(m["old"], m["new"]), encoding="utf-8")
                try:
                    outcome = run_tests(tree, m["tests"])
                finally:
                    path.write_text(original, encoding="utf-8")
            verdict = {"failed": "killed", "passed": "SURVIVED"}.get(outcome, outcome)
            failures += verdict != "killed"
            print(f"{verdict:>8}  {m['name']}  ({m['file']})", flush=True)

    print(f"{len(mutants) - failures} of {len(mutants)} mutants killed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
