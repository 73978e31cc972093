"""tools/mutants.json stays in step with the source it mutates.

``tools/mutate.py`` applies each mutant and runs its tests; these checks
are the cheap part of that gate, run with the rest of the suite: each
mutant's text still occurs exactly once in its file, and each test it
names is still defined.
"""

import ast
import json
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
MUTANTS = json.loads((ROOT / "tools" / "mutants.json").read_text(encoding="utf-8"))


def test_mutant_names_are_unique():
    names = [m["name"] for m in MUTANTS]
    assert len(names) == len(set(names))


@pytest.mark.parametrize("mutant", MUTANTS, ids=lambda m: m["name"])
def test_each_mutant_applies_once_and_names_existing_tests(mutant):
    assert (ROOT / mutant["file"]).read_text(encoding="utf-8").count(mutant["old"]) == 1
    assert mutant["old"] != mutant["new"] and mutant["tests"]
    for test in mutant["tests"]:
        path, _, name = test.partition("::")
        tree = ast.parse((ROOT / path).read_text(encoding="utf-8"))
        assert name in {node.name for node in tree.body if isinstance(node, ast.FunctionDef)}, test
