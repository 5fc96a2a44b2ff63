"""``bench/`` must keep working against the mtqe modules.

The benchmark scripts import inside functions, so a removed name would
only fail when that code path runs (``--trace 1``); the first tests check
them all statically, and the last runs a traced bench pass end to end on
every workload, since only ``train`` replays the pipeline without prepared
models.
"""

import ast
import importlib
import json
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent / "bench"


def _bench_imports() -> dict[str, set[str]]:
    """``{module: names}`` for every ``from mtqe.<module> import ...`` in bench/."""
    imports: dict[str, set[str]] = {}
    for path in sorted(BENCH.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.ImportFrom) and (node.module or "").startswith("mtqe."):
                imports.setdefault(node.module, set()).update(a.name for a in node.names)
    return imports


IMPORTS = _bench_imports()


def test_bench_imports_found():
    assert {"mtqe.corpus", "mtqe.evaluation", "mtqe.ngram"} <= set(IMPORTS)


@pytest.mark.parametrize("module", sorted(IMPORTS))
def test_bench_names_exist(module):
    loaded = importlib.import_module(module)
    missing = sorted(name for name in IMPORTS[module] if not hasattr(loaded, name))
    assert missing == []


@pytest.mark.parametrize("workload", ["train", "grade", "grade-short"])
def test_traced_bench_run_succeeds(workload):
    # --trace 1 runs bench/layers.py in process, which reads model
    # attributes and checks its outputs against the CLI's bytes; the tiny
    # scale keeps the run to a few seconds.
    argv = [sys.executable, "bench/run.py", "--workload", workload, "--seed", "3",
            "--seconds", "0.1", "--trace", "1", "--scale", "0.02"]
    done = subprocess.run(argv, cwd=BENCH.parent, capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.splitlines()[-1])
    assert result["failed"] == 0, done.stderr
    assert result["correct"]
