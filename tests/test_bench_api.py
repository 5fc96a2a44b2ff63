"""The names ``bench/`` imports from mtqe modules must all exist.

The benchmark scripts import inside functions, so a removed name would
only fail when that code path runs (``--trace 1``); this checks them all
statically.
"""

import ast
import importlib
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
