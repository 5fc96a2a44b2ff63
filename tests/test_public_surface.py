"""Every name defined in ``src/mtqe`` serves the pipeline or the benchmark.

A public module-level function, class or constant, or a public method,
must be referred to (as a name, an attribute or an import) somewhere under
``src/mtqe/`` or ``bench/``.  A name only the tests use belongs in the tests.
A private (``_name``) one must be referred to under ``src/mtqe/`` itself, so
a helper left behind by its last caller fails here.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SOURCES = sorted((ROOT / "src" / "mtqe").glob("*.py"))


def _parse(path):
    return ast.parse(path.read_text(encoding="utf-8"))


def _defined_names() -> dict[str, str]:
    """``{name: where}`` for every module-level definition and method in src/mtqe."""
    names = {}
    for path in SOURCES:
        for node in _parse(path).body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                names[node.name] = f"{path.name}:{node.lineno}"
            if isinstance(node, ast.ClassDef):
                for item in node.body:
                    if isinstance(item, ast.FunctionDef):
                        names[item.name] = f"{path.name}:{item.lineno}"
            if isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                for target in targets:
                    if isinstance(target, ast.Name):
                        names[target.id] = f"{path.name}:{node.lineno}"
    return names


def _public_names() -> dict[str, str]:
    return {name: where for name, where in _defined_names().items() if not name.startswith("_")}


def _private_names() -> dict[str, str]:
    """The ``_name`` definitions; dunders are the language's, not the package's."""
    return {
        name: where
        for name, where in _defined_names().items()
        if name.startswith("_") and not (name.startswith("__") and name.endswith("__"))
    }


def _references(paths) -> set[str]:
    """Every name read, attribute read or name imported in ``paths``."""
    found = set()
    for path in paths:
        for node in ast.walk(_parse(path)):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                found.add(node.id)
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                found.add(node.attr)
            elif isinstance(node, ast.ImportFrom):
                found.update(alias.name for alias in node.names)
    return found


def test_public_names_found():
    names = _public_names()
    assert {"train_lm", "NgramModel", "sentence_log_prob", "UNK"} <= set(names)


def test_private_names_found():
    names = _private_names()
    assert {"_vocabulary", "_nearest_rank", "_MAGIC", "_cmd_build_lm"} <= set(names)
    assert "__init__" not in names


def test_every_public_name_is_used_outside_the_tests():
    references = _references(SOURCES + sorted((ROOT / "bench").glob("*.py")))
    unused = sorted(
        f"{name} ({where})" for name, where in _public_names().items() if name not in references
    )
    assert unused == []


def test_every_private_name_is_used_in_the_package():
    references = _references(SOURCES)
    unused = sorted(
        f"{name} ({where})" for name, where in _private_names().items() if name not in references
    )
    assert unused == []
