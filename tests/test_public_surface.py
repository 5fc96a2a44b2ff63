"""Every name defined in ``src/mtqe`` serves the pipeline or the benchmark.

A public module-level function, class or constant, or a public method,
must be referred to (as a name, an attribute or an import) somewhere under
``src/mtqe/`` or ``bench/``.  A name only the tests use belongs in the tests.
A private (``_name``) one must be referred to under ``src/mtqe/`` itself, so
a helper left behind by its last caller fails here.  Records are
``NamedTuple``s, so no stage pays for importing ``dataclasses``, and only
a model-cache lookup pays for importing ``hashlib``.  Each stage imports
only the modules it runs: ``train``, ``predict`` and ``evaluate`` load
neither the tokenizer nor the n-gram code, ``build-lexicon`` loads no
n-gram code, neither model writer loads ``hashlib``, and only ``extract``
and ``predict`` load ``mtqe.workers``, which forks their worker processes.
"""

import ast
import subprocess
import sys
from pathlib import Path

import pytest

from conftest import run_toy_pipeline

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


def _modules_after(argv):
    """The exit status of ``mtqe argv`` in a fresh interpreter, and the modules it loaded.

    -S keeps site packages (and whatever their .pth files import) out.
    """
    run = f"mtqe.cli.main({[str(arg) for arg in argv]!r})" if argv else "None"
    code = (
        f"import sys; sys.path.insert(0, {str(ROOT / 'src')!r}); import mtqe.cli; "
        f"status = {run}; print(status, *sorted(sys.modules))"
    )
    result = subprocess.run([sys.executable, "-S", "-c", code],
                            capture_output=True, text=True, check=True)
    status, *modules = result.stdout.splitlines()[-1].split(" ")
    return status, set(modules)


# No stage loads these.
NEVER = {"dataclasses", "fractions", "inspect"}
# The tokenizer, the n-gram code, and hashlib, which only a model-cache
# lookup imports: train, predict and evaluate load none of them.
NOT_GRADING = {"mtqe.corpus", "mtqe.lexicon", "mtqe.ngram", "unicodedata", "hashlib"}


def test_cli_imports_no_dataclasses_inspect_or_hashlib():
    _, modules = _modules_after([])
    assert modules & (NEVER | NOT_GRADING) == set()
    # The parser needs no stage's module.
    assert {name for name in modules if name.startswith("mtqe.")} == {
        "mtqe.cli", "mtqe.defaults", "mtqe.errors"
    }


@pytest.fixture(scope="module")
def toy_run(tmp_path_factory):
    """The paths of a toy pipeline run, and a directory for each stage's outputs."""
    data = tmp_path_factory.mktemp("data")
    paths, codes = run_toy_pipeline(data, tmp_path_factory.mktemp("models"), n_pairs=40)
    assert codes == [0] * 7
    return paths, tmp_path_factory.mktemp("out")


STAGES = {
    "build-lm": lambda p, out: ["--corpus", p["src"], "--side", "source", "--out", out],
    "build-lexicon": lambda p, out: ["--pairs-src", p["src"], "--pairs-tgt", p["tgt"],
                                     "--out", out],
    "extract": lambda p, out: ["--pairs-src", p["src"], "--pairs-tgt", p["tgt"],
                               "--src-lm", p["src_lm"], "--tgt-lm", p["tgt_lm"],
                               "--lexicon", p["lexicon"], "--judgments", p["judgments"],
                               "--out", out],
    "train": lambda p, out: ["--features", p["features"], "--out", out],
    "predict": lambda p, out: ["--model", p["model"], "--features", p["features"], "--out", out],
    "evaluate": lambda p, out: ["--human", p["features"], "--predicted", p["predictions"],
                                "--out", out],
}


@pytest.mark.parametrize("stage", sorted(STAGES))
def test_stage_imports_only_its_own_modules(stage, toy_run):
    paths, out_dir = toy_run
    status, modules = _modules_after([stage, *STAGES[stage](paths, out_dir / stage)])
    assert status == "0"
    assert modules & NEVER == set()
    if stage in ("train", "predict", "evaluate"):
        assert modules & NOT_GRADING == set()
    if stage == "build-lexicon":  # the markers it checks for live in mtqe.corpus
        assert "mtqe.ngram" not in modules
    if stage in ("build-lm", "build-lexicon"):  # they write models; only extract loads them
        assert "hashlib" not in modules
    assert ("mtqe.workers" in modules) == (stage in ("extract", "predict"))
