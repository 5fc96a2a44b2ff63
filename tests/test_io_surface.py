"""``fileio`` is the only module of ``src/mtqe`` that opens, syncs or renames files.

The README's promise that outputs are written atomically and durably then
rests on ``fileio.atomic_write_lines`` alone, which the fsync and mode
tests in ``tests/test_fileio.py`` exercise.  Its promise that a file's
first faulty line is the one reported rests on every reader streaming
through ``iter_lines``, the two model files included: no function in
``src/mtqe`` calls ``read_lines``, which is kept for the benchmark and the
tests.
"""

import ast
from pathlib import Path

SOURCES = sorted((Path(__file__).resolve().parent.parent / "src" / "mtqe").glob("*.py"))
# Builtin open, and the os calls that open, wrap, sync or rename a file.
OS_CALLS = {"open", "fdopen", "replace", "fsync"}


def _file_calls(path) -> list[str]:
    """``name:line`` of every builtin ``open`` or ``os.<OS_CALLS>`` call in ``path``."""
    found = []
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        if isinstance(func, ast.Name) and func.id in OS_CALLS:
            found.append(f"{func.id}:{node.lineno}")
        elif (isinstance(func, ast.Attribute) and func.attr in OS_CALLS
              and isinstance(func.value, ast.Name) and func.value.id == "os"):
            found.append(f"os.{func.attr}:{node.lineno}")
    return found


def test_fileio_calls_are_found():
    names = {call.split(":")[0] for call in _file_calls(SOURCES[0].with_name("fileio.py"))}
    assert names == {"open", "os.open", "os.fdopen", "os.replace", "os.fsync"}


def test_only_fileio_touches_files():
    calls = {path.name: _file_calls(path) for path in SOURCES if path.name != "fileio.py"}
    assert {name: found for name, found in calls.items() if found} == {}


def _read_lines_callers() -> list[str]:
    """``module.name`` of each top-level function or class in src/mtqe calling ``read_lines``."""
    found = set()
    for path in SOURCES:
        for node in ast.parse(path.read_text(encoding="utf-8")).body:
            for call in ast.walk(node):
                if isinstance(call, ast.Call) and "read_lines" in (
                    getattr(call.func, "id", None), getattr(call.func, "attr", None)
                ):
                    found.add(f"{path.stem}.{getattr(node, 'name', '<module>')}")
    return sorted(found)


def test_no_file_is_read_as_a_line_list():
    assert _read_lines_callers() == []
