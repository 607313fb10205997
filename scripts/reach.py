#!/usr/bin/env python3
"""List the statements inside functions of src/ifpsync that the test suite
never runs.

Runs the Tier-1 suite (`pytest -q --continue-on-collection-errors` on
`tests/`) in this process with a `sys.settrace` / `threading.settrace` hook
installed as a pytest plugin, and prints one line per statement inside a
function of `src/ifpsync` none of whose lines ran, then a count:

    python3 scripts/reach.py [PYTEST_ARG ...]

Extra arguments go to pytest (for example `-x` or a test path). The exit
status is pytest's. Only the standard library is used: no coverage package.

A statement's lines are those of the compiled code that belong to it and not
to a statement nested in it, so an `if` owns its condition and a `try` its
`try:` and `except` lines. Code that runs only in a child process (the
forked CSV writer of a sweep) is not seen: the child's trace stays in the
child. Tracing makes the suite slower, about 1.7 times on one core.
"""

from __future__ import annotations

import ast
import dis
import os
import sys
import threading
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "ifpsync"


def _code_lines(code) -> set[int]:
    """Line numbers at which instructions of code and its nested code start."""
    lines = {line for _, line in dis.findlinestarts(code) if line is not None}
    for const in code.co_consts:
        if hasattr(const, "co_code"):
            lines |= _code_lines(const)
    return lines


def function_statements(path: Path) -> dict[int, frozenset[int]]:
    """The statements inside the functions of one source file: the first
    line of each, mapped to the lines of compiled code it owns. A statement
    that owns no such line (a nested def, `pass` folded away) is left out."""
    source = path.read_text(encoding="utf-8")
    tree = ast.parse(source)
    owner: dict[int, ast.stmt] = {}
    statements = []
    for func in ast.walk(tree):
        if isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)):
            for body_stmt in func.body:
                statements += [s for s in ast.walk(body_stmt) if isinstance(s, ast.stmt)]
    # the innermost statement owns a line: assign the widest spans first
    for stmt in sorted(statements, key=lambda s: s.lineno - s.end_lineno):
        for line in range(stmt.lineno, stmt.end_lineno + 1):
            owner[line] = stmt
    owned: dict[int, set[int]] = {}
    for line in _code_lines(compile(source, str(path), "exec")):
        stmt = owner.get(line)
        if stmt is not None and not isinstance(
                stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            owned.setdefault(stmt.lineno, set()).add(line)
    return {first: frozenset(lines) for first, lines in sorted(owned.items())}


class Reach:
    """pytest plugin: records the lines run in files under `package` from
    configure to unconfigure."""

    def __init__(self, package: Path = PACKAGE):
        self.prefix = str(package) + os.sep
        self.lines: dict[str, set[int]] = {}

    def _local(self, frame, event, arg):
        if event == "line":
            self.lines[frame.f_code.co_filename].add(frame.f_lineno)
        return self._local

    def _global(self, frame, event, arg):
        filename = frame.f_code.co_filename
        if not filename.startswith(self.prefix):
            return None
        self.lines.setdefault(filename, set())
        return self._local

    def pytest_configure(self, config):
        threading.settrace(self._global)
        sys.settrace(self._global)

    def pytest_unconfigure(self, config):
        sys.settrace(None)
        threading.settrace(None)

    def unreached(self, path: Path) -> list[int]:
        """First lines of the statements of path that never ran."""
        ran = self.lines.get(str(path), set())
        return [first for first, lines in function_statements(path).items()
                if not lines & ran]


def main(argv: list[str]) -> int:
    # the package of this checkout, here and in the subprocesses of the tests
    sys.path.insert(0, str(PACKAGE.parent))
    os.environ["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(PACKAGE.parent), os.environ.get("PYTHONPATH")]))
    reach = Reach()
    args = argv or [str(ROOT / "tests")]
    code = int(pytest.main(["-q", "--continue-on-collection-errors", "-p", "no:cacheprovider",
                            *args], plugins=[reach]))
    total = missed = 0
    for path in sorted(PACKAGE.glob("*.py")):
        source = path.read_text(encoding="utf-8").splitlines()
        total += len(function_statements(path))
        for first in reach.unreached(path):
            missed += 1
            print(f"{path.relative_to(ROOT)}:{first}: {source[first - 1].strip()}")
    print(f"{missed} of {total} statements inside functions of src/ifpsync never ran")
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
