"""List the statements of the package that no Tier-1 test executes.

    python tools/linecov.py

runs the Tier-1 suite (pytest over tests/, from the repository root) in
this process under a line tracer, set by sys.settrace for this thread and
by threading.settrace for every thread started after it, such as the
block-QR pool's.  Only code in files under src/circumproj is traced.  Once
the last test has run, it prints `module:line: source` for each statement
that was never executed, then pytest's summary.

A statement is reported by the line it starts on.  A simple statement
counts as executed when any of its lines ran, a compound one (if, for,
with, ...) when its header did.  Docstrings and other constant
expressions, `def` and `class` lines, `try:` headers, `global` and
`nonlocal` are never reported: they run no line of their own, or run only
at import.  Comments and blank lines are not statements.

It takes no options and is not a gate: it exits 0 whatever the tests do.
The tracer makes TestPooledBuild::test_pool_threads_free_no_buffer fail,
because that test bounds the allocations tracemalloc sees during a build,
and the tracer's own bookkeeping allocates.  `coverage` would do the same
job; this needs nothing beyond pytest.
"""

import ast
import os
import sys
import threading
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "circumproj"

# Statements that run no line of their own.
_SILENT = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef, ast.Try,
           ast.Global, ast.Nonlocal)


def statements(source):
    """{line: lines}: each reportable statement of `source` by the line it
    starts on, with the lines whose execution shows that it ran."""
    found = {}
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, ast.stmt) or isinstance(node, _SILENT):
            continue
        if isinstance(node, ast.Expr) and isinstance(node.value, ast.Constant):
            continue
        body = getattr(node, "body", None)
        # A compound statement's header ends where its body starts.
        end = max(node.lineno, body[0].lineno - 1) if body else node.end_lineno
        found[node.lineno] = range(node.lineno, end + 1)
    return found


def missed(source, executed):
    """The start lines of the statements of `source` none of whose lines
    are in `executed`, in order."""
    return sorted(line for line, lines in statements(source).items()
                  if executed.isdisjoint(lines))


class _Tracer:
    """The lines executed in each file under PACKAGE, by resolved path."""

    def __init__(self):
        self.executed = {str(path.resolve()): set() for path in PACKAGE.rglob("*.py")}
        self._by_name = {}

    def __call__(self, frame, event, arg):
        name = frame.f_code.co_filename
        lines = self._by_name.get(name, False)
        if lines is False:
            lines = self._by_name[name] = self.executed.get(os.path.realpath(name))
        if lines is None:
            return None

        def local(frame, event, arg):
            if event == "line":
                lines.add(frame.f_lineno)
            return local
        return local

    def stop(self):
        sys.settrace(None)
        threading.settrace(None)


class _Report:
    """A pytest plugin that stops the tracer and prints what it missed,
    ahead of pytest's summary line."""

    def __init__(self, tracer):
        self.tracer = tracer

    def pytest_terminal_summary(self, terminalreporter):
        self.tracer.stop()
        terminalreporter.section("statements no test executed")
        for path in sorted(PACKAGE.rglob("*.py")):
            source = path.read_text(encoding="utf-8")
            text = source.splitlines()
            for line in missed(source, self.tracer.executed[str(path.resolve())]):
                terminalreporter.write_line(
                    f"{path.relative_to(PACKAGE)}:{line}: {text[line - 1].strip()}")


def main():
    os.chdir(ROOT)
    tracer = _Tracer()
    threading.settrace(tracer)
    sys.settrace(tracer)
    try:
        pytest.main(["-q", "--continue-on-collection-errors"], plugins=[_Report(tracer)])
    finally:
        tracer.stop()
    return 0


if __name__ == "__main__":
    sys.exit(main())
