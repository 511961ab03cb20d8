"""List every statement of ``src/d2m`` that the tier-1 suite never runs.

Runs the suite in this process under ``sys.settrace`` (and
``threading.settrace``, for any worker thread), tracing only the frames whose
code lives in ``src/d2m``, then prints each statement (docstrings excluded)
that no test reached, as ``path:line: source``, and their count. The bodies
of ``if TYPE_CHECKING:`` (read by type checkers only) and of
``if __name__ == "__main__":`` (run only when the module is a script) are
not listed, since no test can reach them. It uses only the standard library,
and its name keeps pytest from collecting it. A test that runs the CLI in a
subprocess is not traced, so a statement only such a test reaches is listed
too, and so is one reached only after Python dropped the tracer in a test:
each such test is named, and tracing restarts after it.

Run it from the repository root, with any pytest arguments after it:

    PYTHONPATH=src python tests/linetrace.py [-x] [tests/test_cli.py ...]

The whole suite took 88 s and 119 s under it in two runs on a 2 vCPU host
(Python 3.11), where it takes 43 s to 49 s untraced.
"""

from __future__ import annotations

import ast
import sys
import threading
from collections import defaultdict
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "d2m"


def _is_docstring(node: ast.stmt, parent: ast.AST) -> bool:
    return (isinstance(parent, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef))
            and node is parent.body[0] and isinstance(node, ast.Expr)
            and isinstance(node.value, ast.Constant) and isinstance(node.value.value, str))


def _unreachable_body(node: ast.AST) -> bool:
    """Whether ``node`` is an ``if TYPE_CHECKING:`` or an
    ``if __name__ == "__main__":``, whose body no test runs."""
    test = node.test if isinstance(node, ast.If) else None
    return (isinstance(test, ast.Name) and test.id == "TYPE_CHECKING"
            or isinstance(test, ast.Compare) and isinstance(test.left, ast.Name)
            and test.left.id == "__name__")


def statements(path: Path) -> dict[int, range]:
    """Each statement's first line, to the lines of it that a line event
    can name: all of a simple statement's, and a compound statement's header
    up to its first child statement (decorators included). The statements
    in an unreachable body (``_unreachable_body``) are left out."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    skipped = {id(inner) for node in ast.walk(tree) if _unreachable_body(node)
               for child in node.body for inner in ast.walk(child)}
    spans = {}
    for parent in ast.walk(tree):
        for field in ("body", "orelse", "finalbody", "handlers", "cases"):
            children = getattr(parent, field, None)
            for node in children if isinstance(children, list) else ():
                if (not isinstance(node, ast.stmt) or _is_docstring(node, parent)
                        or id(node) in skipped):
                    continue
                start = min([node.lineno, *(d.lineno for d in
                                            getattr(node, "decorator_list", ()))])
                body = getattr(node, "body", None)
                end = body[0].lineno - 1 if body else node.end_lineno
                spans[node.lineno] = range(start, max(start, end) + 1)
    return spans


def main(argv: list[str]) -> int:
    hits: dict[str, set[int]] = defaultdict(set)
    ours: dict[object, bool] = {}  # code object -> whether it is in src/d2m

    def local(frame, event, arg):
        if event == "line":
            hits[frame.f_code.co_filename].add(frame.f_lineno)
        return local

    def tracer(frame, event, arg):
        code = frame.f_code
        if code not in ours:
            ours[code] = Path(code.co_filename).resolve().is_relative_to(SRC)
        if ours[code]:
            hits[code.co_filename].add(frame.f_lineno)
            return local
        return None

    class Retrace:
        """Puts the tracer back after a test in which Python dropped it. A
        trace function called at the recursion limit raises, and Python then
        turns tracing off: a garbage collection that runs deep in a recursive
        parse can close a suspended generator there, which is such a call."""

        def __init__(self):
            self.dropped: list[str] = []

        def pytest_runtest_logfinish(self, nodeid, location):
            if sys.gettrace() is not tracer:
                self.dropped.append(nodeid)
                sys.settrace(tracer)

    retrace = Retrace()
    threading.settrace(tracer)
    sys.settrace(tracer)
    try:
        code = pytest.main(["-q", "-p", "no:cacheprovider", *argv], plugins=[retrace])
    finally:
        sys.settrace(None)
        threading.settrace(None)
    for nodeid in retrace.dropped:
        print(f"tracing stopped during {nodeid} and was restarted after it")

    ran = defaultdict(set)
    for filename, lines in hits.items():
        ran[Path(filename).resolve()] |= lines
    unrun = 0
    for path in sorted(SRC.glob("*.py")):
        source = path.read_text(encoding="utf-8").splitlines()
        for line, span in sorted(statements(path).items()):
            if ran[path].isdisjoint(span):
                unrun += 1
                print(f"{path.relative_to(SRC.parents[1])}:{line}: {source[line - 1].strip()}")
    print(f"{unrun} statements of {SRC.relative_to(SRC.parents[1])} never ran")
    return int(code)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
