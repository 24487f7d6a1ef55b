"""Statements of ``src/nfetc`` that no tier-1 test executes.

    python3 tests/line_coverage.py [pytest args ...]

Runs the tier-1 suite (``pytest -q`` from the repository root, plus any
extra arguments) in this process under ``sys.settrace`` and
``threading.settrace``, then prints each statement of ``src/nfetc/*.py``
that no line event reached, as ``path:line: source``, and exits 1 if there
is one. It prints nothing and exits 0 when every statement ran. Docstrings,
``nonlocal``/``global`` lines, ``if TYPE_CHECKING:`` blocks and the
``__main__`` guard are not counted.

Only this process is traced: a statement that only a test's subprocess
reaches is reported as not executed. Tracing makes the suite about twice
as slow. Not collected by pytest (the name does not start with ``test_``);
it uses only the standard library and pytest.
"""

from __future__ import annotations

import ast
import contextlib
import io
import os
import sys
import threading

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src", "nfetc")


def _is_docstring(node: ast.stmt) -> bool:
    return (isinstance(node, ast.Expr) and isinstance(node.value, ast.Constant)
            and isinstance(node.value.value, str))


def _never_runs(node: ast.stmt) -> bool:
    """An ``if TYPE_CHECKING:`` block, or the ``__main__`` guard."""
    test = node.test if isinstance(node, ast.If) else None
    if isinstance(test, ast.Name) and test.id == "TYPE_CHECKING":
        return True
    return (isinstance(test, ast.Compare) and isinstance(test.left, ast.Name)
            and test.left.id == "__name__" and len(test.comparators) == 1
            and isinstance(test.comparators[0], ast.Constant)
            and test.comparators[0].value == "__main__")


def statements(source: str) -> list[tuple[int, range]]:
    """(first line, lines any of whose line events counts as executing it)
    of each counted statement of ``source``: a simple statement's own lines,
    a compound statement's header up to its first nested statement."""
    found = []

    def visit(body: list[ast.stmt]) -> None:
        for i, node in enumerate(body):
            if (i == 0 and _is_docstring(node)) or _never_runs(node):
                continue
            nested = [getattr(node, f) for f in ("body", "orelse", "finalbody")
                      if isinstance(getattr(node, f, None), list)]
            nested += [[h] for h in getattr(node, "handlers", [])]
            first = min([node.lineno] + [d.lineno for d in getattr(node, "decorator_list", [])])
            inner = [s for block in nested for s in block]
            if not isinstance(node, (ast.Try, ast.Nonlocal, ast.Global)):
                last = inner[0].lineno - 1 if inner else node.end_lineno
                found.append((first, range(first, max(first, last) + 1)))
            for block in nested:
                visit(block)

    tree = ast.parse(source)
    visit(tree.body)
    return found


def main(argv: list[str]) -> int:
    import pytest

    hits: dict[str, set[int]] = {}

    def local(frame, event, arg):
        if event == "line":
            hits[frame.f_code.co_filename].add(frame.f_lineno)
        return local

    def tracer(frame, event, arg):
        name = frame.f_code.co_filename
        if not name.startswith(SRC + os.sep):
            return None
        hits.setdefault(name, set())
        return local

    os.chdir(ROOT)
    sys.path.insert(0, os.path.join(ROOT, "src"))
    out = io.StringIO()
    threading.settrace(tracer)
    sys.settrace(tracer)
    try:
        with contextlib.redirect_stdout(out):
            code = pytest.main(["-q", "-p", "no:cacheprovider", *argv])
    finally:
        sys.settrace(None)
        threading.settrace(None)
    if code != 0:
        sys.stdout.write(out.getvalue())
        return int(code)

    missed = []
    for name in sorted(os.listdir(SRC)):
        if not name.endswith(".py"):
            continue
        path = os.path.join(SRC, name)
        with open(path, encoding="utf-8") as fh:
            source = fh.read()
        lines = source.splitlines()
        ran = hits.get(path, set())
        for first, span in statements(source):
            if ran.isdisjoint(span):
                missed.append(f"{os.path.relpath(path, ROOT)}:{first}: {lines[first - 1].strip()}")
    for line in missed:
        print(line)
    return 1 if missed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
