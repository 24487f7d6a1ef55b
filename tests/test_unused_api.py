"""Every function, class and method in ``src/nfetc`` has a caller in the
program: a name that only tests use is API the program does not need.

A name counts as used when it appears, outside its own definition, as an
identifier in ``src/`` or ``perfbench/``, or inside a string that is a bare
dotted name (the perfbench hook targets, ``getattr`` names). Comments and
docstrings do not count. Dunder methods are exempt.
"""

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "nfetc"

# The single-mention forward and its trace stay for the explain output of
# ``predict`` (ROADMAP item 4); anything only they reach counts as unused.
ALLOWED = {"NfetcModel.forward", "ForwardTrace"}

DOTTED = re.compile(r"[A-Za-z_][\w.]*")


def definitions(path: Path):
    """(qualified name, is a method, first line, last line) of each def and
    class."""
    out = []

    def visit(node, prefix, in_class):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                qual = f"{prefix}{child.name}"
                out.append((qual, in_class, child.lineno, child.end_lineno))
                visit(child, f"{qual}.", isinstance(child, ast.ClassDef))
            else:
                visit(child, prefix, in_class)

    visit(ast.parse(path.read_text()), "", False)
    return out


def name_uses(path: Path):
    """(name, line, is a bare name) of each identifier in code and of each
    part of a bare dotted-name string."""
    uses = []
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Name):
            uses.append((node.id, node.lineno, True))
        elif isinstance(node, ast.Attribute):
            uses.append((node.attr, node.end_lineno, False))
        elif (isinstance(node, ast.Constant) and isinstance(node.value, str)
              and DOTTED.fullmatch(node.value)):
            uses.extend((part, node.lineno, False) for part in node.value.split("."))
    return uses


def unused_names():
    files = sorted(PACKAGE.glob("*.py")) + sorted((ROOT / "perfbench").glob("*.py"))
    uses = {f: name_uses(f) for f in files}
    defs = {f: definitions(f) for f in sorted(PACKAGE.glob("*.py"))}
    # lines inside allowlisted definitions do not count as uses
    skipped = {(f, line) for f, ds in defs.items() for qual, _, lo, hi in ds
               if qual in ALLOWED for line in range(lo, hi + 1)}
    unused = []
    for f, ds in defs.items():
        for qual, method, lo, hi in ds:
            name = qual.rsplit(".", 1)[-1]
            if name.startswith("__") and name.endswith("__"):
                continue
            # a method is reached as an attribute; a bare name that matches
            # it is some local variable
            used = any(n == name and not (method and bare)
                       and (g, line) not in skipped
                       and not (g == f and lo <= line <= hi)
                       for g, us in uses.items() for n, line, bare in us)
            if not used:
                unused.append(f"{f.name}:{lo} {qual}")
    return unused


def test_every_name_has_a_caller_in_the_program():
    unused = unused_names()
    assert [u for u in unused if u.split(" ")[1] not in ALLOWED] == []
    # the allowlist holds only names that really have no other caller
    assert sorted(u.split(" ")[1] for u in unused) == sorted(ALLOWED)
