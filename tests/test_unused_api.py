"""Every function, class and method in ``src/nfetc`` has a caller in the
program, and every dataclass field a reader: a name that only tests use is
API the program does not need.

A name counts as used when it appears, outside its own definition, as an
identifier in ``src/`` or ``perfbench/``, or inside a string that is a bare
dotted name (the perfbench hook targets, ``getattr`` names). Comments and
docstrings do not count. Dunder methods are exempt.

A dataclass field counts as read when ``src/`` or ``perfbench/`` loads it as
an attribute of a value that may be of its class: one whose name is
annotated with that class somewhere (an argument, a field, an assignment),
whose name is annotated nowhere, or ``self`` in the class's own methods.
Its own ``__post_init__`` does not count: a value that is only checked is
not used. ``dataclasses.asdict`` counts only as ``asdict(self)`` in the
class's own methods, a record that prints itself; a whole object written to
a checkpoint and read back is not read.
"""

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "nfetc"

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
    unused = []
    for f, ds in defs.items():
        for qual, method, lo, hi in ds:
            name = qual.rsplit(".", 1)[-1]
            if name.startswith("__") and name.endswith("__"):
                continue
            # a method is reached as an attribute; a bare name that matches
            # it is some local variable
            used = any(n == name and not (method and bare)
                       and not (g == f and lo <= line <= hi)
                       for g, us in uses.items() for n, line, bare in us)
            if not used:
                unused.append(f"{f.name}:{lo} {qual}")
    return unused


def test_every_name_has_a_caller_in_the_program():
    assert unused_names() == []


def names_in(node) -> set[str]:
    """The identifiers, attribute names and names in strings of ``node``:
    for an annotation, the classes it names."""
    names = set()
    for n in ast.walk(node):
        if isinstance(n, ast.Name):
            names.add(n.id)
        elif isinstance(n, ast.Attribute):
            names.add(n.attr)
        elif isinstance(n, ast.Constant) and isinstance(n.value, str):
            names |= set(DOTTED.findall(n.value))
    return names


def receiver_name(node):
    """The name of the value an attribute is read from: ``hp`` for
    ``self.hp``, ``runs`` for ``runs[i]``; None for a call's result."""
    while isinstance(node, ast.Subscript):
        node = node.value
    return node.id if isinstance(node, ast.Name) else getattr(node, "attr", None)


def field_reads():
    """The dataclasses of ``src/nfetc`` as {class: (file, fields)}, and each
    attribute read as (attribute, the classes its value may be of, or None
    for any, the enclosing class, whether in a ``__post_init__``), with
    ``asdict(self)`` read as every field of the enclosing class."""
    files = sorted(PACKAGE.glob("*.py")) + sorted((ROOT / "perfbench").glob("*.py"))
    trees = {f: ast.parse(f.read_text()) for f in files}
    classes = {}
    for f, tree in trees.items():
        for node in ast.walk(tree):
            if isinstance(node, ast.ClassDef) and f.parent == PACKAGE and any(
                    "dataclass" in names_in(d) for d in node.decorator_list):
                classes[node.name] = (f, [s.target.id for s in node.body
                                          if isinstance(s, ast.AnnAssign)])
    types: dict[str, set[str]] = {}
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.arg) and node.annotation is not None:
                types.setdefault(node.arg, set()).update(names_in(node.annotation))
            elif isinstance(node, ast.AnnAssign):
                types.setdefault(receiver_name(node.target),
                                 set()).update(names_in(node.annotation))
    reads = []

    def visit(node, cls, post_init):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.ClassDef):
                visit(child, child.name, False)
                continue
            inside = post_init or (isinstance(child, ast.FunctionDef)
                                   and child.name == "__post_init__")
            if isinstance(child, ast.Attribute) and isinstance(child.ctx, ast.Load):
                name = receiver_name(child.value)
                kinds = {cls} if name == "self" else types.get(name)
                reads.append((child.attr, kinds, cls, inside))
            elif (isinstance(child, ast.Call) and "asdict" in names_in(child.func)
                  and [receiver_name(a) for a in child.args] == ["self"] and cls in classes):
                reads.extend((field, {cls}, cls, inside) for field in classes[cls][1])
            visit(child, cls, inside)

    for tree in trees.values():
        visit(tree, None, False)
    return classes, reads


def unread_fields():
    classes, reads = field_reads()
    return [f"{f.name} {cls}.{field}" for cls, (f, fields) in classes.items()
            for field in fields
            if not any(attr == field and (kinds is None or cls in kinds)
                       and not (inside and owner == cls)
                       for attr, kinds, owner, inside in reads)]


def test_every_dataclass_field_is_read_in_the_program():
    assert unread_fields() == []
