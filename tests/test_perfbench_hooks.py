"""Every target the benchmark's tracer hooks, and every program name the
benchmark calls directly, resolves in the program, so a refactor that drops
or renames one fails here rather than quietly lowering the benchmark's
``trace.coverage`` or failing its run. The hook list is read from
``perfbench/spans.py`` and the direct calls from ``perfbench/*.py``, which
this test does not change."""

import ast
import importlib
import importlib.util
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
SPANS = PERFBENCH / "spans.py"

# already gone from the program; its entry is for a change to the benchmark to drop
DEAD = {"nfetc.training.bucket_indices"}


def test_every_span_and_count_hook_resolves():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    targets = [target for target, _ in spans.SPAN_HOOKS] + list(spans.COUNT_HOOKS)
    missing = []
    for target in targets:
        try:
            spans._resolve(target)
        except LookupError:
            missing.append(target)
    assert set(missing) == DEAD and len(missing) == len(DEAD)


def direct_uses(path: Path) -> set[str]:
    """The dotted program name of each ``from nfetc... import X`` in ``path``
    and of each attribute chain read from a name so bound, as
    ``nfetc.cli.WordEmbeddings.from_file`` for ``cli.WordEmbeddings.from_file``."""
    tree = ast.parse(path.read_text())
    bound = {a.asname or a.name: f"{node.module}.{a.name}" for node in ast.walk(tree)
             if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "nfetc"
             for a in node.names}
    uses = set(bound.values())
    for node in ast.walk(tree):
        chain = []
        while isinstance(node, ast.Attribute):
            chain.insert(0, node.attr)
            node = node.value
        if chain and isinstance(node, ast.Name) and node.id in bound:
            uses.add(".".join([bound[node.id]] + chain))
    return uses


def resolve(target: str):
    """The object a dotted name names: its longest module prefix imported,
    then the rest read as attributes."""
    parts = target.split(".")
    for cut in range(len(parts), 0, -1):
        try:
            owner = importlib.import_module(".".join(parts[:cut]))
        except ImportError:
            continue
        for name in parts[cut:]:
            owner = getattr(owner, name)
        return owner
    raise ImportError(target)


def test_every_direct_call_of_the_benchmark_resolves():
    uses = set().union(*map(direct_uses, sorted(PERFBENCH.glob("*.py"))))
    # the collector sees the calls the benchmark's set-up and checks make
    assert {"nfetc.training.params_from_values", "nfetc.cli._hyperparams",
            "nfetc.cli.WordEmbeddings.from_file", "nfetc.corpus.windowed"} <= uses
    missing = []
    for target in sorted(uses):
        try:
            resolve(target)
        except (ImportError, AttributeError):
            missing.append(target)
    assert missing == []
