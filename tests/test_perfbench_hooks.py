"""Every target the benchmark's tracer hooks resolves in the program, so a
refactor that drops or renames a traced name fails here rather than quietly
lowering the benchmark's ``trace.coverage``. The hook list is read from
``perfbench/spans.py``, which this test does not change."""

import importlib.util
from pathlib import Path

SPANS = Path(__file__).resolve().parent.parent / "perfbench" / "spans.py"

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
