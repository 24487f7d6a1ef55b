"""Smoke test of the benchmark at tiny sizes.

    python3 -m pytest perfbench/test_smoke.py

Every workload `run.py` knows (those BENCHMARK.json lists, and
`ontonotes-train`) runs untraced and traced and must report every metric
that BENCHMARK.json names, with its unit, and pass its own output checks.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
from run import WORKLOADS  # noqa: E402
with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
    SPEC = json.load(fh)


def run_bench(cwd: str, workload: str, trace: int) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "3",
         "--seconds", "0.5", "--trace", str(trace), "--scale", "0.05"],
        cwd=cwd, capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_reports_every_metric_with_its_unit(workload, trace):
    proc = run_bench(ROOT, workload, trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0, proc.stderr
    assert result["attempted"] >= 1
    expected = SPEC["per_layer" if trace else "end_to_end"]
    assert {name: m["unit"] for name, m in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in expected}
    for m in result["metrics"].values():
        assert isinstance(m["value"], (int, float))
    if not trace:
        assert all(m["value"] > 0 for m in result["metrics"].values())


def test_fails_without_the_program(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = run_bench(str(tmp_path), "figer-train", 0)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""


def test_missing_hook_is_reported_not_fatal(tmp_path):
    """A copy whose hook list names a function that no longer exists (as
    after a rename) still completes a traced run, names the hook as missing
    and reports lower coverage than the unmodified benchmark."""
    hooked, gone = "nfetc.training.gradients", "nfetc.training.gradients_renamed"
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(os.path.join(ROOT, "src"), tmp_path / "src",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    spans_py = tmp_path / "perfbench" / "spans.py"
    text = spans_py.read_text(encoding="utf-8")
    assert f'"{hooked}"' in text
    spans_py.write_text(text.replace(f'"{hooked}"', f'"{gone}"'), encoding="utf-8")

    def traced(cwd):
        proc = run_bench(cwd, "figer-train", 1)
        assert proc.returncode == 0, proc.stderr
        lines = proc.stdout.strip().splitlines()
        result = json.loads(lines[-1])
        assert result["correct"], proc.stderr
        return lines, result["metrics"]

    lines, renamed = traced(str(tmp_path))
    _, intact = traced(ROOT)
    assert any(line.startswith("trace coverage") and line.endswith(f"missing hooks: {gone}")
               for line in lines)
    assert renamed["autodiff.backward_s"]["value"] == 0.0
    assert renamed["trace.coverage"]["value"] < intact["trace.coverage"]["value"]
