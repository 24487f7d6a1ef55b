"""NFETC benchmark: training and prediction throughput, set-up time and peak
memory, with an optional traced run for per-layer figures.

    python3 perfbench/run.py --workload figer-train --seed 1 --seconds 36 --trace 0

Run from the root of a checkout. Inputs are generated from ``--seed`` under
``.perfbench_work/<workload>/``; the measured work runs in a fresh child
process (`measure.py`) so its peak RSS is its own. The last line of standard
output is the result JSON; the line before it lists machine and code facts.
With ``--trace 1`` an untraced and a traced child each get half the time, the
per-layer metrics come from the traced one, and the two must agree on the
epoch log or the predict output byte for byte.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("figer-train", "ontonotes-train", "figer-predict")
GEN_ALLOWANCE_S = 60.0   # input generation and set-up, beyond the timed window


def deadline_s(seconds: float) -> float:
    """Every child is killed past this, counted from the start of the run:
    the timed window three times over (a traced run measures it twice, at
    least three calls each), plus generation and set-up."""
    return GEN_ALLOWANCE_S + 3 * seconds


class ChildFailed(RuntimeError):
    pass


def child(args: list[str], deadline: float) -> None:
    """Run measure.py to completion, or kill it at ``deadline`` (monotonic
    clock); its stdout goes to our stderr so the result line stays last on
    stdout."""
    env = {k: v for k, v in os.environ.items() if k != "NFETC_DATA_ROOT"}
    env["PYTHONHASHSEED"] = "0"   # traced and untraced children must agree exactly
    try:
        proc = subprocess.run([sys.executable, os.path.join(HERE, "measure.py"), *args],
                              cwd=ROOT, env=env, stdout=sys.stderr,
                              timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        raise ChildFailed(f"measure.py {args[0]} ran past the run's deadline") from None
    if proc.returncode != 0:
        raise ChildFailed(f"measure.py {args[0]} exited {proc.returncode}")


def measure(workload, workdir, seconds, traced, scale, deadline) -> dict:
    out = os.path.join(workdir, f"result_traced{traced}.json")
    child(["measure", "--workload", workload, "--dir", workdir, "--seconds", str(seconds),
           "--traced", str(traced), "--out", out, "--scale", str(scale)], deadline)
    with open(out, encoding="utf-8") as fh:
        return json.load(fh)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", type=float, default=1.0,
                        help="multiply every input size (the smoke test runs tiny)")
    args = parser.parse_args(argv)
    deadline = time.monotonic() + deadline_s(args.seconds)

    if not os.path.isfile(os.path.join(ROOT, "src", "nfetc", "__init__.py")):
        print(f"no nfetc package under {os.path.join(ROOT, 'src')}; "
              "run from the root of a checkout", file=sys.stderr)
        return 2
    workdir = os.path.join(ROOT, ".perfbench_work", args.workload)
    shutil.rmtree(workdir, ignore_errors=True)
    os.makedirs(workdir)

    try:
        child(["gen", "--workload", args.workload, "--dir", workdir,
               "--seed", str(args.seed), "--scale", str(args.scale)], deadline)
        seconds = args.seconds / 2 if args.trace else args.seconds
        plain = measure(args.workload, workdir, seconds, 0, args.scale, deadline)
        traced = (measure(args.workload, workdir, seconds, 1, args.scale, deadline)
                  if args.trace else None)
    except ChildFailed as e:
        print(f"error: {e}", file=sys.stderr)
        return 1

    attempted = plain["attempted"]
    failures = list(plain["failures"])
    if traced is None:
        metrics = {
            "mentions_per_s": plain["mentions_per_call"] / plain["calls"]["typical_s"],
            "setup_s": plain["setup"]["typical_s"],
            "peak_rss_mb": plain["peak_rss_mb"],
        }
        kind = "end_to_end"
    else:
        attempted += traced["attempted"] + 1
        failures += traced["failures"]
        key = "epoch_log" if "epoch_log" in plain else "predict_output"
        if plain[key] != traced[key]:
            failures.append(f"traced and untraced runs differ in {key}")
        metrics = dict(traced["layers"])
        metrics["training.minor_faults_per_mention"] = statistics.median(
            plain["faults_per_mention"])
        metrics["trace.overhead_pct"] = 100.0 * (
            traced["calls"]["typical_s"] / plain["calls"]["typical_s"] - 1.0)
        kind = "per_layer"
        missing = traced["trace"]["missing"]
        print(f"trace coverage {metrics['trace.coverage']:.3f} "
              f"({'within' if metrics['trace.coverage'] >= 0.9 else 'outside'} "
              f"the 10% rule); missing hooks: {', '.join(missing) or 'none'}")
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        units = {m["name"]: m["unit"] for m in json.load(fh)[kind]}
    for failure in failures:
        print(f"check failed: {failure}", file=sys.stderr)
    print("facts " + json.dumps(plain["facts"]))
    print(json.dumps({
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
