"""One workload in one fresh process: input generation, or set-up plus timed
calls plus output checks, traced or not.

    python3 perfbench/measure.py gen     --workload W --seed N --dir D [--scale S]
    python3 perfbench/measure.py measure --workload W --dir D --seconds S
                                         --traced 0|1 --out RESULT.json [--scale S]

``run.py`` starts it; each invocation is its own process, so ``ru_maxrss``
read here is the workload's own peak and not the generator's.
"""

from __future__ import annotations

import argparse
import contextlib
import ctypes
import glob
import json
import os
import platform
import resource
import statistics
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

SETUP_MIN = 3         # set-ups per process at least, spread over the CPUs
SETUP_SHARE = 0.25    # ... and more until they have taken this share of --seconds
WARMUP_CALLS = 1      # the first timed call pays the process's heap growth; not counted
MIN_CALLS = 3         # calls per process at least: the warm-up, then one on each of two CPUs
CPUS = sorted(os.sched_getaffinity(0))
CHECK_SAMPLE = 32     # mentions checked batch-versus-alone
ROW_SUM_TOL = 1e-9
BATCH_TOL = 1e-12


class Checks:
    """Output checks, each one counted as an attempted operation."""

    def __init__(self):
        self.attempted = 0
        self.failures: list[str] = []

    def check(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failures.append(what)


def maxrss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def minflt() -> int:
    return resource.getrusage(resource.RUSAGE_SELF).ru_minflt


def blas_facts(np) -> tuple[str, int]:
    """BLAS library name from numpy's build config, and the thread count the
    loaded OpenBLAS reports (-1 when it cannot be asked)."""
    try:
        name = np.show_config(mode="dicts")["Build Dependencies"]["blas"]["name"]
    except (KeyError, TypeError):
        name = "unknown"
    threads = -1
    with open("/proc/self/maps", encoding="utf-8") as fh:
        libs = {line.split()[-1] for line in fh if "openblas" in line.lower()}
    for lib in sorted(libs):
        handle = ctypes.CDLL(lib)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                threads = int(fn())
                break
    return name, threads


def machine_facts(np) -> dict:
    with open("/proc/meminfo", encoding="utf-8") as fh:
        mem_kb = next(int(line.split()[1]) for line in fh if line.startswith("MemTotal:"))
    src_lines = 0
    for path in glob.glob(os.path.join(ROOT, "src", "**", "*.py"), recursive=True):
        with open(path, encoding="utf-8") as fh:
            src_lines += sum(1 for _ in fh)
    blas, threads = blas_facts(np)
    return {"nproc": len(os.sched_getaffinity(0)), "mem_total_mb": mem_kb // 1024,
            "python": platform.python_version(), "numpy": np.__version__,
            "blas": blas, "blas_threads": threads, "src_lines": src_lines}


def root_span(tracer):
    """The tracer's root-span context manager, or a no-op one untraced."""
    return tracer.root if tracer else (lambda name: contextlib.nullcontext())


class Timings:
    """Wall times of one repeated operation.

    Run ``i`` pins the calling thread (BLAS's own threads stay free) to CPU
    ``i`` mod n of the CPUs this process may use. On a shared host one CPU
    can run ~50% slower than another for minutes at a time, and an unpinned
    process stays on whichever CPU the scheduler picked, so its times come
    out bimodal across runs; alternating spreads the runs over every CPU,
    and the typical time is the median of all of them.
    """

    def __init__(self):
        self.seconds: list[float] = []
        self.cpus: list[int] = []

    @contextlib.contextmanager
    def run(self):
        cpu = CPUS[len(self.seconds) % len(CPUS)]
        os.sched_setaffinity(0, {cpu})
        t0 = time.perf_counter()
        try:
            yield
        finally:
            self.seconds.append(time.perf_counter() - t0)
            self.cpus.append(cpu)
            os.sched_setaffinity(0, CPUS)

    def typical(self, skip: int = 0) -> float:
        """Median time of the runs after the first ``skip``."""
        return statistics.median(self.seconds[skip:])

    def to_json(self, skip: int = 0) -> dict:
        return {"seconds": self.seconds, "cpus": self.cpus, "typical_s": self.typical(skip)}


def another_setup(setup: Timings, seconds: float) -> bool:
    return len(setup.seconds) < SETUP_MIN or sum(setup.seconds) < SETUP_SHARE * seconds


def another_call(calls: Timings, start: float, seconds: float) -> bool:
    """At least MIN_CALLS calls; then another only if it should end within
    the measuring window, judged by the median call so far."""
    if len(calls.seconds) < MIN_CALLS:
        return True
    elapsed = time.perf_counter() - start
    return elapsed + statistics.median(calls.seconds) <= seconds


# -- train workloads -------------------------------------------------------------

def setup_train(w, cfg, files):
    """The set-up calls `nfetc train` makes, under the names it binds."""
    from nfetc import cli
    forest = cli.TypeForest.from_file(files["types"])
    raw_train = cli.parse_corpus(files["train"], forest)
    test_all = cli.parse_corpus(files["test"], forest)
    embeddings = cli.WordEmbeddings.from_file(files["embeddings"])
    dev, _ = cli.split_dev(test_all, cfg["dev_fraction"], cfg["dev_seed"])
    choice, loss_cfg = cli.select_variant(w.variant, lam=cfg["lambda"], beta=cfg["beta"])
    corpus = cli.training_corpus(raw_train, choice, forest)
    return forest, corpus, dev, embeddings, loss_cfg


def epoch_text(result) -> str:
    return "".join(s.line() for s in result.epoch_log)


def check_model(checks: Checks, model, triples, forest, loss_cfg, tag: str):
    """Probability rows are finite distributions, and a batch gives the same
    rows as each mention alone. Returns the batched rows."""
    import numpy as np
    from nfetc.loss import inference_adjust

    probs = model.predict_probs(triples)
    rows = inference_adjust(probs, forest, loss_cfg)
    for name, r in (("raw", probs), ("adjusted", rows)):
        checks.check(bool(np.all(np.isfinite(r))), f"{tag}: non-finite {name} probabilities")
        checks.check(bool(np.all(np.abs(r.sum(axis=1) - 1.0) <= ROW_SUM_TOL)),
                     f"{tag}: {name} rows do not sum to 1")
    for i, t in enumerate(triples):
        alone = model.predict_probs([t])[0]
        checks.check(bool(np.max(np.abs(alone - probs[i])) <= BATCH_TOL),
                     f"{tag}: mention {i} batched differs from alone")
    return rows


def run_train(w, files, seconds, tracer, checks, workdir) -> dict:
    import numpy as np
    from nfetc import cli, training
    from nfetc.corpus import windowed
    from workloads import config

    span = root_span(tracer)
    cfg = config(w)
    hp = cli._hyperparams(cfg)   # the CLI's own cfg -> HyperParams mapping
    setup = Timings()
    while another_setup(setup, seconds):
        with span("setup"), setup.run():
            forest, corpus, dev, embeddings, loss_cfg = setup_train(w, cfg, files)

    calls, faults, reference = Timings(), [], None
    start = time.perf_counter()
    while another_call(calls, start, seconds):
        f0 = minflt()
        with span("train"), calls.run():
            result = training.train(corpus, dev, embeddings, forest, hp, loss_cfg)
        faults.append(minflt() - f0)
        checks.check(all(np.isfinite(s.train_loss) for s in result.epoch_log),
                     "non-finite epoch loss")
        if reference is None:
            reference = epoch_text(result)
        checks.check(epoch_text(result) == reference, "epoch log differs between calls")
    peak = maxrss_mb()
    if tracer:
        tracer.uninstall()

    # the trained model, restored through the public checkpoint path
    ckpt = os.path.join(workdir, "check.ckpt")
    training.save_checkpoint(ckpt, hp, loss_cfg, forest, embeddings,
                             training.params_from_values(result.best_values))
    restored = training.load_checkpoint(ckpt)
    triples = list(windowed(dev, hp.window))[:CHECK_SAMPLE]
    check_model(checks, restored.model, triples, forest, loss_cfg, "dev")
    return {"setup": setup.to_json(), "calls": calls.to_json(WARMUP_CALLS),
            "peak_rss_mb": peak, "mentions_per_call": len(corpus) * hp.epochs,
            "faults_per_mention": [f / (len(corpus) * hp.epochs) for f in faults],
            "epoch_log": reference}


# -- predict workload --------------------------------------------------------------

def predict_argv(files, input_key, output):
    return ["predict", "--set", f"checkpoint={files['checkpoint']}",
            "--set", f"input={files[input_key]}", "--set", f"output={output}"]


def check_predict_output(checks: Checks, files, text: str):
    """The full output against an independent recomputation for a sample of
    mentions: line count, predicted terminal and top-5 probabilities."""
    import numpy as np
    from nfetc import training
    from nfetc.corpus import parse_corpus, windowed

    restored = training.load_checkpoint(files["checkpoint"])
    forest = restored.forest
    corpus = windowed(parse_corpus(files["input"], forest, tag="input",
                                   allow_unlabeled=True), restored.hyperparams.window)
    lines = text.splitlines()
    checks.check(len(lines) == len(corpus), "predict output line count")
    step = max(1, len(corpus) // CHECK_SAMPLE)
    sample = list(range(0, len(corpus), step))[:CHECK_SAMPLE]
    rows = check_model(checks, restored.model, [corpus[i] for i in sample], forest,
                       restored.loss_config, "predict")
    for i, row in zip(sample, rows):
        fields = lines[i].split("\t") if i < len(lines) else []
        if len(fields) != 3:
            checks.check(False, f"predict line {i}: expected 3 fields")
            continue
        top = sorted(row, reverse=True)[:5]
        try:
            printed = [float(p.rsplit("=", 1)[1]) for p in fields[2].split(" ")]
        except (IndexError, ValueError):
            printed = []
        # printed with 6 decimals
        checks.check(fields[0] == forest.path_of(int(np.argmax(row)))
                     and len(printed) == len(top)
                     and all(abs(a - b) <= 1e-6 for a, b in zip(printed, top)),
                     f"predict line {i}: disagrees with the model")


def run_predict(w, files, seconds, tracer, checks, workdir) -> dict:
    from nfetc import cli

    span = root_span(tracer)
    out_one = os.path.join(workdir, "one.out")
    out_full = os.path.join(workdir, "predict.out")
    setup = Timings()
    while another_setup(setup, seconds):
        with span("setup"), setup.run():
            code = cli.main(predict_argv(files, "one", out_one))
        checks.check(code == 0, f"one-mention predict exited {code}")
    calls, faults, reference = Timings(), [], None
    with open(files["input"], encoding="utf-8") as fh:
        mentions = sum(1 for line in fh if line.strip())
    start = time.perf_counter()
    while another_call(calls, start, seconds):
        f0 = minflt()
        with span("predict"), calls.run():
            code = cli.main(predict_argv(files, "input", out_full))
        faults.append((minflt() - f0) / mentions)
        checks.check(code == 0, f"predict exited {code}")
        with open(out_full, encoding="utf-8") as fh:
            text = fh.read()
        if reference is None:
            reference = text
        checks.check(text == reference, "predict output differs between calls")
    peak = maxrss_mb()
    if tracer:
        tracer.uninstall()
    check_predict_output(checks, files, reference)
    return {"setup": setup.to_json(), "calls": calls.to_json(WARMUP_CALLS),
            "peak_rss_mb": peak, "mentions_per_call": mentions, "faults_per_mention": faults,
            "predict_output": reference}


# -- entry point -------------------------------------------------------------------

def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("mode", choices=("gen", "measure"))
    parser.add_argument("--workload", required=True)
    parser.add_argument("--dir", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=1.0)
    parser.add_argument("--traced", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out")
    parser.add_argument("--scale", type=float, default=1.0)
    args = parser.parse_args(argv)

    sys.path.insert(0, os.path.join(ROOT, "src"))
    sys.path.insert(0, HERE)
    import numpy as np
    import nfetc
    import workloads

    if not os.path.abspath(nfetc.__file__).startswith(os.path.join(ROOT, "src") + os.sep):
        print(f"nfetc imported from {nfetc.__file__}, not from this checkout",
              file=sys.stderr)
        return 2
    w = workloads.WORKLOADS[args.workload].scaled(args.scale)
    files_json = os.path.join(args.dir, "files.json")
    if args.mode == "gen":
        files = workloads.generate(w, args.seed, os.path.join(args.dir, "inputs"))
        with open(files_json, "w", encoding="utf-8") as fh:
            json.dump(files, fh)
        return 0

    with open(files_json, encoding="utf-8") as fh:
        files = json.load(fh)
    tracer = None
    if args.traced:
        from spans import Tracer
        tracer = Tracer()
        tracer.install()
    checks = Checks()
    facts = machine_facts(np)
    checks.check(0 < facts["blas_threads"] <= facts["nproc"],
                 f"BLAS threads {facts['blas_threads']} outside 1..nproc")
    run = run_train if w.kind == "train" else run_predict
    result = run(w, files, args.seconds, tracer, checks, args.dir)
    result.update(facts=facts, attempted=checks.attempted, failures=checks.failures)
    if tracer:
        from spans import layer_metrics
        result["layers"] = layer_metrics(tracer, w.kind, result["mentions_per_call"])
        result["trace"] = tracer.to_json()
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
