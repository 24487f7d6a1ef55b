"""Outside-in tracing of the nfetc layers.

The tracer replaces public functions with timing wrappers under the names
their callers bind (``nfetc.training.gradients`` is the name ``train`` calls,
so that is the one patched). Spans nest: each records its inclusive time and
its self time (inclusive time minus the time of the spans it encloses),
aggregated by the path of hooked names from the benchmark's root span down.

A hook whose target no longer exists is recorded as missing and skipped, so
a renamed function costs only the metrics built on it and lowers coverage.
"""

from __future__ import annotations

import importlib
import inspect
import os
import resource
import time
from contextlib import contextmanager

# (target as the caller binds it, what to record beyond time)
SPAN_HOOKS = [
    # set-up, as cmd_train does it
    ("nfetc.hierarchy.TypeForest.from_file", ()),
    ("nfetc.cli.parse_corpus", ("items",)),
    ("nfetc.embeddings.WordEmbeddings.from_file", ("items", "rss")),
    ("nfetc.cli.split_dev", ()),
    ("nfetc.cli.training_corpus", ()),
    # one training.train call
    ("nfetc.training.windowed", ()),
    ("nfetc.training.NfetcModel", ()),
    ("nfetc.training.AdamState", ()),
    ("nfetc.training.bucket_indices", ()),
    ("nfetc.model.NfetcModel.forward_bucket", ()),
    ("nfetc.training.mean_nll", ()),
    ("nfetc.training.l2_penalty", ()),
    ("nfetc.training.gradients", ()),
    ("nfetc.training.adam_step", ()),
    ("nfetc.training.evaluate", ()),
    ("nfetc.autodiff.ParamSet.copy_values", ("bytes",)),
    ("nfetc.autodiff.ParamSet.load_values", ()),
    # nfetc predict
    ("nfetc.cli.load_checkpoint", ()),
    ("nfetc.checkpoint.load", ("file", "rss")),
    ("nfetc.cli.windowed", ()),
    ("nfetc.model.NfetcModel.predict_probs", ()),
    ("nfetc.cli.inference_adjust", ()),
]
COUNT_HOOKS = ["nfetc.model.dropout_mask"]
TAPE_HOOK = "nfetc.autodiff.Tensor.__init__"


def _maxrss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _resolve(target: str):
    """(owner, attribute) for a dotted target, importing the longest module
    prefix; raises LookupError when any part is gone."""
    parts = target.split(".")
    for cut in range(len(parts) - 1, 0, -1):
        try:
            owner = importlib.import_module(".".join(parts[:cut]))
        except ImportError:
            continue
        for name in parts[cut:-1]:
            owner = getattr(owner, name, None)
            if owner is None:
                raise LookupError(target)
        if not hasattr(owner, parts[-1]):
            raise LookupError(target)
        return owner, parts[-1]
    raise LookupError(target)


class Stat:
    __slots__ = ("count", "self_s", "total_s", "items", "bytes", "file_bytes",
                 "rss_growth_mb")

    def __init__(self):
        self.count = 0
        self.self_s = 0.0
        self.total_s = 0.0
        self.items = 0
        self.bytes = 0
        self.file_bytes = 0
        self.rss_growth_mb = 0.0


class Tracer:
    """Span stack plus aggregates keyed by span path."""

    def __init__(self):
        self.stats: dict[tuple[str, ...], Stat] = {}
        self.counts: dict[tuple[str, ...], int] = {}
        self.missing: list[str] = []
        self._stack: list[list] = []  # [name, start, child seconds]
        self._undo: list[tuple[object, str, object]] = []

    def _path(self, name: str) -> tuple[str, ...]:
        return tuple(f[0] for f in self._stack) + (name,)

    def _stat(self, path) -> Stat:
        stat = self.stats.get(path)
        if stat is None:
            stat = self.stats[path] = Stat()
        return stat

    @contextmanager
    def root(self, name: str):
        """A benchmark-level span (one set-up or one timed call)."""
        frame = [name, time.perf_counter(), 0.0]
        self._stack.append(frame)
        try:
            yield
        finally:
            self._finish(frame)

    def _finish(self, frame) -> Stat:
        total = time.perf_counter() - frame[1]
        self._stack.pop()
        stat = self._stat(self._path(frame[0]))
        stat.count += 1
        stat.total_s += total
        stat.self_s += total - frame[2]
        if self._stack:
            self._stack[-1][2] += total
        return stat

    def _span(self, name: str, fn, extras):
        tracer = self

        def wrapper(*args, **kwargs):
            frame = [name, time.perf_counter(), 0.0]
            tracer._stack.append(frame)
            rss0 = _maxrss_mb() if "rss" in extras else 0.0
            try:
                result = fn(*args, **kwargs)
            finally:
                stat = tracer._finish(frame)
            if "rss" in extras:
                stat.rss_growth_mb = max(stat.rss_growth_mb, _maxrss_mb() - rss0)
            if "items" in extras:
                stat.items += len(result)
            if "bytes" in extras:
                stat.bytes += sum(a.nbytes for a in result.values())
            if "file" in extras:
                stat.file_bytes += os.path.getsize(args[0])
            return result

        return wrapper

    def _bump(self, name: str) -> None:
        """Count one event under the current root span."""
        key = tuple(f[0] for f in self._stack[:1]) + (name,)
        self.counts[key] = self.counts.get(key, 0) + 1

    def _counter(self, name: str, fn):
        def wrapper(*args, **kwargs):
            self._bump(name)
            return fn(*args, **kwargs)

        return wrapper

    def _tape_counter(self, name: str, init):
        tracer = self

        def __init__(self, *args, **kwargs):
            init(self, *args, **kwargs)
            if self.requires_grad:
                tracer._bump(name)

        return __init__

    def _patch(self, target: str, make):
        try:
            owner, attr = _resolve(target)
        except LookupError:
            self.missing.append(target)
            return
        raw = inspect.getattr_static(owner, attr)
        if isinstance(raw, classmethod):
            new = classmethod(make(raw.__func__))
        elif isinstance(raw, staticmethod):
            new = staticmethod(make(raw.__func__))
        else:
            new = make(raw)
        self._undo.append((owner, attr, raw))
        setattr(owner, attr, new)

    def install(self) -> None:
        for target, extras in SPAN_HOOKS:
            self._patch(target, lambda fn, t=target, e=extras: self._span(t, fn, e))
        for target in COUNT_HOOKS:
            self._patch(target, lambda fn, t=target: self._counter(t, fn))
        self._patch(TAPE_HOOK, lambda fn: self._tape_counter(TAPE_HOOK, fn))

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, raw = self._undo.pop()
            setattr(owner, attr, raw)

    # -- aggregation -----------------------------------------------------------

    def select(self, root: str, name: str, exclude: str | None = None) -> list[Stat]:
        """Stats of spans called ``name`` under root span ``root``, skipping
        any path that passes through ``exclude``."""
        return [s for p, s in self.stats.items()
                if p[0] == root and p[-1] == name and len(p) > 1
                and (exclude is None or exclude not in p)]

    def roots(self, root: str) -> Stat:
        return self.stats.get((root,), Stat())

    def count(self, root: str, name: str) -> int:
        return self.counts.get((root, name), 0)

    def hooked_self_s(self, root: str) -> float:
        return sum(s.self_s for p, s in self.stats.items() if p[0] == root and len(p) > 1)

    def to_json(self) -> dict:
        return {
            "missing": self.missing,
            "spans": [{"path": list(p), **{k: getattr(s, k) for k in Stat.__slots__}}
                      for p, s in self.stats.items()],
            "counts": [{"path": list(p), "count": c} for p, c in self.counts.items()],
        }


MIB = 1024.0 * 1024.0
EVAL = "nfetc.training.evaluate"
FORWARD = "nfetc.model.NfetcModel.forward_bucket"
PREDICT = "nfetc.model.NfetcModel.predict_probs"
EMBEDDINGS = "nfetc.embeddings.WordEmbeddings.from_file"
CHECKPOINT = "nfetc.checkpoint.load"


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(tracer: Tracer, kind: str, mentions_per_call: int) -> dict[str, float]:
    """Per-layer figures from one traced process. Times are seconds per timed
    call (per set-up for the set-up layers); counts are per batch or per
    mention as named. ``kind`` ("train" or "predict") is also the name of
    the root span of each timed call."""
    root = kind
    calls = tracer.roots(root).count
    setups = tracer.roots("setup").count

    def stats(name, under=root, exclude=None):
        return tracer.select(under, name, exclude)

    def total(found, attr="self_s"):
        return sum(getattr(s, attr) for s in found)

    forward = stats(FORWARD, exclude=EVAL)
    predicts = stats(PREDICT, exclude=EVAL)
    batches = total(stats("nfetc.training.adam_step"), "count") + total(predicts, "count")
    emb = stats(EMBEDDINGS, under="setup")
    parse = stats("nfetc.cli.parse_corpus", under="setup" if kind == "train" else root)
    parse_runs = setups if kind == "train" else calls
    ckpt = stats(CHECKPOINT)
    copies = stats("nfetc.autodiff.ParamSet.copy_values")
    all_emb = [s for p, s in tracer.stats.items() if p[-1] == EMBEDDINGS]
    all_ckpt = [s for p, s in tracer.stats.items() if p[-1] == CHECKPOINT]
    return {
        "model.forward_s": _ratio(total(forward), calls),
        "model.forward_calls_per_batch": _ratio(total(forward, "count"), batches),
        "autodiff.backward_s": _ratio(total(stats("nfetc.training.gradients")), calls),
        "autodiff.tape_nodes_per_mention": _ratio(tracer.count(root, TAPE_HOOK),
                                                  calls * mentions_per_call),
        "optim.adam_s": _ratio(total(stats("nfetc.training.adam_step")), calls),
        "optim.dropout_masks_per_batch": _ratio(
            tracer.count(root, "nfetc.model.dropout_mask"), batches),
        "loss.objective_s": _ratio(total(stats("nfetc.training.mean_nll"))
                                   + total(stats("nfetc.training.l2_penalty")), calls),
        "evaluation.dev_eval_s": _ratio(total(stats(EVAL), "total_s"), calls),
        "training.snapshot_s": _ratio(total(copies)
                                      + total(stats("nfetc.autodiff.ParamSet.load_values")),
                                      calls),
        "training.snapshot_mb": _ratio(total(copies, "bytes") / MIB, calls),
        "embeddings.load_s": _ratio(total(emb), setups),
        "embeddings.words_per_s": _ratio(total(emb, "items"), total(emb)),
        "embeddings.rss_growth_mb": max((s.rss_growth_mb for s in all_emb), default=0.0),
        "corpus.parse_s": _ratio(total(parse), parse_runs),
        "corpus.mentions_per_s": _ratio(total(parse, "items"), total(parse)),
        "checkpoint.load_s": _ratio(total(ckpt), calls),
        "checkpoint.mb_per_s": _ratio(total(ckpt, "file_bytes") / MIB, total(ckpt)),
        "checkpoint.rss_growth_mb": max((s.rss_growth_mb for s in all_ckpt), default=0.0),
        "model.predict_s": _ratio(total(predicts, "total_s"), calls),
        "cli.output_s": _ratio(tracer.roots(root).self_s, calls) if kind == "predict" else 0.0,
        "trace.coverage": _ratio(tracer.hooked_self_s(root), tracer.roots(root).total_s),
    }
