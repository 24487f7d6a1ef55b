"""Optimization orchestration: epochs of mini-batch Adam over a training
corpus, dev-set early stopping, the four named model/data variants, and the
multi-seed evaluation protocol.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass

import numpy as np

from . import checkpoint
from .autodiff import ParamSet, gradients
from .corpus import Corpus, build_filtered, windowed
from .embeddings import WordEmbeddings
from .evaluation import Metrics, evaluate
from .hierarchy import TypeForest
from .loss import LossConfig, l2_penalty, mean_nll
from .model import TRAIN_DTYPE, NfetcModel, param_shapes
from .optim import AdamState, adam_step, make_rng

VARIANTS = ("NFETC(f)", "NFETC-hier(f)", "NFETC(r)", "NFETC-hier(r)")


class TrainingDiverged(RuntimeError):
    """Raised when the loss or a gradient goes non-finite, or a weight leaves ``TRAIN_DTYPE``."""


@dataclass(frozen=True)
class HyperParams:
    """Knobs of one training run. Defaults follow the published FIGER
    setting; the OntoNotes profile lives in the CLI."""

    lr: float = 0.0002
    d_p: int = 85
    d_s: int = 180
    p_i: float = 0.7
    p_o: float = 0.9
    lam: float = 0.0
    beta: float = 0.4
    window: int = 10
    batch: int = 512
    epochs: int = 50
    patience: int = 5
    seed: int = 1
    dropout_mention: bool = True

    def __post_init__(self):
        if self.lr <= 0:
            raise ValueError(f"lr must be positive, got {self.lr}")
        for name in ("d_p", "d_s", "window", "batch", "epochs", "patience"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1, got {getattr(self, name)}")
        for name in ("p_i", "p_o"):
            v = getattr(self, name)
            if not 0.0 < v <= 1.0:
                raise ValueError(f"{name} must be in (0, 1], got {v}")
        if self.lam < 0 or self.beta < 0:
            raise ValueError("lam and beta must be >= 0")


@dataclass(frozen=True)
class EpochStats:
    epoch: int
    train_loss: float
    dev_strict: float
    dev_macro: float
    dev_micro: float

    def line(self) -> str:
        return (f"{self.epoch}, {self.train_loss:.6f}, {self.dev_strict:.4f}, "
                f"{self.dev_macro:.4f}, {self.dev_micro:.4f}\n")


@dataclass
class RunResult:
    epoch_log: list[EpochStats]
    best_epoch: int
    best_dev_strict: float
    best_values: dict[str, np.ndarray]
    final: Metrics | None = None


def select_variant(name: str, lam: float = 0.0, beta: float = 0.0,
                   hier_at_inference: bool = False,
                   select_on_adjusted: bool = True) -> tuple[str, LossConfig]:
    """Map a variant name to its corpus choice and loss configuration.

    (f) trains on the single-path filtered corpus with plain cross-entropy;
    (r) trains on everything with the candidate-selecting variant; the -hier
    models add the ancestor-mass adjustment.
    """
    if name not in VARIANTS:
        raise ValueError(f"unknown variant {name!r}; valid names: {', '.join(VARIANTS)}")
    config = LossConfig(
        lam=lam,
        beta=beta,
        mode="variant" if name.endswith("(r)") else "standard",
        hier="-hier" in name,
        hier_at_inference=hier_at_inference,
        select_on_adjusted=select_on_adjusted,
    )
    return ("raw" if name.endswith("(r)") else "filtered"), config


def training_corpus(corpus: Corpus, choice: str, forest: TypeForest) -> Corpus:
    if choice == "raw":
        return corpus
    if choice == "filtered":
        return build_filtered(corpus, forest)
    raise ValueError(f"unknown corpus choice {choice!r}")


def train(train_corpus: Corpus, dev_corpus: Corpus, embeddings: WordEmbeddings,
          forest: TypeForest, hp: HyperParams, config: LossConfig,
          eval_corpus: Corpus | None = None, log=None) -> RunResult:
    """Mini-batch Adam descent with per-epoch dev evaluation.

    Keeps the parameter snapshot of the best dev strict accuracy seen so far
    and stops after ``hp.patience`` epochs without strict improvement. The
    whole run is a deterministic function of inputs and ``hp.seed``.
    """
    if len(train_corpus) == 0 or len(dev_corpus) == 0:
        raise ValueError("training and dev corpora must be nonempty")
    train_w = list(windowed(train_corpus, hp.window))
    dev_w = windowed(dev_corpus, hp.window)
    rng = make_rng(hp.seed)
    model = NfetcModel(hp, embeddings, forest, rng)
    limit = np.finfo(TRAIN_DTYPE).max   # the LSTMs cast weights and word vectors to it
    if not max(embeddings.matrix.max(initial=0), -embeddings.matrix.min(initial=0)) <= limit:
        raise TrainingDiverged(f"word vectors outside the {limit.dtype} range")
    adam = AdamState(model.params)

    epoch_log: list[EpochStats] = []
    best_strict = -1.0
    best_epoch = 0
    best_values = model.params.copy_values()
    stale = 0
    n = len(train_w)
    for epoch in range(1, hp.epochs + 1):
        order = rng.permutation(n)
        loss_total = 0.0
        for lo in range(0, n, hp.batch):
            where = f"at epoch {epoch}, batch starting at mention {lo} (lr={hp.lr}, seed={hp.seed})"
            for name, t in model.params.items():
                if not np.abs(t.data).max() <= limit:
                    raise TrainingDiverged(f"{name} outside the {limit.dtype} range {where}")
            chunk = [train_w[i] for i in order[lo:lo + hp.batch]]
            probs = model.forward_bucket(chunk, train=True, rng=rng)[0]
            loss = mean_nll(probs, chunk, config, forest) + l2_penalty(model.params, config.lam)
            value = float(loss.data)
            if not np.isfinite(value):
                raise TrainingDiverged(f"non-finite loss {where}")
            grads = gradients(loss, model.params)
            for name, grad in grads.items():
                if not np.all(np.isfinite(grad)):
                    raise TrainingDiverged(f"non-finite gradient for {name} {where}")
            adam_step(model.params, grads, adam, hp.lr)
            loss_total += value * len(chunk)
        dev = evaluate(model, dev_w, forest, config)
        stats = EpochStats(epoch=epoch, train_loss=loss_total / n,
                           dev_strict=dev.strict, dev_macro=dev.macro_f1,
                           dev_micro=dev.micro_f1)
        epoch_log.append(stats)
        if log is not None:
            log.write(stats.line())
        if dev.strict > best_strict:
            best_strict = dev.strict
            best_epoch = epoch
            best_values = model.params.copy_values()
            stale = 0
        else:
            stale += 1
            if stale >= hp.patience:
                break

    model.params.load_values(best_values)
    result = RunResult(epoch_log=epoch_log, best_epoch=best_epoch,
                       best_dev_strict=best_strict, best_values=best_values)
    if eval_corpus is not None:
        result.final = evaluate(model, windowed(eval_corpus, hp.window), forest, config)
    return result


@dataclass
class MultiResult:
    """Aggregate of independent runs: mean and sample standard deviation of
    each final test metric."""

    runs: list[RunResult]
    mean: dict[str, float]
    std: dict[str, float]

    def as_text(self) -> str:
        # metrics are conventionally discussed as percentages
        def cell(key):
            return f"{100 * self.mean[key]:.1f}±{100 * self.std[key]:.1f}"
        return (f"strict={cell('strict')} macro={cell('macro_f1')} "
                f"micro={cell('micro_f1')}\n")


def run_multi(seeds: list[int], train_corpus: Corpus, dev_corpus: Corpus,
              embeddings: WordEmbeddings, forest: TypeForest, hp: HyperParams,
              config: LossConfig, eval_corpus: Corpus, log=None) -> MultiResult:
    """Independent training runs differing only in seed."""
    if not seeds:
        raise ValueError("need at least one seed")
    runs = []
    for s in seeds:
        runs.append(train(train_corpus, dev_corpus, embeddings, forest,
                          dataclasses.replace(hp, seed=s), config,
                          eval_corpus=eval_corpus, log=log))
    mean = {}
    std = {}
    for key in ("strict", "macro_f1", "micro_f1"):
        values = np.array([getattr(r.final, key) for r in runs])
        mean[key] = float(values.mean())
        std[key] = float(values.std(ddof=1)) if len(values) > 1 else 0.0
    return MultiResult(runs=runs, mean=mean, std=std)


# -- checkpoint semantics ------------------------------------------------------

def params_from_values(values: dict[str, np.ndarray]) -> ParamSet:
    """Rebuild a ParamSet from a value snapshot, preserving order. A word
    matrix among the values is skipped: the embeddings hold it."""
    params = ParamSet()
    for name, arr in values.items():
        if name != "word_emb":
            params.add(name, arr)
    return params


def save_checkpoint(path: str, hp: HyperParams, config: LossConfig,
                    forest: TypeForest, embeddings: WordEmbeddings,
                    params: ParamSet) -> None:
    """Self-contained snapshot: hyperparameters, loss config, type forest,
    vocabulary, the frozen word matrix written from ``embeddings`` as the
    first tensor, then every trained tensor."""
    meta = {
        "hyperparams": dataclasses.asdict(hp),
        "loss_config": dataclasses.asdict(config),
        "types": forest.types(),
        "vocab": embeddings.words,
    }
    checkpoint.save(path, meta, [("word_emb", False, embeddings.matrix)]
                    + [(name, True, t.data) for name, t in params.items()])


@dataclass
class Restored:
    model: NfetcModel
    hyperparams: HyperParams
    loss_config: LossConfig
    forest: TypeForest


def _settings(cls, meta: dict, key: str):
    """``cls`` built from ``meta[key]``, which must give each field exactly."""
    given = meta[key]
    if not isinstance(given, dict):
        raise checkpoint.CheckpointError(f"{key}: expected an object")
    fields = [f.name for f in dataclasses.fields(cls)]
    problems = [f"unknown key {k!r}" for k in sorted(set(given) - set(fields))]
    problems += [f"missing key {k!r}" for k in fields if k not in given]
    if problems:
        raise checkpoint.CheckpointError(f"{key}: {', '.join(problems)}")
    return cls(**given)


def _check_tensors(entries: list[dict], hp: HyperParams, d_w: int, k: int) -> None:
    """Raise ``CheckpointError`` unless the descriptors name exactly the
    tensors of ``param_shapes`` for the stored sizes, word width ``d_w`` and
    ``k`` types, and flag each trainable except the frozen ``word_emb``."""
    want = param_shapes(d_w, hp.d_p, hp.d_s, hp.window, k)
    got = {e["name"]: tuple(e["shape"]) for e in entries if e["name"] != "word_emb"}
    problems = ([f"lacks tensor {n!r}" for n in want if n not in got]
                + [f"has unexpected tensor {n!r}" for n in got if n not in want])
    problems = problems or [f"tensor {n!r} has shape {got[n]}, expected {want[n]}"
                            for n in want if got[n] != want[n]]
    problems += [f"marks tensor {e['name']!r} {'trainable' if e['trainable'] else 'frozen'}"
                 for e in entries if e["trainable"] == (e["name"] == "word_emb")]
    if problems:
        raise checkpoint.CheckpointError(f"checkpoint {', '.join(problems)}")


def load_checkpoint(path: str) -> Restored:
    """The model and run settings of a checkpoint. The tensors must have the
    shapes the stored hyperparameters give, and restoring draws no random
    numbers."""
    meta, tensors = checkpoint.load(path)
    try:
        for key in ("hyperparams", "loss_config", "types", "vocab"):
            if key not in meta:
                raise checkpoint.CheckpointError(f"checkpoint meta lacks {key!r}")
        hp = _settings(HyperParams, meta, "hyperparams")
        config = _settings(LossConfig, meta, "loss_config")
        forest = TypeForest(meta["types"])
        if "word_emb" not in tensors:
            raise checkpoint.CheckpointError("checkpoint lacks the word embedding matrix")
        embeddings = WordEmbeddings(meta["vocab"], tensors["word_emb"])
        _check_tensors(meta["params"], hp, embeddings.dim, len(forest))
        params = params_from_values(tensors)
    except (TypeError, ValueError) as e:
        raise checkpoint.CheckpointError(f"{path}: {e}") from None
    model = NfetcModel(hp, embeddings, forest, params=params)
    return Restored(model=model, hyperparams=hp, loss_config=config, forest=forest)
