"""Optimization orchestration: epochs of mini-batch Adam over a training
corpus, dev-set early stopping and the four named model/data variants.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass

import numpy as np

from . import checkpoint
from .autodiff import ParamSet
from .corpus import Corpus, build_filtered, windowed
from .embeddings import WordEmbeddings, check_vocabulary
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
    """Knobs of one training run, as the CLI's settings table (``cli.KEYS``)
    fills them from a profile. Each value is checked here, where it enters
    from the CLI or a checkpoint, and nowhere else. The loss's settings, the
    L2 weight and beta among them, are ``LossConfig``'s."""

    lr: float
    d_p: int
    d_s: int
    p_i: float
    p_o: float
    window: int
    batch: int
    epochs: int
    patience: int
    seed: int

    def __post_init__(self):
        if not (math.isfinite(self.lr) and self.lr > 0):
            raise ValueError(f"lr must be finite and positive, got {self.lr}")
        for name in ("d_p", "d_s", "window", "batch", "epochs", "patience"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1, got {getattr(self, name)}")
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")
        for name in ("p_i", "p_o"):
            v = getattr(self, name)
            if not 0.0 < v <= 1.0:
                raise ValueError(f"{name} must be in (0, 1], got {v}")


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


def select_variant(name: str, **settings) -> tuple[str, LossConfig]:
    """Map a variant name to its corpus choice and loss configuration;
    ``settings`` (``lam``, ``beta``, ``hier_at_inference``) override
    ``LossConfig``'s defaults.

    Every variant trains with the candidate-selecting loss. (f) trains on
    the single-path filtered corpus, where that loss is plain cross-entropy,
    and (r) on everything; the -hier models add the ancestor-mass adjustment.
    """
    if name not in VARIANTS:
        raise ValueError(f"unknown variant {name!r}; valid names: {', '.join(VARIANTS)}")
    choice = "raw" if name.endswith("(r)") else "filtered"
    return choice, LossConfig(hier="-hier" in name, **settings)


def training_corpus(corpus: Corpus, choice: str, forest: TypeForest) -> Corpus:
    """The corpus a ``select_variant`` choice ("raw" or "filtered") trains on."""
    return corpus if choice == "raw" else build_filtered(corpus, forest)


def train(train_corpus: Corpus, dev_corpus: Corpus, embeddings: WordEmbeddings,
          forest: TypeForest, hp: HyperParams, config: LossConfig,
          eval_corpus: Corpus | None = None, log=None) -> RunResult:
    """Mini-batch Adam descent with per-epoch dev evaluation.

    Keeps the parameter snapshot of the best dev strict accuracy seen so far
    and stops after ``hp.patience`` epochs without strict improvement. The
    whole run is a deterministic function of inputs and ``hp.seed``.

    The model holds no word vector: it looks up only the words its windowed
    corpora contain, in a view of the embeddings' matrix
    (``embeddings.subset``), and each batch and dev pass reads the rows it
    gathers, from the parse cache when the matrix is left there. Every
    vector of the matrix is checked against the float32 range up front; a
    row read later that is larger than the load found any is an error.
    """
    if len(train_corpus) == 0 or len(dev_corpus) == 0:
        raise ValueError("training and dev corpora must be nonempty")
    limit = np.finfo(TRAIN_DTYPE).max   # the LSTMs cast weights and word vectors to it
    if not embeddings.magnitude <= limit:
        raise TrainingDiverged(f"word vectors outside the {limit.dtype} range")
    train_w = windowed(train_corpus, hp.window)
    dev_w = windowed(dev_corpus, hp.window)
    eval_w = windowed(eval_corpus, hp.window) if eval_corpus is not None else []
    words = set().union(*(t.tokens for part in (train_w, dev_w, eval_w) for t in part))
    rng = make_rng(hp.seed)
    model = NfetcModel(hp, embeddings.subset(words), forest, rng)
    adam = AdamState(model.params)

    epoch_log: list[EpochStats] = []
    best_strict = -1.0
    best_epoch = 0
    best_values = None   # epoch 1 sets it: its strict accuracy is at least 0
    stale = 0
    n = len(train_w)
    for epoch in range(1, hp.epochs + 1):
        order = rng.permutation(n)
        loss_total = 0.0
        for lo in range(0, n, hp.batch):
            where = f"at epoch {epoch}, batch starting at mention {lo} (lr={hp.lr}, seed={hp.seed})"
            for name, value in model.params.items():
                if not np.abs(value).max() <= limit:
                    raise TrainingDiverged(f"{name} outside the {limit.dtype} range {where}")
            chunk = [train_w[i] for i in order[lo:lo + hp.batch]]
            probs, _, backward = model.forward_bucket(chunk, train=True, rng=rng)
            nll, d_probs = mean_nll(probs, chunk, config, forest)
            l2, d_l2 = l2_penalty(model.params, config.lam)
            value = float(nll + l2)
            if not np.isfinite(value):
                raise TrainingDiverged(f"non-finite loss {where}")
            grads = gradients(backward, d_probs, d_l2)
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

    result = RunResult(epoch_log=epoch_log, best_epoch=best_epoch,
                       best_dev_strict=best_strict, best_values=best_values)
    if eval_corpus is not None:
        model.params.load_values(best_values)
        result.final = evaluate(model, eval_w, forest, config)
    return result


def gradients(backward, d_probs: np.ndarray, d_l2) -> dict[str, np.ndarray]:
    """Every parameter's gradient of a batch's loss: the network's, from the
    training forward's ``backward`` at the objective's gradient ``d_probs``,
    plus the L2 term's (name, gradient) pairs ``d_l2``, read after it."""
    grads = backward(d_probs)
    for name, grad in d_l2:
        grads[name] += grad
    return grads


# -- checkpoint semantics ------------------------------------------------------

def params_from_values(values: dict[str, np.ndarray]) -> ParamSet:
    """A ParamSet of a value snapshot, in its order. A word matrix among the
    values is skipped: the embeddings hold it."""
    return ParamSet((n, a) for n, a in values.items() if n != "word_emb")


def save_checkpoint(path: str, hp: HyperParams, config: LossConfig,
                    forest: TypeForest, embeddings: WordEmbeddings,
                    params: ParamSet) -> None:
    """Self-contained snapshot: hyperparameters, loss config, type forest,
    vocabulary, the frozen word matrix copied whole from ``embeddings`` (from
    its file, for one left there) as the first tensor, then every trained
    tensor."""
    meta = {
        "hyperparams": dataclasses.asdict(hp),
        "loss_config": dataclasses.asdict(config),
        "types": forest.types(),
        "vocab": embeddings.words,
    }
    checkpoint.save(path, meta, [("word_emb", False, embeddings.matrix)]
                    + [(name, True, value) for name, value in params.items()])


@dataclass
class Restored:
    model: NfetcModel
    hyperparams: HyperParams
    loss_config: LossConfig
    forest: TypeForest


# the JSON value types each annotated field type takes: an int is a float,
# but a bool is neither
_JSON_TYPES = {"int": (int,), "float": (int, float), "bool": (bool,), "str": (str,)}


def _settings(cls, meta: dict, key: str, dropped=()):
    """``cls`` built from ``meta[key]``, which must give each field exactly,
    each as a value of the field's type, once the keys ``dropped`` are
    left out."""
    given = meta[key]
    if not isinstance(given, dict):
        raise checkpoint.CheckpointError(f"{key}: expected an object")
    given = {k: v for k, v in given.items() if k not in dropped}
    fields = dataclasses.fields(cls)
    names = [f.name for f in fields]
    problems = [f"unknown key {k!r}" for k in sorted(set(given) - set(names))]
    problems += [f"missing key {k!r}" for k in names if k not in given]
    problems = problems or [f"{f.name} must be {f.type}, got {given[f.name]!r}" for f in fields
                            if type(given[f.name]) not in _JSON_TYPES[f.type]]
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


def _stored(path: str, meta: dict):
    """The settings and forest a checkpoint's meta holds, checked with its
    vocabulary against its tensor descriptors."""
    try:
        for key in ("hyperparams", "loss_config", "types", "vocab"):
            if key not in meta:
                raise checkpoint.CheckpointError(f"checkpoint meta lacks {key!r}")
        # older files also hold HyperParams' lam and beta (the loss reads
        # LossConfig's) and three switches that acted only in training
        hp = _settings(HyperParams, meta, "hyperparams", dropped=("lam", "beta", "dropout_mention"))
        config = _settings(LossConfig, meta, "loss_config", dropped=("select_on_adjusted", "mode"))
        types = meta["types"]
        if not isinstance(types, list) or not all(isinstance(t, str) for t in types):
            raise checkpoint.CheckpointError("types is not a list of strings")
        forest = TypeForest(types)
        shapes = {e["name"]: tuple(e["shape"]) for e in meta["params"]}
        if "word_emb" not in shapes:
            raise checkpoint.CheckpointError("checkpoint lacks the word embedding matrix")
        check_vocabulary(meta["vocab"], shapes["word_emb"])
        _check_tensors(meta["params"], hp, shapes["word_emb"][1], len(forest))
    except (TypeError, ValueError) as e:
        raise checkpoint.CheckpointError(f"{path}: {e}") from None
    return hp, config, forest


def load_checkpoint(path: str, wanted=None) -> Restored:
    """The model and run settings of a checkpoint. The tensors must have the
    shapes the stored hyperparameters give, and restoring draws no random
    numbers.

    The word matrix is read once, each value checked. Without ``wanted``
    every row is kept. With it, once the file's structure and the stored
    settings are checked, before any tensor is read, ``wanted(forest, hp)``
    returns the set of words the model will look up (those of an input it
    parses then, say). Then no row is kept: the matrix is left in the file,
    held open by the embeddings, a ``subset`` view of those words, which
    read the rows each step of the model gathers from there. The model
    predicts as it would with the whole matrix."""
    stored, needed = None, None

    def check(meta):
        nonlocal stored, needed
        stored = hp, _, forest = _stored(path, meta)
        if wanted is not None:
            needed = wanted(forest, hp)

    if wanted is None:
        meta, tensors = checkpoint.load(path, check)
        embeddings = WordEmbeddings(meta["vocab"], tensors["word_emb"])
    else:
        meta, tensors, matrix = checkpoint.open_frozen(path, check)
        embeddings = WordEmbeddings(meta["vocab"], matrix).subset(needed)
    hp, config, forest = stored
    model = NfetcModel(hp, embeddings, forest, params=params_from_values(tensors))
    return Restored(model=model, hyperparams=hp, loss_config=config, forest=forest)
