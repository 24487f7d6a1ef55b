"""Command-line pipeline driver: train, eval, predict, stats, export-types.

Configuration is a flat key=value model: a built-in per-dataset profile
supplies defaults, an optional config file overrides the profile, and
repeated ``--set key=value`` flags override everything.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import functools
import io
import itertools
import os
import stat
import sys
import tempfile
import zlib

import numpy as np

from .checkpoint import CheckpointError, replacing
from .corpus import (Corpus, CorpusError, parse_corpus, read_mentions, stats, split_dev,
                     window, windowed)
from .embeddings import EmbeddingError, WordEmbeddings
from .evaluation import Tally, pairs_for
from .hierarchy import ForestError, TypeForest, apply_refinement, read_refinement
from .loss import LossConfig, inference_adjust
from .model import PREDICT_CHUNK
from .textfile import content_lines
from .training import (HyperParams, TrainingDiverged, VARIANTS, load_checkpoint,
                       params_from_values, save_checkpoint, select_variant, train,
                       training_corpus)

DATA_ROOT_VAR = "NFETC_DATA_ROOT"

# Mentions per block of eval's and predict's second pass over their input:
# a block's mentions, rows and lines are all of the input held at once. On a
# 100k-word checkpoint (2-core host, in process), 1,024-mention blocks made
# `nfetc predict` peak at 99 and 101 MiB for 4,000 and 10,000 mentions, with
# ~24k minor faults per 4,000-mention call; holding the whole input peaked at
# 112 and 123 MiB with ~44k. 128-mention blocks in file order peaked lower
# (89 MiB in a prototype) but glibc returned and re-faulted the heap every
# chunk: ~140k faults per call, each call ~10% slower.
PREDICT_BLOCK = 8 * PREDICT_CHUNK

# The one settings table, in --help order: each config key's type, its
# FIGER and OntoNotes defaults, the HyperParams or LossConfig field it fills
# (None for a path, a key only the CLI reads, or the seed list) and its help
# text. bool values accept true/false, 1/0, yes/no, on/off.
KEYS: dict[str, tuple[type, object, object, str | None, str]] = {
    "lr": (float, 0.0002, 0.0002, "lr", "Adam learning rate"),
    "dp": (int, 85, 20, "d_p", "position embedding size"),
    "ds": (int, 180, 440, "d_s", "LSTM hidden size"),
    "pi": (float, 0.7, 0.5, "p_i", "dropout keep probability on LSTM inputs"),
    "po": (float, 0.9, 0.5, "p_o", "dropout keep probability on LSTM outputs"),
    "lambda": (float, 0.0, 0.0001, "lam", "L2 penalty weight"),
    "beta": (float, 0.4, 0.3, "beta", "ancestor-mass weight of the hierarchy adjustment"),
    "window": (int, 10, 10, "window", "context tokens kept either side of the mention"),
    "batch": (int, 512, 512, "batch", "mini-batch size"),
    "epochs": (int, 50, 50, "epochs", "maximum training epochs"),
    "patience": (int, 5, 5, "patience", "epochs without dev improvement before stopping"),
    "seed": (str, "1", "1", None, "run seed, or comma-separated seeds: one run each, aggregated"),
    "variant": (str, "NFETC-hier(r)", "NFETC-hier(r)", None, "one of " + ", ".join(VARIANTS)),
    "dev_fraction": (float, 0.1, 0.1, None, "share of the test corpus carved off as dev"),
    "dev_seed": (int, 2014, 2014, None, "dev-split seed, fixed across the run seeds"),
    "hier_inference": (bool, False, False, "hier_at_inference",
                       "apply the hierarchy adjustment before prediction"),
    "per_type": (bool, False, False, None, "eval: also print per-type strict accuracy"),
    "json": (bool, False, False, None, "stats/eval: also print the single-line JSON form"),
    "types": (str, "", "", None, "type forest file, one slash-path per line"),
    "refinement": (str, "", "", None, "optional hierarchy refinement file (old TAB new)"),
    "train": (str, "", "", None, "training corpus file"),
    "test": (str, "", "", None, "test corpus file (dev split is carved from it)"),
    "input": (str, "", "", None, "input corpus for predict/stats (eval falls back to test)"),
    "embeddings": (str, "", "", None, "word embedding text file"),
    "checkpoint": (str, "", "", None, "checkpoint path (output for train, input elsewhere)"),
    "log": (str, "", "", None, "per-epoch training log file (default: stdout)"),
    "report": (str, "", "", None, "metrics report output file"),
    "output": (str, "", "", None, "output file for predict/export-types (default: stdout)"),
}

PROFILES = {name: {key: row[column] for key, row in KEYS.items()}
            for column, name in ((1, "figer"), (2, "ontonotes"))}


class CliError(Exception):
    def __init__(self, code: int, message: str):
        super().__init__(message)
        self.code = code


def _coerce(key: str, value: str, where: str):
    if key not in KEYS:
        raise CliError(2, f"{where}: unknown config key {key!r} "
                          f"(known: {', '.join(KEYS)})")
    kind = KEYS[key][0]
    if kind is bool:
        low = value.strip().lower()
        if low in ("true", "1", "yes", "on"):
            return True
        if low in ("false", "0", "no", "off"):
            return False
        raise CliError(2, f"{where}: {key} expects a boolean, got {value!r}")
    try:
        return kind(value.strip()) if kind is not str else value.strip()
    except ValueError:
        raise CliError(2, f"{where}: {key} expects {kind.__name__}, "
                          f"got {value!r}") from None


def _read_config_file(path: str, cfg: dict) -> None:
    """Set each ``key=value`` line of ``path`` in ``cfg``; errors name the line."""
    if not os.path.exists(path):
        raise CliError(2, f"no such config file: {path}")
    for lineno, body in content_lines(path, lambda message: CliError(2, message)):
        if "=" not in body:
            raise CliError(2, f"{path}:{lineno}: expected key=value")
        key, value = body.split("=", 1)
        cfg[key.strip()] = _coerce(key.strip(), value.strip(), f"{path}:{lineno}")


def build_config(profile: str, config_path: str | None, sets: list[str]) -> dict:
    cfg = dict(PROFILES[profile])
    if config_path:
        _read_config_file(config_path, cfg)
    for item in sets:
        if "=" not in item:
            raise CliError(2, f"--set expects key=value, got {item!r}")
        key, value = item.split("=", 1)
        cfg[key.strip()] = _coerce(key.strip(), value, "--set")
    return cfg


def _resolve(path: str) -> str:
    """Relative paths may live under the data root environment variable."""
    root = os.environ.get(DATA_ROOT_VAR)
    if path and root and not os.path.isabs(path) and not os.path.exists(path):
        return os.path.join(root, path)
    return path


def _require_path(cfg: dict, key: str, command: str) -> str:
    if not cfg[key]:
        raise CliError(2, f"nfetc {command} requires the {key!r} config key "
                          f"(set it in the config file or via --set {key}=PATH)")
    path = _resolve(cfg[key])
    if not os.path.exists(path):
        raise CliError(2, f"no such file: {path}")
    return path


def _require_dirs(cfg: dict, keys, config: str | None) -> None:
    """Raise unless each output path ``keys`` name can be written: its
    directory exists, and it is no directory, no other output and no file
    that ``--config`` or an input key names (compared as resolved real paths)."""
    for key in keys:
        if (folder := os.path.dirname(cfg[key])) and not os.path.isdir(folder):
            raise CliError(2, f"no such directory: {folder} (for {key}={cfg[key]})")
    taken = {os.path.realpath(config): f"--config {config}"} if config else {}
    taken |= {os.path.realpath(_resolve(cfg[key])): f"{key}={cfg[key]}" for key in
              ("types", "refinement", "train", "test", "input", "embeddings", "checkpoint")
              if cfg[key] and key not in keys}
    for key in filter(cfg.get, keys):
        if os.path.isdir(cfg[key]):
            raise CliError(2, f"{key}={cfg[key]} is a directory")
        if (real := os.path.realpath(cfg[key])) in taken:
            raise CliError(2, f"{key}={cfg[key]} would overwrite {taken[real]}")
        taken[real] = f"{key}={cfg[key]}"


def _load_forest(cfg: dict, command: str):
    """(forest, None), or with a refinement configured (refined forest, the
    old-path -> new-path map that corpus labels are read through)."""
    forest = TypeForest.from_file(_require_path(cfg, "types", command))
    if not cfg["refinement"]:
        return forest, None
    path = _require_path(cfg, "refinement", command)
    return _of(path, apply_refinement, forest, read_refinement(path))


def _fields(cfg: dict, cls) -> dict:
    """The fields of ``cls`` that config keys fill, valued from ``cfg``."""
    names = {f.name for f in dataclasses.fields(cls)}
    return {field: cfg[key] for key, (*_, field, _) in KEYS.items() if field in names}


def _seeds(cfg: dict) -> list[int]:
    """The run seeds ``seed`` lists, one or more, comma-separated, none twice."""
    texts = [s.strip() for s in cfg["seed"].split(",")]
    if not all(map(str.isdecimal, texts)):
        raise CliError(2, f"seed expects comma-separated integers >= 0, got {cfg['seed']!r}")
    seeds = [int(s) for s in texts]
    for i, s in enumerate(seeds):
        if s in seeds[:i]:
            raise CliError(2, f"seed lists {s} more than once, got {cfg['seed']!r}")
    return seeds


def _hyperparams(cfg: dict) -> HyperParams:
    """The hyperparameters of the run at the first seed."""
    return HyperParams(**_fields(cfg, HyperParams), seed=_seeds(cfg)[0])


@contextlib.contextmanager
def _output(path: str, echo: bool = False):
    """``write(text)`` for a command's output: to ``path``, and to stdout
    when ``echo`` is set or there is no path. The file ``path`` names,
    through any symlinks, is written through ``replacing`` when it does not
    exist yet or is a regular file of one link that this user owns, so a
    command that fails or is cut leaves an earlier file whole; any other
    (``/dev/null``, a file with a second hard link, say) is written in
    place, as its links and owner would not survive a rename."""
    sinks = [sys.stdout] if echo or not path else []
    with contextlib.ExitStack() as stack:
        if path:
            target = os.path.realpath(path)
            try:
                st = os.stat(target)
                in_place = not (stat.S_ISREG(st.st_mode) and st.st_nlink == 1
                                and st.st_uid == os.geteuid())
            except FileNotFoundError:
                in_place = False
            sinks.append(stack.enter_context(
                (open if in_place else replacing)(target, "w", encoding="utf-8")))

        def write(text: str) -> None:
            for sink in sinks:
                sink.write(text)

        yield write


def _emit(text: str, path: str, echo: bool = False) -> None:
    """Write a command's text through ``_output``."""
    with _output(path, echo) as write:
        write(text)


def _of(path: str, step, *args):
    """``step(*args)`` on the corpus or refinement of ``path``, whose faults name it."""
    try:
        return step(*args)
    except (CorpusError, ForestError) as e:
        raise type(e)(f"{path}: {e}") from None


def cmd_train(cfg: dict) -> int:
    # the settings first, so a bad one is reported before any file is read
    choice, loss_cfg = select_variant(cfg["variant"], **_fields(cfg, LossConfig))
    hp, seeds = _hyperparams(cfg), _seeds(cfg)
    if not 0.0 < cfg["dev_fraction"] < 1.0:
        raise ValueError(f"dev fraction must be in (0, 1), got {cfg['dev_fraction']}")
    if cfg["dev_seed"] < 0:
        raise ValueError(f"dev_seed must be >= 0, got {cfg['dev_seed']}")
    forest, mapping = _load_forest(cfg, "train")
    train_path = _require_path(cfg, "train", "train")
    test_path = _require_path(cfg, "test", "train")
    emb_path = _require_path(cfg, "embeddings", "train")
    # every corpus fault is reported before the embeddings, the slow file, are read
    raw_train = parse_corpus(train_path, forest, mapping=mapping)
    if not raw_train:
        raise CorpusError(f"{train_path}: no mentions to train on")
    corpus = _of(train_path, training_corpus, raw_train, choice, forest)
    test_all = parse_corpus(test_path, forest, mapping=mapping)
    dev, held = _of(test_path, split_dev, test_all, cfg["dev_fraction"], cfg["dev_seed"])
    embeddings = WordEmbeddings.from_file(emb_path)
    with (open(cfg["log"], "w", encoding="utf-8") if cfg["log"]
          else contextlib.nullcontext(sys.stdout)) as log_stream:
        runs = [train(corpus, dev, embeddings, forest, dataclasses.replace(hp, seed=s),
                      loss_cfg, eval_corpus=held, log=log_stream) for s in seeds]
    best = max(range(len(seeds)), key=lambda i: runs[i].final.strict)
    result = runs[best]
    hp = dataclasses.replace(hp, seed=seeds[best])
    if len(seeds) == 1:
        lines = [f"best_epoch={result.best_epoch} "
                 f"dev_strict={result.best_dev_strict:.4f}\n", result.final.as_text()]
    else:
        def cell(key):   # mean and sample std over the runs, in percent
            values = np.array([getattr(run.final, key) for run in runs])
            return f"{100 * values.mean():.1f}±{100 * values.std(ddof=1):.1f}"
        lines = [f"strict={cell('strict')} macro={cell('macro_f1')} micro={cell('micro_f1')}\n"]
        lines += [f"seed={s} {run.final.as_text()}" for s, run in zip(seeds, runs)]
        if cfg["checkpoint"]:
            lines.append(f"checkpoint={cfg['checkpoint']} (seed {seeds[best]})\n")
    if cfg["checkpoint"]:
        save_checkpoint(cfg["checkpoint"], hp, loss_cfg, forest, embeddings,
                        params_from_values(result.best_values))
    _emit("".join(lines), cfg["report"], echo=True)
    return 0


class _Tap(io.FileIO):
    """Binary reads of descriptor ``fd``, which this leaves open, keeping the
    zlib.crc32 and size of the bytes read in ``seen``, and writing them to
    ``copy`` too when given."""

    def __init__(self, fd: int, copy=None):
        super().__init__(fd, "rb", closefd=False)
        self.copy, self.seen = copy, (0, 0)

    def readinto(self, buffer) -> int:
        n = super().readinto(buffer)
        if n:
            data = memoryview(buffer)[:n]
            self.seen = zlib.crc32(data, self.seen[0]), self.seen[1] + n
            if self.copy is not None:
                self.copy.write(data)
        return n

    def text(self):
        """The bytes as text, decoded as ``numbered_lines`` opens a file."""
        return io.TextIOWrapper(io.BufferedReader(self), encoding="utf-8",
                                errors="surrogateescape")


def _predict_blocks(cfg: dict, command: str, key: str, read, each, empty: str = ""):
    """Restore the checkpoint for the ``key`` input, then call ``each(restored,
    block, rows)`` on each block of up to ``PREDICT_BLOCK`` of its windowed
    mentions, in order, with the probability rows ``inference_adjust``
    leaves. ``read(path, forest, fh)`` yields the mentions of the input's
    text stream ``fh``.

    The input is read twice through one descriptor: first inside the load,
    before any tensor byte is read, to check every line and gather the
    words the model will look up, which the checkpoint keeps alone (an
    input without mentions raises ``empty`` when given); then block by
    block. A file renamed over the input meanwhile changes nothing. An input
    that cannot seek (a pipe) is copied to an anonymous temporary file in
    the first pass and read back from there. Bytes that differ in the second
    pass raise "<path>: changed while it was read", after the blocks read."""
    with contextlib.ExitStack() as stack:
        path = again = seen = None

        def wanted(forest, hp):
            nonlocal path, again, seen
            path = _require_path(cfg, key, command)
            again = stack.enter_context(open(path, "rb", buffering=0))
            copy = None if again.seekable() else stack.enter_context(tempfile.TemporaryFile())
            tap, words, count = _Tap(again.fileno(), copy), set(), 0
            with tap.text() as fh:
                for mention in read(path, forest, fh):
                    words.update(window(mention, hp.window).tokens)
                    count += 1
            if empty and not count:
                raise CorpusError(f"{path}: {empty}")
            again, seen = again if copy is None else copy, tap.seen
            return words

        restored = load_checkpoint(_require_path(cfg, "checkpoint", command), wanted)
        again.seek(0)
        tap = _Tap(again.fileno())
        changed = CorpusError(f"{path}: changed while it was read")
        with tap.text() as fh:
            mentions = read(path, restored.forest, fh)
            while True:
                try:   # the first pass parsed every line
                    block = list(itertools.islice(mentions, PREDICT_BLOCK))
                except CorpusError:
                    raise changed from None
                if not block:
                    break
                block = windowed(Corpus(block), restored.hyperparams.window)
                probs = restored.model.predict_probs(block)
                each(restored, block,
                     inference_adjust(probs, restored.forest, restored.loss_config))
        if tap.seen != seen:
            raise changed


def cmd_eval(cfg: dict) -> int:
    @functools.cache
    def mapping():
        if not cfg["refinement"]:
            return None
        if not cfg["types"]:
            raise CliError(2, "nfetc eval: refinement needs the 'types' config key, "
                              "the forest the corpus labels are written in")
        return _load_forest(cfg, "eval")[1]

    tally = Tally()

    def score(restored, block, probs):
        predicted = [int(i) for i in np.argmax(probs, axis=1)]
        tally.add(pairs_for(block, predicted, restored.forest), block)

    _predict_blocks(cfg, "eval", "input" if cfg["input"] else "test",
                    lambda path, forest, fh: read_mentions(path, forest, mapping=mapping(), fh=fh),
                    score, empty="no mentions to score")
    metrics = tally.metrics()
    out = metrics.as_text()
    if cfg["json"]:
        out += metrics.as_json() + "\n"
    if cfg["per_type"]:
        for tname, acc in tally.per_type().items():
            out += f"{tname}\t{acc:.4f}\n"
    _emit(out, cfg["report"], echo=True)
    return 0


def _ranked_lines(forest: TypeForest, probs: np.ndarray) -> str:
    """``predict`` output of probability rows: per row the terminal
    prediction, its path expansion and the top five ``path=prob`` pairs."""
    paths = [forest.path_of(i) for i in range(len(forest))]
    chains = [",".join(sorted(forest.expand_to_path(p), key=lambda q: (q.count("/"), q)))
              for p in paths]
    order = np.argsort(-probs, axis=1, kind="stable")[:, :5]
    top = np.take_along_axis(probs, order, axis=1).tolist()
    return "".join(f"{paths[ranked[0]]}\t{chains[ranked[0]]}\t"
                   + " ".join(f"{paths[i]}={p:.6f}" for i, p in zip(ranked, row)) + "\n"
                   for ranked, row in zip(order.tolist(), top))


def cmd_predict(cfg: dict) -> int:
    with _output(cfg["output"]) as write:
        _predict_blocks(cfg, "predict", "input",
                        lambda path, forest, fh: read_mentions(path, forest, allow_unlabeled=True,
                                                               fh=fh),
                        lambda restored, block, probs: write(_ranked_lines(restored.forest, probs)))
    return 0


def cmd_stats(cfg: dict) -> int:
    forest, mapping = _load_forest(cfg, "stats")
    path = _require_path(cfg, "input", "stats")
    report = _of(path, stats, parse_corpus(path, forest, mapping=mapping), forest)
    out = report.as_text()
    if cfg["json"]:
        out += report.as_json() + "\n"
    _emit(out, cfg["report"], echo=True)
    return 0


def cmd_export_types(cfg: dict) -> int:
    restored = load_checkpoint(_require_path(cfg, "checkpoint", "export-types"),
                               lambda forest, hp: set())   # no word vector is needed
    w = restored.model.params["cls_w"]
    forest = restored.forest
    lines = []
    for i in range(w.shape[0]):
        values = ",".join(repr(float(v)) for v in w[i])
        lines.append(f"{forest.path_of(i)},{values}\n")
    _emit("".join(lines), cfg["output"])
    return 0


# each command, its help and the config keys of the files it writes
COMMANDS = {
    "train": (cmd_train, "train a model variant and report test metrics",
              ("checkpoint", "log", "report")),
    "eval": (cmd_eval, "score a checkpoint on a labeled corpus", ("report",)),
    "predict": (cmd_predict, "emit type-path predictions for a corpus", ("output",)),
    "stats": (cmd_stats, "corpus statistics (types, mentions, single-path share)", ("report",)),
    "export-types": (cmd_export_types, "dump learned type embeddings as CSV", ("output",)),
}


def _key_table() -> str:
    lines = ["config keys (figer default | ontonotes default):"]
    def show(v):
        return str(v).lower() if isinstance(v, bool) else (str(v) if v != "" else "-")
    for key, (_, figer, ontonotes, _, help_text) in KEYS.items():
        lines.append(f"  {key:<16} {show(figer):>10} | {show(ontonotes):<10} {help_text}")
    lines.append(f"\nrelative paths are also tried under ${DATA_ROOT_VAR} when set")
    return "\n".join(lines)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="nfetc",
        description="fine-grained entity type classifier",
        epilog=_key_table(),
        formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (_, help_text, _) in COMMANDS.items():
        p = sub.add_parser(name, help=help_text, epilog=_key_table(),
                           formatter_class=argparse.RawDescriptionHelpFormatter)
        p.add_argument("--profile", choices=sorted(PROFILES),
                       default="figer", help="built-in hyperparameter profile")
        p.add_argument("--config", help="key=value config file")
        p.add_argument("--set", action="append", default=[], metavar="KEY=VALUE",
                       help="override one config key (repeatable)")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        cfg = build_config(args.profile, args.config, args.set)
        command, _, outputs = COMMANDS[args.command]
        _require_dirs(cfg, outputs, args.config)   # before any input is read
        return command(cfg)
    except CliError as e:
        print(f"error: {e}", file=sys.stderr)
        return e.code
    except MemoryError as e:   # a setting too large for this machine's memory
        print(f"error: out of memory{f': {e}' if str(e) else ''}", file=sys.stderr)
        return 1
    except (ForestError, CorpusError, EmbeddingError, CheckpointError,
            TrainingDiverged, ValueError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
