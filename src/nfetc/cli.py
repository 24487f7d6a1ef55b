"""Command-line pipeline driver: train, eval, predict, stats, export-types.

Configuration is a flat key=value model: a built-in per-dataset profile
supplies defaults, an optional config file overrides the profile, and
repeated ``--set key=value`` flags override everything.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import os
import sys

import numpy as np

from .checkpoint import CheckpointError
from .corpus import (Corpus, CorpusError, parse_corpus, relabel, stats,
                     split_dev, windowed)
from .embeddings import EmbeddingError, WordEmbeddings
from .evaluation import pairs_for, per_type_accuracy, predict_indices, score_pairs
from .hierarchy import ForestError, RefinementMap, TypeForest, apply_refinement
from .loss import inference_adjust
from .textfile import numbered_lines
from .training import (HyperParams, TrainingDiverged, VARIANTS, load_checkpoint,
                       params_from_values, run_multi, save_checkpoint,
                       select_variant, train, training_corpus)

DATA_ROOT_VAR = "NFETC_DATA_ROOT"

# key -> (type, help). bool values accept true/false, 1/0, yes/no, on/off.
KEYS: dict[str, tuple[type, str]] = {
    "lr": (float, "Adam learning rate"),
    "dp": (int, "position embedding size"),
    "ds": (int, "LSTM hidden size"),
    "pi": (float, "dropout keep probability on LSTM inputs"),
    "po": (float, "dropout keep probability on LSTM outputs"),
    "lambda": (float, "L2 penalty weight"),
    "beta": (float, "ancestor-mass weight of the hierarchy adjustment"),
    "window": (int, "context tokens kept either side of the mention"),
    "batch": (int, "mini-batch size"),
    "epochs": (int, "maximum training epochs"),
    "patience": (int, "epochs without dev improvement before stopping"),
    "seed": (int, "run seed"),
    "seeds": (str, "comma-separated seeds; one run per seed, aggregated"),
    "variant": (str, "one of " + ", ".join(VARIANTS)),
    "dev_fraction": (float, "share of the test corpus carved off as dev"),
    "dev_seed": (int, "dev-split seed, fixed across the seeds list"),
    "dropout_mention": (bool, "apply dropout to the mention LSTM too"),
    "hier_inference": (bool, "apply the hierarchy adjustment before prediction"),
    "select_adjusted": (bool, "variant loss selects on adjusted probabilities"),
    "per_type": (bool, "eval: also print per-type strict accuracy"),
    "json": (bool, "stats/eval: also print the single-line JSON form"),
    "types": (str, "type forest file, one slash-path per line"),
    "refinement": (str, "optional hierarchy refinement file (old TAB new)"),
    "train": (str, "training corpus file"),
    "test": (str, "test corpus file (dev split is carved from it)"),
    "input": (str, "input corpus for predict/stats (eval falls back to test)"),
    "embeddings": (str, "word embedding text file"),
    "checkpoint": (str, "checkpoint path (output for train, input elsewhere)"),
    "log": (str, "per-epoch training log file (default: stdout)"),
    "report": (str, "metrics report output file"),
    "output": (str, "output file for predict/export-types (default: stdout)"),
}

_SHARED = {
    "lr": 0.0002, "window": 10, "batch": 512, "epochs": 50, "patience": 5,
    "seed": 1, "seeds": "", "variant": "NFETC-hier(r)",
    "dev_fraction": 0.1, "dev_seed": 2014,
    "dropout_mention": True, "hier_inference": False, "select_adjusted": True,
    "per_type": False, "json": False,
    "types": "", "refinement": "", "train": "", "test": "", "input": "",
    "embeddings": "", "checkpoint": "", "log": "", "report": "", "output": "",
}

PROFILES = {
    "figer": {**_SHARED, "dp": 85, "ds": 180, "pi": 0.7, "po": 0.9,
              "lambda": 0.0, "beta": 0.4},
    "ontonotes": {**_SHARED, "dp": 20, "ds": 440, "pi": 0.5, "po": 0.5,
                  "lambda": 0.0001, "beta": 0.3},
}


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


def _read_config_file(path: str) -> list[tuple[str, str]]:
    if not os.path.exists(path):
        raise CliError(2, f"no such config file: {path}")
    pairs = []
    for lineno, line in numbered_lines(path, lambda message: CliError(2, message)):
        body = line.split("#", 1)[0].strip()
        if not body:
            continue
        if "=" not in body:
            raise CliError(2, f"{path}:{lineno}: expected key=value")
        key, value = body.split("=", 1)
        pairs.append((key.strip(), value.strip()))
    return pairs


def build_config(profile: str, config_path: str | None, sets: list[str]) -> dict:
    cfg = dict(PROFILES[profile])
    if config_path:
        for key, value in _read_config_file(config_path):
            cfg[key] = _coerce(key, value, config_path)
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


def _load_forest(cfg: dict, command: str):
    """Forest plus the label rewrite map when a refinement is configured."""
    forest = TypeForest.from_file(_require_path(cfg, "types", command))
    if not cfg["refinement"]:
        return forest, forest, None
    refinement = RefinementMap.from_file(_resolve(cfg["refinement"]))
    refined, full_map = apply_refinement(forest, refinement)
    return refined, forest, full_map


def _parse_with_refinement(path, parse_forest, final_forest, full_map) -> Corpus:
    corpus = parse_corpus(path, parse_forest)
    if full_map is not None:
        corpus = relabel(corpus, full_map, final_forest)
    return corpus


def _hyperparams(cfg: dict) -> HyperParams:
    return HyperParams(
        lr=cfg["lr"], d_p=cfg["dp"], d_s=cfg["ds"], p_i=cfg["pi"], p_o=cfg["po"],
        lam=cfg["lambda"], beta=cfg["beta"], window=cfg["window"],
        batch=cfg["batch"], epochs=cfg["epochs"], patience=cfg["patience"],
        seed=cfg["seed"], dropout_mention=cfg["dropout_mention"])


def _emit(text: str, path: str, echo: bool = False) -> None:
    """Write a command's text to ``path``, and to stdout when ``echo`` is
    set or there is no path."""
    if echo or not path:
        sys.stdout.write(text)
    if path:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)


def _parse_seeds(text: str) -> list[int]:
    try:
        return [int(s) for s in text.split(",") if s.strip() != ""]
    except ValueError:
        raise CliError(2, f"seeds expects comma-separated integers, got {text!r}") from None


def cmd_train(cfg: dict) -> int:
    forest, parse_forest, full_map = _load_forest(cfg, "train")
    train_path = _require_path(cfg, "train", "train")
    test_path = _require_path(cfg, "test", "train")
    emb_path = _require_path(cfg, "embeddings", "train")
    raw_train = _parse_with_refinement(train_path, parse_forest, forest, full_map)
    test_all = _parse_with_refinement(test_path, parse_forest, forest, full_map)
    embeddings = WordEmbeddings.from_file(emb_path)
    dev, held = split_dev(test_all, cfg["dev_fraction"], cfg["dev_seed"])
    choice, loss_cfg = select_variant(
        cfg["variant"], lam=cfg["lambda"], beta=cfg["beta"],
        hier_at_inference=cfg["hier_inference"],
        select_on_adjusted=cfg["select_adjusted"])
    corpus = training_corpus(raw_train, choice, forest)
    hp = _hyperparams(cfg)
    seeds = _parse_seeds(cfg["seeds"])
    with (open(cfg["log"], "w", encoding="utf-8") if cfg["log"]
          else contextlib.nullcontext(sys.stdout)) as log_stream:
        if len(seeds) > 1:
            multi = run_multi(seeds, corpus, dev, embeddings, forest, hp,
                              loss_cfg, eval_corpus=held, log=log_stream)
            best = max(range(len(seeds)), key=lambda i: multi.runs[i].final.strict)
            result = multi.runs[best]
            hp = dataclasses.replace(hp, seed=seeds[best])
            lines = [multi.as_text()]
            for s, run in zip(seeds, multi.runs):
                lines.append(f"seed={s} {run.final.as_text()}")
            if cfg["checkpoint"]:
                lines.append(f"checkpoint={cfg['checkpoint']} (seed {seeds[best]})\n")
        else:
            if seeds:
                hp = dataclasses.replace(hp, seed=seeds[0])
            result = train(corpus, dev, embeddings, forest, hp, loss_cfg,
                           eval_corpus=held, log=log_stream)
            lines = [f"best_epoch={result.best_epoch} "
                     f"dev_strict={result.best_dev_strict:.4f}\n",
                     result.final.as_text()]
    if cfg["checkpoint"]:
        save_checkpoint(cfg["checkpoint"], hp, loss_cfg, forest, embeddings,
                        params_from_values(result.best_values))
    _emit("".join(lines), cfg["report"], echo=True)
    return 0


def cmd_eval(cfg: dict) -> int:
    restored = load_checkpoint(_require_path(cfg, "checkpoint", "eval"))
    key = "input" if cfg["input"] else "test"
    path = _require_path(cfg, key, "eval")
    full_map = None
    parse_forest = restored.forest
    if cfg["refinement"]:
        if not cfg["types"]:
            raise CliError(2, "nfetc eval: refinement needs the 'types' config key, "
                              "the forest the corpus labels are written in")
        _, parse_forest, full_map = _load_forest(cfg, "eval")
    corpus = _parse_with_refinement(path, parse_forest, restored.forest, full_map)
    corpus = windowed(corpus, restored.hyperparams.window)
    predictions = predict_indices(restored.model, corpus, restored.forest,
                                  restored.loss_config)
    metrics = score_pairs(pairs_for(corpus, predictions, restored.forest))
    out = metrics.as_text()
    if cfg["json"]:
        out += metrics.as_json() + "\n"
    if cfg["per_type"]:
        for tname, acc in per_type_accuracy(corpus, predictions,
                                            restored.forest).items():
            out += f"{tname}\t{acc:.4f}\n"
    _emit(out, cfg["report"], echo=True)
    return 0


def cmd_predict(cfg: dict) -> int:
    restored = load_checkpoint(_require_path(cfg, "checkpoint", "predict"))
    path = _require_path(cfg, "input", "predict")
    corpus = parse_corpus(path, restored.forest, tag="input", allow_unlabeled=True)
    corpus = windowed(corpus, restored.hyperparams.window)
    forest = restored.forest
    probs = restored.model.predict_probs(list(corpus))
    probs = inference_adjust(probs, forest, restored.loss_config)
    lines = []
    for row in probs:
        order = np.argsort(-row, kind="stable")
        terminal = forest.path_of(int(order[0]))
        expanded = sorted(forest.expand_to_path(terminal),
                          key=lambda p: (p.count("/"), p))
        top = " ".join(f"{forest.path_of(int(i))}={row[int(i)]:.6f}"
                       for i in order[:5])
        lines.append(f"{terminal}\t{','.join(expanded)}\t{top}\n")
    _emit("".join(lines), cfg["output"])
    return 0


def cmd_stats(cfg: dict) -> int:
    forest, parse_forest, full_map = _load_forest(cfg, "stats")
    path = _require_path(cfg, "input", "stats")
    corpus = _parse_with_refinement(path, parse_forest, forest, full_map)
    report = stats(corpus, forest)
    out = report.as_text()
    if cfg["json"]:
        out += report.as_json() + "\n"
    _emit(out, cfg["report"], echo=True)
    return 0


def cmd_export_types(cfg: dict) -> int:
    restored = load_checkpoint(_require_path(cfg, "checkpoint", "export-types"))
    w = restored.model.params["cls_w"].data
    forest = restored.forest
    lines = []
    for i in range(w.shape[0]):
        values = ",".join(repr(float(v)) for v in w[i])
        lines.append(f"{forest.path_of(i)},{values}\n")
    _emit("".join(lines), cfg["output"])
    return 0


COMMANDS = {
    "train": (cmd_train, "train a model variant and report test metrics"),
    "eval": (cmd_eval, "score a checkpoint on a labeled corpus"),
    "predict": (cmd_predict, "emit type-path predictions for a corpus"),
    "stats": (cmd_stats, "corpus statistics (types, mentions, single-path share)"),
    "export-types": (cmd_export_types, "dump learned type embeddings as CSV"),
}


def _key_table() -> str:
    lines = ["config keys (figer default | ontonotes default):"]
    for key, (_, help_text) in KEYS.items():
        fig = PROFILES["figer"][key]
        onto = PROFILES["ontonotes"][key]
        def show(v):
            return str(v).lower() if isinstance(v, bool) else (str(v) if v != "" else "-")
        lines.append(f"  {key:<16} {show(fig):>10} | {show(onto):<10} {help_text}")
    lines.append(f"\nrelative paths are also tried under ${DATA_ROOT_VAR} when set")
    return "\n".join(lines)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="nfetc",
        description="fine-grained entity type classifier",
        epilog=_key_table(),
        formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (_, help_text) in COMMANDS.items():
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
        return COMMANDS[args.command][0](cfg)
    except CliError as e:
        print(f"error: {e}", file=sys.stderr)
        return e.code
    except (ForestError, CorpusError, EmbeddingError, CheckpointError,
            TrainingDiverged, ValueError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
