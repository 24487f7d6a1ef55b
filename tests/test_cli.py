import contextlib
import dataclasses
import gc
import hashlib
import io
import json
import mmap
import os
import re
import shlex
import stat
import statistics
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from ckptedit import rewrite_meta, rewrite_meta_length, rewrite_params
from nfetc import checkpoint as checkpoint_module
from nfetc import cli as cli_module
from nfetc.checkpoint import MAGIC, READ_BYTES, CheckpointError, header, save
from nfetc.checkpoint import load as checkpoint_load
from nfetc.cli import main
from nfetc.corpus import parse_corpus, windowed
from nfetc.embeddings import CACHE_SUFFIX, WordEmbeddings
from nfetc.evaluation import Metrics, pairs_for
from nfetc.hierarchy import TypeForest, apply_refinement, read_refinement
from nfetc.loss import LossConfig, inference_adjust
from nfetc.model import PREDICT_CHUNK, NfetcModel
from nfetc.optim import make_rng
from nfetc.training import HyperParams, load_checkpoint, save_checkpoint
from hparams import figer_hp

MINI = Path(__file__).parent / "fixtures" / "mini"
SYNTH = Path(__file__).parent / "fixtures" / "synth"
README = Path(__file__).parent.parent / "README.md"

VOCAB = ["the", "a", "big", "red", "cat", "dog", "mat",
         "sat", "ran", "on", "lay", "went"]
CLASS_LINES = {"cat": "/a /a/b", "dog": "/c", "mat": "/a"}
TRAIN_TEMPLATES = [("the", "sat"), ("big", "ran"), ("a", "on"), ("red", "lay")]
TEST_TEMPLATES = [("the", "went"), ("a", "went")]

FAST = ["--set", "lr=0.01", "--set", "dp=3", "--set", "ds=4",
        "--set", "pi=1.0", "--set", "po=1.0", "--set", "window=2",
        "--set", "batch=6", "--set", "epochs=2", "--set", "patience=2",
        "--set", "seed=3", "--set", "variant=NFETC(f)"]


def corpus_text(templates):
    lines = []
    for word, labels in CLASS_LINES.items():
        for left, right in templates:
            lines.append(f"1 2\t{left} {word} {right}\t{labels}\n")
    return "".join(lines)


def write_world(root: Path) -> dict:
    root.mkdir(exist_ok=True)
    rng = make_rng(31)
    vectors = rng.uniform(-0.5, 0.5, size=(len(VOCAB), 4))
    emb_lines = [f"{w} {' '.join(repr(float(v)) for v in row)}\n"
                 for w, row in zip(VOCAB, vectors)]
    paths = {
        "types": root / "types.txt",
        "train": root / "train.tsv",
        "test": root / "test.tsv",
        "embeddings": root / "emb.txt",
    }
    paths["types"].write_text("/a\n/a/b\n/c\n")
    paths["train"].write_text(corpus_text(TRAIN_TEMPLATES))
    paths["test"].write_text(corpus_text(TEST_TEMPLATES))
    paths["embeddings"].write_text("".join(emb_lines))
    return {k: str(p) for k, p in paths.items()}


def run_cli(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


def run_cli_recording(argv, name):
    """Run the CLI while keeping each value that ``nfetc.cli.<name>`` (such as
    ``train``) returns, so a test can compare the files it wrote."""
    real, returned = getattr(cli_module, name), []

    def recording(*args, **kwargs):
        returned.append(real(*args, **kwargs))
        return returned[-1]

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(cli_module, name, recording)
        code, out, err = run_cli(argv)
    return code, out, err, returned


def assert_checkpoint_holds(path, values):
    """The checkpoint's trained tensors are exactly ``values``, in order."""
    restored = dict(load_checkpoint(path).model.params.items())
    assert list(restored) == list(values)
    for name, arr in values.items():
        assert np.array_equal(restored[name], arr), name


@pytest.fixture(scope="module")
def world(tmp_path_factory):
    return write_world(tmp_path_factory.mktemp("world"))


@pytest.fixture(scope="module")
def trained(tmp_path_factory, world):
    """One CLI training run shared by the eval/predict/export tests."""
    root = tmp_path_factory.mktemp("run")
    ckpt, log, report = root / "model.ckpt", root / "log.txt", root / "report.txt"
    argv = ["train"] + FAST + [
        "--set", f"types={world['types']}", "--set", f"train={world['train']}",
        "--set", f"test={world['test']}", "--set", f"embeddings={world['embeddings']}",
        "--set", f"checkpoint={ckpt}", "--set", f"log={log}",
        "--set", f"report={report}"]
    code, out, err, results = run_cli_recording(argv, "train")
    assert code == 0, err
    assert len(results) == 1
    return {"checkpoint": str(ckpt), "log": str(log), "report": str(report),
            "stdout": out, "result": results[0], **world}


# -- argument and config handling -------------------------------------------------


def test_help_lists_config_keys(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["train", "--help"])
    assert exc.value.code == 0
    out = capsys.readouterr().out
    assert "config keys" in out
    assert "dev_fraction" in out and "ontonotes" in out


# every config key as ``--help`` shows it: figer default, ontonotes default, help
HELP_ROWS = [
    ("lr", "0.0002", "0.0002", "Adam learning rate"),
    ("dp", "85", "20", "position embedding size"),
    ("ds", "180", "440", "LSTM hidden size"),
    ("pi", "0.7", "0.5", "dropout keep probability on LSTM inputs"),
    ("po", "0.9", "0.5", "dropout keep probability on LSTM outputs"),
    ("lambda", "0.0", "0.0001", "L2 penalty weight"),
    ("beta", "0.4", "0.3", "ancestor-mass weight of the hierarchy adjustment"),
    ("window", "10", "10", "context tokens kept either side of the mention"),
    ("batch", "512", "512", "mini-batch size"),
    ("epochs", "50", "50", "maximum training epochs"),
    ("patience", "5", "5", "epochs without dev improvement before stopping"),
    ("seed", "1", "1", "run seed, or comma-separated seeds: one run each, aggregated"),
    ("variant", "NFETC-hier(r)", "NFETC-hier(r)",
     "one of NFETC(f), NFETC-hier(f), NFETC(r), NFETC-hier(r)"),
    ("dev_fraction", "0.1", "0.1", "share of the test corpus carved off as dev"),
    ("dev_seed", "2014", "2014", "dev-split seed, fixed across the run seeds"),
    ("hier_inference", "false", "false", "apply the hierarchy adjustment before prediction"),
    ("per_type", "false", "false", "eval: also print per-type strict accuracy"),
    ("json", "false", "false", "stats/eval: also print the single-line JSON form"),
    ("types", "-", "-", "type forest file, one slash-path per line"),
    ("refinement", "-", "-", "optional hierarchy refinement file (old TAB new)"),
    ("train", "-", "-", "training corpus file"),
    ("test", "-", "-", "test corpus file (dev split is carved from it)"),
    ("input", "-", "-", "input corpus for predict/stats (eval falls back to test)"),
    ("embeddings", "-", "-", "word embedding text file"),
    ("checkpoint", "-", "-", "checkpoint path (output for train, input elsewhere)"),
    ("log", "-", "-", "per-epoch training log file (default: stdout)"),
    ("report", "-", "-", "metrics report output file"),
    ("output", "-", "-", "output file for predict/export-types (default: stdout)"),
]


def test_help_shows_each_keys_defaults_and_help(capsys):
    with pytest.raises(SystemExit):
        main(["eval", "--help"])
    out = capsys.readouterr().out
    table = out.split("config keys (figer default | ontonotes default):\n", 1)[1]
    rows = [" ".join(line.split()) for line in table.split("\n\n", 1)[0].splitlines()]
    assert rows == [f"{key} {figer} | {onto} {text}" for key, figer, onto, text in HELP_ROWS]



def test_each_setting_row_fills_one_field():
    run = {f.name: f.type for f in dataclasses.fields(HyperParams)}
    loss = {f.name: f.type for f in dataclasses.fields(LossConfig)}
    assert not set(run) & set(loss)   # a field name says which settings it is in
    filled = [field for *_, field, _ in cli_module.KEYS.values() if field is not None]
    assert len(filled) == len(set(filled))   # no field is filled by two rows
    # every HyperParams field but seed has a row (the seed row is a list of
    # seeds, the first of which ``_hyperparams`` fills it with); the other
    # rows fill LossConfig fields, all but the one the variant name sets
    assert set(run) - set(filled) == {"seed"} and cli_module.KEYS["seed"][3] is None
    assert set(filled) - set(run) == set(loss) - {"hier"}
    # a row's defaults are of its type, and so is its field
    for key, (kind, figer, ontonotes, field, _) in cli_module.KEYS.items():
        assert type(figer) is kind and type(ontonotes) is kind, key
        assert field is None or {**run, **loss}[field] == kind.__name__, key


def test_profiles_fill_the_run_and_loss_settings():
    onto = cli_module.PROFILES["ontonotes"]
    assert cli_module._hyperparams(onto) == HyperParams(
        lr=0.0002, d_p=20, d_s=440, p_i=0.5, p_o=0.5, window=10, batch=512, epochs=50,
        patience=5, seed=1)
    _, config = cli_module.select_variant(onto["variant"], **cli_module._fields(onto, LossConfig))
    assert config == LossConfig(lam=0.0001, beta=0.3, hier=True)

def test_missing_types_key_is_exit_2():
    code, _, err = run_cli(["stats"])
    assert code == 2
    assert "'types'" in err


def test_missing_file_names_the_path(world, tmp_path):
    gone = tmp_path / "nowhere.tsv"
    code, _, err = run_cli(["stats", "--set", f"types={world['types']}",
                            "--set", f"input={gone}"])
    assert code == 2
    assert str(gone) in err


def test_bad_test_corpus_error_names_the_file(world, tmp_path):
    bad = tmp_path / "bad_test.tsv"
    bad.write_text("1 2\tthe cat sat\t/nope\n")
    code, _, err = run_cli(["train"] + FAST + [
        "--set", f"types={world['types']}", "--set", f"train={world['train']}",
        "--set", f"test={bad}", "--set", f"embeddings={world['embeddings']}"])
    assert code == 1
    assert f"error: {bad}:1: unknown type '/nope'" in err


def test_malformed_types_file_names_file_and_line(world, tmp_path):
    types = tmp_path / "types.txt"
    types.write_text("/a\nperson\n")
    code, _, err = run_cli(["stats", "--set", f"types={types}",
                            "--set", f"input={world['train']}"])
    assert code == 1
    assert f"error: {types}:2: malformed type path: 'person'" in err


def test_unknown_config_key_is_exit_2():
    code, _, err = run_cli(["stats", "--set", "bogus=1"])
    assert code == 2
    assert "unknown config key 'bogus'" in err
    assert "dev_fraction" in err  # the known keys are listed


@pytest.mark.parametrize("spelling", ["false", "0", "no", "off", "FALSE", " No ", "oFf\t"])
def test_bool_false_spellings(spelling):
    # each spelling turns a key set true before it off again, in any case and
    # with spaces around it, in a config file as in --set
    cfg = cli_module.build_config("figer", None, ["json=true", f"json={spelling}"])
    assert cfg["json"] is False
    assert cli_module.build_config("figer", None, ["json=true"])["json"] is True


def test_bad_bool_value_is_exit_2():
    code, _, err = run_cli(["stats", "--set", "json=maybe"])
    assert code == 2
    assert "expects a boolean" in err


def test_bad_set_syntax_is_exit_2():
    code, _, err = run_cli(["stats", "--set", "json"])
    assert code == 2
    assert "key=value" in err


def test_malformed_seeds_is_exit_2(world):
    code, _, err = run_cli(["train"] + FAST + [
        "--set", f"types={world['types']}", "--set", f"train={world['train']}",
        "--set", f"test={world['test']}", "--set", f"embeddings={world['embeddings']}",
        "--set", "seed=a,b"])
    assert code == 2
    assert err == "error: seed expects comma-separated integers >= 0, got 'a,b'\n"


def test_unknown_variant_is_reported(world):
    code, _, err = run_cli(["train"] + FAST + [
        "--set", f"types={world['types']}", "--set", f"train={world['train']}",
        "--set", f"test={world['test']}", "--set", f"embeddings={world['embeddings']}",
        "--set", "variant=NFETC-super"])
    assert code == 1
    assert "NFETC(f)" in err


@pytest.mark.parametrize("setting,named", [
    ("beta=nan", "beta must be finite and >= 0, got nan"),
    ("lr=nan", "lr must be finite and positive, got nan"),
    ("lambda=inf", "lam must be finite and >= 0, got inf"),
    # out of range: the one check on each, where the setting enters
    ("lr=0", "lr must be finite and positive, got 0.0"),
    ("pi=0", "p_i must be in (0, 1], got 0.0"),
    ("pi=1.5", "p_i must be in (0, 1], got 1.5"),
    ("po=1.5", "p_o must be in (0, 1], got 1.5"),
    ("window=0", "window must be >= 1, got 0"),
    ("lambda=-1", "lam must be finite and >= 0, got -1.0"),
    ("beta=-1", "beta must be finite and >= 0, got -1.0"),
], ids=["beta", "lr", "lambda", "lr-zero", "pi-zero", "pi-above-one", "po-above-one",
        "window-zero", "lambda-negative", "beta-negative"])
def test_non_finite_setting_is_exit_1_without_a_checkpoint(world, tmp_path, setting, named):
    ckpt = tmp_path / "model.ckpt"
    code, _, err = run_cli(["train"] + FAST + [
        "--set", f"types={world['types']}", "--set", f"train={world['train']}",
        "--set", f"test={world['test']}", "--set", f"embeddings={world['embeddings']}",
        "--set", "variant=NFETC(r)", "--set", setting, "--set", f"checkpoint={ckpt}"])
    assert code == 1
    assert err.startswith("error: ") and named in err
    assert not ckpt.exists()


@pytest.mark.parametrize("setting,exit_code,named", [
    ("pi=1.5", 1, "p_i must be in (0, 1], got 1.5"),
    ("variant=NFETC-x", 1, "unknown variant 'NFETC-x'"),
    ("seed=1,x", 2, "seed expects comma-separated integers"),
    ("dev_fraction=1.5", 1, "dev fraction must be in (0, 1), got 1.5"),
    ("seed=-1", 2, "seed expects comma-separated integers >= 0, got '-1'"),
    ("dev_seed=-1", 1, "dev_seed must be >= 0, got -1"),
    ("seed=1,-2", 2, "seed expects comma-separated integers >= 0, got '1,-2'"),
    ("seed=", 2, "seed expects comma-separated integers >= 0, got ''"),
    ("seed=1,,2", 2, "seed expects comma-separated integers >= 0, got '1,,2'"),
    # a repeated seed would train the same run twice and aggregate it as two
    ("seed=3,03", 2, "seed lists 3 more than once, got '3,03'"),
], ids=["pi", "variant", "seeds", "dev_fraction", "seed-negative", "dev_seed-negative",
        "seeds-negative", "seed-empty", "seeds-with-a-gap", "seed-repeated"])
def test_train_checks_its_settings_before_reading_a_file(world, tmp_path, setting, exit_code,
                                                         named):
    bad = tmp_path / "bad.tsv"
    bad.write_text("0 9\tJordan\t/a\n")
    code, out, err = run_cli(["train"] + FAST + [
        "--set", f"types={world['types']}", "--set", f"train={bad}",
        "--set", f"test={world['test']}", "--set", f"embeddings={world['embeddings']}",
        "--set", setting])
    assert code == exit_code and out == ""
    assert err.startswith("error: ") and named in err and str(bad) not in err
    # with the setting mended, the corpus is what is reported
    code, _, err = run_cli(["train"] + FAST + [
        "--set", f"types={world['types']}", "--set", f"train={bad}",
        "--set", f"test={world['test']}", "--set", f"embeddings={world['embeddings']}"])
    assert code == 1 and err == f"error: {bad}:1: span [0, 9) out of bounds for 1 tokens\n"


def test_config_file_parsing(world, tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"types={MINI / 'types.txt'}\n"
                   f"input={MINI / 'corpus.tsv'}  # inline comment\n"
                   "# full-line comment\n"
                   "\n")
    code, out, _ = run_cli(["stats", "--config", str(cfg)])
    assert code == 0
    assert "mentions=12" in out


def test_set_overrides_config_file(world, tmp_path):
    small = tmp_path / "small.tsv"
    small.write_text("0 1\tJordan played\t/person\n0 1\tRiley ran\t/person/coach\n")
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"types={MINI / 'types.txt'}\ninput={MINI / 'corpus.tsv'}\n")
    code, out, _ = run_cli(["stats", "--config", str(cfg),
                            "--set", f"input={small}"])
    assert code == 0
    assert "mentions=2" in out


def test_missing_config_file_is_exit_2():
    code, _, err = run_cli(["stats", "--config", "/nonexistent/run.cfg"])
    assert code == 2
    assert "no such config file" in err


def test_malformed_config_line_is_exit_2(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("types\n")
    code, _, err = run_cli(["stats", "--config", str(cfg)])
    assert code == 2
    assert "expected key=value" in err
    # a line that parses but whose key or value is bad names its line too
    for line, message in (("windw=3", "unknown config key 'windw'"),
                          ("json=maybe", "json expects a boolean, got 'maybe'"),
                          ("window = three", "window expects int, got 'three'")):
        cfg.write_text(f"# line 1\n{line}\n")
        code, _, err = run_cli(["stats", "--config", str(cfg)])
        assert code == 2
        assert err.startswith(f"error: {cfg}:2: {message}")


def test_data_root_resolves_relative_paths(monkeypatch):
    monkeypatch.setenv("NFETC_DATA_ROOT", str(MINI))
    code, out, _ = run_cli(["stats", "--set", "types=types.txt",
                            "--set", "input=corpus.tsv"])
    assert code == 0
    assert "mentions=12" in out

    monkeypatch.delenv("NFETC_DATA_ROOT")
    code, _, err = run_cli(["stats", "--set", "types=types.txt",
                            "--set", "input=corpus.tsv"])
    assert code == 2


# -- stats --------------------------------------------------------------------------


def test_stats_text_matches_manifest():
    code, out, _ = run_cli(["stats", "--set", f"types={MINI / 'types.txt'}",
                            "--set", f"input={MINI / 'corpus.tsv'}"])
    assert code == 0
    assert out == ("types=6\nmentions=12\nsingle_path=8\n"
                   "pct_single_path=66.67\nmax_label_depth=2\n")


def test_stats_json_line(tmp_path):
    report = tmp_path / "stats.txt"
    code, out, _ = run_cli(["stats", "--set", f"types={MINI / 'types.txt'}",
                            "--set", f"input={MINI / 'corpus.tsv'}",
                            "--set", "json=true", "--set", f"report={report}"])
    assert code == 0
    last = out.rstrip("\n").splitlines()[-1]
    with open(MINI / "manifest.json") as fh:
        assert json.loads(last) == json.load(fh)["stats"]
    assert report.read_text() == out


def test_stats_empty_corpus_is_exit_1(tmp_path):
    empty = tmp_path / "empty.tsv"
    empty.write_text("")
    code, _, err = run_cli(["stats", "--set", f"types={MINI / 'types.txt'}",
                            "--set", f"input={empty}"])
    assert code == 1
    assert err == f"error: {empty}: statistics of an empty corpus\n"


# -- train --------------------------------------------------------------------------


@pytest.mark.parametrize("key,text,variant,message", [
    ("train", "", "NFETC(r)", "no mentions to train on"),
    ("train", "", "NFETC(f)", "no mentions to train on"),
    ("train", "1 2\tthe dog sat\t/a/b /c\n", "NFETC(f)",
     "filtering left no single-path triples"),
    ("test", "", "NFETC(r)", "corpus of 0 mentions is too small for a 10% dev split"),
], ids=["train-empty", "train-empty-filtered", "train-nothing-single-path", "test-empty"])
def test_train_corpus_fault_names_its_file_before_the_embeddings_are_read(
        world, tmp_path, key, text, variant, message):
    # the embeddings are the slow file at GloVe size: a corpus that cannot
    # train is reported first, here ahead of a malformed embeddings file
    bad = tmp_path / f"{key}.tsv"
    bad.write_text(text)
    ragged = tmp_path / "emb.txt"
    ragged.write_text("the 1 2\nsat 1\n")
    files = {**world, key: str(bad), "embeddings": str(ragged)}
    code, out, err = run_cli(["train"] + FAST + ["--set", f"variant={variant}"] + [
        arg for k in ("types", "train", "test", "embeddings")
        for arg in ("--set", f"{k}={files[k]}")])
    assert (code, out, err) == (1, "", f"error: {bad}: {message}\n")


def test_train_reports_and_artifacts(trained):
    out = trained["stdout"]
    assert re.search(r"best_epoch=\d+ dev_strict=\d\.\d{4}\n", out)
    assert re.search(r"strict=\d\.\d{4} macro_p=", out)

    log_lines = Path(trained["log"]).read_text().splitlines()
    assert 1 <= len(log_lines) <= 2
    for line in log_lines:
        assert re.fullmatch(r"\d+, \d+\.\d{6}, \d\.\d{4}, \d\.\d{4}, \d\.\d{4}", line)

    assert Path(trained["report"]).read_text() == out

    restored = load_checkpoint(trained["checkpoint"])
    assert restored.hyperparams.seed == 3
    assert restored.hyperparams.d_s == 4
    assert restored.forest.types() == ["/a", "/a/b", "/c"]


def test_train_checkpoint_is_the_best_epoch_snapshot(trained):
    result = trained["result"]
    assert f"best_epoch={result.best_epoch} dev_strict={result.best_dev_strict:.4f}\n" \
        in trained["stdout"]
    assert_checkpoint_holds(trained["checkpoint"], result.best_values)


def test_train_requires_each_input(world):
    base = ["train"] + FAST + ["--set", f"types={world['types']}",
                               "--set", f"train={world['train']}",
                               "--set", f"test={world['test']}"]
    code, _, err = run_cli(base)
    assert code == 2
    assert "'embeddings'" in err


@pytest.mark.parametrize("command,key", [
    ("train", "checkpoint"), ("train", "log"), ("train", "report"), ("eval", "report"),
    ("stats", "report"), ("predict", "output"), ("export-types", "output")])
def test_output_in_a_missing_directory_is_reported_before_any_input(tmp_path, command, key):
    # every input is missing too: the output's directory is checked first,
    # so a run is never lost at its end for want of it
    missing = tmp_path / "missing"
    target = missing / "out.txt"
    argv = [command, "--set", f"{key}={target}"]
    for name in ("types", "train", "test", "embeddings", "input", "checkpoint"):
        if name != key:
            argv += ["--set", f"{name}={tmp_path / 'absent'}"]
    code, out, err = run_cli(argv)
    assert (code, out) == (2, "")
    assert err == f"error: no such directory: {missing} (for {key}={target})\n"
    assert not missing.exists()


# the input keys each command is given below, and the ways an output of it
# could destroy a file: (command, output key, what it names, the input or
# output key whose file that is)
INPUTS_OF = {"train": ("types", "train", "test", "embeddings"), "eval": ("checkpoint", "input"),
             "predict": ("checkpoint", "input"), "stats": ("types", "input"),
             "export-types": ("checkpoint",)}


@pytest.mark.parametrize("command,key,case,other", [
    ("train", "checkpoint", "directory", None), ("train", "report", "output", "log"),
    ("train", "log", "input", "train"),
    ("eval", "report", "directory", None), ("eval", "report", "input", "checkpoint"),
    ("predict", "output", "directory", None), ("predict", "output", "input", "input"),
    ("stats", "report", "directory", None), ("stats", "report", "input", "input"),
    ("export-types", "output", "directory", None),
    ("export-types", "output", "input", "checkpoint")])
def test_output_that_would_destroy_a_file_is_refused_before_any_input(
        trained, tmp_path, command, key, case, other):
    # an output that is a directory, another output's file or an input's
    # file is refused before anything is read, trained or written
    files = {**trained, "input": trained["test"]}
    argv = [command] + (FAST if command == "train" else [])
    for name in INPUTS_OF[command]:
        copy = tmp_path / Path(files[name]).name
        copy.write_bytes(Path(files[name]).read_bytes())
        argv += ["--set", f"{name}={copy}"]
    if case == "directory":
        target = tmp_path / "folder"
        target.mkdir()
        (target / "kept.txt").write_text("kept\n")
    elif case == "output":
        target = tmp_path / "out.txt"
        target.write_text("kept\n")
        argv += ["--set", f"{other}={target}"]
    else:
        target = tmp_path / Path(files[other]).name
    argv += ["--set", f"{key}={target}"]

    def named():
        return ({p.name: p.read_bytes() for p in target.iterdir()} if target.is_dir()
                else target.read_bytes())

    before = named()
    code, out, err = run_cli(argv)
    assert (code, out) == (2, "")
    assert err == (f"error: {key}={target} is a directory\n" if case == "directory"
                   else f"error: {key}={target} would overwrite {other}={target}\n")
    assert named() == before


@pytest.mark.parametrize("command,key", [("stats", "report"), ("export-types", "output"),
                                         ("train", "log")])
def test_an_output_over_the_config_file_is_refused_before_any_input(
        tmp_path, monkeypatch, command, key):
    # the --config file is taken like an input's: an output naming it is
    # refused with exit 2, and the file is left as it was
    for name in ("run.cfg", "types.txt", "corpus.tsv", "refinement.tsv"):
        (tmp_path / name).write_bytes((MINI / name).read_bytes())
    monkeypatch.chdir(tmp_path)
    before = Path("run.cfg").read_bytes()
    code, out, err = run_cli([command, "--config", "run.cfg", "--set", "input=corpus.tsv",
                              "--set", f"{key}=run.cfg"])
    assert (code, out) == (2, "")
    assert err == f"error: {key}=run.cfg would overwrite --config run.cfg\n"
    assert Path("run.cfg").read_bytes() == before


def test_train_multi_seed_aggregate(world, tmp_path):
    ckpt = tmp_path / "multi.ckpt"
    argv = ["train"] + FAST + [
        "--set", f"types={world['types']}", "--set", f"train={world['train']}",
        "--set", f"test={world['test']}", "--set", f"embeddings={world['embeddings']}",
        "--set", "epochs=1", "--set", "seed=3, 4",
        "--set", f"checkpoint={ckpt}", "--set", f"log={tmp_path / 'log.txt'}"]
    code, out, err, runs = run_cli_recording(argv, "train")
    assert code == 0, err
    assert len(runs) == 2
    lines = out.splitlines()
    # the aggregate is the mean and sample std of the runs' final metrics, in percent
    def cell(key):
        values = [getattr(run.final, key) for run in runs]
        return f"{100 * statistics.mean(values):.1f}±{100 * statistics.stdev(values):.1f}"

    assert lines[0] == f"strict={cell('strict')} macro={cell('macro_f1')} micro={cell('micro_f1')}"
    assert lines[1].startswith("seed=3 strict=")
    assert lines[2].startswith("seed=4 strict=")
    match = re.fullmatch(r"checkpoint=.* \(seed ([34])\)", lines[3])
    assert match

    # the checkpoint holds the best-epoch snapshot of the reported seed's run,
    # the run with the highest final strict accuracy
    by_seed = dict(zip((3, 4), runs))
    best = int(match.group(1))
    assert by_seed[best].final.strict == max(r.final.strict for r in runs)
    other = by_seed[7 - best].best_values
    assert any(not np.array_equal(a, other[n]) for n, a in by_seed[best].best_values.items())
    assert_checkpoint_holds(str(ckpt), by_seed[best].best_values)
    # and records that run's seed, whichever of the list it is
    assert load_checkpoint(str(ckpt)).hyperparams.seed == best
    # the hyperparameters a seed list gives are those of its first run
    assert cli_module._hyperparams(cli_module.build_config("figer", None, ["seed=5,2"])).seed == 5


@pytest.mark.parametrize("error,line", [
    (MemoryError("Unable to allocate 7.45 EiB for an array with shape (10**18,)"),
     "error: out of memory: Unable to allocate 7.45 EiB for an array with shape (10**18,)\n"),
    (MemoryError(), "error: out of memory\n"),
], ids=["numpy-message", "no-message"])
def test_train_out_of_memory_is_one_error_line(world, tmp_path, monkeypatch, error, line):
    # a setting such as window=1000000000 asks numpy for more memory than
    # the machine has once the inputs are read; the run is stood in for
    # here, since an overcommitting host may grant a real huge allocation
    def exhausted(*args, **kwargs):
        raise error

    monkeypatch.setattr(cli_module, "train", exhausted)
    ckpt = tmp_path / "model.ckpt"
    code, out, err = run_cli(["train"] + FAST + [
        "--set", f"types={world['types']}", "--set", f"train={world['train']}",
        "--set", f"test={world['test']}", "--set", f"embeddings={world['embeddings']}",
        "--set", f"checkpoint={ckpt}"])
    assert (code, out, err) == (1, "", line)
    assert not ckpt.exists()


def test_readme_quick_start_prints_what_the_readme_shows(tmp_path, monkeypatch):
    # the quick start's train command, run with its checkpoint in tmp_path,
    # ends stdout with the two lines README.md shows for it
    command, shown = re.search(r"## Quick start.*?```sh\n(nfetc train .*?)```.*?```\n(.*?)```",
                               README.read_text(), re.S).groups()
    argv = shlex.split(command.replace("\\\n", " "))[1:]
    ckpt = tmp_path / "synth.ckpt"
    argv = [f"checkpoint={ckpt}" if a.startswith("checkpoint=") else a for a in argv]
    assert argv.count(f"checkpoint={ckpt}") == 1 and len(shown.splitlines()) == 2
    monkeypatch.chdir(README.parent)
    monkeypatch.delenv(cli_module.DATA_ROOT_VAR, raising=False)
    code, out, err = run_cli(argv)
    assert code == 0, err
    assert out.splitlines()[-2:] == shown.splitlines()
    assert load_checkpoint(str(ckpt)).hyperparams.window == 3


# -- eval ---------------------------------------------------------------------------


def test_eval_scores_checkpoint(trained, tmp_path):
    report = tmp_path / "eval.txt"
    code, out, _ = run_cli(["eval", "--set", f"checkpoint={trained['checkpoint']}",
                            "--set", f"test={trained['test']}",
                            "--set", "json=true", "--set", "per_type=true",
                            "--set", f"report={report}"])
    assert code == 0
    lines = out.splitlines()
    assert lines[0].startswith("strict=")
    as_json = json.loads(lines[1])
    assert set(as_json) == {"strict", "macro_p", "macro_r", "macro_f1",
                            "micro_p", "micro_r", "micro_f1"}
    per_type = [l for l in lines[2:] if "\t" in l]
    assert per_type, "per_type=true must add per-type lines"
    for line in per_type:
        tname, acc = line.split("\t")
        assert tname.startswith("/")
        assert 0.0 <= float(acc) <= 1.0
    assert report.read_text() == out


def test_eval_per_type_runs_the_model_once(trained, monkeypatch):
    calls = []
    real = NfetcModel.predict_probs

    def counted(self, triples):
        calls.append(len(triples))
        return real(self, triples)

    monkeypatch.setattr(NfetcModel, "predict_probs", counted)
    code, _, _ = run_cli(["eval", "--set", f"checkpoint={trained['checkpoint']}",
                          "--set", f"test={trained['test']}", "--set", "per_type=true"])
    assert code == 0
    assert calls == [6]


def test_eval_input_overrides_test(trained, tmp_path):
    one = tmp_path / "one.tsv"
    one.write_text("1 2\tthe cat went\t/a /a/b\n")
    code, out, _ = run_cli(["eval", "--set", f"checkpoint={trained['checkpoint']}",
                            "--set", f"input={one}"])
    assert code == 0
    # a single mention can only produce these strict values
    strict = float(out.split()[0].split("=")[1])
    assert strict in (0.0, 1.0)


def test_eval_missing_checkpoint_is_exit_2():
    code, _, err = run_cli(["eval", "--set", "checkpoint=/nonexistent.ckpt"])
    assert code == 2
    assert "/nonexistent.ckpt" in err


def test_eval_refinement_needs_types(trained):
    base = ["eval", "--set", f"checkpoint={trained['checkpoint']}",
            "--set", f"test={trained['test']}", "--set", "refinement=/nonexistent"]
    code, out, err = run_cli(base)
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "refinement" in err and "'types'" in err
    # with types given, the refinement file is looked for like every other file
    code, out, err = run_cli(base + ["--set", f"types={trained['types']}"])
    assert code == 2 and out == "" and err == "error: no such file: /nonexistent\n"



@pytest.mark.parametrize("command", ["stats", "train"])
def test_missing_refinement_file_is_exit_2(world, tmp_path, command):
    missing = tmp_path / "refine.tsv"
    code, out, err = run_cli([command, "--set", f"types={world['types']}",
                              "--set", f"refinement={missing}", "--set", f"input={world['test']}"])
    assert code == 2 and out == "" and err == f"error: no such file: {missing}\n"

REFINED_TRAIN_REPORT = (
    "best_epoch=8 dev_strict=0.6500\n"
    "strict=0.5611 macro_p=0.9389 macro_r=0.7287 macro_f1=0.8206 "
    "micro_p=0.9369 micro_r=0.6541 micro_f1=0.7704\n")
REFINED_EVAL = (
    "strict=0.5700 macro_p=0.9450 macro_r=0.7375 macro_f1=0.8285 "
    "micro_p=0.9431 micro_r=0.6629 micro_f1=0.7785\n"
    '{"strict": 0.57, "macro_p": 0.945, "macro_r": 0.7374999999999994, '
    '"macro_f1": 0.8284546805349179, "micro_p": 0.943089430894309, '
    '"micro_r": 0.6628571428571428, "micro_f1": 0.7785234899328859}\n'
    "/artist\t0.0000\n/artist/singer\t0.0000\n/city\t0.0000\n/org\t0.9200\n"
    "/org/team\t1.0000\n/person\t0.3200\n/person/athlete\t0.7200\n/place\t0.4800\n")


def test_refined_train_eval_and_stats(tmp_path):
    # the synth world with two subtrees moved to the roots: train, eval and
    # stats each read the corpus labels through the refinement
    refinement = tmp_path / "refine.tsv"
    refinement.write_text("/person/artist\t/artist\n/place/city\t/city\n")
    ckpt, report = tmp_path / "refined.ckpt", tmp_path / "report.txt"
    inputs = ["--set", f"types={SYNTH / 'types.txt'}",
              "--set", f"refinement={refinement}"]
    code, out, err = run_cli(["train"] + inputs + [
        "--set", f"train={SYNTH / 'train.tsv'}", "--set", f"test={SYNTH / 'train.tsv'}",
        "--set", f"embeddings={SYNTH / 'embeddings.txt'}",
        "--set", "lr=0.01", "--set", "dp=4", "--set", "ds=16", "--set", "pi=1.0",
        "--set", "po=1.0", "--set", "window=3", "--set", "batch=32", "--set", "epochs=8",
        "--set", "variant=NFETC-hier(r)", "--set", f"checkpoint={ckpt}",
        "--set", f"log={tmp_path / 'log.txt'}", "--set", f"report={report}"])
    assert (code, err) == (0, "")
    assert out == REFINED_TRAIN_REPORT
    assert report.read_text() == out
    assert load_checkpoint(str(ckpt)).forest.types() == [
        "/artist", "/artist/singer", "/city", "/org", "/org/team", "/person",
        "/person/athlete", "/place"]

    code, out, err = run_cli(["eval"] + inputs + [
        "--set", f"checkpoint={ckpt}", "--set", f"test={SYNTH / 'train.tsv'}",
        "--set", "per_type=true", "--set", "json=true"])
    assert (code, err) == (0, "")
    assert out == REFINED_EVAL

    code, out, err = run_cli(["stats"] + inputs + ["--set", f"input={SYNTH / 'train.tsv'}"])
    assert (code, err) == (0, "")
    assert out == ("types=8\nmentions=200\nsingle_path=125\n"
                   "pct_single_path=62.50\nmax_label_depth=2\n")

    # a refinement that maps labels outside the checkpoint's forest: one
    # error line naming the corpus line
    elsewhere = tmp_path / "elsewhere.tsv"
    elsewhere.write_text("/person/artist\t/org/artist\n")
    code, out, err = run_cli(["eval", "--set", f"types={SYNTH / 'types.txt'}",
                              "--set", f"refinement={elsewhere}",
                              "--set", f"checkpoint={ckpt}",
                              "--set", f"test={SYNTH / 'train.tsv'}"])
    assert (code, out) == (1, "")
    assert err == f"error: {SYNTH / 'train.tsv'}:76: unknown type '/person/artist'\n"

    # predict reads no labels: a labeled file predicts as its first two fields
    unlabeled = tmp_path / "unlabeled.tsv"
    unlabeled.write_text("".join(line.rsplit("\t", 1)[0] + "\n" for line in
                                 (SYNTH / "train.tsv").read_text().splitlines()))
    labeled, bare = (run_cli(["predict", "--set", f"checkpoint={ckpt}", "--set", f"input={path}"])
                     for path in (SYNTH / "train.tsv", unlabeled))
    assert labeled[0] == 0 and len(labeled[1].splitlines()) == 200
    assert labeled == bare


@pytest.mark.parametrize("command", ["train", "eval", "stats"])
def test_a_refinement_source_outside_the_forest_is_one_error_line(trained, tmp_path, command):
    # a mistyped source matches no type, so the repair would silently do
    # nothing: it is refused, naming the file, before any corpus is read
    refinement, bad = tmp_path / "refine.tsv", tmp_path / "bad.tsv"
    refinement.write_text("/person/coachh\t/organization/coach\n")
    bad.write_text("0 9\tJordan\t/person\n")
    ckpt = tmp_path / "model.ckpt" if command == "train" else Path(trained["checkpoint"])
    code, out, err = run_cli([command, "--set", f"types={MINI / 'types.txt'}",
                              "--set", f"refinement={refinement}", "--set", f"train={bad}",
                              "--set", f"test={bad}", "--set", f"input={bad}",
                              "--set", f"embeddings={trained['embeddings']}",
                              "--set", f"checkpoint={ckpt}"])
    assert (code, out) == (1, "")
    assert err == (f"error: {refinement}: refinement source '/person/coachh' "
                   "is not a type of the forest\n")
    assert ckpt.exists() == (command != "train")


# -- predict ------------------------------------------------------------------------


def test_predict_emits_ranked_paths(trained, tmp_path):
    unlabeled = tmp_path / "in.tsv"
    unlabeled.write_text("1 2\tthe cat went\n1 2\ta dog sat\n")
    out_file = tmp_path / "preds.tsv"
    code, _, _ = run_cli(["predict", "--set", f"checkpoint={trained['checkpoint']}",
                          "--set", f"input={unlabeled}",
                          "--set", f"output={out_file}"])
    assert code == 0
    lines = out_file.read_text().splitlines()
    assert len(lines) == 2
    for line in lines:
        terminal, expanded, top = line.split("\t")
        ranked = [entry.split("=") for entry in top.split(" ")]
        assert len(ranked) == 3  # K=3 types, all ranked
        assert ranked[0][0] == terminal
        probs = [float(p) for _, p in ranked]
        assert probs == sorted(probs, reverse=True)
        assert abs(sum(probs) - 1.0) < 1e-3
        chain = expanded.split(",")
        assert chain[-1] == terminal
        assert [c.count("/") for c in chain] == sorted(c.count("/") for c in chain)


def test_predict_accepts_labeled_input_too(trained, tmp_path):
    code, out, _ = run_cli(["predict", "--set", f"checkpoint={trained['checkpoint']}",
                            "--set", f"input={trained['test']}"])
    assert code == 0
    assert len(out.splitlines()) == 6


def test_predict_empty_input_is_empty_output(trained, tmp_path):
    empty = tmp_path / "empty.tsv"
    empty.write_text("")
    code, out, _ = run_cli(["predict", "--set", f"checkpoint={trained['checkpoint']}",
                            "--set", f"input={empty}"])
    assert code == 0
    assert out == ""


# -- export-types -------------------------------------------------------------------


def test_export_types_round_trips_weights(trained, tmp_path):
    out_file = tmp_path / "types.csv"
    code, _, _ = run_cli(["export-types",
                          "--set", f"checkpoint={trained['checkpoint']}",
                          "--set", f"output={out_file}"])
    assert code == 0
    restored = load_checkpoint(trained["checkpoint"])
    w = restored.model.params["cls_w"]
    lines = out_file.read_text().splitlines()
    assert len(lines) == 3
    for i, line in enumerate(lines):
        fields = line.split(",")
        assert fields[0] == restored.forest.path_of(i)
        values = np.array([float(v) for v in fields[1:]])
        assert values.shape == (w.shape[1],)
        assert np.array_equal(values, w[i])  # repr round-trip is exact


@pytest.mark.parametrize("edit", [
    lambda meta: meta["hyperparams"].update(bogus=1),
    lambda meta: meta["loss_config"].pop("beta"),
    lambda meta: meta["params"][1].pop("shape"),
    lambda meta: meta["types"].pop(),
    lambda meta: meta["params"][2].update(name=meta["params"][1]["name"]),
    lambda meta: meta["params"][1].update(shape=[10**7, 10**7]),
    lambda meta: meta["params"][1].update(shape=[2**40, 2**40]),
    lambda meta: meta["hyperparams"].update(window=1, d_s=999),
    [1, 2],
    lambda meta: meta.update(hyperparams=[1, 2]),
    lambda meta: meta.update(vocab=list(range(len(meta["vocab"])))),
    lambda meta: meta.update(vocab="".join(chr(97 + i) for i in range(len(meta["vocab"])))),
    lambda meta: meta["vocab"].__setitem__(-1, 7),
    b"-1",
    b"99999999999",
    lambda meta: meta["hyperparams"].update(window=float(meta["hyperparams"]["window"])),
    lambda meta: meta["loss_config"].update(hier=1),
    lambda meta: meta["loss_config"].update(hier="false"),
    lambda meta: meta["loss_config"].update(lam=True),
    lambda meta: meta["hyperparams"].update(seed=-1),
    (lambda meta: meta.update(vocab=[]),
     lambda values: values.update(word_emb=values["word_emb"][:0])),
], ids=["extra-hyperparam", "missing-loss-key", "descriptor-without-shape",
        "types-short-of-classifier", "duplicate-descriptor-name",
        "shape-of-728TiB", "shape-of-2**80-floats", "header-sizes-disagree",
        "meta-not-an-object", "hyperparams-not-an-object", "vocab-of-ints",
        "vocab-a-string", "vocab-with-an-int", "meta-length-negative",
        "meta-length-past-the-file", "window-a-float", "hier-an-int", "hier-a-string",
        "lam-a-bool", "seed-negative", "no-words"])
def test_predict_malformed_checkpoint_is_one_error_line(trained, tmp_path, edit):
    # ``edit`` changes the meta, or, as bytes, replaces the meta-length line;
    # a pair edits the tensors, then the meta
    src = trained["checkpoint"]
    if isinstance(edit, tuple):
        src = rewrite_params(src, tmp_path / "bad.ckpt", edit[1])
        edit = edit[0]
    edit_file = rewrite_meta_length if isinstance(edit, bytes) else rewrite_meta
    ckpt = edit_file(src, tmp_path / "bad.ckpt", edit)
    code, out, err = run_cli(["predict", "--set", f"checkpoint={ckpt}",
                              "--set", f"input={trained['test']}"])
    assert code == 1
    assert out == ""
    assert err.startswith(f"error: {ckpt}: ") and err.count("\n") == 1


@pytest.mark.parametrize("edit,message", [
    (lambda meta: meta["hyperparams"].update(window=float(meta["hyperparams"]["window"])),
     r"hyperparams: window must be int, got \d+\.0$"),
    (lambda meta: meta["loss_config"].update(hier="false"),
     r"loss_config: hier must be bool, got 'false'$"),
], ids=["window-a-float", "hier-a-string"])
def test_eval_mistyped_setting_is_one_error_line(trained, tmp_path, edit, message):
    # each stored setting must be a JSON value of its field's type
    ckpt = rewrite_meta(trained["checkpoint"], tmp_path / "bad.ckpt", edit)
    code, out, err = run_cli(["eval", "--set", f"checkpoint={ckpt}",
                              "--set", f"test={trained['test']}"])
    assert code == 1
    assert out == ""
    assert err.startswith(f"error: {ckpt}: ") and err.count("\n") == 1
    assert re.search(message, err.rstrip("\n"))


@pytest.mark.parametrize("body", [
    header(b"[" * 100000),
    header(json.dumps({"params": [{"name": "w", "trainable": True,
                                   "shape": [0, 10**30]}]}).encode()),
], ids=["meta-nested-too-deep", "empty-shape-of-10**30"])
def test_predict_unreadable_checkpoint_is_one_error_line(trained, tmp_path, body):
    ckpt = tmp_path / "bad.ckpt"
    ckpt.write_bytes(body)
    code, out, err = run_cli(["predict", "--set", f"checkpoint={ckpt}",
                              "--set", f"input={trained['test']}"])
    assert code == 1
    assert out == ""
    assert err.startswith(f"error: {ckpt}: ") and err.count("\n") == 1


def flip_flags(meta):
    for e in meta["params"]:
        e["trainable"] = not e["trainable"]


@pytest.mark.parametrize("name,edit_file,edit", [
    ("attn_w", rewrite_params, lambda values: values.pop("attn_w")),
    ("men.w_rec", rewrite_params, lambda values: values.pop("men.w_rec")),
    ("ctx_bw.w_rec", rewrite_params,
     lambda values: values.update({"ctx_bw.w_rec": values["ctx_bw.w_rec"].T})),
    ("word_emb", rewrite_meta, flip_flags),
    ("cls_b", rewrite_meta, lambda meta: meta["params"][-1].update(trainable=False)),
], ids=["without-attn_w", "without-men.w_rec", "ctx_bw.w_rec-transposed",
        "every-flag-flipped", "cls_b-frozen"])
def test_predict_checkpoint_tensor_problems_are_one_error_line(trained, tmp_path, name,
                                                               edit_file, edit):
    ckpt = edit_file(trained["checkpoint"], tmp_path / "bad.ckpt", edit)
    code, out, err = run_cli(["predict", "--set", f"checkpoint={ckpt}",
                              "--set", f"input={trained['test']}"])
    assert code == 1
    assert out == ""
    assert err.startswith(f"error: {ckpt}: ") and err.count("\n") == 1
    assert repr(name) in err


# -- eval and predict keep only the word vectors of their input ---------------------


def full_matrix_run(ckpt, path, read):
    """(restored checkpoint with its whole word matrix, windowed corpus that
    ``read(path, forest)`` parses, probability rows), as ``nfetc eval`` and
    ``predict`` computed them before they kept only their input's rows."""
    restored = load_checkpoint(str(ckpt))
    corpus = windowed(read(path, restored.forest), restored.hyperparams.window)
    probs = restored.model.predict_probs(list(corpus))
    return restored, corpus, inference_adjust(probs, restored.forest, restored.loss_config)


def full_matrix_predict(ckpt, path) -> str:
    """What ``nfetc predict`` prints, from the whole word matrix, formatted
    row by row."""
    restored, _, probs = full_matrix_run(
        ckpt, path, lambda p, forest: parse_corpus(p, forest, tag="input", allow_unlabeled=True))
    forest, lines = restored.forest, []
    for row in probs:
        order = np.argsort(-row, kind="stable")
        terminal = forest.path_of(int(order[0]))
        expanded = sorted(forest.expand_to_path(terminal), key=lambda p: (p.count("/"), p))
        top = " ".join(f"{forest.path_of(int(i))}={row[int(i)]:.6f}" for i in order[:5])
        lines.append(f"{terminal}\t{','.join(expanded)}\t{top}\n")
    return "".join(lines)


def scored_by_sum(corpus, pairs) -> str:
    """``nfetc eval``'s metric, JSON and per-type lines for ``pairs``, each
    metric one ``sum`` over all pairs, as eval formed them before it
    scored block by block."""
    n = len(pairs)
    mp = sum(len(g & p) / len(p) for g, p in pairs) / n
    mr = sum(len(g & p) / len(g) for g, p in pairs) / n
    common = sum(len(g & p) for g, p in pairs)
    up = common / sum(len(p) for _, p in pairs)
    ur = common / sum(len(g) for g, _ in pairs)
    f1 = [0.0 if a + b == 0 else 2 * a * b / (a + b) for a, b in ((mp, mr), (up, ur))]
    metrics = Metrics(sum(1 for g, p in pairs if g == p) / n, mp, mr, f1[0], up, ur, f1[1])
    hits = {}
    for triple, (gold, predicted) in zip(corpus, pairs):
        for term in triple.terminals:
            hits.setdefault(term, []).append(1 if gold == predicted else 0)
    return (metrics.as_text() + metrics.as_json() + "\n"
            + "".join(f"{t}\t{sum(v) / len(v):.4f}\n" for t, v in sorted(hits.items())))


def full_matrix_eval(ckpt, path, mapping=None) -> str:
    """What ``nfetc eval --set json=true --set per_type=true`` prints, from
    the whole word matrix."""
    restored, corpus, probs = full_matrix_run(
        ckpt, path, lambda p, forest: parse_corpus(p, forest, mapping=mapping))
    pairs = pairs_for(corpus, [int(i) for i in np.argmax(probs, axis=1)], restored.forest)
    return scored_by_sum(corpus, pairs)


@pytest.fixture(scope="module")
def refined_synth(tmp_path_factory):
    """A short CLI training run on the synth world with two subtrees moved
    to the roots: (checkpoint, refinement file)."""
    root = tmp_path_factory.mktemp("refined")
    refinement, ckpt = root / "refine.tsv", root / "refined.ckpt"
    refinement.write_text("/person/artist\t/artist\n/place/city\t/city\n")
    code, _, err = run_cli(["train", "--set", f"types={SYNTH / 'types.txt'}",
                            "--set", f"refinement={refinement}",
                            "--set", f"train={SYNTH / 'train.tsv'}",
                            "--set", f"test={SYNTH / 'train.tsv'}",
                            "--set", f"embeddings={SYNTH / 'embeddings.txt'}",
                            "--set", "lr=0.01", "--set", "dp=4", "--set", "ds=8",
                            "--set", "window=3", "--set", "batch=32", "--set", "epochs=3",
                            "--set", "variant=NFETC-hier(r)", "--set", "hier_inference=true",
                            "--set", f"checkpoint={ckpt}", "--set", f"log={root / 'log.txt'}"])
    assert (code, err) == (0, "")
    return ckpt, refinement


def test_predict_and_eval_print_what_the_whole_matrix_gives(refined_synth, tmp_path):
    # every fourth synth mention: an input that names some of the vocabulary
    ckpt, refinement = refined_synth
    source = tmp_path / "some.tsv"
    source.write_text("".join((SYNTH / "train.tsv").read_text().splitlines(True)[::4]))
    argv = ["predict", "--set", f"checkpoint={ckpt}", "--set", f"input={source}"]
    code, out, err, restored = run_cli_recording(argv, "load_checkpoint")
    assert (code, err) == (0, "")
    assert out == full_matrix_predict(ckpt, source)
    assert len(out.splitlines()) == 50
    # the model held the rows of the windowed input's known words, and no other
    corpus = windowed(parse_corpus(source, restored[0].forest, allow_unlabeled=True), 3)
    vocab = load_checkpoint(str(ckpt)).model.embeddings.words
    kept = restored[0].model.embeddings.words
    assert kept == [w for w in vocab if w in {t for m in corpus for t in m.tokens}]
    assert 0 < len(kept) < len(vocab)

    _, mapping = apply_refinement(TypeForest.from_file(SYNTH / "types.txt"),
                                  read_refinement(refinement))
    code, out, err = run_cli(["eval", "--set", f"checkpoint={ckpt}",
                              "--set", f"types={SYNTH / 'types.txt'}",
                              "--set", f"refinement={refinement}", "--set", f"test={source}",
                              "--set", "per_type=true", "--set", "json=true"])
    assert (code, err) == (0, "")
    assert out == full_matrix_eval(ckpt, source, mapping)


@pytest.mark.parametrize("text", ["", "1 2\tzz qq xx\n0 1\tyy\n"], ids=["empty", "all-oov"])
def test_predict_without_a_known_word_is_the_whole_matrix_prediction(trained, tmp_path, text):
    unknown = tmp_path / "in.tsv"
    unknown.write_text(text)
    code, out, err = run_cli(["predict", "--set", f"checkpoint={trained['checkpoint']}",
                              "--set", f"input={unknown}"])
    assert (code, err) == (0, "")
    assert out == full_matrix_predict(trained["checkpoint"], unknown)
    assert len(out.splitlines()) == text.count("\n")


FILLERS = 100   # filler words before the vocabulary of ``trained`` in ``padded``


def padded(src, dst, edit=lambda matrix, vocab: None):
    """Copy checkpoint ``src`` to ``dst`` with filler words, which no test
    input holds, around its vocabulary: ``FILLERS`` of them before it and
    enough after it for the word matrix to take two reads and a bit through
    the load's buffer. ``edit(matrix, vocab)`` may change both in place."""
    meta, tensors = checkpoint_load(src)
    flags = {e["name"]: e["trainable"] for e in meta.pop("params")}
    words, d_w = meta["vocab"], tensors["word_emb"].shape[1]
    total = 2 * (READ_BYTES // (8 * d_w)) + 7
    vocab = [f"filler{i}" for i in range(total - len(words))]
    vocab[FILLERS:FILLERS] = words
    matrix = make_rng(5).uniform(-0.5, 0.5, size=(total, d_w))
    matrix[FILLERS:FILLERS + len(words)] = tensors["word_emb"]
    edit(matrix, vocab)
    meta["vocab"] = vocab
    tensors["word_emb"] = matrix
    save(str(dst), meta, [(n, flags[n], a) for n, a in tensors.items()])
    return dst


def boundary_rows(d_w: int) -> list[int]:
    """The last row of the first buffer's read and the first of the next."""
    step = READ_BYTES // (8 * d_w)
    return [step - 1, step]


def full_matrix_error(ckpt) -> str:
    """The error line a load of the whole matrix gives for ``ckpt``."""
    with pytest.raises(CheckpointError) as raised:
        load_checkpoint(str(ckpt))
    return f"error: {raised.value}\n"


def run_both(trained, ckpt, input_path=None):
    """(exit code, stdout, stderr) of ``nfetc predict`` and of ``nfetc eval``
    on ``ckpt``, each on the test corpus unless ``input_path`` is given."""
    source = input_path or trained["test"]
    return [run_cli([command, "--set", f"checkpoint={ckpt}", "--set", f"input={source}"])
            for command in ("predict", "eval")]


def run_all(trained, ckpt, input_path=None):
    """``run_both``, then (exit code, stdout, stderr) of ``nfetc
    export-types`` on ``ckpt``, which reads no input."""
    return run_both(trained, ckpt, input_path) + [
        run_cli(["export-types", "--set", f"checkpoint={ckpt}"])]


def test_padded_checkpoint_predicts_as_the_original(trained, tmp_path):
    # the fillers change nothing the test input looks up
    ckpt = padded(trained["checkpoint"], tmp_path / "padded.ckpt")
    for (code, out, err), (_, want, _) in zip(run_both(trained, ckpt),
                                               run_both(trained, trained["checkpoint"])):
        assert (code, err) == (0, "") and out == want


@pytest.mark.parametrize("value", [np.nan, np.inf], ids=["nan", "inf"])
@pytest.mark.parametrize("where", ["first", "last", "buffer-end", "buffer-start"])
def test_unused_non_finite_word_vector_is_one_error_line(trained, tmp_path, value, where):
    def poison(matrix, vocab):
        row = {"first": 0, "last": len(vocab) - 1}.get(where)
        if row is None:
            row = boundary_rows(matrix.shape[1])[where == "buffer-start"]
        assert row not in range(FILLERS, FILLERS + 12)   # no test input holds its word
        matrix[row, 1] = value

    ckpt = padded(trained["checkpoint"], tmp_path / "bad.ckpt", poison)
    want = f"error: {ckpt}: non-finite values in 'word_emb'\n"
    assert full_matrix_error(ckpt) == want
    for result in run_all(trained, ckpt):
        assert result == (1, "", want)


def test_unused_duplicate_word_is_one_error_line(trained, tmp_path):
    ckpt = padded(trained["checkpoint"], tmp_path / "bad.ckpt",
                  lambda matrix, vocab: vocab.__setitem__(-1, vocab[-2]))
    want = f"error: {ckpt}: duplicate word in vocabulary\n"
    assert full_matrix_error(ckpt) == want
    for result in run_both(trained, ckpt):
        assert result == (1, "", want)


@pytest.mark.parametrize("stored", [True, False])
def test_dropped_training_switches_change_no_restored_model(trained, tmp_path, stored):
    # files written before dropout_mention, select_on_adjusted and the one
    # candidate-selecting loss became the only behaviour hold any value of
    # them (mode was "standard" or "variant"); all three acted only in training
    def old_format(meta):
        meta["hyperparams"]["dropout_mention"] = stored
        meta["loss_config"]["select_on_adjusted"] = stored
        meta["loss_config"]["mode"] = "standard" if stored else 0

    ckpt = rewrite_meta(trained["checkpoint"], tmp_path / "old.ckpt", old_format)
    assert checkpoint_load(ckpt)[0]["hyperparams"]["dropout_mention"] is stored
    old, new = load_checkpoint(str(ckpt)), load_checkpoint(trained["checkpoint"])
    assert (old.hyperparams, old.loss_config) == (new.hyperparams, new.loss_config)
    for (code, out, err), (_, want, _) in zip(run_both(trained, ckpt),
                                               run_both(trained, trained["checkpoint"])):
        assert (code, err) == (0, "") and out == want
    export = [run_cli(["export-types", "--set", f"checkpoint={c}"])
              for c in (ckpt, trained["checkpoint"])]
    assert export[0] == export[1] and export[0][0] == 0


def test_vocabulary_one_word_short_is_one_error_line(trained, tmp_path):
    # the checkpoint's reader checks the vocabulary against the matrix;
    # ``WordEmbeddings`` takes the words it passes as they are
    shape = tuple(checkpoint_load(trained["checkpoint"])[1]["word_emb"].shape)
    ckpt = rewrite_meta(trained["checkpoint"], tmp_path / "short.ckpt",
                        lambda meta: meta["vocab"].pop())
    want = f"error: {ckpt}: matrix shape {shape} does not match {shape[0] - 1} words\n"
    assert full_matrix_error(ckpt) == want
    for result in run_both(trained, ckpt):
        assert result == (1, "", want)


@pytest.mark.parametrize("types", [
    lambda types: [1],
    lambda types: [types[0], 1],
    lambda types: None,
    lambda types: dict.fromkeys(types, 1),
    lambda types: "".join(types),
], ids=["an-int", "a-path-and-an-int", "null", "an-object", "a-string"])
def test_types_not_a_list_of_strings_is_one_error_line(trained, tmp_path, types):
    # the forest is built only from a list of paths, as the vocabulary is
    # read only from a list of words
    ckpt = rewrite_meta(trained["checkpoint"], tmp_path / "bad.ckpt",
                        lambda meta: meta.update(types=types(meta["types"])))
    want = f"error: {ckpt}: types is not a list of strings\n"
    for result in run_both(trained, ckpt) + [run_cli(["export-types",
                                                      "--set", f"checkpoint={ckpt}"])]:
        assert result == (1, "", want)


@pytest.mark.parametrize("cut,name", [
    (lambda size, at: at + (size - at) // 2, "word_emb"),   # inside the word matrix
    (lambda size, at: size - 8, "cls_b"),                   # inside the last tensor
], ids=["matrix", "last-tensor"])
def test_truncated_checkpoint_is_one_error_line(trained, tmp_path, cut, name):
    ckpt = padded(trained["checkpoint"], tmp_path / "bad.ckpt")
    raw = ckpt.read_bytes()
    length_end = raw.index(b"\n", len(MAGIC))   # the matrix follows the meta block
    matrix_at = length_end + 1 + int(raw[len(MAGIC):length_end])
    ckpt.write_bytes(raw[:cut(len(raw), matrix_at)])
    want = f"error: {ckpt}: truncated tensor {name!r}\n"
    assert full_matrix_error(ckpt) == want
    for result in run_both(trained, ckpt):
        assert result == (1, "", want)


@pytest.mark.parametrize("fault", ["truncated-tensor", "bad-setting", "malformed-input"])
def test_a_fault_found_before_the_values_is_reported_before_a_non_finite_word_vector(
        trained, tmp_path, fault):
    # a load checks the file's structure, then the stored settings, then the
    # input, and only then reads a value, whichever rows of the matrix it
    # keeps: all of them, the input's (eval, predict) or none (export-types)
    src = trained["checkpoint"]
    if fault == "bad-setting":
        src = rewrite_meta(src, tmp_path / "setting.ckpt",
                           lambda meta: meta["hyperparams"].update(window=0))
    ckpt = padded(src, tmp_path / "bad.ckpt",
                  lambda matrix, vocab: matrix.__setitem__((-1, 0), np.nan))
    source = None
    if fault == "truncated-tensor":
        ckpt.write_bytes(ckpt.read_bytes()[:-8])
        want = [f"error: {ckpt}: truncated tensor 'cls_b'\n"] * 3
    elif fault == "bad-setting":
        want = [f"error: {ckpt}: window must be >= 1, got 0\n"] * 3
    else:
        source = tmp_path / "bad.tsv"
        source.write_text("0 9\tJordan\t/a\n")
        # the input's fault, as the sound checkpoint reports it; export-types
        # reads no input, so the word vector is its first fault
        want = [err for _, _, err in run_both(trained, src, source)]
        assert all(line.startswith(f"error: {source}:1: ") for line in want)
        want.append(f"error: {ckpt}: non-finite values in 'word_emb'\n")
    if source is None:
        assert full_matrix_error(ckpt) == want[0]
    assert run_all(trained, ckpt, source) == [(1, "", line) for line in want]


@pytest.mark.parametrize("fault", ["bad-setting", "malformed-input", "none"])
def test_no_tensor_byte_is_read_before_the_settings_and_the_input_are_checked(
        trained, tmp_path, monkeypatch, fault):
    # ``nfetc predict`` refuses a bad setting or input line without reading
    # the word matrix (here one of two reads and a bit through the load's
    # buffer) or any other tensor; a sound run streams each tensor once
    src, source = trained["checkpoint"], trained["test"]
    if fault == "bad-setting":
        src = rewrite_meta(src, tmp_path / "setting.ckpt",
                           lambda meta: meta["hyperparams"].update(window=0))
    elif fault == "malformed-input":
        source = tmp_path / "bad.tsv"
        source.write_text("0 9\tJordan\t/a\n")
    ckpt = padded(src, tmp_path / "big.ckpt")
    names = [e["name"] for e in checkpoint_load(ckpt)[0]["params"]]
    real, streamed = checkpoint_module._blocks, []

    def counting(f, path, name, *args):
        streamed.append(name)
        return real(f, path, name, *args)

    monkeypatch.setattr(checkpoint_module, "_blocks", counting)
    code, out, err = run_cli(["predict", "--set", f"checkpoint={ckpt}",
                              "--set", f"input={source}"])
    if fault == "none":
        assert (code, err) == (0, "") and out
        assert streamed == names
    else:
        assert code == 1 and out == "" and err.startswith("error: ")
        assert streamed == []


def big_embeddings() -> WordEmbeddings:
    """40,000 words of 300 zeros: a 96 MB matrix beside the few rows the
    memory tests' inputs use."""
    words = [f"w{i}" for i in range(40000)]
    return WordEmbeddings(words, np.zeros((len(words), 300)))


def peak_run(argv) -> tuple[int, int, str]:
    """(exit code, peak resident bytes, stderr) of ``nfetc <argv>`` in a
    subprocess. The peak is read from VmHWM, as ``ru_maxrss`` keeps the peak
    of the process it was forked from."""
    script = ("import sys\nfrom nfetc.cli import main\ncode = main(sys.argv[1:])\n"
              "print(code, *[line.split()[1] for line in open('/proc/self/status')\n"
              "              if line.startswith('VmHWM:')])")
    env = dict(os.environ, PYTHONPATH=str(README.parent / "src"), OPENBLAS_NUM_THREADS="1")
    proc = subprocess.run([sys.executable, "-c", script, *argv],
                          capture_output=True, text=True, env=env, timeout=300)
    code, peak_kib = proc.stdout.splitlines()[-1].split()   # after what the command prints
    return int(code), int(peak_kib) * 1024, proc.stderr


def big_checkpoint(path) -> int:
    """Save a model on ``big_embeddings()`` to ``path``; the byte size of its
    word matrix."""
    embeddings = big_embeddings()
    forest = TypeForest(["/a", "/a/b", "/c"])
    hp = figer_hp(d_p=2, d_s=3, window=2)
    save_checkpoint(str(path), hp, LossConfig(), forest, embeddings,
                    NfetcModel(hp, embeddings, forest, make_rng(0)).params)
    return embeddings.matrix.nbytes


def test_predict_peak_memory_stays_below_the_word_matrix(tmp_path):
    # ``nfetc predict`` on a 40,000 x 300 word matrix (96 MB) and three
    # mentions: the process never holds the matrix, only its mentions' rows
    ckpt = tmp_path / "big.ckpt"
    matrix_bytes = big_checkpoint(ckpt)
    source = tmp_path / "in.tsv"
    source.write_text("1 2\tw5 w17 w39999\n0 1\tw3\n0 2\tw8 unknown\n")
    code, peak, err = peak_run(["predict", "--set", f"checkpoint={ckpt}", "--set", f"input={source}",
                                "--set", f"output={tmp_path / 'out.tsv'}"])
    assert code == 0, err
    assert len((tmp_path / "out.tsv").read_text().splitlines()) == 3
    assert peak < matrix_bytes


def test_predict_of_every_word_peaks_below_the_word_matrix(tmp_path):
    # ``nfetc predict`` on a 40,000 x 300 word matrix (96 MB) and 8,000
    # mentions that use every word: the rows are read from the checkpoint
    # one chunk at a time, so the process never holds the input's rows
    ckpt = tmp_path / "big.ckpt"
    matrix_bytes = big_checkpoint(ckpt)   # window 2: five tokens a mention
    source = tmp_path / "in.tsv"
    source.write_text("".join(f"2 3\t{' '.join(f'w{j}' for j in range(i, i + 5))}\n"
                              for i in range(0, 40000, 5)))
    code, peak, err = peak_run(["predict", "--set", f"checkpoint={ckpt}", "--set", f"input={source}",
                                "--set", f"output={tmp_path / 'out.tsv'}"])
    assert code == 0, err
    assert len((tmp_path / "out.tsv").read_text().splitlines()) == 8000
    assert peak < matrix_bytes, peak


def test_predict_peak_memory_does_not_grow_with_the_input(tmp_path):
    # ``nfetc predict`` holds the words of its input and one block's
    # mentions, rows and lines, so ten times the input peaks within 1.2x:
    # 40,000 mentions against 4,000 on a small checkpoint (2,000 words of
    # 20 values, 40 types). Holding the input's mentions, rows and lines
    # until the end peaked 2.5x higher (41 against 103 MB)
    rng = make_rng(5)
    words = [f"w{i}" for i in range(2000)]
    embeddings = WordEmbeddings(words, rng.uniform(-0.5, 0.5, size=(len(words), 20)))
    forest = TypeForest([f"/t{i}" for i in range(20)] + [f"/t{i}/s" for i in range(20)])
    hp = figer_hp(d_p=2, d_s=3, window=2)
    ckpt = tmp_path / "small.ckpt"
    save_checkpoint(str(ckpt), hp, LossConfig(), forest, embeddings,
                    NfetcModel(hp, embeddings, forest, make_rng(0)).params)
    lines = "".join(f"2 3\t{' '.join(words[(7 * i + j) % len(words)] for j in range(6))}\n"
                    for i in range(4000))
    peaks = []
    for times in (1, 10):
        source = tmp_path / f"in{times}.tsv"
        source.write_text(lines * times)
        code, peak, err = peak_run(["predict", "--set", f"checkpoint={ckpt}",
                                    "--set", f"input={source}",
                                    "--set", f"output={tmp_path / 'out.tsv'}"])
        assert code == 0, err
        assert len((tmp_path / "out.tsv").read_text().splitlines()) == 4000 * times
        peaks.append(peak)
    assert peaks[1] <= 1.2 * peaks[0], peaks


def test_export_types_peak_memory_stays_below_the_word_matrix(tmp_path):
    # ``nfetc export-types`` on a 40,000 x 300 word matrix (96 MB): the
    # matrix is checked through the load's buffer and no row of it is kept
    ckpt = tmp_path / "big.ckpt"
    matrix_bytes = big_checkpoint(ckpt)
    out = tmp_path / "types.csv"
    code, peak, err = peak_run(["export-types", "--set", f"checkpoint={ckpt}",
                                "--set", f"output={out}"])
    assert code == 0, err
    assert [line.split(",")[0] for line in out.read_text().splitlines()] == ["/a", "/a/b", "/c"]
    assert peak < matrix_bytes, peak


def test_train_peak_memory_stays_below_the_word_matrix(tmp_path):
    # ``nfetc train`` on a cache hit of a 40,000 x 300 word matrix (96 MB)
    # and three mentions, saving a checkpoint: the check of the cache, the
    # model's rows and the checkpoint's copy of the matrix all read the
    # cache through one buffer, and nothing maps it. The cache is written
    # straight, keyed by a stand-in text, so that no 84 MB text is parsed
    embeddings = big_embeddings()
    text = tmp_path / "emb.txt"
    text.write_text("w0 " + " ".join(["0"] * 300) + "\n")
    save(f"{text}{CACHE_SUFFIX}",
         {"source_sha256": hashlib.sha256(text.read_bytes()).hexdigest(),
          "vocab": embeddings.words}, [("word_emb", False, embeddings.matrix)])
    matrix_bytes = embeddings.matrix.nbytes
    del embeddings
    (tmp_path / "types.txt").write_text("/a\n/a/b\n/c\n")
    corpus = tmp_path / "corpus.tsv"
    corpus.write_text("1 2\tw5 w17 w39999\t/a/b\n0 1\tw3\t/c\n0 2\tw8 unknown\t/a\n")
    code, peak, err = peak_run(
        ["train", "--set", f"types={tmp_path / 'types.txt'}", "--set", f"train={corpus}",
         "--set", f"test={corpus}", "--set", f"embeddings={text}", "--set", "dev_fraction=0.5",
         "--set", "dp=2", "--set", "ds=3", "--set", "window=2", "--set", "epochs=1",
         "--set", f"checkpoint={tmp_path / 'model.ckpt'}"])
    assert code == 0, err
    assert load_checkpoint(str(tmp_path / "model.ckpt")).model.embeddings.matrix.shape == (40000, 300)
    assert peak < matrix_bytes, peak


def test_a_cache_truncated_after_the_load_is_one_error_line(tmp_path):
    # a cache that shrinks under a run is read through its descriptor, so
    # it is a truncated file like any other. In a subprocess, so that a
    # reader that mapped it, and died of SIGBUS, would not take the test run
    # with it
    world = write_world(tmp_path / "w")
    WordEmbeddings.from_file(world["embeddings"])   # writes the cache, so the run's load is a hit
    cache = f"{world['embeddings']}{CACHE_SUFFIX}"
    script = ("import os, sys\nfrom nfetc import cli\nload = cli.WordEmbeddings.from_file\n"
              "def load_then_truncate(path):\n    embeddings = load(path)\n"
              "    os.truncate(f'{path}.nfetc-cache', 0)\n    return embeddings\n"
              "cli.WordEmbeddings.from_file = load_then_truncate\n"
              "sys.exit(cli.main(sys.argv[1:]))")
    argv = ["train", *FAST, "--set", "dev_fraction=0.5",
            *[x for k in ("types", "train", "test", "embeddings") for x in ("--set", f"{k}={world[k]}")]]
    env = dict(os.environ, PYTHONPATH=str(README.parent / "src"))
    proc = subprocess.run([sys.executable, "-c", script, *argv],
                          capture_output=True, text=True, env=env, timeout=300)
    assert (proc.returncode, proc.stdout, proc.stderr) == (
        1, "", f"error: {cache}: truncated tensor 'word_emb'\n")


@pytest.mark.parametrize("command,key", [("predict", "output"), ("eval", "report")])
@pytest.mark.parametrize("change", ["truncated", "non-finite", "renamed-over"])
def test_a_checkpoint_changed_after_the_load(trained, tmp_path, command, key, change):
    # eval and predict read their word rows from the checkpoint after the
    # load, through the descriptor the load read through, and check them
    # again: a file truncated or given a NaN in place by then is one error
    # line and no output, and a file renamed over it changes nothing. In a
    # subprocess, so that a reader that mapped it, and died of SIGBUS,
    # would not take the test run with it
    ckpt = tmp_path / "model.ckpt"
    ckpt.write_bytes(Path(trained["checkpoint"]).read_bytes())
    raw = ckpt.read_bytes()
    length_end = raw.index(b"\n", len(MAGIC))   # the matrix follows the meta block
    matrix_at = length_end + 1 + int(raw[len(MAGIC):length_end])
    meta = checkpoint_load(ckpt)[0]
    d_w = meta["params"][0]["shape"][1]
    at = matrix_at + 8 * d_w * meta["vocab"].index("cat")   # a word of the input
    edit = {"truncated": "os.truncate(path, 0)",
            "non-finite": f"with open(path, 'r+b') as f: f.seek({at}); f.write(bytes.fromhex("
                          f"'{np.array([np.nan], '<f8').tobytes().hex()}'))",
            "renamed-over": "open(f'{path}.new', 'wb').close(); os.replace(f'{path}.new', path)",
            }[change]
    script = ("import os, sys\nfrom nfetc import cli\nload = cli.load_checkpoint\n"
              "def load_then_change(path, wanted):\n    restored = load(path, wanted)\n"
              f"    {edit}\n    return restored\n"
              "cli.load_checkpoint = load_then_change\n"
              "sys.exit(cli.main(sys.argv[1:]))")
    out = tmp_path / "out.txt"
    argv = [command, "--set", f"checkpoint={ckpt}", "--set", f"input={trained['test']}",
            "--set", f"{key}={out}"]
    env = dict(os.environ, PYTHONPATH=str(README.parent / "src"))
    proc = subprocess.run([sys.executable, "-c", script, *argv],
                          capture_output=True, text=True, env=env, timeout=300)
    if change == "renamed-over":
        want = run_cli(argv[:-2] + ["--set", f"checkpoint={trained['checkpoint']}"])
        assert (proc.returncode, proc.stderr) == (0, "")
        assert out.read_text() == want[1] and want[0] == 0
        return
    message = "truncated tensor" if change == "truncated" else "non-finite values in"
    assert (proc.returncode, proc.stdout, proc.stderr) == (
        1, "", f"error: {ckpt}: {message} 'word_emb'\n")
    assert not out.exists()


@pytest.mark.parametrize("count", [1, PREDICT_CHUNK, PREDICT_CHUNK + 1])
def test_rows_read_from_the_file_predict_as_the_whole_matrix(refined_synth, count, monkeypatch):
    # the restore for an input's words leaves the matrix in the file; its
    # rows, read chunk by chunk, one take per chunk, give the rows of the
    # whole matrix bit for bit
    ckpt, _ = refined_synth
    whole = load_checkpoint(str(ckpt))
    corpus = windowed(parse_corpus(SYNTH / "train.tsv", whole.forest, allow_unlabeled=True),
                      whole.hyperparams.window)[:count]
    filed = load_checkpoint(str(ckpt), lambda forest, hp: set().union(*(t.tokens for t in corpus)))
    assert isinstance(filed.model.embeddings.matrix, checkpoint_module.Frozen)
    assert len(filed.model.embeddings) < len(whole.model.embeddings)
    takes = []
    take = checkpoint_module.Frozen.take
    monkeypatch.setattr(checkpoint_module.Frozen, "take",
                        lambda self, rows, out=None: takes.append(rows) or take(self, rows, out))
    assert (filed.model.predict_probs(corpus).tobytes()
            == whole.model.predict_probs(corpus).tobytes())
    assert len(takes) == -(-count // PREDICT_CHUNK)


@pytest.mark.skipif(not os.path.isdir("/proc/self/fd"), reason="needs /proc/self/fd")
def test_predict_leaves_no_descriptor_open(trained):
    # the checkpoint stays open for the command, and no longer
    gc.collect()   # an earlier test's traceback may hold an open file in a cycle
    before = len(os.listdir("/proc/self/fd"))
    for _ in range(3):
        code, out, err = run_cli(["predict", "--set", f"checkpoint={trained['checkpoint']}",
                                  "--set", f"input={trained['test']}"])
        assert (code, err) == (0, "") and out
        assert len(os.listdir("/proc/self/fd")) == before


def test_no_command_maps_a_file(trained, tmp_path, monkeypatch):
    # with every mapping refused, ``nfetc train`` on a cache hit, then
    # ``eval``, ``predict`` and ``export-types`` on its checkpoint, give what
    # the shared run (a cache miss) and its checkpoint give
    unlabeled = tmp_path / "in.tsv"
    unlabeled.write_text("1 2\tthe cat went\n1 2\ta dog sat\n0 1\tunknown\n")

    def uses(ckpt, out):
        return [["eval", "--set", f"checkpoint={ckpt}", "--set", f"test={trained['test']}",
                 "--set", "json=true", "--set", "per_type=true"],
                ["predict", "--set", f"checkpoint={ckpt}", "--set", f"input={unlabeled}",
                 "--set", f"output={out}.predict"],
                ["export-types", "--set", f"checkpoint={ckpt}", "--set", f"output={out}.csv"]]

    def outputs(ckpt, out):
        return [run_cli(argv) for argv in uses(ckpt, out)] + [
            Path(f"{out}.predict").read_bytes(), Path(f"{out}.csv").read_bytes()]

    want = outputs(trained["checkpoint"], tmp_path / "want")
    world = write_world(tmp_path / "w")
    WordEmbeddings.from_file(world["embeddings"])   # writes the cache, so train's load is a hit
    monkeypatch.setattr(mmap, "mmap", lambda *a, **k: pytest.fail("a command mapped a file"))
    run = tmp_path / "run"
    run.mkdir()
    code, out, err = run_cli(["train"] + FAST + [
        *[x for k in ("types", "train", "test", "embeddings") for x in ("--set", f"{k}={world[k]}")],
        "--set", f"checkpoint={run / 'model.ckpt'}", "--set", f"log={run / 'log.txt'}",
        "--set", f"report={run / 'report.txt'}"])
    assert (code, out, err) == (0, trained["stdout"], "")
    for name in ("checkpoint", "log", "report"):
        assert Path(run / Path(trained[name]).name).read_bytes() == Path(trained[name]).read_bytes()
    assert outputs(run / "model.ckpt", tmp_path / "got") == want
    assert all(code == 0 for code, _, _ in want[:3])


# -- eval and predict read their input twice, the second time block by block ----------


def repeated_synth(path, count) -> Path:
    """The synth corpus's lines, repeated to ``count`` lines, at ``path``."""
    lines = (SYNTH / "train.tsv").read_text().splitlines(True)
    path.write_text("".join((lines * (count // len(lines) + 1))[:count]))
    return path


@pytest.mark.parametrize("count", [1, cli_module.PREDICT_BLOCK, cli_module.PREDICT_BLOCK + 1])
def test_blocks_predict_and_score_what_the_whole_input_gives(refined_synth, tmp_path, count,
                                                             monkeypatch):
    # predict and eval run the model once per block of the input and print
    # what the whole input's rows, formatted and scored in one piece, give
    ckpt, refinement = refined_synth
    source = repeated_synth(tmp_path / "in.tsv", count)
    calls = []
    real = NfetcModel.predict_probs
    monkeypatch.setattr(NfetcModel, "predict_probs",
                        lambda self, triples: calls.append(len(triples)) or real(self, triples))
    code, out, err = run_cli(["predict", "--set", f"checkpoint={ckpt}", "--set", f"input={source}"])
    blocks = [min(cli_module.PREDICT_BLOCK, count - lo)
              for lo in range(0, count, cli_module.PREDICT_BLOCK)]
    assert (code, err, calls) == (0, "", blocks)
    calls.clear()
    code, scored, err = run_cli(["eval", "--set", f"checkpoint={ckpt}", "--set", f"test={source}",
                                 "--set", f"types={SYNTH / 'types.txt'}",
                                 "--set", f"refinement={refinement}",
                                 "--set", "per_type=true", "--set", "json=true"])
    assert (code, err, calls) == (0, "", blocks)
    monkeypatch.undo()
    assert out == full_matrix_predict(ckpt, source)
    _, mapping = apply_refinement(TypeForest.from_file(SYNTH / "types.txt"),
                                  read_refinement(refinement))
    assert scored == full_matrix_eval(ckpt, source, mapping)


def refined_argv(command, refined_synth) -> list[str]:
    """``command`` on the refined synth checkpoint, with the forest and
    refinement that eval reads the synth labels through."""
    ckpt, refinement = refined_synth
    return [command, "--set", f"checkpoint={ckpt}", "--set", f"types={SYNTH / 'types.txt'}",
            "--set", f"refinement={refinement}"]


def run_on_stdin(argv, text: str):
    """(exit code, stdout, stderr) of ``nfetc <argv>`` in a subprocess
    whose standard input is a pipe that ``text`` is written to."""
    env = dict(os.environ, PYTHONPATH=str(README.parent / "src"))
    proc = subprocess.run([sys.executable, "-m", "nfetc.cli", *argv], input=text,
                          capture_output=True, text=True, env=env, timeout=300)
    return proc.returncode, proc.stdout, proc.stderr


@pytest.mark.parametrize("command", ["predict", "eval"])
def test_a_pipe_gives_what_its_file_gives(refined_synth, tmp_path, command):
    # a pipe cannot be read twice: its bytes are kept aside in the first pass
    source = repeated_synth(tmp_path / "in.tsv", cli_module.PREDICT_BLOCK + 1)
    argv = refined_argv(command, refined_synth) + ["--set", "per_type=true"]
    want = run_cli(argv + ["--set", f"input={source}"])
    assert want[0] == 0 and want[1]
    assert run_on_stdin(argv + ["--set", "input=/dev/stdin"], source.read_text()) == want


def changed_between_the_passes(monkeypatch, source: Path, edit):
    """Make ``edit(source)`` run once the checkpoint is loaded, that is
    between the input's first pass and its second."""
    real = cli_module.load_checkpoint

    def load_then_edit(path, wanted):
        restored = real(path, wanted)
        edit(source)
        return restored

    monkeypatch.setattr(cli_module, "load_checkpoint", load_then_edit)


@pytest.mark.parametrize("command,key", [("predict", "output"), ("eval", "report")])
@pytest.mark.parametrize("edit", [
    lambda p: p.write_text(p.read_text() + "0 1\tcompany\t/org\n"),
    lambda p: p.write_text(p.read_text().replace("company", "cpmpany", 1)),
    lambda p: p.write_text(p.read_text()[:-40]),
    lambda p: p.write_text("0 1\n" + p.read_text())], ids=["appended", "one-byte", "cut", "malformed"])
def test_an_input_changed_between_the_passes_is_one_error_line(
        refined_synth, tmp_path, monkeypatch, command, key, edit):
    # the second pass reads bytes of another crc32 (or a line the first pass
    # did not see): no output is written, and the last block's lines are not
    # printed to a file
    source = repeated_synth(tmp_path / "in.tsv", cli_module.PREDICT_BLOCK + 1)
    changed_between_the_passes(monkeypatch, source, edit)
    out = tmp_path / "out.txt"
    code, printed, err = run_cli(refined_argv(command, refined_synth)
                                 + ["--set", f"input={source}", "--set", f"{key}={out}"])
    assert (code, printed, err) == (1, "", f"error: {source}: changed while it was read\n")
    assert sorted(p.name for p in tmp_path.iterdir()) == ["in.tsv"]


@pytest.mark.parametrize("command", ["predict", "eval"])
def test_an_input_renamed_over_between_the_passes_changes_nothing(
        refined_synth, tmp_path, monkeypatch, command):
    # both passes read through the descriptor the first one opened
    source = repeated_synth(tmp_path / "in.tsv", 300)
    argv = refined_argv(command, refined_synth) + ["--set", f"input={source}"]
    want = run_cli(argv)

    def rename_over(path):
        other = tmp_path / "other.tsv"
        other.write_text("0 1\tcompany\t/org\n")
        os.replace(other, path)

    changed_between_the_passes(monkeypatch, source, rename_over)
    assert run_cli(argv) == want and want[0] == 0


@pytest.mark.parametrize("command,key", [
    ("eval", "report"), ("stats", "report"), ("predict", "output"), ("export-types", "output"),
    ("train", "report")])
def test_a_failed_write_leaves_the_earlier_output_whole(trained, tmp_path, monkeypatch,
                                                        command, key):
    # every output is written beside its target and renamed over it once
    # whole: a write that fails leaves the earlier file and no other
    target = tmp_path / "out.txt"
    target.write_text("an earlier good output\n")
    files = {"input": trained["test"], **trained}
    argv = [command] + (FAST if command == "train" else []) + [
        x for name in INPUTS_OF[command] for x in ("--set", f"{name}={files[name]}")]

    def disk_full(fd):
        raise OSError(28, "No space left on device")

    monkeypatch.setattr(os, "fsync", disk_full)
    code, _, err = run_cli(argv + ["--set", f"{key}={target}"])
    assert (code, err) == (1, "error: [Errno 28] No space left on device\n")
    assert target.read_text() == "an earlier good output\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["out.txt"]
    monkeypatch.undo()
    code, out, err = run_cli(argv + ["--set", f"{key}={target}"])
    assert (code, err) == (0, "")
    written = target.read_text()
    assert written and written != "an earlier good output\n"
    assert out.endswith(written) if key == "report" else out == ""


@pytest.mark.parametrize("command,key", [("predict", "output"), ("eval", "report")])
def test_an_output_through_a_symlink_replaces_the_file_it_names(trained, tmp_path, command, key):
    # the link stays, and the file it names is replaced, keeping its mode
    target = tmp_path / "real.txt"
    target.write_text("an earlier good output\n")
    target.chmod(0o640)
    link = tmp_path / "latest.txt"
    link.symlink_to("real.txt")
    code, out, err = run_cli([command, "--set", f"checkpoint={trained['checkpoint']}",
                              "--set", f"input={trained['test']}", "--set", f"{key}={link}"])
    assert (code, err) == (0, "")
    assert link.is_symlink() and os.readlink(link) == "real.txt"
    written = target.read_text()
    assert written and written != "an earlier good output\n"
    assert out.endswith(written) if key == "report" else out == ""
    assert stat.S_IMODE(target.stat().st_mode) == 0o640
    assert sorted(p.name for p in tmp_path.iterdir()) == ["latest.txt", "real.txt"]


@pytest.mark.parametrize("kind", ["hard link", "another owner"])
def test_an_output_a_rename_would_change_is_written_in_place(trained, tmp_path, monkeypatch,
                                                             kind):
    # a rename would leave a second link with the old output, or give the
    # file this user as its owner
    target = tmp_path / "out.txt"
    target.write_text("an earlier good output\n")
    if kind == "hard link":
        os.link(target, tmp_path / "other.txt")
    elif os.geteuid() == 0:
        os.chown(target, 4321, -1)
    else:
        pytest.skip("giving a file away needs root")
    owner = target.stat().st_uid
    monkeypatch.setattr(cli_module, "replacing",
                        lambda *a, **k: pytest.fail("the file was to be replaced"))
    code, _, err = run_cli(["predict", "--set", f"checkpoint={trained['checkpoint']}",
                            "--set", f"input={trained['test']}", "--set", f"output={target}"])
    assert (code, err) == (0, "")
    assert target.read_text() != "an earlier good output\n"
    assert target.stat().st_uid == owner
    if kind == "hard link":
        assert os.path.samefile(target, tmp_path / "other.txt")


@pytest.mark.skipif(not os.path.exists("/dev/null"), reason="needs /dev/null")
@pytest.mark.parametrize("command,key", [("predict", "output"), ("eval", "report")])
def test_an_output_that_is_no_regular_file_is_written_in_place(trained, monkeypatch,
                                                                command, key):
    # /dev/null is opened and written, never replaced
    monkeypatch.setattr(cli_module, "replacing",
                        lambda *a, **k: pytest.fail("a device was to be replaced"))
    code, out, err = run_cli([command, "--set", f"checkpoint={trained['checkpoint']}",
                              "--set", f"input={trained['test']}", "--set", f"{key}=/dev/null"])
    assert (code, err) == (0, "")
    assert out.startswith("strict=") if command == "eval" else out == ""
    assert stat.S_ISCHR(os.stat("/dev/null").st_mode)
