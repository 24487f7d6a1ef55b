import contextlib
import io
import json
import re
import shlex
from pathlib import Path

import numpy as np
import pytest

from ckptedit import rewrite_meta, rewrite_params
from nfetc import cli as cli_module
from nfetc.cli import main
from nfetc.model import NfetcModel
from nfetc.optim import make_rng
from nfetc.training import load_checkpoint

MINI = Path(__file__).parent / "fixtures" / "mini"
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
    """Run the CLI while keeping each value that ``nfetc.cli.<name>`` (``train``
    or ``run_multi``) returns, so a test can compare the files it wrote."""
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
        assert np.array_equal(restored[name].data, arr), name


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
        "--set", "seeds=a,b"])
    assert code == 2
    assert "comma-separated integers" in err


def test_unknown_variant_is_reported(world):
    code, _, err = run_cli(["train"] + FAST + [
        "--set", f"types={world['types']}", "--set", f"train={world['train']}",
        "--set", f"test={world['test']}", "--set", f"embeddings={world['embeddings']}",
        "--set", "variant=NFETC-super"])
    assert code == 1
    assert "NFETC(f)" in err


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
    assert "empty" in err


# -- train --------------------------------------------------------------------------


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


def test_train_multi_seed_aggregate(world, tmp_path):
    ckpt = tmp_path / "multi.ckpt"
    argv = ["train"] + FAST + [
        "--set", f"types={world['types']}", "--set", f"train={world['train']}",
        "--set", f"test={world['test']}", "--set", f"embeddings={world['embeddings']}",
        "--set", "epochs=1", "--set", "seeds=3,4", "--set", "seed=9",
        "--set", f"checkpoint={ckpt}", "--set", f"log={tmp_path / 'log.txt'}"]
    code, out, err, results = run_cli_recording(argv, "run_multi")
    assert code == 0, err
    lines = out.splitlines()
    assert re.fullmatch(r"strict=\d+\.\d±\d+\.\d macro=\d+\.\d±\d+\.\d "
                        r"micro=\d+\.\d±\d+\.\d", lines[0])
    assert lines[1].startswith("seed=3 strict=")
    assert lines[2].startswith("seed=4 strict=")
    match = re.fullmatch(r"checkpoint=.* \(seed ([34])\)", lines[3])
    assert match

    # the checkpoint holds the best-epoch snapshot of the reported seed's run,
    # the run with the highest final strict accuracy
    (multi,) = results
    runs = dict(zip((3, 4), multi.runs))
    best = int(match.group(1))
    assert runs[best].final.strict == max(r.final.strict for r in multi.runs)
    other = runs[7 - best].best_values
    assert any(not np.array_equal(a, other[n]) for n, a in runs[best].best_values.items())
    assert_checkpoint_holds(str(ckpt), runs[best].best_values)
    # and records that run's seed, not the config's seed=9
    assert load_checkpoint(str(ckpt)).hyperparams.seed == best


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
    # with types given, the refinement file is read
    code, out, err = run_cli(base + ["--set", f"types={trained['types']}"])
    assert code == 1 and out == "" and "/nonexistent" in err


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
    w = restored.model.params["cls_w"].data
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
], ids=["extra-hyperparam", "missing-loss-key", "descriptor-without-shape",
        "types-short-of-classifier", "duplicate-descriptor-name",
        "shape-of-728TiB", "shape-of-2**80-floats", "header-sizes-disagree",
        "meta-not-an-object", "hyperparams-not-an-object"])
def test_predict_malformed_checkpoint_is_one_error_line(trained, tmp_path, edit):
    ckpt = rewrite_meta(trained["checkpoint"], tmp_path / "bad.ckpt", edit)
    code, out, err = run_cli(["predict", "--set", f"checkpoint={ckpt}",
                              "--set", f"input={trained['test']}"])
    assert code == 1
    assert out == ""
    assert err.startswith(f"error: {ckpt}: ") and err.count("\n") == 1


def flip_flags(meta):
    for e in meta["params"]:
        e["trainable"] = not e["trainable"]


@pytest.mark.parametrize("name,rewrite,edit", [
    ("attn_w", rewrite_params, lambda values: values.pop("attn_w")),
    ("men.w_rec", rewrite_params, lambda values: values.pop("men.w_rec")),
    ("ctx_bw.w_rec", rewrite_params,
     lambda values: values.update({"ctx_bw.w_rec": values["ctx_bw.w_rec"].T})),
    ("word_emb", rewrite_meta, flip_flags),
    ("cls_b", rewrite_meta, lambda meta: meta["params"][-1].update(trainable=False)),
], ids=["without-attn_w", "without-men.w_rec", "ctx_bw.w_rec-transposed",
        "every-flag-flipped", "cls_b-frozen"])
def test_predict_checkpoint_tensor_problems_are_one_error_line(trained, tmp_path, name,
                                                               rewrite, edit):
    ckpt = rewrite(trained["checkpoint"], tmp_path / "bad.ckpt", edit)
    code, out, err = run_cli(["predict", "--set", f"checkpoint={ckpt}",
                              "--set", f"input={trained['test']}"])
    assert code == 1
    assert out == ""
    assert err.startswith(f"error: {ckpt}: ") and err.count("\n") == 1
    assert repr(name) in err
