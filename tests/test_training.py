import contextlib
import io
import math
import re
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from nfetc import checkpoint, cli
from nfetc import model as model_module
from nfetc import training as training_module
from nfetc.corpus import Corpus, MentionTriple, parse_corpus
from nfetc.embeddings import CACHE_SUFFIX, WordEmbeddings
from nfetc.evaluation import Metrics, evaluate
from nfetc.hierarchy import TypeForest
from nfetc.loss import LossConfig
from nfetc.model import NfetcModel
from nfetc.optim import make_rng
from nfetc.training import (EpochStats, HyperParams, RunResult, TrainingDiverged,
                            VARIANTS, load_checkpoint, params_from_values,
                            save_checkpoint, select_variant, train, training_corpus)
from hparams import figer_hp

VOCAB = ["the", "a", "big", "red", "cat", "dog", "mat",
         "sat", "ran", "on", "lay", "went"]
CLASS_WORDS = {"cat": ("/a", "/a/b"), "dog": ("/c",), "mat": ("/a",)}
TEMPLATES = [("the", "sat"), ("big", "ran"), ("a", "on"), ("red", "lay")]


def make_embeddings() -> WordEmbeddings:
    rng = make_rng(31)
    return WordEmbeddings(VOCAB, rng.uniform(-0.5, 0.5, size=(len(VOCAB), 4)))


def make_forest() -> TypeForest:
    return TypeForest(["/a", "/a/b", "/c"])


def triples(templates, forest):
    out = []
    for word, labels in CLASS_WORDS.items():
        for left, right in templates:
            out.append(MentionTriple((left, word, right), 1, 2, labels,
                                     frozenset(forest.terminal_set(labels))))
    return out


def make_world():
    forest = make_forest()
    train_c = Corpus(triples(TEMPLATES, forest), tag="train")
    dev_c = Corpus(triples([("the", "went")], forest), tag="dev")
    return train_c, dev_c, make_embeddings(), forest


def small_hp(**overrides) -> HyperParams:
    fields = dict(lr=0.01, d_p=3, d_s=4, p_i=1.0, p_o=1.0, window=2,
                  batch=6, epochs=4, patience=2, seed=3)
    fields.update(overrides)
    return figer_hp(**fields)


# -- variant selection ------------------------------------------------------------


def test_select_variant_all_four():
    # the four share one loss: the corpus choice and hier are all a name sets
    choice, cfg = select_variant("NFETC(f)", lam=0.1, beta=0.4)
    assert choice == "filtered"
    assert cfg == LossConfig(lam=0.1, beta=0.4, hier=False)

    choice, cfg = select_variant("NFETC-hier(f)", beta=0.3)
    assert choice == "filtered"
    assert cfg == LossConfig(beta=0.3, hier=True)

    choice, cfg = select_variant("NFETC(r)")
    assert choice == "raw"
    assert cfg == LossConfig(hier=False)

    choice, cfg = select_variant("NFETC-hier(r)", hier_at_inference=True)
    assert choice == "raw"
    assert cfg == LossConfig(hier=True, hier_at_inference=True)
    assert cfg.hier_at_inference


def test_select_variant_rejects_unknown():
    with pytest.raises(ValueError, match=r"NFETC\(f\).*NFETC-hier\(r\)"):
        select_variant("NFETC-super")


def test_training_corpus_choices():
    train_c, _, _, forest = make_world()
    assert training_corpus(train_c, "raw", forest) is train_c
    filtered = training_corpus(train_c, "filtered", forest)
    assert len(filtered) == len(train_c)  # every label set here is single-path


# -- hyperparameter validation -----------------------------------------------------


@pytest.mark.parametrize("kwargs", [
    {"lr": 0.0}, {"lr": -1.0}, {"d_p": 0}, {"d_s": 0}, {"window": 0},
    {"batch": 0}, {"epochs": 0}, {"patience": 0},
    {"p_i": 0.0}, {"p_o": 1.5}, {"lam": -0.1}, {"beta": -0.4},
    {"lr": math.nan}, {"lr": math.inf}, {"lam": math.nan}, {"lam": math.inf},
    {"beta": math.nan}, {"beta": -math.inf},
])
def test_hyperparams_validation(kwargs):
    # lam and beta are the loss's settings, checked as select_variant makes them
    with pytest.raises(ValueError, match=next(iter(kwargs))):
        if {"lam", "beta"} & set(kwargs):
            select_variant("NFETC-hier(r)", **kwargs)
        else:
            small_hp(**kwargs)


def test_epoch_stats_line_format():
    line = EpochStats(3, 0.123456789, 1.0, 0.5, 0.25).line()
    assert line == "3, 0.123457, 1.0000, 0.5000, 0.2500\n"


# -- the training loop ---------------------------------------------------------------


def test_train_is_deterministic():
    train_c, dev_c, emb, forest = make_world()
    _, config = select_variant("NFETC(f)")
    a = train(train_c, dev_c, emb, forest, small_hp(), config)
    b = train(train_c, dev_c, emb, forest, small_hp(), config)
    assert [s.line() for s in a.epoch_log] == [s.line() for s in b.epoch_log]
    assert a.best_epoch == b.best_epoch
    assert a.best_values.keys() == b.best_values.keys()
    for name in a.best_values:
        assert a.best_values[name].tobytes() == b.best_values[name].tobytes()


def test_float32_training_writes_byte_identical_checkpoints(tmp_path, monkeypatch):
    train_c, dev_c, emb, forest = make_world()
    _, config = select_variant("NFETC-hier(r)", beta=0.4)
    hp = small_hp(p_i=0.7, p_o=0.9)
    paths = [tmp_path / f"{name}.ckpt" for name in ("a", "b", "float64")]
    def run(path):
        result = train(train_c, dev_c, emb, forest, hp, config)
        save_checkpoint(path, hp, config, forest, emb, params_from_values(result.best_values))

    for path in paths[:2]:
        run(path)
    monkeypatch.setattr(model_module, "TRAIN_DTYPE", np.float64)
    run(paths[2])
    a, b, wide = (path.read_bytes() for path in paths)
    assert a == b
    assert a != wide   # the runs above did train in float32


def test_train_seed_changes_the_run():
    train_c, dev_c, emb, forest = make_world()
    _, config = select_variant("NFETC(f)")
    a = train(train_c, dev_c, emb, forest, small_hp(seed=3), config)
    b = train(train_c, dev_c, emb, forest, small_hp(seed=4), config)
    assert any(a.best_values[n].tobytes() != b.best_values[n].tobytes()
               for n in a.best_values)


def test_train_loss_decreases():
    train_c, dev_c, emb, forest = make_world()
    _, config = select_variant("NFETC(f)")
    result = train(train_c, dev_c, emb, forest, small_hp(epochs=8, patience=8),
                   config)
    losses = [s.train_loss for s in result.epoch_log]
    assert min(losses) < losses[0]


def test_train_keeps_best_snapshot():
    train_c, dev_c, emb, forest = make_world()
    _, config = select_variant("NFETC(f)")
    hp = small_hp(epochs=6, patience=6)
    result = train(train_c, dev_c, emb, forest, hp, config)

    assert result.best_dev_strict == max(s.dev_strict for s in result.epoch_log)
    assert result.epoch_log[result.best_epoch - 1].dev_strict == result.best_dev_strict

    # the snapshot really is the parameter set that scored best_dev_strict
    from nfetc.corpus import windowed
    model = NfetcModel(hp, emb, forest, params=params_from_values(result.best_values))
    again = evaluate(model, windowed(dev_c, hp.window), forest, config)
    assert again.strict == result.best_dev_strict


def test_train_early_stopping_bounds():
    train_c, dev_c, emb, forest = make_world()
    _, config = select_variant("NFETC(f)")
    result = train(train_c, dev_c, emb, forest,
                   small_hp(epochs=50, patience=1), config)
    # dev strict over 3 mentions takes one of 4 values, and patience 1 allows
    # no stale epochs, so the run must stop within 5 epochs
    assert len(result.epoch_log) <= 5
    assert result.best_epoch <= len(result.epoch_log)


def test_train_never_touches_word_embeddings():
    train_c, dev_c, emb, forest = make_world()
    before = emb.matrix.copy()
    _, config = select_variant("NFETC(f)")
    result = train(train_c, dev_c, emb, forest, small_hp(), config)
    # snapshots hold only the trained tensors; the matrix stays as it was
    assert "word_emb" not in result.best_values
    assert not any(np.shares_memory(a, emb.matrix) for a in result.best_values.values())
    assert np.array_equal(emb.matrix, before)
    assert not emb.matrix.flags.writeable


def test_train_rejects_empty_corpora():
    train_c, dev_c, emb, forest = make_world()
    _, config = select_variant("NFETC(f)")
    with pytest.raises(ValueError, match="nonempty"):
        train(Corpus([]), dev_c, emb, forest, small_hp(), config)
    with pytest.raises(ValueError, match="nonempty"):
        train(train_c, Corpus([]), emb, forest, small_hp(), config)


def test_train_divergence_aborts_with_context():
    # the gates squash an lr explosion back to finite probabilities, but the
    # blown-up weights leave the float32 range the LSTMs compute in, which is
    # checked before each batch
    train_c, dev_c, emb, forest = make_world()
    _, config = select_variant("NFETC(f)", lam=0.001)
    with np.errstate(over="ignore"), pytest.raises(
            TrainingDiverged, match=r"outside the float32 range at epoch \d+, batch"):
        train(train_c, dev_c, emb, forest, small_hp(lr=1e300), config)
    # an L2 weight near the float64 limit overflows the loss on the first batch
    _, config = select_variant("NFETC(f)", lam=1e308)
    with np.errstate(over="ignore"), pytest.raises(TrainingDiverged, match=re.escape(
            "non-finite loss at epoch 1, batch starting at mention 0 (lr=0.01, seed=3)")):
        train(train_c, dev_c, emb, forest, small_hp(), config)


def embedding_text(words, matrix) -> str:
    """GloVe-style lines that parse back to exactly ``matrix``."""
    return "".join(f"{w} {' '.join(map(repr, row.tolist()))}\n" for w, row in zip(words, matrix))


def test_train_rejects_word_vectors_beyond_float32(tmp_path):
    # finite in float64, but the float32 LSTMs would read them as inf
    train_c, dev_c, emb, forest = make_world()
    matrix = emb.matrix.copy()
    matrix[4, 0] = -1e39
    _, config = select_variant("NFETC(f)")
    far = WordEmbeddings(emb.words, matrix)
    with pytest.raises(TrainingDiverged, match="word vectors outside the float32 range"):
        train(train_c, dev_c, far, forest, small_hp(), config)
    # the range is found once per embeddings object; a second run still stops
    with pytest.raises(TrainingDiverged, match="word vectors outside the float32 range"):
        train(train_c, dev_c, far, forest, small_hp(), config)
    # on a cache hit, in a row that no corpus word uses: the model holds only
    # its corpora's rows, but the whole matrix is checked
    path = tmp_path / "far.txt"
    words = emb.words + ["unused"]
    path.write_text(embedding_text(words, np.vstack([emb.matrix, [[1e39, 0, 0, 0]]])))
    WordEmbeddings.from_file(path)   # writes the cache
    hit = WordEmbeddings.from_file(path)
    assert isinstance(hit.matrix, checkpoint.Frozen) and hit.words == words
    with pytest.raises(TrainingDiverged, match="word vectors outside the float32 range"):
        train(train_c, dev_c, hit, forest, small_hp(), config)


@pytest.mark.parametrize("when", ["before-train", "before-save"])
def test_a_cache_renamed_over_the_loaded_one_changes_nothing(tmp_path, when):
    # the loaded embeddings hold the cache they checked open: a cache of the
    # same shape but other values renamed over it is what a later load
    # finds, while this run trains on and saves the bytes it checked
    train_c, dev_c, emb, forest = make_world()
    _, config = select_variant("NFETC(f)")
    path = tmp_path / "emb.txt"
    path.write_text(embedding_text(emb.words, emb.matrix))
    loaded = WordEmbeddings.from_file(path)
    assert isinstance(loaded.matrix, checkpoint.Frozen)
    cache = f"{path}{CACHE_SUFFIX}"
    meta, tensors = checkpoint.load(cache)
    other = tensors["word_emb"] + 1.0

    def rename_other():
        checkpoint.save(cache, {k: meta[k] for k in ("source_sha256", "vocab")},
                        [("word_emb", False, other)])
        renamed = WordEmbeddings.from_file(path)
        assert np.array_equal(renamed.subset(set(renamed.words)).matrix, other)

    if when == "before-train":
        rename_other()
    result = train(train_c, dev_c, loaded, forest, small_hp(), config)
    if when == "before-save":
        rename_other()
    save_checkpoint(str(tmp_path / "run.ckpt"), small_hp(), config, forest, loaded,
                    params_from_values(result.best_values))
    want = train(train_c, dev_c, emb, forest, small_hp(), config)
    save_checkpoint(str(tmp_path / "want.ckpt"), small_hp(), config, forest, emb,
                    params_from_values(want.best_values))
    assert result.epoch_log == want.epoch_log
    assert (tmp_path / "run.ckpt").read_bytes() == (tmp_path / "want.ckpt").read_bytes()


def test_train_rejects_non_finite_gradient_before_the_update(monkeypatch):
    train_c, dev_c, emb, forest = make_world()
    _, config = select_variant("NFETC(f)")
    real = training_module.gradients
    updates = []

    def poisoned(*args):
        grads = real(*args)
        grads["men.w_rec"] = np.full_like(grads["men.w_rec"], np.inf)
        return grads

    monkeypatch.setattr(training_module, "gradients", poisoned)
    monkeypatch.setattr(training_module, "adam_step", lambda *args: updates.append(args))
    with pytest.raises(TrainingDiverged,
                       match=r"gradient for men\.w_rec at epoch 1, batch starting at mention 0"):
        train(train_c, dev_c, emb, forest, small_hp(), config)
    assert updates == []


def test_train_writes_epoch_log_stream():
    train_c, dev_c, emb, forest = make_world()
    _, config = select_variant("NFETC(f)")
    stream = io.StringIO()
    result = train(train_c, dev_c, emb, forest, small_hp(), config, log=stream)
    assert stream.getvalue() == "".join(s.line() for s in result.epoch_log)


def test_train_frees_each_batch_graph_before_the_next():
    # a batch's tape must be gone before the next batch's forward runs, so
    # two batches of the same mentions peak no higher than one batch
    synth = Path(__file__).parent / "fixtures" / "synth"
    forest = TypeForest.from_file(synth / "types.txt")
    corpus = parse_corpus(synth / "train.tsv", forest)
    emb = WordEmbeddings.from_file(synth / "embeddings.txt")
    _, config = select_variant("NFETC-hier(r)", beta=0.4)
    hp = figer_hp(d_s=32, batch=200, epochs=1)
    peaks = []
    for repeat in (1, 2):
        tracemalloc.start()
        try:
            train(Corpus(corpus * repeat), corpus, emb, forest, hp, config)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert len(corpus) == hp.batch
    assert peaks[1] <= 1.1 * peaks[0], [f"{p / 2**20:.2f} MiB" for p in peaks]


def test_train_variant_mode_runs_on_raw_corpus():
    train_c, dev_c, emb, forest = make_world()
    choice, config = select_variant("NFETC-hier(r)", beta=0.4)
    corpus = training_corpus(train_c, choice, forest)
    result = train(corpus, dev_c, emb, forest, small_hp(epochs=2), config)
    assert len(result.epoch_log) == 2


def test_train_saves_best_checkpoint(tmp_path):
    train_c, dev_c, emb, forest = make_world()
    _, config = select_variant("NFETC(f)")
    path = tmp_path / "run.ckpt"
    hp = small_hp()
    result = train(train_c, dev_c, emb, forest, hp, config, eval_corpus=dev_c)
    assert result.final is not None
    save_checkpoint(path, hp, config, forest, emb, params_from_values(result.best_values))

    restored = load_checkpoint(str(path))
    assert restored.hyperparams == hp
    for name, arr in result.best_values.items():
        assert np.array_equal(restored.model.params[name], arr)

    from nfetc.corpus import windowed
    again = evaluate(restored.model, windowed(dev_c, hp.window), forest, config)
    assert again.strict == result.best_dev_strict


def test_train_final_eval_optional():
    train_c, dev_c, emb, forest = make_world()
    _, config = select_variant("NFETC(f)")
    result = train(train_c, dev_c, emb, forest, small_hp(epochs=2), config)
    assert result.final is None


# -- multi-seed protocol --------------------------------------------------------------


SYNTH = Path(__file__).parent / "fixtures" / "synth"
SYNTH_TRAIN = ["train", "--set", f"types={SYNTH / 'types.txt'}",
               "--set", f"train={SYNTH / 'train.tsv'}", "--set", f"test={SYNTH / 'train.tsv'}",
               "--set", f"embeddings={SYNTH / 'embeddings.txt'}", "--set", "dp=2",
               "--set", "ds=3", "--set", "window=2", "--set", "epochs=1"]


def test_train_with_one_seed_is_one_run(tmp_path, monkeypatch):
    # ``seed`` of one number is the one run at that seed (recorded)
    seen, real = [], cli.train

    def recording(*args, **kwargs):
        seen.append(args[4])
        return real(*args, **kwargs)

    monkeypatch.setattr(cli, "train", recording)
    ckpt = tmp_path / "model.ckpt"
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.main(SYNTH_TRAIN + ["--set", "seed=7", "--set", f"checkpoint={ckpt}"]) == 0
    assert [hp.seed for hp in seen] == [7]
    assert load_checkpoint(str(ckpt)).hyperparams.seed == 7


def test_multi_seed_aggregate_is_percent_style(monkeypatch):
    # the aggregate line is the mean and sample std of the runs' final
    # metrics, in percent: three runs stand in, with known spreads
    finals = iter([(0.45, 0.25, 0.75), (0.5, 0.25, 0.875), (0.55, 0.25, 1.0)])
    seen = []

    def stub(*args, **kwargs):
        seen.append(args[4].seed)
        strict, macro, micro = next(finals)
        return RunResult(epoch_log=[], best_epoch=1, best_dev_strict=0.0, best_values={},
                         final=Metrics(strict, 0.0, 0.0, macro, 0.0, 0.0, micro))

    monkeypatch.setattr(cli, "train", stub)
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert cli.main(SYNTH_TRAIN + ["--set", "seed=4,2,9"]) == 0
    assert seen == [4, 2, 9]
    lines = out.getvalue().splitlines()
    assert lines[0] == "strict=50.0±5.0 macro=25.0±0.0 micro=87.5±12.5"
    assert [line.split()[0] for line in lines[1:]] == ["seed=4", "seed=2", "seed=9"]
