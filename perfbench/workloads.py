"""Workload definitions and the seeded input generator.

Every input file a workload needs is written here from the run's seed: the
same seed gives byte-identical files. The program under test sees only the
files. The predict workload's checkpoint is produced through the package's
public training entry points, untimed.
"""

from __future__ import annotations

import dataclasses
import os
from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class Workload:
    name: str
    kind: str             # "train" or "predict"
    profile: str          # CLI profile whose hyperparameters the run uses
    variant: str
    roots: int            # type forest: number of root types
    types: int            # total types in the forest
    depth: int            # forest depth (2 or 3)
    multi_share: float    # share of mentions whose labels span two paths
    sent_len: tuple[int, int]   # inclusive range of sentence lengths
    vocab: int            # words in the embedding file / checkpoint vocabulary
    train_mentions: int   # raw training mentions (before the variant's filter)
    test_mentions: int    # test corpus; the dev split is carved from it
    epochs: int
    predict_mentions: int = 0

    def scaled(self, scale: float) -> "Workload":
        """The same workload with every size multiplied by ``scale``
        (used by the smoke test to run at tiny sizes)."""
        if scale == 1.0:
            return self
        def size(n, floor):
            return max(floor, int(round(n * scale))) if n else 0
        return dataclasses.replace(
            self, vocab=size(self.vocab, 50),
            train_mentions=size(self.train_mentions, 24),
            test_mentions=size(self.test_mentions, 20),
            predict_mentions=size(self.predict_mentions, 16))


WORKLOADS = {
    # FIGER profile, NFETC-hier(r): both loss switches on. Sentences of 3-30
    # tokens and mentions of 1-3 tokens split each 512-mention batch into
    # ~60 (context length, mention length) buckets of ~9 mentions, so tape
    # construction and interpreter overhead dominate. Padded batches and a
    # fused LSTM op should show most here. The vocabulary is FIGER-scale
    # (~50k words): it sets the embedding load in set-up and the size of
    # the frozen matrix every best-model snapshot copies.
    "figer-train": Workload(
        name="figer-train", kind="train", profile="figer",
        variant="NFETC-hier(r)", roots=37, types=113, depth=2,
        multi_share=0.3554, sent_len=(3, 30), vocab=50000,
        train_mentions=512, test_mentions=640, epochs=1),
    # OntoNotes profile, NFETC(f): the single-path filter, plain
    # cross-entropy and a live L2 term. Every sentence has 12 tokens, so a
    # batch splits into ~3 buckets of ~85 mentions: bucketing is
    # bypassed and the recurrent GEMMs (d_s=440) are ~6x larger. The work
    # that batching would save is absent; changes aimed at it should show
    # little here.
    "ontonotes-train": Workload(
        name="ontonotes-train", kind="train", profile="ontonotes",
        variant="NFETC(f)", roots=6, types=89, depth=3,
        multi_share=0.2687, sent_len=(12, 12), vocab=6000,
        train_mentions=350, test_mentions=640, epochs=1),
    # FIGER-profile checkpoint with a large vocabulary run through
    # `nfetc predict`: no tape, no backward pass, no Adam step, and buckets
    # of ~65 mentions. Checkpoint loading dominates set-up, so I/O work
    # shows here and training-side changes should not.
    "figer-predict": Workload(
        name="figer-predict", kind="predict", profile="figer",
        variant="NFETC-hier(r)", roots=37, types=113, depth=2,
        multi_share=0.3554, sent_len=(3, 30), vocab=100000,
        train_mentions=64, test_mentions=40, epochs=1,
        predict_mentions=4000),
}

D_W = 300          # word vector size of every workload
OOV_SHARE = 0.05   # tokens drawn from outside the embedding vocabulary
MENTION_LEN = (1, 3)


def config(w: Workload) -> dict:
    """The CLI config `nfetc train --profile P --set variant=V --set
    epochs=E` would run with."""
    from nfetc import cli
    return cli.build_config(w.profile, None,
                            [f"variant={w.variant}", f"epochs={w.epochs}"])


def type_paths(w: Workload, rng: np.random.Generator) -> list[str]:
    """A forest of exactly ``w.types`` paths with depth ``w.depth``: roots
    first, then children spread over the roots (and, at depth 3,
    grandchildren over the children)."""
    paths = [f"/t{i}" for i in range(w.roots)]
    rest = w.types - w.roots
    if w.depth == 2:
        mids, leaves = rest, 0
    else:
        mids = rest // 3
        leaves = rest - mids
    parents = rng.integers(0, w.roots, size=mids)
    mid_paths = [f"{paths[p]}/m{i}" for i, p in enumerate(parents)]
    paths += mid_paths
    if leaves:
        parents = rng.integers(0, len(mid_paths), size=leaves)
        paths += [f"{mid_paths[p]}/l{i}" for i, p in enumerate(parents)]
    return sorted(paths)


def _chain(path: str) -> list[str]:
    parts = path.strip("/").split("/")
    return ["/" + "/".join(parts[:d]) for d in range(1, len(parts) + 1)]


def _label_sets(paths: list[str], n: int, multi_share: float,
                rng: np.random.Generator) -> list[str]:
    """``round(n * multi_share)`` mentions carry two incomparable terminals,
    the rest one root-to-terminal chain; order shuffled."""
    n_multi = int(round(n * multi_share))
    out = []
    for i in range(n):
        first = paths[rng.integers(len(paths))]
        labels = _chain(first)
        if i < n_multi:
            while True:
                second = paths[rng.integers(len(paths))]
                a, b = set(_chain(first)), set(_chain(second))
                if first not in b and second not in a:
                    break
            labels = sorted(a | b)
        out.append(" ".join(labels))
    return [out[i] for i in rng.permutation(n)]


def _words(n: int) -> list[str]:
    return [f"w{i}" for i in range(n)]


def _tokens(count: int, vocab: int, rng: np.random.Generator) -> list[str]:
    ids = rng.integers(0, vocab, size=count)
    oov = rng.random(count) < OOV_SHARE
    return [f"o{i}" if o else f"w{i}" for i, o in zip(ids, oov)]


def corpus_lines(w: Workload, paths: list[str], n: int, rng: np.random.Generator,
                 labeled: bool = True) -> list[str]:
    labels = _label_sets(paths, n, w.multi_share, rng) if labeled else None
    lines = []
    for i in range(n):
        length = int(rng.integers(w.sent_len[0], w.sent_len[1] + 1))
        m_len = int(rng.integers(MENTION_LEN[0], min(MENTION_LEN[1], length) + 1))
        start = int(rng.integers(0, length - m_len + 1))
        head = f"{start} {start + m_len}\t{' '.join(_tokens(length, w.vocab, rng))}"
        lines.append(f"{head}\t{labels[i]}\n" if labeled else head + "\n")
    return lines


def embedding_ticks(vocab: int, rng: np.random.Generator) -> np.ndarray:
    """Vector values in units of 1e-4, uniform on [-0.5, 0.5]."""
    return rng.integers(-5000, 5001, size=(vocab, D_W))


def embedding_matrix(vocab: int, rng: np.random.Generator) -> np.ndarray:
    return embedding_ticks(vocab, rng) / 1e4


def write_embeddings(path: str, words: list[str], ticks: np.ndarray) -> None:
    """GloVe-style text, each value printed with 4 decimals (by table
    lookup: formatting 15M floats one by one takes longer than the run)."""
    table = np.array([f"{k / 1e4:.4f}" for k in range(-5000, 5001)])
    with open(path, "w", encoding="utf-8") as fh:
        for word, row in zip(words, ticks):
            fh.write(word + " " + " ".join(table[row + 5000].tolist()) + "\n")


def _write(path: str, lines) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.writelines(lines)


def generate(w: Workload, seed: int, out_dir: str) -> dict[str, str]:
    """Write the workload's input files under ``out_dir``; return their
    paths by role."""
    os.makedirs(out_dir, exist_ok=True)
    rng = np.random.Generator(np.random.PCG64(seed))
    files = {key: os.path.join(out_dir, name) for key, name in (
        ("types", "types.txt"), ("train", "train.tsv"), ("test", "test.tsv"),
        ("embeddings", "embeddings.txt"))}
    paths = type_paths(w, rng)
    _write(files["types"], (p + "\n" for p in paths))
    _write(files["train"], corpus_lines(w, paths, w.train_mentions, rng))
    _write(files["test"], corpus_lines(w, paths, w.test_mentions, rng))
    if w.kind == "train":
        write_embeddings(files["embeddings"], _words(w.vocab),
                         embedding_ticks(w.vocab, rng))
        return files
    # predict: train a small model on a slice of the vocabulary, then save a
    # checkpoint whose vocabulary is the full one.
    small = min(w.vocab, 2000)
    write_embeddings(files["embeddings"], _words(small), embedding_ticks(small, rng))
    files["input"] = os.path.join(out_dir, "predict.tsv")
    files["one"] = os.path.join(out_dir, "one.tsv")
    files["checkpoint"] = os.path.join(out_dir, "model.ckpt")
    lines = corpus_lines(w, paths, w.predict_mentions, rng, labeled=False)
    _write(files["input"], lines)
    _write(files["one"], lines[:1])
    _build_checkpoint(w, files, rng)
    return files


def _build_checkpoint(w: Workload, files: dict[str, str],
                      rng: np.random.Generator) -> None:
    from nfetc import cli, training
    from nfetc.corpus import parse_corpus, split_dev
    from nfetc.embeddings import WordEmbeddings
    from nfetc.hierarchy import TypeForest

    cfg = config(w)
    forest = TypeForest.from_file(files["types"])
    train_all = parse_corpus(files["train"], forest)
    dev, _ = split_dev(parse_corpus(files["test"], forest), 0.5, cfg["dev_seed"])
    small = WordEmbeddings.from_file(files["embeddings"])
    # the adjustment at inference makes `nfetc predict` run that step too
    choice, loss_cfg = training.select_variant(
        w.variant, lam=cfg["lambda"], beta=cfg["beta"], hier_at_inference=True)
    hp = cli._hyperparams(cfg)   # the CLI's own cfg -> HyperParams mapping
    result = training.train(training.training_corpus(train_all, choice, forest),
                            dev, small, forest, hp, loss_cfg)
    big = WordEmbeddings(_words(w.vocab), embedding_matrix(w.vocab, rng))
    values = dict(result.best_values)
    values["word_emb"] = big.matrix
    training.save_checkpoint(files["checkpoint"], hp, loss_cfg, forest, big,
                             training.params_from_values(values))
