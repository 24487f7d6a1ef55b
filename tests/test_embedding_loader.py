"""The chunked embedding loader against the line-by-line reference.

``WordEmbeddings.from_file`` parses ``CHUNK_LINES`` lines per ``np.loadtxt``
call into one preallocated matrix; ``oracles.reference_embeddings`` parses
each value with ``float``, one line at a time. On every file both give the
same words and the same matrix bytes, or both raise the same message. The
files span more than two chunks, so faults land on the first and last line
of a chunk and a word can repeat across chunks.

The cache beside each file (``<file>.nfetc-cache``) gives a later load of the
same bytes without a parse; anything wrong with it is a miss, never an error.
"""

import contextlib
import hashlib
import io
import os
import re
import shutil
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from ckptedit import rewrite_meta, rewrite_meta_length, rewrite_params
from nfetc import checkpoint
from nfetc import embeddings as embeddings_module
from nfetc.cli import main
from nfetc.embeddings import CACHE_SUFFIX, EmbeddingError, WordEmbeddings
from nfetc.optim import make_rng
from oracles import reference_embeddings
from wordvectors import matrix

SYNTH = Path(__file__).parent / "fixtures" / "synth"

# separators str.split and np.loadtxt both split at: runs, tabs, no-break,
# four-per-em and ideographic spaces, and the file separator control
SEPARATORS = [" ", " ", " ", "  ", "\t", " \t ", "\xa0", "\u2005", "\u3000", "\x1c"]
NUMBERS = ["0.5", "-0.25", "1.", ".5", "+.5", "-0", "0001", "1E5", "2.5e-3", "4.9e-324",
           "1e-400", "1.7976931348623157e308"]
NON_NUMERIC = ["1.x", "abc", "--1", "1,5", "0x10", "nan(1)", "1e", "+", "."]
NON_FINITE = ["nan", "-nan", "NaN", "inf", "-inf", "Infinity", "1e999", "-1.8e308"]
WORDS = ["w{}", "wörd{}", "日本{}", "{}-x", "a.b{}"]


def value(rng) -> str:
    if rng.random() < 0.3:
        return str(NUMBERS[int(rng.integers(len(NUMBERS)))])
    return repr(float(rng.normal()))


def row(rng, word: str, dim: int, values=None) -> str:
    values = values if values is not None else [value(rng) for _ in range(dim)]
    seps = [SEPARATORS[int(rng.integers(len(SEPARATORS)))] for _ in values]
    lead = " " if rng.random() < 0.05 else ""
    trail = "\t" if rng.random() < 0.05 else ""
    return lead + word + "".join(s + v for s, v in zip(seps, values)) + trail


def fault(rng, kind: str, words: list[str], dim: int, k: int) -> str:
    """A line of the given fault kind, for line index ``k``."""
    good = [value(rng) for _ in range(dim)]
    j = int(rng.integers(dim))
    if kind == "extra":
        return row(rng, f"x{k}", dim, good + ["1.0"])
    if kind == "missing":
        return row(rng, f"x{k}", dim, good[:-1])
    if kind == "duplicate":   # a word from any earlier line, earlier chunks included
        earlier = [w for w in words[:k] if w]
        return row(rng, earlier[int(rng.integers(len(earlier)))] if earlier else f"x{k}", dim)
    if kind == "non-numeric":
        good[j] = NON_NUMERIC[int(rng.integers(len(NON_NUMERIC)))]
    elif kind == "non-finite":
        good[j] = NON_FINITE[int(rng.integers(len(NON_FINITE)))]
    return row(rng, f"x{k}", dim, good)


KINDS = ["extra", "missing", "duplicate", "non-numeric", "non-finite", "bad-byte"]


def random_file(path, seed: int, chunk: int) -> None:
    """A seeded file of 2-3 chunks and a bit: blank lines, mixed separators,
    LF or CRLF, and up to three faults, each on the first or last line of a
    chunk or anywhere."""
    rng = make_rng(seed)
    dim = int(rng.integers(1, 5))
    n = int(rng.integers(2 * chunk + 1, 3 * chunk + chunk // 2))
    words = []
    lines = []
    for k in range(n):
        if rng.random() < 0.06:
            words.append(None)
            lines.append(["", " ", "\t", "\xa0 "][int(rng.integers(4))])
        else:
            words.append(WORDS[int(rng.integers(len(WORDS)))].format(k))
            lines.append(row(rng, words[-1], dim))
    bad_byte = None
    for _ in range(int(rng.integers(0, 4))):
        edge = int(rng.integers(1, n // chunk + 1)) * chunk     # a chunk's last line
        at = [edge, min(edge + 1, n), int(rng.integers(1, n + 1))][int(rng.integers(3))]
        kind = KINDS[int(rng.integers(len(KINDS)))]
        if kind == "bad-byte":
            bad_byte = at
        else:
            lines[at - 1] = fault(rng, kind, words, dim, at - 1)
    newline = ["\n", "\r\n"][int(rng.integers(2))]
    data = [(line + newline).encode("utf-8") for line in lines]
    if bad_byte is not None:
        data[bad_byte - 1] = b"\xe9" + data[bad_byte - 1]
    if rng.random() < 0.2:   # no newline after the last line
        data[-1] = data[-1].rstrip(b"\r\n")
    path.write_bytes(b"".join(data))


def outcome(load, path):
    """(words, matrix bytes) of a load, or its error message."""
    try:
        emb = load(path)
    except EmbeddingError as e:
        return str(e)
    rows = matrix(emb)
    assert rows.dtype == np.float64 and rows.flags.c_contiguous
    return emb.words, rows.shape, rows.tobytes()


def test_seeded_files_load_as_the_reference_loads_them(tmp_path, monkeypatch):
    # a 24-line chunk, so each of the 300 files spans three chunks in ~70 lines
    monkeypatch.setattr(embeddings_module, "CHUNK_LINES", 24)
    path = tmp_path / "vectors.txt"
    kinds = {"loaded": 0, "rejected": 0}
    for seed in range(300):
        random_file(path, seed, 24)
        got, want = outcome(WordEmbeddings.from_file, path), outcome(reference_embeddings, path)
        assert got == want, f"seed {seed}"
        kinds["rejected" if isinstance(want, str) else "loaded"] += 1
    # both outcomes are exercised often
    assert min(kinds.values()) > 60, kinds


@pytest.mark.parametrize("seed,kind", [(4, "duplicate word"), (6, "not valid UTF-8"),
                                       (8, None)])
def test_files_of_full_size_chunks_load_as_the_reference_loads_them(tmp_path, seed, kind):
    # seed 4 repeats a word on a chunk's last line, seed 6 has a bad byte on
    # a chunk's first line, seed 8 loads its ~19k rows
    path = tmp_path / "vectors.txt"
    random_file(path, seed, embeddings_module.CHUNK_LINES)
    got = outcome(WordEmbeddings.from_file, path)
    assert got == outcome(reference_embeddings, path)
    assert kind in got if kind else len(got[0]) > 2 * embeddings_module.CHUNK_LINES


def chunked(chunk: int, dim: int, n: int, faults: dict) -> str:
    """``n`` good lines ``w<k> <k>.5 ...``, with ``faults`` (line -> text)
    put in place of some."""
    lines = [faults.get(k + 1, f"w{k} " + " ".join([f"{k}.5"] * dim)) for k in range(n)]
    return "".join(line + "\n" for line in lines)


C = 16


@pytest.mark.parametrize("faults,message", [
    ({}, None),
    ({C: "w1 1 2"}, f"{C}: duplicate word 'w1'"),             # last line of chunk 1
    ({C + 1: "w0 1 2"}, f"{C + 1}: duplicate word 'w0'"),     # first line of chunk 2
    ({2 * C: "x 1"}, f"{2 * C}: expected 2 values, got 1"),
    ({2 * C + 1: "x 1 2 3"}, f"{2 * C + 1}: expected 2 values, got 3"),
    ({3 * C: "x"}, f"{3 * C}: expected 2 values, got 0"),
    ({C + 1: "x 1 one"}, f"{C + 1}: non-numeric value"),
    ({C: "x 1_0 2"}, f"{C}: non-numeric value"),
    ({3 * C: "x nan 1"}, f"{3 * C}: non-finite value"),      # a later chunk
    ({2: "x inf 1", 3 * C: "y nan 1"}, "2: non-finite value"),
    # a non-finite value is found only once the file is read: a later
    # fault of another kind is reported first, as the reference does
    ({2: "x inf 1", 3 * C: "y 1 z"}, f"{3 * C}: non-numeric value"),
    ({C: "", C + 1: " \t ", 2 * C: "\xa0"}, None),            # blank lines at the edges
], ids=["clean", "dup-last-of-chunk", "dup-first-of-chunk", "short-last", "long-first",
        "word-only", "non-numeric", "underscore", "nan-later-chunk", "two-non-finite",
        "non-finite-then-non-numeric", "blank-edges"])
def test_chunk_edges(tmp_path, monkeypatch, faults, message):
    monkeypatch.setattr(embeddings_module, "CHUNK_LINES", C)
    path = tmp_path / "v.txt"
    path.write_text(chunked(C, 2, 3 * C + 5, faults))
    if message is None:
        emb = WordEmbeddings.from_file(path)
        assert same(emb, reference_embeddings(path))
        assert len(emb) == 3 * C + 5 - len(faults)
    else:
        with pytest.raises(EmbeddingError) as err:
            WordEmbeddings.from_file(path)
        assert str(err.value) == f"{path}:{message}"


@pytest.mark.parametrize("text", ["a 1_0\n", "a １\n", "a ٣\n"],
                         ids=["underscore", "fullwidth-digit", "arabic-indic-digit"])
def test_numbers_only_python_float_reads_are_rejected(tmp_path, text):
    # float() takes digit-group underscores and non-ASCII digits; the format
    # does not
    path = tmp_path / "v.txt"
    path.write_text(text)
    with pytest.raises(EmbeddingError) as err:
        WordEmbeddings.from_file(path)
    assert str(err.value) == f"{path}:1: non-numeric value"
    assert reference_embeddings(path).matrix.shape == (1, 1)


@pytest.mark.parametrize("newline", ["\n", "\r\n", "\r"], ids=["lf", "crlf", "cr"])
def test_every_line_ending_fills_the_matrix(tmp_path, monkeypatch, newline):
    # the matrix is sized by a binary count of the line ends text mode
    # splits at; a file of CR-only ends has as many rows as an LF one
    monkeypatch.setattr(embeddings_module, "CHUNK_LINES", C)
    body = chunked(C, 3, 2 * C + 3, {})
    path = tmp_path / "v.txt"
    path.write_bytes(body.replace("\n", newline).encode("utf-8"))
    rows = matrix(WordEmbeddings.from_file(path))
    assert rows.shape == (2 * C + 3, 3)
    assert rows[-1].tolist() == [2 * C + 2.5] * 3


def test_the_loader_peak_is_near_one_matrix(tmp_path, monkeypatch):
    # numpy reports its buffers to tracemalloc. What the loader holds beyond
    # what it returns (one chunk of lines and their parsed block) stays
    # small beside the matrix: no row lists, no second matrix to trim or
    # stack into
    monkeypatch.setattr(embeddings_module, "CHUNK_LINES", 1024)
    n, dim = 20000, 64
    ticks = make_rng(4).integers(-5000, 5001, size=(n, dim))
    text = np.array([f"{t / 1e4:.4f}" for t in range(-5000, 5001)])[ticks + 5000]
    path = tmp_path / "v.txt"
    path.write_text("".join(f"w{k} {' '.join(r)}\n" for k, r in enumerate(text.tolist())))
    tracemalloc.start()
    try:
        emb = WordEmbeddings.from_file(path)
        kept, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert isinstance(emb.matrix, checkpoint.Frozen)
    rows = matrix(emb)
    assert rows.nbytes == n * dim * 8
    # the parsed matrix is dropped for the cache it was written to, so what
    # is kept is the vocabulary alone, and the peak one matrix beyond it
    # plus what the loader holds
    assert kept < rows.nbytes // 2
    assert peak - kept - rows.nbytes < rows.nbytes // 4
    assert np.array_equal(rows, ticks / 1e4)


@pytest.mark.parametrize("name", ["_digest", "_line_count"])
def test_each_binary_pass_holds_one_block(tmp_path, name):
    # the digest and the line count read through one reused 1 MiB buffer,
    # never two blocks at once; the file ends in a short block, and a CRLF
    # straddles the first block boundary
    data = bytearray(make_rng(5).integers(0, 256, size=(8 << 20) + 12345, dtype=np.uint8))
    data[(1 << 20) - 1:(1 << 20) + 1] = b"\r\n"
    path = tmp_path / "v.txt"
    path.write_bytes(data)
    want = {"_digest": hashlib.sha256(data).hexdigest(),
            "_line_count": len(re.findall(rb"\r\n|\r|\n", data)) + 1}[name]
    tracemalloc.start()
    try:
        got = getattr(embeddings_module, name)(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert got == want
    assert peak < 1.5 * (1 << 20)


# -- the parse cache ------------------------------------------------------------------


def cache_of(path) -> Path:
    return Path(f"{path}{CACHE_SUFFIX}")


def no_parse(monkeypatch):
    """Make any text parse fail the test."""
    def parse(rests):
        raise AssertionError("parsed text although the cache holds it")
    monkeypatch.setattr(embeddings_module, "_parse", parse)


def counted_parse(monkeypatch) -> list:
    """Count ``_parse`` calls in the returned one-item list."""
    calls, real = [0], embeddings_module._parse

    def parse(rests):
        calls[0] += 1
        return real(rests)
    monkeypatch.setattr(embeddings_module, "_parse", parse)
    return calls


def same(emb, ref) -> bool:
    return emb.words == ref.words and matrix(emb).tobytes() == ref.matrix.tobytes()


@pytest.fixture
def vectors(tmp_path, monkeypatch):
    """A three-chunk file, loaded once so that its cache is written."""
    monkeypatch.setattr(embeddings_module, "CHUNK_LINES", C)
    path = tmp_path / "v.txt"
    path.write_text(chunked(C, 3, 3 * C + 5, {}))
    assert not cache_of(path).exists()
    WordEmbeddings.from_file(path)
    assert cache_of(path).exists()
    return path


def test_a_hit_reads_the_matrix_without_parsing(vectors, monkeypatch):
    no_parse(monkeypatch)
    emb = WordEmbeddings.from_file(vectors)
    assert isinstance(emb.matrix, checkpoint.Frozen)
    assert same(emb, reference_embeddings(vectors))
    rows = matrix(emb)
    assert rows.dtype == np.float64 and rows.flags.c_contiguous
    # a view of every word copies no row: it reads from the open cache
    view = emb.subset(set(emb.words))
    assert view.matrix is emb.matrix
    assert view.indices(["w3", "nope"]).tolist() == [3, -1]
    meta, tensors = checkpoint.load(str(cache_of(vectors)))
    assert meta["source_sha256"] == hashlib.sha256(vectors.read_bytes()).hexdigest()
    assert meta["vocab"] == emb.words and list(tensors) == ["word_emb"]


def test_an_edited_file_is_parsed_again(vectors, monkeypatch):
    vectors.write_text(chunked(C, 3, 2 * C, {}))
    calls = counted_parse(monkeypatch)
    assert same(WordEmbeddings.from_file(vectors), reference_embeddings(vectors))
    assert calls[0] > 0


def test_an_edit_of_the_same_size_and_mtime_is_parsed_again(vectors, monkeypatch):
    before = os.stat(vectors)
    text = vectors.read_text()
    vectors.write_text(text.replace("w7 7.5", "w7 8.5", 1))
    os.utime(vectors, ns=(before.st_atime_ns, before.st_mtime_ns))
    after = os.stat(vectors)
    assert (after.st_size, after.st_mtime_ns) == (before.st_size, before.st_mtime_ns)
    calls = counted_parse(monkeypatch)
    emb = WordEmbeddings.from_file(vectors)
    assert calls[0] > 0 and matrix(emb)[7, 0] == 8.5
    assert same(emb, reference_embeddings(vectors))


def truncate(cache):
    cache.write_bytes(cache.read_bytes()[:-12])


def garbage(cache):
    cache.write_bytes(make_rng(5).bytes(cache.stat().st_size))


def nested_meta(cache):
    cache.write_bytes(checkpoint.header(b"[" * 100000))


def meta_edit(edit):
    return lambda cache: rewrite_meta(cache, cache, edit)


def meta_length(length: bytes):
    return lambda cache: rewrite_meta_length(cache, cache, length)


def non_finite(cache):
    def poison(values):
        values["word_emb"] = values["word_emb"].copy()
        values["word_emb"][2, 1] = np.nan
    rewrite_params(cache, cache, poison)


def saved(meta_edit=None, matrix=None):
    """A cache rewritten with ``meta_edit`` applied to its meta, or with
    ``matrix`` in place of its matrix."""
    def corrupt(cache):
        meta, tensors = checkpoint.load(str(cache))
        meta.pop("params")
        if meta_edit:
            meta_edit(meta)
        checkpoint.save(str(cache), meta, [("word_emb", False, tensors["word_emb"]
                                            if matrix is None else matrix(meta))])
    return corrupt


def second_frozen_tensor(cache):
    meta, tensors = checkpoint.load(str(cache))
    meta.pop("params")
    checkpoint.save(str(cache), meta, [("word_emb", False, tensors["word_emb"]),
                                       ("extra", False, np.ones(2))])


CORRUPTIONS = {
    "truncated": truncate,
    "garbage": garbage,
    "nested-meta": nested_meta,
    "negative-meta-length": meta_length(b"-1"),
    "meta-length-past-the-file": meta_length(b"99999999999"),
    "wrong-digest": meta_edit(lambda m: m.update(source_sha256="0" * 64)),
    "no-digest": meta_edit(lambda m: m.pop("source_sha256")),
    "vocab-not-a-list": meta_edit(lambda m: m.update(vocab="w0")),
    "vocab-not-str": meta_edit(lambda m: m.update(vocab=list(range(len(m["vocab"]))))),
    "short-vocab": meta_edit(lambda m: m["vocab"].pop()),
    "long-vocab": meta_edit(lambda m: m["vocab"].append("extra")),
    "duplicate-word": meta_edit(lambda m: m["vocab"].__setitem__(1, m["vocab"][0])),
    "non-finite": non_finite,
    "one-dimensional": saved(lambda m: m.update(vocab=m["vocab"][:1]),
                             lambda m: np.ones(3)),
    "empty": saved(lambda m: m.update(vocab=[]), lambda m: np.zeros((0, 3))),
    "zero-width": saved(matrix=lambda m: np.zeros((len(m["vocab"]), 0))),
    "no-words-of-no-width": saved(lambda m: m.update(vocab=[]), lambda m: np.zeros((0, 0))),
    "second-tensor": lambda cache: rewrite_params(
        cache, cache, lambda values: values.update(extra=np.ones(2))),
    "second-frozen-tensor": second_frozen_tensor,
}


@pytest.mark.parametrize("corrupt", CORRUPTIONS.values(), ids=CORRUPTIONS.keys())
def test_a_bad_cache_is_a_miss_and_is_rewritten(vectors, monkeypatch, corrupt):
    cache = cache_of(vectors)
    good = cache.read_bytes()
    corrupt(cache)
    assert cache.read_bytes() != good
    calls = counted_parse(monkeypatch)
    assert same(WordEmbeddings.from_file(vectors), reference_embeddings(vectors))
    assert calls[0] > 0
    assert cache.read_bytes() == good


def test_a_failed_cache_write_still_returns_the_embeddings(tmp_path, monkeypatch):
    def fail(*args):
        raise OSError(28, "No space left on device")
    monkeypatch.setattr(checkpoint, "save", fail)
    path = tmp_path / "v.txt"
    path.write_text(chunked(C, 2, 10, {}))
    assert same(WordEmbeddings.from_file(path), reference_embeddings(path))
    assert not cache_of(path).exists()


def test_a_first_load_keeps_the_words_it_parsed(tmp_path, monkeypatch):
    # the cache's vocabulary, read back after the write, is compared with
    # the parse's list and dropped; the cache-backed embeddings keep the list
    results, real = [], embeddings_module._Loader.result
    monkeypatch.setattr(embeddings_module._Loader, "result",
                        lambda self: results.append(real(self)) or results[-1])
    path = tmp_path / "v.txt"
    path.write_text(chunked(C, 2, 10, {}))
    emb = WordEmbeddings.from_file(path)
    assert isinstance(emb.matrix, checkpoint.Frozen)
    assert len(results) == 1 and emb.words is results[0][0]
    assert same(emb, reference_embeddings(path))


def test_a_cache_that_is_not_the_parse_is_not_returned(tmp_path, monkeypatch):
    # a cache whose vocabulary differs from what the first load just parsed
    # and wrote (a writer renamed another over it) is not returned for it
    real = checkpoint.save

    def save_then_reverse(path, meta, tensors):
        real(path, meta, tensors)
        rewrite_meta(path, path, lambda meta: meta["vocab"].reverse())
    monkeypatch.setattr(checkpoint, "save", save_then_reverse)
    path = tmp_path / "v.txt"
    path.write_text(chunked(C, 2, 10, {}))
    emb = WordEmbeddings.from_file(path)
    assert not isinstance(emb.matrix, checkpoint.Frozen)
    assert same(emb, reference_embeddings(path))


def test_a_file_that_fails_to_parse_leaves_no_cache(tmp_path, monkeypatch):
    monkeypatch.setattr(embeddings_module, "CHUNK_LINES", C)
    path = tmp_path / "v.txt"
    path.write_text(chunked(C, 2, 2 * C, {C + 3: "x 1 one"}))
    with pytest.raises(EmbeddingError, match=f"{path}:{C + 3}: non-numeric value"):
        WordEmbeddings.from_file(path)
    assert list(tmp_path.iterdir()) == [path]


def test_a_file_edited_during_the_parse_gets_no_cache(tmp_path, monkeypatch):
    # the edit lands after the digest pass; whatever the parse read, no
    # cache may claim it is the parse of the bytes the digest pass saw
    monkeypatch.setattr(embeddings_module, "CHUNK_LINES", C)
    path = tmp_path / "v.txt"
    path.write_text(chunked(C, 2, 2 * C, {}))
    real = embeddings_module._parse

    def parse_then_edit(rests):
        path.write_text(chunked(C, 2, 2 * C, {3: "w2 9.5 9.5"}))
        return real(rests)
    monkeypatch.setattr(embeddings_module, "_parse", parse_then_edit)
    WordEmbeddings.from_file(path)
    assert list(tmp_path.iterdir()) == [path]
    monkeypatch.setattr(embeddings_module, "_parse", real)
    emb = WordEmbeddings.from_file(path)
    assert matrix(emb)[2, 0] == 9.5 and same(emb, reference_embeddings(path))
    meta, _ = checkpoint.load(str(cache_of(path)))
    assert meta["source_sha256"] == hashlib.sha256(path.read_bytes()).hexdigest()


def test_train_writes_the_same_bytes_on_a_miss_and_a_hit(tmp_path, monkeypatch):
    shutil.copy(SYNTH / "embeddings.txt", tmp_path / "embeddings.txt")

    def train(run):
        out = tmp_path / run
        out.mkdir()
        argv = ["train", "--set", f"types={SYNTH / 'types.txt'}",
                "--set", f"train={SYNTH / 'train.tsv'}", "--set", f"test={SYNTH / 'train.tsv'}",
                "--set", f"embeddings={tmp_path / 'embeddings.txt'}",
                "--set", "lr=0.01", "--set", "dp=4", "--set", "ds=8", "--set", "window=3",
                "--set", "batch=32", "--set", "epochs=3", "--set", "variant=NFETC-hier(r)",
                "--set", f"checkpoint={out / 'model.ckpt'}", "--set", f"log={out / 'log.txt'}",
                "--set", f"report={out / 'report.txt'}"]
        with contextlib.redirect_stdout(io.StringIO()) as stdout:
            assert main(argv) == 0
        return stdout.getvalue(), {f.name: f.read_bytes() for f in sorted(out.iterdir())}

    miss = train("miss")
    assert cache_of(tmp_path / "embeddings.txt").exists()
    no_parse(monkeypatch)
    hit = train("hit")
    assert hit == miss
    assert sorted(miss[1]) == ["log.txt", "model.ckpt", "report.txt"]
