"""The chunked embedding loader against the line-by-line reference.

``WordEmbeddings.from_file`` parses ``CHUNK_LINES`` lines per ``np.loadtxt``
call into one preallocated matrix; ``oracles.reference_embeddings`` parses
each value with ``float``, one line at a time. On every file both give the
same words and the same matrix bytes, or both raise the same message. The
files span more than two chunks, so faults land on the first and last line
of a chunk and a word can repeat across chunks.
"""

import tracemalloc

import numpy as np
import pytest

from nfetc import embeddings as embeddings_module
from nfetc.embeddings import EmbeddingError, WordEmbeddings
from nfetc.optim import make_rng
from oracles import reference_embeddings

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
    assert emb.matrix.dtype == np.float64 and emb.matrix.flags.c_contiguous
    return emb.words, emb.matrix.shape, emb.matrix.tobytes()


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
        ref = reference_embeddings(path)
        assert emb.words == ref.words and emb.matrix.tobytes() == ref.matrix.tobytes()
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
    emb = WordEmbeddings.from_file(path)
    assert emb.matrix.shape == (2 * C + 3, 3)
    assert emb.matrix[-1].tolist() == [2 * C + 2.5] * 3


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
    assert emb.matrix.nbytes == n * dim * 8
    assert peak - kept < emb.matrix.nbytes // 4
    # what is kept is the matrix and the vocabulary, once each
    assert kept < 1.5 * emb.matrix.nbytes
    assert np.array_equal(emb.matrix, ticks / 1e4)
