"""Frozen pre-trained word embeddings.

Word vectors come from a GloVe-style text file and are never updated during
training. Lookups are case sensitive; out-of-vocabulary words resolve to the
zero vector so inference stays deterministic without trainable OOV rows.

The first load of a file stores what it parsed beside it, in
``<file>.nfetc-cache``: a checkpoint-format file keyed by the text's SHA-256.
Every load whose cache holds these bytes, the first one too once its write
succeeds, checks the cache's matrix in one streamed pass and leaves it in
the file, which the embeddings hold open as their ``matrix``. Nothing looks
a word up in them, so they make no word -> row index: ``subset`` reads the
rows of some words from the cache (``train`` asks for its corpora's), and
``save_checkpoint`` copies it whole, neither holding the matrix in memory.

A checkpoint restored for an input's words (``nfetc eval`` and ``predict``)
leaves its matrix in the file the same way, open for the whole command, so
that a file renamed over it changes nothing; its embeddings hold the input's
words and their rows in the file, and ``vectors`` reads only the rows each
call gathers, checking them again, so that a file truncated meanwhile is an
error. Predicting holds one chunk's rows, not the input's.
"""

from __future__ import annotations

from contextlib import closing
from functools import cached_property
from itertools import islice, repeat

import numpy as np

from . import checkpoint
from .textfile import BOM, BOM_MESSAGE, numbered_lines


class EmbeddingError(ValueError):
    pass


def check_vocabulary(words, shape: tuple) -> None:
    """Raise ``EmbeddingError`` unless ``words``, read from a file, is a list
    of distinct str, one for each row of a matrix of ``shape`` that holds
    word vectors."""
    if not isinstance(words, list) or not all(map(isinstance, words, repeat(str))):
        raise EmbeddingError("vocabulary is not a list of strings")
    if len(set(words)) != len(words):
        raise EmbeddingError("duplicate word in vocabulary")
    if len(shape) != 2 or shape[0] != len(words):
        raise EmbeddingError(f"matrix shape {shape} does not match {len(words)} words")
    if 0 in shape:
        raise EmbeddingError(f"matrix shape {shape} holds no word vectors")


def kept_rows(vocab: list[str], words) -> np.ndarray:
    """The sorted rows of ``vocab`` whose word is in the set ``words``, or
    row 0 alone should there be none: a gather, even of unknown words only,
    needs a row."""
    keep = np.flatnonzero(np.fromiter(map(words.__contains__, vocab), bool, len(vocab)))
    return keep if len(keep) else np.zeros(1, np.intp)


CHUNK_LINES = 8192   # lines of the file parsed by one np.loadtxt call
CACHE_SUFFIX = ".nfetc-cache"


class WordEmbeddings:
    """Vocabulary plus a |V| x d_w float64 matrix, frozen: the array is made
    read-only, so nothing can update it and nothing needs to copy it.

    The constructor takes ownership of ``words``, distinct str, one per row,
    as the file readers checked them, and ``matrix``: neither is copied, and
    a float64 matrix is made read-only, so the caller's own array can no
    longer be written to. Pass a copy to keep a writable one.

    ``matrix`` may also be a ``checkpoint.Frozen``, a matrix left in its
    file: the parse cache, which ``subset`` and ``save_checkpoint`` read, or
    a checkpoint restored for the words of an input, whose file holds other
    rows too. ``rows`` then gives each word's row in the file, sorted, and
    such embeddings serve ``indices`` and ``vectors`` alone. A float64
    matrix may also hold only the rows of the words an input holds, as
    ``subset`` returns it."""

    def __init__(self, words: list[str], matrix: np.ndarray | checkpoint.Frozen,
                 rows: np.ndarray | None = None):
        self.words = words
        self.rows = rows
        if isinstance(matrix, checkpoint.Frozen):
            self.magnitude = matrix.magnitude
        else:
            matrix = np.asarray(matrix, dtype=np.float64)
            matrix.flags.writeable = False
        self.matrix = matrix
        self.dim = matrix.shape[1]
        self._subset = None   # (word set, embeddings) of the last ``subset`` call

    @classmethod
    def from_file(cls, path) -> "WordEmbeddings":
        """Load ``word v1 .. v_dw`` lines; d_w is fixed by the first line.

        If ``<path>.nfetc-cache`` holds the parse of these exact bytes (by
        SHA-256), its vocabulary and its matrix, checked and left in the
        file, are returned and no text is parsed. Otherwise the file is
        parsed in chunks of ``CHUNK_LINES`` lines, each by one
        ``np.loadtxt`` call, into a matrix allocated once; an error names the
        first faulty line of the file. A clean parse of bytes that did not
        change meanwhile is then cached, and the cache returned in place of
        the parsed matrix; a cache that cannot be read or written is
        ignored."""
        digest = _digest(path)
        cache = f"{path}{CACHE_SUFFIX}"
        if (hit := _cached(cache, digest)) is not None:
            return hit
        loader = _Loader(path)
        with closing(numbered_lines(path, EmbeddingError)) as lines:
            while loader.take(lines):
                pass
        words, matrix = loader.result()
        del loader   # and its word -> row index, which no cache hit needs
        if _digest(path) == digest:
            try:
                checkpoint.save(cache, {"source_sha256": digest, "vocab": words},
                                [("word_emb", False, matrix)])
            except OSError:
                pass
            else:
                if (hit := _cached(cache, digest, (words, matrix.shape))) is not None:
                    return hit
        return cls(words, matrix)

    @cached_property
    def magnitude(self) -> float:
        """The largest absolute value in the matrix, found on first use (by
        ``train``), so neither a load nor ``nfetc predict`` scans for it; a
        matrix left in its file brings the one its check found."""
        return max(self.matrix.max(initial=0), -self.matrix.min(initial=0))

    def subset(self, words: set[str]) -> "WordEmbeddings":
        """The embeddings of ``kept_rows(self.words, words)``, in vocabulary
        order: every word of ``words`` finds the vector it finds here, or
        zeros when it is unknown. A matrix left in its file is read in one
        pass. The result is kept for the next call with the same set."""
        if self._subset is None or self._subset[0] != words:
            keep = kept_rows(self.words, words)
            kept = [self.words[r] for r in keep.tolist()]
            rows = (self.matrix.rows(keep) if isinstance(self.matrix, checkpoint.Frozen)
                    else self.matrix[keep])
            self._subset = (frozenset(words), WordEmbeddings(kept, rows))
        return self._subset[1]

    def __len__(self) -> int:
        """Vocabulary size; the perfbench tracer counts loaded words by it."""
        return len(self.words)

    @cached_property
    def _index(self) -> dict[str, int]:
        """Each word's matrix row, made by the first lookup: embeddings left
        in the parse cache look no word up, so they never make it."""
        rows = range(len(self.words)) if self.rows is None else self.rows.tolist()
        return dict(zip(self.words, rows))

    def indices(self, tokens) -> np.ndarray:
        """Matrix row of each token; -1 marks an out-of-vocabulary word."""
        return np.array([self._index.get(t, -1) for t in tokens], dtype=np.intp)

    def vectors(self, indices) -> np.ndarray:
        """Word vectors for an index array of any shape, the zero vector
        where the index is -1. A matrix left in its file is read only at
        the distinct rows ``indices`` name, by ``Frozen.take``."""
        idx = np.asarray(indices, dtype=np.intp)
        if isinstance(self.matrix, checkpoint.Frozen):
            used, at = np.unique(idx, return_inverse=True)
            known = used >= 0
            table = np.zeros((len(used), self.dim))
            table[known] = self.matrix.take(used[known])
            return table[at.reshape(idx.shape)]
        out = self.matrix[np.maximum(idx, 0)]
        out[idx < 0] = 0.0
        return out


def _parse(rests: list[str]) -> np.ndarray:
    """The values of each line's vector part, one row per line."""
    return np.loadtxt(rests, dtype=np.float64, comments=None, ndmin=2)


def _blocks(path):
    """The bytes of ``path`` in turn, each block read into the one 1 MiB
    buffer the last was, so a caller is done with a block when it asks for
    the next."""
    buf = bytearray(1 << 20)
    with open(path, "rb") as fh:
        while n := fh.readinto(buf):
            del buf[n:]   # only the last block is short
            yield buf


def _line_count(path) -> int:
    """Lines of ``path`` as text mode splits them (at LF, CRLF or CR), read
    in binary: a bound on its rows."""
    breaks, last = 0, b""
    for block in _blocks(path):
        cr = block.count(b"\r")
        breaks += block.count(b"\n") + cr - (cr and block.count(b"\r\n"))
        breaks -= last == b"\r" and block[:1] == b"\n"
        last = block[-1:]
    return breaks + 1


def _digest(path) -> str:
    """The SHA-256 of the bytes of ``path``, which must not start with a
    UTF-8 byte-order mark. It is checked here, before ``from_file`` reads a
    cache: one written by an earlier version holds the mark in its first
    word."""
    import hashlib   # here, not at the top: OpenSSL adds ~3.5 MiB RSS to every nfetc command
    sha = hashlib.sha256()
    for n, block in enumerate(_blocks(path)):
        if n == 0 and block.startswith(BOM.encode("utf-8")):
            raise EmbeddingError(f"{path}:1: {BOM_MESSAGE}")
        sha.update(block)
    return sha.hexdigest()


def _cached(cache, digest, parsed=None) -> WordEmbeddings | None:
    """The embeddings ``cache`` holds for a text of SHA-256 ``digest``, its
    matrix checked and left in the file, or None when it is missing,
    unreadable, stale or malformed. ``parsed``, the (words, matrix shape) of
    a parse just written there, asks for those; its checked words are kept
    in place of the cache's equal list."""
    try:
        meta, tensors, frozen = checkpoint.open_frozen(cache)
        if tensors or meta.get("source_sha256") != digest or frozen.name != "word_emb":
            return None
        if parsed is None:   # the words, the matrix's shape and that no word repeats
            check_vocabulary(meta.get("vocab"), frozen.shape)
        elif (meta.get("vocab"), frozen.shape) != parsed:
            return None
    except (OSError, ValueError):   # an EmbeddingError too
        return None
    return WordEmbeddings(meta["vocab"] if parsed is None else parsed[0], frozen)


class _Loader:
    """One ``from_file`` read: the words so far, their index, the matrix the
    rows go into, and the line of the first non-finite value, which (as an
    error found only once the whole file is read) is raised last."""

    def __init__(self, path):
        self.path = path
        self.capacity = _line_count(path)
        self.words: list[str] = []
        self.index: dict[str, int] = {}
        self.matrix = None
        self.nonfinite = None

    def fail(self, lineno, message):
        raise EmbeddingError(f"{self.path}:{lineno}: {message}")

    def add(self, lineno, word):
        row = len(self.words)
        if self.index.setdefault(word, row) != row:
            self.fail(lineno, f"duplicate word {word!r}")
        self.words.append(word)

    def take(self, lines) -> bool:
        """Read the next ``CHUNK_LINES`` of the (line number, line) pairs
        ``lines`` into rows; False once the file is read."""
        rows, count, unreadable = [], 0, None
        try:
            for count, (lineno, line) in enumerate(islice(lines, CHUNK_LINES), start=1):
                if parts := line.split(None, 1):
                    rows.append((lineno, parts))
        except EmbeddingError as e:   # not UTF-8: the lines before it may hold an earlier fault
            unreadable = e
        self.parse(rows)
        if unreadable:
            raise unreadable
        return count == CHUNK_LINES

    def parse(self, rows):
        """Parse (line number, [word, values]) pairs into the next rows. The
        whole chunk goes through one ``_parse``; if that fails or gives the
        wrong shape, line-by-line ``_parse`` calls find the first faulty
        line."""
        if not rows:
            return
        if self.matrix is None:
            lineno, parts = rows[0]
            dim = len(parts[1].split()) if len(parts) == 2 else 0
            if dim == 0:
                self.fail(lineno, "no vector values")
            self.matrix = np.empty((self.capacity, dim))
        first, dim = len(self.words), self.matrix.shape[1]
        block = None
        if all(len(parts) == 2 for _, parts in rows):
            try:
                block = _parse([parts[1] for _, parts in rows])
            except ValueError:
                pass
        if block is not None and block.shape == (len(rows), dim):
            for lineno, parts in rows:
                self.add(lineno, parts[0])
        else:
            block = np.empty((len(rows), dim))
            for j, (lineno, parts) in enumerate(rows):
                rest = parts[1] if len(parts) == 2 else ""
                if (got := len(rest.split())) != dim:
                    self.fail(lineno, f"expected {dim} values, got {got}")
                self.add(lineno, parts[0])
                try:
                    block[j] = _parse([rest]).reshape(dim)
                except ValueError:
                    self.fail(lineno, "non-numeric value")
        finite = np.isfinite(block).all(axis=1)
        if self.nonfinite is None and not finite.all():
            self.nonfinite = rows[int(np.argmin(finite))][0]
        self.matrix[first:first + len(rows)] = block

    def result(self):
        """(words, matrix) once the whole file is read."""
        if not self.words:
            raise EmbeddingError(f"{self.path}: empty embedding file")
        if self.nonfinite is not None:
            self.fail(self.nonfinite, "non-finite value")
        self.matrix.resize((len(self.words), self.matrix.shape[1]), refcheck=False)
        return self.words, self.matrix

