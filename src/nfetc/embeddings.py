"""Frozen pre-trained word embeddings and the row layout of the position
table.

Word vectors come from a GloVe-style text file and are never updated during
training. Lookups are case sensitive; out-of-vocabulary words resolve to the
zero vector so inference stays deterministic without trainable OOV rows.

Position vectors encode each token's relative distance to the mention span.
Distances inside [-c, c] index their own row; anything further lands in a
single shared out-of-range bucket, giving a table of 2c + 2 rows. The table
itself is the model's ``pos_table`` parameter (see ``model.init_params``);
``position_rows`` maps tokens to its rows.
"""

from __future__ import annotations

from contextlib import closing
from itertools import islice

import numpy as np

from .textfile import numbered_lines


class EmbeddingError(ValueError):
    pass


CHUNK_LINES = 8192   # lines of the file parsed by one np.loadtxt call


class WordEmbeddings:
    """Vocabulary plus a |V| x d_w float64 matrix, frozen: the array is made
    read-only, so nothing can update it and nothing needs to copy it.

    The constructor takes ownership of ``words`` and ``matrix``: neither is
    copied, and a float64 matrix is made read-only, so the caller's own array
    can no longer be written to. Pass a copy to keep a writable one.
    ``index``, when given, maps each word to its row, as ``from_file`` builds
    it while it reads."""

    def __init__(self, words: list[str], matrix: np.ndarray,
                 index: dict[str, int] | None = None):
        if index is None:
            index = dict(zip(words, range(len(words))))
        if len(index) != len(words):
            raise EmbeddingError("duplicate word in vocabulary")
        if matrix.ndim != 2 or matrix.shape[0] != len(words):
            raise EmbeddingError(f"matrix shape {matrix.shape} does not match "
                                 f"{len(words)} words")
        self.words = words
        self.matrix = np.asarray(matrix, dtype=np.float64)
        self.matrix.flags.writeable = False
        self._index = index
        self.dim = self.matrix.shape[1]

    @classmethod
    def from_file(cls, path) -> "WordEmbeddings":
        """Load ``word v1 .. v_dw`` lines; d_w is fixed by the first line.

        The file is parsed in chunks of ``CHUNK_LINES`` lines, each by one
        ``np.loadtxt`` call, into a matrix allocated once; an error names the
        first faulty line of the file."""
        loader = _Loader(path)
        with closing(numbered_lines(path, EmbeddingError)) as lines:
            while loader.take(lines):
                pass
        return cls(*loader.result())

    def __len__(self) -> int:
        """Vocabulary size; the perfbench tracer counts loaded words by it."""
        return len(self.words)

    def indices(self, tokens) -> np.ndarray:
        """Matrix row of each token; -1 marks an out-of-vocabulary word."""
        return np.array([self._index.get(t, -1) for t in tokens], dtype=np.intp)

    def vectors(self, indices) -> np.ndarray:
        """Word vectors for an index array of any shape, the zero vector
        where the index is -1."""
        idx = np.asarray(indices, dtype=np.intp)
        out = self.matrix[np.maximum(idx, 0)]
        out[idx < 0] = 0.0
        return out


def _parse(rests: list[str]) -> np.ndarray:
    """The values of each line's vector part, one row per line."""
    return np.loadtxt(rests, dtype=np.float64, comments=None, ndmin=2)


def _line_count(path) -> int:
    """Lines of ``path`` as text mode splits them (at LF, CRLF or CR), read
    in binary: a bound on its rows."""
    breaks, last = 0, b""
    with open(path, "rb") as fh:
        while block := fh.read(1 << 20):
            cr = block.count(b"\r")
            breaks += block.count(b"\n") + cr - (cr and block.count(b"\r\n"))
            breaks -= last == b"\r" and block[:1] == b"\n"
            last = block[-1:]
    return breaks + 1


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
        """(words, matrix, index) once the whole file is read."""
        if not self.words:
            raise EmbeddingError(f"{self.path}: empty embedding file")
        if self.nonfinite is not None:
            self.fail(self.nonfinite, "non-finite value")
        self.matrix.resize((len(self.words), self.matrix.shape[1]), refcheck=False)
        return self.words, self.matrix, self.index


def position_rows(c: int, positions, start, end) -> np.ndarray:
    """Position-table row of token ``positions`` against mention spans
    [start, end) for window ``c``; the three arrays broadcast together."""
    i, start, end = np.broadcast_arrays(*(np.asarray(a, dtype=np.intp)
                                          for a in (positions, start, end)))
    bad = (start < 0) | (start >= end)
    if np.any(bad):
        k = np.flatnonzero(bad)[0]
        raise EmbeddingError(f"invalid mention span [{start.flat[k]}, {end.flat[k]})")
    d = np.where(i >= end, i - (end - 1), np.where(i < start, i - start, 0))
    return np.where(np.abs(d) <= c, d + c, 2 * c + 1)
