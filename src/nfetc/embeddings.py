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

import numpy as np


class EmbeddingError(ValueError):
    pass


class WordEmbeddings:
    """Vocabulary plus a |V| x d_w float64 matrix, frozen: the array is made
    read-only, so nothing can update it and nothing needs to copy it.

    The constructor takes ownership of ``matrix``: a float64 array is kept
    as it is, not copied, and made read-only, so the caller's own array can
    no longer be written to. Pass a copy to keep a writable one."""

    def __init__(self, words: list[str], matrix: np.ndarray):
        if len(words) != len(set(words)):
            raise EmbeddingError("duplicate word in vocabulary")
        if matrix.ndim != 2 or matrix.shape[0] != len(words):
            raise EmbeddingError(f"matrix shape {matrix.shape} does not match "
                                 f"{len(words)} words")
        self.words = list(words)
        self.matrix = np.asarray(matrix, dtype=np.float64)
        self.matrix.flags.writeable = False
        self._index = {w: i for i, w in enumerate(self.words)}
        self.dim = self.matrix.shape[1]

    @classmethod
    def from_file(cls, path) -> "WordEmbeddings":
        """Load ``word v1 .. v_dw`` lines; d_w is fixed by the first line."""
        words: list[str] = []
        rows: list[list[float]] = []
        linenos: list[int] = []
        seen = set()
        dim = None
        with open(path, encoding="utf-8") as fh:
            for lineno, line in enumerate(fh, start=1):
                parts = line.split()
                if not parts:
                    continue
                word, values = parts[0], parts[1:]
                if dim is None:
                    dim = len(values)
                    if dim == 0:
                        raise EmbeddingError(f"{path}:{lineno}: no vector values")
                elif len(values) != dim:
                    raise EmbeddingError(f"{path}:{lineno}: expected {dim} values, "
                                         f"got {len(values)}")
                if word in seen:
                    raise EmbeddingError(f"{path}:{lineno}: duplicate word {word!r}")
                seen.add(word)
                try:
                    rows.append([float(v) for v in values])
                except ValueError:
                    raise EmbeddingError(f"{path}:{lineno}: non-numeric value") from None
                words.append(word)
                linenos.append(lineno)
        if not words:
            raise EmbeddingError(f"{path}: empty embedding file")
        matrix = np.array(rows, dtype=np.float64)
        bad = np.flatnonzero(~np.isfinite(matrix).all(axis=1))
        if bad.size:
            raise EmbeddingError(f"{path}:{linenos[bad[0]]}: non-finite value")
        return cls(words, matrix)

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
