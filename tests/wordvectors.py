"""Word vectors read back from ``WordEmbeddings`` in the tests, whether their
matrix is an array or left in the parse cache, whole or a ``subset`` view:
through ``vectors``, the one read the program makes of a matrix."""

import numpy as np


def lookup(emb, indices) -> np.ndarray:
    """The vectors of an index array of any shape, the zero vector where it
    holds -1: one ``vectors`` read of its sorted distinct rows, as a batch
    gathers them, spread back over the array."""
    idx = np.asarray(indices, dtype=np.intp)
    used, at = np.unique(idx, return_inverse=True)
    return emb.vectors(used)[at.reshape(idx.shape)]


def matrix(emb) -> np.ndarray:
    """Every word's vector, in vocabulary order: the whole matrix of
    embeddings that hold one row per row of it."""
    return lookup(emb, emb.indices(emb.words)).reshape(len(emb.words), emb.dim)
