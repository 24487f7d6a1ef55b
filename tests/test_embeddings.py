import numpy as np
import pytest

from nfetc.corpus import CorpusError, MentionTriple
from nfetc.embeddings import EmbeddingError, WordEmbeddings
from nfetc.hierarchy import TypeForest
from nfetc.model import NfetcModel, position_rows
from nfetc.optim import make_rng
from hparams import figer_hp
from wordvectors import lookup


def write_vectors(path, text):
    """The embeddings of every word of ``text``, written to ``path`` and
    loaded; the rows are read from the cache the load leaves them in."""
    path.write_text(text)
    emb = WordEmbeddings.from_file(path)
    return emb.subset(set(emb.words))


def test_from_file_basic(tmp_path):
    emb = write_vectors(tmp_path / "v.txt",
                        "cat 1.0 2.0\ndog -0.5 0.25\n")
    assert len(emb) == 2
    assert emb.dim == 2
    assert np.array_equal(emb.vectors(emb.indices(["cat", "dog"])),
                          [[1.0, 2.0], [-0.5, 0.25]])


def test_from_file_skips_blank_lines(tmp_path):
    emb = write_vectors(tmp_path / "v.txt", "cat 1.0\n\n\ndog 2.0\n")
    assert emb.words == ["cat", "dog"]


def test_oov_is_zero_vector(tmp_path):
    emb = write_vectors(tmp_path / "v.txt", "cat 1.0 2.0\n")
    assert emb.indices(["unseen"]).tolist() == [-1]
    assert np.array_equal(emb.vectors([-1]), [[0.0, 0.0]])
    assert "unseen" not in emb.words
    assert emb.indices(["cat"]).tolist() == [0]


def test_lookup_is_case_sensitive(tmp_path):
    emb = write_vectors(tmp_path / "v.txt", "Cat 1.0\ncat 2.0\n")
    got = lookup(emb, emb.indices(["Cat", "cat", "CAT"]))
    assert got[0, 0] == 1.0
    assert got[1, 0] == 2.0
    assert np.array_equal(got[2], [0.0])


def test_lookup_many_stacks_rows(tmp_path):
    emb = write_vectors(tmp_path / "v.txt", "a 1.0 0.0\nb 0.0 1.0\n")
    got = lookup(emb, emb.indices(["b", "zzz", "a"]))
    assert got.shape == (3, 2)
    assert np.array_equal(got, [[0.0, 1.0], [0.0, 0.0], [1.0, 0.0]])
    # any index shape: a (2, 2) grid of rows, padding -1 gives zeros
    grid = lookup(emb, np.array([[1, -1], [0, 1]]))
    assert grid.shape == (2, 2, 2)
    assert np.array_equal(grid[0], [[0.0, 1.0], [0.0, 0.0]])


@pytest.mark.parametrize("cached", [True, False], ids=["cache", "array"])
def test_vectors_reads_sorted_distinct_rows_with_the_zero_vector_first(tmp_path, cached):
    # a batch gathers its sorted distinct rows once, -1 (the zero vector)
    # first; both kinds of matrix, of whole embeddings or a view of some
    # words, read them alike
    text = "a 1.0 0.0\nb 0.0 1.0\nc 2.0 2.0\n"
    emb = (write_vectors(tmp_path / "v.txt", text) if cached
           else WordEmbeddings(["a", "b", "c"], np.array([[1.0, 0.0], [0.0, 1.0], [2.0, 2.0]])))
    view = emb.subset({"c", "a", "zzz"})
    assert view.words == ["a", "c"] and view.matrix is emb.matrix
    for got in (emb.vectors([-1, 0, 2]), view.vectors(view.indices(["zzz", "a", "c"]))):
        assert np.array_equal(got, [[0.0, 0.0], [1.0, 0.0], [2.0, 2.0]])
    assert np.array_equal(emb.vectors([1, 2]), [[0.0, 1.0], [2.0, 2.0]])
    assert emb.vectors([-1]).tolist() == [[0.0, 0.0]] and emb.vectors([]).shape == (0, 2)


@pytest.mark.parametrize("text,message", [
    ("cat 1.0\ndog 1.0 2.0\n", "expected 1 values, got 2"),
    ("cat 1.0\ncat 2.0\n", "duplicate word"),
    ("cat one\n", "non-numeric value"),
    ("cat\n", "no vector values"),
    ("", "empty embedding file"),
    # blank lines count: the line is the file's, not the row's
    ("cat 1.0\n\ndog nan\nfox 0.0\n", r"bad\.txt:3: non-finite value$"),
    ("cat 1.0\ndog -inf\n", r"bad\.txt:2: non-finite value$"),
    ("cat 1e999\n", r"bad\.txt:1: non-finite value$"),
])
def test_from_file_rejects(tmp_path, text, message):
    p = tmp_path / "bad.txt"
    p.write_text(text)
    with pytest.raises(EmbeddingError, match=message):
        WordEmbeddings.from_file(p)


def test_from_file_error_names_line(tmp_path):
    p = tmp_path / "bad.txt"
    p.write_text("cat 1.0\ndog 1.0 2.0\n")
    with pytest.raises(EmbeddingError, match=":2:"):
        WordEmbeddings.from_file(p)


def position_table(c, dim, seed):
    """The ``pos_table`` parameter a fresh model draws for window ``c``."""
    emb = WordEmbeddings(["cat"], np.ones((1, 2)))
    model = NfetcModel(figer_hp(d_p=dim, d_s=2, window=c), emb,
                       TypeForest(["/a"]), make_rng(seed))
    return model.params["pos_table"]


def test_position_table_size_and_init_range():
    table = position_table(c=4, dim=3, seed=7)
    assert table.shape == (10, 3)
    assert np.all(np.abs(table) <= 0.25)
    # the model's first draw from its seed, as the trajectories rely on
    assert np.array_equal(table, make_rng(7).uniform(-0.25, 0.25, size=(10, 3)))
    # seeded identically twice -> identical rows
    again = position_table(c=4, dim=3, seed=7)
    assert np.array_equal(table, again)


def test_position_table_rejects_small_window():
    with pytest.raises(ValueError, match="window must be >= 1"):
        figer_hp(window=0)


def test_index_for_inside_span_is_center():
    assert position_rows(3, [2, 3, 4], 2, 5).tolist() == [3, 3, 3]  # d=0 -> c


@pytest.mark.parametrize("i,expected_d", [
    (5, 1),    # first token right of span [2, 5)
    (6, 2),
    (1, -1),   # first token left of span
    (0, -2),
])
def test_index_for_signed_distances(i, expected_d):
    assert position_rows(3, i, 2, 5) == expected_d + 3


def test_index_for_out_of_range_bucket():
    assert position_rows(2, 7, 2, 5) == 2 * 2 + 1  # d=3 beyond c=2
    assert position_rows(2, 30, 2, 5) == 5
    # the farthest in-range tokens still map to edge rows
    assert position_rows(2, 6, 2, 5) == 4
    assert position_rows(2, 0, 2, 5) == 0


def test_index_for_rejects_bad_span():
    # position_rows takes the spans of mention triples, each inside its context
    for start, end in ((3, 3), (-1, 2), (4, 2)):
        with pytest.raises(CorpusError, match=rf"span \[{start}, {end}\) out of bounds"):
            MentionTriple(("a",) * 5, start, end, ())


def test_indices_for_vectorizes():
    got = position_rows(2, np.arange(7), 2, 5)
    assert got.dtype == np.intp
    assert got.tolist() == [0, 1, 2, 2, 2, 3, 4]
    # (T, B) grid: positions down, one span per column
    grid = position_rows(2, np.arange(3)[:, None], np.array([0, 2]), np.array([1, 3]))
    assert grid.tolist() == [[2, 0], [3, 1], [4, 2]]
