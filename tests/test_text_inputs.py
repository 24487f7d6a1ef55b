"""The text readers (corpus, embeddings, types, refinement, config) name the
file and the line of a byte that is not UTF-8 or of a leading byte-order
mark, and read CRLF files as they read LF ones."""

import hashlib
from pathlib import Path

import numpy as np
import pytest

from nfetc import checkpoint
from nfetc.cli import CliError, build_config, main
from nfetc.corpus import CorpusError, parse_corpus
from nfetc.embeddings import CACHE_SUFFIX, EmbeddingError, WordEmbeddings
from nfetc.hierarchy import ForestError, TypeForest, read_refinement
from nfetc.textfile import BOM_MESSAGE, numbered_lines
from wordvectors import matrix

MINI = Path(__file__).parent / "fixtures" / "mini"
FOREST = TypeForest.from_file(MINI / "types.txt")


def parsed_corpus(path):
    return [(t.tokens, t.start, t.end, t.labels) for t in parse_corpus(path, FOREST)]


def parsed_embeddings(path):
    emb = WordEmbeddings.from_file(path)
    return emb.words, matrix(emb).tolist()


# reader, its error type, and the k-th good line (k = 0, 1, ...) as text
READERS = {
    "corpus": (parsed_corpus, CorpusError, lambda k: f"0 1\tJordan{k} played\t/person\n"),
    "embeddings": (parsed_embeddings, EmbeddingError, lambda k: f"w{k} {k}.5 -1e-3\n"),
    "types": (lambda p: TypeForest.from_file(p).types(), ForestError,
              lambda k: f"/t{k}  # type {k}\n"),
    "refinement": (read_refinement, ForestError, lambda k: f"/a{k}\t/b{k}\n"),
}


# a line each reader rejects, and its message
FAULTS = {
    "corpus": ("0 1\tJordan\t/nope\n", "unknown type '/nope'"),
    "embeddings": ("w 1\n", "expected 2 values, got 1"),
    "types": ("/a b\n", "malformed type path: '/a b'"),
    "refinement": ("person\t/x\n", "malformed type path: 'person'"),
}


def lines(reader, n):
    return [READERS[reader][2](k).encode("utf-8") for k in range(n)]


def with_bad_byte(line: bytes) -> bytes:
    """``line`` with a Latin-1 e-acute (0xe9, not UTF-8) after its first byte."""
    return line[:1] + b"\xe9" + line[1:]


@pytest.mark.parametrize("reader", sorted(READERS))
@pytest.mark.parametrize("bad,total", [(1, 3), (5, 9), (2000, 2003), (3000, 3000)],
                         ids=["first", "early", "past-8KiB", "last"])
@pytest.mark.parametrize("newline", [b"\n", b"\r\n"], ids=["lf", "crlf"])
def test_a_byte_that_is_not_utf8_names_the_file_and_line(tmp_path, reader, bad, total,
                                                          newline):
    # text mode decodes thousands of lines ahead; the line must still be the
    # bad byte's own, whatever the line ending
    body = lines(reader, total)
    body[bad - 1] = with_bad_byte(body[bad - 1])
    path = tmp_path / "input.txt"
    path.write_bytes(b"".join(line.replace(b"\n", newline) for line in body))
    parse, error, _ = READERS[reader]
    with pytest.raises(error) as err:
        parse(path)
    assert str(err.value) == f"{path}:{bad}: not valid UTF-8"


@pytest.mark.parametrize("reader", sorted(READERS))
@pytest.mark.parametrize("fault", [2, 2000, 8192, 8193])
def test_the_first_fault_is_reported_before_a_later_bad_byte(tmp_path, reader, fault):
    # text mode fails to decode the bad byte's block before it hands out the
    # faulty line in front of it; the faulty line is still the one reported
    # (8192 and 8193: last and first line of the embedding loader's chunks)
    body = lines(reader, fault + 2)
    body[fault - 1] = FAULTS[reader][0].encode("utf-8")
    body[fault] = with_bad_byte(body[fault])
    path = tmp_path / "input.txt"
    path.write_bytes(b"".join(body))
    parse, error, _ = READERS[reader]
    with pytest.raises(error) as err:
        parse(path)
    assert str(err.value) == f"{path}:{fault}: {FAULTS[reader][1]}"


def test_the_lines_before_a_bad_byte_are_handed_out_first(tmp_path):
    body = lines("types", 3000)
    body[2500] = with_bad_byte(body[2500])
    path = tmp_path / "types.txt"
    path.write_bytes(b"".join(body))
    got = []
    with pytest.raises(ForestError, match=r":2501: not valid UTF-8$"):
        for item in numbered_lines(path, ForestError):
            got.append(item)
    assert got == [(k + 1, line.decode("utf-8")) for k, line in enumerate(body[:2500])]


@pytest.mark.parametrize("reader", sorted(READERS))
def test_a_truncated_character_at_the_end_names_the_last_line(tmp_path, reader):
    # 0xc3 opens a two-byte character that the file ends before completing
    path = tmp_path / "input.txt"
    path.write_bytes(b"".join(lines(reader, 4)) + b"# \xc3")
    parse, error, _ = READERS[reader]
    with pytest.raises(error) as err:
        parse(path)
    assert str(err.value) == f"{path}:5: not valid UTF-8"


@pytest.mark.parametrize("reader", sorted(READERS))
def test_crlf_files_parse_as_lf_files(tmp_path, reader):
    body = b"".join(lines(reader, 50))
    lf, crlf = tmp_path / "lf.txt", tmp_path / "crlf.txt"
    lf.write_bytes(body)
    crlf.write_bytes(body.replace(b"\n", b"\r\n"))
    parse = READERS[reader][0]
    assert parse(crlf) == parse(lf)


@pytest.mark.parametrize("reader", sorted(READERS) + ["config", "embeddings-cached"])
def test_a_byte_order_mark_is_refused_at_line_1(tmp_path, reader):
    # the mark would join the first field: a word that no corpus token
    # matches, or a malformed span, type path or config key
    path = tmp_path / "input.txt"
    if reader == "config":
        parse, error, body = (lambda p: build_config("figer", str(p), [])), CliError, [b"seed=2\n"]
    else:
        parse, error, _ = READERS[reader.removesuffix("-cached")]
        body = lines(reader.removesuffix("-cached"), 3)
    path.write_bytes("\ufeff".encode("utf-8") + b"".join(body))
    if reader == "embeddings-cached":
        # the cache of a reader that kept the mark in the first word is
        # valid for these bytes; the mark is refused before it is read
        checkpoint.save(f"{path}{CACHE_SUFFIX}",
                        {"source_sha256": hashlib.sha256(path.read_bytes()).hexdigest(),
                         "vocab": ["\ufeffw0", "w1", "w2"]},
                        [("word_emb", False, np.array([[k + 0.5, -1e-3] for k in range(3)]))])
    with pytest.raises(error) as err:
        parse(path)
    assert str(err.value) == f"{path}:1: {BOM_MESSAGE}"


def test_utf8_text_still_parses(tmp_path):
    path = tmp_path / "v.txt"
    path.write_bytes("café 1.0\nnaïve 2.0\n".encode("utf-8"))
    emb = WordEmbeddings.from_file(path)
    assert emb.words == ["café", "naïve"]
    assert np.array_equal(matrix(emb), [[1.0], [2.0]])


def run(argv, capsys):
    code = main(argv)
    out, err = capsys.readouterr()
    return code, out, err


def test_stats_on_a_latin1_corpus_is_one_error_line(tmp_path, capsys):
    corpus = tmp_path / "latin1.tsv"
    corpus.write_bytes("0 1\tJordan played\t/person\n0 1\tJosé played\t/person\n"
                       .encode("latin-1"))
    code, out, err = run(["stats", "--set", f"types={MINI / 'types.txt'}",
                          "--set", f"input={corpus}"], capsys)
    assert (code, out, err) == (1, "", f"error: {corpus}:2: not valid UTF-8\n")


def test_a_latin1_config_file_is_exit_2(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_bytes("# config\ntypes=caf\xe9.txt\n".encode("latin-1"))
    code, out, err = run(["stats", "--config", str(cfg)], capsys)
    assert (code, out, err) == (2, "", f"error: {cfg}:2: not valid UTF-8\n")


@pytest.mark.parametrize("text,line,message", [
    ("person\t/x\n", 1, "malformed type path: 'person'"),
    ("/a\t/x/\n", 1, "malformed type path: '/x/'"),
    ("# moves\n/a\t/x\n/b\t/y\n\n/c\t/x\n", 5, "duplicate target '/x'"),
    ("/a\t/x\n/a\t/y\n", 2, "duplicate source '/a'"),
], ids=["bare-source", "target-with-trailing-slash", "repeated-target", "repeated-source"])
def test_refinement_errors_name_the_file_and_line(tmp_path, text, line, message):
    path = tmp_path / "refine.tsv"
    path.write_text(text)
    with pytest.raises(ForestError) as err:
        read_refinement(path)
    assert str(err.value) == f"{path}:{line}: {message}"


@pytest.mark.parametrize("text", ["", "# only a comment\n\n  # and another\n"],
                         ids=["empty", "comments-only"])
def test_a_types_file_without_types_names_the_file(tmp_path, text):
    path = tmp_path / "types.txt"
    path.write_text(text)
    with pytest.raises(ForestError) as err:
        TypeForest.from_file(path)
    assert str(err.value) == f"{path}: no types"
