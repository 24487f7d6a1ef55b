import contextlib
import io
import json
from pathlib import Path

import pytest

from nfetc import cli
from nfetc.corpus import (Corpus, CorpusError, MentionTriple, build_filtered,
                          parse_corpus, parse_line, split_dev, stats, window,
                          windowed)
from nfetc.hierarchy import TypeForest, apply_refinement
from hparams import figer_hp

MINI = Path(__file__).parent / "fixtures" / "mini"


@pytest.fixture(scope="module")
def forest():
    return TypeForest.from_file(MINI / "types.txt")


@pytest.fixture(scope="module")
def corpus(forest):
    return parse_corpus(MINI / "corpus.tsv", forest, tag="mini")


@pytest.fixture(scope="module")
def manifest():
    with open(MINI / "manifest.json") as fh:
        return json.load(fh)


def test_parse_mini_corpus(corpus):
    assert len(corpus) == 12
    assert corpus.tag == "mini"
    first = corpus[0]
    assert first.tokens[first.start:first.end] == ("Jordan",)
    assert first.labels == ("/person", "/person/athlete")
    assert first.terminals == frozenset({"/person/athlete"})


def test_parse_derives_terminals(corpus):
    # line 5 has two sibling terminals under /person
    multi = corpus[4]
    assert multi.terminals == frozenset({"/person/athlete", "/person/coach"})


def test_parse_keeps_every_field(corpus):
    lines = (MINI / "corpus.tsv").read_text(encoding="utf-8").splitlines()
    assert len(lines) == len(corpus)
    for line, t in zip(lines, corpus):
        span, tokens, labels = line.split("\t")
        assert (t.start, t.end) == tuple(int(v) for v in span.split(" "))
        assert t.tokens == tuple(tokens.split(" "))
        assert t.labels == tuple(labels.split(" "))


def test_blank_lines_skipped(forest, tmp_path):
    src = (MINI / "corpus.tsv").read_text()
    lines = src.splitlines()
    padded = "\n".join([lines[0], "", "   ", lines[1]]) + "\n"
    p = tmp_path / "padded.tsv"
    p.write_text(padded)
    got = parse_corpus(p, forest)
    assert len(got) == 2
    assert got.tag == "raw"


REJECTED = [
    ("0 1\tJordan", "expected 3 tab-separated fields"),
    ("0 1\ta b\tc\td", "expected 3 tab-separated fields"),
    ("0\tJordan\t/person", "span must be"),
    ("zero 1\tJordan\t/person", "non-integer span"),
    ("0 1\tJordan  played\t/person", "empty token"),
    ("0 1\tJordan\t/person ", "empty label"),
    ("0 1\tJordan\t/person /person", "duplicate label"),
    ("0 1\tJordan\t/martian", "unknown type"),
    ("1 1\tJordan played\t/person", "out of bounds"),
    ("0 3\tJordan played\t/person", "out of bounds"),
    ("-1 1\tJordan\t/person", "out of bounds"),
]


@pytest.mark.parametrize("line,message", REJECTED)
def test_parse_line_rejects(forest, line, message):
    with pytest.raises(CorpusError, match=message):
        parse_line(line, forest, {})


@pytest.mark.parametrize("line,message", REJECTED)
def test_each_corpus_error_reads_path_colon_line(forest, tmp_path, line, message):
    # the line number counts the blank line; parse_line's message follows
    # "<path>:<n>: " as it is
    p = tmp_path / "bad.tsv"
    p.write_text(f"0 1\tJordan\t/person\n\n{line}\n")
    with pytest.raises(CorpusError) as err:
        parse_corpus(p, forest)
    with pytest.raises(CorpusError) as alone:
        parse_line(line, forest, {})
    assert message in str(alone.value)
    assert str(err.value) == f"{p}:3: {alone.value}"


def test_mentions_share_their_token_and_label_strings(forest, tmp_path):
    p = tmp_path / "c.tsv"
    p.write_text("0 1\tJordan played\t/person\n1 2\tthen Jordan played\t/person\n")
    first, second = parse_corpus(p, forest)
    # each line's text is split afresh, yet equal words are one object
    assert first.tokens[0] is second.tokens[1]
    assert first.tokens[1] is second.tokens[2]
    assert first.labels[0] is second.labels[0]
    assert first == MentionTriple(("Jordan", "played"), 0, 1, ("/person",),
                                  frozenset({"/person"}))


def test_parse_errors_carry_line_number(forest, tmp_path):
    p = tmp_path / "bad.tsv"
    p.write_text("0 1\tJordan\t/person\n0 1\tJordan\t/martian\n")
    with pytest.raises(CorpusError) as err:
        parse_corpus(p, forest)
    # one form for every reader: <path>:<line>: <message>
    assert str(err.value) == f"{p}:2: unknown type '/martian'"


def test_unlabeled_lines_need_opt_in(forest):
    with pytest.raises(CorpusError, match="expected 3 tab-separated fields"):
        parse_line("0 1\tJordan", forest, {})
    triple = parse_line("0 1\tJordan", forest, {}, allow_unlabeled=True)
    assert triple.labels == ()
    assert triple.terminals == frozenset()
    assert triple == MentionTriple(("Jordan",), 0, 1, ())
    # prediction input reads no labels, not even ones outside the forest
    assert parse_line("0 1\tJordan\t/martian", forest, {}, allow_unlabeled=True) == triple


def test_empty_label_field_still_needs_opt_in(forest):
    with pytest.raises(CorpusError, match="missing labels"):
        parse_line("0 1\tJordan\t", forest, {}, allow_unlabeled=False)


def test_triple_guards(forest):
    # an empty context holds no span, and a corpus line cannot give one: its
    # token field splits into at least one token, if only the empty one
    with pytest.raises(CorpusError, match="empty"):
        parse_line("0 1\t\t/person", forest, {})
    with pytest.raises(CorpusError, match="out of bounds for 0 tokens"):
        MentionTriple((), 0, 1, ())
    with pytest.raises(CorpusError, match="out of bounds"):
        MentionTriple(("a", "b"), 1, 1, ())


def test_window_plain_arithmetic(forest):
    tokens = tuple(f"t{i}" for i in range(50))
    triple = MentionTriple(tokens, 25, 26, ("/person",), frozenset({"/person"}))
    cut = window(triple, 10)
    assert len(cut.tokens) == 21
    assert cut.start == 10 and cut.end == 11
    assert cut.tokens[cut.start:cut.end] == ("t25",)
    assert cut.labels == triple.labels
    assert cut.terminals == triple.terminals


def test_window_clips_at_edges():
    tokens = tuple(f"t{i}" for i in range(8))
    left = window(MentionTriple(tokens, 1, 2, ("/x",)), 3)
    assert left.tokens == tokens[:5] and left.start == 1

    right = window(MentionTriple(tokens, 6, 8, ("/x",)), 3)
    assert right.tokens == tokens[3:] and right.tokens[right.start:right.end] == ("t6", "t7")


def test_window_idempotent():
    tokens = tuple(f"t{i}" for i in range(30))
    triple = MentionTriple(tokens, 14, 16, ("/x",))
    once = window(triple, 5)
    assert window(once, 5) is once


def test_window_short_context_untouched():
    triple = MentionTriple(("a", "b", "c"), 1, 2, ("/x",))
    assert window(triple, 10) is triple


def test_window_rejects_nonpositive():
    # window takes the run's window, which HyperParams checks
    for c in (0, -1):
        with pytest.raises(ValueError, match=f"window must be >= 1, got {c}"):
            figer_hp(window=c)


def test_windowed_maps_all_and_keeps_tag(corpus):
    cut = windowed(corpus, 2)
    assert len(cut) == len(corpus)
    assert cut.tag == corpus.tag
    assert all(len(t.tokens) <= (t.end - t.start) + 4 for t in cut)
    assert ([t.tokens[t.start:t.end] for t in cut]
            == [t.tokens[t.start:t.end] for t in corpus])


def test_build_filtered_matches_manifest(corpus, forest, manifest):
    filtered = build_filtered(corpus, forest)
    assert len(filtered) == manifest["stats"]["single_path"]
    assert filtered.tag == "filtered"
    # order preserved: surviving mentions appear in corpus order
    survivors = [t for t in corpus if t in set(filtered)]
    assert survivors == filtered


def test_build_filtered_rejects_empty(forest):
    multi = MentionTriple(("x",), 0, 1, ("/person/athlete", "/person/coach"),
                          frozenset({"/person/athlete", "/person/coach"}))
    with pytest.raises(CorpusError, match="no single-path"):
        build_filtered(Corpus([multi]), forest)


def test_stats_match_manifest(corpus, forest, manifest):
    got = json.loads(stats(corpus, forest).as_json())
    assert got == manifest["stats"]


def test_stats_text_block(corpus, forest):
    text = stats(corpus, forest).as_text()
    assert text == ("types=6\nmentions=12\nsingle_path=8\n"
                    "pct_single_path=66.67\nmax_label_depth=2\n")


def test_stats_empty_corpus_rejected(forest):
    with pytest.raises(CorpusError, match="empty"):
        stats(Corpus([]), forest)


def test_relabel_through_refinement(corpus, forest):
    refined, full_map = apply_refinement(forest, {"/person": "/human"})
    moved = parse_corpus(MINI / "corpus.tsv", refined, mapping=full_map)
    assert len(moved) == len(corpus)
    assert moved[0].labels == ("/human", "/human/athlete")
    assert moved[0].terminals == frozenset({"/human/athlete"})
    # untouched subtrees keep their names
    assert moved[2].labels == ("/location",)


def test_relabel_missing_key_rejected(forest):
    # a label the map lacks is an unknown type, named at its own line
    partial = {path: path for path in forest.types() if path != "/location"}
    with pytest.raises(CorpusError) as err:
        parse_corpus(MINI / "corpus.tsv", forest, mapping=partial)
    assert str(err.value) == f"{MINI / 'corpus.tsv'}:3: unknown type '/location'"


def test_split_dev_sizes_round_half_up(corpus):
    dev, held = split_dev(corpus, 0.1, seed=2014)
    assert len(dev) == 1 and len(held) == 11  # 1.2 rounds to 1

    triples = corpus * 3  # 36 mentions
    dev, held = split_dev(Corpus(triples), 0.125, seed=1)
    assert len(dev) == 5  # 4.5 rounds up


def test_split_dev_partition_properties(corpus):
    dev, held = split_dev(corpus, 0.25, seed=9)
    assert dev.tag == "dev" and held.tag == "test"
    assert len(dev) + len(held) == len(corpus)
    ids = {id(t) for t in corpus}
    assert {id(t) for t in dev} | {id(t) for t in held} == ids
    assert not {id(t) for t in dev} & {id(t) for t in held}


def test_split_dev_preserves_relative_order(corpus):
    order = {id(t): i for i, t in enumerate(corpus)}
    dev, held = split_dev(corpus, 0.25, seed=9)
    for part in (dev, held):
        positions = [order[id(t)] for t in part]
        assert positions == sorted(positions)


def test_split_dev_deterministic(corpus):
    a = split_dev(corpus, 0.25, seed=9)
    b = split_dev(corpus, 0.25, seed=9)
    assert a[0] == b[0]
    c = split_dev(corpus, 0.25, seed=10)
    assert a[0] != c[0] or a[1] != c[1]


@pytest.mark.parametrize("fraction", [0.0, 1.0, -0.5, 2.0])
def test_split_dev_fraction_bounds(tmp_path, fraction):
    # ``nfetc train`` checks the fraction with its other settings, before it
    # reads a file, so a malformed corpus is not what it reports
    bad = tmp_path / "bad.tsv"
    bad.write_text("0 9\tJordan\t/a\n")
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        code = cli.main(["train", "--set", f"types={MINI / 'types.txt'}",
                         "--set", f"train={bad}", "--set", f"test={bad}",
                         "--set", f"embeddings={bad}", "--set", f"dev_fraction={fraction}"])
    assert code == 1
    assert err.getvalue() == f"error: dev fraction must be in (0, 1), got {fraction}\n"


def test_split_dev_degenerate_sizes(corpus):
    tiny = Corpus(corpus[:4])
    with pytest.raises(CorpusError, match="too small"):
        split_dev(tiny, 0.1, seed=1)
    pair = Corpus(corpus[:2])
    with pytest.raises(CorpusError, match="whole corpus"):
        split_dev(pair, 0.9, seed=1)
