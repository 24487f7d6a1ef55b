"""Labeled mention corpora: parsing, context windowing, filtering, statistics.

Corpus file format, one mention per line, UTF-8:

    <start> SP <end> TAB <space-separated tokens> TAB <space-separated labels>

Token indices are 0-based with start inclusive and end exclusive. Labels are
slash-path types that must exist in the accompanying forest.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

from .hierarchy import TypeForest
from .optim import make_rng
from .textfile import numbered_lines


class CorpusError(ValueError):
    pass


@dataclass(frozen=True)
class MentionTriple:
    """One mention: its context tokens, span, and candidate label set."""

    tokens: tuple[str, ...]
    start: int  # 0-based, inclusive
    end: int    # 0-based, exclusive
    labels: tuple[str, ...]  # file order; the parser rejects duplicates
    terminals: frozenset[str] = field(default=frozenset())

    def __post_init__(self):   # an empty context has no span inside it
        if not (0 <= self.start < self.end <= len(self.tokens)):
            raise CorpusError(f"span [{self.start}, {self.end}) out of bounds "
                              f"for {len(self.tokens)} tokens")


class Corpus(list):
    """Mentions in order, and a ``tag`` naming the part they are (raw,
    filtered, dev, test, input)."""

    def __init__(self, triples=(), tag: str = "raw"):
        super().__init__(triples)
        self.tag = tag


def parse_line(line: str, forest: TypeForest, strings: dict[str, str],
               allow_unlabeled: bool = False,
               mapping: dict[str, str] | None = None) -> MentionTriple:
    """One corpus line as a mention. Each token and label is taken from
    ``strings``, which the caller keeps across a corpus's lines and this adds
    to, so a corpus keeps one string per distinct word or type. Given a
    refinement's old-path -> new-path ``mapping``, each label must be one of
    its keys and is stored as its value, which must be a type of ``forest``.
    With ``allow_unlabeled`` the label field may be left out, and is not read
    when given: such input is only predicted."""
    parts = line.rstrip("\n").split("\t")
    if allow_unlabeled and len(parts) in (2, 3):
        span, token_field = parts[:2]
        label_field = ""
    elif len(parts) == 3:
        span, token_field, label_field = parts
    else:
        raise CorpusError(f"expected 3 tab-separated fields, got {len(parts)}")
    span_parts = span.split(" ")
    if len(span_parts) != 2:
        raise CorpusError("span must be '<start> <end>'")
    try:
        start, end = int(span_parts[0]), int(span_parts[1])
    except ValueError:
        raise CorpusError(f"non-integer span {span!r}") from None
    tokens = token_field.split(" ")
    tokens = tuple(map(strings.setdefault, tokens, tokens))
    if "" in tokens:
        raise CorpusError("empty token (check for doubled spaces)")
    labels = label_field.split(" ") if label_field else []
    labels = tuple(map(strings.setdefault, labels, labels))
    if "" in labels:
        raise CorpusError("empty label")
    if len(set(labels)) != len(labels):
        raise CorpusError("duplicate label")
    for lbl in labels:
        if (lbl if mapping is None else mapping.get(lbl)) not in forest:
            raise CorpusError(f"unknown type {lbl!r}")
    if mapping is not None:
        labels = tuple(map(mapping.__getitem__, labels))
    if not labels and not allow_unlabeled:
        raise CorpusError("missing labels")
    return MentionTriple(tokens, start, end, labels,
                         frozenset(forest.terminal_set(labels)) if labels else frozenset())


def read_mentions(path, forest: TypeForest, allow_unlabeled: bool = False,
                  mapping: dict[str, str] | None = None, fh=None):
    """Each mention of corpus file ``path`` in file order, read from the text
    stream ``fh`` when given (see ``numbered_lines``), its labels read
    through ``mapping`` when given (see ``parse_line``); errors name the
    file and the line."""
    strings = {}
    for lineno, line in numbered_lines(path, CorpusError, fh):
        if line.strip() == "":
            continue
        try:
            yield parse_line(line, forest, strings, allow_unlabeled, mapping)
        except CorpusError as e:
            raise CorpusError(f"{path}:{lineno}: {e}") from None


def parse_corpus(path, forest: TypeForest, tag: str = "raw",
                 allow_unlabeled: bool = False,
                 mapping: dict[str, str] | None = None) -> Corpus:
    """The mentions of a corpus file (see ``read_mentions``)."""
    return Corpus(read_mentions(path, forest, allow_unlabeled, mapping), tag=tag)


def window(triple: MentionTriple, c: int) -> MentionTriple:
    """Truncate context to at most ``c`` tokens either side of the mention.

    The mention itself is kept whole and span indices are re-based. Shorter
    contexts stay short; no padding is inserted. Idempotent.
    ``HyperParams`` keeps ``c`` >= 1.
    """
    left = max(0, triple.start - c)
    right = min(len(triple.tokens), triple.end + c)
    if left == 0 and right == len(triple.tokens):
        return triple
    return MentionTriple(triple.tokens[left:right], triple.start - left,
                         triple.end - left, triple.labels, triple.terminals)


def windowed(corpus: Corpus, c: int) -> Corpus:
    return Corpus([window(t, c) for t in corpus], tag=corpus.tag)


def build_filtered(corpus: Corpus, forest: TypeForest) -> Corpus:
    """Subset of triples whose labels form a single type-path, order preserved."""
    kept = [t for t in corpus if t.labels and forest.is_single_path(t.labels)]
    if not kept:
        raise CorpusError("filtering left no single-path triples")
    return Corpus(kept, tag="filtered")


@dataclass(frozen=True)
class CorpusStats:
    types: int
    mentions: int
    single_path: int
    max_label_depth: int

    @property
    def pct_single_path(self) -> float:
        return 100.0 * self.single_path / self.mentions

    def as_text(self) -> str:
        return (f"types={self.types}\n"
                f"mentions={self.mentions}\n"
                f"single_path={self.single_path}\n"
                f"pct_single_path={self.pct_single_path:.2f}\n"
                f"max_label_depth={self.max_label_depth}\n")

    def as_json(self) -> str:
        return json.dumps({
            "types": self.types,
            "mentions": self.mentions,
            "single_path": self.single_path,
            "pct_single_path": round(self.pct_single_path, 2),
            "max_label_depth": self.max_label_depth,
        })


def stats(corpus: Corpus, forest: TypeForest) -> CorpusStats:
    if len(corpus) == 0:
        raise CorpusError("statistics of an empty corpus")
    single = sum(1 for t in corpus if t.labels and forest.is_single_path(t.labels))
    depth = max((forest.depth(lbl) for t in corpus for lbl in t.labels), default=0)
    return CorpusStats(types=len(forest), mentions=len(corpus),
                       single_path=single, max_label_depth=depth)


def split_dev(corpus: Corpus, fraction: float, seed: int) -> tuple[Corpus, Corpus]:
    """Disjoint, exhaustive (dev, eval) partition by seeded uniform sampling.

    The dev size is fraction * N rounded half-up, for a ``fraction`` in
    (0, 1), which ``nfetc train`` checks with its settings. Relative corpus
    order is preserved inside each part.
    """
    n = len(corpus)
    n_dev = math.floor(fraction * n + 0.5)
    if n_dev == 0:
        raise CorpusError(f"corpus of {n} mentions is too small for a "
                          f"{fraction:.0%} dev split")
    if n_dev == n:
        raise CorpusError("dev split would consume the whole corpus")
    perm = make_rng(seed).permutation(n)
    dev_idx = sorted(perm[:n_dev].tolist())
    eval_idx = sorted(perm[n_dev:].tolist())
    dev = Corpus([corpus[i] for i in dev_idx], tag="dev")
    held = Corpus([corpus[i] for i in eval_idx], tag="test")
    return dev, held
