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

    def __post_init__(self):
        if not self.tokens:
            raise CorpusError("mention context is empty")
        if not (0 <= self.start < self.end <= len(self.tokens)):
            raise CorpusError(f"span [{self.start}, {self.end}) out of bounds "
                              f"for {len(self.tokens)} tokens")


@dataclass
class Corpus:
    triples: list[MentionTriple]
    tag: str = "raw"

    def __len__(self) -> int:
        return len(self.triples)

    def __iter__(self):
        return iter(self.triples)

    def __getitem__(self, i) -> MentionTriple:
        return self.triples[i]


def _derive_terminals(labels, forest: TypeForest) -> frozenset[str]:
    return frozenset(forest.terminal_set(labels)) if labels else frozenset()


def parse_line(line: str, forest: TypeForest, strings: dict[str, str],
               allow_unlabeled: bool = False) -> MentionTriple:
    """One corpus line as a mention. Each token and label is taken from
    ``strings``, which the caller keeps across a corpus's lines and this adds
    to, so a corpus keeps one string per distinct word or type."""
    parts = line.rstrip("\n").split("\t")
    if len(parts) == 2 and allow_unlabeled:
        span, token_field = parts
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
    if any(tok == "" for tok in tokens):
        raise CorpusError("empty token (check for doubled spaces)")
    labels = label_field.split(" ") if label_field else []
    labels = tuple(map(strings.setdefault, labels, labels))
    if any(lbl == "" for lbl in labels):
        raise CorpusError("empty label")
    if len(set(labels)) != len(labels):
        raise CorpusError("duplicate label")
    for lbl in labels:
        if lbl not in forest:
            raise CorpusError(f"unknown type {lbl!r}")
    if not labels and not allow_unlabeled:
        raise CorpusError("missing labels")
    if not (0 <= start < end <= len(tokens)):
        raise CorpusError(f"span [{start}, {end}) out of bounds "
                          f"for {len(tokens)} tokens")
    return MentionTriple(tokens, start, end, labels,
                         _derive_terminals(labels, forest))


def parse_corpus(path, forest: TypeForest, tag: str = "raw",
                 allow_unlabeled: bool = False) -> Corpus:
    """Parse a corpus file; errors name the file and the line."""
    triples, strings = [], {}
    for lineno, line in numbered_lines(path, CorpusError):
        if line.strip() == "":
            continue
        try:
            triples.append(parse_line(line, forest, strings, allow_unlabeled))
        except CorpusError as e:
            raise CorpusError(f"{path}:{lineno}: {e}") from None
    # freed here rather than on return: with glibc's allocator, repeated
    # `nfetc predict` calls in one process (100k-word checkpoint, 4,000
    # mentions) otherwise peaked ~11 MiB higher
    del strings
    return Corpus(triples, tag=tag)


def window(triple: MentionTriple, c: int) -> MentionTriple:
    """Truncate context to at most ``c`` tokens either side of the mention.

    The mention itself is kept whole and span indices are re-based. Shorter
    contexts stay short; no padding is inserted. Idempotent.
    """
    if c < 1:
        raise CorpusError(f"window size must be >= 1, got {c}")
    left = max(0, triple.start - c)
    right = min(len(triple.tokens), triple.end + c)
    if left == 0 and right == len(triple.tokens):
        return triple
    return MentionTriple(triple.tokens[left:right], triple.start - left,
                         triple.end - left, triple.labels, triple.terminals)


def windowed(corpus: Corpus, c: int) -> Corpus:
    return Corpus([window(t, c) for t in corpus], tag=corpus.tag)


def relabel(corpus: Corpus, mapping: dict[str, str], forest: TypeForest) -> Corpus:
    """Rewrite every label through an old-path -> new-path mapping (the
    companion of a hierarchy refinement) and re-derive terminals against the
    refined forest."""
    out = []
    for t in corpus:
        try:
            labels = tuple(mapping[lbl] for lbl in t.labels)
        except KeyError as e:
            raise CorpusError(f"label {e.args[0]!r} missing from the refinement "
                              f"mapping") from None
        out.append(MentionTriple(t.tokens, t.start, t.end, labels,
                                 _derive_terminals(labels, forest)))
    return Corpus(out, tag=corpus.tag)


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

    The dev size is fraction * N rounded half-up. Relative corpus order is
    preserved inside each part.
    """
    if not 0.0 < fraction < 1.0:
        raise CorpusError(f"dev fraction must be in (0, 1), got {fraction}")
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
