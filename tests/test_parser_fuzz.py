"""Seeded mutation fuzzing of every input parser over the fixture files.

Each mutant of a fixture either parses, or raises its parser's own error
type with a message that names the file, and for a text file the line (or,
for a file with nothing in it, says so). Any other exception fails the test.
A checkpoint that loads must also predict: finite rows that sum to 1.
Mutations: byte changes (non-UTF-8 bytes included), deletions, truncation,
fragments of the file spliced in elsewhere, and inserted tabs, slashes,
``#`` and newlines."""

import re
from pathlib import Path

import numpy as np
import pytest

from nfetc.checkpoint import CheckpointError
from nfetc.cli import CliError, build_config
from nfetc.corpus import CorpusError, MentionTriple, parse_corpus
from nfetc.embeddings import EmbeddingError, WordEmbeddings
from nfetc.hierarchy import ForestError, TypeForest, read_refinement
from nfetc.loss import inference_adjust
from nfetc.optim import make_rng
from nfetc.training import load_checkpoint

FIXTURES = Path(__file__).parent / "fixtures"
MINI_FOREST = TypeForest.from_file(FIXTURES / "mini" / "types.txt")
MUTANTS = 300

# fixture, parser, its error type, whether it is a text file, seed
PARSERS = {
    "corpus": ("mini/corpus.tsv", lambda p: parse_corpus(p, MINI_FOREST), CorpusError, True, 1),
    "types": ("mini/types.txt", TypeForest.from_file, ForestError, True, 2),
    "refinement": ("mini/refinement.tsv", read_refinement, ForestError, True, 3),
    "embeddings": ("synth/embeddings.txt", WordEmbeddings.from_file, EmbeddingError, True, 4),
    "checkpoint": ("ckpt_v1/model.ckpt", load_checkpoint, CheckpointError, False, 5),
    # aligned, as ``save`` writes it now; each is read the same way
    "checkpoint-padded": ("ckpt_v1/padded.ckpt", load_checkpoint, CheckpointError, False, 6),
    "config": ("mini/run.cfg", lambda p: build_config("figer", p, []), CliError, True, 7),
}

# one unlabeled mention, for a checkpoint that loads to predict
UNLABELED = MentionTriple(("x", "y"), 0, 1, ())

# messages about a text file as a whole: nothing in it to parse
WHOLE_FILE = ("empty embedding file", "no types")


def mutate(data: bytes, rng: np.random.Generator) -> bytes:
    """One to three random edits of ``data``."""
    for _ in range(int(rng.integers(1, 4))):
        at = int(rng.integers(0, len(data) + 1))
        kind = int(rng.integers(0, 6))
        if kind == 0:     # change a byte to any byte, 0x80-0xff included
            data = data[:at] + bytes([int(rng.integers(0, 256))]) + data[at + 1:]
        elif kind == 1:   # delete a run of bytes
            data = data[:at] + data[at + int(rng.integers(1, 9)):]
        elif kind == 2:   # truncate
            data = data[:at]
        elif kind == 3:   # splice in a fragment of the file
            lo = int(rng.integers(0, len(data) + 1))
            data = data[:at] + data[lo:lo + int(rng.integers(1, 33))] + data[at:]
        elif kind == 4:   # insert a separator the formats give meaning to
            data = data[:at] + [b"\t", b"/", b"#", b"\n", b" "][int(rng.integers(0, 5))] + data[at:]
        else:             # insert a byte sequence that is not UTF-8
            data = data[:at] + [b"\xff", b"\xc3", b"\xe9", b"\xed\xa0\x80"][int(rng.integers(0, 4))] + data[at:]
    return data


@pytest.mark.parametrize("name", sorted(PARSERS))
def test_each_mutant_parses_or_names_the_file_and_line(tmp_path, name):
    fixture, parse, error, text, seed = PARSERS[name]
    original = (FIXTURES / fixture).read_bytes()
    path = tmp_path / Path(fixture).name
    rng = make_rng(seed)
    named = re.compile(re.escape(str(path))
                       + (rf"(:(\d+): |: ({'|'.join(WHOLE_FILE)})$)" if text
                          else ": "))
    rejected = loaded = 0
    for k in range(MUTANTS):
        data = mutate(original, rng)
        path.write_bytes(data)
        try:
            parsed = parse(path)
        except error as e:
            rejected += 1
            found = named.match(str(e))
            assert found, f"mutant {k}: {e}"
            if text and not found.group(3):
                line = int(found.group(2))
                assert 1 <= line <= len(data.splitlines()) + 1, f"mutant {k}: {e}"
            continue
        if not text:   # no checkpoint that loads reaches an unchecked value
            rows = inference_adjust(parsed.model.predict_probs([UNLABELED]), parsed.forest,
                                    parsed.loss_config)
            assert np.all(np.isfinite(rows)), f"mutant {k}"
            assert np.allclose(rows.sum(axis=1), 1.0), f"mutant {k}"
            loaded += 1
    # the mutations do reach the error paths, and do not only break the file
    assert 0.05 * MUTANTS < rejected < MUTANTS
    assert text or loaded > 0


@pytest.mark.parametrize("name", ["checkpoint", "checkpoint-padded"])
def test_each_checkpoint_mutant_loads_alike_streamed_or_whole(tmp_path, name):
    # keeping only the word rows a mention names (as eval and predict do;
    # the fixture's vocabulary is x, y) gives the same error line as a load
    # of the whole matrix, or the same prediction
    mention = MentionTriple(("y", "z"), 0, 1, ())
    fixture, _, _, _, seed = PARSERS[name]
    original = (FIXTURES / fixture).read_bytes()
    path = tmp_path / Path(fixture).name
    rng = make_rng(seed + 100)
    outcomes = set()
    for k in range(MUTANTS):
        path.write_bytes(mutate(original, rng))
        results = []
        for wanted in (None, lambda forest, hp: set(mention.tokens)):
            try:
                restored = load_checkpoint(path, wanted)
                results.append(restored.model.predict_probs([mention]).tobytes())
            except CheckpointError as e:
                results.append(str(e))
        assert results[0] == results[1], f"mutant {k}"
        outcomes.add(type(results[0]))
    assert outcomes == {bytes, str}   # some mutants load, some are refused
