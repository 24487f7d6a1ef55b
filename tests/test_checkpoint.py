import dataclasses
import gc
import json
import mmap
import os
import re
import struct
import tracemalloc

import numpy as np
import pytest

from ckptedit import padded_header, rewrite_meta, rewrite_params
from nfetc import training as training_module
from nfetc.checkpoint import MAGIC, READ_BYTES, CheckpointError, header, load, open_frozen, save
from nfetc.corpus import MentionTriple
from nfetc.embeddings import WordEmbeddings
from nfetc.hierarchy import TypeForest
from nfetc.loss import LossConfig
from nfetc.model import NfetcModel, param_shapes
from nfetc.optim import make_rng
from nfetc.training import (HyperParams, load_checkpoint, params_from_values,
                            save_checkpoint)
from hparams import figer_hp


def sample_tensors() -> list:
    rng = make_rng(2)
    return [("word_emb", False, rng.normal(size=(4, 3))),
            ("w", True, rng.normal(size=(3, 5))),
            ("b", True, np.array([0.0, -1.5, 2.25]))]


def test_round_trip_preserves_everything(tmp_path):
    path = tmp_path / "model.ckpt"
    tensors = sample_tensors()
    save(path, {"note": "hello", "k": 3}, tensors)

    meta, loaded = load(path)
    assert meta["note"] == "hello" and meta["k"] == 3
    assert list(loaded) == ["word_emb", "w", "b"]
    assert [(e["name"], e["trainable"]) for e in meta["params"]] == [
        ("word_emb", False), ("w", True), ("b", True)]
    for name, _, arr in tensors:
        assert np.array_equal(loaded[name], arr)
    # loaded arrays must be private, writable copies
    loaded["w"][0, 0] += 1.0
    assert loaded["w"][0, 0] != tensors[1][2][0, 0]


def test_identical_saves_are_byte_identical(tmp_path):
    a, b = tmp_path / "a.ckpt", tmp_path / "b.ckpt"
    save(a, {"seed": 1}, sample_tensors())
    save(b, {"seed": 1}, sample_tensors())
    assert a.read_bytes() == b.read_bytes()


def test_save_writes_each_tensor_from_its_own_buffer(tmp_path):
    # numpy reports its buffers to tracemalloc, so a copy of the 16 MiB
    # matrix on the way to the file would show as a 16 MiB peak
    big = np.arange(2 * 2**20, dtype=np.float64).reshape(2048, 1024)
    path = tmp_path / "big.ckpt"
    tracemalloc.start()
    try:
        save(path, {}, [("big", True, big), ("column", True, big[:, :1])])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < big.nbytes // 8
    _, loaded = load(path)
    assert np.array_equal(loaded["big"], big) and np.array_equal(loaded["column"], big[:, :1])


def test_save_of_loaded_copy_is_byte_identical(tmp_path):
    first = tmp_path / "first.ckpt"
    save(first, {"seed": 1}, sample_tensors())
    meta, loaded = load(first)
    second = tmp_path / "second.ckpt"
    entries = meta.pop("params")
    save(second, meta, [(e["name"], e["trainable"], loaded[e["name"]]) for e in entries])
    assert first.read_bytes() == second.read_bytes()


def test_failed_save_leaves_old_file_intact(tmp_path):
    path = tmp_path / "model.ckpt"
    save(path, {"seed": 1}, sample_tensors())
    before = path.read_bytes()
    tensors = sample_tensors()
    # the last tensor cannot be serialized, so the write stops partway
    tensors[2] = ("b", True, np.array([1.0, "x"], dtype=object))
    with pytest.raises(ValueError):
        save(path, {"seed": 2}, tensors)
    assert path.read_bytes() == before
    assert os.listdir(tmp_path) == ["model.ckpt"]


def write_raw(path, body: bytes):
    path.write_bytes(body)
    return path


def packed(meta: dict, tensors: bytes) -> bytes:
    blob = json.dumps(meta).encode("utf-8")
    return MAGIC + str(len(blob)).encode() + b"\n" + blob + tensors


def test_load_rejects_bad_magic(tmp_path):
    p = write_raw(tmp_path / "x.ckpt", b"NOTACKPT\n")
    with pytest.raises(CheckpointError, match="bad magic"):
        load(p)


def test_load_rejects_missing_meta_length(tmp_path):
    p = write_raw(tmp_path / "x.ckpt", MAGIC)
    with pytest.raises(CheckpointError, match="truncated before meta length"):
        load(p)


def test_load_rejects_malformed_meta_length(tmp_path):
    p = write_raw(tmp_path / "x.ckpt", MAGIC + b"twelve\n{}")
    with pytest.raises(CheckpointError, match="malformed meta length"):
        load(p)


def test_load_rejects_truncated_meta(tmp_path):
    p = write_raw(tmp_path / "x.ckpt", MAGIC + b"999\n{}")
    with pytest.raises(CheckpointError, match="truncated meta"):
        load(p)


@pytest.mark.parametrize("length,message", [
    (b"-1", "malformed meta length"),
    (b"99999999999", "truncated meta block"),
], ids=["negative", "past-the-file"])
def test_load_rejects_a_meta_length_before_reading(tmp_path, length, message):
    # checked against the file's size first: a read of -1 bytes would take
    # the rest of the file, one of 99999999999 a MemoryError
    p = write_raw(tmp_path / "x.ckpt", MAGIC + length + b"\n{}" + b" " * 2**20)
    tracemalloc.start()
    try:
        with pytest.raises(CheckpointError) as err:
            load(p)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert str(err.value) == f"{p}: {message}"
    assert peak < 2**16


def test_load_rejects_corrupt_json(tmp_path):
    p = write_raw(tmp_path / "x.ckpt", MAGIC + b"5\n{oops")
    with pytest.raises(CheckpointError, match="corrupt meta"):
        load(p)
    # nested deeper than the JSON decoder recurses
    p = write_raw(tmp_path / "nested.ckpt", header(b"[" * 100000))
    with pytest.raises(CheckpointError, match=re.escape(f"{p}: corrupt meta block: ")):
        load(p)


@pytest.mark.parametrize("meta", [[1, 2], "params", None, 3], ids=["list", "string", "null", "number"])
def test_load_rejects_a_meta_block_that_is_not_an_object(tmp_path, meta):
    p = write_raw(tmp_path / "x.ckpt", packed(meta, b""))
    with pytest.raises(CheckpointError) as err:
        load(p)
    assert str(err.value) == f"{p}: meta block is not a JSON object"


def test_load_rejects_missing_param_list(tmp_path):
    p = write_raw(tmp_path / "x.ckpt", packed({"note": 1}, b""))
    with pytest.raises(CheckpointError, match="lacks the parameter list"):
        load(p)


def test_load_rejects_truncated_tensor(tmp_path):
    meta = {"params": [{"name": "w", "trainable": True, "shape": [2]}]}
    p = write_raw(tmp_path / "x.ckpt", packed(meta, struct.pack("<d", 1.0)))
    with pytest.raises(CheckpointError, match="truncated tensor 'w'"):
        load(p)


@pytest.mark.parametrize("shape", [[10**7, 10**7], [2**40, 2**40]], ids=["728TiB", "2**80"])
def test_load_rejects_shapes_larger_than_the_file(tmp_path, shape):
    # rejected before any allocation, so neither a memory error nor numpy's
    # "array is too big" surfaces
    meta = {"params": [{"name": "w", "trainable": True, "shape": shape}]}
    p = write_raw(tmp_path / "x.ckpt", packed(meta, struct.pack("<d", 1.0)))
    with pytest.raises(CheckpointError, match=re.escape(f"{p}: truncated tensor 'w'")):
        load(p)


def test_load_rejects_a_short_read(tmp_path, monkeypatch):
    # a file that shrinks after its size was taken: the size check passes, so
    # the read itself must notice the missing bytes
    meta = {"params": [{"name": "w", "trainable": True, "shape": [2]}]}
    p = write_raw(tmp_path / "x.ckpt", packed(meta, struct.pack("<d", 1.0)))
    size = os.path.getsize(p) + 8
    monkeypatch.setattr(os, "fstat", lambda fd: os.stat_result((0,) * 6 + (size,) + (0,) * 3))
    with pytest.raises(CheckpointError, match=re.escape(f"{p}: truncated tensor 'w'")):
        load(p)


def test_load_rejects_a_meta_block_that_shrinks(tmp_path, monkeypatch):
    # as above, but the file ends inside the meta block: its length fits the
    # size taken before the read, and the read comes back short
    blob = json.dumps({"params": []}).encode("utf-8")
    p = write_raw(tmp_path / "x.ckpt", MAGIC + str(len(blob) + 5).encode() + b"\n" + blob)
    size = os.path.getsize(p) + 5
    monkeypatch.setattr(os, "fstat", lambda fd: os.stat_result((0,) * 6 + (size,) + (0,) * 3))
    with pytest.raises(CheckpointError, match=re.escape(f"{p}: truncated meta block")):
        load(p)


def test_load_rejects_trailing_bytes(tmp_path):
    meta = {"params": [{"name": "w", "trainable": True, "shape": [1]}]}
    p = write_raw(tmp_path / "x.ckpt",
                  packed(meta, struct.pack("<dd", 1.0, 2.0)))
    with pytest.raises(CheckpointError, match="trailing bytes"):
        load(p)


def test_load_rejects_non_finite_values(tmp_path):
    meta = {"params": [{"name": "w", "trainable": True, "shape": [1]}]}
    p = write_raw(tmp_path / "x.ckpt",
                  packed(meta, struct.pack("<d", float("nan"))))
    with pytest.raises(CheckpointError, match="non-finite values in 'w'"):
        load(p)


# -- the frozen tensor, streamed -----------------------------------------------


def framed(meta: dict, tensors: bytes, aligned: bool) -> bytes:
    """``meta`` and ``tensors`` with the first tensor at a multiple of 8
    bytes, as writers before the unpadded one put it, or one space later,
    off that grid."""
    head = padded_header(json.dumps(meta).encode("utf-8"))
    if not aligned:
        head = header(head[head.index(b"\n", len(MAGIC)) + 1:] + b" ")
    assert (len(head) % 8 == 0) == aligned
    return head + tensors


def test_header_adds_no_padding_and_a_padded_block_still_loads(tmp_path):
    for n in range(1, 2100):
        blob = b"{" + b"0" * (n - 2) + b"}" if n > 1 else b"0"
        assert header(blob) == MAGIC + b"%d\n" % n + blob, n
        # the old layout, as ``padded_header`` writes it
        head = padded_header(blob)
        length, rest = head[len(MAGIC):].split(b"\n", 1)
        assert len(head) % 8 == 0, n
        # the padding may add a digit to the length line, which is recounted
        assert int(length) == len(rest) and rest == blob + b" " * (len(rest) - n)
        # and no fewer spaces would align it
        assert all((len(MAGIC) + len(str(n + k)) + 1 + n + k) % 8
                   for k in range(len(rest) - n))
    # a file whose block is padded so loads as the one ``save`` wrote
    path = tmp_path / "model.ckpt"
    save(path, {"k": 1}, sample_tensors())
    raw = path.read_bytes()
    length_end = raw.index(b"\n", len(MAGIC))
    blob_end = length_end + 1 + int(raw[len(MAGIC):length_end])
    assert blob_end % 8   # so the old writer would have padded it
    padded = write_raw(tmp_path / "padded.ckpt",
                       padded_header(raw[length_end + 1:blob_end]) + raw[blob_end:])
    assert len(padded.read_bytes()) > len(raw)
    (meta, tensors), (padded_meta, padded_tensors) = load(path), load(padded)
    assert padded_meta == meta and list(padded_tensors) == list(tensors)
    for name, a in tensors.items():
        assert padded_tensors[name].tobytes() == a.tobytes(), name


def test_frozen_tensor_is_read_into_an_array_of_its_own(tmp_path):
    path = tmp_path / "model.ckpt"
    tensors = sample_tensors()
    save(path, {}, tensors)
    _, loaded = load(path)
    # the frozen tensor too: the embeddings, not the load, make it read-only
    for name, _, arr in tensors:
        assert loaded[name].flags.owndata and loaded[name].flags.writeable, name
        assert np.array_equal(loaded[name], arr)


@pytest.mark.parametrize("shape", [(), (0,), (3,), (2, 0), (0, 4), (3 * (READ_BYTES // 40) + 7, 5)],
                         ids=["scalar", "empty", "vector", "empty-rows", "no-rows", "several-reads"])
def test_unaligned_frozen_tensor_is_read(tmp_path, shape):
    # each frozen tensor loads whole, with its exact shape and bytes, at the
    # multiple of 8 bytes earlier writers put it at and off that grid; the
    # last shape takes three reads of the load's buffer and part of a fourth
    values = make_rng(3).normal(size=shape)
    for aligned in (True, False):
        meta = {"params": [{"name": "word_emb", "trainable": False, "shape": list(shape)}]}
        p = write_raw(tmp_path / f"{aligned}.ckpt", framed(meta, values.tobytes(), aligned))
        _, loaded = load(p)
        assert loaded["word_emb"].shape == shape and loaded["word_emb"].dtype == np.float64
        assert loaded["word_emb"].tobytes() == values.tobytes()


def test_a_whole_load_holds_one_copy_and_one_buffer(tmp_path, monkeypatch):
    # numpy reports its buffers to tracemalloc: a load of the whole 16 MiB
    # frozen matrix holds it once, plus the buffer it is streamed through,
    # and maps nothing
    big = np.arange(2 * 2**20, dtype=np.float64).reshape(2048, 1024)
    path = tmp_path / "big.ckpt"
    save(path, {}, [("word_emb", False, big), ("w", True, np.ones(3))])
    monkeypatch.setattr(mmap, "mmap", lambda *a, **k: pytest.fail("the load mapped the file"))
    tracemalloc.start()
    try:
        _, loaded = load(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < big.nbytes + 2 * READ_BYTES
    assert np.array_equal(loaded["word_emb"], big)


def test_load_with_rows_keeps_those_rows_and_maps_nothing(tmp_path, monkeypatch):
    # a frozen matrix of eight reads and a bit through the load's buffer: the
    # load asks ``rows`` once, after the file's checks, keeps those rows
    # (either side of each read's end among them) and holds little more
    # than its buffer beside them
    width = 64
    step = READ_BYTES // (8 * width)
    big = np.arange((8 * step + 5) * width, dtype=np.float64).reshape(-1, width)
    path = tmp_path / "big.ckpt"
    save(path, {"k": 1}, [("word_emb", False, big), ("w", True, np.ones(3))])
    keep = np.array([0, 7, step - 1, step, 2 * step, 8 * step + 4])
    asked = []
    monkeypatch.setattr(mmap, "mmap", lambda *a, **k: pytest.fail("the load mapped the file"))
    tracemalloc.start()
    try:
        meta, loaded = load(path, lambda meta: asked.append(meta["k"]) or keep)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert asked == [1] and list(loaded) == ["word_emb", "w"]
    assert np.array_equal(loaded["word_emb"], big[keep])
    assert np.array_equal(loaded["w"], np.ones(3))
    assert peak < 2 * READ_BYTES < big.nbytes // 3
    # a fault the file shows is reported before ``rows`` is asked
    write_raw(path, path.read_bytes() + b"\0" * 8)
    with pytest.raises(CheckpointError, match="8 trailing bytes"):
        load(path, lambda meta: pytest.fail("rows asked"))


def test_take_reads_each_run_of_rows_once_and_checks_it_again(tmp_path, monkeypatch):
    # a frozen tensor left in its file gives the rows asked for, one read per
    # run of consecutive rows, and each read checks again that its rows are
    # whole and finite
    big = np.arange(50 * 3, dtype=np.float64).reshape(50, 3)
    path = tmp_path / "x.ckpt"
    save(path, {"k": 1}, [("word_emb", False, big), ("w", True, np.ones(2))])
    meta, tensors, frozen = open_frozen(str(path))
    assert meta["k"] == 1 and list(tensors) == ["w"] and frozen.shape == (50, 3)
    real, reads = os.preadv, []
    monkeypatch.setattr(os, "preadv", lambda *args: reads.append(args[2]) or real(*args))
    rows = np.array([0, 1, 2, 7, 9, 10, 49])
    assert frozen.take(rows).tobytes() == big[rows].tobytes()
    assert reads == [frozen.at + 24 * r for r in (0, 7, 9, 49)]
    assert frozen.take(np.empty(0, dtype=np.intp)).shape == (0, 3)
    with open(path, "r+b") as f:   # a NaN in row 9, written in place
        f.seek(frozen.at + 24 * 9)
        f.write(struct.pack("<d", float("nan")))
    with pytest.raises(CheckpointError) as err:
        frozen.take(rows)
    assert str(err.value) == f"{path}: non-finite values in 'word_emb'"
    assert frozen.take(np.array([8, 10])).tobytes() == big[[8, 10]].tobytes()
    os.truncate(path, frozen.at + 24 * 49 + 8)   # row 49 cut short
    with pytest.raises(CheckpointError) as err:
        frozen.take(np.array([48, 49]))
    assert str(err.value) == f"{path}: truncated tensor 'word_emb'"


# "padded" names the aligned layout earlier writers padded the JSON block to,
# which readers before the streamed one mapped; both give the same messages
@pytest.mark.parametrize("aligned", [False, True], ids=["read", "padded"])
@pytest.mark.parametrize("case,shape,values,message", [
    ("size-bound", [2], [1.0], "truncated tensor 'word_emb'"),
    ("short-read", [2], [1.0], "truncated tensor 'word_emb'"),
    ("non-finite", [2], [1.0, float("inf")], "non-finite values in 'word_emb'"),
    ("trailing", [1], [1.0, 2.0], "8 trailing bytes"),
])
def test_frozen_tensor_errors_read_the_same_mapped_or_read(tmp_path, monkeypatch, aligned,
                                                            case, shape, values, message):
    meta = {"params": [{"name": "word_emb", "trainable": False, "shape": shape}]}
    p = write_raw(tmp_path / "x.ckpt",
                  framed(meta, struct.pack(f"<{len(values)}d", *values), aligned))
    if case == "short-read":   # a file that shrinks after its size was taken
        size = os.path.getsize(p) + 8
        monkeypatch.setattr(os, "fstat", lambda fd: os.stat_result((0,) * 6 + (size,) + (0,) * 3))
    with pytest.raises(CheckpointError) as err:
        load(p)
    assert str(err.value) == f"{p}: {message}"


@pytest.mark.skipif(not os.path.isdir("/proc/self/fd"), reason="needs /proc/self/fd")
def test_a_load_leaves_no_descriptor_open(tmp_path):
    path, _ = model_checkpoint(tmp_path)
    # an earlier test's traceback may still hold an open cache in a
    # reference cycle; collect it first, so that none closes during the loop
    gc.collect()
    before = len(os.listdir("/proc/self/fd"))
    restored = []
    for _ in range(50):
        restored.append(load_checkpoint(path))
        assert len(os.listdir("/proc/self/fd")) == before
    assert all(np.array_equal(r.model.embeddings.matrix, restored[0].model.embeddings.matrix)
               for r in restored)


def test_saving_over_a_loaded_checkpoint_keeps_the_old_model(tmp_path):
    embeddings, forest, model = small_world()
    path = tmp_path / "run.ckpt"
    save_checkpoint(path, small_hp(), LossConfig(), forest, embeddings, model.params)
    first = load_checkpoint(path)
    batch = some_triples(forest)
    before = first.model.predict_probs(batch)
    changed = params_from_values({n: a + 0.25 for n, a in model.params.items()})
    # the old model holds what it read; ``save`` renames a new file into place
    save_checkpoint(path, small_hp(), LossConfig(), forest, first.model.embeddings, changed)
    assert np.array_equal(first.model.predict_probs(batch), before)
    assert np.array_equal(first.model.embeddings.matrix, embeddings.matrix)
    second = load_checkpoint(path)
    assert second.model.embeddings.matrix.flags.owndata
    assert np.array_equal(second.model.embeddings.matrix, embeddings.matrix)
    for name, a in second.model.params.items():
        assert np.array_equal(a, changed[name]), name
    assert not np.allclose(second.model.predict_probs(batch), before)


# -- model-level checkpoints -----------------------------------------------------


VOCAB = ["the", "cat", "sat", "on", "mat", "dog"]


def small_world():
    rng = make_rng(17)
    embeddings = WordEmbeddings(VOCAB, rng.uniform(-0.4, 0.4, size=(len(VOCAB), 4)))
    forest = TypeForest(["/a", "/a/b", "/c"])
    model = NfetcModel(small_hp(), embeddings, forest, make_rng(5))
    return embeddings, forest, model


def small_hp() -> HyperParams:
    return figer_hp(lr=0.01, d_p=3, d_s=3, p_i=0.7, p_o=0.9, window=2,
                    batch=4, epochs=2, patience=1, seed=7)


def some_triples(forest):
    def t(tokens, start, end, labels):
        return MentionTriple(tuple(tokens), start, end, tuple(labels),
                             frozenset(forest.terminal_set(labels)))
    return [t(["the", "cat", "sat"], 1, 2, ["/a"]),
            t(["dog", "sat"], 0, 1, ["/a/b"]),
            t(["mat"], 0, 1, ["/c"])]


def test_model_checkpoint_round_trip(tmp_path, monkeypatch):
    embeddings, forest, model = small_world()
    hp = small_hp()
    loss_config = LossConfig(lam=0.001, beta=0.3, hier=True)
    path = tmp_path / "run.ckpt"
    save_checkpoint(path, hp, loss_config, forest, embeddings, model.params)
    read = []
    monkeypatch.setattr(training_module.checkpoint, "load",
                        lambda p, rows: read.append(load(p, rows)) or read[-1])

    restored = load_checkpoint(path)
    assert restored.hyperparams == hp
    assert restored.loss_config == loss_config
    assert restored.forest.types() == forest.types()
    assert restored.model.embeddings.words == embeddings.words
    assert np.array_equal(restored.model.embeddings.matrix, embeddings.matrix)
    # the word block goes to the embeddings as read, frozen, and nowhere else
    meta, tensors = read[0]
    assert restored.model.embeddings.matrix is tensors["word_emb"]
    assert not restored.model.embeddings.matrix.flags.writeable
    assert meta["params"][0] == {"name": "word_emb", "trainable": False,
                                 "shape": list(embeddings.matrix.shape)}
    assert [n for n, _ in restored.model.params.items()] == [n for n, _ in model.params.items()]
    assert all(restored.model.params[n] is tensors[n] for n, _ in model.params.items())

    batch = some_triples(forest)
    assert np.array_equal(restored.model.predict_probs(batch),
                          model.predict_probs(batch))


def test_model_checkpoint_meta_keys_required(tmp_path):
    embeddings, forest, model = small_world()
    path = tmp_path / "bad.ckpt"
    save(path, {"hyperparams": {}, "loss_config": {}, "types": forest.types()},
         [(n, True, a) for n, a in model.params.items()])
    with pytest.raises(CheckpointError, match="lacks 'vocab'"):
        load_checkpoint(path)


def test_model_checkpoint_needs_word_embeddings(tmp_path):
    _, forest, _ = small_world()
    path = tmp_path / "bad.ckpt"
    save(path, {"hyperparams": dataclasses.asdict(small_hp()),
                "loss_config": dataclasses.asdict(LossConfig()),
                "types": forest.types(), "vocab": VOCAB}, [("w", True, np.ones((2, 2)))])
    with pytest.raises(CheckpointError, match="word embedding"):
        load_checkpoint(path)


def test_params_from_values_round_trip():
    _, _, model = small_world()
    params = model.params
    rebuilt = params_from_values(params.copy_values())
    assert [n for n, _ in rebuilt.items()] == [n for n, _ in params.items()]
    assert all(np.array_equal(rebuilt[n], a) for n, a in params.items())
    # a word matrix among the values is left to the embeddings
    values = {"word_emb": np.ones((2, 2)), **params.copy_values()}
    assert [n for n, _ in params_from_values(values).items()] == [n for n, _ in params.items()]


def model_checkpoint(tmp_path):
    embeddings, forest, model = small_world()
    path = tmp_path / "run.ckpt"
    save_checkpoint(path, small_hp(), LossConfig(), forest, embeddings, model.params)
    return path, model


@pytest.mark.parametrize("section,edit,message", [
    ("hyperparams", lambda d: d.update(bogus=1), "hyperparams: unknown key 'bogus'"),
    ("hyperparams", lambda d: d.pop("lr"), "hyperparams: missing key 'lr'"),
    ("loss_config", lambda d: d.update(bogus=1), "loss_config: unknown key 'bogus'"),
    ("loss_config", lambda d: d.pop("beta"), "loss_config: missing key 'beta'"),
], ids=["hyperparams-unknown", "hyperparams-missing", "loss-unknown", "loss-missing"])
def test_model_checkpoint_settings_keys_must_match(tmp_path, section, edit, message):
    path, _ = model_checkpoint(tmp_path)
    rewrite_meta(path, path, lambda meta: edit(meta[section]))
    with pytest.raises(CheckpointError, match=re.escape(f"{path}: {message}")):
        load_checkpoint(path)


@pytest.mark.parametrize("section", ["hyperparams", "loss_config"])
@pytest.mark.parametrize("value", [[1, 2], "lr", None])
def test_model_checkpoint_settings_must_be_objects(tmp_path, section, value):
    path, _ = model_checkpoint(tmp_path)
    rewrite_meta(path, path, lambda meta: meta.update({section: value}))
    with pytest.raises(CheckpointError) as err:
        load_checkpoint(path)
    assert str(err.value) == f"{path}: {section}: expected an object"


@pytest.mark.parametrize("descriptor", [
    {"name": "w", "trainable": True},
    {"name": "w", "shape": [1]},
    {"trainable": True, "shape": [1]},
    {"name": "w", "trainable": True, "shape": "1"},
    {"name": "w", "trainable": True, "shape": [-1]},
    {"name": "w", "trainable": "yes", "shape": [1]},
    "w",
    {"name": "w", "trainable": True, "shape": [True]},
    {"name": "w", "trainable": True, "shape": [0, 10**30]},
], ids=["no-shape", "no-trainable", "no-name", "shape-string", "shape-negative",
        "trainable-string", "not-a-dict", "shape-bool", "empty-shape-of-10**30"])
def test_load_rejects_malformed_descriptor(tmp_path, descriptor):
    p = write_raw(tmp_path / "x.ckpt",
                  packed({"params": [descriptor]}, struct.pack("<d", 1.0)))
    with pytest.raises(CheckpointError, match=re.escape(f"{p}: malformed parameter descriptor")):
        load(p)


def test_load_rejects_duplicate_descriptor_name(tmp_path):
    path, _ = model_checkpoint(tmp_path)
    rewrite_meta(path, path, lambda meta: meta["params"][2].update(name="pos_table"))
    with pytest.raises(CheckpointError,
                       match=re.escape(f"{path}: duplicate parameter name 'pos_table'")):
        load(path)


@pytest.mark.parametrize("edit,message", [
    (lambda values: values.update(extra=np.ones(2)), "has unexpected tensor 'extra'"),
    (lambda values: values.update(attn_w=np.ones(5)),
     "tensor 'attn_w' has shape (5,), expected (3,)"),
    (lambda values: values.update(pos_table=np.ones((6, 2))),
     "tensor 'pos_table' has shape (6, 2), expected (6, 3)"),
], ids=["extra-tensor", "attn_w-wider", "pos_table-narrower"])
def test_model_checkpoint_tensor_shapes_must_agree(tmp_path, edit, message):
    path, _ = model_checkpoint(tmp_path)
    rewrite_params(path, path, edit)
    with pytest.raises(CheckpointError, match=re.escape(f"{path}: checkpoint ") + ".*"
                       + re.escape(message)):
        load_checkpoint(path)


def test_model_checkpoint_classifier_must_fit_the_types(tmp_path):
    path, _ = model_checkpoint(tmp_path)
    rewrite_meta(path, path, lambda meta: meta["types"].pop())
    with pytest.raises(CheckpointError,
                       match=re.escape("tensor 'cls_b' has shape (3,), expected (2,)")):
        load_checkpoint(path)


def test_model_sizes_come_from_the_tensors(tmp_path, monkeypatch):
    # restoring draws no random numbers, and the d_p=3, d_s=3, window=2
    # tensors must be the sizes the header states
    path, model = model_checkpoint(tmp_path)
    monkeypatch.setattr(training_module, "make_rng", None)
    restored = load_checkpoint(path)
    assert restored.hyperparams.d_s == 3
    batch = some_triples(restored.forest)
    assert np.array_equal(restored.model.predict_probs(batch), model.predict_probs(batch))
    rewrite_meta(path, path, lambda meta: meta["hyperparams"].update(window=1, d_s=999))
    with pytest.raises(CheckpointError, match=re.escape(
            f"{path}: checkpoint tensor 'pos_table' has shape (6, 3), expected (4, 3)")):
        load_checkpoint(path)


# -- format version 1, pinned --------------------------------------------------

# model.ckpt was written before writers padded the JSON block, so its
# tensors sit off the 8-byte grid; padded.ckpt holds the same run as the
# writer writes it now. Its block ends on that grid as it is, so a padding
# writer adds no space to it either. Both are read alike
V1_FIXTURE = os.path.join(os.path.dirname(__file__), "fixtures", "ckpt_v1", "model.ckpt")
PADDED_FIXTURE = os.path.join(os.path.dirname(V1_FIXTURE), "padded.ckpt")


def v1_run():
    """The settings and values ``fixtures/ckpt_v1/*.ckpt`` were written
    from: 2 words, d_w=2, d_p=1, d_s=1, window 1, 2 types. Every value is a
    multiple of 1/8 in [-1/2, 1/2], so the bytes do not depend on any
    arithmetic."""
    shapes = {"word_emb": (2, 2), **param_shapes(2, 1, 1, 1, 2)}
    values, k = {}, 0
    for name, shape in shapes.items():
        n = int(np.prod(shape))
        values[name] = ((np.arange(k, k + n) % 9 - 4) / 8.0).reshape(shape)
        k += n
    return (figer_hp(d_p=1, d_s=1, window=1), LossConfig(), TypeForest(["/a", "/b"]),
            WordEmbeddings(["x", "y"], values["word_emb"]), values)


def test_version_1_checkpoint_bytes_are_pinned(tmp_path):
    hp, config, forest, embeddings, values = v1_run()
    path = tmp_path / "model.ckpt"
    save_checkpoint(path, hp, config, forest, embeddings, params_from_values(values))
    with open(PADDED_FIXTURE, "rb") as fh:
        pinned = fh.read()
    assert pinned.startswith(b"NFETCCKPT 1\n") and len(pinned) < 4096
    assert path.read_bytes() == pinned

    # the two fixtures differ only in the five keys the writer no longer
    # writes (the hyperparams' copies of lam and beta, which the loss config
    # holds, and the training switches dropout_mention, select_on_adjusted
    # and mode) and the meta length; the writer adds no space after the
    # block, which ends on a multiple of 8 as it is
    def parts(raw):
        length, rest = raw[len(MAGIC):].split(b"\n", 1)
        return int(length), rest[:int(length)], rest[int(length):]
    with open(V1_FIXTURE, "rb") as fh:
        unpadded = fh.read()
    old_len, old_blob, old_tensors = parts(unpadded)
    new_len, new_blob, new_tensors = parts(pinned)
    kept = old_blob
    for dropped in (b'"lam": 0.0, "beta": 0.4, ', b', "dropout_mention": true',
                    b', "mode": "standard"', b', "select_on_adjusted": true'):
        assert kept.count(dropped) == 1
        kept = kept.replace(dropped, b"")
    assert new_len == len(kept) and new_blob == kept
    assert padded_header(new_blob) == header(new_blob)
    old, new = json.loads(old_blob), json.loads(new_blob)
    assert set(old["hyperparams"]) - set(new["hyperparams"]) == {"lam", "beta", "dropout_mention"}
    assert set(old["loss_config"]) - set(new["loss_config"]) == {"select_on_adjusted", "mode"}
    assert new_tensors == old_tensors
    assert (len(pinned) - len(new_tensors)) % 8 == 0 != (len(unpadded) - len(old_tensors)) % 8


def test_version_1_checkpoint_restores_its_values():
    hp, config, forest, embeddings, values = v1_run()
    restored = load_checkpoint(V1_FIXTURE)
    assert restored.hyperparams == hp
    assert restored.loss_config == config
    # the file still holds the copies of lam and beta that HyperParams once
    # kept, beta 0.4 against the loss config's 0.0; the reader drops them
    stored = load(V1_FIXTURE)[0]["hyperparams"]
    assert (stored["lam"], stored["beta"]) == (0.0, 0.4) and restored.loss_config.beta == 0.0
    assert restored.forest.types() == forest.types()
    assert restored.model.embeddings.words == embeddings.words
    assert np.array_equal(restored.model.embeddings.matrix, values["word_emb"])
    # the word matrix is read into an array of its own
    assert restored.model.embeddings.matrix.flags.owndata
    assert [n for n, _ in restored.model.params.items()] == list(values)[1:]
    for name, t in restored.model.params.items():
        assert np.array_equal(t, values[name]), name


def test_padded_checkpoint_restores_the_same_tensors():
    unpadded = load_checkpoint(V1_FIXTURE)
    restored = load_checkpoint(PADDED_FIXTURE)
    assert restored.model.embeddings.matrix.flags.owndata
    assert restored.hyperparams == unpadded.hyperparams
    assert restored.model.embeddings.words == unpadded.model.embeddings.words
    assert (restored.model.embeddings.matrix.tobytes()
            == unpadded.model.embeddings.matrix.tobytes())
    assert [n for n, _ in restored.model.params.items()] == [
        n for n, _ in unpadded.model.params.items()]
    for name, t in restored.model.params.items():
        assert t.tobytes() == unpadded.model.params[name].tobytes(), name
