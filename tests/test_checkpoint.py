import dataclasses
import json
import os
import re
import struct
import tracemalloc

import numpy as np
import pytest

from ckptedit import rewrite_meta, rewrite_params
from nfetc import training as training_module
from nfetc.checkpoint import MAGIC, CheckpointError, load, save
from nfetc.corpus import MentionTriple
from nfetc.embeddings import WordEmbeddings
from nfetc.hierarchy import TypeForest
from nfetc.loss import LossConfig
from nfetc.model import NfetcModel, param_shapes
from nfetc.optim import make_rng
from nfetc.training import (HyperParams, load_checkpoint, params_from_values,
                            save_checkpoint)


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


def test_reserved_meta_key_rejected(tmp_path):
    with pytest.raises(CheckpointError, match="reserved"):
        save(tmp_path / "x.ckpt", {"params": []}, sample_tensors())


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


def test_load_rejects_corrupt_json(tmp_path):
    p = write_raw(tmp_path / "x.ckpt", MAGIC + b"5\n{oops")
    with pytest.raises(CheckpointError, match="corrupt meta"):
        load(p)


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


# -- model-level checkpoints -----------------------------------------------------


VOCAB = ["the", "cat", "sat", "on", "mat", "dog"]


def small_world():
    rng = make_rng(17)
    embeddings = WordEmbeddings(VOCAB, rng.uniform(-0.4, 0.4, size=(len(VOCAB), 4)))
    forest = TypeForest(["/a", "/a/b", "/c"])
    model = NfetcModel(small_hp(), embeddings, forest, make_rng(5))
    return embeddings, forest, model


def small_hp() -> HyperParams:
    return HyperParams(lr=0.01, d_p=3, d_s=3, p_i=0.7, p_o=0.9, window=2,
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
    loss_config = LossConfig(lam=0.001, beta=0.3, mode="variant", hier=True)
    path = tmp_path / "run.ckpt"
    save_checkpoint(path, hp, loss_config, forest, embeddings, model.params)
    read = []
    monkeypatch.setattr(training_module.checkpoint, "load",
                        lambda p: read.append(load(p)) or read[-1])

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
    assert all(restored.model.params[n].data is tensors[n] for n, _ in model.params.items())

    batch = some_triples(forest)
    assert np.array_equal(restored.model.predict_probs(batch),
                          model.predict_probs(batch))


def test_model_checkpoint_meta_keys_required(tmp_path):
    embeddings, forest, model = small_world()
    path = tmp_path / "bad.ckpt"
    save(path, {"hyperparams": {}, "loss_config": {}, "types": forest.types()},
         [(n, True, t.data) for n, t in model.params.items()])
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
    assert all(t.requires_grad for _, t in rebuilt.items())
    assert all(np.array_equal(rebuilt[n].data, t.data) for n, t in params.items())
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


@pytest.mark.parametrize("descriptor", [
    {"name": "w", "trainable": True},
    {"name": "w", "shape": [1]},
    {"trainable": True, "shape": [1]},
    {"name": "w", "trainable": True, "shape": "1"},
    {"name": "w", "trainable": True, "shape": [-1]},
    {"name": "w", "trainable": "yes", "shape": [1]},
    "w",
], ids=["no-shape", "no-trainable", "no-name", "shape-string", "shape-negative",
        "trainable-string", "not-a-dict"])
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

V1_FIXTURE = os.path.join(os.path.dirname(__file__), "fixtures", "ckpt_v1", "model.ckpt")


def v1_run():
    """The settings and values ``fixtures/ckpt_v1/model.ckpt`` was written
    from: 2 words, d_w=2, d_p=1, d_s=1, window 1, 2 types. Every value is a
    multiple of 1/8 in [-1/2, 1/2], so the bytes do not depend on any
    arithmetic."""
    shapes = {"word_emb": (2, 2), **param_shapes(2, 1, 1, 1, 2)}
    values, k = {}, 0
    for name, shape in shapes.items():
        n = int(np.prod(shape))
        values[name] = ((np.arange(k, k + n) % 9 - 4) / 8.0).reshape(shape)
        k += n
    return (HyperParams(d_p=1, d_s=1, window=1), LossConfig(), TypeForest(["/a", "/b"]),
            WordEmbeddings(["x", "y"], values["word_emb"]), values)


def test_version_1_checkpoint_bytes_are_pinned(tmp_path):
    hp, config, forest, embeddings, values = v1_run()
    path = tmp_path / "model.ckpt"
    save_checkpoint(path, hp, config, forest, embeddings, params_from_values(values))
    with open(V1_FIXTURE, "rb") as fh:
        pinned = fh.read()
    assert pinned.startswith(b"NFETCCKPT 1\n") and len(pinned) < 4096
    assert path.read_bytes() == pinned


def test_version_1_checkpoint_restores_its_values():
    hp, config, forest, embeddings, values = v1_run()
    restored = load_checkpoint(V1_FIXTURE)
    assert restored.hyperparams == hp
    assert restored.loss_config == config
    assert restored.forest.types() == forest.types()
    assert restored.model.embeddings.words == embeddings.words
    assert np.array_equal(restored.model.embeddings.matrix, values["word_emb"])
    assert [n for n, _ in restored.model.params.items()] == list(values)[1:]
    for name, t in restored.model.params.items():
        assert np.array_equal(t.data, values[name]), name
