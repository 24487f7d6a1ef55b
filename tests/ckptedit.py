"""Rewrite the meta block or the tensors of a checkpoint file."""

import json
from pathlib import Path

from nfetc.checkpoint import MAGIC, header, load, save


def rewrite_meta(src, dst, edit):
    """Copy checkpoint ``src`` to ``dst`` with its meta (the parameter
    descriptors included) changed in place by the function ``edit``, or with
    ``edit`` itself, any other JSON value, in its place; returns ``dst``."""
    meta, tensors = load(src)
    nbytes = sum(a.nbytes for a in tensors.values())
    del tensors   # only their size is needed below
    if callable(edit):
        edit(meta)
    else:
        meta = edit
    with open(src, "rb") as fh:
        raw = fh.read()
    with open(dst, "wb") as fh:
        fh.write(header(json.dumps(meta).encode("utf-8")) + raw[len(raw) - nbytes:])
    return dst


def padded_header(blob: bytes) -> bytes:
    """``header(blob)`` as writers before the unpadded one wrote it: the JSON
    ``blob`` with as many trailing spaces as put the first tensor at a
    multiple of 8 bytes. A space can add a digit to the length line, so the
    length is recounted."""
    pad = 0
    while len(head := header(blob + b" " * pad)) % 8:
        pad += 1
    return head


def rewrite_params(src, dst, edit):
    """Copy checkpoint ``src`` to ``dst`` with its tensors, a name -> array
    dict, passed through ``edit``; returns ``dst``. Each tensor keeps its
    descriptor's ``trainable`` flag; an added one is trainable."""
    meta, values = load(src)
    trainable = {e["name"]: e["trainable"] for e in meta.pop("params")}
    edit(values)
    save(dst, meta, [(n, trainable.get(n, True), a) for n, a in values.items()])
    return dst


def rewrite_meta_length(src, dst, length: bytes):
    """Copy checkpoint ``src`` to ``dst`` with ``length`` in place of its
    meta-length line, the rest byte for byte; returns ``dst``."""
    raw = Path(src).read_bytes()
    rest = raw[raw.index(b"\n", len(MAGIC)) + 1:]
    Path(dst).write_bytes(MAGIC + length + b"\n" + rest)
    return dst
