"""Rewrite the meta block or the tensors of a checkpoint file."""

import json

from nfetc.checkpoint import MAGIC, load, save


def rewrite_meta(src, dst, edit):
    """Copy checkpoint ``src`` to ``dst`` with its meta (the parameter
    descriptors included) passed through ``edit``; returns ``dst``."""
    meta, tensors = load(src)
    edit(meta)
    with open(src, "rb") as fh:
        raw = fh.read()
    blobs = raw[len(raw) - sum(a.nbytes for a in tensors.values()):]
    blob = json.dumps(meta).encode("utf-8")
    with open(dst, "wb") as fh:
        fh.write(MAGIC + str(len(blob)).encode() + b"\n" + blob + blobs)
    return dst


def rewrite_params(src, dst, edit):
    """Copy checkpoint ``src`` to ``dst`` with its tensors, a name -> array
    dict, passed through ``edit``; returns ``dst``. Each tensor keeps its
    descriptor's ``trainable`` flag; an added one is trainable."""
    meta, values = load(src)
    trainable = {e["name"]: e["trainable"] for e in meta.pop("params")}
    edit(values)
    save(dst, meta, [(n, trainable.get(n, True), a) for n, a in values.items()])
    return dst
