"""Rewrite the meta block or the tensors of a checkpoint file."""

import json

from nfetc.checkpoint import MAGIC, load, save


def rewrite_meta(src, dst, edit):
    """Copy checkpoint ``src`` to ``dst`` with its meta (the parameter
    descriptors included) changed in place by the function ``edit``, or with
    ``edit`` itself, any other JSON value, in its place; returns ``dst``."""
    meta, tensors = load(src)
    if callable(edit):
        edit(meta)
    else:
        meta = edit
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
