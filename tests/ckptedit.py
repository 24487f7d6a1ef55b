"""Rewrite the meta block of a checkpoint file, keeping its tensor bytes."""

import json

from nfetc.checkpoint import MAGIC, load


def rewrite_meta(src, dst, edit):
    """Copy checkpoint ``src`` to ``dst`` with its meta (the parameter
    descriptors included) passed through ``edit``; returns ``dst``."""
    meta, params = load(src)
    edit(meta)
    with open(src, "rb") as fh:
        raw = fh.read()
    tensors = raw[len(raw) - sum(t.data.nbytes for _, t in params.items()):]
    blob = json.dumps(meta).encode("utf-8")
    with open(dst, "wb") as fh:
        fh.write(MAGIC + str(len(blob)).encode() + b"\n" + blob + tensors)
    return dst
