"""Rewrite the meta block or the tensors of a checkpoint file."""

import json

from nfetc.checkpoint import MAGIC, load, save
from nfetc.training import params_from_values


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


def rewrite_params(src, dst, edit):
    """Copy checkpoint ``src`` to ``dst`` with its tensors, a name -> array
    dict, passed through ``edit``; returns ``dst``."""
    meta, params = load(src)
    del meta["params"]
    values = params.copy_values()
    edit(values)
    save(dst, meta, params_from_values(values))
    return dst
