"""Named float64 tensors plus a JSON header, in one file.

Layout, all little-endian:

    NFETCCKPT 1\n          magic + format version
    <meta_len>\n           ASCII byte length of the JSON block
    <meta JSON>            run metadata plus ordered tensor descriptors
    <tensor bytes>         float64 C-order arrays, concatenated in meta order

The writer is fully deterministic, so identical runs produce byte-identical
files; the loader rejects truncation, trailing bytes, and non-finite values.
"""

from __future__ import annotations

import json
import math
import os

import numpy as np

MAGIC = b"NFETCCKPT 1\n"


class CheckpointError(ValueError):
    pass


def save(path: str, meta: dict, tensors: list[tuple[str, bool, np.ndarray]]) -> None:
    """Write ``(name, trainable, array)`` tensors in order to a temporary file
    beside ``path``, fsync it, then rename it over ``path``: a failed write
    leaves any old file intact."""
    if "params" in meta:
        raise CheckpointError("meta key 'params' is reserved")
    doc = dict(meta)
    doc["params"] = [{"name": n, "trainable": trainable, "shape": list(a.shape)}
                     for n, trainable, a in tensors]
    blob = json.dumps(doc).encode("utf-8")
    tmp = f"{path}.{os.getpid()}.tmp"
    try:
        with open(tmp, "wb") as f:
            f.write(MAGIC)
            f.write(str(len(blob)).encode("ascii") + b"\n")
            f.write(blob)
            for _, _, a in tensors:   # straight from the array's buffer, no copy
                f.write(memoryview(np.ascontiguousarray(a, dtype="<f8")))
            f.flush()
            os.fsync(f.fileno())
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.remove(tmp)
        raise


def load(path: str) -> tuple[dict, dict[str, np.ndarray]]:
    """The meta block (its ``params`` list holds the descriptors) and each
    tensor by name in file order, each read straight into its own array."""
    with open(path, "rb") as f:
        if f.read(len(MAGIC)) != MAGIC:
            raise CheckpointError(f"{path}: not a checkpoint (bad magic)")
        line = f.readline()
        if not line.endswith(b"\n"):
            raise CheckpointError(f"{path}: truncated before meta length")
        try:
            meta_len = int(line)
        except ValueError:
            raise CheckpointError(f"{path}: malformed meta length") from None
        blob = f.read(meta_len)
        if len(blob) < meta_len:
            raise CheckpointError(f"{path}: truncated meta block")
        try:
            meta = json.loads(blob.decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError) as e:
            raise CheckpointError(f"{path}: corrupt meta block: {e}") from None
        if not isinstance(meta, dict):
            raise CheckpointError(f"{path}: meta block is not a JSON object")
        entries = meta.get("params")
        if not isinstance(entries, list):
            raise CheckpointError(f"{path}: meta lacks the parameter list")
        size = os.fstat(f.fileno()).st_size
        tensors: dict[str, np.ndarray] = {}
        for e in entries:
            if not (isinstance(e, dict) and isinstance(e.get("name"), str)
                    and isinstance(e.get("trainable"), bool)
                    and isinstance(e.get("shape"), list)
                    and all(isinstance(n, int) and n >= 0 for n in e["shape"])):
                raise CheckpointError(f"{path}: malformed parameter descriptor {e!r}")
            if e["name"] in tensors:
                raise CheckpointError(f"{path}: duplicate parameter name {e['name']!r}")
            # checked before allocating, so no shape can ask for more memory
            # than the file holds
            if math.prod(e["shape"]) * 8 > size - f.tell():
                raise CheckpointError(f"{path}: truncated tensor {e['name']!r}")
            arr = np.empty(tuple(e["shape"]), dtype="<f8")
            if f.readinto(arr) != arr.nbytes:
                raise CheckpointError(f"{path}: truncated tensor {e['name']!r}")
            if not np.all(np.isfinite(arr)):
                raise CheckpointError(f"{path}: non-finite values in {e['name']!r}")
            tensors[e["name"]] = arr
        trailing = size - f.tell()
    if trailing:
        raise CheckpointError(f"{path}: {trailing} trailing bytes")
    return meta, tensors
