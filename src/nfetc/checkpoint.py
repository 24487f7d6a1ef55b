"""Named float64 tensors plus a JSON header, in one file.

Layout, all little-endian:

    NFETCCKPT 1\n          magic + format version
    <meta_len>\n           ASCII byte length of the JSON block
    <meta JSON>            run metadata plus ordered tensor descriptors, padded
                           with trailing spaces to end at a multiple of 8 bytes
    <tensor bytes>         float64 C-order arrays, concatenated in meta order

The writer is fully deterministic, so identical runs produce byte-identical
files; the loader rejects truncation, trailing bytes, and non-finite values.
Files written before the padding still load, and older readers load padded
files, since ``json.loads`` skips the trailing spaces.

A frozen tensor (``"trainable": false``) that starts at a multiple of 8 is
not read but mapped: a read-only view of the file's pages, which the kernel
shares and can reclaim. Trained tensors, and frozen ones at unaligned
offsets, are read into arrays of their own. A mapped file must not shrink
while its arrays live, or reading them raises SIGBUS; ``save`` therefore
renames a new file over the old one and never writes in place.

A caller that needs only some rows of the frozen tensors passes ``load`` a
``rows`` function: then nothing is mapped, and each frozen tensor is read in
one pass through a buffer of ``READ_BYTES``, which checks every value and
keeps only the rows asked for.
"""

from __future__ import annotations

import json
import math
import mmap
import os

import numpy as np

MAGIC = b"NFETCCKPT 1\n"
ALIGN = 8   # bytes of one float64
READ_BYTES = 1 << 20   # the buffer a frozen tensor is streamed through


class CheckpointError(ValueError):
    pass


def header(blob: bytes) -> bytes:
    """The magic, the meta-length line and the JSON ``blob`` with as many
    trailing spaces as put the first tensor at a multiple of ``ALIGN``. A
    space can add a digit to the length line, so the length is recounted."""
    pad = 0
    while True:
        head = MAGIC + b"%d\n" % (len(blob) + pad) + blob + b" " * pad
        if len(head) % ALIGN == 0:
            return head
        pad += 1


def save(path: str, meta: dict, tensors: list[tuple[str, bool, np.ndarray]]) -> None:
    """Write ``(name, trainable, array)`` tensors in order to a temporary file
    beside ``path``, fsync it, then rename it over ``path``: a failed write
    leaves any old file intact. ``meta`` must not hold the ``params`` key,
    which this adds."""
    doc = dict(meta)
    doc["params"] = [{"name": n, "trainable": trainable, "shape": list(a.shape)}
                     for n, trainable, a in tensors]
    tmp = f"{path}.{os.getpid()}.tmp"
    try:
        with open(tmp, "wb") as f:
            f.write(header(json.dumps(doc).encode("utf-8")))
            for _, _, a in tensors:   # straight from the array's buffer, no copy
                f.write(memoryview(np.ascontiguousarray(a, dtype="<f8")))
            f.flush()
            os.fsync(f.fileno())
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.remove(tmp)
        raise


def load(path: str, rows=None) -> tuple[dict, dict[str, np.ndarray]]:
    """The meta block (its ``params`` list holds the descriptors) and each
    tensor by name in file order. A frozen tensor at an aligned offset is a
    read-only view of the mapped file; every other tensor is read straight
    into its own array.

    With ``rows`` given, nothing is mapped: once every check that needs no
    value of a frozen tensor has passed, ``rows(meta)`` returns the sorted
    row numbers to keep, and each frozen tensor is streamed, every value
    checked, and only those rows kept. Should ``rows`` or a check raise, the
    frozen tensors are streamed first, so that a non-finite value among
    them is reported as a load without ``rows`` reports it."""
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
        if meta_len < 0:
            raise CheckpointError(f"{path}: malformed meta length")
        size = os.fstat(f.fileno()).st_size
        # checked before reading, so no length can ask for more than the file holds
        if meta_len > size - f.tell():
            raise CheckpointError(f"{path}: truncated meta block")
        blob = f.read(meta_len)
        if len(blob) < meta_len:
            raise CheckpointError(f"{path}: truncated meta block")
        try:
            meta = json.loads(blob.decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError, RecursionError) as e:
            raise CheckpointError(f"{path}: corrupt meta block: {e}") from None
        if not isinstance(meta, dict):
            raise CheckpointError(f"{path}: meta block is not a JSON object")
        entries = meta.get("params")
        if not isinstance(entries, list):
            raise CheckpointError(f"{path}: meta lacks the parameter list")
        mapped = None   # the whole file, mapped at the first aligned frozen tensor
        tensors: dict[str, np.ndarray | None] = {}
        streamed = []   # (name, shape, offset) of each frozen tensor, with ``rows``
        try:
            for e in entries:
                if not (isinstance(e, dict) and isinstance(e.get("name"), str)
                        and isinstance(e.get("trainable"), bool)
                        and isinstance(e.get("shape"), list)
                        and all(type(n) is int and n >= 0 for n in e["shape"])):
                    raise CheckpointError(f"{path}: malformed parameter descriptor {e!r}")
                name, shape, at = e["name"], tuple(e["shape"]), f.tell()
                if name in tensors:
                    raise CheckpointError(f"{path}: duplicate parameter name {name!r}")
                truncated = f"{path}: truncated tensor {name!r}"
                nbytes = math.prod(shape) * 8
                # checked before allocating or mapping, so no shape can ask for
                # more memory than the file holds
                if nbytes > size - at:
                    raise CheckpointError(truncated)
                if any(n > size for n in shape):   # passed the bound beside a 0; numpy refuses it
                    raise CheckpointError(f"{path}: malformed parameter descriptor {e!r}")
                if not e["trainable"] and rows is not None:
                    streamed.append((name, shape, at))
                    tensors[name] = None   # holds its place in file order
                    f.seek(at + nbytes)
                    continue
                if e["trainable"] or at % ALIGN:
                    arr = np.empty(shape, dtype="<f8")
                    if f.readinto(arr) != nbytes:
                        raise CheckpointError(truncated)
                else:
                    if mapped is None:
                        mapped = mmap.mmap(f.fileno(), 0, access=mmap.ACCESS_READ)
                    if at + nbytes > len(mapped):   # the file shrank since fstat
                        raise CheckpointError(truncated)
                    arr = np.frombuffer(mapped, dtype="<f8", count=nbytes // 8,
                                        offset=at).reshape(shape)
                    f.seek(at + nbytes)
                if not np.all(np.isfinite(arr)):
                    raise CheckpointError(f"{path}: non-finite values in {name!r}")
                tensors[name] = arr
            if trailing := size - f.tell():
                raise CheckpointError(f"{path}: {trailing} trailing bytes")
            keep = rows(meta) if rows is not None else None
        except Exception:
            for name, shape, at in streamed:
                _stream(f, path, name, shape, at, np.empty(0, dtype=np.intp))
            raise
        for name, shape, at in streamed:
            tensors[name] = _stream(f, path, name, shape, at, keep)
    return meta, tensors


def _stream(f, path: str, name: str, shape: tuple, at: int, keep: np.ndarray) -> np.ndarray:
    """Rows ``keep`` (sorted row numbers) of the tensor of ``shape`` at byte
    ``at`` of the open file ``f``, read whole rows at a time through one
    buffer of about ``READ_BYTES``; raises unless every value is finite."""
    count, width = (shape[0] if shape else 1), math.prod(shape[1:])
    out = np.empty((len(keep), width), dtype="<f8")
    step = max(1, READ_BYTES // (8 * width or 1))   # rows per read
    buf = np.empty((step, width), dtype="<f8")
    f.seek(at)
    done = 0   # the rows of ``keep`` copied so far
    ends = np.searchsorted(keep, np.arange(step, count + step, step)).tolist()
    for lo, upto in zip(range(0, count, step), ends):
        block = buf[:min(step, count - lo)]
        if f.readinto(block) != block.nbytes:
            raise CheckpointError(f"{path}: truncated tensor {name!r}")
        if not np.isfinite(block).all():
            raise CheckpointError(f"{path}: non-finite values in {name!r}")
        if upto > done:   # mode "raise" would copy through a buffer
            np.take(block, keep[done:upto] - lo, axis=0, out=out[done:upto], mode="clip")
            done = upto
    return out.reshape((len(keep),) + shape[1:])
