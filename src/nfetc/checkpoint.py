"""Named float64 tensors plus a JSON header, in one file.

Layout, all little-endian:

    NFETCCKPT 1\n          magic + format version
    <meta_len>\n           ASCII byte length of the JSON block
    <meta JSON>            run metadata plus ordered tensor descriptors
    <tensor bytes>         float64 C-order arrays, concatenated in meta order

The writer is fully deterministic, so identical runs produce byte-identical
files; the loader rejects truncation, trailing bytes, and non-finite values.
Files whose JSON block ends in spaces, as earlier writers padded it, load
alike, since ``json.loads`` skips them.

A load checks a file in three stages: first its structure (the header
and every descriptor against the file's size, no tensor byte read), then
what the caller's ``rows`` function checks of the meta, then the values.
Each tensor is streamed, in file order: read in one pass through a buffer
of at most ``READ_BYTES``, which checks every value, into an array of its
own, whole for a trained tensor and the rows the caller asks for of a
frozen one (``"trainable": false``). Nothing is mapped, so a file that
shrinks under a reader is a ``CheckpointError``, never a SIGBUS.

``open_frozen`` checks a file of one frozen tensor (and any trained ones)
in such a load, keeping no row of the frozen one, and leaves it in the file
as a ``Frozen`` that holds the file open for as long as it lives: a file
renamed over it later changes nothing. Each later read checks again what it
reads: ``Frozen.rows`` and ``save`` copying it into a new checkpoint stream
the whole tensor again, and ``Frozen.take`` reads only the rows it is asked
for, by position, checking that they are whole and finite. So a file that
shrank meanwhile is a ``CheckpointError`` too, and so is one that a
non-finite value was written into.
"""

from __future__ import annotations

import contextlib
import json
import math
import os
import stat
import weakref

import numpy as np

MAGIC = b"NFETCCKPT 1\n"
READ_BYTES = 1 << 20   # the buffer a tensor is streamed through


class CheckpointError(ValueError):
    pass


def header(blob: bytes) -> bytes:
    """The magic, the meta-length line and the JSON ``blob``."""
    return MAGIC + b"%d\n" % len(blob) + blob


@contextlib.contextmanager
def replacing(path: str, mode: str = "wb", **kwargs):
    """A new file, open in ``mode`` beside ``path``, that is fsynced and
    renamed over ``path`` once the block is done: the replacement is
    atomic, so a reader finds the old file or the new one whole, and a
    block that raises leaves any old file intact and no temporary file.
    The new file keeps the permission bits of the file it replaces."""
    tmp = f"{path}.{os.getpid()}.tmp"
    try:
        with open(tmp, mode, **kwargs) as f:
            yield f
            f.flush()
            with contextlib.suppress(FileNotFoundError):
                os.chmod(f.fileno(), stat.S_IMODE(os.stat(path).st_mode))
            os.fsync(f.fileno())
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.remove(tmp)
        raise


def save(path: str, meta: dict, tensors: list[tuple[str, bool, np.ndarray]]) -> None:
    """Write ``(name, trainable, array)`` tensors in order to ``path``
    through ``replacing``, so a failed write leaves any old file intact. A
    ``Frozen`` may stand for an array: its bytes are copied from its file.
    ``meta`` must not hold the ``params`` key, which this adds."""
    doc = dict(meta)
    doc["params"] = [{"name": n, "trainable": trainable, "shape": list(a.shape)}
                     for n, trainable, a in tensors]
    with replacing(path) as f:
        f.write(header(json.dumps(doc).encode("utf-8")))
        for _, _, a in tensors:
            if isinstance(a, Frozen):
                a.write_to(f)
            else:   # straight from the array's buffer, no copy
                f.write(memoryview(np.ascontiguousarray(a, dtype="<f8")))


def load(path: str, rows=None) -> tuple[dict, dict[str, np.ndarray]]:
    """The meta block (its ``params`` list holds the descriptors) and each
    tensor by name in file order, in its stored shape. Once the file's
    structure is checked, before any tensor byte is read, ``rows(meta)``,
    when given, returns the sorted row numbers to keep of each frozen
    tensor, or None for all; it may raise to refuse the meta."""
    with open(path, "rb") as f:
        meta, tensors, _ = _read(f, path, rows)
    return meta, tensors


def open_frozen(path: str, check=lambda meta: None) -> tuple[dict, dict, "Frozen"]:
    """The meta block, the trained tensors by name and the frozen tensor of
    the checkpoint at ``path``, which must hold exactly one frozen tensor;
    that one is left in the file. Every check of ``load`` is made,
    ``check(meta)``, which may raise to refuse the meta, taking the place
    of its ``rows``; the frozen tensor's values are read in one streamed
    pass that keeps none of them, and the returned ``Frozen`` holds the
    descriptor that pass read through."""
    def rows(meta):   # before any tensor byte is read
        check(meta)
        if [e["trainable"] for e in meta["params"]].count(False) != 1:
            raise CheckpointError(f"{path}: holds other than one frozen tensor")
        return np.empty(0, dtype=np.intp)

    fd = os.open(path, os.O_RDONLY)
    try:
        with open(fd, "rb", closefd=False) as f:
            meta, tensors, (frozen,) = _read(f, path, rows)
    except BaseException:
        os.close(fd)
        raise
    del tensors[frozen[0]]   # none of its rows
    return meta, tensors, Frozen(fd, path, *frozen)


def _read(f, path: str, rows):
    """``load`` of the open file ``f``, plus the (name, shape, offset,
    largest absolute value) of each frozen tensor."""
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
    layout = {}   # name -> (trainable, shape, offset), in file order
    at = f.tell()
    for e in entries:
        if not (isinstance(e, dict) and isinstance(e.get("name"), str)
                and isinstance(e.get("trainable"), bool)
                and isinstance(e.get("shape"), list)
                and all(type(n) is int and n >= 0 for n in e["shape"])):
            raise CheckpointError(f"{path}: malformed parameter descriptor {e!r}")
        name, shape = e["name"], tuple(e["shape"])
        if name in layout:
            raise CheckpointError(f"{path}: duplicate parameter name {name!r}")
        nbytes = math.prod(shape) * 8
        # so that no shape asks for more memory than the file holds
        if nbytes > size - at:
            raise CheckpointError(f"{path}: truncated tensor {name!r}")
        if any(n > size for n in shape):   # passed the bound beside a 0; numpy refuses it
            raise CheckpointError(f"{path}: malformed parameter descriptor {e!r}")
        layout[name] = e["trainable"], shape, at
        at += nbytes
    if trailing := size - at:
        raise CheckpointError(f"{path}: {trailing} trailing bytes")
    keep = None if rows is None else rows(meta)
    tensors, frozen = {}, []
    for name, (trainable, shape, at) in layout.items():
        tensors[name], top = _stream(f, path, name, shape, at, None if trainable else keep)
        if not trainable:
            frozen.append((name, shape, at, top))
    return meta, tensors, frozen


def _stream(f, path: str, name: str, shape: tuple, at: int,
            keep: np.ndarray | None) -> tuple[np.ndarray, float]:
    """Rows ``keep`` (sorted row numbers; None for the whole tensor) of the
    tensor of ``shape`` at byte ``at`` of the open file ``f``, and the
    largest absolute value of the whole tensor, in one pass of ``_blocks``."""
    count = len(keep) if keep is not None else shape[0] if shape else 1
    out = np.empty(shape if keep is None else (count,) + shape[1:], dtype="<f8")
    rows = out.reshape(count, math.prod(shape[1:]))   # a view of ``out``, row by row
    done, top = 0, 0.0   # the rows of ``keep`` copied so far, the largest value so far
    for lo, block, most in _blocks(f, path, name, shape, at):
        top = max(top, most)
        if keep is None:
            rows[lo:lo + len(block)] = block
            continue
        upto = int(np.searchsorted(keep, lo + len(block)))
        if upto > done:   # mode "raise" would copy through a buffer
            np.take(block, keep[done:upto] - lo, axis=0, out=rows[done:upto], mode="clip")
            done = upto
    return out, top


def _blocks(f, path: str, name: str, shape: tuple, at: int):
    """(first row, rows, their largest absolute value) for each run of whole
    rows of the tensor of ``shape`` at byte ``at`` of the open file ``f``,
    read in turn into one buffer of about ``READ_BYTES``; raises unless the
    file holds every row and every value is finite."""
    count, width = (shape[0] if shape else 1), math.prod(shape[1:])
    step = max(1, min(count, READ_BYTES // (8 * width or 1)))   # rows per read
    buf = np.empty((step, width), dtype="<f8")
    f.seek(at)
    for lo in range(0, count, step):
        block = buf[:min(step, count - lo)]
        if f.readinto(block) != block.nbytes:
            raise CheckpointError(f"{path}: truncated tensor {name!r}")
        yield lo, block, _largest(block, path, name)


def _largest(block: np.ndarray, path: str, name: str) -> float:
    """The largest absolute value of ``block``, rows of tensor ``name``;
    raises unless every value is finite."""
    hi, low = block.max(initial=0.0), block.min(initial=0.0)   # NaN reaches both
    if not (math.isfinite(hi) and math.isfinite(low)):
        raise CheckpointError(f"{path}: non-finite values in {name!r}")
    return max(hi, -low)


class Frozen:
    """A frozen tensor left in its file: ``shape`` float64 values at byte
    ``at`` of the file open as descriptor ``fd``, which ``open_frozen``
    found finite and at most ``magnitude`` in absolute value. It owns the
    descriptor, closed when the object is collected. ``rows`` and
    ``write_to`` read the file afresh through ``_blocks``, checking every
    value again; ``take`` reads and checks only the rows it returns."""

    def __init__(self, fd: int, path: str, name: str, shape: tuple, at: int,
                 magnitude: float):
        self.fd, self.path, self.name, self.shape, self.at = fd, path, name, shape, at
        self.magnitude = magnitude
        weakref.finalize(self, os.close, fd)

    def rows(self, keep: np.ndarray) -> np.ndarray:
        """Rows ``keep`` (sorted row numbers), read in one pass."""
        with open(self.fd, "rb", closefd=False) as f:
            return _stream(f, self.path, self.name, self.shape, self.at, keep)[0]

    def take(self, rows: np.ndarray) -> np.ndarray:
        """Rows ``rows`` (sorted distinct row numbers) as a (len(rows),
        width) array, read by position with one read per run of
        consecutive rows; raises unless the file holds each row whole and
        every value read is finite."""
        width = math.prod(self.shape[1:])
        out = np.empty((len(rows), width), dtype="<f8")
        starts = np.flatnonzero(np.diff(rows, prepend=-2) != 1).tolist()   # of each run
        for lo, hi in zip(starts, starts[1:] + [len(rows)]):
            block = out[lo:hi]
            if os.preadv(self.fd, [block], self.at + int(rows[lo]) * 8 * width) != block.nbytes:
                raise CheckpointError(f"{self.path}: truncated tensor {self.name!r}")
        _largest(out, self.path, self.name)
        return out

    def write_to(self, out) -> None:
        """Copy the tensor's bytes to the open file ``out``."""
        with open(self.fd, "rb", closefd=False) as f:
            for _, block, _ in _blocks(f, self.path, self.name, self.shape, self.at):
                out.write(memoryview(block))
