"""Numbered lines of the UTF-8 text inputs; a decode error or a leading
byte-order mark names the line. The types, refinement and config files
allow ``#`` comments, which ``content_lines`` alone strips."""

import contextlib
import re

ESCAPED_BYTE = re.compile("[\udc80-\udcff]")   # how surrogateescape reads a byte that is not UTF-8
BOM = "\ufeff"   # some editors start a UTF-8 file with it; it would join the first field
BOM_MESSAGE = "starts with a byte-order mark; save it as UTF-8 without one"


def numbered_lines(path, error, fh=None):
    """(line number, line) of text file ``path``, read from ``fh`` when given,
    a text stream that decodes as ``open`` here does; a byte that is not UTF-8 raises
    ``error("<path>:<line>: not valid UTF-8")`` once the lines before it are out,
    and a leading ``BOM`` raises ``error(f"<path>:1: {BOM_MESSAGE}")``."""
    with (open(path, encoding="utf-8", errors="surrogateescape") if fh is None
          else contextlib.nullcontext(fh)) as fh:
        for lineno, line in enumerate(fh, start=1):
            if not line.isascii():
                if lineno == 1 and line.startswith(BOM):
                    raise error(f"{path}:1: {BOM_MESSAGE}")
                if ESCAPED_BYTE.search(line):
                    raise error(f"{path}:{lineno}: not valid UTF-8")
            yield lineno, line


def content_lines(path, error):
    """(line number, text before any ``#``, stripped) of each line of
    ``numbered_lines(path, error)`` that holds such text."""
    for lineno, line in numbered_lines(path, error):
        if body := line.split("#", 1)[0].strip():
            yield lineno, body
