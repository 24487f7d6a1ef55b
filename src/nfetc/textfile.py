"""Numbered lines of the UTF-8 text inputs; a decode error names the line."""

import re

ESCAPED_BYTE = re.compile("[\udc80-\udcff]")   # how surrogateescape reads a byte that is not UTF-8


def numbered_lines(path, error):
    """(line number, line) of text file ``path``; a byte that is not UTF-8 raises
    ``error("<path>:<line>: not valid UTF-8")`` once the lines before it are out."""
    with open(path, encoding="utf-8", errors="surrogateescape") as fh:
        for lineno, line in enumerate(fh, start=1):
            if not line.isascii() and ESCAPED_BYTE.search(line):
                raise error(f"{path}:{lineno}: not valid UTF-8")
            yield lineno, line
