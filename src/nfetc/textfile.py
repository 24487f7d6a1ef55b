"""Numbered lines of the UTF-8 text inputs; a decode error names the line."""


def numbered_lines(path, error):
    """(line number, line) of text file ``path``; a byte that is not UTF-8 raises
    ``error("<path>:<line>: not valid UTF-8")`` once the lines before it are out."""
    handed_out = 0
    try:
        with open(path, encoding="utf-8") as fh:
            for handed_out, line in enumerate(fh, start=1):
                yield handed_out, line
    except UnicodeDecodeError:   # text mode decodes ahead; a second read finds the line
        with open(path, encoding="utf-8", errors="surrogateescape") as fh:
            for lineno, line in enumerate(fh, start=1):
                if any("\udc80" <= ch <= "\udcff" for ch in line):   # an escaped bad byte
                    raise error(f"{path}:{lineno}: not valid UTF-8") from None
                if lineno > handed_out:
                    yield lineno, line
        raise
