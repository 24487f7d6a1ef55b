"""Type forest and type-path algebra.

Types are slash-paths like ``/person/athlete``. The parent of a type is the
path with its last segment removed; roots sit directly under an implicit
virtual root that is never itself a label. Parsing materializes any implied
intermediate types, so the forest is always prefix-closed.
"""

from __future__ import annotations

import re

import numpy as np

from .textfile import content_lines

_SEGMENT = re.compile(r"^[^/\s]+$")


class ForestError(ValueError):
    pass


def _parse_path(path: str, where: str = "") -> list[str]:
    """Segments of a slash-path; ``where`` prefixes the error message."""
    if not path.startswith("/") or path == "/":
        raise ForestError(f"{where}malformed type path: {path!r}")
    segments = path[1:].split("/")
    for seg in segments:
        if not _SEGMENT.match(seg):
            raise ForestError(f"{where}malformed type path: {path!r}")
    return segments


def parent_path(path: str) -> str | None:
    """Parent slash-path, or None for a root type."""
    idx = path.rfind("/")
    return path[:idx] if idx > 0 else None


class TypeForest:
    """Immutable forest over slash-path types with stable 0..K-1 indexing.

    Indices follow lexicographic path order, which is deterministic and puts
    every parent before its children. The path methods take types of the
    forest: the corpus parser checks every label against it.
    """

    def __init__(self, types):
        paths = set()
        for raw in types:
            segments = _parse_path(raw)
            for depth in range(1, len(segments) + 1):
                paths.add("/" + "/".join(segments[:depth]))
        if not paths:
            raise ForestError("a forest needs at least one type")
        self._paths: list[str] = sorted(paths)
        self._index: dict[str, int] = {p: i for i, p in enumerate(self._paths)}
        self._ancestors: dict[str, frozenset[str]] = {}
        for p in self._paths:   # parents first, so each reads its parent's set
            parent = parent_path(p)
            self._ancestors[p] = (frozenset() if parent is None
                                  else self._ancestors[parent] | {parent})
        self._anc_matrix = None

    @classmethod
    def from_file(cls, path) -> "TypeForest":
        """One slash-path per line, UTF-8, '#' comments and blank lines skipped."""
        types: set[str] = set()
        for lineno, body in content_lines(path, ForestError):
            if body in types:
                raise ForestError(f"{path}:{lineno}: duplicate type {body!r}")
            _parse_path(body, f"{path}:{lineno}: ")
            types.add(body)
        if not types:
            raise ForestError(f"{path}: no types")
        return cls(types)

    def __len__(self) -> int:
        return len(self._paths)

    def __contains__(self, path: str) -> bool:
        return path in self._index

    def types(self) -> list[str]:
        return list(self._paths)

    def index(self, path: str) -> int:
        return self._index[path]

    def path_of(self, index: int) -> str:
        return self._paths[index]

    def depth(self, path: str) -> int:
        return path.count("/")

    def ancestors(self, path: str) -> frozenset[str]:
        """Proper ancestors along the type-path; excludes the type itself
        and the virtual root."""
        return self._ancestors[path]

    def expand_to_path(self, path: str) -> set[str]:
        """The full type-path as a label set: the type plus its ancestors."""
        return {path} | self.ancestors(path)

    def terminal_set(self, labels) -> set[str]:
        """Members of ``labels`` that are not a proper ancestor of another member."""
        labels = set(labels)
        return {lbl for lbl in labels
                if not any(other != lbl and lbl in self.ancestors(other) for other in labels)}

    def is_single_path(self, labels) -> bool:
        """True iff the labels sit on one root-to-terminal chain."""
        terminals = self.terminal_set(labels)
        if len(terminals) != 1:
            return False
        (terminal,) = terminals
        return set(labels) <= self.expand_to_path(terminal)

    def ancestor_matrix(self) -> np.ndarray:
        """K x K indicator: entry [y, a] is 1 when a is a proper ancestor of y."""
        if self._anc_matrix is None:
            k = len(self)
            m = np.zeros((k, k), dtype=np.float64)
            for y, path in enumerate(self._paths):
                for anc in self.ancestors(path):
                    m[y, self._index[anc]] = 1.0
            self._anc_matrix = m
        return self._anc_matrix


def read_refinement(path) -> dict[str, str]:
    """The one-to-one old-type -> new-type map of a refinement file, used to
    repair a flawed hierarchy: tab-separated ``<old-type> <tab> <new-type>``
    lines, '#' comments. A repeated source or target is rejected."""
    mapping = {}
    for lineno, body in content_lines(path, ForestError):
        parts = body.split("\t")
        if len(parts) != 2:
            raise ForestError(f"{path}:{lineno}: expected <old> TAB <new>")
        src, dst = parts[0].strip(), parts[1].strip()
        for p in (src, dst):
            _parse_path(p, f"{path}:{lineno}: ")
        if src in mapping:
            raise ForestError(f"{path}:{lineno}: duplicate source {src!r}")
        if dst in mapping.values():
            raise ForestError(f"{path}:{lineno}: duplicate target {dst!r}")
        mapping[src] = dst
    return mapping


def apply_refinement(forest: TypeForest, mapping: dict[str, str]) -> tuple[TypeForest, dict[str, str]]:
    """Relocate types per the refinement ``mapping``: a mapped type moves
    together with its subtree, each type's longest matching source prefix
    rewritten to that source's target.

    Returns the new forest plus the full old-path -> new-path mapping to
    apply to corpus labels. A source that is not a type of the forest, two
    types mapped to one path, or a target whose parent chain leaves the
    remapped set, is an error, so the type count is preserved.
    """
    for src in mapping:
        if src not in forest:
            raise ForestError(f"refinement source {src!r} is not a type of the forest")
    full_map = {}
    for old in forest.types():
        src = max((s for s in mapping if old == s or old.startswith(s + "/")),
                  key=len, default=None)
        new = old if src is None else mapping[src] + old[len(src):]
        if new in full_map.values():
            raise ForestError(f"refinement collides on {new!r}")
        full_map[old] = new
    new_paths = set(full_map.values())
    for path in new_paths:   # each path's parent present means every ancestor is
        parent = parent_path(path)
        if parent is not None and parent not in new_paths:
            raise ForestError(f"refinement leaves {path!r} without parent {parent!r}")
    return TypeForest(new_paths), full_map
