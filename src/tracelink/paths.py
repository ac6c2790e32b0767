"""Element paths: dot-separated, index-bearing addresses of elements in a model.

A path like ``filters[0].sections[1]`` walks ordered containment collections
from the model root. The single segment ``root`` addresses the root element
itself.

An ``ElementPath`` holds one value, its canonical printed text: indexes
without leading zeros. Equality, hashing and ``str`` use that text, and
``segments`` is derived from it on request.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

from .errors import PathSyntaxError

ROOT_NAME = "root"

# Collection names and segment names; `nat` is ASCII digits only.
IDENTIFIER = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")
_DIGITS = re.compile(r"[0-9]*")
_SEGMENT = rf"({IDENTIFIER.pattern})(?:\[([0-9]+)\])?"
_PATH = re.compile(rf"{_SEGMENT}(?:\.{_SEGMENT})*")
_SEGMENTS = re.compile(_SEGMENT)
_LEADING_DOTTED = re.compile(rf"(?:{_SEGMENT}\.)*")  # whole segments, each with its '.'
_LEADING_ZEROS = re.compile(r"\[0+(?=[0-9])")


@dataclass(frozen=True)
class PathSegment:
    """One step: a collection name plus index, or a bare name (root/alias)."""

    name: str
    index: int | None = None

    def __str__(self) -> str:
        return self.name if self.index is None else f"{self.name}[{self.index}]"


class ElementPath:
    """A path as its canonical text; built from segments or by ``parse_path``."""

    __slots__ = ("_text",)

    def __init__(self, segments: tuple[PathSegment, ...]):
        if not segments:
            raise ValueError("a path needs at least one segment")
        self._text = ".".join(map(str, segments))

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not ElementPath:
            return NotImplemented
        return self._text == other._text

    def __hash__(self) -> int:
        return hash(self._text)

    def __str__(self) -> str:
        return self._text

    def __repr__(self) -> str:
        return f"parse_path({self._text!r})"

    @property
    def segments(self) -> tuple[PathSegment, ...]:
        return tuple(PathSegment(name, int(index) if index else None)
                     for name, index in _SEGMENTS.findall(self._text))

    def sort_key(self) -> tuple:
        return tuple((s.name, -1 if s.index is None else s.index) for s in self.segments)


def _canonical(text: str) -> ElementPath:
    """The path whose canonical text is ``text``, which the caller vouches for."""
    path = object.__new__(ElementPath)
    path._text = text
    return path


ROOT_PATH = _canonical(ROOT_NAME)


def parse_path(s: str) -> ElementPath:
    """Parse a path string; offsets in errors are byte positions (every
    character before an error is ASCII)."""
    if _PATH.fullmatch(s) is None:
        raise _syntax_error(s)
    if "[0" in s:
        s = _LEADING_ZEROS.sub("[", s)
    return _canonical(s)


def _syntax_error(s: str) -> PathSyntaxError:
    """The error for a string that is not a path, at the first offset where
    no path can continue."""
    if not s:
        return PathSyntaxError("empty path", 0)
    i = _LEADING_DOTTED.match(s).end()
    name = IDENTIFIER.match(s, i)
    if name is None:
        return PathSyntaxError("trailing '.'" if i == len(s) else "expected identifier", i)
    i = name.end()
    if s.startswith("[", i):
        i = _DIGITS.match(s, i + 1).end()
        if s[i - 1] == "[" or s[i:i + 1].isdigit():  # no digits, or a digit outside 0-9
            return PathSyntaxError("expected index", i)
        if not s.startswith("]", i):
            return PathSyntaxError("expected ']'", i)
        i += 1
    return PathSyntaxError("expected '.'", i)


def print_path(p: ElementPath) -> str:
    return str(p)


def normalize_marker_path(p: ElementPath) -> ElementPath:
    """Make an extracted marker payload model-root-relative.

    Marker payloads may carry the template's parameter alias as a leading
    index-less segment; it is dropped. A payload that is nothing but an
    index-less segment denotes the root element.
    """
    head, dot, rest = p._text.partition(".")
    if "[" in head:
        return p
    return _canonical(rest) if dot else ROOT_PATH
