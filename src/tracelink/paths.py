"""Element paths: dot-separated, index-bearing addresses of elements in a model.

A path like ``filters[0].sections[1]`` walks ordered containment collections
from the model root. The single segment ``root`` addresses the root element
itself.

An ``ElementPath`` is a ``str`` whose value is the path's canonical text:
indexes without leading zeros. It compares and hashes equal to that text,
and ``segments`` is derived from it on request.
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


class ElementPath(str):
    """A path as its canonical text; built from segments or by ``parse_path``."""

    __slots__ = ()

    def __new__(cls, segments: tuple[PathSegment, ...]):
        if not segments:
            raise ValueError("a path needs at least one segment")
        return str.__new__(cls, ".".join(map(str, segments)))

    def __getnewargs__(self) -> tuple:  # copy and pickle rebuild through __new__
        return (self.segments,)

    def __repr__(self) -> str:
        return f"parse_path({str.__repr__(self)})"

    @property
    def segments(self) -> tuple[PathSegment, ...]:
        return tuple(PathSegment(name, int(index) if index else None)
                     for name, index in _SEGMENTS.findall(self))

    def sort_key(self) -> tuple:
        return tuple((s.name, -1 if s.index is None else s.index) for s in self.segments)


def _canonical(text: str) -> ElementPath:
    """The path whose canonical text is ``text``, which the caller vouches for."""
    return str.__new__(ElementPath, text)


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

