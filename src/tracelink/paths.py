"""Element paths: dot-separated, index-bearing addresses of elements in a model.

A path like ``filters[0].sections[1]`` walks ordered containment collections
from the model root. The single segment ``root`` addresses the root element
itself, and leading ``root.`` steps are dropped: ``root.filters[0]`` and
``root.root.filters[0]`` are ``filters[0]``.

An ``ElementPath`` is a ``str`` whose value is the path's canonical text:
indexes without leading zeros. It compares and hashes equal to that text.
"""

from __future__ import annotations

import re

from .errors import PathSyntaxError

ROOT_NAME = "root"
_ROOT_PREFIX = ROOT_NAME + "."  # the root's own step, dropped: `root.a[0]` is `a[0]`

# Collection names and segment names; `nat` is ASCII digits only.
IDENTIFIER = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")
_DIGITS = re.compile(r"[0-9]*")
_SEGMENT = rf"({IDENTIFIER.pattern})(?:\[([0-9]+)\])?"
_PATH = re.compile(rf"{_SEGMENT}(?:\.{_SEGMENT})*")
_LEADING_DOTTED = re.compile(rf"(?:{_SEGMENT}\.)*")  # whole segments, each with its '.'
_LEADING_ZEROS = re.compile(r"\[0+(?=[0-9])")
_CANONICAL_SEGMENT = rf"{IDENTIFIER.pattern}(?:\[(?:0|[1-9][0-9]*)\])?"
# A canonical text, which parses to itself: no leading `root.` step, no leading zeros.
_CANONICAL_PATH = re.compile(rf"(?!{ROOT_NAME}\.){_CANONICAL_SEGMENT}(?:\.{_CANONICAL_SEGMENT})*")


class ElementPath(str):
    """A path as its canonical text; ``ElementPath(text)`` is ``parse_path(text)``."""

    __slots__ = ()

    def __new__(cls, text: str):  # copy and pickle rebuild through str.__getnewargs__
        return parse_path(text)

    def __repr__(self) -> str:
        return f"parse_path({str.__repr__(self)})"


def _canonical(text: str) -> ElementPath:
    """The path whose canonical text is ``text``, which the caller vouches for."""
    return str.__new__(ElementPath, text)


ROOT_PATH = _canonical(ROOT_NAME)


def parse_path(s: str) -> ElementPath:
    """Parse a path string into its canonical text; offsets in errors are
    byte positions (every character before an error is ASCII)."""
    if _CANONICAL_PATH.fullmatch(s) is not None:
        return _canonical(s)
    if _PATH.fullmatch(s) is None:
        raise _syntax_error(s)
    while s.startswith(_ROOT_PREFIX):  # all of them, so the canonical text parses to itself
        s = s[len(_ROOT_PREFIX):]
    if "[0" in s:
        s = _LEADING_ZEROS.sub("[", s)
    return _canonical(s)


def source_path_key(path: ElementPath) -> tuple[tuple[str, int, str], ...]:
    """Source-path order (docs/formats.md, "Element paths"): each step as (name, number of index
    digits, index digits), so a bare name sorts before ``[0]`` and, indexes being canonical,
    length then text is numeric order."""
    steps = (step.partition("[") for step in path.replace("]", "").split("."))
    return tuple((name, len(digits), digits) for name, _, digits in steps)


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

