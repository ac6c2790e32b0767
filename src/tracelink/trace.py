"""Trace links, local trace models, and the trace identifier tree.

This is the shared vocabulary between both transformation engines and the
global trace map: every transformation execution yields one local trace
model, stored as a sidecar ``*.trace.json`` file.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass, field
from typing import NamedTuple

from .errors import IntegrityError, ParseError
from .model import _load_json, canonical_json
from .paths import ROOT_PATH, ElementPath, parse_path


class ElementRef(NamedTuple):
    """An element of a model, addressed by workspace-relative URI plus path."""

    model_uri: str
    path: ElementPath

    def __str__(self) -> str:
        return f"{self.model_uri}:{self.path}"


class CodeSpan(NamedTuple("CodeSpan", [("file_uri", str), ("start_byte", int), ("end_byte", int),
                                       ("start_line", int), ("start_col", int)])):
    """Half-open byte range [start_byte, end_byte) in a generated file.

    Line and column are 1-based and derived from the byte offsets over the
    clean (marker-free) file content.
    """

    __slots__ = ()

    def __new__(cls, file_uri: str, start_byte: int, end_byte: int, start_line: int, start_col: int):
        if not 0 <= start_byte <= end_byte:
            raise IntegrityError(f"bad span [{start_byte}, {end_byte})")
        if start_line < 1 or start_col < 1:
            raise IntegrityError(f"bad span start {start_line}:{start_col}")
        return tuple.__new__(cls, (file_uri, start_byte, end_byte, start_line, start_col))

    @classmethod
    def _make(cls, fields) -> CodeSpan:  # so that _replace checks the span too
        return cls(*fields)

    def __str__(self) -> str:
        return f"{self.file_uri}:{self.start_line}:{self.start_col}"


def span_at(file_uri: str, newlines: list[int], start: int, end: int) -> CodeSpan:
    """Build a span with line/col derived from ``start``; ``newlines`` holds
    the ascending byte offsets of every newline in the file."""
    before = bisect_left(newlines, start)
    last_nl = newlines[before - 1] if before else -1
    return CodeSpan(file_uri, start, end, before + 1, start - last_nl)


@dataclass(frozen=True)
class TraceLink:
    """Tagged link from source elements to target elements or code spans."""

    sources: tuple[ElementRef, ...]
    targets: tuple[ElementRef | CodeSpan, ...]
    tags: dict[str, str] = field(default_factory=dict)

    def __post_init__(self):
        if not self.sources:
            raise IntegrityError("trace link has no sources")
        if not self.targets:
            raise IntegrityError("trace link has no targets")
        kinds = {type(t) for t in self.targets}
        if len(kinds) > 1:
            raise IntegrityError("trace link mixes element and code targets")
        if any(not k for k in self.tags):
            raise IntegrityError("trace link has an empty tag key")


@dataclass
class LocalTraceModel:
    id: str
    transformation_id: str
    execution_stamp: int
    links: tuple[TraceLink, ...] = ()


# ---------------------------------------------------------------------------
# Serialization
# ---------------------------------------------------------------------------

def _target_to_json(t: ElementRef | CodeSpan) -> dict:
    if isinstance(t, ElementRef):
        return {"model": t.model_uri, "path": str(t.path)}
    return {
        "file": t.file_uri,
        "startByte": t.start_byte,
        "endByte": t.end_byte,
        "startLine": t.start_line,
        "startCol": t.start_col,
    }


def _target_from_json(raw: object) -> ElementRef | CodeSpan:
    if not isinstance(raw, dict):
        raise IntegrityError("trace target must be an object")
    if isinstance(raw.get("model"), str):
        return ElementRef(raw["model"], parse_path(raw["path"]))
    if isinstance(raw.get("file"), str):
        span = [raw[key] for key in ("startByte", "endByte", "startLine", "startCol")]
        if not all(type(value) is int for value in span):  # bool and float are not offsets
            raise IntegrityError(f"trace span fields must be integers: {raw!r}")
        return CodeSpan(raw["file"], *span)
    raise IntegrityError(f"unrecognized trace target: {raw!r}")


def save_trace(t: LocalTraceModel) -> str:
    links = []
    for link in t.links:
        links.append({
            "sources": [_target_to_json(s) for s in link.sources],
            "targets": [_target_to_json(x) for x in link.targets],
            "tags": dict(link.tags),
        })
    return canonical_json({
        "id": t.id,
        "transformation": t.transformation_id,
        "executionStamp": t.execution_stamp,
        "links": links,
    })


def load_trace(text: str) -> LocalTraceModel:
    data = _load_json(text)
    if not isinstance(data, dict):
        raise ParseError("trace document must be an object")
    if not isinstance(data.get("links", []), list):
        raise IntegrityError("trace 'links' must be a list")
    try:
        links = []
        for raw in data.get("links", []):
            if not isinstance(raw, dict):
                raise IntegrityError("each trace link must be an object")
            tags = raw.get("tags", {})
            if not isinstance(tags, dict) or not all(isinstance(v, str) for v in tags.values()):
                raise IntegrityError("trace link 'tags' must be an object of strings")
            sources = tuple(_target_from_json(s) for s in raw.get("sources", []))
            if any(isinstance(s, CodeSpan) for s in sources):
                raise IntegrityError("trace link sources must be model elements")
            targets = tuple(_target_from_json(x) for x in raw.get("targets", []))
            links.append(TraceLink(sources, targets, dict(tags)))
        trace_id, transformation_id, stamp = data["id"], data["transformation"], data["executionStamp"]
        if not (isinstance(trace_id, str) and isinstance(transformation_id, str) and type(stamp) is int):
            raise IntegrityError("trace id and transformation must be strings, executionStamp an integer")
        return LocalTraceModel(trace_id, transformation_id, stamp, tuple(links))
    except (KeyError, TypeError) as exc:
        raise IntegrityError(f"trace file is missing or mistypes a field: {exc}") from exc


# ---------------------------------------------------------------------------
# Trace identifier tree
# ---------------------------------------------------------------------------

class TraceTreeNode:
    """Tree node keyed by (name, index); ``terminal`` marks an inserted path end."""

    __slots__ = ("name", "index", "children", "terminal")

    def __init__(self, name: str, index: int | None):
        self.name = name
        self.index = index
        self.children: dict[tuple[str, int | None], TraceTreeNode] = {}
        self.terminal = False


class TraceIdentifierTree:
    """Prefix tree over element paths, such as the sources of a trace's links."""

    def __init__(self):
        self.root = TraceTreeNode("root", None)

    def insert(self, path: ElementPath):
        if path == ROOT_PATH:
            self.root.terminal = True
            return
        node = self.root
        for seg in path.segments:
            key = (seg.name, seg.index)
            child = node.children.get(key)
            if child is None:
                child = TraceTreeNode(seg.name, seg.index)
                node.children[key] = child
            node = child
        node.terminal = True

    def paths(self) -> list[ElementPath]:
        """Re-enumerate all inserted paths, sorted."""
        out: list[ElementPath] = []
        if self.root.terminal:
            out.append(ROOT_PATH)

        def walk(node: TraceTreeNode, trail: tuple):
            from .paths import PathSegment

            for key in sorted(node.children, key=lambda k: (k[0], -1 if k[1] is None else k[1])):
                child = node.children[key]
                segs = trail + (PathSegment(child.name, child.index),)
                if child.terminal:
                    out.append(ElementPath(segs))
                walk(child, segs)

        walk(self.root, ())
        out.sort(key=lambda p: p.sort_key())
        return out


def build_identifier_tree(paths: list[ElementPath]) -> TraceIdentifierTree:
    tree = TraceIdentifierTree()
    for p in paths:
        tree.insert(p)
    return tree
