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
from .paths import ROOT_NAME, ROOT_PATH, ElementPath, _canonical, parse_path


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
    """Tree node: ``children`` by (name, index); ``terminal`` marks an inserted path end."""

    __slots__ = ("children", "terminal")

    def __init__(self):
        self.children: dict[tuple[str, int | None], TraceTreeNode] = {}
        self.terminal = False


def _sibling_order(key: tuple[str, int | None]) -> tuple[str, int]:
    """Siblings by name, then by index; a bare name sorts before index 0."""
    name, index = key
    return name, -1 if index is None else index


class TraceIdentifierTree:
    """Prefix tree over element paths, such as the sources of a trace's links."""

    def __init__(self):
        self.root = TraceTreeNode()

    def insert(self, path: ElementPath):
        node = self.root
        if path != ROOT_PATH:
            for step in path.split("."):
                name, _, index = step.partition("[")
                key = (name, int(index[:-1]) if index else None)
                node = node.children.setdefault(key, TraceTreeNode())
        node.terminal = True

    def paths(self) -> list[ElementPath]:
        """Every inserted path, in the order M2M trace links take: pre-order,
        siblings in ``_sibling_order``, and the root's own path sorted as the
        bare name ``root`` among the root's children."""
        out: list[ElementPath] = []

        def walk(node: TraceTreeNode, keys: list, prefix: str):
            for name, index in keys:
                child = node.children[name, index]
                text = prefix + (name if index is None else f"{name}[{index}]")
                if child.terminal:
                    out.append(_canonical(text))
                walk(child, sorted(child.children, key=_sibling_order), text + ".")

        keys = sorted(self.root.children, key=_sibling_order)
        before = sum(_sibling_order(key) < (ROOT_NAME, -1) for key in keys)
        walk(self.root, keys[:before], "")
        if self.root.terminal:
            out.append(ROOT_PATH)
        walk(self.root, keys[before:], "")
        return out


def build_identifier_tree(paths: list[ElementPath]) -> TraceIdentifierTree:
    tree = TraceIdentifierTree()
    for p in paths:
        tree.insert(p)
    return tree
