"""Trace links, local trace models, and the trace identifier tree.

This is the shared vocabulary between both transformation engines and the
global trace map: every transformation execution yields one local trace
model, stored as a sidecar ``*.trace.json`` file. Endpoints, links and trace
models are named tuples, each equal to the plain tuple of its fields. The
``__new__`` of ``CodeSpan``, ``TraceLink`` and ``LocalTraceModel`` checks each
field such a file holds, except an element endpoint's uri and path (queries
build many), so ``save_trace`` writes from the fixed shape what
``load_trace`` reads back in one pass.
"""

from __future__ import annotations

from bisect import bisect_left
from collections import namedtuple
from json.encoder import encode_basestring

from .errors import IntegrityError, ParseError, TracelinkError
from .model import _load_json
from .paths import ROOT_PATH, ElementPath, _canonical, parse_path, source_path_key


class ElementRef(namedtuple("ElementRef", "model_uri path")):
    """An element of a model, addressed by workspace-relative URI plus
    ``ElementPath``."""

    __slots__ = ()

    def __str__(self) -> str:
        return f"{self.model_uri}:{self.path}"


class CodeSpan(namedtuple("CodeSpan", "file_uri start_byte end_byte start_line start_col")):
    """Half-open byte range [start_byte, end_byte) in a generated file.

    Line and column are 1-based and derived from the byte offsets over the
    clean (marker-free) file content.
    """

    __slots__ = ()

    def __new__(cls, file_uri: str, start_byte: int, end_byte: int, start_line: int, start_col: int):
        if not type(start_byte) is type(end_byte) is type(start_line) is type(start_col) is int:  # not bool
            raise IntegrityError(f"trace span fields must be integers: {start_byte, end_byte, start_line, start_col}")
        if not isinstance(file_uri, str):
            raise IntegrityError(f"trace span file must be a string: {file_uri!r}")
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


_NO_TAGS = object()  # a shared {} default would be one dict for every link


class TraceLink(namedtuple("TraceLink", "sources targets tags")):
    """Tagged link from source elements to target elements or code spans."""

    __slots__ = ()

    def __new__(cls, sources: tuple[ElementRef, ...], targets: tuple[ElementRef | CodeSpan, ...],
                tags: dict[str, str] = _NO_TAGS):
        if tags is _NO_TAGS:
            tags = {}
        if not sources:
            raise IntegrityError("trace link has no sources")
        for source in sources:
            if type(source) is not ElementRef:
                raise IntegrityError("trace link sources must be model elements")
        if not targets:
            raise IntegrityError("trace link has no targets")
        kind = None
        for target in targets:
            if type(target) is not kind:
                if kind is not None:
                    raise IntegrityError("trace link mixes element and code targets")
                kind = type(target)
        if kind is not ElementRef and kind is not CodeSpan:
            raise IntegrityError("trace link targets must be model elements or code spans")
        if not isinstance(tags, dict):
            raise IntegrityError("trace link 'tags' must be an object of strings")
        for key, value in tags.items():
            if not (isinstance(key, str) and isinstance(value, str)):
                raise IntegrityError("trace link 'tags' must be an object of strings")
        if "" in tags:
            raise IntegrityError("trace link has an empty tag key")
        return tuple.__new__(cls, (sources, targets, tags))

    @classmethod
    def _make(cls, fields) -> TraceLink:  # so that _replace checks the link too
        return cls(*fields)


class LocalTraceModel(namedtuple("LocalTraceModel", "id transformation_id execution_stamp links")):
    __slots__ = ()

    def __new__(cls, id: str, transformation_id: str, execution_stamp: int, links: tuple[TraceLink, ...] = ()):
        if not (isinstance(id, str) and isinstance(transformation_id, str) and type(execution_stamp) is int):
            raise IntegrityError("trace id and transformation must be strings, executionStamp an integer")
        return tuple.__new__(cls, (id, transformation_id, execution_stamp, links))

    @classmethod
    def _make(cls, fields) -> LocalTraceModel:
        return cls(*fields)


# ---------------------------------------------------------------------------
# Serialization
# ---------------------------------------------------------------------------

def _endpoints_from_json(raws: list) -> tuple[ElementRef | CodeSpan, ...]:
    """One side of a link, each endpoint built by its kind."""
    out = []
    for raw in raws:
        if type(raw) is not dict:  # JSON objects load as exact dicts
            raise IntegrityError("trace target must be an object")
        uri = raw.get("model")
        if type(uri) is str:
            text = raw["path"]
            if type(text) is not str:
                raise IntegrityError(f"trace element path must be a string: {text!r}")
            out.append(tuple.__new__(ElementRef, (uri, parse_path(text))))
        elif type(raw.get("file")) is str:
            out.append(CodeSpan(raw["file"], raw["startByte"], raw["endByte"], raw["startLine"], raw["startCol"]))
        else:
            raise IntegrityError(f"unrecognized trace target: {raw!r}")
    return tuple(out)


def _endpoints_json(ends: tuple[ElementRef, ...] | tuple[CodeSpan, ...]) -> str:
    if type(ends[0]) is CodeSpan:  # the link's constructor checked that all are of one kind
        return ",".join([f'\n        {{\n          "endByte": {s.end_byte},'
                         f'\n          "file": {encode_basestring(s.file_uri)},\n          "startByte": {s.start_byte},'
                         f'\n          "startCol": {s.start_col},\n          "startLine": {s.start_line}\n        }}'
                         for s in ends])
    return ",".join([f'\n        {{\n          "model": {encode_basestring(r.model_uri)},'
                     f'\n          "path": {encode_basestring(r.path)}\n        }}' for r in ends])


def save_trace(t: LocalTraceModel) -> str:
    """The bytes canonical_json gives the trace's document (keys sorted, strings through json's
    escaper), written from its fixed shape; the constructors vouch for each value's type."""
    links = []
    for link in t.links:
        tags = ",".join([f"\n        {encode_basestring(k)}: {encode_basestring(v)}" for k, v in sorted(link.tags.items())])
        tags = "{" + tags + "\n      }" if tags else "{}"
        links.append(f'\n    {{\n      "sources": [{_endpoints_json(link.sources)}\n      ],\n      "tags": {tags},'
                     f'\n      "targets": [{_endpoints_json(link.targets)}\n      ]\n    }}')
    links = "[" + ",".join(links) + "\n  ]" if links else "[]"
    return (f'{{\n  "executionStamp": {t.execution_stamp},\n  "id": {encode_basestring(t.id)},'
            f'\n  "links": {links},\n  "transformation": {encode_basestring(t.transformation_id)}\n}}\n')


def load_trace(text: str) -> LocalTraceModel:
    """Read the fixed shape ``save_trace`` writes: one JSON parse, endpoints
    built by kind, and every link checked by its constructor."""
    data = _load_json(text)
    if not isinstance(data, dict):
        raise ParseError("trace document must be an object")
    raw_links = data.get("links", [])
    if not isinstance(raw_links, list):
        raise IntegrityError("trace 'links' must be a list")
    links = []
    try:
        for raw in raw_links:
            if type(raw) is not dict:
                raise IntegrityError("each trace link must be an object")
            links.append(TraceLink(_endpoints_from_json(raw.get("sources", ())),
                                   _endpoints_from_json(raw.get("targets", ())), raw.get("tags", _NO_TAGS)))
        return LocalTraceModel(data["id"], data["transformation"], data["executionStamp"], tuple(links))
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


class TraceIdentifierTree:
    """Prefix tree over element paths, such as the sources of a trace's links."""

    def __init__(self):
        self.root = TraceTreeNode()

    def insert(self, path: ElementPath):
        """Add ``path``; a child's key is (collection name, integer index)."""
        node = self.root
        if path != ROOT_PATH:
            for step in path.split("."):
                name, _, index = step.partition("[")
                try:
                    key = (name, int(index[:-1]) if index else None)
                except ValueError:  # more digits than int() converts
                    raise TracelinkError(f"path index of {len(index) - 1} digits in '{name}' is too large") from None
                node = node.children.setdefault(key, TraceTreeNode())
        node.terminal = True

    def paths(self) -> list[ElementPath]:
        """Every inserted path, in source-path order (``source_path_key``),
        the order ``iter_elements`` walks a model in and M2M trace links take."""
        out = [ROOT_PATH] if self.root.terminal else []
        stack = [(self.root, "")]
        while stack:
            node, prefix = stack.pop()
            for (name, index), child in node.children.items():
                text = prefix + (name if index is None else f"{name}[{index}]")
                if child.terminal:
                    out.append(_canonical(text))
                stack.append((child, text + "."))
        out.sort(key=source_path_key)
        return out


def build_identifier_tree(paths: list[ElementPath]) -> TraceIdentifierTree:
    tree = TraceIdentifierTree()
    for p in paths:
        tree.insert(p)
    return tree
