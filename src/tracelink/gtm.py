"""Global trace map: the joined graph over all local trace models.

Nodes are model elements (URI plus path) and code spans; edges come
straight from local trace links, so chains join wherever one
transformation's output element is another's input element. Impact
analysis is forward BFS closure from an anchor, origin tracking the
backward closure; each node is reported once, at its minimum depth.

A map builds its query index once, on first use, one part at a time:
successors, predecessors, and each file's code spans sorted by start
byte. Building a part reads the whole map once; after that an impact or
origin query costs time in proportion to the nodes and edges it reports,
plus, for a byte location, a binary search and a short walk back over
the spans that start near it.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from collections import namedtuple
from collections.abc import Collection, Iterable, Iterator
from functools import cache, cached_property
from itertools import accumulate, islice
from operator import attrgetter
from pathlib import Path

from .errors import AnchorNotFound, LocationOutsideSpans, ParseError, TracelinkError
from .megamodel import Megamodel, ResourceKind, _dot_escape, load_metamodels, trace_scope
from .model import _load_json, parse_model, resolve_path
from .trace import CodeSpan, ElementRef, LocalTraceModel, load_trace
from .workspace import read_text


# Endpoints join the map as the traces' own element references and code spans.
ElemNode = ElementRef
CodeNode = CodeSpan
TraceNode = ElemNode | CodeNode


# via: the transformation's resource id; rule_tag: the link's rule or template.
GtmEdge = namedtuple("GtmEdge", "src dst via rule_tag")


class GlobalTraceMap(namedtuple("GlobalTraceMap", "nodes edges")):
    """The joined trace graph. Not slotted: its query index is cached
    properties in the instance's ``__dict__``, outside the fields, so
    equality, hashing and ``repr`` ignore it."""

    @cached_property
    def successors(self) -> dict[TraceNode, tuple[TraceNode, ...]]:
        return _adjacency(self.edges, forward=True)

    @cached_property
    def predecessors(self) -> dict[TraceNode, tuple[TraceNode, ...]]:
        return _adjacency(self.edges, forward=False)

    @cached_property
    def code_spans(self) -> dict[str, tuple[tuple[int, ...], tuple[int, ...], tuple[CodeNode, ...]]]:
        """Per file: span starts, the running maximum of span ends, and the
        spans themselves, all in (start, end) order."""
        by_file: dict[str, list[CodeNode]] = {}
        for node in self.nodes:
            if isinstance(node, CodeNode):
                by_file.setdefault(node.file_uri, []).append(node)
        index = {}
        for file_uri, spans in by_file.items():
            spans.sort(key=attrgetter("start_byte", "end_byte"))
            index[file_uri] = (tuple(n.start_byte for n in spans),
                               tuple(accumulate((n.end_byte for n in spans), max)), tuple(spans))
        return index


class AnalysisReport(namedtuple("AnalysisReport", "kind anchor layers")):
    """An ``"impact"`` or ``"origin"`` answer: the anchor node, and the
    nodes first reached at each depth, one frozenset per layer."""

    __slots__ = ()

    @property
    def rendered(self) -> str:
        """The report's text, built when read."""
        return _render(self.anchor, self.layers)


def _node_key(node: TraceNode) -> tuple:
    if isinstance(node, ElemNode):
        return (0, node.model_uri, node.path)
    return (1, node.file_uri, node.start_byte, node.end_byte)


def _adjacency(edges, forward: bool) -> dict[TraceNode, tuple[TraceNode, ...]]:
    # A node may repeat in a tuple (edges differing only in via or tag);
    # the walks collect nodes in sets.
    neighbours: dict[TraceNode, list[TraceNode]] = {}
    for edge in edges:
        a, b = (edge.src, edge.dst) if forward else (edge.dst, edge.src)
        neighbours.setdefault(a, []).append(b)
    return {a: tuple(bs) for a, bs in neighbours.items()}


# ---------------------------------------------------------------------------
# Construction
# ---------------------------------------------------------------------------

def build_gtm(mgm: Megamodel, root: Path) -> GlobalTraceMap:
    """Join every trace model the megamodel registers. Parses no model;
    ``dangling_endpoints`` finds the endpoints that no longer resolve."""
    load_metamodels(mgm, root)  # a malformed metamodel fails every map alike
    return _join(load_trace(read_text(root, res.uri)) for res in mgm.of_kind(ResourceKind.TRACE_MODEL))


def query_gtm(mgm: Megamodel, root: Path, uri: str, forward: bool) -> GlobalTraceMap:
    """The part of the map that an impact (``forward``) or origin query
    anchored in artifact ``uri`` can reach.

    Reads only the traces ``megamodel.trace_scope`` names, and builds the
    whole map when it names none or when a trace read links an artifact
    outside its transformation's inputs or outputs.
    """
    scope = trace_scope(mgm, uri, forward)
    if scope is not None:
        load_metamodels(mgm, root)  # a malformed metamodel fails every query alike
        traces = [load_trace(read_text(root, trace_uri)) for trace_uri, _, _ in scope]
        if all(_within(t, inputs, outputs) for t, (_, inputs, outputs) in zip(traces, scope)):
            return _join(traces)
    return build_gtm(mgm, root)


def _within(trace: LocalTraceModel, inputs: set[str], outputs: set[str]) -> bool:
    """Whether every link reads from ``inputs`` and writes to ``outputs``."""
    return all(all(s.model_uri in inputs for s in link.sources)
               and all((t.model_uri if isinstance(t, ElementRef) else t.file_uri) in outputs
                       for t in link.targets)
               for link in trace.links)


def _join(traces: Iterable[LocalTraceModel]) -> GlobalTraceMap:
    """One node per endpoint and one edge per (source, target) pair of every link."""
    nodes: set[TraceNode] = set()
    edges: set[GtmEdge] = set()
    for trace in traces:
        for link in trace.links:
            tag = link.tags.get("rule") or link.tags.get("template") or ""
            nodes.update(link.sources)
            nodes.update(link.targets)
            edges.update(GtmEdge(source, target, trace.transformation_id, tag)
                         for source in link.sources for target in link.targets)
    return GlobalTraceMap(frozenset(nodes), frozenset(edges))


def dangling_endpoints(g: GlobalTraceMap, mgm: Megamodel, root: Path) -> dict[ElemNode, str]:
    """Each element node of ``g`` whose path no longer resolves, in node
    order, with the reason. A model file that cannot be read, is not a
    JSON object, or does not conform is not loadable."""
    metamodels, _ = load_metamodels(mgm, root)

    @cache
    def load(uri: str):  # the parsed model, or why it cannot be had
        try:
            text = read_text(root, uri)
            data = _load_json(text)
            if not isinstance(data, dict):
                raise ParseError("model document must be an object")
            mm_name = data.get("metamodel")
            if not isinstance(mm_name, str) or mm_name not in metamodels:
                return f"metamodel '{mm_name}' is not registered"
            return parse_model(text, metamodels[mm_name], uri=uri)
        except (OSError, TracelinkError, ValueError) as exc:
            return f"model not loadable: {exc}"

    dangling: dict[ElemNode, str] = {}
    for node in sorted((n for n in g.nodes if isinstance(n, ElemNode)), key=_node_key):
        model = load(node.model_uri)
        if isinstance(model, str):
            dangling[node] = model
            continue
        try:
            resolve_path(model, node.path)
        except TracelinkError:
            dangling[node] = "path does not resolve"
    return dangling


# ---------------------------------------------------------------------------
# Analyses
# ---------------------------------------------------------------------------

def _bfs_layers(anchor: TraceNode, *adjacency: dict) -> Iterator[frozenset[TraceNode]]:
    """The nodes first reached at depth 1, 2, ... over the union of the
    given adjacency maps."""
    seen = {anchor}
    frontier = {anchor}
    while True:
        frontier = {m for n in frontier for step in adjacency for m in step.get(n, ())} - seen
        if not frontier:
            return
        seen |= frontier
        yield frozenset(frontier)


def _render(anchor: TraceNode, layers) -> str:
    lines = [str(anchor)]
    for depth, layer in enumerate(layers, start=1):
        for node in sorted(layer, key=_node_key):
            lines.append(f"{'=' * depth}> {node}")
    return "\n".join(lines) + "\n"


def change_impact(g: GlobalTraceMap, anchor: ElemNode) -> AnalysisReport:
    """Forward closure: everything derived from the anchor element."""
    if anchor not in g.nodes:
        raise AnchorNotFound(str(anchor))
    return AnalysisReport("impact", anchor, tuple(_bfs_layers(anchor, g.successors)))


def origin_track(g: GlobalTraceMap, anchor: TraceNode | None = None,
                 location: tuple[str, int] | None = None) -> AnalysisReport:
    """Backward closure: everything the anchor was derived from.

    A raw ``location`` (fileUri, byteOffset) is anchored at the smallest
    enclosing code span.
    """
    if anchor is None:
        if location is None:
            raise AnchorNotFound("<none>")
        anchor = _enclosing_span(g, *location)
    if anchor not in g.nodes:
        raise AnchorNotFound(str(anchor))
    return AnalysisReport("origin", anchor, tuple(_bfs_layers(anchor, g.predecessors)))


def _enclosing_span(g: GlobalTraceMap, file_uri: str, offset: int) -> CodeNode:
    """The smallest span holding ``offset``; of equal sizes, the earliest.

    Walks back from the last span starting at or before ``offset``. It stops
    where no earlier span reaches past ``offset`` (running maximum of ends)
    or where every earlier span would be longer than the best found so far.
    """
    starts, reach, spans = g.code_spans.get(file_uri, ((), (), ()))
    best, best_size = None, math.inf
    i = bisect_right(starts, offset)
    while i and reach[i - 1] > offset:
        i -= 1
        span = spans[i]
        if offset - span.start_byte >= best_size:
            break
        size = span.end_byte - span.start_byte
        if span.end_byte > offset and size <= best_size:
            best, best_size = span, size
    if best is None:
        raise LocationOutsideSpans(f"{file_uri}@{offset} is inside no traced span")
    return best


def report_json(report: AnalysisReport) -> dict:
    def node_json(n: TraceNode) -> dict:
        if isinstance(n, ElemNode):
            return {"kind": "element", "model": n.model_uri, "path": str(n.path)}  # a plain str for canonical_json
        return {"kind": "code", "file": n.file_uri, "startByte": n.start_byte,
                "endByte": n.end_byte, "line": n.start_line, "col": n.start_col}

    return {
        "kind": report.kind,
        "anchor": node_json(report.anchor),
        "layers": [[node_json(n) for n in sorted(layer, key=_node_key)] for layer in report.layers],
    }


# ---------------------------------------------------------------------------
# DOT export
# ---------------------------------------------------------------------------

def slice_around(g: GlobalTraceMap, around: TraceNode, radius: int) -> GlobalTraceMap:
    """The subgraph induced by the nodes within ``radius`` undirected steps
    of ``around``."""
    if around not in g.nodes:
        raise AnchorNotFound(str(around))
    nodes = frozenset({around}.union(*islice(_bfs_layers(around, g.successors, g.predecessors), max(radius, 0))))
    return GlobalTraceMap(nodes, frozenset(e for e in g.edges if e.src in nodes and e.dst in nodes))


def export_dot(g: GlobalTraceMap, dangling: Collection[TraceNode] = ()) -> str:
    """DOT text; edges with an endpoint in ``dangling`` are dashed. Draw a
    slice with ``export_dot(slice_around(g, anchor, radius))``."""
    lines = ["digraph gtm {", "  rankdir=LR;"]
    ids: dict[TraceNode, str] = {}
    for i, node in enumerate(sorted(g.nodes, key=_node_key)):
        ids[node] = f"n{i}"
        shape = "ellipse" if isinstance(node, ElemNode) else "note"
        lines.append(f'  n{i} [label="{_dot_escape(str(node))}" shape={shape}];')
    for edge in sorted(g.edges, key=lambda e: (_node_key(e.src), _node_key(e.dst), e.via, e.rule_tag)):
        style = " style=dashed" if edge.src in dangling or edge.dst in dangling else ""
        lines.append(
            f'  {ids[edge.src]} -> {ids[edge.dst]} [label="{_dot_escape(edge.rule_tag)}"{style}];')
    lines.append("}")
    return "\n".join(lines) + "\n"
