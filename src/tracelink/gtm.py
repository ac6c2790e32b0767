"""Global trace map: the joined graph over all local trace models.

Nodes are model elements (URI plus path) and code spans; edges come
straight from local trace links, so chains join wherever one
transformation's output element is another's input element. Impact
analysis is forward BFS closure from an anchor, origin tracking the
backward closure; each node is reported once, at its minimum depth.

Joining the traces indexes each node's successors and predecessors in
the pass that reads their links; the node and edge sets, the map's value,
are built only when read. A query walks each edge it meets once, and a
byte location is found by binary search over its file's sorted spans.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from collections import namedtuple
from collections.abc import Collection, Iterable
from functools import cache, cached_property
from itertools import accumulate, groupby
from pathlib import Path

from .errors import AnchorNotFound, LocationOutsideSpans, ParseError, TracelinkError
from .megamodel import Megamodel, ResourceKind, _dot_escape, load_metamodels, trace_scope
# ``parse_model`` is not called here but stays bound: tests/test_query.py counts
# calls to ``gtm.parse_model`` to show that a query parses no model.
from .model import _load_json, _read_model, parse_model, resolve_path  # noqa: F401
from .trace import CodeSpan, ElementRef, LocalTraceModel, load_trace
from .workspace import load, read_text


# Endpoints join the map as the traces' own element references and code spans.
ElemNode = ElementRef
CodeNode = CodeSpan
TraceNode = ElemNode | CodeNode


# via: the transformation's resource id; rule_tag: the link's rule or template.
GtmEdge = namedtuple("GtmEdge", "src dst via rule_tag")


class GlobalTraceMap:
    """The joined trace graph, whose value (equality, hash, ``repr``) is
    ``(nodes, edges)``. A map built by hand indexes them at once; a map that
    ``_join`` builds holds its index and links, and builds them when read."""

    def __init__(self, nodes: frozenset[TraceNode], edges: frozenset[GtmEdge]):
        self.nodes, self.edges = nodes, edges
        self.successors, self.predecessors = {n: [] for n in nodes}, {n: [] for n in nodes}
        for src, dst, _, _ in edges:
            self.successors[src].append(dst)
            self.predecessors[dst].append(src)

    def __eq__(self, other) -> bool:
        return isinstance(other, GlobalTraceMap) and (self.nodes, self.edges) == (other.nodes, other.edges)

    def __hash__(self) -> int:
        return hash((self.nodes, self.edges))

    def __repr__(self) -> str:
        return f"GlobalTraceMap(nodes={self.nodes!r}, edges={self.edges!r})"

    @cached_property
    def nodes(self) -> frozenset[TraceNode]:
        return frozenset(self.successors.keys() | self.predecessors.keys())

    @cached_property
    def edges(self) -> frozenset[GtmEdge]:
        return frozenset(GtmEdge(s, t, via, tag) for via, tag, srcs, dsts in self._links for s in srcs for t in dsts)

    @cached_property
    def code_spans(self) -> dict[str, tuple[tuple[int, ...], tuple[int, ...], tuple[CodeNode, ...]]]:
        """Per file: span starts, the running maximum of span ends, and the
        spans themselves, all in (start, end) order."""
        index = {}
        code = sorted(n for n in self.predecessors if isinstance(n, CodeNode))  # a span is a link target
        for file_uri, spans in groupby(code, lambda n: n.file_uri):
            spans = tuple(spans)
            index[file_uri] = (tuple(n.start_byte for n in spans),
                               tuple(accumulate((n.end_byte for n in spans), max)), spans)
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


# ---------------------------------------------------------------------------
# Construction
# ---------------------------------------------------------------------------

def build_gtm(mgm: Megamodel, root: Path) -> GlobalTraceMap:
    """Join every trace model the megamodel registers. Parses no model;
    ``dangling_endpoints`` finds the endpoints that no longer resolve."""
    load_metamodels(mgm, root)  # a malformed metamodel fails every map alike
    return _join(load(root, res.uri, load_trace) for res in mgm.of_kind(ResourceKind.TRACE_MODEL))[0]


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
        g, ends = _join(load(root, trace_uri, load_trace) for trace_uri, _, _ in scope)
        if all(reads <= inputs and writes <= outputs for (reads, writes), (_, inputs, outputs) in zip(ends, scope)):
            return g
    return build_gtm(mgm, root)


def _join(traces: Iterable[LocalTraceModel]) -> tuple[GlobalTraceMap, list[tuple[set[str], set[str]]]]:
    """The map of the traces' links, indexed in one pass over them, and for
    each trace the uris its link sources and its link targets name."""
    successors, predecessors, links, ends = {}, {}, [], []
    for trace in traces:
        ends.append((reads := set(), writes := set()))
        for link in trace.links:
            tag = link.tags.get("rule") or link.tags.get("template") or ""
            links.append((trace.transformation_id, tag, link.sources, link.targets))
            for source in link.sources:
                reads.add(source[0])  # an endpoint's uri is its first field
                successors.setdefault(source, []).extend(link.targets)
            for target in link.targets:
                writes.add(target[0])
                predecessors.setdefault(target, []).extend(link.sources)
    g = GlobalTraceMap.__new__(GlobalTraceMap)  # nodes and edges are built when read
    g.successors, g.predecessors, g._links = successors, predecessors, links
    return g, ends


def dangling_endpoints(g: GlobalTraceMap, mgm: Megamodel, root: Path) -> dict[ElemNode, str]:
    """Each element node of ``g`` whose path no longer resolves, in node
    order, with the reason. A model file that cannot be read, is not a
    JSON object, or does not conform is not loadable."""
    metamodels, _ = load_metamodels(mgm, root)

    @cache
    def model_at(uri: str):  # the parsed model, or why it cannot be had
        try:
            data = _load_json(read_text(root, uri))
            if not isinstance(data, dict):
                raise ParseError("model document must be an object")
            mm_name = data.get("metamodel")
            if not isinstance(mm_name, str) or mm_name not in metamodels:
                return f"metamodel '{mm_name}' is not registered"
            return _read_model(data, metamodels[mm_name], uri=uri)
        except (OSError, TracelinkError, ValueError) as exc:
            return f"model not loadable: {exc}"

    dangling: dict[ElemNode, str] = {}
    for node in sorted((n for n in g.nodes if isinstance(n, ElemNode)), key=_node_key):
        model = model_at(node.model_uri)
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

def _layers(g: GlobalTraceMap, anchor: TraceNode, adjacency: dict, depth: float = math.inf) -> tuple[frozenset, ...]:
    """The nodes of ``g`` first reached from ``anchor`` at depth 1, 2, ... up to
    ``depth``; each is kept where first met, though adjacency lists may repeat it."""
    if anchor not in g.successors and anchor not in g.predecessors:
        raise AnchorNotFound(str(anchor))
    layers, seen, frontier = [], {anchor}, [anchor]
    while frontier and len(layers) < depth:
        reached = []
        for node in frontier:
            for next_node in adjacency.get(node, ()):
                if next_node not in seen:
                    seen.add(next_node)
                    reached.append(next_node)
        if reached:
            layers.append(frozenset(reached))
        frontier = reached
    return tuple(layers)


def _render(anchor: TraceNode, layers) -> str:
    lines = [str(anchor)]
    for depth, layer in enumerate(layers, start=1):
        for node in sorted(layer, key=_node_key):
            lines.append(f"{'=' * depth}> {node}")
    return "\n".join(lines) + "\n"


def change_impact(g: GlobalTraceMap, anchor: ElemNode) -> AnalysisReport:
    """Forward closure: everything derived from the anchor element."""
    return AnalysisReport("impact", anchor, _layers(g, anchor, g.successors))


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
    return AnalysisReport("origin", anchor, _layers(g, anchor, g.predecessors))


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
    both = {n: [*g.successors.get(n, ()), *g.predecessors.get(n, ())] for n in g.nodes}
    nodes = frozenset({around}.union(*_layers(g, around, both, radius)))
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
