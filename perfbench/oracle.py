"""Independent answers to the benchmark's queries, and its output checks.

Nothing here imports tracelink: the trace graph is read from the stored
trace files with ``json`` alone, and impact and origin are plain
breadth-first searches over it. A node is ``("E", model, path)`` for a model
element or ``("C", file, startByte, endByte, line, col)`` for a code span.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from pathlib import Path


@dataclass
class TraceGraph:
    forward: dict[tuple, set[tuple]] = field(default_factory=dict)
    backward: dict[tuple, set[tuple]] = field(default_factory=dict)
    nodes: set[tuple] = field(default_factory=set)
    links: int = 0


def _node(raw: dict) -> tuple:
    if "model" in raw:
        return ("E", raw["model"], raw["path"])
    return ("C", raw["file"], raw["startByte"], raw["endByte"], raw["startLine"], raw["startCol"])


def registered(ws: Path, kind: str) -> list[str]:
    """URIs of the megamodel's resources of one kind."""
    mgm = json.loads((ws / "megamodel.json").read_text(encoding="utf-8"))
    return sorted(r["uri"] for r in mgm["resources"] if r["kind"] == kind)


def load_graph(ws: Path) -> TraceGraph:
    g = TraceGraph()
    for uri in registered(ws, "TraceModel"):
        doc = json.loads((ws / uri).read_text(encoding="utf-8"))
        for link in doc["links"]:
            g.links += 1
            for s in link["sources"]:
                src = _node(s)
                for t in link["targets"]:
                    dst = _node(t)
                    g.nodes.update((src, dst))
                    g.forward.setdefault(src, set()).add(dst)
                    g.backward.setdefault(dst, set()).add(src)
    return g


def layers(adjacency: dict[tuple, set[tuple]], anchor: tuple) -> list[frozenset]:
    """Nodes reachable from ``anchor``, grouped by their least distance."""
    seen = {anchor}
    frontier = {anchor}
    out = []
    while True:
        nxt = {m for n in frontier for m in adjacency.get(n, ())} - seen
        if not nxt:
            return out
        out.append(frozenset(nxt))
        seen |= nxt
        frontier = nxt


def enclosing_span(g: TraceGraph, file_uri: str, offset: int) -> tuple | None:
    """Smallest code span holding ``offset``; ties go to the earlier start."""
    holders = [n for n in g.nodes if n[0] == "C" and n[1] == file_uri and n[2] <= offset < n[3]]
    return min(holders, key=lambda n: (n[3] - n[2], n[2]), default=None)


def impact(g: TraceGraph, anchor: tuple) -> list[frozenset]:
    return layers(g.forward, anchor)


def origin(g: TraceGraph, file_uri: str, offset: int) -> tuple[tuple, list[frozenset]]:
    anchor = enclosing_span(g, file_uri, offset)
    return anchor, layers(g.backward, anchor)


def report_from_json(doc: dict) -> tuple[tuple, list[frozenset]]:
    """Anchor and layers of a ``tracelink impact|origin --format json`` report."""
    def node(raw):
        if raw["kind"] == "element":
            return ("E", raw["model"], raw["path"])
        return ("C", raw["file"], raw["startByte"], raw["endByte"], raw["line"], raw["col"])
    return node(doc["anchor"]), [frozenset(node(n) for n in layer) for layer in doc["layers"]]


def line_col(data: bytes, offset: int) -> tuple[int, int]:
    line = data.count(b"\n", 0, offset) + 1
    return line, offset - (data.rfind(b"\n", 0, offset) + 1) + 1


# ---------------------------------------------------------------------------
# Output checks
# ---------------------------------------------------------------------------

def enactment_outputs(ws: Path) -> list[str]:
    """Every file an enactment writes: the megamodel, the enactment summary,
    each generated resource and each generated file's ``.annotated`` sidecar
    when it exists (augmented runs only)."""
    mgm = json.loads((ws / "megamodel.json").read_text(encoding="utf-8"))
    uris = ["megamodel.json", "out/enactment.json"]
    for r in mgm["resources"]:
        if r["origin"] == "Generated":
            uris.append(r["uri"])
            if r["kind"] == "GeneratedFile" and (ws / (r["uri"] + ".annotated")).is_file():
                uris.append(r["uri"] + ".annotated")
    return sorted(uris)


def digest(ws: Path, uris: list[str]) -> str:
    """SHA-256 over the named files, name and content."""
    h = hashlib.sha256()
    for uri in uris:
        data = (ws / uri).read_bytes()
        h.update(uri.encode() + b"\0" + len(data).to_bytes(8, "little") + data)
    return h.hexdigest()


def code_mismatches(ws: Path, expected: dict[str, str], files: dict[str, str]) -> list[str]:
    """Code files whose bytes differ from the text derived from the input."""
    bad = []
    for action, text in expected.items():
        path = ws / "out" / action / files[action]
        if not path.is_file() or path.read_bytes() != text.encode("utf-8"):
            bad.append(f"out/{action}/{files[action]}")
    return bad


def strip_mismatches(aug: Path, bare: Path, uris: list[str]) -> list[str]:
    """Code files of an augmented run that differ from the bare run's."""
    return [u for u in uris if (aug / u).read_bytes() != (bare / u).read_bytes()]
