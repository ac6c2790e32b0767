"""Megamodel: registry of workspace resources and their relations.

Resources (metamodels, models, transformations, process models, trace
models, generated files) are referenced by workspace-relative URI; trace
data stays in its own files. Megamodel values are immutable; registration
returns a new value.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass
from enum import Enum
from functools import cached_property
from pathlib import Path, PurePosixPath

from .errors import AmbiguousMetamodel, DanglingRelation, DuplicateId, IntegrityError, ParseError
from .model import Metamodel, _load_json, canonical_json, parse_metamodel
from .workspace import OUTPUT_DIR, TRACE_DIR, read_text


class ResourceKind(str, Enum):
    METAMODEL = "Metamodel"
    MODEL = "Model"
    TRANSFORMATION_M2M = "TransformationM2M"
    TRANSFORMATION_M2C = "TransformationM2C"
    PROCESS_MODEL = "ProcessModel"
    TRACE_MODEL = "TraceModel"
    GENERATED_FILE = "GeneratedFile"


class ResourceOrigin(str, Enum):
    USER_PROVIDED = "UserProvided"
    DISCOVERED = "Discovered"
    GENERATED = "Generated"


class RelationKind(str, Enum):
    CONFORMS_TO = "ConformsTo"
    DATA_FLOW = "DataFlow"
    TRACE_FOR = "TraceFor"
    WEAVE_BINDING = "WeaveBinding"


class FlowDirection(str, Enum):
    INPUT = "Input"
    OUTPUT = "Output"


_TRANSFORMATION_KINDS = (ResourceKind.TRANSFORMATION_M2M, ResourceKind.TRANSFORMATION_M2C)
_ARTIFACT_KINDS = (ResourceKind.MODEL, ResourceKind.GENERATED_FILE)

# File suffix -> resource kind, applied during discovery.
DISCOVERY_SUFFIXES = (
    (".mm.json", ResourceKind.METAMODEL),
    (".model.json", ResourceKind.MODEL),
    (".proc.json", ResourceKind.PROCESS_MODEL),
    (".m2m", ResourceKind.TRANSFORMATION_M2M),
    (".m2c", ResourceKind.TRANSFORMATION_M2C),
)


@dataclass(frozen=True)
class ResourceEntry:
    id: str
    kind: ResourceKind
    uri: str
    origin: ResourceOrigin
    produced_by: str | None = None  # transformation execution id, Generated only


@dataclass(frozen=True)
class Relation:
    from_id: str
    to_id: str
    kind: RelationKind
    direction: FlowDirection | None = None  # DataFlow only


@dataclass(frozen=True)
class Megamodel:
    """The registry. Its indexes live in cached properties, outside the
    fields, so equality, hashing and ``repr`` ignore them."""

    resources: frozenset[ResourceEntry] = frozenset()
    relations: frozenset[Relation] = frozenset()

    @cached_property
    def by_id(self) -> dict[str, ResourceEntry]:
        return {r.id: r for r in self.resources}

    @cached_property
    def dataflow(self) -> dict[str, tuple[str, ...]]:
        """Successor ids along DataFlow relations."""
        successors: dict[str, tuple[str, ...]] = {}
        for rel in self.relations:
            if rel.kind == RelationKind.DATA_FLOW:
                successors[rel.from_id] = successors.get(rel.from_id, ()) + (rel.to_id,)
        return successors

    def resource(self, resource_id: str) -> ResourceEntry | None:
        return self.by_id.get(resource_id)

    def of_kind(self, kind: ResourceKind) -> list[ResourceEntry]:
        return sorted((r for r in self.resources if r.kind == kind), key=lambda r: r.uri)


def resource_id(kind: ResourceKind, uri: str) -> str:
    """Stable, content-independent id."""
    return f"{kind.value}:{uri}"


def load_metamodels(mgm: Megamodel, root: Path) -> tuple[dict[str, Metamodel], dict[str, str]]:
    """The registered metamodels by name, and their resource ids by name."""
    metamodels: dict[str, Metamodel] = {}
    resource_ids: dict[str, str] = {}
    for res in mgm.of_kind(ResourceKind.METAMODEL):
        mm = parse_metamodel(read_text(root, res.uri))
        metamodels[mm.name] = mm
        resource_ids[mm.name] = res.id
    return metamodels, resource_ids


def trace_scope(mgm: Megamodel, uri: str, forward: bool) -> list[tuple[str, set[str], set[str]]] | None:
    """The trace models a query anchored in artifact ``uri`` can reach, in
    uri order, each with the uris its link sources and targets may name:
    the inputs and the outputs of the transformations it is TraceFor.

    The walk follows DataFlow from the anchor, forward for impact and
    backward for origin, and takes the traces of every transformation it
    meets. Forward, it also takes the traces of the anchor's producers,
    whose targets may hold elements of the anchor's model that no link
    leaves. None when the megamodel cannot bound the answer: no Model or
    GeneratedFile is registered at ``uri``, or a trace model is TraceFor
    no transformation with both inputs and outputs.
    """
    ends: dict[str, tuple[set[str], set[str]]] = {}  # transformation id -> (input, output uris)
    traced: dict[str, list[str]] = {}  # trace model id -> transformation ids
    for rel in mgm.relations:
        if rel.kind == RelationKind.DATA_FLOW:
            if rel.direction == FlowDirection.INPUT:
                ends.setdefault(rel.to_id, (set(), set()))[0].add(mgm.by_id[rel.from_id].uri)
            else:
                ends.setdefault(rel.from_id, (set(), set()))[1].add(mgm.by_id[rel.to_id].uri)
        elif rel.kind == RelationKind.TRACE_FOR:
            traced.setdefault(rel.from_id, []).append(rel.to_id)
    if not any(r.uri == uri and r.kind in _ARTIFACT_KINDS for r in mgm.resources):
        return None
    traces = mgm.of_kind(ResourceKind.TRACE_MODEL)
    if not all(any(all(ends.get(t, ((), ()))) for t in traced.get(r.id, ())) for r in traces):
        return None  # a trace the walk cannot place

    enter, leave = (0, 1) if forward else (1, 0)
    entered_by: dict[str, list[str]] = {}  # artifact uri -> transformations it enters
    for t, sides in ends.items():
        for artifact in sides[enter]:
            entered_by.setdefault(artifact, []).append(t)
    met: set[str] = set()
    seen, todo = {uri}, [uri]
    while todo:
        for t in entered_by.get(todo.pop(), ()):
            if t not in met:
                met.add(t)
                fresh = ends[t][leave] - seen
                seen |= fresh
                todo.extend(fresh)
    if forward:
        met.update(t for t, sides in ends.items() if uri in sides[1])

    scope = []
    for r in traces:
        ts = traced[r.id]
        if met.intersection(ts):
            sides = [ends.get(t, (set(), set())) for t in ts]
            scope.append((r.uri, set().union(*(s[0] for s in sides)), set().union(*(s[1] for s in sides))))
    return scope


# ---------------------------------------------------------------------------
# Validation
# ---------------------------------------------------------------------------

def validate(mgm: Megamodel):
    """Check the whole registry: unique ids, every resource and relation,
    and a dataflow without cycles."""
    seen: set[str] = set()
    for res in mgm.resources:
        if res.id in seen:
            raise IntegrityError(f"duplicate resource id '{res.id}'")
        seen.add(res.id)
        _check_resource(res)
    for rel in mgm.relations:
        _check_relation(rel, mgm.by_id)
    _check_dataflow_acyclic(mgm.dataflow)


def _check_resource(res: ResourceEntry):
    if not res.uri:
        raise IntegrityError(f"resource '{res.id}' has an empty uri")
    if res.origin == ResourceOrigin.GENERATED and not res.produced_by:
        raise IntegrityError(f"generated resource '{res.id}' lacks a producer")


def _check_relation(rel: Relation, by_id: dict[str, ResourceEntry]):
    src = by_id.get(rel.from_id)
    dst = by_id.get(rel.to_id)
    if src is None or dst is None:
        raise IntegrityError(f"relation endpoint missing: {rel.from_id} -> {rel.to_id}")
    if rel.kind == RelationKind.CONFORMS_TO:
        if src.kind != ResourceKind.MODEL or dst.kind != ResourceKind.METAMODEL:
            raise IntegrityError(f"ConformsTo must link Model to Metamodel: {rel.from_id} -> {rel.to_id}")
    elif rel.kind == RelationKind.TRACE_FOR:
        if src.kind != ResourceKind.TRACE_MODEL or dst.kind not in _TRANSFORMATION_KINDS:
            raise IntegrityError(f"TraceFor must link TraceModel to a transformation: {rel.from_id}")
    elif rel.kind == RelationKind.DATA_FLOW:
        if rel.direction is None:
            raise IntegrityError(f"DataFlow without direction: {rel.from_id} -> {rel.to_id}")
        if rel.direction == FlowDirection.INPUT:
            ok = src.kind in _ARTIFACT_KINDS and dst.kind in _TRANSFORMATION_KINDS
        else:
            ok = src.kind in _TRANSFORMATION_KINDS and dst.kind in _ARTIFACT_KINDS
        if not ok:
            raise IntegrityError(f"DataFlow must link artifacts and transformations: {rel.from_id}")
    elif rel.kind == RelationKind.WEAVE_BINDING:
        if src.kind != ResourceKind.PROCESS_MODEL or dst.kind not in _TRANSFORMATION_KINDS:
            raise IntegrityError(f"WeaveBinding must link ProcessModel to a transformation: {rel.from_id}")


def _check_dataflow_acyclic(edges: dict[str, tuple[str, ...]]):
    # Depth-first search with an explicit stack, so DataFlow depth has no
    # limit; the bottom entry's successors are the search's start nodes.
    state: dict[str | None, int] = {}  # 1 while on the stack, 2 once finished
    stack = [(None, iter(edges))]
    while stack:
        node, succs = stack[-1]
        for succ in succs:
            if state.get(succ) == 1:
                raise IntegrityError(f"dataflow cycle through '{succ}'")
            if succ not in state:
                state[succ] = 1
                stack.append((succ, iter(edges.get(succ, ()))))
                break
        else:
            state[node] = 2
            stack.pop()


# ---------------------------------------------------------------------------
# Registration
# ---------------------------------------------------------------------------

def register(mgm: Megamodel, entry: ResourceEntry, relations: Sequence[Relation] = ()) -> Megamodel:
    """Add one resource plus relations: ``register_all`` with one entry."""
    return register_all(mgm, [(entry, relations)])


def register_all(mgm: Megamodel,
                 registrations: Sequence[tuple[ResourceEntry, Sequence[Relation]]]) -> Megamodel:
    """Add resources, each with its relations, in order; existing content is
    untouched.

    Each entry and its relations are checked against the registry grown by
    the entries before it, so a relation may name only those. The DataFlow
    is checked for cycles once, at the end. The registry itself is trusted:
    ``validate`` checks a whole one.
    """
    by_id = dict(mgm.by_id)
    relations = set(mgm.relations)
    for entry, entry_relations in registrations:
        if entry.id in by_id:
            raise DuplicateId(entry.id)
        by_id[entry.id] = entry
        for rel in entry_relations:
            if rel.from_id not in by_id or rel.to_id not in by_id:
                raise DanglingRelation(f"relation references unknown id: {rel.from_id} -> {rel.to_id}")
        _check_resource(entry)
        for rel in entry_relations:
            if rel not in relations:
                _check_relation(rel, by_id)
                relations.add(rel)
    new = Megamodel(mgm.resources.union(entry for entry, _ in registrations), frozenset(relations))
    _check_dataflow_acyclic(new.dataflow)
    return new


# ---------------------------------------------------------------------------
# Discovery
# ---------------------------------------------------------------------------

def workspace_files(root: Path) -> list[tuple[str, ResourceKind]]:
    """(uri, kind) of every recognized file under ``root``, sorted by uri.

    Hidden directories and the output and trace directories are skipped so
    that discovery stays idempotent after enactments.
    """
    found: list[tuple[str, ResourceKind]] = []
    for path in root.rglob("*"):
        rel = PurePosixPath(path.relative_to(root).as_posix())
        if any(part.startswith(".") for part in rel.parts) or rel.parts[0] in (OUTPUT_DIR, TRACE_DIR):
            continue
        kind = next((kind for suffix, kind in DISCOVERY_SUFFIXES if rel.name.endswith(suffix)), None)
        if kind is not None and path.is_file():
            found.append((str(rel), kind))
    return sorted(found)


def discover(workspace_root: str | Path) -> Megamodel:
    """Register every file ``workspace_files`` finds under the workspace root."""
    root = Path(workspace_root)
    if not root.is_dir():
        raise FileNotFoundError(f"workspace root '{root}' is not a directory")

    found = workspace_files(root)
    resources: list[ResourceEntry] = []
    relations: list[Relation] = []
    metamodel_names: dict[str, str] = {}  # metamodel name -> resource id

    for uri, kind in found:
        resources.append(ResourceEntry(resource_id(kind, uri), kind, uri, ResourceOrigin.DISCOVERED))

    for uri, kind in found:
        if kind != ResourceKind.METAMODEL:
            continue
        name = _peek_json_field(root / uri, "name")
        if name is None:
            continue
        if name in metamodel_names:
            raise AmbiguousMetamodel(name)
        metamodel_names[name] = resource_id(kind, uri)

    for uri, kind in found:
        if kind != ResourceKind.MODEL:
            continue
        mm_name = _peek_json_field(root / uri, "metamodel")
        target = metamodel_names.get(mm_name) if mm_name else None
        if target is not None:
            relations.append(Relation(resource_id(kind, uri), target, RelationKind.CONFORMS_TO))

    # Weave bindings: process actions point at the transformations they run.
    known_ids = {r.id for r in resources}
    for uri, kind in found:
        if kind != ResourceKind.PROCESS_MODEL:
            continue
        from .process import parse_process  # local import to avoid a cycle

        process = parse_process((root / uri).read_text(encoding="utf-8"))
        pm_id = resource_id(kind, uri)
        for node in process.nodes:
            if node.transformation and node.transformation in known_ids:
                relations.append(Relation(pm_id, node.transformation, RelationKind.WEAVE_BINDING))

    mgm = Megamodel(frozenset(resources), frozenset(relations))
    validate(mgm)
    return mgm


def _peek_json_field(path: Path, key: str) -> str | None:
    data = _load_json(path.read_text(encoding="utf-8"), path.name)
    value = data.get(key) if isinstance(data, dict) else None
    return value if isinstance(value, str) else None


# ---------------------------------------------------------------------------
# Persistence
# ---------------------------------------------------------------------------

def save_megamodel(mgm: Megamodel) -> str:
    resources = []
    for res in sorted(mgm.resources, key=lambda r: r.id):
        entry = {"id": res.id, "kind": res.kind.value, "origin": res.origin.value, "uri": res.uri}
        if res.produced_by:
            entry["producedBy"] = res.produced_by
        resources.append(entry)
    relations = []
    for rel in sorted(mgm.relations, key=lambda r: (r.from_id, r.kind.value, r.to_id, r.direction or "")):
        entry = {"from": rel.from_id, "kind": rel.kind.value, "to": rel.to_id}
        if rel.direction is not None:
            entry["direction"] = rel.direction.value
        relations.append(entry)
    return canonical_json({"resources": resources, "relations": relations})


def load_megamodel(text: str) -> Megamodel:
    data = _load_json(text)
    if not isinstance(data, dict):
        raise ParseError("megamodel document must be an object")
    try:
        resources = frozenset(
            ResourceEntry(
                _string(raw, "id"),
                ResourceKind(raw["kind"]),
                _string(raw, "uri"),
                ResourceOrigin(raw["origin"]),
                _string(raw, "producedBy") if "producedBy" in raw else None,
            )
            for raw in data.get("resources", [])
        )
        relations = frozenset(
            Relation(
                _string(raw, "from"),
                _string(raw, "to"),
                RelationKind(raw["kind"]),
                FlowDirection(raw["direction"]) if "direction" in raw else None,
            )
            for raw in data.get("relations", [])
        )
    except (KeyError, ValueError, TypeError) as exc:
        raise IntegrityError(f"megamodel file is malformed: {exc}") from exc
    mgm = Megamodel(resources, relations)
    validate(mgm)
    return mgm


def _string(raw: dict, key: str) -> str:
    if type(raw[key]) is not str:
        raise IntegrityError(f"megamodel field '{key}' must be a string: {raw[key]!r}")
    return raw[key]


# ---------------------------------------------------------------------------
# DOT export
# ---------------------------------------------------------------------------

_DOT_SHAPES = {
    ResourceKind.METAMODEL: "trapezium",
    ResourceKind.MODEL: "hexagon",
    ResourceKind.TRANSFORMATION_M2M: "parallelogram",
    ResourceKind.TRANSFORMATION_M2C: "parallelogram",
    ResourceKind.PROCESS_MODEL: "box",
    ResourceKind.TRACE_MODEL: "note",
    ResourceKind.GENERATED_FILE: "folder",
}


def _dot_escape(s: str) -> str:
    return s.replace("\\", "\\\\").replace('"', '\\"')


def megamodel_dot(mgm: Megamodel) -> str:
    """DOT rendering: transformations, models, metamodels, conformance, dataflow."""
    lines = ["digraph megamodel {", "  rankdir=LR;"]
    ids = {}
    for i, res in enumerate(sorted(mgm.resources, key=lambda r: r.id)):
        ids[res.id] = f"n{i}"
        lines.append(f'  n{i} [label="{_dot_escape(res.uri)}" shape={_DOT_SHAPES[res.kind]}];')
    styles = {
        RelationKind.CONFORMS_TO: ' [style=dashed color=purple label="conformsTo"]',
        RelationKind.TRACE_FOR: ' [style=dotted color=gray label="traceFor"]',
        RelationKind.WEAVE_BINDING: ' [style=dashed color=gray label="weave"]',
        RelationKind.DATA_FLOW: "",
    }
    for rel in sorted(mgm.relations, key=lambda r: (r.from_id, r.kind.value, r.to_id, r.direction or "")):
        lines.append(f"  {ids[rel.from_id]} -> {ids[rel.to_id]}{styles[rel.kind]};")
    lines.append("}")
    return "\n".join(lines) + "\n"
