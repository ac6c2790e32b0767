"""Activity-style process models and their enactment.

A process is a graph of Initial/Final/Fork/Join/Action nodes with control
edges plus object edges that carry models between action pins. Scheduling
stages actions: each stage is the sorted tuple of the actions whose
predecessors all ran in earlier stages. When no action is ready, the
``CycleError`` names the walk from the smallest action left along each one's
smallest predecessor left, from the first action it reaches twice. Precedence
depth has no limit. Enactment runs each action's transformation (augmented,
so traces come out as a byproduct) and registers every produced artifact in
the megamodel.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from enum import Enum
from pathlib import Path
from typing import Callable

from . import m2c, m2m
from .errors import (
    ConformanceError,
    CycleError,
    MissingBinding,
    ParseError,
    TracelinkError,
    TransformationError,
    WellFormednessError,
)
from .megamodel import (
    FlowDirection,
    Megamodel,
    Relation,
    RelationKind,
    ResourceEntry,
    ResourceKind,
    ResourceOrigin,
    load_metamodels,
    register_all,
    resource_id,
    validate,
)
from .model import Model, _load_json, ensure_conforms, parse_model, serialize_model
from .trace import LocalTraceModel, save_trace
from .workspace import OUTPUT_DIR, TRACE_DIR, read_text, write_text


class NodeKind(str, Enum):
    INITIAL = "Initial"
    FINAL = "Final"
    FORK = "Fork"
    JOIN = "Join"
    ACTION = "Action"


@dataclass(frozen=True)
class Pin:
    name: str
    metamodel: str


@dataclass(frozen=True)
class ProcNode:
    id: str
    kind: NodeKind
    transformation: str | None = None  # megamodel resource id, actions only
    input_pins: tuple[Pin, ...] = ()
    output_pins: tuple[Pin, ...] = ()


@dataclass(frozen=True)
class ObjectEdge:
    from_node: str
    from_pin: str
    to_node: str
    to_pin: str


@dataclass(frozen=True)
class ProcessModel:
    name: str
    nodes: tuple[ProcNode, ...]
    control_edges: tuple[tuple[str, str], ...]
    object_edges: tuple[ObjectEdge, ...]

    def node(self, node_id: str) -> ProcNode | None:
        return next((n for n in self.nodes if n.id == node_id), None)

    def actions(self) -> list[ProcNode]:
        return [n for n in self.nodes if n.kind == NodeKind.ACTION]


@dataclass(frozen=True)
class ExecutionPlan:
    stages: tuple[tuple[str, ...], ...]  # action ids, sorted within each stage


@dataclass
class EnactmentResult:
    megamodel: Megamodel
    artifacts: tuple[ResourceEntry, ...]
    traces: tuple[LocalTraceModel, ...]
    log: tuple[str, ...]
    plan: ExecutionPlan


# ---------------------------------------------------------------------------
# Parsing and well-formedness
# ---------------------------------------------------------------------------

def parse_process(text: str) -> ProcessModel:
    data = _load_json(text)
    if not isinstance(data, dict) or not isinstance(data.get("name"), str):
        raise ParseError("process document needs a string 'name'")

    nodes: list[ProcNode] = []
    for raw in _list(data, "nodes", "process"):
        if not isinstance(raw, dict) or not isinstance(raw.get("id"), str):
            raise ParseError("each node needs a string 'id'")
        try:
            kind = NodeKind(raw.get("kind"))
        except ValueError:
            raise ParseError(f"node '{raw['id']}': unknown kind {raw.get('kind')!r}") from None
        pins = {}
        for side in ("inputPins", "outputPins"):
            where = f"node '{raw['id']}': a pin in '{side}'"
            pins[side] = tuple(
                Pin(_string(p, "name", where), _string(p, "metamodel", where))
                for p in _list(raw, side, f"node '{raw['id']}'")
            ) if kind == NodeKind.ACTION else ()
        transformation = raw.get("transformation") if kind == NodeKind.ACTION else None
        if kind == NodeKind.ACTION and not isinstance(transformation, str):
            raise ParseError(f"action '{raw['id']}' needs a 'transformation' resource id")
        nodes.append(ProcNode(raw["id"], kind, transformation, pins["inputPins"], pins["outputPins"]))

    control_edges = []
    for i, e in enumerate(_list(data, "controlEdges", "process")):
        if not isinstance(e, list) or len(e) != 2 or not all(isinstance(x, str) for x in e):
            raise ParseError(f"control edge {i} needs two node ids, got {e!r}")
        control_edges.append((e[0], e[1]))
    object_edges = tuple(
        ObjectEdge(*(_string(e, key, f"object edge {i}") for key in ("from", "fromPin", "to", "toPin")))
        for i, e in enumerate(_list(data, "objectEdges", "process"))
    )
    process = ProcessModel(data["name"], tuple(nodes), tuple(control_edges), object_edges)
    _check_process(process)
    return process


def _list(raw: dict, key: str, where: str) -> list:
    value = raw.get(key, [])
    if not isinstance(value, list):
        raise ParseError(f"{where}: '{key}' must be a list")
    return value


def _string(raw: object, key: str, where: str) -> str:
    value = raw.get(key) if isinstance(raw, dict) else None
    if not isinstance(value, str):
        raise ParseError(f"{where} needs a string '{key}'")
    return value


def _check_process(p: ProcessModel):
    ids = [n.id for n in p.nodes]
    if len(set(ids)) != len(ids):
        raise WellFormednessError("duplicate node ids")
    initials = [n for n in p.nodes if n.kind == NodeKind.INITIAL]
    finals = [n for n in p.nodes if n.kind == NodeKind.FINAL]
    if len(initials) != 1:
        raise WellFormednessError(f"a process needs exactly one Initial node, found {len(initials)}")
    if not finals:
        raise WellFormednessError("a process needs at least one Final node")

    known = set(ids)
    for a, b in p.control_edges:
        if a not in known or b not in known:
            raise WellFormednessError(f"control edge references unknown node: {a} -> {b}")

    out_deg = Counter(a for a, _ in p.control_edges)
    in_deg = Counter(b for _, b in p.control_edges)
    succ: dict[str, list[str]] = {}
    for a, b in p.control_edges:
        succ.setdefault(a, []).append(b)
    for node in p.nodes:
        if node.kind == NodeKind.FORK and out_deg[node.id] < 2:
            raise WellFormednessError(f"fork '{node.id}' needs out-degree >= 2")
        if node.kind == NodeKind.JOIN and in_deg[node.id] < 2:
            raise WellFormednessError(f"join '{node.id}' needs in-degree >= 2")

    reachable = {initials[0].id}
    frontier = [initials[0].id]
    while frontier:
        current = frontier.pop()
        for nxt in succ.get(current, ()):
            if nxt not in reachable:
                reachable.add(nxt)
                frontier.append(nxt)
    unreachable = known - reachable
    if unreachable:
        raise WellFormednessError(f"nodes unreachable from Initial: {', '.join(sorted(unreachable))}")

    actions = {n.id: n for n in p.actions()}
    for node in actions.values():
        for side in (node.input_pins, node.output_pins):
            names = [pin.name for pin in side]
            if len(set(names)) != len(names):
                raise WellFormednessError(f"action '{node.id}' has duplicate pin names")
    fed: set[tuple[str, str]] = set()
    for edge in p.object_edges:
        src = actions.get(edge.from_node)
        dst = actions.get(edge.to_node)
        if src is None or dst is None:
            raise WellFormednessError(f"object edge references a non-action node: {edge.from_node} -> {edge.to_node}")
        if all(pin.name != edge.from_pin for pin in src.output_pins):
            raise WellFormednessError(f"action '{src.id}' has no output pin '{edge.from_pin}'")
        if all(pin.name != edge.to_pin for pin in dst.input_pins):
            raise WellFormednessError(f"action '{dst.id}' has no input pin '{edge.to_pin}'")
        if (edge.to_node, edge.to_pin) in fed:
            raise WellFormednessError(f"input pin '{edge.to_node}.{edge.to_pin}' is fed by more than one edge")
        fed.add((edge.to_node, edge.to_pin))


# ---------------------------------------------------------------------------
# Scheduling
# ---------------------------------------------------------------------------

def _action_precedence(p: ProcessModel) -> dict[str, set[str]]:
    """Direct predecessors of each action via control (through non-action
    nodes) and object flow."""
    succ: dict[str, list[str]] = {}
    for a, b in p.control_edges:
        succ.setdefault(a, []).append(b)
    action_ids = {n.id for n in p.actions()}
    preds: dict[str, set[str]] = {aid: set() for aid in action_ids}

    for aid in action_ids:
        # Walk forward from the action through non-action nodes.
        seen: set[str] = set()
        frontier = list(succ.get(aid, ()))
        while frontier:
            current = frontier.pop()
            if current in seen:
                continue
            seen.add(current)
            if current in action_ids:
                preds[current].add(aid)
            else:
                frontier.extend(succ.get(current, ()))

    for edge in p.object_edges:
        preds[edge.to_node].add(edge.from_node)
    return preds


def schedule(p: ProcessModel) -> ExecutionPlan:
    """Kahn layering of the actions into stages, as the module docstring states."""
    preds = _action_precedence(p)
    succs: dict[str, list[str]] = {aid: [] for aid in preds}
    for aid, before in preds.items():
        for prev in before:
            succs[prev].append(aid)
    waiting = {aid: len(before) for aid, before in preds.items()}
    stages: list[tuple[str, ...]] = []
    ready = [aid for aid, count in waiting.items() if count == 0]
    while ready:
        stages.append(tuple(sorted(ready)))
        for aid in ready:
            del waiting[aid]
            for nxt in succs[aid]:
                waiting[nxt] -= 1
        ready = {nxt for aid in ready for nxt in succs[aid] if waiting[nxt] == 0}
    if waiting:
        trail = [min(waiting)]
        while (prev := min(preds[trail[-1]] & waiting.keys())) not in trail:
            trail.append(prev)
        raise CycleError(trail[trail.index(prev):] + [prev])
    return ExecutionPlan(tuple(stages))


# ---------------------------------------------------------------------------
# Enactment
# ---------------------------------------------------------------------------

def enact(
    p: ProcessModel,
    mgm: Megamodel,
    bindings: dict[str, str],
    root: Path,
    *,
    augment: bool = True,
    action_order: Callable[[list[str]], list[str]] | None = None,
) -> EnactmentResult:
    """Run every action in stage order; outputs do not depend on the order
    actions execute within a stage.

    ``bindings`` maps pin names to model URIs for input pins that no object
    edge feeds. ``action_order`` reorders execution within a stage (used to
    demonstrate order independence); registration stays in sorted order.
    """
    plan = schedule(p)
    metamodels, mm_resource_ids = load_metamodels(mgm, root)

    actions = {n.id: n for n in p.actions()}
    # Every input pin's model URI: the feeding output pin's, else its binding.
    pin_inputs = {(e.to_node, e.to_pin): _output_uri(e.from_node, e.from_pin) for e in p.object_edges}
    for action in sorted(actions.values(), key=lambda n: n.id):
        for pin in (*action.input_pins, *action.output_pins):
            if pin.metamodel not in metamodels:
                raise WellFormednessError(
                    f"action '{action.id}': pin '{pin.name}' names unknown metamodel '{pin.metamodel}'")
        for pin in action.input_pins:
            if (action.id, pin.name) not in pin_inputs:
                if pin.name not in bindings:
                    raise MissingBinding(f"{action.id}.{pin.name}")
                pin_inputs[(action.id, pin.name)] = bindings[pin.name]
        if action.transformation is None or mgm.resource(action.transformation) is None:
            raise TransformationError("transformation is not registered in the megamodel", action.id)

    # Pre-assign execution stamps in deterministic (stage, action id) order.
    stamps = {aid: n for n, aid in enumerate((aid for stage in plan.stages for aid in stage), start=1)}

    # Models by URI: inputs as parsed, M2M outputs as produced in memory.
    model_cache: dict[str, Model] = {}

    def load_model(uri: str, mm_name: str, action_id: str) -> Model:
        if uri not in model_cache:
            model_cache[uri] = parse_model(read_text(root, uri), metamodels[mm_name], uri=uri)
        model = model_cache[uri]
        if model.metamodel_name != mm_name:
            raise ConformanceError("root", f"model '{uri}' conforms to '{model.metamodel_name}', "
                                           f"pin of action '{action_id}' needs '{mm_name}'")
        ensure_conforms(model, metamodels[mm_name])
        return model

    registrations: list[tuple[ResourceEntry, list[Relation]]] = []
    traces: list[LocalTraceModel] = []
    log: list[str] = []

    for stage_index, stage in enumerate(plan.stages, start=1):
        order = list(stage)
        if action_order is not None:
            order = action_order(order)
            if sorted(order) != sorted(stage):
                raise TracelinkError("action_order must permute the stage")
        # Deltas keyed by action id; collected in sorted order after the stage.
        deltas: dict[str, tuple[list[tuple[ResourceEntry, list[Relation]]], LocalTraceModel | None, str]] = {}

        for aid in order:
            action = actions[aid]
            tr_res = mgm.resource(action.transformation)
            try:
                if tr_res.kind == ResourceKind.TRANSFORMATION_M2M:
                    kind = ResourceKind.MODEL
                    out_uri, trace = _run_m2m_action(
                        action, tr_res, root, metamodels, pin_inputs,
                        load_model, model_cache, stamps[aid], augment)
                elif tr_res.kind == ResourceKind.TRANSFORMATION_M2C:
                    kind = ResourceKind.GENERATED_FILE
                    out_uri, trace = _run_m2c_action(
                        action, tr_res, root, metamodels, pin_inputs, load_model, stamps[aid], augment)
                else:
                    raise TransformationError(f"resource '{tr_res.id}' is not a transformation", aid)
            except (MissingBinding, ConformanceError, TransformationError):
                raise
            except TracelinkError as exc:
                raise TransformationError(str(exc), aid) from exc

            # Register the output, fed by every input pin, and its trace.
            produced_by = f"{tr_res.id}#{stamps[aid]}"
            out_id = resource_id(kind, out_uri)
            relations = [Relation(tr_res.id, out_id, RelationKind.DATA_FLOW, FlowDirection.OUTPUT)]
            for pin in action.input_pins:
                in_id = resource_id(ResourceKind.MODEL, pin_inputs[(aid, pin.name)])
                relations.append(Relation(in_id, tr_res.id, RelationKind.DATA_FLOW, FlowDirection.INPUT))
            if kind == ResourceKind.MODEL:
                mm_id = mm_resource_ids[action.output_pins[0].metamodel]
                relations.append(Relation(out_id, mm_id, RelationKind.CONFORMS_TO))
            outputs = [(ResourceEntry(out_id, kind, out_uri, ResourceOrigin.GENERATED,
                                      produced_by=produced_by), relations)]
            line = f"{aid}: {tr_res.uri} -> {out_uri}"
            if trace is not None:
                trace_uri = f"{TRACE_DIR}/{aid}.trace.json"
                write_text(root, trace_uri, save_trace(trace))
                trace_id = resource_id(ResourceKind.TRACE_MODEL, trace_uri)
                outputs.append((
                    ResourceEntry(trace_id, ResourceKind.TRACE_MODEL, trace_uri, ResourceOrigin.GENERATED,
                                  produced_by=produced_by),
                    [Relation(trace_id, tr_res.id, RelationKind.TRACE_FOR)],
                ))
                line += f" (trace {trace_uri})"
            deltas[aid] = outputs, trace, line

        for aid in stage:
            outputs, trace, line = deltas[aid]
            registrations += outputs
            if trace is not None:
                traces.append(trace)
            log.append(f"[stage {stage_index}] {line}")

    registered = register_all(mgm, registrations)
    validate(registered)  # register_all trusts the registry it was given
    artifacts = tuple(entry for entry, _ in registrations)
    return EnactmentResult(registered, artifacts, tuple(traces), tuple(log), plan)


def _output_uri(action_id: str, pin_name: str) -> str:
    return f"{OUTPUT_DIR}/{action_id}/{pin_name}.model.json"


def _run_m2m_action(action, tr_res, root, metamodels, pin_inputs, load_model, model_cache, stamp, augment):
    """Run one M2M action and write its output model; return the output's
    uri and the trace, if augmented."""
    transformation = m2m.parse_m2m(read_text(root, tr_res.uri), metamodels)
    if augment:
        transformation = m2m.augment_m2m(transformation)

    declared = dict(transformation.inputs)
    inputs: dict[str, Model] = {}
    for pin in action.input_pins:
        if pin.name not in declared:
            raise TransformationError(
                f"pin '{pin.name}' matches no input alias of '{tr_res.uri}'", action.id)
        if declared[pin.name] != pin.metamodel:
            raise TransformationError(
                f"pin '{pin.name}' carries '{pin.metamodel}' but the transformation expects "
                f"'{declared[pin.name]}'", action.id)
        inputs[pin.name] = load_model(pin_inputs[(action.id, pin.name)], pin.metamodel, action.id)
    if set(inputs) != set(declared):
        missing = sorted(set(declared) - set(inputs))
        raise TransformationError(f"no pins feed input aliases: {', '.join(missing)}", action.id)
    if len(action.output_pins) != 1:
        raise TransformationError("an M2M action needs exactly one output pin", action.id)
    out_pin = action.output_pins[0]
    if transformation.output[1] != out_pin.metamodel:
        raise TransformationError(
            f"output pin carries '{out_pin.metamodel}' but the transformation produces "
            f"'{transformation.output[1]}'", action.id)

    out_uri = _output_uri(action.id, out_pin.name)
    if augment:
        out_model, trace = m2m.execute_augmented_m2m(
            transformation, inputs, metamodels, out_uri,
            trace_id=f"trace:{action.id}", transformation_id=tr_res.id, execution_stamp=stamp)
    else:
        out_model = m2m.execute_m2m(transformation, inputs, metamodels, out_uri)
        trace = None
    write_text(root, out_uri, serialize_model(out_model))
    model_cache[out_uri] = out_model  # later stages read it from memory
    return out_uri, trace


def _run_m2c_action(action, tr_res, root, metamodels, pin_inputs, load_model, stamp, augment):
    """Run one M2C action and write its file (and, if augmented, the
    annotated sidecar); return the file's uri and the trace."""
    template = m2c.parse_template(read_text(root, tr_res.uri), metamodels)
    if len(action.input_pins) != 1:
        raise TransformationError("an M2C action needs exactly one input pin", action.id)
    pin = action.input_pins[0]
    if template.metamodel.name != pin.metamodel:
        raise TransformationError(
            f"pin '{pin.name}' carries '{pin.metamodel}' but the template expects "
            f"'{template.metamodel.name}'", action.id)
    if action.output_pins:
        raise TransformationError("an M2C action writes files, not model pins", action.id)
    in_uri = pin_inputs[(action.id, pin.name)]
    model = load_model(in_uri, pin.metamodel, action.id)

    clean_uri = f"{OUTPUT_DIR}/{action.id}/{template.name}"
    trace = None
    if augment:
        augmented = m2c.augment_template(template)
        annotated = m2c.render_augmented(augmented, model)
        clean, trace = m2c.extract_trace(
            annotated, in_uri, clean_uri,
            trace_id=f"trace:{action.id}", transformation_id=tr_res.id, execution_stamp=stamp)
        write_text(root, clean_uri + ".annotated", annotated.text)
    else:
        clean = m2c.render(template, model)
    write_text(root, clean_uri, clean)
    return clean_uri, trace
