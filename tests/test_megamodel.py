import json

import pytest

from tracelink.errors import AmbiguousMetamodel, DanglingRelation, DuplicateId, IntegrityError
from tracelink.megamodel import (
    _check_dataflow_acyclic,
    FlowDirection,
    Megamodel,
    Relation,
    RelationKind,
    ResourceEntry,
    ResourceKind,
    ResourceOrigin,
    discover,
    load_megamodel,
    megamodel_dot,
    register,
    register_all,
    resource_id,
    save_megamodel,
)
from tracelink.process import enact, parse_process
from tracelink.workspace import OUTPUT_DIR, TRACE_DIR, read_text

from conftest import BINDINGS, PROCESS_URI, run_enactment


def trace_entry(uri="traces/t.trace.json"):
    return ResourceEntry(resource_id(ResourceKind.TRACE_MODEL, uri), ResourceKind.TRACE_MODEL,
                         uri, ResourceOrigin.GENERATED, produced_by="TransformationM2M:x.m2m#1")


def m2m_entry(uri="x.m2m"):
    return ResourceEntry(resource_id(ResourceKind.TRANSFORMATION_M2M, uri),
                         ResourceKind.TRANSFORMATION_M2M, uri, ResourceOrigin.DISCOVERED)


# -- discovery -----------------------------------------------------------------

def test_discover_empty_directory(tmp_path):
    mgm = discover(tmp_path)
    assert mgm.resources == frozenset()
    assert mgm.relations == frozenset()


def test_discover_missing_directory(tmp_path):
    with pytest.raises(OSError):
        discover(tmp_path / "nope")


def test_discover_bundled_workspace_counts(workspace):
    mgm = discover(workspace)
    counts = {kind: len(mgm.of_kind(kind)) for kind in ResourceKind}
    assert counts[ResourceKind.METAMODEL] == 2
    assert counts[ResourceKind.MODEL] == 1
    assert counts[ResourceKind.TRANSFORMATION_M2M] == 4
    assert counts[ResourceKind.TRANSFORMATION_M2C] == 4
    assert counts[ResourceKind.PROCESS_MODEL] == 1
    assert len(mgm.resources) == 12
    conforms = [rel for rel in mgm.relations if rel.kind == RelationKind.CONFORMS_TO]
    assert len(conforms) == 1
    assert conforms[0].from_id == "Model:Input.pim.model.json"
    assert conforms[0].to_id == "Metamodel:PIMM.mm.json"
    assert sum(rel.kind == RelationKind.WEAVE_BINDING for rel in mgm.relations) == 8


def test_discover_is_idempotent(workspace):
    assert discover(workspace) == discover(workspace)


def test_discover_orders_resources_by_uri(workspace):
    mgm = discover(workspace)
    uris = [r.uri for r in mgm.of_kind(ResourceKind.TRANSFORMATION_M2M)]
    assert uris == sorted(uris)


def test_duplicate_metamodel_name_aborts(workspace):
    clone = (workspace / "PIMM.mm.json").read_text()
    (workspace / "PIMM-copy.mm.json").write_text(clone)
    with pytest.raises(AmbiguousMetamodel, match="PIMM"):
        discover(workspace)


def test_discover_skips_output_and_trace_dirs(workspace):
    mgm_before = discover(workspace)
    (workspace / "out").mkdir()
    (workspace / "out" / "stray.model.json").write_text('{"metamodel": "PIMM", "root": {"class": "Device"}}')
    (workspace / "traces").mkdir()
    (workspace / "traces" / "stray.trace.json").write_text("{}")
    assert discover(workspace) == mgm_before


# -- registration ----------------------------------------------------------------

def test_register_adds_trace_with_trace_for():
    base = register(Megamodel(), m2m_entry())
    entry = trace_entry()
    updated = register(base, entry, [Relation(entry.id, m2m_entry().id, RelationKind.TRACE_FOR)])
    assert entry in updated.resources
    assert any(r.kind == RelationKind.TRACE_FOR for r in updated.relations)
    # prior value untouched
    assert entry not in base.resources
    assert base.resources < updated.resources


def test_register_duplicate_id_rejected():
    base = register(Megamodel(), m2m_entry())
    with pytest.raises(DuplicateId):
        register(base, m2m_entry())


def test_register_dangling_relation_rejected():
    entry = trace_entry()
    with pytest.raises(DanglingRelation):
        register(Megamodel(), entry, [Relation(entry.id, "TransformationM2M:ghost.m2m", RelationKind.TRACE_FOR)])


def model_entry(uri="a.model.json"):
    return ResourceEntry(resource_id(ResourceKind.MODEL, uri), ResourceKind.MODEL, uri,
                         ResourceOrigin.DISCOVERED)


def test_register_rejects_a_dataflow_cycle():
    base = register(register(Megamodel(), m2m_entry()), model_entry())
    into = Relation(model_entry().id, m2m_entry().id, RelationKind.DATA_FLOW, FlowDirection.INPUT)
    back = Relation(m2m_entry().id, model_entry().id, RelationKind.DATA_FLOW, FlowDirection.OUTPUT)
    with pytest.raises(IntegrityError, match="cycle"):
        register(base, trace_entry(), [into, back])
    # The cycle may also close over a relation registered earlier.
    with_input = register(base, trace_entry(), [into])
    with pytest.raises(IntegrityError, match="cycle"):
        register(with_input, model_entry("b.model.json"), [back])


def test_register_checks_the_new_entry_and_relations():
    base = register(register(Megamodel(), m2m_entry()), model_entry())
    with pytest.raises(IntegrityError, match="producer"):
        register(base, ResourceEntry("Model:g", ResourceKind.MODEL, "g", ResourceOrigin.GENERATED))
    with pytest.raises(IntegrityError, match="ConformsTo"):
        register(base, trace_entry(), [Relation(model_entry().id, m2m_entry().id, RelationKind.CONFORMS_TO)])


def test_register_all_checks_each_entry_against_those_before_it():
    into = Relation(model_entry().id, m2m_entry().id, RelationKind.DATA_FLOW, FlowDirection.INPUT)
    back = Relation(m2m_entry().id, model_entry().id, RelationKind.DATA_FLOW, FlowDirection.OUTPUT)
    batch = register_all(Megamodel(), [(m2m_entry(), []), (model_entry(), [into])])
    assert batch == register(register(Megamodel(), m2m_entry()), model_entry(), [into])
    fresh = Megamodel(batch.resources, batch.relations)
    assert (batch.by_id, batch.dataflow) == (fresh.by_id, fresh.dataflow)
    with pytest.raises(DanglingRelation):  # a relation may name only earlier entries
        register_all(Megamodel(), [(model_entry(), [into]), (m2m_entry(), [])])
    with pytest.raises(DuplicateId):
        register_all(Megamodel(), [(m2m_entry(), []), (m2m_entry(), [])])
    with pytest.raises(IntegrityError, match="cycle"):
        register_all(Megamodel(), [(m2m_entry(), []), (model_entry(), [into]), (trace_entry(), [back])])


def test_enactment_validates_the_registry_it_returns(workspace):
    mgm = discover(workspace)
    stray = ResourceEntry("Model:stray", ResourceKind.MODEL, "stray", ResourceOrigin.GENERATED)
    process = parse_process(read_text(workspace, PROCESS_URI))
    with pytest.raises(IntegrityError, match="producer"):
        enact(process, Megamodel(mgm.resources | {stray}, mgm.relations), dict(BINDINGS), workspace)
    assert not [*workspace.glob(f"{OUTPUT_DIR}/**/*"), *workspace.glob(f"{TRACE_DIR}/**/*")]  # nothing written


def test_registered_indexes_match_a_fresh_build(workspace):
    _, result = run_enactment(workspace)
    mgm = result.megamodel
    fresh = Megamodel(mgm.resources, mgm.relations)
    assert mgm.by_id == fresh.by_id
    assert {k: sorted(v) for k, v in mgm.dataflow.items()} == {k: sorted(v) for k, v in fresh.dataflow.items()}
    assert mgm == fresh and hash(mgm) == hash(fresh) and repr(mgm) == repr(fresh)


# -- persistence -----------------------------------------------------------------

def test_empty_round_trip():
    assert load_megamodel(save_megamodel(Megamodel())) == Megamodel()


def test_discovered_round_trip(workspace):
    mgm = discover(workspace)
    assert load_megamodel(save_megamodel(mgm)) == mgm


def test_post_enactment_round_trip_and_structure(workspace):
    _, result = run_enactment(workspace)
    mgm = result.megamodel
    assert load_megamodel(save_megamodel(mgm)) == mgm
    generated_models = [r for r in mgm.of_kind(ResourceKind.MODEL) if r.origin == ResourceOrigin.GENERATED]
    assert len(generated_models) == 4
    assert len(mgm.of_kind(ResourceKind.GENERATED_FILE)) == 4
    traces = mgm.of_kind(ResourceKind.TRACE_MODEL)
    assert len(traces) == 8
    trace_for = [rel for rel in mgm.relations if rel.kind == RelationKind.TRACE_FOR]
    assert sorted(r.from_id for r in trace_for) == sorted(r.id for r in traces)
    # every trace has exactly one TraceFor
    assert len(trace_for) == 8


def test_relation_to_missing_id_rejected():
    text = json.dumps({
        "resources": [{"id": "Model:a", "kind": "Model", "origin": "Discovered", "uri": "a"}],
        "relations": [{"from": "Model:a", "kind": "ConformsTo", "to": "Metamodel:missing"}],
    })
    with pytest.raises(IntegrityError):
        load_megamodel(text)


def test_kind_constraints_enforced():
    text = json.dumps({
        "resources": [
            {"id": "Model:a", "kind": "Model", "origin": "Discovered", "uri": "a"},
            {"id": "Model:b", "kind": "Model", "origin": "Discovered", "uri": "b"},
        ],
        "relations": [{"from": "Model:a", "kind": "ConformsTo", "to": "Model:b"}],
    })
    with pytest.raises(IntegrityError):
        load_megamodel(text)


def test_generated_resource_needs_producer():
    text = json.dumps({
        "resources": [{"id": "Model:a", "kind": "Model", "origin": "Generated", "uri": "a"}],
        "relations": [],
    })
    with pytest.raises(IntegrityError):
        load_megamodel(text)


def test_dataflow_cycle_rejected():
    text = json.dumps({
        "resources": [
            {"id": "Model:a", "kind": "Model", "origin": "Discovered", "uri": "a"},
            {"id": "TransformationM2M:t", "kind": "TransformationM2M", "origin": "Discovered", "uri": "t"},
        ],
        "relations": [
            {"from": "Model:a", "kind": "DataFlow", "to": "TransformationM2M:t", "direction": "Input"},
            {"from": "TransformationM2M:t", "kind": "DataFlow", "to": "Model:a", "direction": "Output"},
        ],
    })
    with pytest.raises(IntegrityError, match="cycle"):
        load_megamodel(text)


def test_a_dataflow_chain_of_any_depth_is_acyclic():
    # Head first, so the search goes 3,000 hops deep from its first start node.
    hops = 3000
    _check_dataflow_acyclic({f"Model:m{n}": (f"Model:m{n + 1}",) for n in range(hops)})


def test_dataflow_needs_direction():
    text = json.dumps({
        "resources": [
            {"id": "Model:a", "kind": "Model", "origin": "Discovered", "uri": "a"},
            {"id": "TransformationM2M:t", "kind": "TransformationM2M", "origin": "Discovered", "uri": "t"},
        ],
        "relations": [{"from": "Model:a", "kind": "DataFlow", "to": "TransformationM2M:t"}],
    })
    with pytest.raises(IntegrityError, match="direction"):
        load_megamodel(text)


def test_save_is_deterministic(workspace):
    mgm = discover(workspace)
    assert save_megamodel(mgm) == save_megamodel(load_megamodel(save_megamodel(mgm)))


# -- dot -------------------------------------------------------------------------

def test_megamodel_dot_legend_shapes(workspace):
    _, result = run_enactment(workspace)
    dot = megamodel_dot(result.megamodel)
    assert dot.startswith("digraph megamodel {")
    assert "shape=hexagon" in dot       # models
    assert "shape=trapezium" in dot     # metamodels
    assert "shape=parallelogram" in dot  # transformations
    assert "style=dashed color=purple" in dot  # conformance links
    assert dot.count("->") == len(result.megamodel.relations)
