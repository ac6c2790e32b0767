import json
import sys

import pytest

from tracelink import model as model_module
from tracelink.errors import (
    ConformanceError,
    CycleError,
    MissingBinding,
    ParseError,
    TracelinkError,
    TransformationError,
    WellFormednessError,
)
from tracelink.megamodel import ResourceKind, ResourceOrigin, discover
from tracelink.model import canonical_json
from tracelink.process import NodeKind, enact, parse_process, schedule
from tracelink.trace import load_trace
from tracelink.workspace import read_text

from conftest import BINDINGS, INPUT_URI, NODE_KIDS_MM, PROCESS_URI, chain_document, run_enactment


def proc_json(nodes, control, objects=()):
    return json.dumps({
        "name": "p",
        "nodes": nodes,
        "controlEdges": control,
        "objectEdges": list(objects),
    })


def action(node_id, tr="TransformationM2M:x.m2m", inputs=(), outputs=()):
    return {
        "id": node_id, "kind": "Action", "transformation": tr,
        "inputPins": [{"name": n, "metamodel": m} for n, m in inputs],
        "outputPins": [{"name": n, "metamodel": m} for n, m in outputs],
    }


LINEAR = proc_json(
    [{"id": "i", "kind": "Initial"}, action("A"), {"id": "f", "kind": "Final"}],
    [["i", "A"], ["A", "f"]],
)


# -- parsing and well-formedness -------------------------------------------------

def test_minimal_process_parses():
    p = parse_process(LINEAR)
    assert len(p.nodes) == 3
    assert {n.id: n.kind for n in p.nodes}["A"] == NodeKind.ACTION


PIPED = {
    "name": "p",
    "nodes": [
        {"id": "i", "kind": "Initial"},
        action("A", inputs=[("x", "MM")], outputs=[("y", "MM")]),
        action("B", inputs=[("y", "MM")]),
        {"id": "f", "kind": "Final"},
    ],
    "controlEdges": [["i", "A"], ["A", "B"], ["B", "f"]],
    "objectEdges": [{"from": "A", "fromPin": "y", "to": "B", "toPin": "y"}],
}


def test_piped_process_parses():
    assert len(parse_process(json.dumps(PIPED)).object_edges) == 1


@pytest.mark.parametrize("side, field", [
    ("inputPins", "name"), ("inputPins", "metamodel"), ("outputPins", "name"), ("outputPins", "metamodel"),
])
def test_pin_missing_field_is_a_parse_error_naming_the_node(side, field):
    doc = json.loads(json.dumps(PIPED))
    del doc["nodes"][1][side][0][field]
    with pytest.raises(ParseError, match=f"node 'A'.*'{field}'"):
        parse_process(json.dumps(doc))


@pytest.mark.parametrize("field", ["from", "fromPin", "to", "toPin"])
def test_object_edge_missing_field_is_a_parse_error_naming_the_edge(field):
    doc = json.loads(json.dumps(PIPED))
    del doc["objectEdges"][0][field]
    with pytest.raises(ParseError, match=f"object edge 0 needs a string '{field}'"):
        parse_process(json.dumps(doc))


@pytest.mark.parametrize("entry", [[], ["A"], "AB", ["A", 1]])
def test_malformed_control_edge_is_a_parse_error_naming_the_edge(entry):
    doc = json.loads(json.dumps(PIPED))
    doc["controlEdges"][1] = entry
    with pytest.raises(ParseError, match="control edge 1 needs two node ids"):
        parse_process(json.dumps(doc))


def test_process_without_initial_rejected():
    text = proc_json([action("A"), {"id": "f", "kind": "Final"}], [["A", "f"]])
    with pytest.raises(WellFormednessError, match="Initial"):
        parse_process(text)


def test_process_with_two_initials_rejected():
    text = proc_json(
        [{"id": "i1", "kind": "Initial"}, {"id": "i2", "kind": "Initial"},
         action("A"), {"id": "f", "kind": "Final"}],
        [["i1", "A"], ["i2", "A"], ["A", "f"]])
    with pytest.raises(WellFormednessError, match="Initial"):
        parse_process(text)


def test_fork_needs_two_successors():
    text = proc_json(
        [{"id": "i", "kind": "Initial"}, {"id": "fork", "kind": "Fork"},
         action("A"), {"id": "f", "kind": "Final"}],
        [["i", "fork"], ["fork", "A"], ["A", "f"]])
    with pytest.raises(WellFormednessError, match="fork"):
        parse_process(text)


def test_unreachable_node_rejected():
    text = proc_json(
        [{"id": "i", "kind": "Initial"}, action("A"), action("B"), {"id": "f", "kind": "Final"}],
        [["i", "A"], ["A", "f"]])
    with pytest.raises(WellFormednessError, match="B"):
        parse_process(text)


def test_doubly_fed_pin_rejected():
    text = proc_json(
        [{"id": "i", "kind": "Initial"},
         action("A", outputs=[("o", "PSMM")]), action("B", outputs=[("o", "PSMM")]),
         action("C", inputs=[("x", "PSMM")]), {"id": "f", "kind": "Final"}],
        [["i", "A"], ["A", "B"], ["B", "C"], ["C", "f"]],
        [{"from": "A", "fromPin": "o", "to": "C", "toPin": "x"},
         {"from": "B", "fromPin": "o", "to": "C", "toPin": "x"}])
    with pytest.raises(WellFormednessError, match="more than one"):
        parse_process(text)


def test_object_edge_unknown_pin_rejected():
    text = proc_json(
        [{"id": "i", "kind": "Initial"}, action("A", outputs=[("o", "PSMM")]),
         action("B", inputs=[("x", "PSMM")]), {"id": "f", "kind": "Final"}],
        [["i", "A"], ["A", "B"], ["B", "f"]],
        [{"from": "A", "fromPin": "nope", "to": "B", "toPin": "x"}])
    with pytest.raises(WellFormednessError, match="nope"):
        parse_process(text)


def test_bundled_process_shape(workspace):
    p = parse_process(read_text(workspace, PROCESS_URI))
    assert len(p.nodes) == 12
    assert len(p.actions()) == 8
    assert len(p.object_edges) == 4


# -- scheduling -------------------------------------------------------------------

def test_linear_schedule():
    text = proc_json(
        [{"id": "i", "kind": "Initial"}, action("A"), action("B"), {"id": "f", "kind": "Final"}],
        [["i", "A"], ["A", "B"], ["B", "f"]])
    assert schedule(parse_process(text)).stages == (("A",), ("B",))


def test_bundled_schedule_two_parallel_stages(workspace):
    p = parse_process(read_text(workspace, PROCESS_URI))
    plan = schedule(p)
    assert plan.stages == (
        ("MapArduino", "MapContiki", "MapDataCollector", "MapRIOT"),
        ("GenArduino", "GenContiki", "GenGateway", "GenRIOT"),
    )


def test_object_edge_against_control_flow_is_a_cycle():
    text = proc_json(
        [{"id": "i", "kind": "Initial"},
         action("A", inputs=[("x", "PSMM")], outputs=[("ao", "PSMM")]),
         action("B", inputs=[("bi", "PSMM")], outputs=[("o", "PSMM")]),
         {"id": "f", "kind": "Final"}],
        [["i", "A"], ["A", "B"], ["B", "f"]],
        [{"from": "B", "fromPin": "o", "to": "A", "toPin": "x"}])
    with pytest.raises(CycleError) as exc:
        schedule(parse_process(text))
    assert set(exc.value.cycle) >= {"A", "B"}


def test_cycle_is_reported_from_the_first_action_the_walk_reaches_twice():
    # B -> C -> D -> B is a cycle and A waits on it; the walk starts at the
    # smallest action left, A, and follows smallest predecessors: A, D, C, B, D.
    text = proc_json(
        [{"id": "i", "kind": "Initial"}, *(action(x) for x in "ABCD"), {"id": "f", "kind": "Final"}],
        [["i", "B"], ["B", "C"], ["C", "D"], ["D", "B"], ["D", "A"], ["A", "f"]])
    with pytest.raises(CycleError) as exc:
        schedule(parse_process(text))
    assert exc.value.cycle == ["D", "C", "B", "D"]
    assert str(exc.value) == "precedence cycle: D -> C -> B -> D"


def test_a_thousand_chained_actions_run_one_per_stage():
    ids = [f"a{n:04}" for n in range(1000)]
    text = proc_json(
        [{"id": "i", "kind": "Initial"}, *(action(x) for x in ids), {"id": "f", "kind": "Final"}],
        [["i", ids[0]], *([a, b] for a, b in zip(ids, ids[1:])), [ids[-1], "f"]])
    assert schedule(parse_process(text)).stages == tuple((x,) for x in ids)


def test_fork_join_precedence_through_non_action_nodes(workspace):
    p = parse_process(read_text(workspace, PROCESS_URI))
    plan = schedule(p)
    # Gen actions wait for their Map both via control chain and object edge.
    assert plan.stages[1] == ("GenArduino", "GenContiki", "GenGateway", "GenRIOT")


# -- enactment ---------------------------------------------------------------------

IDENTITY_MM = {
    "name": "NodeMM",
    "classes": [{"name": "Node", "attributes": [{"name": "id", "type": "string"}]}],
}

IDENTITY_M2M = """
transformation Identity;
input m : NodeMM;
output o : NodeMM;
rule Copy { from s : NodeMM!Node to t : NodeMM!Node (id <- s.id) }
"""

IDENTITY_PROC = {
    "name": "identity",
    "nodes": [
        {"id": "i", "kind": "Initial"},
        {"id": "CopyIt", "kind": "Action", "transformation": "TransformationM2M:Identity.m2m",
         "inputPins": [{"name": "m", "metamodel": "NodeMM"}],
         "outputPins": [{"name": "o", "metamodel": "NodeMM"}]},
        {"id": "f", "kind": "Final"},
    ],
    "controlEdges": [["i", "CopyIt"], ["CopyIt", "f"]],
    "objectEdges": [],
}


@pytest.fixture
def identity_workspace(tmp_path):
    ws = tmp_path / "idws"
    ws.mkdir()
    (ws / "NodeMM.mm.json").write_text(canonical_json(IDENTITY_MM))
    (ws / "Identity.m2m").write_text(IDENTITY_M2M)
    (ws / "in.model.json").write_text(canonical_json(
        {"metamodel": "NodeMM", "root": {"class": "Node", "attrs": {"id": "n1"}}}))
    (ws / "identity.proc.json").write_text(canonical_json(IDENTITY_PROC))
    return ws


def test_single_action_identity_enactment(identity_workspace):
    ws = identity_workspace
    mgm = discover(ws)
    p = parse_process(read_text(ws, "identity.proc.json"))
    result = enact(p, mgm, {"m": "in.model.json"}, ws)
    out_text = read_text(ws, "out/CopyIt/o.model.json")
    assert out_text == read_text(ws, "in.model.json")
    traces = [r for r in result.megamodel.of_kind(ResourceKind.TRACE_MODEL)]
    assert len(traces) == 1
    trace = load_trace(read_text(ws, traces[0].uri))
    assert len(trace.links) == 1
    assert trace.links[0].tags == {"rule": "Copy"}


def test_bundled_enactment_counts(workspace):
    mgm, result = run_enactment(workspace)
    out = result.megamodel
    generated_models = [r for r in out.of_kind(ResourceKind.MODEL) if r.origin == ResourceOrigin.GENERATED]
    assert len(generated_models) == 4
    assert len(out.of_kind(ResourceKind.GENERATED_FILE)) == 4
    assert len(out.of_kind(ResourceKind.TRACE_MODEL)) == 8
    # no deletions: the starting megamodel is contained in the result
    assert mgm.resources <= out.resources
    assert mgm.relations <= out.relations
    assert len(result.traces) == 8
    stamps = [t.execution_stamp for t in result.traces]
    assert stamps == sorted(stamps) == list(range(1, 9))


def test_enactment_checks_each_model_once_and_never_searches_paths(workspace, monkeypatch):
    calls = {"check_conformance": [], "iter_elements": []}  # the uri of each call's model
    modules = [m for n, m in sys.modules.items() if n == "tracelink" or n.startswith("tracelink.")]
    for name in calls:
        original = getattr(model_module, name)

        def counted(model, *args, _original=original, _name=name):
            calls[_name].append(model.uri)
            return _original(model, *args)

        for module in modules:  # also where a module imported the name
            if getattr(module, name, None) is original:
                monkeypatch.setattr(module, name, counted)
    parsed, parse_model = [], model_module.parse_model  # (model, metamodel) of each parse_model call

    def parse(text, mm, uri=""):
        parsed.append((parse_model(text, mm, uri), mm))
        return parsed[-1][0]

    for module in modules:
        if getattr(module, "parse_model", None) is parse_model:
            monkeypatch.setattr(module, "parse_model", parse)
    _, result = run_enactment(workspace)
    # The PIM is checked in the walk that parses it; each M2M output conforms
    # by construction. Each model is walked once, into its element index: the
    # PIM by the first M2M action, each output where it is assembled, and
    # the M2C renders reuse the outputs' indexes from memory.
    assert calls["check_conformance"] == []
    assert [(m.uri, m.checked_against is mm) for m, mm in parsed] == [(INPUT_URI, True)]
    outputs = [r.uri for r in result.megamodel.of_kind(ResourceKind.MODEL) if r.origin == ResourceOrigin.GENERATED]
    assert sorted(calls["iter_elements"]) == sorted([INPUT_URI, *outputs]) and len(outputs) == 4


def test_missing_binding_names_action_and_pin(workspace):
    mgm = discover(workspace)
    p = parse_process(read_text(workspace, PROCESS_URI))
    with pytest.raises(MissingBinding, match="MapArduino.pim"):
        enact(p, mgm, {}, workspace)


def test_unregistered_transformation_names_action(identity_workspace):
    ws = identity_workspace
    (ws / "Identity.m2m").unlink()
    mgm = discover(ws)
    p = parse_process(read_text(ws, "identity.proc.json"))
    with pytest.raises(TransformationError, match="CopyIt"):
        enact(p, mgm, {"m": "in.model.json"}, ws)


def test_non_conforming_binding_rejected(workspace):
    # A model of the wrong metamodel fed to a PIMM pin.
    (workspace / "psm-shaped.model.json").write_text(canonical_json(
        {"metamodel": "PSMM", "root": {"class": "PsmModel", "attrs": {"name": "x", "platform": "y"}}}))
    mgm = discover(workspace)
    p = parse_process(read_text(workspace, PROCESS_URI))
    with pytest.raises(ConformanceError):
        enact(p, mgm, {"pim": "psm-shaped.model.json"}, workspace)


def test_engine_failures_are_wrapped_with_action_id(identity_workspace):
    ws = identity_workspace
    # Second guard-free rule for the same class: MatchAmbiguity inside the engine.
    (ws / "Identity.m2m").write_text(IDENTITY_M2M.replace(
        "rule Copy", 'rule Other { from s : NodeMM!Node to t : NodeMM!Node (id <- s.id) }\nrule Copy'))
    mgm = discover(ws)
    p = parse_process(read_text(ws, "identity.proc.json"))
    with pytest.raises(TransformationError, match="CopyIt"):
        enact(p, mgm, {"m": "in.model.json"}, ws)


DEEP_PROC = {
    "name": "deep",
    "nodes": [
        {"id": "i", "kind": "Initial"},
        {"id": "Copy", "kind": "Action", "transformation": "TransformationM2M:Copy.m2m",
         "inputPins": [{"name": "m", "metamodel": "DeepMM"}], "outputPins": [{"name": "o", "metamodel": "DeepMM"}]},
        {"id": "Show", "kind": "Action", "transformation": "TransformationM2C:Show.m2c",
         "inputPins": [{"name": "o", "metamodel": "DeepMM"}], "outputPins": []},
        {"id": "f", "kind": "Final"},
    ],
    "controlEdges": [["i", "Copy"], ["Copy", "Show"], ["Show", "f"]],
    "objectEdges": [{"from": "Copy", "fromPin": "o", "to": "Show", "toPin": "o"}],
}


def test_a_model_320_levels_deep_enacts_through_a_copy_and_a_loop(tmp_path):
    depth = 320
    ws = tmp_path / "deep"
    ws.mkdir()
    (ws / "DeepMM.mm.json").write_text(canonical_json(NODE_KIDS_MM))
    (ws / "in.model.json").write_text(chain_document(depth))
    (ws / "Copy.m2m").write_text("transformation Copy;\ninput m : DeepMM;\noutput o : DeepMM;\n"
                                 "rule Node { from s : DeepMM!Node to t : DeepMM!Node (id <- s.id, kids <- s.kids) }\n")
    (ws / "Show.m2c").write_text("[template show.txt (n : DeepMM!Node)][for (k : n.kids)]kid [k.id/]\n[/for][/template]")
    (ws / "deep.proc.json").write_text(canonical_json(DEEP_PROC))
    # In this process, under the test runner's frames: every reader and
    # writer on the way is linear in depth, and none depends on the stack.
    enact(parse_process(read_text(ws, "deep.proc.json")), discover(ws), {"m": "in.model.json"}, ws)
    assert read_text(ws, "out/Show/show.txt") == "kid n2\n"
    copy_trace, show_trace = (load_trace(read_text(ws, f"traces/{aid}.trace.json")) for aid in ("Copy", "Show"))
    chain = [".".join(["kids[0]"] * level) for level in range(1, depth)]
    assert [str(link.targets[0].path) for link in copy_trace.links] == [*chain, "root"]
    assert [str(link.sources[0].path) for link in show_trace.links] == ["kids[0]"]


OTHER_MM = {"name": "OtherMM", "classes": [{"name": "Other"}]}
PAIR_M2M = IDENTITY_M2M.replace("transformation Identity;", "transformation Pair;").replace(
    "output o", "input n : OtherMM;\noutput o")
SHOW_M2C = "[template show.txt (n : NodeMM!Node)]id [n.id/]\n[/template]"
NODE = (("m", "NodeMM"),)
# Action A runs ``tr`` with these pins, after ``files`` are written over the
# workspace; each case sets what differs from this working enactment.
WORKING = {"tr": "TransformationM2M:Identity.m2m", "inputs": NODE, "outputs": NODE, "files": {},
           "action_order": None}
M2C = {"tr": "TransformationM2C:Show.m2c", "outputs": ()}
# Case -> (changes to WORKING, the error's class, its message).
ENACTMENT_ERRORS = {
    "pin-matches-no-alias": ({"inputs": (("x", "NodeMM"),)}, TransformationError,
                             "action 'A': pin 'x' matches no input alias of 'Identity.m2m'"),
    "pin-carries-another-metamodel": ({"inputs": (("m", "OtherMM"),)}, TransformationError,
                                      "action 'A': pin 'm' carries 'OtherMM' but the transformation expects 'NodeMM'"),
    "alias-without-pin": ({"tr": "TransformationM2M:Pair.m2m"}, TransformationError,
                          "action 'A': no pins feed input aliases: n"),
    "m2m-without-output-pin": ({"outputs": ()}, TransformationError,
                               "action 'A': an M2M action needs exactly one output pin"),
    "output-pin-carries-another-metamodel": ({"outputs": (("o", "OtherMM"),)}, TransformationError,
                                             "action 'A': output pin carries 'OtherMM' but the transformation "
                                             "produces 'NodeMM'"),
    "m2c-without-input-pin": ({**M2C, "inputs": ()}, TransformationError,
                              "action 'A': an M2C action needs exactly one input pin"),
    "m2c-pin-carries-another-metamodel": ({**M2C, "inputs": (("m", "OtherMM"),)}, TransformationError,
                                          "action 'A': pin 'm' carries 'OtherMM' but the template expects 'NodeMM'"),
    "m2c-with-output-pin": ({**M2C, "outputs": NODE}, TransformationError,
                            "action 'A': an M2C action writes files, not model pins"),
    "model-of-another-metamodel": ({"tr": "TransformationM2M:Pair.m2m", "inputs": (*NODE, ("n", "OtherMM"))},
                                   ConformanceError, "root: model 'in.model.json' conforms to 'NodeMM', "
                                                     "pin of action 'A' needs 'OtherMM'"),
    "unknown-metamodel": ({"inputs": (("m", "NoMM"),)}, WellFormednessError,
                          "action 'A': pin 'm' names unknown metamodel 'NoMM'"),
    "unregistered": ({"tr": "TransformationM2M:Ghost.m2m"}, TransformationError,
                     "action 'A': transformation is not registered in the megamodel"),
    "not-a-transformation": ({"tr": "Metamodel:NodeMM.mm.json"}, TransformationError,
                             "action 'A': resource 'Metamodel:NodeMM.mm.json' is not a transformation"),
    "parse-error": ({**M2C, "files": {"Show.m2c": SHOW_M2C.replace("[/template]", "")}}, TransformationError,
                    "action 'A': Show.m2c: missing closing tag, expected one of ('/template',)"),
    "m2m-lexer": ({"files": {"Identity.m2m": "transformation Identity; @"}}, TransformationError,
                  "action 'A': Identity.m2m: unexpected character '@' (line 1, col 26)"),
    "action-order": ({"action_order": lambda order: order[1:]}, TracelinkError,
                     "action_order must permute the stage"),
}


@pytest.mark.parametrize("case", ENACTMENT_ERRORS)
def test_enactment_errors_name_their_cause(identity_workspace, case):
    changes, error, message = ENACTMENT_ERRORS[case]
    run = {**WORKING, **changes}
    ws = identity_workspace
    (ws / "OtherMM.mm.json").write_text(canonical_json(OTHER_MM))
    (ws / "Pair.m2m").write_text(PAIR_M2M)
    (ws / "Show.m2c").write_text(SHOW_M2C)
    for name, text in run["files"].items():
        (ws / name).write_text(text)
    nodes = [{"id": "i", "kind": "Initial"}, action("A", run["tr"], run["inputs"], run["outputs"]),
             {"id": "f", "kind": "Final"}]
    p = parse_process(proc_json(nodes, [["i", "A"], ["A", "f"]]))
    with pytest.raises(error) as caught:
        enact(p, discover(ws), {pin: "in.model.json" for pin in "mnx"}, ws, action_order=run["action_order"])
    assert (caught.type, str(caught.value)) == (error, message)


def _tree_bytes(root):
    out = {}
    for path in sorted(root.rglob("*")):
        if path.is_file():
            out[path.relative_to(root).as_posix()] = path.read_bytes()
    return out


def test_within_stage_order_does_not_change_outputs(tmp_path):
    from conftest import copy_workspace

    ws1 = copy_workspace(tmp_path / "a")
    ws2 = copy_workspace(tmp_path / "b")
    _, r1 = run_enactment(ws1)
    _, r2 = run_enactment(ws2, action_order=lambda stage: list(reversed(stage)))
    from tracelink.megamodel import save_megamodel

    assert save_megamodel(r1.megamodel) == save_megamodel(r2.megamodel)
    assert _tree_bytes(ws1 / "out") == _tree_bytes(ws2 / "out")
    assert _tree_bytes(ws1 / "traces") == _tree_bytes(ws2 / "traces")
    assert r1.log == r2.log


def test_no_augment_skips_traces(workspace):
    mgm, result = run_enactment(workspace, augment=False)
    assert result.traces == ()
    assert result.megamodel.of_kind(ResourceKind.TRACE_MODEL) == []
    assert (workspace / "out/GenContiki/Sink.c").exists()
    assert not (workspace / "traces").exists()


def test_bare_enactment_of_augmented_transformations_writes_clean_outputs_only(tmp_path):
    from conftest import copy_workspace
    from tracelink import m2c, m2m

    written = []
    for augment in (False, True):
        ws = copy_workspace(tmp_path / str(augment))
        metamodels = {name: model_module.parse_metamodel((ws / f"{name}.mm.json").read_text(encoding="utf-8"))
                      for name in ("PIMM", "PSMM")}
        template = m2c.parse_template((ws / "GenContiki.m2c").read_text(encoding="utf-8"), metamodels)
        (ws / "GenContiki.m2c.aug.m2c").write_text(m2c.print_template(m2c.augment_template(template)))
        rules = m2m.parse_m2m((ws / "MapContiki.m2m").read_text(encoding="utf-8"), metamodels)
        (ws / "MapContiki.m2m.aug.m2m").write_text(m2m.print_m2m(m2m.augment_m2m(rules)))
        process = (ws / PROCESS_URI).read_text(encoding="utf-8")
        for name in ("GenContiki.m2c", "MapContiki.m2m"):
            assert process.count(f"{name}\"") == 1
            process = process.replace(f"{name}\"", f"{name}.aug.{name[-3:]}\"")
        (ws / PROCESS_URI).write_text(process, encoding="utf-8")
        _, result = run_enactment(ws, augment=augment)
        written.append((_tree_bytes(ws / "out"), result, ws))

    (bare, result, ws), (augmented, _, _) = written
    assert bare == {uri: data for uri, data in augmented.items() if not uri.endswith(".annotated")}
    assert not any(b"{{" in data for data in bare.values())
    assert b"{{" in augmented["GenContiki/Sink.c.annotated"]
    assert result.traces == () and result.megamodel.of_kind(ResourceKind.TRACE_MODEL) == []
    assert not (ws / "traces").exists()


def test_m2c_outputs_and_annotated_sidecars(workspace):
    run_enactment(workspace)
    for action_id, name in (("GenContiki", "Sink.c"), ("GenArduino", "Esp.ino"),
                            ("GenRIOT", "Riot.c"), ("GenGateway", "Gateway.java")):
        clean = workspace / "out" / action_id / name
        annotated = workspace / "out" / action_id / (name + ".annotated")
        assert clean.exists() and annotated.exists()
        stripped = annotated.read_text()
        for token in ("{{", "}}"):
            assert token not in clean.read_text()
        assert "{{" in stripped or clean.read_text() == stripped

