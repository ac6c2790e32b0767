import json

import pytest

from tracelink.errors import (
    ConformanceError,
    MatchAmbiguity,
    ParseError,
    SchemaError,
    UnknownClass,
    UnresolvedBinding,
)
from tracelink.m2m import (
    augment_m2m,
    execute_augmented_m2m,
    execute_m2m,
    is_augmented,
    parse_m2m,
    print_m2m,
    strip_m2m,
)
from tracelink.model import (
    Element,
    Model,
    iter_elements,
    parse_metamodel,
    parse_model,
    resolve_path,
    serialize_model,
)
from tracelink.paths import parse_path

from conftest import WORKSPACE_FIXTURE, source_path_key

AB_METAMODELS = {
    "MMA": parse_metamodel(
        '{"name": "MMA", "classes": [{"name": "Node", '
        '"attributes": [{"name": "id", "type": "string"}, {"name": "kind", "type": "string"}]}]}'),
    "MMB": parse_metamodel(
        '{"name": "MMB", "classes": [{"name": "Feature", '
        '"attributes": [{"name": "node_id", "type": "string"}]}]}'),
}

IDENTITY_RULE = """
transformation NodeToFeature;
input src : MMA;
output dst : MMB;
rule Node2Feature {
  from s : MMA!Node
  to t : MMB!Feature (node_id <- s.id)
}
"""


TREE_METAMODELS = {
    name: parse_metamodel(json.dumps({"name": name, "classes": [{
        "name": cls, "attributes": [{"name": "id", "type": "string"}],
        "collections": [{"class": cls, "name": c} for c in ("a", "x", "z")]}]}))
    for name, cls in (("MMA", "Node"), ("MMB", "Feature"))
}

TREE_RULE = """
transformation NodeTree;
input src : MMA;
output dst : MMB;
rule Node2Feature {
  from s : MMA!Node
  to t : MMB!Feature (id <- s.id, a <- s.a, x <- s.x, z <- s.z)
}
"""


def node_model(node_id="n1", kind="x"):
    return Model("in.model.json", "MMA", Element("Node", {"id": node_id, "kind": kind}))


@pytest.fixture(scope="module")
def workspace_metamodels():
    return {
        "PIMM": parse_metamodel((WORKSPACE_FIXTURE / "PIMM.mm.json").read_text()),
        "PSMM": parse_metamodel((WORKSPACE_FIXTURE / "PSMM.mm.json").read_text()),
    }


@pytest.fixture(scope="module")
def input_pim(workspace_metamodels):
    return parse_model((WORKSPACE_FIXTURE / "Input.pim.model.json").read_text(),
                       workspace_metamodels["PIMM"], uri="Input.pim.model.json")


def load_fixture_m2m(name, metamodels):
    return parse_m2m((WORKSPACE_FIXTURE / name).read_text(), metamodels)


# -- parsing -------------------------------------------------------------------

def test_minimal_rule_parses():
    t = parse_m2m(IDENTITY_RULE, AB_METAMODELS)
    assert t.name == "NodeToFeature"
    assert len(t.rules) == 1
    rule = t.rules[0]
    assert (rule.from_metamodel, rule.from_class) == ("MMA", "Node")
    assert rule.targets[0].class_name == "Feature"
    assert len(rule.targets[0].bindings) == 1


def test_unknown_class_rejected():
    with pytest.raises(UnknownClass, match="Ghost"):
        parse_m2m(IDENTITY_RULE.replace("MMA!Node", "MMA!Ghost"), AB_METAMODELS)


def test_unknown_feature_rejected():
    with pytest.raises(SchemaError, match="nope"):
        parse_m2m(IDENTITY_RULE.replace("s.id", "s.nope"), AB_METAMODELS)


def test_duplicate_rule_names_rejected():
    doubled = IDENTITY_RULE + IDENTITY_RULE.split("output dst : MMB;")[1]
    with pytest.raises(SchemaError, match="duplicate rule"):
        parse_m2m(doubled, AB_METAMODELS)


def test_syntax_error_carries_position():
    with pytest.raises(ParseError) as exc:
        parse_m2m("transformation X\ninput a : MMA;", AB_METAMODELS)
    assert exc.value.line == 2


def test_bundled_map_contiki_parses(workspace_metamodels):
    t = load_fixture_m2m("MapContiki.m2m", workspace_metamodels)
    assert len(t.rules) >= 3
    assert [r.name for r in t.rules] == ["Model", "Net", "Uplink", "Device2Platform"]


def test_print_parse_round_trip_on_fixtures(workspace_metamodels):
    for name in ("MapContiki.m2m", "MapArduino.m2m", "MapRIOT.m2m", "MapDataCollector.m2m"):
        t = load_fixture_m2m(name, workspace_metamodels)
        assert parse_m2m(print_m2m(t), workspace_metamodels) == t
        aug = augment_m2m(t)
        assert parse_m2m(print_m2m(aug), workspace_metamodels) == aug


# -- execution ------------------------------------------------------------------

def test_identity_style_rule_copies_attribute():
    t = parse_m2m(IDENTITY_RULE, AB_METAMODELS)
    out = execute_m2m(t, {"src": node_model()}, AB_METAMODELS)
    assert out.metamodel_name == "MMB"
    assert out.root.class_name == "Feature"
    assert out.root.attrs == {"node_id": "n1"}


def test_two_guard_free_rules_are_ambiguous():
    doubled = IDENTITY_RULE.replace(
        "rule Node2Feature {",
        "rule Other { from s : MMA!Node to t : MMB!Feature (node_id <- s.id) }\nrule Node2Feature {")
    t = parse_m2m(doubled, AB_METAMODELS)
    with pytest.raises(MatchAmbiguity) as exc:
        execute_m2m(t, {"src": node_model()}, AB_METAMODELS)
    assert set(exc.value.rule_names) == {"Other", "Node2Feature"}


def test_complementary_guards_do_not_overlap():
    text = """
transformation T;
input src : MMA;
output dst : MMB;
rule A { from s : MMA!Node (s.kind = "x") to t : MMB!Feature (node_id <- s.id) }
rule B { from s : MMA!Node (s.kind != "x") to t : MMB!Feature (node_id <- concat("b-", s.id)) }
"""
    t = parse_m2m(text, AB_METAMODELS)
    assert execute_m2m(t, {"src": node_model(kind="x")}, AB_METAMODELS).root.attrs["node_id"] == "n1"
    assert execute_m2m(t, {"src": node_model(kind="y")}, AB_METAMODELS).root.attrs["node_id"] == "b-n1"


def test_unresolved_binding_names_the_element(workspace_metamodels):
    # A placement that references elements no rule maps.
    mms = {
        "MMA": parse_metamodel(
            '{"name": "MMA", "classes": ['
            '{"name": "Root", "collections": [{"class": "Leaf", "name": "leaves"}]},'
            '{"name": "Leaf", "attributes": [{"name": "id", "type": "string"}]}]}'),
        "MMB": parse_metamodel(
            '{"name": "MMB", "classes": ['
            '{"name": "Out", "collections": [{"class": "Out", "name": "kids"}]}]}'),
    }
    text = """
transformation T;
input src : MMA;
output dst : MMB;
rule R { from s : MMA!Root to t : MMB!Out (kids <- s.leaves) }
"""
    t = parse_m2m(text, mms)
    root = Element("Root", collections={"leaves": [Element("Leaf", {"id": "a"})]})
    with pytest.raises(UnresolvedBinding, match=r"leaves\[0\]"):
        execute_m2m(t, {"src": Model("", "MMA", root)}, mms)


def brute_force_match_count(t, model):
    """Independent count of (element, rule) matches, one image per target pattern."""
    count = 0
    for _, element in iter_elements(model):
        for rule in t.rules:
            if rule.from_metamodel != model.metamodel_name or rule.from_class != element.class_name:
                continue
            if rule.guard is not None:
                value = element.attrs.get(rule.guard.left.feature)
                holds = (value == rule.guard.right.value) if rule.guard.op == "=" \
                    else (value != rule.guard.right.value)
                if not holds:
                    continue
            count += len(rule.targets)
    return count


def test_map_contiki_output_size_matches_brute_force(workspace_metamodels, input_pim):
    t = load_fixture_m2m("MapContiki.m2m", workspace_metamodels)
    out = execute_m2m(t, {"pim": input_pim}, workspace_metamodels)
    expected = brute_force_match_count(t, input_pim)
    assert len(list(iter_elements(out))) == expected == 6


def test_cross_reference_resolution_through_images(workspace_metamodels, input_pim):
    t = load_fixture_m2m("MapContiki.m2m", workspace_metamodels)
    out = execute_m2m(t, {"pim": input_pim}, workspace_metamodels)
    source_a = resolve_path(out, parse_path("networks[0].platforms[0]"))
    sink = resolve_path(out, parse_path("networks[1].platforms[0]"))
    assert str(source_a.refs["uplink"]) == "networks[1].platforms[0]"
    assert "uplink" not in sink.refs  # its source device has no peer


# -- augmentation ----------------------------------------------------------------

def test_augment_marks_every_pattern():
    t = parse_m2m(IDENTITY_RULE, AB_METAMODELS)
    aug = augment_m2m(t)
    assert not is_augmented(t)
    assert is_augmented(aug)
    assert strip_m2m(aug) == t


def test_augment_idempotent_on_fixtures(workspace_metamodels):
    for name in ("MapContiki.m2m", "MapArduino.m2m", "MapRIOT.m2m", "MapDataCollector.m2m"):
        t = load_fixture_m2m(name, workspace_metamodels)
        assert augment_m2m(augment_m2m(t)) == augment_m2m(t)


def test_two_pattern_rule_gets_two_trace_clauses():
    mms = {
        "MMA": AB_METAMODELS["MMA"],
        "MMB": parse_metamodel(
            '{"name": "MMB", "classes": ['
            '{"name": "Feature", "attributes": [{"name": "node_id", "type": "string"}],'
            ' "collections": [{"class": "Extra", "name": "extras"}]},'
            '{"name": "Extra", "attributes": [{"name": "tag", "type": "string"}]}]}'),
    }
    text = """
transformation T;
input src : MMA;
output dst : MMB;
rule R {
  from s : MMA!Node
  to t : MMB!Feature (node_id <- s.id, extras <- u),
     u : MMB!Extra (tag <- s.kind)
}
"""
    t = parse_m2m(text, mms)
    aug = augment_m2m(t)
    assert [p.traced for p in aug.rules[0].targets] == [True, True]

    out, trace = execute_augmented_m2m(aug, {"src": node_model()}, mms, "out.model.json")
    assert len(trace.links) == 2
    assert {str(link.targets[0].path) for link in trace.links} == {"root", "extras[0]"}


def test_semantics_preservation_on_fixtures(workspace_metamodels, input_pim):
    for name in ("MapContiki.m2m", "MapArduino.m2m", "MapRIOT.m2m", "MapDataCollector.m2m"):
        t = load_fixture_m2m(name, workspace_metamodels)
        plain = execute_m2m(t, {"pim": input_pim}, workspace_metamodels, "out.model.json")
        augmented, _ = execute_augmented_m2m(
            augment_m2m(t), {"pim": input_pim}, workspace_metamodels, "out.model.json")
        assert serialize_model(plain) == serialize_model(augmented)


def test_identity_rule_trace_link():
    t = augment_m2m(parse_m2m(IDENTITY_RULE, AB_METAMODELS))
    out, trace = execute_augmented_m2m(
        t, {"src": node_model()}, AB_METAMODELS, "out.model.json",
        trace_id="trace:t", transformation_id="TransformationM2M:t.m2m", execution_stamp=1)
    assert len(trace.links) == 1
    link = trace.links[0]
    assert link.tags == {"rule": "Node2Feature"}
    assert str(link.sources[0]) == "in.model.json:root"
    assert str(link.targets[0]) == "out.model.json:root"


def test_map_contiki_trace_totality(workspace_metamodels, input_pim):
    t = augment_m2m(load_fixture_m2m("MapContiki.m2m", workspace_metamodels))
    out, trace = execute_augmented_m2m(t, {"pim": input_pim}, workspace_metamodels, "psm.model.json")
    out_elements = list(iter_elements(out))
    assert len(trace.links) == len(out_elements)
    targeted = {str(link.targets[0].path) for link in trace.links}
    assert targeted == {str(p) for p, _ in out_elements}
    for link in trace.links:
        assert resolve_path(input_pim, link.sources[0].path) is not None
        assert resolve_path(out, link.targets[0].path) is not None


def test_trace_supports_bidirectional_queries(workspace_metamodels, input_pim):
    t = augment_m2m(load_fixture_m2m("MapContiki.m2m", workspace_metamodels))
    _, trace = execute_augmented_m2m(t, {"pim": input_pim}, workspace_metamodels, "psm.model.json")
    forward = {}
    backward = {}
    for link in trace.links:
        forward.setdefault(str(link.sources[0].path), set()).add(str(link.targets[0].path))
        backward.setdefault(str(link.targets[0].path), set()).add(str(link.sources[0].path))
    assert forward["indirect[0].indirectdevice[0]"] == {"networks[1].platforms[0]"}
    assert backward["networks[1].platforms[0]"] == {"indirect[0].indirectdevice[0]"}


def test_trace_link_order_is_by_source_path(workspace_metamodels, input_pim):
    t = augment_m2m(load_fixture_m2m("MapContiki.m2m", workspace_metamodels))
    _, trace = execute_augmented_m2m(t, {"pim": input_pim}, workspace_metamodels, "psm.model.json")
    paths = [link.sources[0].path for link in trace.links]
    assert paths == sorted(paths, key=source_path_key)

    # Twelve elements in one collection, so that x[2] must come before x[10],
    # and collections named on both sides of the bare "root".
    def node(i, **collections):
        return Element("Node", {"id": str(i)}, collections)

    t = augment_m2m(parse_m2m(TREE_RULE, TREE_METAMODELS))
    model = Model("in.model.json", "MMA", node(0, x=[node(i, a=[node(100 + i)]) for i in range(1, 13)],
                                                 a=[node(13)], z=[node(14)]))
    _, trace = execute_augmented_m2m(t, {"src": model}, TREE_METAMODELS, "out.model.json")
    paths = [str(link.sources[0].path) for link in trace.links]
    assert len(paths) == 27 and paths == sorted(paths, key=source_path_key)
    assert paths[:3] == ["a[0]", "root", "x[0]"] and paths[-1] == "z[0]"
    assert paths.index("x[2]") < paths.index("x[10]") and paths != sorted(paths)


def test_execution_is_deterministic(workspace_metamodels, input_pim):
    t = augment_m2m(load_fixture_m2m("MapArduino.m2m", workspace_metamodels))
    runs = [
        execute_augmented_m2m(t, {"pim": input_pim}, workspace_metamodels, "x.model.json")
        for _ in range(3)
    ]
    blobs = {serialize_model(model) for model, _ in runs}
    assert len(blobs) == 1


def test_output_conformance_enforced():
    text = IDENTITY_RULE.replace('node_id <- s.id', 'node_id <- 7')
    t = parse_m2m(text, AB_METAMODELS)
    with pytest.raises(ConformanceError):
        execute_m2m(t, {"src": node_model()}, AB_METAMODELS)


def test_target_pattern_outside_the_output_metamodel_fails_at_parse():
    text = IDENTITY_RULE.replace("to t : MMB!Feature (node_id <- s.id)", "to t : MMA!Node (id <- s.id)")
    with pytest.raises(SchemaError, match="rule 'Node2Feature': pattern variable 't' targets 'MMA', "
                                          "not the output metamodel 'MMB'"):
        parse_m2m(text, AB_METAMODELS)


def test_target_pattern_in_an_unknown_metamodel_is_an_unknown_class():
    text = IDENTITY_RULE.replace("to t : MMB!Feature (node_id <- s.id)", "to t : MMC!Node (id <- s.id)")
    with pytest.raises(UnknownClass, match="MMC"):
        parse_m2m(text, AB_METAMODELS)


def test_wrong_input_metamodel_rejected():
    t = parse_m2m(IDENTITY_RULE, AB_METAMODELS)
    bogus = Model("", "MMB", Element("Feature", {"node_id": "x"}))
    with pytest.raises(ConformanceError):
        execute_m2m(t, {"src": bogus}, AB_METAMODELS)


def test_hand_built_non_conforming_input_rejected():
    # Declares the right metamodel but sets an attribute MMA's Node lacks:
    # only the conformance check on entry can catch it.
    t = parse_m2m(IDENTITY_RULE, AB_METAMODELS)
    bogus = Model("", "MMA", Element("Node", {"id": "n1", "colour": "red"}))
    with pytest.raises(ConformanceError, match="colour"):
        execute_m2m(t, {"src": bogus}, AB_METAMODELS)


def test_non_ascii_literals_survive_parse_and_print():
    text = IDENTITY_RULE.replace('s.id', 'concat("café-", s.id)')
    t = parse_m2m(text, AB_METAMODELS)
    assert parse_m2m(print_m2m(t), AB_METAMODELS) == t
    out = execute_m2m(t, {"src": node_model()}, AB_METAMODELS)
    assert out.root.attrs["node_id"] == "café-n1"
