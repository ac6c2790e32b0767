import json
import math
import random
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tracelink.errors import ConformanceError, ParseError, PathNotFound, SchemaError
from tracelink.megamodel import ResourceKind
from tracelink.model import (
    ClassDef,
    Element,
    Metamodel,
    Model,
    canonical_json,
    check_conformance,
    iter_elements,
    parse_metamodel,
    parse_model,
    resolve_path,
    serialize_metamodel,
    serialize_model,
)
from tracelink.paths import ROOT_PATH, parse_path

from conftest import WORKSPACE_FIXTURE, copy_workspace, run_enactment
from templates import ALL_METAMODELS
from worlds import random_world

NODE_MM_TEXT = '{"name": "NodeMM", "classes": [{"name": "Node", "attributes": [{"name": "id", "type": "string"}]}]}'


@pytest.fixture(scope="module")
def pimm():
    return parse_metamodel((WORKSPACE_FIXTURE / "PIMM.mm.json").read_text())


@pytest.fixture(scope="module")
def input_pim(pimm):
    text = (WORKSPACE_FIXTURE / "Input.pim.model.json").read_text()
    return parse_model(text, pimm, uri="Input.pim.model.json")


# -- metamodel parsing -------------------------------------------------------

def test_minimal_metamodel():
    mm = parse_metamodel(NODE_MM_TEXT)
    assert len(mm.classes) == 1
    assert len(mm.classes[0].attributes) == 1
    assert mm.classes[0].attributes[0].type == "string"


def test_duplicate_class_names_rejected():
    text = '{"name": "M", "classes": [{"name": "Node"}, {"name": "Node"}]}'
    with pytest.raises(SchemaError, match="Node"):
        parse_metamodel(text)


def test_dangling_collection_class_rejected():
    text = '{"name": "M", "classes": [{"name": "A", "collections": [{"class": "Ghost", "name": "kids"}]}]}'
    with pytest.raises(SchemaError, match="Ghost"):
        parse_metamodel(text)


@pytest.mark.parametrize("name", ["my-items", "1st", "", "a.b", "a[0]", "kids "])
def test_collection_name_must_be_an_identifier(name):
    # Collection names are path segments; a trace would record "my-items[0]",
    # which no path parser reads back.
    text = json.dumps({"name": "M", "classes": [{"name": "A", "collections": [{"class": "A", "name": name}]}]})
    with pytest.raises(SchemaError, match=re.escape(f"class 'A', collection '{name}'")):
        parse_metamodel(text)


def test_unknown_attribute_type_rejected():
    text = '{"name": "M", "classes": [{"name": "A", "attributes": [{"name": "x", "type": "decimal"}]}]}'
    with pytest.raises(SchemaError, match="decimal"):
        parse_metamodel(text)


def test_duplicate_feature_names_rejected():
    text = ('{"name": "M", "classes": [{"name": "A", '
            '"attributes": [{"name": "x", "type": "int"}], '
            '"collections": [{"class": "A", "name": "x"}]}]}')
    with pytest.raises(SchemaError, match="'x'"):
        parse_metamodel(text)


def _index_metamodels():
    fixture = [parse_metamodel((WORKSPACE_FIXTURE / name).read_text()) for name in ("PIMM.mm.json", "PSMM.mm.json")]
    worlds = [mm for seed in range(8) for mm in random_world(seed)[0].values()]
    return fixture + worlds + list(ALL_METAMODELS.values())


def test_name_indexes_answer_what_a_scan_answers():
    for mm in _index_metamodels():
        class_names = [cls.name for cls in mm.classes]
        for name in class_names + [name + "x" for name in class_names] + [name[:-1] for name in class_names]:
            assert mm.class_named(name) is next((cls for cls in mm.classes if cls.name == name), None)
        for cls in mm.classes:
            declared = (*cls.attributes, *cls.collections, *cls.references)
            names = [f.name for f in declared] + class_names
            for name in names + [name + "x" for name in names]:
                assert cls.features.get(name) is next((f for f in declared if f.name == name), None)


def test_built_indexes_leave_equality_hash_and_repr_alone():
    text = (WORKSPACE_FIXTURE / "PSMM.mm.json").read_text()
    used = parse_metamodel(text)
    used.class_named("Platform")
    for cls in used.classes:
        cls.features.get("name")
    assert "class_named" in vars(used) and all("features" in vars(cls) for cls in used.classes)
    pristine = Metamodel(used.name, tuple(
        ClassDef(cls.name, cls.attributes, cls.collections, cls.references) for cls in used.classes))
    for other in (parse_metamodel(text), pristine):
        assert used == other and hash(used) == hash(other) and repr(used) == repr(other)
        assert all(hash(a) == hash(b) and repr(a) == repr(b) for a, b in zip(used.classes, other.classes))


def test_malformed_json_is_a_parse_error():
    with pytest.raises(ParseError):
        parse_metamodel("{not json")


def test_json_nested_past_the_decoder_limit_is_a_parse_error(pimm):
    with pytest.raises(ParseError, match="^JSON nested too deeply$"):
        parse_model("[" * 5000 + "]" * 5000, pimm)


def test_bundled_pim_metamodel_has_seven_classes(pimm):
    assert len(pimm.classes) == 7
    names = {c.name for c in pimm.classes}
    assert {"GlobalViewpoint", "Device", "Filter", "Section"} <= names


def test_metamodel_serialization_stable_after_one_pass(pimm):
    once = serialize_metamodel(pimm)
    assert serialize_metamodel(parse_metamodel(once)) == once


# -- model parsing and conformance -------------------------------------------

def test_minimal_model():
    mm = parse_metamodel(NODE_MM_TEXT)
    m = parse_model('{"metamodel": "NodeMM", "root": {"class": "Node", "attrs": {"id": "n1"}}}', mm)
    assert m.root.class_name == "Node"
    assert m.root.attrs == {"id": "n1"}
    assert len(list(iter_elements(m))) == 1


def test_attribute_type_mismatch_reported_at_root():
    mm = parse_metamodel(NODE_MM_TEXT)
    with pytest.raises(ConformanceError) as exc:
        parse_model('{"metamodel": "NodeMM", "root": {"class": "Node", "attrs": {"id": 3}}}', mm)
    assert exc.value.path == "root"


def test_wrong_metamodel_name_rejected():
    mm = parse_metamodel(NODE_MM_TEXT)
    with pytest.raises(ConformanceError):
        parse_model('{"metamodel": "Other", "root": {"class": "Node"}}', mm)


def test_bundled_input_model_contains_the_indirect_device(input_pim):
    device = resolve_path(input_pim, parse_path("indirect[0].indirectdevice[0]"))
    assert device.class_name == "Device"
    assert device.attrs["name"] == "sink-0"


def test_parsed_models_conform(pimm, input_pim):
    assert check_conformance(input_pim, pimm) == []


def test_unknown_collection_is_a_violation():
    mm = parse_metamodel(NODE_MM_TEXT)
    root = Element("Node", {"id": "n"}, {"sections": [Element("Node", {"id": "c"})]})
    violations = check_conformance(Model("", "NodeMM", root), mm)
    assert len(violations) == 1
    assert "sections" in violations[0].message


def test_violations_sorted_by_path(pimm, input_pim):
    model = parse_model(serialize_model(input_pim), pimm)
    resolve_path(model, parse_path("wsn[0]")).attrs["bogus"] = 1
    resolve_path(model, parse_path("filters[0]")).attrs["bogus"] = 1
    violations = check_conformance(model, pimm)
    assert [v.path for v in violations] == sorted(v.path for v in violations)


def _count_broken_refs(model):
    broken = 0
    for _, element in iter_elements(model):
        for ref_path in element.refs.values():
            try:
                resolve_path(model, ref_path)
            except PathNotFound:
                broken += 1
    return broken


def test_single_field_rename_yields_one_violation_per_broken_check(pimm):
    # Mutation oracle: renaming one feature key yields exactly one unknown-
    # feature violation, plus one per cross-reference the rename dangled.
    rng = random.Random(20240811)
    for _ in range(12):
        model = parse_model((WORKSPACE_FIXTURE / "Input.pim.model.json").read_text(), pimm)
        spots = []
        for path, element in iter_elements(model):
            for kind in ("attrs", "collections", "refs"):
                for name in getattr(element, kind):
                    spots.append((element, kind, name))
        element, kind, name = rng.choice(spots)
        bucket = getattr(element, kind)
        bucket[name + "_renamed"] = bucket.pop(name)
        expected = 1 + _count_broken_refs(model)
        violations = check_conformance(model, pimm)
        assert len(violations) == expected, (kind, name, violations)


def test_attribute_rename_yields_exactly_one_violation(pimm):
    model = parse_model((WORKSPACE_FIXTURE / "Input.pim.model.json").read_text(), pimm)
    device = resolve_path(model, parse_path("wsn[0].device[0]"))
    device.attrs["role_renamed"] = device.attrs.pop("role")
    assert len(check_conformance(model, pimm)) == 1


def test_dangling_reference_is_a_violation(pimm, input_pim):
    model = parse_model(serialize_model(input_pim), pimm)
    device = resolve_path(model, parse_path("wsn[0].device[0]"))
    device.refs["peer"] = parse_path("indirect[0].indirectdevice[9]")
    violations = check_conformance(model, pimm)
    assert len(violations) == 1
    assert "dangles" in violations[0].message


def test_required_reference_enforced():
    mm = parse_metamodel(
        '{"name": "M", "classes": [{"name": "A", "references": [{"class": "A", "name": "next"}]}]}')
    violations = check_conformance(Model("", "M", Element("A")), mm)
    assert violations and "next" in violations[0].message


def test_shared_containment_is_a_violation():
    mm = parse_metamodel(
        '{"name": "M", "classes": [{"name": "A", "collections": [{"class": "A", "name": "kids"}]}]}')
    shared = Element("A")
    root = Element("A", collections={"kids": [shared, shared]})
    violations = check_conformance(Model("", "M", root), mm)
    assert any("more than once" in v.message for v in violations)


def test_model_serialization_stable_after_one_pass(input_pim):
    once = serialize_model(input_pim)
    mm = parse_metamodel((WORKSPACE_FIXTURE / "PIMM.mm.json").read_text())
    assert serialize_model(parse_model(once, mm)) == once


# -- canonical JSON -------------------------------------------------------------

def json_reference(value) -> str:
    return json.dumps(value, ensure_ascii=False, indent=2, sort_keys=True) + "\n"


JSON_TEXT = st.text(max_size=8) | st.sampled_from(
    ['', '"', '\\', '\\"x"', '\x00\x08\t\n\r\x1f\x7f', 'é', '中文', '😀', '\u2028\u2029', '\ud800'])
JSON_SCALARS = (
    st.none() | st.booleans() | st.integers() | st.integers(-2 ** 100, 2 ** 100)
    | st.floats() | st.sampled_from([0.0, -0.0, math.nan, math.inf, -math.inf, 1e300, 5e-324])
    | JSON_TEXT
)
JSON_VALUES = st.recursive(
    JSON_SCALARS,
    lambda inner: (st.lists(inner, max_size=4) | st.lists(inner, max_size=4).map(tuple)
                   | st.dictionaries(JSON_TEXT, inner, max_size=4)),
    max_leaves=25,
)


@settings(max_examples=300, deadline=None)
@given(JSON_VALUES)
def test_canonical_json_matches_json_dumps(value):
    assert canonical_json(value) == json_reference(value)


def test_canonical_json_rewrites_fixture_and_enacted_files_unchanged(tmp_path):
    ws = copy_workspace(tmp_path)
    run_enactment(ws)
    files = sorted(ws.rglob("*.json"))
    assert len(files) > len(list(WORKSPACE_FIXTURE.glob("*.json")))
    for path in files:
        text = path.read_text(encoding="utf-8")
        data = json.loads(text)
        assert canonical_json(data) == json_reference(data), path
        # The process file is hand-formatted; every other file is canonical.
        if path.name != "wsn-iot.proc.json":
            assert canonical_json(data) == text, path


@pytest.mark.parametrize("value", [
    [{1: "a", 2: {3.5: None, -1.0: []}}, {None: {False: 0, True: 1}}],
    [ResourceKind.MODEL, {"kind": ResourceKind.METAMODEL}],
], ids=["non-str keys", "str enum"])
def test_canonical_json_leaves_what_it_does_not_write_to_json(value):
    assert canonical_json(value) == json_reference(value)


def test_canonical_json_raises_json_errors():
    cycle: list = []
    cycle.append(cycle)
    for value, error in (({1: "a", "b": 2}, TypeError), ({"a": {1, 2}}, TypeError),
                         (cycle, ValueError)):
        with pytest.raises(error) as expected:
            json_reference(value)
        with pytest.raises(error, match=re.escape(str(expected.value))):
            canonical_json(value)


# -- path resolution ----------------------------------------------------------

def test_resolve_out_of_range_names_the_segment(input_pim):
    with pytest.raises(PathNotFound, match=r"filters\[9\]"):
        resolve_path(input_pim, parse_path("filters[9]"))


def test_resolve_into_empty_collection():
    mm = parse_metamodel(
        '{"name": "M", "classes": [{"name": "A", "collections": [{"class": "A", "name": "items"}]}]}')
    m = parse_model('{"metamodel": "M", "root": {"class": "A"}}', mm)
    with pytest.raises(PathNotFound):
        resolve_path(m, parse_path("items[0]"))


def test_resolve_root_prefix(input_pim):
    assert resolve_path(input_pim, parse_path("root")) is input_pim.root
    via_prefix = resolve_path(input_pim, parse_path("root.filters[0]"))
    assert via_prefix is resolve_path(input_pim, parse_path("filters[0]"))


def test_every_element_path_resolves_to_its_element(input_pim):
    pairs = list(iter_elements(input_pim))
    assert pairs[0] == (ROOT_PATH, input_pim.root)
    assert len({p for p, _ in pairs}) == len(pairs)
    for p, element in pairs:
        assert parse_path(p) == p
        assert resolve_path(input_pim, p) is element
