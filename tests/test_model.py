import json
import math
import random
import re
from bisect import bisect_left

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
    nav_type,
    parse_metamodel,
    parse_model,
    resolve_path,
    serialize_metamodel,
    serialize_model,
)
from tracelink.m2m import execute_m2m, parse_m2m
from tracelink import paths
from tracelink.paths import ROOT_PATH, parse_path
from tracelink.trace import build_identifier_tree

from conftest import (DEPTH_LIMIT, NODE_KIDS_MM, WORKSPACE_FIXTURE, chain_document, copy_workspace,
                      run_enactment, source_path_key)
from templates import ALL_METAMODELS, PLAT_MM, plat_model
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


def _nesting(text: str) -> int:
    """How deeply a JSON text without strings that hold brackets nests lists and objects."""
    depth = deepest = 0
    for char in text:
        depth += {"[": 1, "{": 1, "]": -1, "}": -1}.get(char, 0)
        deepest = max(deepest, depth)
    return deepest


def _called_from(frames: int, fn):
    return fn() if frames == 0 else _called_from(frames - 1, fn)


@pytest.mark.parametrize("frames", [0, 500])
def test_one_depth_limit_for_model_documents_whatever_the_callers_stack(frames):
    mm = parse_metamodel(json.dumps(NODE_KIDS_MM))
    at_limit, past = chain_document(320), chain_document(320, ', "collections": {"kids": []}')
    assert (_nesting(at_limit), _nesting(past)) == (DEPTH_LIMIT, DEPTH_LIMIT + 1)
    model = _called_from(frames, lambda: parse_model(at_limit, mm))
    assert model.checked_against is mm and len(list(iter_elements(model))) == 320
    with pytest.raises(ParseError, match="^JSON nested too deeply$"):
        _called_from(frames, lambda: parse_model(past, mm))
    # Past the limit beside the elements, or with another fault too.
    for text in (past.replace('"collections": {"kids": []}', '"notes": [[]]'), past.replace('"n320"', "5"),
                 past.replace('"DeepMM"', '"Other"', 1), '{"metamodel": "DeepMM", "root": 5, "x": %s}' % past):
        with pytest.raises(ParseError, match="^JSON nested too deeply$"):
            _called_from(frames, lambda: parse_model(text, mm))


def test_models_at_the_depth_limit_compare_and_show_whole():
    mm = parse_metamodel(json.dumps(NODE_KIDS_MM))
    doc = chain_document(320)
    one, same, other = parse_model(doc, mm), parse_model(doc, mm), parse_model(doc.replace('"n320"', '"m"'), mm)
    assert one == same and one != other and one.root != other.root
    text = repr(one)
    assert text == repr(same) != repr(other)
    assert text.count("Element(class_name='Node'") == 320
    assert text.endswith("attrs={'id': 'n320'}, collections={}, refs={})" + "]}, refs={})" * 319 + ")")


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


def test_resolve_an_index_longer_than_int_converts_is_not_found(input_pim):
    # The path grammar takes any number of digits; int() converts 4,300.
    with pytest.raises(PathNotFound, match=r"filters\[9{5000}\]"):
        resolve_path(input_pim, parse_path("filters[" + "9" * 5000 + "]"))


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
    assert (ROOT_PATH, input_pim.root) in pairs
    assert len({p for p, _ in pairs}) == len(pairs)
    for p, element in pairs:
        assert parse_path(p) == p
        assert resolve_path(input_pim, p) is element


def _walked(m):
    return [p for p, _ in iter_elements(m)]


@pytest.mark.parametrize("with_target, steps, read, holder, value", [
    (True, ("targetPlatform", "name"), 2, "platforms[0]", "contiki"),  # an attribute, through a reference
    (True, ("platforms",), 1, "root", ["platforms[0]"]),  # a collection
    (True, ("targetPlatform",), 1, "root", "platforms[0]"),  # a reference
    (True, (), 0, "root", "root"),  # a bare variable: the element itself
    (False, ("targetPlatform",), 1, "root", None),  # an unset reference
    (False, ("targetPlatform", "name"), 1, "root", None),  # the walk stops at the unset reference
])
def test_nav_type_features_read_in_turn(with_target, steps, read, holder, value):
    # The features are read in turn through ``_read``, as an M2C render reads
    # them, up to the first unset value: ``read`` of them. An element is given by its path.
    model = plat_model(with_target)
    path_of = {id(e): str(path) for path, e in iter_elements(model)}

    def described(v):
        if isinstance(v, list):
            return [described(e) for e in v]
        return path_of[id(v)] if isinstance(v, Element) else v

    features = nav_type(PLAT_MM, "Root", steps)
    assert tuple(f.name for f in features) == steps
    got_holder, got_value, walked = model.root, model.root, 0
    for feature in features:
        got_holder, got_value = got_value, feature._read(model, got_value)
        walked += 1
        if got_value is None:
            break
    assert (path_of[id(got_holder)], described(got_value), walked) == (holder, value, read)
    assert features[:read] == nav_type(PLAT_MM, "Root", steps[:read])


def test_iter_elements_walks_in_source_path_order(input_pim):
    # Collection names out of order, and one named like the root's path.
    leaf = Element("N")
    root = Element("N", collections={"z": [leaf] * 11, "root": [Element("N", collections={"b": [leaf]})],
                                     "a": [leaf]})
    assert _walked(Model("", "M", root)) == [
        "a[0]", "root", "root[0]", "root[0].b[0]", *(f"z[{i}]" for i in range(11))]
    models = [input_pim]
    for seed in range(6):
        metamodels, text, model = random_world(seed)
        models += [model, execute_m2m(parse_m2m(text, metamodels), {"src": model}, metamodels)[0]]
    for m in models:
        paths = _walked(m)
        assert paths == sorted(paths, key=source_path_key)
        assert build_identifier_tree(paths).paths() == paths


NODE_MM = parse_metamodel(json.dumps({"name": "NodeMM", "classes": [{
    "name": "Node",
    "attributes": [{"name": n, "type": t} for n, t in (("s", "string"), ("i", "int"), ("f", "float"), ("b", "bool"))],
    "collections": [{"class": "Node", "name": "kids"}],
    "references": [{"class": "Node", "name": "peer", "optional": True}],
}]}))
ATTRS = st.fixed_dictionaries({}, optional={
    "s": JSON_TEXT, "i": st.integers() | st.integers(-2 ** 100, 2 ** 100), "b": st.booleans(),
    "f": st.floats() | st.integers(-5, 5) | st.sampled_from([-0.0, math.nan, math.inf, -math.inf, 5e-324]),
})


def _document(e: Element) -> dict:
    """The object json writes for ``e``, from a plain walk; one call per level."""
    out: dict = {"class": e.class_name}
    if e.attrs:
        out["attrs"] = dict(e.attrs)
    kids = {}
    for name, children in e.collections.items():
        if children:
            kids[name] = [_document(child) for child in children]
    if kids:
        out["collections"] = kids
    if e.refs:
        out["refs"] = {name: str(path) for name, path in e.refs.items()}
    return out


@st.composite
def node_models(draw) -> Model:
    """A ``NODE_MM`` model: a drawn tree whose first leaf holds a chain, 320
    levels deep at most, with drawn attributes and references."""
    pool = draw(st.lists(ATTRS, min_size=1, max_size=6))
    made = []

    def node(shape, empty_kids: bool) -> Element:
        e = Element("Node", dict(pool[len(made) % len(pool)]))
        made.append(e)
        kids = [node(kid, draw(st.booleans())) for kid in shape]
        if kids or empty_kids:
            e.collections["kids"] = kids
        return e

    root = node(draw(st.recursive(st.just([]), lambda kids: st.lists(kids, max_size=3), max_leaves=12)), False)
    holder, height = root, 1
    while holder.collections.get("kids"):
        holder, height = holder.collections["kids"][0], height + 1
    for _ in range(draw(st.integers(0, 320 - height))):
        holder.collections["kids"] = [node([], False)]
        holder = holder.collections["kids"][0]
    m = Model("", "NodeMM", root)
    path_of = {id(e): path for path, e in iter_elements(m)}
    for i, j in draw(st.lists(st.tuples(st.integers(0, len(made) - 1), st.integers(0, len(made) - 1)), max_size=4)):
        made[i].refs["peer"] = path_of[id(made[j])]
    return m


@settings(max_examples=25, deadline=None)
@given(node_models() | st.integers(0, 40).map(random_world).map(lambda world: (world[0]["SrcMM"], world[2])))
def test_models_are_written_as_json_writes_them_and_read_back_checked(drawn):
    mm, m = drawn if isinstance(drawn, tuple) else (NODE_MM, drawn)
    text = serialize_model(m)
    assert text == json_reference({"metamodel": m.metamodel_name, "root": _document(m.root)})
    read = parse_model(text, mm, uri=m.uri)
    assert read.checked_against is mm and serialize_model(read) == text  # the text tells -0.0 from 0.0
    values = [value for _, e in iter_elements(m) for value in e.attrs.values()]
    for _, e in iter_elements(m):  # an empty collection is left out of the text
        e.collections = {name: kids for name, kids in e.collections.items() if kids}
    if not any(isinstance(value, float) and math.isnan(value) for value in values):  # nan equals no float
        assert read == m


def _recursive_walk(e: Element, names, prefix: str):
    """The reference walk: one generator per level."""
    for name in names:
        for i, child in enumerate(e.collections[name]):
            text = f"{prefix}{name}[{i}]"
            yield text, child
            yield from _recursive_walk(child, sorted(child.collections), text + ".")


def _tree(shape) -> Element:
    """An element whose collections have ``shape``: name -> list of shapes."""
    return Element("N", collections={name: [_tree(kid) for kid in kids] for name, kids in shape.items()})


SHAPES = st.recursive(st.just({}), lambda kids: st.dictionaries(
    st.sampled_from(["a", "root", "x", "z"]), st.lists(kids, max_size=3), max_size=3), max_leaves=25)


@settings(max_examples=60, deadline=None)
@given(SHAPES, st.lists(st.sampled_from(["a", "root", "z"]), max_size=320), SHAPES)
def test_iter_elements_order_equals_a_recursive_walk(top, chain, bottom):
    # A drawn tree whose first element holds a chain as deep as drawn, with
    # a drawn tree at its end.
    root = _tree(top)
    holder = root
    for name in chain:
        holder.collections.setdefault(name, []).append(Element("N"))
        holder = holder.collections[name][-1]
    for name, kids in _tree(bottom).collections.items():
        holder.collections.setdefault(name, []).extend(kids)
    names = sorted(root.collections)
    split = bisect_left(names, "root")  # the root's own path sorts among its collection names
    expected = [*_recursive_walk(root, names[:split], ""), ("root", root), *_recursive_walk(root, names[split:], "")]
    assert [(p, id(e)) for p, e in iter_elements(Model("", "M", root))] == [(p, id(e)) for p, e in expected]
    walked = [p for p, _ in expected]
    assert sorted(walked, key=paths.source_path_key) == walked
