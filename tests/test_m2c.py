import json
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tracelink.errors import (
    ConformanceError,
    EvalError,
    ParseError,
    TemplateTypeError,
)
from tracelink.m2c import (
    EmitNode,
    ForNode,
    IfNode,
    TextNode,
    augment_template,
    parse_template,
    print_template,
    render,
    render_traced,
    strip_template,
)
from tracelink.m2m import execute_m2m, parse_m2m
from tracelink.model import Element, Model, parse_metamodel, parse_model, resolve_path
from tracelink.paths import ROOT_PATH, parse_path
from tracelink.trace import build_identifier_tree

from conftest import WORKSPACE_FIXTURE, count_metamodel_lookups, replicated
from templates import (
    ALL_METAMODELS,
    COND_TEMPLATE,
    FILTERS_MM,
    LIST_MM,
    LOOP_TEMPLATE,
    NESTED_TEMPLATE,
    PURE_TEXT_TEMPLATE,
    filters_model,
    list_model,
    plat_model,
)
from worlds import random_world


def source_tree(trace):
    """The identifier tree over a trace's link sources."""
    return build_identifier_tree([link.sources[0].path for link in trace.links])


def loop_template():
    return parse_template(LOOP_TEMPLATE, ALL_METAMODELS)


def cond_template():
    return parse_template(COND_TEMPLATE, ALL_METAMODELS)


def nested_template():
    return parse_template(NESTED_TEMPLATE, ALL_METAMODELS)


# -- parsing -------------------------------------------------------------------

def test_loop_listing_parses_to_for_with_text_and_emit():
    t = loop_template()
    assert t.name == "listing.java"
    assert t.param_var == "sourceModel"
    assert len(t.body) == 1
    loop = t.body[0]
    assert isinstance(loop, ForNode)
    assert str(loop.source) == "sourceModel.elements"
    kinds = [type(n) for n in loop.body]
    assert kinds == [TextNode, EmitNode, TextNode]


def test_unclosed_for_rejected():
    with pytest.raises(ParseError):
        parse_template("[template x (m : ListMM!Root)][for (e : m.elements)]oops[/template]",
                       ALL_METAMODELS)


@pytest.mark.parametrize("tag, message", [
    ("[for (e m.elements)][/for]", "expected ':', got 'ident' (line 3)"),
    ("[if (m.elements->size() < 1)][/if]", "bad token in tag: '< 1)' (line 3)"),
    ("[m.name]", "emit tag must end with '/': [m.name] (line 3)"),
    ("[for (e : m.elements)][e.name/][/if]", "unexpected [/if] (line 3)"),
])
def test_tag_errors_name_the_tag_line_and_no_column(tag, message):
    with pytest.raises(ParseError) as info:
        parse_template("[template x (m : ListMM!Root)]\n\n" + tag + "[/template]", ALL_METAMODELS)
    assert str(info.value) == message


@pytest.mark.parametrize("tag", ["[{huge}/]", '[if (m.name = {huge})][/if]', "[if (m.elements->size() > {huge})][/if]"])
def test_an_integer_longer_than_int_reads_is_a_parse_error_at_its_tag(tag):
    huge = "9" * 5000  # int() converts at most 4,300 digits
    with pytest.raises(ParseError) as info:
        parse_template("[template x (m : ListMM!Root)]\n\n" + tag.format(huge=huge) + "[/template]", ALL_METAMODELS)
    assert str(info.value) == "integer literal too large (line 3)"


@pytest.mark.parametrize("tag", ["[{huge}/]", '[if (m.name = {huge})][/if]', "[if (m.elements->size() > {huge})][/if]"])
def test_a_float_longer_than_a_double_holds_is_a_parse_error_at_its_tag(tag):
    huge = "9" * 400 + ".5"  # float() reads it as inf, which the printer would write back as a variable
    with pytest.raises(ParseError) as info:
        parse_template("[template x (m : ListMM!Root)]\n\n" + tag.format(huge=huge) + "[/template]", ALL_METAMODELS)
    assert str(info.value) == "float literal too large (line 3)"


def test_conditional_listing_parses_with_both_branches():
    t = cond_template()
    node = t.body[0]
    assert isinstance(node, IfNode)
    assert node.then_body and node.else_body
    assert str(node.cond.target) == "sourceModel.targetPlatform"


def test_type_errors():
    with pytest.raises(TemplateTypeError):  # emit a collection
        parse_template("[template x (m : ListMM!Root)][m.elements/][/template]", ALL_METAMODELS)
    with pytest.raises(TemplateTypeError):  # loop over an attribute
        parse_template("[template x (m : ListMM!Root)][for (e : m.elements)]"
                       "[for (q : e.name)][/for][/for][/template]", ALL_METAMODELS)
    with pytest.raises(TemplateTypeError):  # unknown feature
        parse_template("[template x (m : ListMM!Root)][m.nope/][/template]", ALL_METAMODELS)
    with pytest.raises(TemplateTypeError):  # loop index outside a loop
        parse_template("[template x (m : ListMM!Root)][i/][/template]", ALL_METAMODELS)
    with pytest.raises(TemplateTypeError):  # shadowing binder
        parse_template("[template x (m : ListMM!Root)][for (m : m.elements)][/for][/template]",
                       ALL_METAMODELS)


# -- rendering -----------------------------------------------------------------

def test_loop_over_two_elements_renders_declarations():
    # Hand evaluation: one declaration line per element, in collection order.
    out = render(loop_template(), list_model(["a", "b"]))
    assert out == "public String a;\npublic String b;\n"


def test_loop_over_empty_collection_renders_nothing():
    assert render(loop_template(), list_model([])) == ""


def test_conditional_else_branch():
    assert render(cond_template(), plat_model(with_target=False)) == "public boolean improper = TRUE;\n"


def test_conditional_then_branch():
    assert render(cond_template(), plat_model(with_target=True)) == "public String contiki;\n"


def test_loop_index_variable():
    t = parse_template("[template x (m : ListMM!Root)][for (e : m.elements)][i/]:[e.name/] [/for][/template]",
                       ALL_METAMODELS)
    assert render(t, list_model(["a", "b", "c"])) == "0:a 1:b 2:c "


def test_render_requires_conforming_model():
    t = loop_template()
    with pytest.raises(ConformanceError):
        render(t, plat_model(False))


def test_render_checks_a_hand_built_model_of_the_right_metamodel():
    model = list_model(["a"])
    model.root.collections["elements"][0].attrs["name"] = 7
    with pytest.raises(ConformanceError, match="expects string"):
        render(loop_template(), model)


def nameless_target_model():
    model = plat_model(with_target=True)
    del model.root.collections["platforms"][0].attrs["name"]
    return model


# A node class with a reference to its own class, so a path may name one reference twice.
CHAIN_MM = parse_metamodel(
    '{"name": "ChainMM", "classes": [{"name": "Node", "attributes": [{"name": "name", "type": "string"}],'
    ' "collections": [{"class": "Node", "name": "kids"}],'
    ' "references": [{"class": "Node", "name": "next", "optional": true}]}]}')


def chain_model(linked: bool) -> Model:
    root = Element("Node", {"name": "head"}, {"kids": [Element("Node", {"name": "tail"})]})
    if linked:
        root.refs["next"] = parse_path("kids[0]")
    return Model("chain.model.json", "ChainMM", root)


@pytest.mark.parametrize("body, model, message", [
    # An unset attribute, read through a reference: located at the element that holds it.
    ("[m.targetPlatform.name/]", nameless_target_model(),
     "attribute 'name' is unset; template line 1; model path platforms[0]"),
    # An unset reference in the middle of a path.
    ("[m.targetPlatform.name/]", plat_model(with_target=False),
     "reference 'targetPlatform' is unset; template line 1; model path root"),
    # An unset reference as the last step of an element-valued navigation.
    ("\n[path(m.targetPlatform)/]", plat_model(with_target=False),
     "reference 'targetPlatform' is unset; template line 2; model path root"),
], ids=["unset-attribute", "unset-middle-reference", "unset-last-reference"])
def test_eval_error_on_an_unset_value_names_it_and_its_location(body, model, message):
    t = parse_template(f"[template x (m : PlatMM!Root)]{body}[/template]", ALL_METAMODELS)
    with pytest.raises(EvalError) as exc:
        render(t, model)
    assert str(exc.value) == message


@pytest.mark.parametrize("augmented", [False, True])
def test_only_the_last_step_of_a_size_target_may_be_unset(augmented):
    # Only the last step of a size() target may be unset, even where an earlier
    # step names the same reference.
    t = parse_template("[template x (m : ChainMM!Node)][if (m.next.next->size() = 0)]end [m.name/][/if][/template]",
                       {"ChainMM": CHAIN_MM})
    t = augment_template(t) if augmented else t
    with pytest.raises(EvalError, match="^reference 'next' is unset; template line 1; model path root$"):
        render(t, chain_model(linked=False))
    assert render(t, chain_model(linked=True)) == "end head"


def test_render_rejects_a_root_of_another_class_than_the_template_parameter():
    psmm = parse_metamodel((WORKSPACE_FIXTURE / "PSMM.mm.json").read_text())
    template = parse_template((WORKSPACE_FIXTURE / "GenContiki.m2c").read_text(), {"PSMM": psmm})
    feature_root = Model("", "PSMM", Element("Feature", {"key": "k", "value": "v"}))
    with pytest.raises(ConformanceError, match="^root: model root is a 'Feature', template needs a 'PsmModel'$"):
        render(template, feature_root)


# -- augmentation ----------------------------------------------------------------

def test_loop_augmentation_emits_marker_per_iteration():
    aug = augment_template(loop_template())
    _, annotated, _ = render_traced(aug, list_model(["a", "b"]), "m", "f")
    assert annotated == (
        "{{sourceModel.elements[0]}}public String a;\n{{/}}"
        "{{sourceModel.elements[1]}}public String b;\n{{/}}"
    )


def test_conditional_augmentation_wraps_then_with_governing_element():
    aug = augment_template(cond_template())
    _, annotated, _ = render_traced(aug, plat_model(with_target=True), "m", "f")
    assert annotated == "{{sourceModel.platforms[0]}}public String contiki;\n{{/}}"


def test_conditional_else_branch_stays_unwrapped():
    # The else branch emits no model-derived text, so no markers appear.
    aug = augment_template(cond_template())
    _, annotated, _ = render_traced(aug, plat_model(with_target=False), "m", "f")
    assert annotated == "public boolean improper = TRUE;\n"


def test_pure_text_template_unchanged():
    t = parse_template(PURE_TEXT_TEMPLATE, ALL_METAMODELS)
    assert augment_template(t) == t


def test_augmentation_idempotent():
    for source in (LOOP_TEMPLATE, COND_TEMPLATE, NESTED_TEMPLATE, PURE_TEXT_TEMPLATE):
        t = parse_template(source, ALL_METAMODELS)
        assert augment_template(augment_template(t)) == augment_template(t)


def test_else_branch_with_model_text_wrapped_with_enclosing_binder():
    source = ("[template x (m : PlatMM!Root)]"
              "[if (m.targetPlatform->size() > 0)]yes[else]fallback [m.name/][/if][/template]")
    mm = parse_metamodel(
        '{"name": "PlatMM", "classes": ['
        '{"name": "Root", "attributes": [{"name": "name", "type": "string"}],'
        ' "collections": [{"class": "Platform", "name": "platforms"}],'
        ' "references": [{"class": "Platform", "name": "targetPlatform", "optional": true}]},'
        '{"name": "Platform", "attributes": [{"name": "name", "type": "string"}]}]}')
    t = parse_template(source, {"PlatMM": mm})
    aug = augment_template(t)
    model = plat_model(with_target=False)
    model.root.attrs["name"] = "gw"
    clean, annotated, trace = render_traced(aug, model, "plat.model.json", "x")
    assert annotated == "{{m}}fallback gw{{/}}"
    assert clean == "fallback gw"
    assert str(trace.links[0].sources[0].path) == "root"


@pytest.mark.parametrize("test", ["= 0", "!= 1"])
def test_a_branch_that_an_unset_reference_satisfies_is_governed_by_its_owner(test):
    # The reference target does not exist where such a branch runs, so the
    # branch's region names the element that holds the reference.
    t = parse_template("[template x (m : PlatMM!Root)]"
                       f"[if (m.targetPlatform->size() {test})]no target among"
                       "[for (p : m.platforms)] [p.name/][/for][/if][/template]", ALL_METAMODELS)
    model = plat_model(with_target=False)
    aug = augment_template(t)
    clean, annotated, trace = render_traced(t, model, "plat.model.json", "x")
    assert clean == render(t, model) == render(aug, model) == render(strip_template(aug), model)
    assert clean == "no target among contiki"
    assert annotated == "{{m}}no target among{{m.platforms[0]}} contiki{{/}}{{/}}"
    assert trace.links[0].sources[0].path == ROOT_PATH


def test_strip_template_inverts_augmentation():
    for source in (LOOP_TEMPLATE, COND_TEMPLATE, NESTED_TEMPLATE):
        t = parse_template(source, ALL_METAMODELS)
        assert strip_template(augment_template(t)) == t


def test_nested_loops_realize_two_level_paths():
    aug = augment_template(nested_template())
    _, annotated, trace = render_traced(aug, filters_model(), "filters.model.json", "filters.txt")
    assert "{{sourceModel.filters[0].sections[1]}}" in annotated
    assert "{{sourceModel.filters[1].sections[0]}}" in annotated
    assert {str(p) for p in source_tree(trace).paths()} >= {
        "filters[0].sections[1]", "filters[1].sections[0]", "filters[0]", "filters[1]"}


# -- traced rendering ------------------------------------------------------------

def strip_equivalence(template_source, model, metamodels=None):
    t = parse_template(template_source, metamodels or ALL_METAMODELS)
    plain = render(t, model)
    clean, annotated, trace = render_traced(augment_template(t), model, model.uri, t.name)
    assert clean == plain
    return annotated, trace


def test_strip_equivalence_on_inline_fixtures():
    strip_equivalence(LOOP_TEMPLATE, list_model(["a", "b"]))
    strip_equivalence(LOOP_TEMPLATE, list_model([]))
    strip_equivalence(COND_TEMPLATE, plat_model(True))
    strip_equivalence(COND_TEMPLATE, plat_model(False))
    strip_equivalence(NESTED_TEMPLATE, filters_model())
    strip_equivalence(PURE_TEXT_TEMPLATE, list_model(["a"]))


def test_span_soundness_and_nesting():
    aug = augment_template(nested_template())
    model = filters_model()
    clean, _, trace = render_traced(aug, model, model.uri, "filters.txt")
    data = clean.encode()
    by_path = {str(link.sources[0].path): link.targets[0] for link in trace.links}
    inner = by_path["filters[0].sections[0]"]
    assert data[inner.start_byte:inner.end_byte] == b"s00;\n"
    outer = by_path["filters[0]"]
    assert data[outer.start_byte:outer.end_byte] == b"s00;\ns01;\n"
    assert outer.start_byte <= inner.start_byte and inner.end_byte <= outer.end_byte


def test_extraction_link_order_is_document_order():
    aug = augment_template(nested_template())
    model = filters_model()
    _, _, trace = render_traced(aug, model, model.uri, "f")
    opens = [str(link.sources[0].path) for link in trace.links]
    assert opens == ["filters[0]", "filters[0].sections[0]", "filters[0].sections[1]",
                     "filters[1]", "filters[1].sections[0]"]


def test_custom_marker_delimiters():
    source = ('[template braces.txt (m : ListMM!Root) markers("<<", ">>")]'
              "literal {{ braces }} stay\n"
              "[for (e : m.elements)][e.name/],[/for][/template]")
    t = parse_template(source, ALL_METAMODELS)
    assert (t.marker_open, t.marker_close) == ("<<", ">>")
    model = list_model(["a"])
    clean, annotated, trace = render_traced(augment_template(t), model, model.uri, t.name)
    assert "<<m.elements[0]>>a,<</>>" in annotated
    assert clean == "literal {{ braces }} stay\na,"
    assert str(trace.links[0].sources[0].path) == "elements[0]"


def test_template_tag_includes_template_name():
    aug = augment_template(loop_template())
    _, _, trace = render_traced(aug, list_model(["a"]), "m", "f")
    assert trace.links[0].tags == {"template": "listing.java"}


def test_render_traced_augments_the_template_it_is_given():
    t, model = loop_template(), list_model(["a"])
    traced = render_traced(t, model, "m", "f")
    assert traced == render_traced(augment_template(t), model, "m", "f")
    assert traced[:2] == ("public String a;\n", "{{sourceModel.elements[0]}}public String a;\n{{/}}")
    assert render(augment_template(t), model) == render(t, model) == traced[0]


def test_literal_emit_escapes_brackets():
    t = parse_template('[template x (m : ListMM!Root)]arr["[]"/] done[/template]', ALL_METAMODELS)
    assert render(t, list_model([])) == "arr[] done"


# Values built from marker text of both delimiter pairs, quotes, a backslash,
# non-ASCII text and a newline; the empty list gives the empty string.
MARKER_TEXT = st.lists(st.sampled_from(
    ["{{", "}}", "{{/}}", "{{filters[0]}}", "<<", ">>", "<</>>", '"', "\\", "é", "ок", "\n", "x"]),
    max_size=5).map("".join)
CUSTOM_FILTERS_TEMPLATE = (
    '[template f.txt (m : FiltersMM!Root) markers("<<", ">>")]'
    "[for (f : m.filters)][f.name/]:[for (s : f.sections)][s.title/];[/for]\n[/for][/template]"
)


def drawn_filters_model(filters):
    root = Element("Root", collections={"filters": [
        Element("Filter", {"name": name}, {"sections": [Element("Section", {"title": t}) for t in titles]})
        for name, titles in filters]})
    return Model("filters.model.json", "FiltersMM", root)


@settings(max_examples=100, deadline=None)
@given(st.lists(MARKER_TEXT, max_size=3), st.lists(st.tuples(MARKER_TEXT, st.lists(MARKER_TEXT, max_size=3)),
                                                    max_size=3))
def test_marker_text_in_values_leaves_clean_text_and_spans_intact(names, filters):
    # (template, model, each region's path and clean text, in open order)
    cases = [
        (LOOP_TEMPLATE, list_model(names),
         [(f"elements[{i}]", f"public String {n};\n") for i, n in enumerate(names)]),
        (NESTED_TEMPLATE, drawn_filters_model(filters),
         [region for i, (_, titles) in enumerate(filters) for region in [
             (f"filters[{i}]", "".join(f"{t};\n" for t in titles)),
             *((f"filters[{i}].sections[{j}]", f"{t};\n") for j, t in enumerate(titles))]]),
        (CUSTOM_FILTERS_TEMPLATE, drawn_filters_model(filters),
         [region for i, (name, titles) in enumerate(filters) for region in [
             (f"filters[{i}]", f"{name}:" + "".join(f"{t};" for t in titles) + "\n"),
             *((f"filters[{i}].sections[{j}]", f"{t};") for j, t in enumerate(titles))]]),
    ]
    for source, model, regions in cases:
        t = parse_template(source, ALL_METAMODELS)
        clean, _, trace = render_traced(augment_template(t), model, model.uri, t.name)
        assert clean == render(t, model)
        data = clean.encode("utf-8")
        spans = [link.targets[0] for link in trace.links]
        assert all(0 <= s.start_byte <= s.end_byte <= len(data) for s in spans)
        assert [(str(link.sources[0].path), data[s.start_byte:s.end_byte].decode("utf-8"))
                for link, s in zip(trace.links, spans)] == regions


# -- printing --------------------------------------------------------------------

def test_printed_template_reparses_to_equivalent_behavior():
    for source, model in (
        (LOOP_TEMPLATE, list_model(["a", "b"])),
        (COND_TEMPLATE, plat_model(True)),
        (NESTED_TEMPLATE, filters_model()),
    ):
        t = parse_template(source, ALL_METAMODELS)
        aug = augment_template(t)
        reparsed = parse_template(print_template(aug), ALL_METAMODELS)
        assert augment_template(reparsed) == reparsed
        assert render(reparsed, model) == render(t, model)
        assert render_traced(reparsed, model, "m", "f") == render_traced(aug, model, "m", "f")


QUOTING_MARKERS_TEMPLATE = ('[template q.txt (m : ListMM!Root) markers("<\\"", "\\\\>")]'
                            "[for (e : m.elements)][e.name/],[/for][/template]")


def test_printed_plain_template_round_trips_bytes():
    psmm = {"PSMM": parse_metamodel((WORKSPACE_FIXTURE / "PSMM.mm.json").read_text(encoding="utf-8"))}
    augmented = [(path.read_text(encoding="utf-8"), psmm) for path in sorted(WORKSPACE_FIXTURE.glob("Gen*.m2c"))]
    augmented += [(source, ALL_METAMODELS) for source in (
        LOOP_TEMPLATE, COND_TEMPLATE, NESTED_TEMPLATE, PURE_TEXT_TEMPLATE, CUSTOM_FILTERS_TEMPLATE,
        QUOTING_MARKERS_TEMPLATE)]
    cases = [(parse_template(LOOP_TEMPLATE, ALL_METAMODELS), ALL_METAMODELS, False)]
    cases += [(augment_template(parse_template(source, mms)), mms, True) for source, mms in augmented]
    assert len(cases) == 11
    for t, metamodels, is_augmented in cases:
        printed = print_template(t)
        reparsed = parse_template(printed, metamodels)
        assert print_template(reparsed) == printed
        assert reparsed == t and (augment_template(reparsed) == reparsed) == is_augmented


def test_quoting_marker_delimiters_are_printed_escaped():
    t = parse_template(QUOTING_MARKERS_TEMPLATE, ALL_METAMODELS)
    assert (t.marker_open, t.marker_close) == ('<"', "\\>")
    printed = print_template(augment_template(t))
    assert printed.startswith('[template q.txt (m : ListMM!Root) markers("<\\"", "\\\\>")]')
    reparsed = parse_template(printed, ALL_METAMODELS)
    _, annotated, _ = render_traced(reparsed, list_model(["a"]), "m", "f")
    assert annotated == '<"m.elements[0]\\>a,<"/\\>'


def test_empty_collection_produces_no_markers():
    aug = augment_template(loop_template())
    clean, annotated, trace = render_traced(aug, list_model([]), "m", "f")
    assert annotated == ""
    assert (clean, trace.links, source_tree(trace).paths()) == ("", (), [])


def test_non_ascii_string_literals_survive():
    t = parse_template('[template x (m : ListMM!Root)]["café \\"q\\" ок"/][/template]',
                       ALL_METAMODELS)
    assert render(t, list_model([])) == 'café "q" ок'


# -- marker paths ----------------------------------------------------------------

def tree_template(mm, root_class):
    """Loops over every collection below ``root_class`` and tests each one's
    size; every loop body and branch starts with ``path()`` of the element
    it binds, ended by ';' (loop) or '|' (branch)."""

    def body(class_name, var, depth):
        parts = []
        for coll in mm.class_named(class_name).collections:
            child = f"v{depth + 1}"
            parts.append(f"[if ({var}.{coll.name}->size() > 0)][path({var})/]|[/if]"
                         f"[for ({child} : {var}.{coll.name})][path({child})/];"
                         f"{body(coll.element_class, child, depth + 1)}[/for]")
        return "".join(parts)

    return f"[template tree.txt (v0 : {mm.name}!{root_class})]{body(root_class, 'v0', 0)}[/template]"


def bound_elements(mm, model):
    """The elements tree_template's branches and loops bind, in the order
    their marker regions open."""
    out = []

    def visit(e):
        for coll in mm.class_named(e.class_name).collections:
            children = e.collections.get(coll.name, [])
            if children:
                out.append(e)
            for child in children:
                out.append(child)
                visit(child)

    visit(model.root)
    return out


def from_path_emit(text):
    """The model path of a ``path()`` emit, which leads with the template's
    parameter: ``v0`` is the root, ``v0.a[1]`` is ``a[1]``."""
    _, dot, rest = text.partition(".")
    return parse_path(rest) if dot else ROOT_PATH


def assert_paths_resolve_to_bound_elements(mm, model):
    t = augment_template(parse_template(tree_template(mm, model.root.class_name), {mm.name: mm}))
    clean, _, trace = render_traced(t, model, model.uri, "tree.txt")
    expected = bound_elements(mm, model)
    marked = [resolve_path(model, link.sources[0].path) for link in trace.links]
    emitted = [resolve_path(model, from_path_emit(text)) for text in re.split("[;|]", clean)[:-1]]
    assert len(marked) == len(emitted) == len(expected)
    assert all(a is b for a, b in zip(marked, expected))
    assert all(a is b for a, b in zip(emitted, expected))


@settings(max_examples=50, deadline=None)
@given(st.integers(0, 10_000))
def test_marker_paths_resolve_to_bound_elements_in_random_worlds(seed):
    metamodels, text, model = random_world(seed)
    assert_paths_resolve_to_bound_elements(metamodels["SrcMM"], model)
    produced, _ = execute_m2m(parse_m2m(text, metamodels), {"src": model}, metamodels, "dst.model.json")
    assert_paths_resolve_to_bound_elements(metamodels["DstMM"], produced)


def test_marker_paths_resolve_to_bound_elements_in_the_fixture_pim():
    pimm = parse_metamodel((WORKSPACE_FIXTURE / "PIMM.mm.json").read_text())
    pim = parse_model((WORKSPACE_FIXTURE / "Input.pim.model.json").read_text(), pimm, "Input.pim.model.json")
    assert_paths_resolve_to_bound_elements(pimm, pim)


@pytest.mark.parametrize("name, rules", [("GenArduino.m2c", "MapArduino.m2m"), ("GenContiki.m2c", "MapContiki.m2m"),
                                         ("GenGateway.m2c", "MapDataCollector.m2m"), ("GenRIOT.m2c", "MapRIOT.m2m")])
def test_each_template_is_typed_once_when_parsed_whatever_the_model_size(name, rules):
    # The PSMs the fixture process makes from the fixture PIM and from it with
    # its filters and devices repeated ten times.
    mms = {mm.name: mm for mm in (parse_metamodel((WORKSPACE_FIXTURE / f).read_text(encoding="utf-8"))
                                  for f in ("PIMM.mm.json", "PSMM.mm.json"))}
    doc = json.loads((WORKSPACE_FIXTURE / "Input.pim.model.json").read_text(encoding="utf-8"))
    mapping = parse_m2m((WORKSPACE_FIXTURE / rules).read_text(encoding="utf-8"), mms)
    psms = [execute_m2m(mapping, {"pim": parse_model(json.dumps(pim), mms["PIMM"], "in.model.json")}, mms,
                        "psm.model.json")[0] for pim in (doc, replicated(doc, 10))]
    t = parse_template((WORKSPACE_FIXTURE / name).read_text(encoding="utf-8"), mms)
    count = count_metamodel_lookups(mms)
    lookups, links = [], []
    for psm in psms:
        count[0] = 0
        render(t, psm)
        lookups.append(count[0])
        links.append(len(render_traced(t, psm, "psm.model.json", "out.c")[2].links))
        lookups.append(count[0] - lookups[-1])
    assert lookups == [0, 0, 0, 0]
    assert links[1] > 5 * links[0]
