import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tracelink.errors import (
    ConformanceError,
    EvalError,
    ParseError,
    PathSyntaxError,
    TemplateTypeError,
    UnbalancedMarker,
)
from tracelink.m2c import (
    AnnotatedOutput,
    EmitNode,
    ForNode,
    IfNode,
    TextNode,
    augment_template,
    extract_trace,
    is_template_augmented,
    parse_template,
    print_template,
    render,
    render_augmented,
    strip_template,
)
from tracelink.m2m import execute_m2m, parse_m2m
from tracelink.model import Element, Model, parse_metamodel, parse_model, resolve_path
from tracelink.paths import normalize_marker_path, parse_path
from tracelink.trace import build_identifier_tree

from conftest import WORKSPACE_FIXTURE
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


def test_eval_error_on_unset_reference_carries_location():
    t = parse_template("[template x (m : PlatMM!Root)][m.targetPlatform.name/][/template]",
                       ALL_METAMODELS)
    with pytest.raises(EvalError) as exc:
        render(t, plat_model(with_target=False))
    assert exc.value.model_path == "root"
    assert exc.value.line == 1


def test_render_rejects_a_root_of_another_class_than_the_template_parameter():
    psmm = parse_metamodel((WORKSPACE_FIXTURE / "PSMM.mm.json").read_text())
    template = parse_template((WORKSPACE_FIXTURE / "GenContiki.m2c").read_text(), {"PSMM": psmm})
    feature_root = Model("", "PSMM", Element("Feature", {"key": "k", "value": "v"}))
    with pytest.raises(ConformanceError, match="^root: model root is a 'Feature', template needs a 'PsmModel'$"):
        render(template, feature_root)


# -- augmentation ----------------------------------------------------------------

def test_loop_augmentation_emits_marker_per_iteration():
    aug = augment_template(loop_template())
    annotated = render_augmented(aug, list_model(["a", "b"]))
    assert annotated.text == (
        "{{sourceModel.elements[0]}}public String a;\n{{/}}"
        "{{sourceModel.elements[1]}}public String b;\n{{/}}"
    )


def test_conditional_augmentation_wraps_then_with_governing_element():
    aug = augment_template(cond_template())
    annotated = render_augmented(aug, plat_model(with_target=True))
    assert annotated.text == "{{sourceModel.platforms[0]}}public String contiki;\n{{/}}"


def test_conditional_else_branch_stays_unwrapped():
    # The else branch emits no model-derived text, so no markers appear.
    aug = augment_template(cond_template())
    annotated = render_augmented(aug, plat_model(with_target=False))
    assert annotated.text == "public boolean improper = TRUE;\n"


def test_pure_text_template_unchanged():
    t = parse_template(PURE_TEXT_TEMPLATE, ALL_METAMODELS)
    assert augment_template(t) == t
    assert is_template_augmented(t)


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
    annotated = render_augmented(aug, model)
    assert annotated.text == "{{m}}fallback gw{{/}}"
    clean, trace = extract_trace(annotated, "plat.model.json", "x")
    assert clean == "fallback gw"
    assert str(trace.links[0].sources[0].path) == "root"


def test_strip_template_inverts_augmentation():
    for source in (LOOP_TEMPLATE, COND_TEMPLATE, NESTED_TEMPLATE):
        t = parse_template(source, ALL_METAMODELS)
        assert strip_template(augment_template(t)) == t


def test_nested_loops_realize_two_level_paths():
    aug = augment_template(nested_template())
    annotated = render_augmented(aug, filters_model())
    assert "{{sourceModel.filters[0].sections[1]}}" in annotated.text
    assert "{{sourceModel.filters[1].sections[0]}}" in annotated.text
    clean, trace = extract_trace(annotated, "filters.model.json", "filters.txt")
    assert {str(p) for p in source_tree(trace).paths()} >= {
        "filters[0].sections[1]", "filters[1].sections[0]", "filters[0]", "filters[1]"}


# -- extraction ------------------------------------------------------------------

def strip_equivalence(template_source, model, metamodels=None):
    t = parse_template(template_source, metamodels or ALL_METAMODELS)
    plain = render(t, model)
    annotated = render_augmented(augment_template(t), model)
    clean, trace = extract_trace(annotated, model.uri, t.name)
    assert clean == plain
    return annotated, trace


def test_strip_equivalence_on_inline_fixtures():
    strip_equivalence(LOOP_TEMPLATE, list_model(["a", "b"]))
    strip_equivalence(LOOP_TEMPLATE, list_model([]))
    strip_equivalence(COND_TEMPLATE, plat_model(True))
    strip_equivalence(COND_TEMPLATE, plat_model(False))
    strip_equivalence(NESTED_TEMPLATE, filters_model())
    strip_equivalence(PURE_TEXT_TEMPLATE, list_model(["a"]))


def test_markerless_text_extracts_to_itself():
    annotated = AnnotatedOutput("plain text, no markers\n", "x")
    clean, trace = extract_trace(annotated, "m", "f")
    assert clean == "plain text, no markers\n"
    assert trace.links == ()
    assert source_tree(trace).paths() == []


def test_span_soundness_and_nesting():
    aug = augment_template(nested_template())
    model = filters_model()
    annotated = render_augmented(aug, model)
    clean, trace = extract_trace(annotated, model.uri, "filters.txt")
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
    annotated = render_augmented(aug, model)
    _, trace = extract_trace(annotated, model.uri, "f")
    opens = [str(link.sources[0].path) for link in trace.links]
    assert opens == ["filters[0]", "filters[0].sections[0]", "filters[0].sections[1]",
                     "filters[1]", "filters[1].sections[0]"]


def test_unbalanced_markers_rejected():
    with pytest.raises(UnbalancedMarker) as exc:
        extract_trace(AnnotatedOutput("text {{/}} more", "x"), "m", "f")
    assert exc.value.offset == 5
    with pytest.raises(UnbalancedMarker):
        extract_trace(AnnotatedOutput("{{a[0]}} unclosed", "x"), "m", "f")
    with pytest.raises(UnbalancedMarker):
        extract_trace(AnnotatedOutput("{{a[0]", "x"), "m", "f")


def test_bad_marker_payload_is_a_path_error():
    with pytest.raises(PathSyntaxError):
        extract_trace(AnnotatedOutput("{{not a path!}}x{{/}}", "x"), "m", "f")


def test_custom_marker_delimiters():
    source = ('[template braces.txt (m : ListMM!Root) markers("<<", ">>")]'
              "literal {{ braces }} stay\n"
              "[for (e : m.elements)][e.name/],[/for][/template]")
    t = parse_template(source, ALL_METAMODELS)
    assert (t.marker_open, t.marker_close) == ("<<", ">>")
    model = list_model(["a"])
    annotated = render_augmented(augment_template(t), model)
    assert "<<m.elements[0]>>a,<</>>" in annotated.text
    clean, trace = extract_trace(annotated, model.uri, t.name)
    assert clean == "literal {{ braces }} stay\na,"
    assert str(trace.links[0].sources[0].path) == "elements[0]"


def test_template_tag_includes_template_name():
    aug = augment_template(loop_template())
    annotated = render_augmented(aug, list_model(["a"]))
    _, trace = extract_trace(annotated, "m", "f")
    assert trace.links[0].tags == {"template": "listing.java"}


def test_render_augmented_requires_augmented_template():
    from tracelink.errors import TransformationError

    with pytest.raises(TransformationError):
        render_augmented(loop_template(), list_model(["a"]))


def test_literal_emit_escapes_brackets():
    t = parse_template('[template x (m : ListMM!Root)]arr["[]"/] done[/template]', ALL_METAMODELS)
    assert render(t, list_model([])) == "arr[] done"


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
        assert is_template_augmented(reparsed)
        assert render(reparsed, model) == render(aug, model)


def test_printed_plain_template_round_trips_bytes():
    t = parse_template(LOOP_TEMPLATE, ALL_METAMODELS)
    printed = print_template(t)
    assert print_template(parse_template(printed, ALL_METAMODELS)) == printed


def test_empty_collection_produces_no_markers():
    aug = augment_template(loop_template())
    annotated = render_augmented(aug, list_model([]))
    assert annotated.text == ""
    clean, trace = extract_trace(annotated, "m", "f")
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


def assert_paths_resolve_to_bound_elements(mm, model):
    t = augment_template(parse_template(tree_template(mm, model.root.class_name), {mm.name: mm}))
    clean, trace = extract_trace(render_augmented(t, model), model.uri, "tree.txt")
    expected = bound_elements(mm, model)
    marked = [resolve_path(model, link.sources[0].path) for link in trace.links]
    emitted = [resolve_path(model, normalize_marker_path(parse_path(text)))
               for text in re.split("[;|]", clean)[:-1]]
    assert len(marked) == len(emitted) == len(expected)
    assert all(a is b for a, b in zip(marked, expected))
    assert all(a is b for a, b in zip(emitted, expected))


@settings(max_examples=50, deadline=None)
@given(st.integers(0, 10_000))
def test_marker_paths_resolve_to_bound_elements_in_random_worlds(seed):
    metamodels, text, model = random_world(seed)
    assert_paths_resolve_to_bound_elements(metamodels["SrcMM"], model)
    produced = execute_m2m(parse_m2m(text, metamodels), {"src": model}, metamodels, "dst.model.json")
    assert_paths_resolve_to_bound_elements(metamodels["DstMM"], produced)


def test_marker_paths_resolve_to_bound_elements_in_the_fixture_pim():
    pimm = parse_metamodel((WORKSPACE_FIXTURE / "PIMM.mm.json").read_text())
    pim = parse_model((WORKSPACE_FIXTURE / "Input.pim.model.json").read_text(), pimm, "Input.pim.model.json")
    assert_paths_resolve_to_bound_elements(pimm, pim)
