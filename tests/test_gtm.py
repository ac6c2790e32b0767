import hashlib
import json
import random
import shutil
import sys
import tempfile
from pathlib import Path

import pytest
from click.testing import CliRunner
from hypothesis import given, settings
from hypothesis import strategies as st

from tracelink import paths
from tracelink.cli import cli
from tracelink.errors import AnchorNotFound, LocationOutsideSpans
from tracelink.gtm import (
    CodeNode,
    ElemNode,
    GlobalTraceMap,
    GtmEdge,
    _join,
    build_gtm,
    change_impact,
    dangling_endpoints,
    export_dot,
    origin_track,
    report_json,
    slice_around,
)
from tracelink.megamodel import Megamodel, ResourceKind, save_megamodel
from tracelink.trace import CodeSpan, ElementRef, LocalTraceModel, TraceLink, load_trace
from tracelink.workspace import read_text

from chains import closure_oracle, node_key, random_chain, write_chain
from conftest import run_enactment


def impact_set(g, node):
    return {n for layer in change_impact(g, node).layers for n in layer}


def origin_set(g, node):
    return {n for layer in origin_track(g, anchor=node).layers for n in layer}


def test_empty_megamodel_gives_empty_gtm(tmp_path):
    g = build_gtm(Megamodel(), tmp_path)
    assert g.nodes == frozenset()
    assert g.edges == frozenset()


def test_minimal_two_stage_join(tmp_path):
    mgm, _ = write_chain(tmp_path, [
        [(("a.model.json", "items[0]"), ("b.model.json", "items[0]"))],
        [(("b.model.json", "items[0]"), ("c.model.json", "items[0]"))],
    ])
    g = build_gtm(mgm, tmp_path)
    assert len(g.nodes) == 3
    assert len(g.edges) == 2
    anchor = ElemNode("a.model.json", "items[0]")
    assert impact_set(g, anchor) == {
        ElemNode("b.model.json", "items[0]"), ElemNode("c.model.json", "items[0]")}


def test_gtm_edges_match_local_links_exactly(enacted):
    ws, _, result = enacted
    import json

    expected = set()
    for res in result.megamodel.of_kind(__import__("tracelink").megamodel.ResourceKind.TRACE_MODEL):
        data = json.loads((ws / res.uri).read_text())
        for link in data["links"]:
            for s in link["sources"]:
                for t in link["targets"]:
                    src = ("elem", s["model"], s["path"])
                    if "model" in t:
                        tgt = ("elem", t["model"], t["path"])
                    else:
                        tgt = ("code", t["file"], t["startByte"], t["endByte"])
                    expected.add((src, tgt))
    g = build_gtm(result.megamodel, ws)
    actual = {(node_key(e.src), node_key(e.dst)) for e in g.edges}
    assert actual == expected


def test_element_nodes_are_trace_element_refs():
    assert ElemNode is ElementRef and CodeNode is CodeSpan


def test_map_nodes_are_the_traces_own_endpoints(enacted):
    ws, _, result = enacted
    g = build_gtm(result.megamodel, ws)
    traces = [load_trace(read_text(ws, res.uri)) for res in result.megamodel.of_kind(ResourceKind.TRACE_MODEL)]
    assert g.nodes == {ref for t in traces for link in t.links for ref in (*link.sources, *link.targets)}
    by_text = ElemNode("Input.pim.model.json", "indirect[0].indirectdevice[0]")
    assert by_text in g.nodes and ElementRef(by_text.model_uri, paths.parse_path(by_text.path)) in g.nodes


def test_a_node_by_text_is_the_node_load_trace_builds(enacted):
    ws, _, result = enacted
    loaded = load_trace(read_text(ws, "traces/MapContiki.trace.json")).links[0].sources[0]
    by_text = ElemNode(loaded.model_uri, str(loaded.path))
    assert type(by_text.path) is str and type(loaded.path) is paths.ElementPath
    assert by_text == loaded and hash(by_text) == hash(loaded) and {by_text: 1}[loaded] == 1


def test_edges_are_tuples_of_their_fields():
    a, b = ElemNode("a", "x[0]"), CodeNode("f", 0, 1, 1, 1)
    edge = GtmEdge(a, b, "Gen", "r")
    assert edge == (a, b, "Gen", "r") and hash(edge) == hash((a, b, "Gen", "r"))
    assert (edge.src, edge.dst, edge.via, edge.rule_tag) == (a, b, "Gen", "r")
    assert repr(edge).startswith("GtmEdge(src=ElementRef(model_uri='a', path='x[0]'), dst=CodeSpan(")


def test_anchor_without_outgoing_edges_has_empty_layers(tmp_path):
    mgm, _ = write_chain(tmp_path, [
        [(("a.model.json", "items[0]"), ("b.model.json", "items[0]"))],
    ])
    g = build_gtm(mgm, tmp_path)
    report = change_impact(g, ElemNode("b.model.json", "items[0]"))
    assert report.layers == ()
    assert report.rendered == "b.model.json:items[0]\n"


def test_unknown_anchor_rejected(tmp_path):
    g = build_gtm(Megamodel(), tmp_path)
    with pytest.raises(AnchorNotFound):
        change_impact(g, ElemNode("x", "a[0]"))


def test_diamond_lists_shared_target_once(tmp_path):
    span = CodeSpan("gen.c", 0, 10, 1, 1)
    mgm, _ = write_chain(tmp_path, [
        [(("a.model.json", "items[0]"), ("b.model.json", "items[0]")),
         (("a.model.json", "items[0]"), ("b.model.json", "items[1]"))],
        [(("b.model.json", "items[0]"), span), (("b.model.json", "items[1]"), span)],
    ])
    g = build_gtm(mgm, tmp_path)
    report = change_impact(g, ElemNode("a.model.json", "items[0]"))
    assert len(report.layers) == 2
    assert len(report.layers[1]) == 1  # one span node, listed once
    assert report.rendered.count("gen.c") == 1


def test_node_appears_at_minimum_depth(tmp_path):
    # a -> b -> c and a -> c directly: c belongs to layer 1.
    mgm, _ = write_chain(tmp_path, [
        [(("a.model.json", "items[0]"), ("b.model.json", "items[0]")),
         (("a.model.json", "items[0]"), ("c.model.json", "items[0]"))],
        [(("b.model.json", "items[0]"), ("c.model.json", "items[0]"))],
    ])
    g = build_gtm(mgm, tmp_path)
    report = change_impact(g, ElemNode("a.model.json", "items[0]"))
    assert len(report.layers) == 1
    assert report.layers[0] == frozenset({
        ElemNode("b.model.json", "items[0]"), ElemNode("c.model.json", "items[0]")})


def test_impact_origin_duality_on_bundled_gtm(enacted):
    ws, _, result = enacted
    g = build_gtm(result.megamodel, ws)
    nodes = sorted(g.nodes, key=node_key)
    impacts = {n: impact_set(g, n) for n in nodes}
    origins = {n: origin_set(g, n) for n in nodes}
    for a in nodes:
        for b in nodes:
            assert (b in impacts[a]) == (a in origins[b])


def test_reachability_matches_brute_force_composition(tmp_path):
    rng = random.Random(99)
    for case in range(5):
        root = tmp_path / f"chain{case}"
        links = random_chain(rng)
        mgm, raw_pairs = write_chain(root, links)
        g = build_gtm(mgm, root)
        oracle = closure_oracle(raw_pairs)
        actual = set()
        for node in g.nodes:
            for reached in impact_set(g, node):
                actual.add((node_key(node), node_key(reached)))
        assert actual == oracle


def test_origin_innermost_span_anchor(tmp_path):
    outer = CodeSpan("gen.c", 0, 30, 1, 1)
    inner = CodeSpan("gen.c", 10, 20, 1, 11)
    mgm, _ = write_chain(tmp_path, [
        [(("a.model.json", "items[0]"), outer), (("a.model.json", "items[1]"), inner)],
    ])
    g = build_gtm(mgm, tmp_path)
    report = origin_track(g, location=("gen.c", 15))
    assert report.anchor == CodeNode("gen.c", 10, 20, 1, 11)
    assert origin_set(g, report.anchor) == {ElemNode("a.model.json", "items[1]")}
    outside = origin_track(g, location=("gen.c", 25))
    assert outside.anchor == CodeNode("gen.c", 0, 30, 1, 1)


def test_location_outside_spans_rejected(tmp_path):
    mgm, _ = write_chain(tmp_path, [
        [(("a.model.json", "items[0]"), CodeSpan("gen.c", 0, 5, 1, 1))],
    ])
    g = build_gtm(mgm, tmp_path)
    with pytest.raises(LocationOutsideSpans):
        origin_track(g, location=("gen.c", 100))


def test_report_rendering_uses_depth_arrows(tmp_path):
    mgm, _ = write_chain(tmp_path, [
        [(("a.model.json", "items[0]"), ("b.model.json", "items[0]"))],
        [(("b.model.json", "items[0]"), ("c.model.json", "items[0]"))],
    ])
    g = build_gtm(mgm, tmp_path)
    report = change_impact(g, ElemNode("a.model.json", "items[0]"))
    assert report.rendered == (
        "a.model.json:items[0]\n"
        "=> b.model.json:items[0]\n"
        "==> c.model.json:items[0]\n"
    )
    data = report_json(report)
    assert data["kind"] == "impact"
    assert [len(layer) for layer in data["layers"]] == [1, 1]


CONTIKI = "out/MapContiki/contiki.model.json"


def clone_of(enacted, tmp_path):
    ws, _, result = enacted
    clone = tmp_path / "clone"
    shutil.copytree(ws, clone)
    return clone, result.megamodel, build_gtm(result.megamodel, ws)


def elements_of(g, *uris):
    return sorted((n for n in g.nodes if isinstance(n, ElemNode) and n.model_uri in uris), key=node_key)


def test_dangling_endpoints_keep_their_edges(enacted, tmp_path):
    clone, mgm, enacted_map = clone_of(enacted, tmp_path)
    (clone / CONTIKI).unlink()
    g = build_gtm(mgm, clone)
    assert g == enacted_map  # the map is its traces alone
    dangling = dangling_endpoints(g, mgm, clone)
    assert list(dangling) == elements_of(g, CONTIKI) != []
    assert set(dangling.values()) == {
        f"model not loadable: [Errno 2] No such file or directory: '{clone / CONTIKI}'"}
    # edges survive: the anchor still reaches the generated span
    anchor = ElemNode("Input.pim.model.json", "indirect[0].indirectdevice[0]")
    assert any(isinstance(n, CodeNode) for n in impact_set(g, anchor))
    dashed = {e for e in g.edges if e.src in dangling or e.dst in dangling}
    assert export_dot(g, dangling=dangling).count("style=dashed") == len(dashed) > 0
    assert "style=dashed" not in export_dot(g)


def test_build_gtm_parses_no_model_and_each_trace_path_once(enacted, monkeypatch):
    ws, _, result = enacted
    calls = []
    original = paths.parse_path

    def no_model(*args, **kwargs):
        raise AssertionError("build_gtm parsed a model")

    for name, module in list(sys.modules.items()):
        if name == "tracelink" or name.startswith("tracelink."):
            if getattr(module, "parse_path", None) is original:
                monkeypatch.setattr(module, "parse_path", lambda s: calls.append(s) or original(s))
            if getattr(module, "parse_model", None) is not None:
                monkeypatch.setattr(module, "parse_model", no_model)
    build_gtm(result.megamodel, ws)
    during_build = len(calls)
    # What loading every trace file costs alone.
    calls.clear()
    for res in result.megamodel.of_kind(ResourceKind.TRACE_MODEL):
        load_trace(read_text(ws, res.uri))
    assert during_build == len(calls) > 0


def test_export_dot_empty():
    dot = export_dot(GlobalTraceMap(frozenset(), frozenset()))
    assert dot == "digraph gtm {\n  rankdir=LR;\n}\n"


def test_export_dot_chain(tmp_path):
    mgm, _ = write_chain(tmp_path, [
        [(("a.model.json", "items[0]"), ("b.model.json", "items[0]"))],
        [(("b.model.json", "items[0]"), ("c.model.json", "items[0]"))],
    ])
    g = build_gtm(mgm, tmp_path)
    dot = export_dot(g)
    assert dot.count(" -> ") == 2
    assert dot.count("shape=ellipse") == 3


def test_export_dot_slice_matches_origin_nodes(enacted):
    ws, _, result = enacted
    g = build_gtm(result.megamodel, ws)
    span = next(n for n in g.nodes
                if isinstance(n, CodeNode) and n.file_uri == "out/GenContiki/Sink.c" and n.start_line == 9)
    report = origin_track(g, anchor=span)
    dot = export_dot(slice_around(g, span, 2))
    for layer in report.layers:
        for node in layer:
            assert str(node) in dot
    assert str(span) in dot


# ---------------------------------------------------------------------------
# The query index against brute force
# ---------------------------------------------------------------------------

def reference_layers(g, anchor, forward):
    """BFS layers where every step scans all of ``g.edges``."""
    layers, seen, frontier = [], {anchor}, {anchor}
    while True:
        frontier = {(e.dst if forward else e.src) for e in g.edges
                    if (e.src if forward else e.dst) in frontier} - seen
        if not frontier:
            return tuple(layers)
        layers.append(frozenset(frontier))
        seen |= frontier


def reference_enclosing(g, file_uri, offset):
    """The smallest span holding ``offset``, ties to the earlier start, by a
    scan of every node; None where no span holds it."""
    spans = [n for n in g.nodes if isinstance(n, CodeNode) and n.file_uri == file_uri
             and n.start_byte <= offset < n.end_byte]
    return min(spans, key=lambda n: (n.end_byte - n.start_byte, n.start_byte), default=None)


def assert_queries_match_reference(g):
    for node in sorted(g.nodes, key=node_key):
        assert change_impact(g, node).layers == reference_layers(g, node, forward=True)
        assert origin_track(g, anchor=node).layers == reference_layers(g, node, forward=False)
    last_end: dict[str, int] = {}
    for n in g.nodes:
        if isinstance(n, CodeNode):
            last_end[n.file_uri] = max(last_end.get(n.file_uri, 0), n.end_byte)
    for file_uri, end in last_end.items():
        for offset in range(end + 2):
            expected = reference_enclosing(g, file_uri, offset)
            if expected is None:
                with pytest.raises(LocationOutsideSpans):
                    origin_track(g, location=(file_uri, offset))
            else:
                assert origin_track(g, location=(file_uri, offset)).anchor == expected


def spans_map(spans) -> GlobalTraceMap:
    """A hand-built map: element items[i] traces to the i-th (start, end) span."""
    nodes, edges = set(), set()
    for i, (start, end) in enumerate(spans):
        elem = ElemNode("m.model.json", f"items[{i}]")
        code = CodeNode("gen.c", start, end, 1, start + 1)
        nodes |= {elem, code}
        edges.add(GtmEdge(elem, code, "Gen", "r"))
    return GlobalTraceMap(frozenset(nodes), frozenset(edges))


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 10_000))
def test_index_matches_brute_force_on_random_chains(seed):
    with tempfile.TemporaryDirectory() as tmp:
        mgm, _ = write_chain(Path(tmp), random_chain(random.Random(seed)))
        assert_queries_match_reference(build_gtm(mgm, Path(tmp)))


@settings(max_examples=100, deadline=None)
@given(st.sets(st.tuples(st.integers(0, 40), st.integers(0, 12)).map(lambda t: (t[0], t[0] + t[1])),
               max_size=12))
def test_index_matches_brute_force_on_overlapping_spans(spans):
    assert_queries_match_reference(spans_map(sorted(spans)))


def test_index_matches_brute_force_on_bundled_gtm(enacted):
    ws, _, result = enacted
    assert_queries_match_reference(build_gtm(result.megamodel, ws))


def test_origin_location_tie_goes_to_earlier_start():
    # [0,10) and [5,15) overlap without nesting and have equal length;
    # [12,14) lies inside [5,15) only.
    g = spans_map([(0, 10), (5, 15), (12, 14)])
    expected = {0: 0, 4: 0, 5: 0, 9: 0, 10: 5, 11: 5, 12: 12, 13: 12, 14: 5}
    for offset, start in expected.items():
        assert origin_track(g, location=("gen.c", offset)).anchor.start_byte == start
    with pytest.raises(LocationOutsideSpans):
        origin_track(g, location=("gen.c", 15))
    with pytest.raises(LocationOutsideSpans):
        origin_track(g, location=("other.c", 5))
    assert_queries_match_reference(g)


# ---------------------------------------------------------------------------
# The query index is not part of the value
# ---------------------------------------------------------------------------

def test_queried_and_fresh_maps_compare_equal(enacted):
    ws, _, result = enacted
    queried, fresh = build_gtm(result.megamodel, ws), build_gtm(result.megamodel, ws)
    text = repr(fresh)
    span = next(n for n in queried.nodes if isinstance(n, CodeNode))
    change_impact(queried, ElemNode("Input.pim.model.json", "wsn[0].device[0]"))
    origin_track(queried, location=(span.file_uri, span.start_byte))
    export_dot(slice_around(queried, span, 1))
    assert queried == fresh
    assert hash(queried) == hash(fresh)
    assert repr(queried) == repr(fresh) == text


def test_hand_built_map_answers_queries():
    g = GlobalTraceMap(frozenset(), frozenset())
    with pytest.raises(LocationOutsideSpans):
        origin_track(g, location=("gen.c", 0))
    assert g == GlobalTraceMap(frozenset(), frozenset())


# sha256 of export_dot(slice_around(g, n, r)) over every node n of the
# bundled GTM, in node_key order, as written before the query index existed.
DOT_SLICE_DIGESTS = {
    0: "8a31949526c7f89f6602578aa8ebd8c0b4d7bc784c539f66636ef637e40cad9a",
    1: "4c6250dbf68ffd9f0620591fc3dd3c520a720f1c9e78e3e919b2e6e6063c72c7",
    2: "a54ca4497f22d45f848d7c9324cbf6e4f5086a666591f84cc73231b4df1e945e",
    3: "06ab486b5a7c1241a66ff51097243fa7e6a6903949b40e94cc915db2f923ea3a",
}


@pytest.mark.parametrize("radius", sorted(DOT_SLICE_DIGESTS))
def test_export_dot_slices_are_unchanged(enacted, radius):
    ws, _, result = enacted
    g = build_gtm(result.megamodel, ws)
    text = "".join(export_dot(slice_around(g, n, radius)) for n in sorted(g.nodes, key=node_key))
    assert hashlib.sha256(text.encode()).hexdigest() == DOT_SLICE_DIGESTS[radius]


# sha256 of `tracelink gtm dot`, whole and sliced, on copies of the enacted
# workspace whose MapContiki output model is kept, deleted, or replaced by a
# JSON array; the last two draw that model's edges dashed.
AROUND = "Input.pim.model.json:indirect[0].indirectdevice[0]"
GTM_DOT_DIGESTS = {
    ("kept", None): "9b70a0196f05a524184ff84541ce1d70aa9a23110f9c72de26aca569515bcde7",
    ("deleted", None): "9eedbb6c002ec305330333930192cd2da00a67ee684be7e440ececc0734c74da",
    ("array", None): "9eedbb6c002ec305330333930192cd2da00a67ee684be7e440ececc0734c74da",
    ("deleted", AROUND): "dd4fcdaa12d75d349619ab23e50f2f181e92f51d68596a9d3b595d9145b75f16",
}


@pytest.mark.parametrize("model, around", list(GTM_DOT_DIGESTS),
                         ids=lambda v: {None: "whole", AROUND: "around"}.get(v, v))
def test_gtm_dot_output_is_unchanged(enacted, tmp_path, model, around):
    ws, _, result = enacted
    clone = tmp_path / "clone"
    shutil.copytree(ws, clone)
    (clone / "megamodel.json").write_text(save_megamodel(result.megamodel), encoding="utf-8")
    if model == "deleted":
        (clone / CONTIKI).unlink()
    elif model == "array":
        (clone / CONTIKI).write_text("[]", encoding="utf-8")
    args = ["gtm", "dot", *(("--around", around) if around else ())]
    dot = CliRunner().invoke(cli, args, env={"TRACELINK_WORKSPACE": str(clone)}, catch_exceptions=False)
    assert dot.exit_code == 0
    assert ("style=dashed" in dot.output) == (model != "kept")
    assert hashlib.sha256(dot.output.encode()).hexdigest() == GTM_DOT_DIGESTS[model, around]


def test_gtm_dot_around_parses_only_the_models_it_draws(enacted, tmp_path, monkeypatch):
    from tracelink import gtm, model

    clone, mgm, g = clone_of(enacted, tmp_path)
    (clone / "megamodel.json").write_text(save_megamodel(mgm), encoding="utf-8")
    parsed = []
    original = model._read_model
    monkeypatch.setattr(gtm, "_read_model", lambda *a, **kw: parsed.append(kw["uri"]) or original(*a, **kw))
    dot = CliRunner().invoke(cli, ["gtm", "dot", "--around", AROUND, "--radius", "1"],
                             env={"TRACELINK_WORKSPACE": str(clone)}, catch_exceptions=False)
    assert dot.exit_code == 0
    # The anchor and its one-step neighbours, read off the whole map's edges.
    anchor = ElemNode(*AROUND.split(":"))
    edges = [e for e in g.edges if anchor in (e.src, e.dst)]
    drawn = {anchor, *(n for e in edges for n in (e.src, e.dst))}
    assert dot.output.count(" -> ") == len(edges) == 1
    assert sorted(parsed) == sorted({n.model_uri for n in drawn if isinstance(n, ElemNode)})


def test_gtm_dot_decodes_each_model_document_once(enacted, tmp_path, monkeypatch):
    clone, mgm, _ = clone_of(enacted, tmp_path)
    (clone / "megamodel.json").write_text(save_megamodel(mgm), encoding="utf-8")
    documents = sorted(read_text(clone, r.uri) for r in mgm.of_kind(ResourceKind.MODEL))
    decoded, original = [], json.loads
    monkeypatch.setattr(json, "loads", lambda text, **kw: decoded.append(text) or original(text, **kw))
    dot = CliRunner().invoke(cli, ["gtm", "dot"], env={"TRACELINK_WORKSPACE": str(clone)}, catch_exceptions=False)
    assert dot.exit_code == 0 and len(documents) == 5
    assert sorted(text for text in decoded if text in documents) == documents


def test_dangling_endpoints_are_listed_once_in_node_order(enacted, tmp_path):
    clone, mgm, enacted_map = clone_of(enacted, tmp_path)
    gone = ("out/MapRIOT/riot.model.json", CONTIKI)
    for uri in gone:
        (clone / uri).unlink()
    g = build_gtm(mgm, clone)
    assert g == enacted_map
    dangling = dangling_endpoints(g, mgm, clone)
    assert len(dangling) == 10
    assert list(dangling) == elements_of(g, *gone)
    assert dangling == {n: f"model not loadable: [Errno 2] No such file or directory: '{clone / n.model_uri}'"
                        for n in dangling}


def test_model_that_is_no_object_dangles(enacted, tmp_path):
    clone, mgm, enacted_map = clone_of(enacted, tmp_path)
    (clone / CONTIKI).write_text("[]", encoding="utf-8")
    g = build_gtm(mgm, clone)
    assert g == enacted_map
    dangling = dangling_endpoints(g, mgm, clone)
    assert list(dangling) == elements_of(g, CONTIKI) != []
    assert set(dangling.values()) == {"model not loadable: model document must be an object"}


def _set(key, value):
    def change(doc):
        doc[key] = value
    return change


def _drop_source_b(doc):
    doc["root"]["collections"]["networks"][0]["collections"]["platforms"].pop()


@pytest.mark.parametrize("change, reason, path", [
    (_set("metamodel", "Nope"), "metamodel 'Nope' is not registered", None),
    (_set("metamodel", [1]), "metamodel '[1]' is not registered", None),
    (_set("root", 0), "model not loadable: root: element must be an object", None),
    (_drop_source_b, "path does not resolve", "networks[0].platforms[1]"),
], ids=["unregistered", "unhashable-name", "not-conforming", "path-gone"])
def test_dangling_endpoint_reasons(enacted, tmp_path, change, reason, path):
    """Each reason but an unreadable file or a document that is no object,
    which the tests above check; ``path`` is the one endpoint that dangles,
    or None where every endpoint in the model does."""
    clone, mgm, enacted_map = clone_of(enacted, tmp_path)
    doc = json.loads((clone / CONTIKI).read_text(encoding="utf-8"))
    change(doc)
    (clone / CONTIKI).write_text(json.dumps(doc), encoding="utf-8")
    g = build_gtm(mgm, clone)
    assert g == enacted_map
    expected = elements_of(g, CONTIKI) if path is None else [ElemNode(CONTIKI, path)]
    dangling = dangling_endpoints(g, mgm, clone)
    assert dangling == dict.fromkeys(expected, reason)
    assert list(dangling) == expected != []


# ---------------------------------------------------------------------------
# Query outputs, pinned
# ---------------------------------------------------------------------------

def cyclic_chain(root: Path):
    """A three-hop chain into code whose last model links back to its first:
    one trace edited by hand so that a[1] -> b[1] -> c[1] -> a[1], plus a
    self-loop on b[0]."""
    mgm, _ = write_chain(root, [
        [(("a.model.json", f"items[{i}]"), ("b.model.json", f"items[{i % 2}]")) for i in range(3)],
        [(("b.model.json", "items[0]"), ("c.model.json", "items[0]")),
         (("b.model.json", "items[1]"), ("c.model.json", "items[1]"))],
        [(("c.model.json", "items[0]"), CodeSpan("gen.c", 0, 8, 1, 1)),
         (("c.model.json", "items[1]"), CodeSpan("gen.c", 2, 5, 1, 3))],
    ])
    trace_file = root / "traces/Step1.trace.json"
    data = json.loads(trace_file.read_text(encoding="utf-8"))
    data["links"] += [
        {"sources": [{"model": "c.model.json", "path": "items[1]"}], "tags": {"rule": "back"},
         "targets": [{"model": "a.model.json", "path": "items[1]"}]},
        {"sources": [{"model": "b.model.json", "path": "items[0]"}], "tags": {"rule": "self"},
         "targets": [{"model": "b.model.json", "path": "items[0]"}]},
    ]
    trace_file.write_text(json.dumps(data), encoding="utf-8")
    return mgm


def query_digest(mgm, root: Path) -> str:
    """sha256 over the impact report, text then JSON, of every element node,
    and the origin report of every code span's start byte, in node order;
    each from the map ``query_gtm`` reads for the anchor's artifact."""
    from tracelink.gtm import query_gtm
    from tracelink.model import canonical_json

    digest = hashlib.sha256()
    for node in sorted(build_gtm(mgm, root).nodes, key=node_key):
        if isinstance(node, ElemNode):
            report = change_impact(query_gtm(mgm, root, node.model_uri, forward=True), node)
        else:
            g = query_gtm(mgm, root, node.file_uri, forward=False)
            report = origin_track(g, location=(node.file_uri, node.start_byte))
        digest.update(report.rendered.encode())
        digest.update(canonical_json(report_json(report)).encode())
    return digest.hexdigest()


# Written before the query index was built in the join.
QUERY_DIGESTS = {
    "enacted": "f672e8c3f19aeea462d37ba9b604882a0804d9befe1275ec906800002774a685",
    "random": "78a613a46b1567162c9cbf2587a0b16820b7a622a9f3585e5965701e202ab2ea",
    "cyclic": "5559fb8891d3517b58d2674cd49fa459bc6b08c6d83472cfcc4c7051e670a2aa",
}


@pytest.mark.parametrize("case", sorted(QUERY_DIGESTS))
def test_query_outputs_are_unchanged(enacted, tmp_path, case):
    if case == "enacted":
        root, mgm = enacted[0], enacted[2].megamodel
    elif case == "random":
        root, (mgm, _) = tmp_path, write_chain(tmp_path, random_chain(random.Random(7)))
    else:
        root, mgm = tmp_path, cyclic_chain(tmp_path)
    assert query_digest(mgm, root) == QUERY_DIGESTS[case]


# ---------------------------------------------------------------------------
# The walk against brute force, on hand-drawn traces
# ---------------------------------------------------------------------------

ELEMENTS = [ElemNode(f"m{i}.model.json", f"items[{j}]") for i in range(2) for j in range(3)]
SPANS = [CodeNode("gen.c", start, start + size, 1, start + 1) for start, size in ((0, 4), (2, 2), (5, 3))]
TAGS = [{"rule": "r"}, {"rule": "s"}, {"template": "t"}, {"rule": "r", "template": "t"}, {}]


@st.composite
def drawn_traces(draw):
    """Two or three traces over six elements and three spans. Links may
    have several sources and targets, loop back or onto themselves; the
    first link is repeated in the last trace, under another transformation."""
    link = st.builds(
        lambda sources, targets, tags: TraceLink(tuple(sources), tuple(targets), tags),
        st.lists(st.sampled_from(ELEMENTS), min_size=1, max_size=3),
        st.one_of(st.lists(st.sampled_from(ELEMENTS), min_size=1, max_size=3),
                  st.lists(st.sampled_from(SPANS), min_size=1, max_size=3)),
        st.sampled_from(TAGS))
    stages = draw(st.lists(st.lists(link, max_size=5), min_size=2, max_size=3))
    stages[-1].append(draw(link) if not stages[0] else stages[0][0])
    return [LocalTraceModel(f"trace:T{i}", f"T{i}", i + 1, tuple(links)) for i, links in enumerate(stages)]


def reference_slice(g, around, radius):
    """The nodes within ``radius`` undirected steps of ``around``, and the
    edges between them, by scans of every edge."""
    nodes, frontier = {around}, {around}
    for _ in range(radius):
        frontier = {b for e in g.edges for a, b in ((e.src, e.dst), (e.dst, e.src)) if a in frontier} - nodes
        nodes |= frontier
    return GlobalTraceMap(frozenset(nodes), frozenset(e for e in g.edges if e.src in nodes and e.dst in nodes))


@settings(max_examples=150, deadline=None)
@given(drawn_traces())
def test_walks_match_brute_force_on_drawn_traces(traces):
    g = _join(traces)[0]
    assert g.edges == {GtmEdge(s, t, trace.transformation_id, link.tags.get("rule") or link.tags.get("template") or "")
                       for trace in traces for link in trace.links for s in link.sources for t in link.targets}
    assert g.nodes == {n for e in g.edges for n in (e.src, e.dst)}
    hand = GlobalTraceMap(g.nodes, g.edges)
    assert g == hand and hash(g) == hash(hand) and repr(g) == repr(hand)
    assert g == _join(traces)[0] != GlobalTraceMap(frozenset(), frozenset())
    for m in (g, hand):
        for node in sorted(m.nodes, key=node_key):
            assert change_impact(m, node).layers == reference_layers(g, node, forward=True)
            assert origin_track(m, anchor=node).layers == reference_layers(g, node, forward=False)
            for radius in range(4):
                assert slice_around(m, node, radius) == reference_slice(g, node, radius)
        for offset in range(10):
            expected = reference_enclosing(g, "gen.c", offset)
            if expected is None:
                with pytest.raises(LocationOutsideSpans):
                    origin_track(m, location=("gen.c", offset))
            else:
                assert origin_track(m, location=("gen.c", offset)).anchor == expected
