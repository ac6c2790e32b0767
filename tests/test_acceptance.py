"""Acceptance gate: one test per shipping criterion, each printing a
PASS/FAIL line. Expected values come from independent oracles computed
here, never from the code paths under test."""

import hashlib
import json
import random
import time
from pathlib import Path

import pytest

from tracelink import gtm
from tracelink.m2c import augment_template, parse_template, render, render_traced
from tracelink.m2m import augment_m2m, execute_m2m, parse_m2m
from tracelink.megamodel import ResourceKind, ResourceOrigin, discover, load_megamodel, save_megamodel
from tracelink.model import parse_metamodel, parse_model, serialize_metamodel, serialize_model
from tracelink.paths import parse_path
from tracelink.trace import build_identifier_tree, load_trace, save_trace

import templates as tf
from chains import closure_oracle, node_key, random_chain, write_chain
from conftest import WORKSPACE_FIXTURE, copy_workspace, run_enactment
from worlds import random_world

M2M_FIXTURES = ("MapContiki.m2m", "MapArduino.m2m", "MapRIOT.m2m", "MapDataCollector.m2m")
M2C_FIXTURES = ("GenContiki.m2c", "GenArduino.m2c", "GenRIOT.m2c", "GenGateway.m2c")


def report(criterion, detail):
    print(f"PASS {criterion}: {detail}")


def workspace_metamodels():
    return {
        "PIMM": parse_metamodel((WORKSPACE_FIXTURE / "PIMM.mm.json").read_text()),
        "PSMM": parse_metamodel((WORKSPACE_FIXTURE / "PSMM.mm.json").read_text()),
    }


# -----------------------------------------------------------------------------
# 1. Semantics preservation (M2M)
# -----------------------------------------------------------------------------

def test_criterion_1_semantics_preservation():
    started = time.perf_counter()
    checked = 0

    for seed in range(20):
        metamodels, text, model = random_world(seed)
        t = parse_m2m(text, metamodels)
        plain, _ = execute_m2m(t, {"src": model}, metamodels, "out.model.json")
        augmented, _ = execute_m2m(augment_m2m(t), {"src": model}, metamodels, "out.model.json")
        assert serialize_model(plain) == serialize_model(augmented), f"seed {seed}"
        checked += 1

    mms = workspace_metamodels()
    input_pim = parse_model((WORKSPACE_FIXTURE / "Input.pim.model.json").read_text(),
                            mms["PIMM"], uri="Input.pim.model.json")
    for name in M2M_FIXTURES:
        t = parse_m2m((WORKSPACE_FIXTURE / name).read_text(), mms)
        plain, _ = execute_m2m(t, {"pim": input_pim}, mms, "out.model.json")
        augmented, _ = execute_m2m(augment_m2m(t), {"pim": input_pim}, mms, "out.model.json")
        assert serialize_model(plain) == serialize_model(augmented), name
        checked += 1

    elapsed = time.perf_counter() - started
    assert elapsed < 10.0, f"took {elapsed:.2f}s"
    report("criterion 1", f"semantics preservation on {checked} transformation/model pairs "
                          f"({elapsed:.2f}s)")


# -----------------------------------------------------------------------------
# 2. Strip-equivalence (M2C)
# -----------------------------------------------------------------------------

def test_criterion_2_strip_equivalence(tmp_path):
    started = time.perf_counter()
    cases = [
        (tf.LOOP_TEMPLATE, tf.list_model(["a", "b"]), tf.ALL_METAMODELS),
        (tf.LOOP_TEMPLATE, tf.list_model([]), tf.ALL_METAMODELS),
        (tf.COND_TEMPLATE, tf.plat_model(True), tf.ALL_METAMODELS),
        (tf.COND_TEMPLATE, tf.plat_model(False), tf.ALL_METAMODELS),
        (tf.NESTED_TEMPLATE, tf.filters_model(), tf.ALL_METAMODELS),
        (tf.PURE_TEXT_TEMPLATE, tf.list_model(["a"]), tf.ALL_METAMODELS),
    ]
    mms = workspace_metamodels()
    ws = copy_workspace(tmp_path)
    _, result = run_enactment(ws)
    psm_by_action = {
        "GenContiki.m2c": "out/MapContiki/contiki.model.json",
        "GenArduino.m2c": "out/MapArduino/arduino.model.json",
        "GenRIOT.m2c": "out/MapRIOT/riot.model.json",
        "GenGateway.m2c": "out/MapDataCollector/gateway.model.json",
    }
    for name in M2C_FIXTURES:
        model = parse_model((ws / psm_by_action[name]).read_text(), mms["PSMM"],
                            uri=psm_by_action[name])
        cases.append(((WORKSPACE_FIXTURE / name).read_text(), model, mms))

    for source, model, metamodels in cases:
        t = parse_template(source, metamodels)
        plain = render(t, model)
        assert render(augment_template(t), model) == plain  # a render writes no marker
        clean, annotated, trace = render_traced(t, model, model.uri, t.name)
        assert clean == plain  # byte-exact strip-equivalence
        # strict nesting: replay the marker scan with a plain stack; it also
        # re-derives each region's clean byte span, for the trace's links
        spans = _assert_strict_nesting(annotated, t.marker_open, t.marker_close)
        assert spans == [(str(link.sources[0].path), link.targets[0].start_byte, link.targets[0].end_byte)
                         for link in trace.links]

    elapsed = time.perf_counter() - started
    assert elapsed < 5.0, f"took {elapsed:.2f}s"
    report("criterion 2", f"strip-equivalence on {len(cases)} template/model pairs ({elapsed:.2f}s)")


def _assert_strict_nesting(text, opener, closer):
    """Check that the markers in ``text`` nest; return each region's payload
    (without the template parameter) and clean byte span, in open order.
    Holds only where no model value contains a delimiter."""
    end_token = opener + "/" + closer
    spans = []
    stack = []
    clean_bytes = 0
    i = 0
    while i < len(text):
        if text.startswith(end_token, i):
            assert stack, "close without open"
            spans[stack.pop()][2] = clean_bytes
            i += len(end_token)
        elif text.startswith(opener, i):
            j = text.find(closer, i)
            assert j != -1, "unterminated marker"
            _, dot, path = text[i + len(opener):j].partition(".")
            stack.append(len(spans))
            spans.append([path if dot else "root", clean_bytes, None])
            i = j + len(closer)
        else:
            clean_bytes += len(text[i].encode("utf-8"))
            i += 1
    assert not stack, "unclosed markers remain"
    return [tuple(span) for span in spans]


# -----------------------------------------------------------------------------
# 3. Trace identifier tree fidelity
# -----------------------------------------------------------------------------

def test_criterion_3_identifier_tree_fidelity():
    tree = build_identifier_tree([parse_path("filters[0].sections[1]"),
                                  parse_path("filters[1].sections[0]")])
    # Two-level, two-branch structure.
    root = tree.root
    assert sorted(root.children) == [("filters", 0), ("filters", 1)]
    for key, section in ((("filters", 0), ("sections", 1)), (("filters", 1), ("sections", 0))):
        branch = root.children[key]
        assert not branch.terminal
        assert list(branch.children) == [section]
        assert branch.children[section].terminal
        assert not branch.children[section].children
    assert {str(p) for p in tree.paths()} == {"filters[0].sections[1]", "filters[1].sections[0]"}

    rng = random.Random(31415)
    for _ in range(1000):
        paths = []
        for _ in range(rng.randint(0, 12)):
            text = ".".join(f"{rng.choice('abcdef')}[{rng.randint(0, 4)}]" for _ in range(rng.randint(1, 5)))
            paths.append(parse_path(text))
        assert set(build_identifier_tree(paths).paths()) == set(paths)
    report("criterion 3", "two-branch tree reproduced; 1000 random path sets round-trip")


# -----------------------------------------------------------------------------
# 4. GTM correctness
# -----------------------------------------------------------------------------

def _gtm_reachability(g):
    actual = set()
    for node in g.nodes:
        for layer in gtm.change_impact(g, node).layers:
            for reached in layer:
                actual.add((node_key(node), node_key(reached)))
    return actual


def _bundled_raw_pairs(ws, mgm):
    pairs = []
    for res in mgm.of_kind(ResourceKind.TRACE_MODEL):
        data = json.loads((ws / res.uri).read_text())
        for link in data["links"]:
            for s in link["sources"]:
                for t in link["targets"]:
                    src = ("elem", s["model"], s["path"])
                    tgt = ("elem", t["model"], t["path"]) if "model" in t else \
                        ("code", t["file"], t["startByte"], t["endByte"])
                    pairs.append((src, tgt))
    return pairs


def test_criterion_4_gtm_reachability(tmp_path):
    started = time.perf_counter()

    ws = copy_workspace(tmp_path)
    _, result = run_enactment(ws)
    g = gtm.build_gtm(result.megamodel, ws)
    oracle = closure_oracle(_bundled_raw_pairs(ws, result.megamodel))
    assert _gtm_reachability(g) == oracle

    rng = random.Random(271828)
    chains = 0
    for case in range(12):
        root = tmp_path / f"chain{case}"
        links = random_chain(rng)
        mgm, raw_pairs = write_chain(root, links)
        g = gtm.build_gtm(mgm, root)
        assert _gtm_reachability(g) == closure_oracle(raw_pairs), f"chain {case}"
        chains += 1

    elapsed = time.perf_counter() - started
    assert elapsed < 30.0, f"took {elapsed:.2f}s"
    report("criterion 4", f"GTM reachability equals brute-force composition on the bundled chain "
                          f"and {chains} random chains ({elapsed:.2f}s)")


# -----------------------------------------------------------------------------
# 5. Impact/origin duality
# -----------------------------------------------------------------------------

def test_criterion_5_impact_origin_duality(tmp_path):
    graphs = []
    ws = copy_workspace(tmp_path)
    _, result = run_enactment(ws)
    graphs.append(gtm.build_gtm(result.megamodel, ws))
    rng = random.Random(1618)
    for case in range(4):
        root = tmp_path / f"dual{case}"
        mgm, _ = write_chain(root, random_chain(rng))
        graphs.append(gtm.build_gtm(mgm, root))

    pairs_checked = 0
    for g in graphs:
        nodes = sorted(g.nodes, key=node_key)
        impacts = {
            n: {x for layer in gtm.change_impact(g, n).layers for x in layer} for n in nodes}
        origins = {
            n: {x for layer in gtm.origin_track(g, anchor=n).layers for x in layer} for n in nodes}
        for a in nodes:
            for b in nodes:
                assert (b in impacts[a]) == (a in origins[b])
                pairs_checked += 1
    report("criterion 5", f"duality holds for {pairs_checked} node pairs over {len(graphs)} graphs")


# -----------------------------------------------------------------------------
# 6. Desk-scale case-study reproduction
# -----------------------------------------------------------------------------

def test_criterion_6_case_study_reproduction(tmp_path):
    started = time.perf_counter()
    ws = copy_workspace(tmp_path)
    _, result = run_enactment(ws)
    mgm = result.megamodel

    generated_models = [r for r in mgm.of_kind(ResourceKind.MODEL)
                        if r.origin == ResourceOrigin.GENERATED]
    assert len(generated_models) == 4
    assert len(mgm.of_kind(ResourceKind.GENERATED_FILE)) == 4
    assert len(mgm.of_kind(ResourceKind.TRACE_MODEL)) == 8

    # Oracle for the sink span: locate the generated line by substring search
    # and derive line/col/offsets arithmetically, independent of the tracer.
    sink = (ws / "out/GenContiki/Sink.c").read_bytes()
    region = b'  "sink-0@10.0.0.1",\n'
    start = sink.find(region)
    assert start != -1
    end = start + len(region)
    line = sink.count(b"\n", 0, start) + 1
    col = start - (sink.rfind(b"\n", 0, start) + 1) + 1

    stored = json.loads((ws / "traces/GenContiki.trace.json").read_text())
    sink_links = [l for l in stored["links"]
                  if l["sources"][0]["path"] == "networks[1].platforms[0]"]
    assert len(sink_links) == 1
    target = sink_links[0]["targets"][0]
    assert (target["startByte"], target["endByte"]) == (start, end)
    assert (target["startLine"], target["startCol"]) == (line, col)

    g = gtm.build_gtm(mgm, ws)
    anchor = gtm.ElemNode("Input.pim.model.json", "indirect[0].indirectdevice[0]")
    impact = gtm.change_impact(g, anchor)
    assert impact.rendered == (
        "Input.pim.model.json:indirect[0].indirectdevice[0]\n"
        "=> out/MapContiki/contiki.model.json:networks[1].platforms[0]\n"
        f"==> out/GenContiki/Sink.c:{line}:{col}\n"
    )

    origin = gtm.origin_track(g, location=("out/GenContiki/Sink.c", start))
    assert origin.rendered == (
        f"out/GenContiki/Sink.c:{line}:{col}\n"
        "=> out/MapContiki/contiki.model.json:networks[1].platforms[0]\n"
        "==> Input.pim.model.json:indirect[0].indirectdevice[0]\n"
    )

    elapsed = time.perf_counter() - started
    assert elapsed < 10.0, f"took {elapsed:.2f}s"
    report("criterion 6", f"4 PSMs + 4 files + 8 traces; impact and origin chains reproduce "
                          f"the case-study shape at {line}:{col} ({elapsed:.2f}s)")


# -----------------------------------------------------------------------------
# 7. Enactment determinism
# -----------------------------------------------------------------------------

def _workspace_digest(ws: Path, mgm) -> dict:
    digest = {}
    for rel in ("out", "traces"):
        base = ws / rel
        for path in sorted(base.rglob("*")):
            if path.is_file():
                digest[path.relative_to(ws).as_posix()] = hashlib.sha256(path.read_bytes()).hexdigest()
    digest["megamodel"] = hashlib.sha256(save_megamodel(mgm).encode()).hexdigest()
    return digest


def test_criterion_7_enactment_determinism(tmp_path):
    digests = []
    for run in range(5):
        ws = copy_workspace(tmp_path / f"run{run}")
        _, result = run_enactment(ws)
        digests.append(_workspace_digest(ws, result.megamodel))
    ws = copy_workspace(tmp_path / "shuffled")
    _, result = run_enactment(ws, action_order=lambda stage: list(reversed(stage)))
    digests.append(_workspace_digest(ws, result.megamodel))

    assert all(d == digests[0] for d in digests[1:])
    report("criterion 7", f"5 repeat runs plus a shuffled-stage run produced "
                          f"{len(digests[0])} identical files")


# -----------------------------------------------------------------------------
# 8. Round-trip stability
# -----------------------------------------------------------------------------

def test_criterion_8_round_trip_stability(tmp_path):
    ws = copy_workspace(tmp_path)
    checked = 0

    for name in ("PIMM.mm.json", "PSMM.mm.json"):
        mm = parse_metamodel((ws / name).read_text())
        assert parse_metamodel(serialize_metamodel(mm)) == mm
        assert serialize_metamodel(parse_metamodel(serialize_metamodel(mm))) == serialize_metamodel(mm)
        checked += 1

    discovered = discover(ws)
    assert load_megamodel(save_megamodel(discovered)) == discovered
    checked += 1

    _, result = run_enactment(ws)
    assert load_megamodel(save_megamodel(result.megamodel)) == result.megamodel
    checked += 1

    mms = workspace_metamodels()
    model_uris = ["Input.pim.model.json"] + [
        r.uri for r in result.megamodel.of_kind(ResourceKind.MODEL)
        if r.origin == ResourceOrigin.GENERATED]
    for uri in model_uris:
        mm = mms[json.loads((ws / uri).read_text())["metamodel"]]
        model = parse_model((ws / uri).read_text(), mm, uri=uri)
        assert parse_model(serialize_model(model), mm, uri=uri) == model
        checked += 1

    for res in result.megamodel.of_kind(ResourceKind.TRACE_MODEL):
        trace = load_trace((ws / res.uri).read_text())
        assert load_trace(save_trace(trace)) == trace
        checked += 1

    report("criterion 8", f"save/load identity held for {checked} artifacts")
