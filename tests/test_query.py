"""Megamodel-directed queries: ``tracelink impact``/``origin`` read only the
traces their answer can reach, answer exactly as the whole map does, and
import only the query modules."""

import importlib
import json
import os
import random
import shutil
import subprocess
import sys
from pathlib import Path

import pytest
from click.testing import CliRunner

import tracelink
from tracelink import gtm, megamodel
from tracelink.cli import _suggest_anchor, cli
from tracelink.errors import AnchorNotFound, LocationOutsideSpans
from tracelink.gtm import ElemNode, build_gtm, change_impact, origin_track, query_gtm, report_json
from tracelink.megamodel import RelationKind, ResourceKind, load_metamodels
from tracelink.model import canonical_json, iter_elements, parse_model
from tracelink.paths import parse_path
from tracelink.workspace import read_text

from chains import random_chain, write_chain
from conftest import copy_workspace, run_enactment

SRC = Path(__file__).resolve().parent.parent / "src"
SINK = "out/GenContiki/Sink.c"
PIM = "Input.pim.model.json"


def misspelled(path_text: str) -> str:
    """The path with its last segment's name changed: a near miss."""
    head, bracket, tail = path_text.rpartition("[")
    return f"{head}x{bracket}{tail}" if bracket else path_text + "x"


def impact_answer(g, model_uri: str, path_text: str):
    """What ``tracelink impact`` prints from map ``g``: text and JSON, or its error."""
    try:
        report = change_impact(g, ElemNode(model_uri, str(parse_path(path_text))))
    except AnchorNotFound as exc:
        return str(exc) + _suggest_anchor(g, model_uri, path_text)
    return report.rendered, canonical_json(report_json(report))


def origin_answer(g, file_uri: str, offset: int):
    """What ``tracelink origin FILE @OFFSET`` prints from map ``g``."""
    try:
        report = origin_track(g, location=(file_uri, offset))
    except LocationOutsideSpans as exc:
        return str(exc)
    return report.rendered, canonical_json(report_json(report))


def assert_scoped_answers_equal_full(mgm, root, impact_anchors, origin_files):
    """Every impact anchor and every byte of every file (one before and
    two past its last span too) answers from the scoped map as from the
    whole one."""
    full = build_gtm(mgm, root)
    for model_uri, path_texts in impact_anchors.items():
        g = query_gtm(mgm, root, model_uri, forward=True)
        for path_text in path_texts:
            for text in (path_text, misspelled(path_text)):
                assert impact_answer(g, model_uri, text) == impact_answer(full, model_uri, text)
    for file_uri, size in origin_files.items():
        g = query_gtm(mgm, root, file_uri, forward=False)
        for offset in range(-1, size + 2):
            assert origin_answer(g, file_uri, offset) == origin_answer(full, file_uri, offset)


def model_paths(mgm, root) -> dict[str, list[str]]:
    metamodels, _ = load_metamodels(mgm, root)
    out = {}
    for res in mgm.of_kind(ResourceKind.MODEL):
        text = read_text(root, res.uri)
        m = parse_model(text, metamodels[json.loads(text)["metamodel"]], uri=res.uri)
        out[res.uri] = [str(path) for path, _ in iter_elements(m)]
    return out


def test_scoped_answers_equal_full_map_on_bundled_workspace(enacted):
    ws, _, result = enacted
    mgm = result.megamodel
    anchors = model_paths(mgm, ws)
    anchors["nowhere.model.json"] = ["items[0]"]  # no registered artifact: the fallback
    files = {res.uri: len((ws / res.uri).read_bytes()) for res in mgm.of_kind(ResourceKind.GENERATED_FILE)}
    assert sum(map(len, anchors.values())) == 32 and sum(files.values()) > 600
    assert_scoped_answers_equal_full(mgm, ws, anchors, files)


@pytest.mark.parametrize("seed", range(40))
def test_scoped_answers_equal_full_map_on_random_chains(tmp_path, seed):
    # Chain megamodels register no models and no DataFlow: every query falls back.
    mgm, _ = write_chain(tmp_path, random_chain(random.Random(seed)))
    full = build_gtm(mgm, tmp_path)
    anchors: dict[str, list[str]] = {}
    ends: dict[str, int] = {}
    for node in full.nodes:
        if isinstance(node, ElemNode):
            anchors.setdefault(node.model_uri, []).append(node.path)
        else:
            ends[node.file_uri] = max(ends.get(node.file_uri, 0), node.end_byte)
    assert megamodel.trace_scope(mgm, next(iter(anchors)), True) is None
    assert_scoped_answers_equal_full(mgm, tmp_path, anchors, ends)


# ---------------------------------------------------------------------------
# Through the CLI
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def enacted_ws(tmp_path_factory):
    ws = copy_workspace(tmp_path_factory.mktemp("query"))
    _, result = run_enactment(ws)
    (ws / "megamodel.json").write_text(megamodel.save_megamodel(result.megamodel), encoding="utf-8")
    return ws


def run(ws, *args):
    result = CliRunner().invoke(cli, list(args), env={"TRACELINK_WORKSPACE": str(ws)})
    return result.exit_code, result.output


def run_full(ws, monkeypatch, *args):
    """The command's exit status and output when it queries the whole map."""
    with monkeypatch.context() as patch:
        patch.setattr(gtm, "query_gtm", lambda mgm, root, uri, forward: build_gtm(mgm, root))
        return run(ws, *args)


def cli_cases(ws):
    mgm = megamodel.load_megamodel(read_text(ws, "megamodel.json"))
    for model_uri, path_texts in model_paths(mgm, ws).items():
        for path_text in path_texts:
            yield "impact", model_uri, path_text
        yield "impact", model_uri, misspelled(path_texts[-1])
    full = build_gtm(mgm, ws)
    for res in mgm.of_kind(ResourceKind.GENERATED_FILE):
        offsets = {-1, 0, len((ws / res.uri).read_bytes())}
        for node in full.code_spans[res.uri][2]:
            offsets |= {node.start_byte, node.end_byte - 1, node.end_byte}
        for offset in sorted(offsets):
            yield "origin", res.uri, f"@{offset}"


def test_cli_answers_equal_full_map(enacted_ws, monkeypatch):
    cases = list(cli_cases(enacted_ws))
    assert len(cases) == 72  # 31 elements, 5 near misses, 36 span bounds and file ends
    statuses = set()
    for case in cases:
        for fmt in ("text", "json"):
            directed = run(enacted_ws, *case, "--format", fmt)
            assert directed == run_full(enacted_ws, monkeypatch, *case, "--format", fmt), case
            statuses.add(directed[0])
    assert statuses == {0, 1}  # answers, and AnchorNotFound / LocationOutsideSpans


def test_only_text_output_renders(enacted_ws, monkeypatch):
    def refuse(anchor, layers):
        raise AssertionError(f"rendered the report of {anchor}")

    monkeypatch.setattr(gtm, "_render", refuse)
    g = build_gtm(megamodel.load_megamodel(read_text(enacted_ws, "megamodel.json")), enacted_ws)
    impact = change_impact(g, ElemNode(PIM, "indirect[0].indirectdevice[0]"))
    origin = origin_track(g, location=(SINK, (enacted_ws / SINK).read_bytes().find(b'"sink-0')))
    assert impact.layers and origin.layers
    assert run(enacted_ws, "impact", PIM, "indirect[0].indirectdevice[0]", "--format", "json")[0] == 0
    assert run(enacted_ws, "origin", SINK, "9:1", "--format", "json")[0] == 0
    with pytest.raises(AssertionError, match="rendered the report"):
        impact.rendered


def count_reads(monkeypatch):
    counts = {"load_trace": 0, "parse_model": 0}
    for name in counts:
        real = getattr(gtm, name)

        def counted(*args, _name=name, _real=real, **kwargs):
            counts[_name] += 1
            return _real(*args, **kwargs)

        monkeypatch.setattr(gtm, name, counted)
    return counts


def test_origin_reads_only_the_traces_it_can_reach(enacted_ws, monkeypatch):
    counts = count_reads(monkeypatch)
    status, output = run(enacted_ws, "origin", SINK, "9:1")
    assert status == 0 and "Input.pim.model.json:indirect[0].indirectdevice[0]" in output
    assert counts == {"load_trace": 2, "parse_model": 0}


def test_impact_parses_no_model(enacted_ws, monkeypatch):
    counts = count_reads(monkeypatch)
    status, output = run(enacted_ws, "impact", PIM, "indirect[0].indirectdevice[0]")
    assert status == 0 and SINK in output
    assert counts == {"load_trace": 8, "parse_model": 0}


def clone_of(ws, tmp_path):
    clone = tmp_path / "clone"
    shutil.copytree(ws, clone)
    return clone


def edited_trace(ws, tmp_path, edit):
    """A copy of ``ws`` whose GenContiki trace ``edit`` changed in place."""
    clone = clone_of(ws, tmp_path)
    trace_file = clone / "traces/GenContiki.trace.json"
    data = json.loads(trace_file.read_text(encoding="utf-8"))
    edit(data["links"][-1])
    trace_file.write_text(canonical_json(data), encoding="utf-8")
    return clone, data


def edited_megamodel(ws, tmp_path, keep):
    clone = clone_of(ws, tmp_path)
    mgm = megamodel.load_megamodel(read_text(clone, "megamodel.json"))
    dropped = megamodel.Megamodel(mgm.resources, frozenset(r for r in mgm.relations if keep(r)))
    assert dropped.relations != mgm.relations
    (clone / "megamodel.json").write_text(megamodel.save_megamodel(dropped), encoding="utf-8")
    return clone


FALLBACKS = {
    "no TraceFor": lambda r: not (r.kind == RelationKind.TRACE_FOR and "GenContiki" in r.from_id),
    "no DataFlow output": lambda r: not (r.kind == RelationKind.DATA_FLOW
                                         and r.from_id == "TransformationM2M:MapContiki.m2m"),
    "no DataFlow input": lambda r: not (r.kind == RelationKind.DATA_FLOW
                                        and r.to_id == "TransformationM2C:GenContiki.m2c"),
}


@pytest.mark.parametrize("case", sorted(FALLBACKS))
def test_unplaced_trace_falls_back_to_every_trace(enacted_ws, tmp_path, monkeypatch, case):
    ws = edited_megamodel(enacted_ws, tmp_path, FALLBACKS[case])
    counts = count_reads(monkeypatch)
    for args in (("origin", SINK, "9:1"), ("impact", PIM, "indirect[0].indirectdevice[0]"),
                 ("impact", "out/MapContiki/contiki.model.json", "networks[1].platforms[0]")):
        counts["load_trace"] = 0
        directed = run(ws, *args)
        assert counts["load_trace"] == 8
        assert directed == run_full(ws, monkeypatch, *args) and directed[0] == 0


def test_unregistered_anchor_falls_back_to_every_trace(enacted_ws, monkeypatch):
    counts = count_reads(monkeypatch)
    for args in (("impact", "nowhere.model.json", "items[0]"),
                 ("origin", SINK + ".annotated", "@0")):  # on disk, not registered
        counts["load_trace"] = 0
        directed = run(enacted_ws, *args)
        assert counts["load_trace"] == 8
        assert directed == run_full(enacted_ws, monkeypatch, *args) and directed[0] == 1


@pytest.mark.parametrize("model_uri", ["ghost.model.json", "out/MapRIOT/riot.model.json"])
def test_trace_linking_outside_its_inputs_falls_back(enacted_ws, tmp_path, monkeypatch, model_uri):
    # GenContiki reads contiki.model.json; one of its links now names an
    # unregistered model, or a model of another branch, whose origin only
    # MapRIOT's trace holds.
    clone, data = edited_trace(enacted_ws, tmp_path, lambda link: link.update(
        sources=[{"model": model_uri, "path": "networks[0].platforms[0]"}]))
    counts = count_reads(monkeypatch)
    outputs = []
    for link in data["links"]:
        counts["load_trace"] = 0
        location = f"@{link['targets'][0]['startByte']}"
        outputs.append(run(clone, "origin", SINK, location))
        assert counts["load_trace"] == 2 + 8  # the scope's, then every trace
        assert outputs[-1] == run_full(clone, monkeypatch, "origin", SINK, location)
    assert any(f"=> {model_uri}:networks[0].platforms[0]" in output for _, output in outputs)


def test_trace_linking_outside_its_outputs_falls_back(enacted_ws, tmp_path, monkeypatch):
    # A GenContiki link now targets an element of the RIOT branch, which
    # only GenRIOT's trace carries on to code.
    clone, data = edited_trace(enacted_ws, tmp_path, lambda link: link.update(
        targets=[{"model": "out/MapRIOT/riot.model.json", "path": "networks[0].platforms[0]"}]))
    source = data["links"][-1]["sources"][0]
    counts = count_reads(monkeypatch)
    directed = run(clone, "impact", source["model"], source["path"])
    assert counts["load_trace"] == 2 + 8  # the scope's, then every trace
    assert directed == run_full(clone, monkeypatch, "impact", source["model"], source["path"])
    assert "==> out/GenRIOT/Riot.c:" in directed[1]


def test_corrupt_trace_off_the_path_is_not_read(enacted_ws, tmp_path):
    clone = clone_of(enacted_ws, tmp_path)
    (clone / "traces/GenRIOT.trace.json").write_text("{", encoding="utf-8")
    assert run(clone, "origin", SINK, "9:1")[0] == 0
    status, output = run(clone, "gtm", "dot")
    assert status == 1 and output.startswith("error: ")


# ---------------------------------------------------------------------------
# Imports
# ---------------------------------------------------------------------------

HEAVY = ("tracelink.m2c", "tracelink.m2m", "tracelink.process")
# Imports tracelink.cli, runs the command given, if any, and prints the
# modules then loaded.
LOADED = """
import json, sys
from tracelink.cli import cli
if sys.argv[1:]:
    try:
        cli.main(sys.argv[1:], prog_name="tracelink")
    except SystemExit as exc:
        assert not exc.code, exc.code
print(json.dumps(sorted(m for m in sys.modules if m.startswith("tracelink.") or m == "difflib")))
"""


def loaded_modules(*args, cwd=None) -> list[str]:
    env = dict(os.environ, PYTHONPATH=str(SRC))
    env.pop("TRACELINK_WORKSPACE", None)
    out = subprocess.run([sys.executable, "-c", LOADED, *args], cwd=cwd, env=env,
                         capture_output=True, text=True, check=True).stdout
    return json.loads(out.splitlines()[-1])


def test_query_commands_import_only_the_query_modules(enacted_ws):
    modules = loaded_modules()
    assert not set(modules) & {*HEAVY, "difflib"}
    for args in (("impact", PIM, "indirect[0].indirectdevice[0]"), ("origin", SINK, "9:1")):
        modules = loaded_modules(*args, cwd=enacted_ws)
        assert not set(modules) & set(HEAVY), args
        assert "tracelink.gtm" in modules


# The package's public names, each of which its lazy imports must bind.
PUBLIC = [
    "TracelinkError", "ElementPath", "parse_path", "Metamodel",
    "Model", "Element", "Violation", "parse_metamodel", "serialize_metamodel", "parse_model",
    "serialize_model", "check_conformance", "resolve_path", "Megamodel",
    "ResourceEntry", "Relation", "ResourceKind", "ResourceOrigin", "discover", "register",
    "save_megamodel", "load_megamodel", "TransformationM2M", "parse_m2m", "print_m2m",
    "execute_m2m", "augment_m2m", "strip_m2m", "execute_augmented_m2m", "Template",
    "parse_template", "print_template", "render", "augment_template", "strip_template",
    "render_traced", "TraceLink", "LocalTraceModel",
    "ElementRef", "CodeSpan", "TraceIdentifierTree", "build_identifier_tree", "save_trace",
    "load_trace", "ProcessModel", "ExecutionPlan", "EnactmentResult", "parse_process",
    "schedule", "enact", "GlobalTraceMap", "build_gtm", "change_impact", "origin_track",
    "export_dot",
]


def test_star_import_binds_every_public_name_to_its_definition():
    assert tracelink.__all__ == PUBLIC
    namespace: dict = {}
    exec("from tracelink import *", namespace)
    for name in PUBLIC:
        value = namespace[name]
        assert value is getattr(importlib.import_module(value.__module__), name), name
        assert value.__module__.startswith("tracelink.")
    assert importlib.import_module("tracelink.gtm") is tracelink.gtm
    with pytest.raises(AttributeError):
        tracelink.no_such_name
