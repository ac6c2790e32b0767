import json
import os
import subprocess
import sys
from pathlib import Path

import pytest
from click.testing import CliRunner

import tracelink
from tracelink.cli import cli

from conftest import copy_workspace


@pytest.fixture
def runner():
    return CliRunner()


def invoke(runner, ws, *args, **kwargs):
    return runner.invoke(cli, list(args), env={"TRACELINK_WORKSPACE": str(ws)},
                         catch_exceptions=False, **kwargs)


@pytest.fixture
def enacted_ws(tmp_path, runner):
    ws = copy_workspace(tmp_path)
    assert invoke(runner, ws, "discover", str(ws)).exit_code == 0
    result = invoke(runner, ws, "enact", "wsn-iot.proc.json", "--bind", "pim=Input.pim.model.json")
    assert result.exit_code == 0, result.output
    return ws


def test_discover_empty_directory(tmp_path, runner):
    empty = tmp_path / "empty"
    empty.mkdir()
    result = invoke(runner, empty, "discover", str(empty))
    assert result.exit_code == 0
    assert "registered 0 resources" in result.output
    assert (empty / "megamodel.json").exists()


def test_discover_counts(tmp_path, runner):
    ws = copy_workspace(tmp_path)
    result = invoke(runner, ws, "discover", str(ws))
    assert result.exit_code == 0
    assert "Metamodel: 2" in result.output
    assert "TransformationM2M: 4" in result.output
    assert "registered 12 resources" in result.output


def test_discover_missing_directory(tmp_path, runner):
    result = runner.invoke(cli, ["discover", str(tmp_path / "nope")])
    assert result.exit_code == 1


def test_enact_writes_artifacts_and_summary(enacted_ws):
    ws = enacted_ws
    assert (ws / "out/GenContiki/Sink.c").exists()
    assert len(list((ws / "traces").glob("*.trace.json"))) == 8
    summary = json.loads((ws / "out/enactment.json").read_text())
    assert summary["process"] == "wsn-iot"
    assert summary["stages"] == [
        ["MapArduino", "MapContiki", "MapDataCollector", "MapRIOT"],
        ["GenArduino", "GenContiki", "GenGateway", "GenRIOT"],
    ]
    assert len(summary["traces"]) == 8


def test_enact_twice_is_stable(enacted_ws, runner):
    ws = enacted_ws
    first = (ws / "megamodel.json").read_bytes()
    sink_first = (ws / "out/GenContiki/Sink.c").read_bytes()
    result = invoke(runner, ws, "enact", "wsn-iot.proc.json", "--bind", "pim=Input.pim.model.json")
    assert result.exit_code == 0, result.output
    assert (ws / "megamodel.json").read_bytes() == first
    assert (ws / "out/GenContiki/Sink.c").read_bytes() == sink_first


def test_enact_does_not_depend_on_the_hash_seed(tmp_path):
    # Scheduling and registration work on sets, and only a new interpreter
    # can change the hash seed.
    env = {key: value for key, value in os.environ.items() if key != "TRACELINK_WORKSPACE"}
    env["PYTHONPATH"] = str(Path(tracelink.__file__).resolve().parent.parent)
    runs = []
    for seed in ("0", "1"):
        ws = copy_workspace(tmp_path / seed)
        stdout = b""
        for args in (["discover", "."], ["enact", "wsn-iot.proc.json", "--bind", "pim=Input.pim.model.json"]):
            done = subprocess.run([sys.executable, "-c", "from tracelink.cli import main; main()", *args],
                                  cwd=ws, env={**env, "PYTHONHASHSEED": seed}, capture_output=True, check=True)
            stdout += done.stdout
        files = {path.relative_to(ws).as_posix(): path.read_bytes() for path in ws.rglob("*") if path.is_file()}
        runs.append((stdout, files))
    assert b"registered 16 artifacts, 8 traces" in runs[0][0]
    assert runs[0] == runs[1]


def test_enact_missing_binding_names_pin(tmp_path, runner):
    ws = copy_workspace(tmp_path)
    invoke(runner, ws, "discover", str(ws))
    result = invoke(runner, ws, "enact", "wsn-iot.proc.json")
    assert result.exit_code == 1
    assert "pim" in result.output


def test_enact_respects_lock(tmp_path, runner):
    ws = copy_workspace(tmp_path)
    invoke(runner, ws, "discover", str(ws))
    (ws / ".tracelink.lock").write_text("")
    result = invoke(runner, ws, "enact", "wsn-iot.proc.json", "--bind", "pim=Input.pim.model.json")
    assert result.exit_code == 1
    assert "enactment" in result.output


def test_enact_reads_and_writes_the_megamodel_under_the_lock(tmp_path, runner, monkeypatch):
    from tracelink import cli as cli_module
    from tracelink import megamodel

    ws = copy_workspace(tmp_path)
    invoke(runner, ws, "discover", str(ws))
    lock = ws / ".tracelink.lock"
    held = {}
    real_load, real_write = megamodel.load_megamodel, cli_module.write_text

    def load_megamodel(text):
        held["load"] = lock.exists()
        return real_load(text)

    def write_text(root, uri, text):
        held[uri] = lock.exists()
        real_write(root, uri, text)

    monkeypatch.setattr(megamodel, "load_megamodel", load_megamodel)
    monkeypatch.setattr(cli_module, "write_text", write_text)
    result = invoke(runner, ws, "enact", "wsn-iot.proc.json", "--bind", "pim=Input.pim.model.json")
    assert result.exit_code == 0, result.output
    assert held == {"load": True, "megamodel.json": True, "out/enactment.json": True}
    assert not lock.exists()


def test_enact_schedules_the_process_once(tmp_path, runner, monkeypatch):
    from tracelink import process

    ws = copy_workspace(tmp_path)
    invoke(runner, ws, "discover", str(ws))
    plans = []
    real_schedule = process.schedule

    def schedule(p):
        plans.append(real_schedule(p))
        return plans[-1]

    monkeypatch.setattr(process, "schedule", schedule)
    result = invoke(runner, ws, "enact", "wsn-iot.proc.json", "--bind", "pim=Input.pim.model.json")
    assert result.exit_code == 0, result.output
    assert len(plans) == 1
    summary = json.loads((ws / "out/enactment.json").read_text())
    assert summary["stages"] == [list(stage) for stage in plans[0].stages]


def test_enact_no_augment(tmp_path, runner):
    ws = copy_workspace(tmp_path)
    invoke(runner, ws, "discover", str(ws))
    result = invoke(runner, ws, "enact", "wsn-iot.proc.json",
                    "--bind", "pim=Input.pim.model.json", "--no-augment")
    assert result.exit_code == 0
    assert not (ws / "traces").exists()
    assert (ws / "out/GenContiki/Sink.c").exists()


def test_impact_text_report(enacted_ws, runner):
    result = invoke(runner, enacted_ws, "impact", "Input.pim.model.json",
                    "indirect[0].indirectdevice[0]")
    assert result.exit_code == 0
    lines = result.output.splitlines()
    assert lines[0] == "Input.pim.model.json:indirect[0].indirectdevice[0]"
    assert lines[1] == "=> out/MapContiki/contiki.model.json:networks[1].platforms[0]"
    assert lines[2].startswith("==> out/GenContiki/Sink.c:")
    assert (enacted_ws / "out/reports/impact.txt").read_text() == result.output


def test_impact_json_report(enacted_ws, runner):
    result = invoke(runner, enacted_ws, "impact", "Input.pim.model.json",
                    "indirect[0].indirectdevice[0]", "--format", "json")
    assert result.exit_code == 0
    data = json.loads(result.output)
    assert data["kind"] == "impact"
    assert data["anchor"]["path"] == "indirect[0].indirectdevice[0]"
    assert len(data["layers"]) == 2


def test_impact_typo_suggests_nearest_path(enacted_ws, runner):
    result = invoke(runner, enacted_ws, "impact", "Input.pim.model.json",
                    "indirect[0].indirectdevce[0]")
    assert result.exit_code == 1
    assert "did you mean 'indirect[0].indirectdevice[0]'" in result.output


@pytest.mark.parametrize("path_text", ["wsn[\u00b2]", "wsn[\u0663]"], ids=["superscript-two", "arabic-indic-three"])
def test_impact_rejects_an_index_of_non_ascii_digits(enacted_ws, runner, path_text):
    assert_one_line_error(invoke(runner, enacted_ws, "impact", "Input.pim.model.json", path_text))


def test_origin_by_line_col(enacted_ws, runner):
    result = invoke(runner, enacted_ws, "origin", "out/GenContiki/Sink.c", "9:3")
    assert result.exit_code == 0
    lines = result.output.splitlines()
    assert lines[0].startswith("out/GenContiki/Sink.c:9:1")
    assert lines[1] == "=> out/MapContiki/contiki.model.json:networks[1].platforms[0]"
    assert lines[2] == "==> Input.pim.model.json:indirect[0].indirectdevice[0]"
    assert (enacted_ws / "out/reports/origin.txt").exists()


def test_origin_by_byte_offset(enacted_ws, runner):
    clean = (enacted_ws / "out/GenContiki/Sink.c").read_bytes()
    offset = clean.find(b'"sink-0')
    result = invoke(runner, enacted_ws, "origin", "out/GenContiki/Sink.c", f"@{offset}")
    assert result.exit_code == 0
    assert "indirect[0].indirectdevice[0]" in result.output


def test_origin_outside_spans(enacted_ws, runner):
    result = invoke(runner, enacted_ws, "origin", "out/GenContiki/Sink.c", "1:1")
    assert result.exit_code == 1


def assert_one_line_error(result):
    assert result.exit_code == 1
    assert len(result.output.splitlines()) == 1 and result.output.startswith("error: ")


@pytest.mark.parametrize("location", ["5:30", "5:19", "5:0", "0:1", "a:b", "5:x", "@x", "nocolon"])
def test_origin_rejects_bad_locations(enacted_ws, runner, location):
    # Line 5 of Sink.c holds 17 bytes and its newline: columns 1 to 18.
    assert len((enacted_ws / "out/GenContiki/Sink.c").read_bytes().split(b"\n")[4]) == 17
    assert_one_line_error(invoke(runner, enacted_ws, "origin", "out/GenContiki/Sink.c", location))


def test_origin_column_counts_within_its_line(enacted_ws, runner):
    clean = (enacted_ws / "out/GenContiki/Sink.c").read_bytes()
    offset = clean.find(b'"sink-0')
    line, col = clean[:offset].count(b"\n") + 1, offset - clean.rfind(b"\n", 0, offset)
    by_col = invoke(runner, enacted_ws, "origin", "out/GenContiki/Sink.c", f"{line}:{col}")
    by_byte = invoke(runner, enacted_ws, "origin", "out/GenContiki/Sink.c", f"@{offset}")
    assert by_col.exit_code == 0 and by_col.output == by_byte.output


@pytest.mark.parametrize("around", ["nocolon", "out/GenContiki/Sink.c@x"])
def test_gtm_dot_rejects_malformed_anchors(enacted_ws, runner, around):
    assert_one_line_error(invoke(runner, enacted_ws, "gtm", "dot", "--around", around))


def test_mgm_show_and_dot(enacted_ws, runner):
    shown = invoke(runner, enacted_ws, "mgm", "show")
    assert shown.exit_code == 0
    assert "resources: 28  relations: 37" in shown.output
    dot = invoke(runner, enacted_ws, "mgm", "dot")
    assert dot.exit_code == 0
    assert dot.output.startswith("digraph megamodel {")
    as_json = invoke(runner, enacted_ws, "mgm", "show", "--format", "json")
    assert json.loads(as_json.output)["resources"]


def test_gtm_dot_with_slice(enacted_ws, runner):
    full = invoke(runner, enacted_ws, "gtm", "dot")
    assert full.exit_code == 0
    sliced = invoke(runner, enacted_ws, "gtm", "dot", "--around",
                    "Input.pim.model.json:indirect[0].indirectdevice[0]", "--radius", "2")
    assert sliced.exit_code == 0
    assert len(sliced.output.splitlines()) < len(full.output.splitlines())
    assert "Sink.c" in sliced.output


def test_gtm_dot_flags_a_model_that_is_no_object(enacted_ws, runner):
    (enacted_ws / "out/MapContiki/contiki.model.json").write_text("[]", encoding="utf-8")
    dot = invoke(runner, enacted_ws, "gtm", "dot")
    assert dot.exit_code == 0
    assert "style=dashed" in dot.output
    origin = invoke(runner, enacted_ws, "origin", "out/GenContiki/Sink.c", "9:1")
    assert origin.exit_code == 0 and "Input.pim.model.json" in origin.output


def test_trace_show(enacted_ws, runner):
    result = invoke(runner, enacted_ws, "trace", "show",
                    str(enacted_ws / "traces/MapContiki.trace.json"))
    assert result.exit_code == 0
    assert "rule=Device2Platform" in result.output
    as_json = invoke(runner, enacted_ws, "trace", "show",
                     str(enacted_ws / "traces/MapContiki.trace.json"), "--format", "json")
    assert json.loads(as_json.output)["id"] == "trace:MapContiki"



def _rewrite_json(path, change):
    doc = json.loads(path.read_text(encoding="utf-8"))
    change(doc)
    path.write_text(json.dumps(doc), encoding="utf-8")


@pytest.mark.parametrize("change", [
    lambda t: t.update(links=[1]),
    lambda t: t.update(links="x"),
    lambda t: t["links"][0].update(tags=[1]),
    lambda t: t["links"][0].update(tags="x"),
    lambda t: t["links"][0]["tags"].update(template=1),
    lambda t: t["links"][0]["sources"][0].update(model=0),
], ids=["links-of-int", "links-string", "tags-list", "tags-string", "tag-value-int", "source-model-int"])
def test_mistyped_trace_is_a_one_line_error(enacted_ws, runner, change):
    trace_file = enacted_ws / "traces/GenRIOT.trace.json"
    _rewrite_json(trace_file, change)
    assert_one_line_error(invoke(runner, enacted_ws, "trace", "show", str(trace_file)))
    assert_one_line_error(invoke(runner, enacted_ws, "gtm", "dot"))


@pytest.mark.parametrize("field, value", [("startByte", 1.5), ("endByte", True), ("startLine", "x")])
def test_span_field_that_is_no_integer_is_a_one_line_error(enacted_ws, runner, field, value):
    trace_file = enacted_ws / "traces/GenRIOT.trace.json"
    _rewrite_json(trace_file, lambda t: t["links"][0]["targets"][0].update({field: value}))
    assert_one_line_error(invoke(runner, enacted_ws, "trace", "show", str(trace_file)))
    assert_one_line_error(invoke(runner, enacted_ws, "origin", "out/GenRIOT/Riot.c", "@3"))


@pytest.mark.parametrize("key", ["nodes", "controlEdges", "objectEdges"])
def test_discover_rejects_a_process_field_that_is_no_list(tmp_path, runner, key):
    ws = copy_workspace(tmp_path)
    _rewrite_json(ws / "wsn-iot.proc.json", lambda d: d.update({key: 0}))
    result = invoke(runner, ws, "discover", str(ws))
    assert_one_line_error(result)
    assert f"'{key}' must be a list" in result.output


@pytest.mark.parametrize("key", ["attributes", "collections", "references"])
def test_enact_rejects_a_metamodel_field_that_is_no_list(enacted_ws, runner, key):
    _rewrite_json(enacted_ws / "PIMM.mm.json", lambda d: d["classes"][0].update({key: 0}))
    result = invoke(runner, enacted_ws, "enact", "wsn-iot.proc.json", "--bind", "pim=Input.pim.model.json")
    assert_one_line_error(result)
    assert f"'{key}' must be a list" in result.output


def test_augment_m2m_writes_augmented_file(tmp_path, runner):
    ws = copy_workspace(tmp_path)
    result = invoke(runner, ws, "augment-m2m", str(ws / "MapContiki.m2m"))
    assert result.exit_code == 0
    out = ws / "MapContiki.m2m.aug.m2m"
    assert out.exists()
    assert "traced" in out.read_text()


@pytest.mark.parametrize("skipped", [".backup", "out", "traces"])
@pytest.mark.parametrize("command, file", [("augment-m2m", "MapContiki.m2m"), ("augment-m2c", "GenContiki.m2c")])
def test_file_local_commands_read_only_the_metamodels_discovery_registers(tmp_path, runner, skipped, command, file):
    ws = copy_workspace(tmp_path)
    (ws / skipped).mkdir()
    (ws / skipped / "PIMM.mm.json").write_bytes((ws / "PIMM.mm.json").read_bytes())
    (ws / skipped / "PSMM.mm.json").write_text("not json", encoding="utf-8")
    result = invoke(runner, ws, command, str(ws / file))
    assert result.exit_code == 0, result.output


def test_augment_m2c_writes_augmented_file(tmp_path, runner):
    ws = copy_workspace(tmp_path)
    result = invoke(runner, ws, "augment-m2c", str(ws / "GenContiki.m2c"))
    assert result.exit_code == 0
    out = ws / "GenContiki.m2c.aug.m2c"
    assert out.exists()
    assert "{{" in out.read_text() and "path(" in out.read_text()


def test_run_m2m_with_augmented_file_writes_trace(tmp_path, runner):
    ws = copy_workspace(tmp_path)
    invoke(runner, ws, "augment-m2m", str(ws / "MapContiki.m2m"))
    result = invoke(runner, ws, "run-m2m", str(ws / "MapContiki.m2m.aug.m2m"),
                    "--in", "pim=Input.pim.model.json", "--out", "contiki.model.json")
    assert result.exit_code == 0, result.output
    assert (ws / "contiki.model.json").exists()
    assert (ws / "contiki.model.json.trace.json").exists()


def test_run_m2m_bare_writes_no_trace(tmp_path, runner):
    ws = copy_workspace(tmp_path)
    result = invoke(runner, ws, "run-m2m", str(ws / "MapContiki.m2m"),
                    "--in", "pim=Input.pim.model.json", "--out", "plain.model.json")
    assert result.exit_code == 0
    assert (ws / "plain.model.json").exists()
    assert not (ws / "plain.model.json.trace.json").exists()


def test_run_m2c_produces_clean_annotated_and_trace(tmp_path, runner):
    ws = copy_workspace(tmp_path)
    invoke(runner, ws, "run-m2m", str(ws / "MapContiki.m2m"),
           "--in", "pim=Input.pim.model.json", "--out", "contiki.model.json")
    result = invoke(runner, ws, "run-m2c", str(ws / "GenContiki.m2c"),
                    "--in", "contiki.model.json", "--out", "gen")
    assert result.exit_code == 0, result.output
    assert (ws / "gen/Sink.c").exists()
    assert (ws / "gen/Sink.c.annotated").exists()
    assert (ws / "traces/Sink.c.trace.json").exists()
    clean = (ws / "gen/Sink.c").read_text()
    annotated = (ws / "gen/Sink.c.annotated").read_text()
    assert "{{" not in clean and "{{" in annotated


def test_version_flag(runner):
    result = runner.invoke(cli, ["--version"])
    assert result.exit_code == 0
    assert "tracelink" in result.output
