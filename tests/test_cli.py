import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import pytest
from click.testing import CliRunner

import tracelink
from tracelink import model
from tracelink.cli import cli
from tracelink.trace import load_trace

from conftest import NODE_KIDS_MM, chain_document, copy_workspace


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


def test_discover_reports_json_nested_past_the_decoder_limit(tmp_path, runner):
    (tmp_path / "x.model.json").write_text("[" * 5000 + "]" * 5000, encoding="utf-8")
    result = invoke(runner, tmp_path, "discover", str(tmp_path))
    assert_one_line_error(result)
    assert result.output == "error: x.model.json: JSON nested too deeply\n"


def test_discover_reports_a_model_one_level_past_the_depth_limit(tmp_path, runner):
    (tmp_path / "DeepMM.mm.json").write_text(json.dumps(NODE_KIDS_MM), encoding="utf-8")
    (tmp_path / "at.model.json").write_text(chain_document(320), encoding="utf-8")
    assert invoke(runner, tmp_path, "discover", str(tmp_path)).exit_code == 0
    past = chain_document(320, ', "collections": {"kids": []}')
    (tmp_path / "past.model.json").write_text(past, encoding="utf-8")
    result = invoke(runner, tmp_path, "discover", str(tmp_path))
    assert_one_line_error(result)
    assert result.output == "error: past.model.json: JSON nested too deeply\n"


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


def test_written_documents_never_reach_the_json_fallback(tmp_path, runner, monkeypatch):
    """``canonical_json`` sends a document holding any value of a type it
    does not write (an ``ElementPath``, say) to ``json.dumps``, which writes
    the same bytes 2.5 times slower. Every writer passes plain types."""

    def dumps(*args, **kwargs):
        raise AssertionError("canonical_json fell back to json.dumps")

    monkeypatch.setattr(model, "json", SimpleNamespace(**{**vars(json), "dumps": dumps}))
    ws = copy_workspace(tmp_path)
    for args in (
        ("discover", str(ws)),
        ("enact", "wsn-iot.proc.json", "--bind", "pim=Input.pim.model.json"),
        ("impact", "Input.pim.model.json", "indirect[0].indirectdevice[0]", "--format", "json"),
        ("origin", "out/GenContiki/Sink.c", "9:1", "--format", "json"),
        ("trace", "show", str(ws / "traces/MapContiki.trace.json"), "--format", "json"),
    ):
        result = invoke(runner, ws, *args)
        assert result.exit_code == 0, result.output


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


def test_impact_reads_a_root_prefixed_path_as_the_path_itself(enacted_ws, runner):
    plain = invoke(runner, enacted_ws, "impact", "Input.pim.model.json", "indirect[0].indirectdevice[0]")
    prefixed = invoke(runner, enacted_ws, "impact", "Input.pim.model.json", "root.indirect[0].indirectdevice[0]")
    assert prefixed.exit_code == plain.exit_code == 0
    assert prefixed.stdout_bytes == plain.stdout_bytes


def test_enact_rejects_two_registered_metamodels_with_one_name(tmp_path, runner):
    ws = copy_workspace(tmp_path)
    assert invoke(runner, ws, "discover", str(ws)).exit_code == 0
    pimm = json.loads((ws / "PIMM.mm.json").read_text())
    pimm["classes"].append({"name": "Extra"})
    (ws / "zz-PIMM.mm.json").write_text(json.dumps(pimm))
    mgm = json.loads((ws / "megamodel.json").read_text())
    mgm["resources"].append(
        {"id": "Metamodel:zz-PIMM.mm.json", "kind": "Metamodel", "origin": "Discovered", "uri": "zz-PIMM.mm.json"})
    (ws / "megamodel.json").write_text(json.dumps(mgm))
    result = invoke(runner, ws, "enact", "wsn-iot.proc.json", "--bind", "pim=Input.pim.model.json")
    assert_one_line_error(result)
    assert "metamodel 'PIMM' is defined by more than one file" in result.output
    assert not (ws / "out").exists()


@pytest.mark.parametrize("command", ["discover", "augment-m2m", "enact"])
def test_a_metamodel_without_a_name_fails_every_command_naming_its_file(tmp_path, runner, command):
    ws = copy_workspace(tmp_path)
    assert invoke(runner, ws, "discover", str(ws)).exit_code == 0
    (ws / "notes.mm.json").write_text('{"classes": []}')
    mgm = json.loads((ws / "megamodel.json").read_text())
    mgm["resources"].append(
        {"id": "Metamodel:notes.mm.json", "kind": "Metamodel", "origin": "Discovered", "uri": "notes.mm.json"})
    (ws / "megamodel.json").write_text(json.dumps(mgm))
    args = {"discover": [str(ws)], "augment-m2m": [str(ws / "MapContiki.m2m")],
            "enact": ["wsn-iot.proc.json", "--bind", "pim=Input.pim.model.json"]}[command]
    result = invoke(runner, ws, command, *args)
    assert_one_line_error(result)
    assert result.output == "error: notes.mm.json: metamodel needs a string 'name'\n"


@pytest.mark.parametrize("path_text", ["wsn[\u00b2]", "wsn[\u0663]"], ids=["superscript-two", "arabic-indic-three"])
def test_impact_rejects_an_index_of_non_ascii_digits(enacted_ws, runner, path_text):
    assert_one_line_error(invoke(runner, enacted_ws, "impact", "Input.pim.model.json", path_text))


@pytest.mark.parametrize("args, message", [
    (["impact", "Input.pim.model.json", "a..b"], "expected identifier at offset 2"),
    (["impact", "Input.pim.model.json", "wsn[\u00b2]"], "expected index at offset 4"),
    (["origin", "out/GenContiki/Sink.c", "9:x"], "location must be LINE:COL or @BYTE, got '9:x'"),
    (["origin", "out/GenContiki/Sink.c", "@2_00"], "location must be LINE:COL or @BYTE, got '@2_00'"),
], ids=["path-dots", "path-index", "location-col", "location-byte"])
def test_a_malformed_query_argument_fails_before_any_trace_is_read(enacted_ws, runner, args, message):
    for trace_file in (enacted_ws / "traces").glob("*.trace.json"):
        trace_file.write_text("{oops", encoding="utf-8")
    result = invoke(runner, enacted_ws, *args)
    assert result.exit_code == 1 and result.output == f"error: {message}\n"


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


def test_origin_checks_a_byte_location_as_it_checks_a_line_and_column(enacted_ws, runner):
    # Either form names a byte of an existing file: the file must exist, and
    # @BYTE must lie before its end.
    missing = [invoke(runner, enacted_ws, "origin", "nonexist.c", location) for location in ("1:1", "@3")]
    for result in missing:
        assert_one_line_error(result)
        assert result.output.startswith("error: [Errno 2] No such file or directory: ")
    assert missing[0].output == missing[1].output
    size = len((enacted_ws / "out/GenContiki/Sink.c").read_bytes())
    for offset in (size, 999999):
        result = invoke(runner, enacted_ws, "origin", "out/GenContiki/Sink.c", f"@{offset}")
        assert_one_line_error(result)
        assert result.output == f"error: out/GenContiki/Sink.c has no byte {offset}\n"
    last = invoke(runner, enacted_ws, "origin", "out/GenContiki/Sink.c", f"@{size - 1}")
    assert last.output == f"error: out/GenContiki/Sink.c@{size - 1} is inside no traced span\n"


@pytest.mark.parametrize("args", [
    ["origin", "out/GenContiki/Sink.c", "@" + "9" * 5000],
    ["origin", "out/GenContiki/Sink.c", "9" * 5000 + ":1"],
    ["origin", "out/GenContiki/Sink.c", "1:" + "9" * 5000],
    ["gtm", "dot", "--around", "out/GenContiki/Sink.c@" + "9" * 5000],
], ids=["byte", "line", "column", "around-byte"])
def test_a_number_longer_than_int_reads_is_a_one_line_error(enacted_ws, runner, args):
    # 5,000 digits is past CPython's default int() limit of 4,300.
    assert_one_line_error(invoke(runner, enacted_ws, *args))


@pytest.mark.parametrize("location", ["5:30", "5:19", "5:0", "0:1", "a:b", "5:x", "@x", "nocolon"])
def test_origin_rejects_bad_locations(enacted_ws, runner, location):
    # Line 5 of Sink.c holds 17 bytes and its newline: columns 1 to 18.
    assert len((enacted_ws / "out/GenContiki/Sink.c").read_bytes().split(b"\n")[4]) == 17
    assert_one_line_error(invoke(runner, enacted_ws, "origin", "out/GenContiki/Sink.c", location))


def test_origin_location_is_ascii_digits_only(enacted_ws, runner):
    # int() reads each bad location as one of the plain ones, which are answered.
    for plain in ("9:3", "@200"):
        assert invoke(runner, enacted_ws, "origin", "out/GenContiki/Sink.c", plain).exit_code == 0
    for location in ["0_9:3", "\u0669:3", "9:+3", "9: 3", " 9:3", "9:3\n",
                     "@2_00", "@ 200", "@\u0662\u0660\u0660", "@+200", "@-1"]:
        result = invoke(runner, enacted_ws, "origin", "out/GenContiki/Sink.c", location)
        assert result.exit_code == 1, location
        assert result.output == f"error: location must be LINE:COL or @BYTE, got {location!r}\n"


def test_origin_column_counts_within_its_line(enacted_ws, runner):
    clean = (enacted_ws / "out/GenContiki/Sink.c").read_bytes()
    offset = clean.find(b'"sink-0')
    line, col = clean[:offset].count(b"\n") + 1, offset - clean.rfind(b"\n", 0, offset)
    by_col = invoke(runner, enacted_ws, "origin", "out/GenContiki/Sink.c", f"{line}:{col}")
    by_byte = invoke(runner, enacted_ws, "origin", "out/GenContiki/Sink.c", f"@{offset}")
    assert by_col.exit_code == 0 and by_col.output == by_byte.output


# int() reads each of the last four bytes as 200, an anchor whose slice is drawn.
@pytest.mark.parametrize("around", ["nocolon", "out/GenContiki/Sink.c@x", "out/GenContiki/Sink.c@2_00",
                                    "out/GenContiki/Sink.c@ 200", "out/GenContiki/Sink.c@\u0662\u0660\u0660",
                                    "out/GenContiki/Sink.c@+200"])
def test_gtm_dot_rejects_malformed_anchors(enacted_ws, runner, around):
    result = invoke(runner, enacted_ws, "gtm", "dot", "--around", around)
    assert_one_line_error(result)
    assert result.output == f"error: --around must be MODEL:PATH or FILE@BYTE, got {around!r}\n"


@pytest.mark.parametrize("args", [
    ["gtm", "dot", "--radius", "x"],
    ["impact", "Input.pim.model.json"],
    ["impact", "Input.pim.model.json", "indirect[0].indirectdevice[0]", "--format", "xml"],
    ["no-such-command"],
    ["run-m2c", "GenContiki.m2c", "--in", "contiki.model.json"],
    ["gtm", "dot", "--rad", "1"],
], ids=["radius-not-int", "impact-without-path", "unknown-format", "unknown-command",
        "run-m2c-without-out", "abbreviated-option"])
def test_usage_error_is_one_line_with_status_2(enacted_ws, runner, args):
    result = invoke(runner, enacted_ws, *args)
    assert result.exit_code == 2
    assert result.stdout == ""
    assert len(result.stderr.splitlines()) == 1 and result.stderr.startswith("error: ")


@pytest.mark.parametrize("group", [[], ["mgm"], ["gtm"], ["trace"]])
def test_bare_group_prints_its_help_on_stderr_with_status_2(runner, group):
    result = runner.invoke(cli, group)
    assert result.exit_code == 2
    assert result.stdout == "" and result.stderr.startswith(f"usage: {' '.join(['tracelink', *group])} ")


# Every help text and usage error, as (exit status, stdout, stderr), by sha256.
# argparse lays help out differently across Python versions, so they are
# pinned for the version they were recorded with.
TEXT_DIGESTS = {
    "": "bd96e32f40bbb54aad23c4c4b6e21550f9e1d7220a6a476dedf0225b42eea244",
    "--help": "e5128ea6df07c8cb3be0f1f6c89e745beb9c9c4636b2492443f4fa3510a33489",
    "augment-m2c --help": "f3cbc779d0f4e17f6ad3fcdfb158495940794d770e38c99526abae0fadd6b27f",
    "augment-m2m --help": "3302c1caf4c4d4396bb1e88456ff7ec39958d1c18cedcd1724630ae80d3743c0",
    "discover --help": "ad49b24d8f078976ef3fd503a6253f0bee093875b76a903c41855f7ea87a9f43",
    "enact --help": "7c5cbf6f8d5aaed647c36c60ce6c9c4bac205a5239e076c058fbc2372fb38e06",
    "gtm": "581c8e1fb15ccba988a509ca7c44b8e1b3b13523ce79caea480134cb4af833cc",
    "gtm --help": "56b4c92971ecf88292e36aae900c8fdfe984cb63a918463255f61bd4e1c29b0d",
    "gtm dot --help": "aabcba03fda2568d31450a293c8791e1b91705b421e26b1dd9c9acac76553daa",
    "gtm dot --rad 1": "758ec0b42847adad603c6f3007453618835b3de9070be9ab2677932bbbc28256",
    "gtm dot --radius x": "1ea1f7a7f92c69776a26c647dd4eab9a5d3b8010f7a4edbc0f2b852c378fe50c",
    "impact --help": "82f2601928790ea3e55614a034cf5f42e05778b6712172c211f599fa93e01b05",
    "impact Input.pim.model.json": "43669a94d3b2822c26bb4bbab002c04d4866782024971b30918e78d1eda85123",
    "impact Input.pim.model.json indirect[0].indirectdevice[0] --format xml": "1ec15ea285dfa117080b30d97604782562506e13aff7c376a75ebd4f847c9290",
    "mgm": "6395fc762542fb84484009b26f4e07d955ee9e957fbf6445ff3f0449c0e315fd",
    "mgm --help": "d4acdc40ebcd7359e44101a9c6df783eb2685dd028d733eaaec77e10dfd5c6a1",
    "mgm dot --help": "309c1d9bfae817ca51941eb238074eb380d7233f272114e2867a73e2e3be5b6a",
    "mgm show --help": "20e78fdf30f597451ca62b1895061bf7831b49ad5efca16e822b444c2b51c71b",
    "no-such-command": "3bab91eca21809f16a376fa5f3e6e18920d7ca11e0e52f1cebde000b27b7d622",
    "origin --help": "eeb704d1a114d44b2752d8a577f52d5a19c7b181eb9a239d3ef137ee2587581c",
    "run-m2c --help": "ea8a98c8b09b8effa75cf2fe61697c5e7cb7b95544c2f2de17648f54d9f69065",
    "run-m2c GenContiki.m2c --in contiki.model.json": "6f24d72c4beb9ba9fd096d8c8c9e16e48c9ace59a8d6c274f68cabc516a869eb",
    "run-m2m --help": "1429ad11db835055ba427a579d20b4a011f1bf9eab6d48dc314734faa3f1b762",
    "trace": "192cecfa498eb5f0987d2594cf223df6503f9614448a98c86c75a706ca4d1157",
    "trace --help": "d86ea0140f848610c1db0ddf235f1a556becfad65eb43a490f174d877c045dd3",
    "trace show --help": "79fc0101f8a0841087a6d463c851e3c40c64f7e5a805ce77c3c50fd4f3f218e3",
}


@pytest.mark.skipif(sys.version_info[:2] != (3, 11), reason="help texts recorded with Python 3.11")
@pytest.mark.parametrize("args", sorted(TEXT_DIGESTS))
def test_help_and_usage_texts_are_unchanged(runner, args):
    result = runner.invoke(cli, args.split(), env={"COLUMNS": "80"})
    assert _text_digest(result) == TEXT_DIGESTS[args]


def _text_digest(result) -> str:
    return hashlib.sha256(f"{result.exit_code}\0{result.stdout}\0{result.stderr}".encode()).hexdigest()


def test_help_lists_commands_and_options(runner):
    top = runner.invoke(cli, ["--help"])
    assert top.exit_code == 0
    for name in ["discover", "mgm", "augment-m2m", "augment-m2c", "run-m2m", "run-m2c", "enact",
                 "impact", "origin", "gtm", "trace", "--version"]:
        assert name in top.output, name
    impact = runner.invoke(cli, ["impact", "--help"])
    assert impact.exit_code == 0
    assert "MODEL_URI PATH" in impact.output and "--format" in impact.output


QUERY_RUN = """\
import sys
from tracelink.cli import cli
cli.main(sys.argv[1:], standalone_mode=False)
print(sorted({"click", "dataclasses", "inspect"} & set(sys.modules)), file=sys.stderr)
"""


def test_query_import_leaves_click_out(enacted_ws):
    """Nor does an impact or an origin query load dataclasses or inspect."""
    env = dict(os.environ, PYTHONPATH=str(Path(tracelink.__file__).resolve().parent.parent))
    done = subprocess.run([sys.executable, "-c", "import sys, tracelink.cli; print('click' in sys.modules)"],
                          env=env, capture_output=True, text=True, check=True)
    assert done.stdout == "False\n"
    env["TRACELINK_WORKSPACE"] = str(enacted_ws)
    for query in (["impact", "Input.pim.model.json", "indirect[0].indirectdevice[0]"],
                  ["origin", "out/GenContiki/Sink.c", "9:1"]):
        done = subprocess.run([sys.executable, "-c", QUERY_RUN, *query], env=env, capture_output=True, text=True,
                              check=True)
        assert "=> " in done.stdout and done.stderr == "[]\n", query


def test_importtime_lists_every_module_a_query_loads():
    """``python -X importtime`` logs every tracelink module that ``import
    tracelink.cli`` loads, so none hides inside another's own time."""
    env = dict(os.environ, PYTHONPATH=str(Path(tracelink.__file__).resolve().parent.parent))
    program = "import sys, tracelink.cli; print(*sorted(m for m in sys.modules if m.split('.')[0] == 'tracelink'))"
    done = subprocess.run([sys.executable, "-X", "importtime", "-c", program],
                          env=env, capture_output=True, text=True, check=True)
    logged = {line.rpartition("|")[2].strip() for line in done.stderr.splitlines() if line.startswith("import time:")}
    loaded = set(done.stdout.split())
    assert {"tracelink", "tracelink.cli", "tracelink.gtm"} <= loaded
    assert loaded <= logged


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


def test_relative_path_arguments_resolve_against_the_workspace(enacted_ws, runner, tmp_path, monkeypatch):
    # From a directory that is not the workspace, each command reads and
    # writes in the workspace and prints its output path as given.
    elsewhere = tmp_path / "elsewhere"
    elsewhere.mkdir()
    monkeypatch.chdir(elsewhere)
    trace_file = "traces/MapContiki.trace.json"
    shown = invoke(runner, enacted_ws, "trace", "show", trace_file)
    assert shown.exit_code == 0, shown.output
    assert shown.output == invoke(runner, enacted_ws, "trace", "show", str(enacted_ws / trace_file)).output
    for args, printed in [
        (["augment-m2m", "MapContiki.m2m"], "MapContiki.m2m.aug.m2m"),
        (["augment-m2c", "GenContiki.m2c"], "GenContiki.m2c.aug.m2c"),
        (["run-m2m", "MapContiki.m2m", "--in", "pim=Input.pim.model.json", "--out", "psm.model.json"],
         "psm.model.json"),
        (["run-m2c", "GenContiki.m2c", "--in", "psm.model.json", "--out", "gen"], "gen/Sink.c"),
    ]:
        result = invoke(runner, enacted_ws, *args)
        assert (result.exit_code, result.output) == (0, printed + "\n")
        assert (enacted_ws / printed).is_file()
    discovered = invoke(runner, enacted_ws, "discover", ".")
    assert discovered.exit_code == 0, discovered.output
    assert discovered.output == invoke(runner, enacted_ws, "discover", str(enacted_ws)).output
    assert list(elsewhere.iterdir()) == []



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


@pytest.mark.parametrize("uri, text, message", [
    ("sub/extra.proc.json", '{"nodes": []}', "process document needs a string 'name'"),
    ("sub/x.model.json", '{"metamodel": ', "Expecting value (line 1, col 15)"),
], ids=["process", "model"])
def test_discover_names_the_uri_of_a_malformed_document(tmp_path, runner, uri, text, message):
    ws = copy_workspace(tmp_path)
    (ws / "sub").mkdir()
    (ws / uri).write_text(text, encoding="utf-8")
    result = invoke(runner, ws, "discover", ".")
    assert_one_line_error(result)
    assert result.output == f"error: {uri}: {message}\n"


@pytest.mark.parametrize("args", [
    ["impact", "Input.pim.model.json", "wsn[0]"],
    ["origin", "out/GenContiki/Sink.c", "9:1"],
    ["gtm", "dot"],
], ids=["impact", "origin", "gtm-dot"])
def test_a_query_names_the_registered_trace_it_cannot_read(enacted_ws, runner, args):
    _rewrite_json(enacted_ws / "traces/GenContiki.trace.json", lambda t: t["links"][0].update(sources=[]))
    result = invoke(runner, enacted_ws, *args)
    assert_one_line_error(result)
    assert result.output == "error: traces/GenContiki.trace.json: trace link has no sources\n"


def test_a_reference_index_longer_than_int_reads_dangles(tmp_path, runner):
    # 5,000 digits is past CPython's default int() limit of 4,300.
    ws = copy_workspace(tmp_path)
    pim = ws / "Input.pim.model.json"
    pim.write_text(pim.read_text(encoding="utf-8").replace(
        '"peer": "iot[0].device[1]"', '"peer": "wsn[' + "9" * 5000 + ']"', 1), encoding="utf-8")
    assert invoke(runner, ws, "discover", ".").exit_code == 0
    result = invoke(runner, ws, "enact", "wsn-iot.proc.json", "--bind", "pim=Input.pim.model.json")
    assert_one_line_error(result)
    assert result.output.startswith("error: Input.pim.model.json: iot[0].device[0]: reference 'peer' dangles: 'wsn[999")


def test_gtm_dot_draws_a_trace_path_longer_than_int_reads_as_dangling(enacted_ws, runner):
    _rewrite_json(enacted_ws / "traces/GenContiki.trace.json",
                  lambda t: t["links"][0]["sources"][0].update(path="wsn[" + "9" * 5000 + "]"))
    dot = invoke(runner, enacted_ws, "gtm", "dot")
    assert dot.exit_code == 0
    assert "style=dashed" in dot.output


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


def _break_text(old: str, new: str):
    def edit(path):
        path.write_text(path.read_text(encoding="utf-8").replace(old, new, 1), encoding="utf-8")
    return edit


def _no_object(path):
    path.write_text("[]", encoding="utf-8")


@pytest.mark.parametrize("args, file, edit, message", [
    (["augment-m2m", "MapContiki.m2m"], "MapContiki.m2m", _break_text("rule Net {", "rule Net { #"),
     "unexpected character '#' (line 16, col 12)"),
    (["augment-m2c", "GenContiki.m2c"], "GenContiki.m2c", _break_text("[/template]", "[/templat]"),
     "emit tag must end with '/': [/templat] (line 8)"),
    (["run-m2m", "MapContiki.m2m", "--in", "pim=Input.pim.model.json", "--out", "psm.model.json"],
     "MapContiki.m2m", _break_text("rule Net {", "rule Net { #"), "unexpected character '#' (line 16, col 12)"),
    (["run-m2m", "MapContiki.m2m", "--in", "pim=Input.pim.model.json", "--out", "psm.model.json"],
     "Input.pim.model.json", _no_object, "model document must be an object"),
    (["run-m2c", "GenContiki.m2c", "--in", "out/MapContiki/contiki.model.json", "--out", "gen"],
     "GenContiki.m2c", _break_text("[/template]", "[/templat]"), "emit tag must end with '/': [/templat] (line 8)"),
    (["run-m2c", "GenContiki.m2c", "--in", "out/MapContiki/contiki.model.json", "--out", "gen"],
     "out/MapContiki/contiki.model.json", _no_object, "model document must be an object"),
    (["trace", "show", "traces/GenContiki.trace.json"], "traces/GenContiki.trace.json",
     lambda path: _rewrite_json(path, lambda d: d["links"][0].update(sources=[])), "trace link has no sources"),
], ids=["augment-m2m", "augment-m2c", "run-m2m", "run-m2m-model", "run-m2c", "run-m2c-model", "trace-show"])
def test_a_file_local_command_names_the_file_it_cannot_read(enacted_ws, runner, args, file, edit, message):
    edit(enacted_ws / file)
    result = invoke(runner, enacted_ws, *args)
    assert_one_line_error(result)
    assert result.output.startswith(f"error: {file}: {message}")


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
    assert (ws / "gen/Sink.c.trace.json").exists()
    assert not (ws / "traces").exists()
    clean = (ws / "gen/Sink.c").read_text()
    annotated = (ws / "gen/Sink.c.annotated").read_text()
    assert "{{" not in clean and "{{" in annotated


def test_run_m2c_of_the_augmented_template_writes_what_the_template_does(tmp_path, runner):
    ws = copy_workspace(tmp_path)
    invoke(runner, ws, "run-m2m", str(ws / "MapContiki.m2m"),
           "--in", "pim=Input.pim.model.json", "--out", "contiki.model.json")
    assert invoke(runner, ws, "augment-m2c", str(ws / "GenContiki.m2c")).exit_code == 0
    written = []
    for template in ("GenContiki.m2c", "GenContiki.m2c.aug.m2c"):
        result = invoke(runner, ws, "run-m2c", str(ws / template), "--in", "contiki.model.json", "--out", "gen")
        assert result.exit_code == 0, result.output
        written.append(((ws / "gen/Sink.c").read_bytes(), (ws / "gen/Sink.c.annotated").read_bytes(),
                        load_trace((ws / "gen/Sink.c.trace.json").read_text(encoding="utf-8")).links))
    assert written[0] == written[1]
    assert written[0][2]


def test_run_m2c_leaves_the_enacted_traces_as_they_are(enacted_ws, runner):
    # A template named after an enacted action writes its trace beside its
    # output, so the action's registered trace and the queries over it stay.
    ws = enacted_ws
    source = (ws / "GenContiki.m2c").read_text(encoding="utf-8")
    (ws / "Renamed.m2c").write_text(source.replace("[template Sink.c ", "[template GenContiki ", 1), encoding="utf-8")
    traces = {path.name: path.read_bytes() for path in (ws / "traces").iterdir()}
    origin = invoke(runner, ws, "origin", "out/GenContiki/Sink.c", "9:1")
    assert origin.exit_code == 0, origin.output
    result = invoke(runner, ws, "run-m2c", "Renamed.m2c", "--in", "out/MapContiki/contiki.model.json", "--out", "gen")
    assert (result.exit_code, result.output) == (0, "gen/GenContiki\n")
    assert {path.name: path.read_bytes() for path in (ws / "traces").iterdir()} == traces
    assert invoke(runner, ws, "origin", "out/GenContiki/Sink.c", "9:1").output == origin.output
    assert (ws / "gen/GenContiki.trace.json").is_file()


@pytest.mark.parametrize("name", ["a{{filters[0]}}b{{/}}c", "source{{/}}a"])
def test_marker_text_in_a_model_value_is_generated_and_traced(tmp_path, runner, name):
    """A device name that holds marker text reaches the code as written, and
    its line leads back to the device."""
    ws = copy_workspace(tmp_path)
    pim = ws / "Input.pim.model.json"
    doc = pim.read_text(encoding="utf-8")
    assert doc.count('"source-a"') == 1
    pim.write_text(doc.replace('"source-a"', json.dumps(name)), encoding="utf-8")
    assert invoke(runner, ws, "discover", str(ws)).exit_code == 0
    enacted = invoke(runner, ws, "enact", "wsn-iot.proc.json", "--bind", "pim=Input.pim.model.json")
    assert enacted.exit_code == 0, enacted.output

    sink = (ws / "out/GenContiki/Sink.c").read_bytes()
    line = f'  "{name}@10.0.0.11",\n'.encode()
    assert sink.count(line) == 1
    origin = invoke(runner, ws, "origin", "out/GenContiki/Sink.c", f"@{sink.index(line) + 3}")
    assert origin.exit_code == 0, origin.output
    assert origin.output.splitlines()[-1] == "==> Input.pim.model.json:wsn[0].device[0]"
    device = json.loads(pim.read_text(encoding="utf-8"))["root"]["collections"]["wsn"][0]["collections"]["device"][0]
    assert device["attrs"]["name"] == name

    rendered = invoke(runner, ws, "run-m2c", str(ws / "GenContiki.m2c"),
                      "--in", "out/MapContiki/contiki.model.json", "--out", "gen")
    assert rendered.exit_code == 0, rendered.output
    assert (ws / "gen/Sink.c").read_bytes() == sink


def test_version_flag(runner):
    result = runner.invoke(cli, ["--version"])
    assert result.exit_code == 0
    assert result.output == f"tracelink, version {tracelink.__version__}\n"
