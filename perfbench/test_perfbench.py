"""Tests for the benchmark's own code.

    PYTHONPATH=src python -m pytest perfbench -q
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest
from click.testing import CliRunner

import oracle
import run
import workloads
from tracer import Tracer
from tracelink import megamodel, process, workspace
from tracelink.cli import cli

REPO = Path(__file__).resolve().parents[1]


def enact_workspace(ws: Path, wl: workloads.Workload):
    """``tracelink discover`` then ``tracelink enact``, as the benchmark runs them."""
    runner = CliRunner()
    for args in (["discover", str(ws)], ["enact", wl.process_uri, "--bind", f"pim={wl.pim_uri}"]):
        result = runner.invoke(cli, args, env={"TRACELINK_WORKSPACE": str(ws)})
        assert result.exit_code == 0, result.output


@pytest.mark.parametrize("name", ["wsn-wide", "chain-deep"])
@pytest.mark.parametrize("seed", [1, 2])
def test_generated_workspaces_enact(tmp_path, name, seed):
    ws = tmp_path / "ws"
    wl = workloads.GENERATORS[name](REPO, ws, seed)
    enact_workspace(ws, wl)
    doc = json.loads((ws / wl.process_uri).read_text())
    actions = [n for n in doc["nodes"] if n["kind"] == "Action"]
    assert len(oracle.registered(ws, "TraceModel")) == len(actions)
    pim = json.loads((ws / wl.pim_uri).read_text())
    expected = {a: t for a, t in workloads.expected_code(pim).items() if a in wl.code_actions}
    assert oracle.code_mismatches(ws, expected, workloads.CODE_FILES) == []
    if wl.hops:
        layers = oracle.impact(oracle.load_graph(ws), ("E", wl.pim_uri, "wsn[0].device[0]"))
        assert len(layers) == wl.hops + 2


def test_generators_are_seeded(tmp_path):
    a = workloads.make_wsn_wide(REPO, tmp_path / "a", 5)
    workloads.make_wsn_wide(REPO, tmp_path / "b", 5)
    workloads.make_wsn_wide(REPO, tmp_path / "c", 6)
    read = lambda d: (tmp_path / d / a.pim_uri).read_bytes()  # noqa: E731
    assert read("a") == read("b") != read("c")


@pytest.fixture(scope="module")
def case_study(tmp_path_factory):
    ws = tmp_path_factory.mktemp("case") / "ws"
    wl = workloads.make_case_study(REPO, ws, 0)
    enact_workspace(ws, wl)
    return ws, wl


def test_oracle_reproduces_case_study_chain(case_study):
    ws, _ = case_study
    g = oracle.load_graph(ws)
    anchor = ("E", "Input.pim.model.json", "indirect[0].indirectdevice[0]")
    platform = ("E", "out/MapContiki/contiki.model.json", "networks[1].platforms[0]")
    layers = oracle.impact(g, anchor)
    assert layers[0] == {platform}
    [code] = layers[1]
    assert (code[1], code[4], code[5]) == ("out/GenContiki/Sink.c", 9, 1)
    assert oracle.origin(g, "out/GenContiki/Sink.c", code[2]) == (code, [{platform}, {anchor}])


def test_flipped_byte_fails_the_output_checks(case_study, tmp_path):
    ws, wl = case_study
    pim = json.loads((ws / wl.pim_uri).read_text())
    expected = workloads.expected_code(pim)
    uris = oracle.enactment_outputs(ws)
    reference = oracle.digest(ws, uris)
    assert oracle.code_mismatches(ws, expected, workloads.CODE_FILES) == []

    copy = tmp_path / "flipped"
    shutil.copytree(ws, copy)
    sink = copy / "out/GenContiki/Sink.c"
    data = bytearray(sink.read_bytes())
    data[len(data) // 2] ^= 0x01
    sink.write_bytes(bytes(data))
    assert oracle.code_mismatches(copy, expected, workloads.CODE_FILES) == ["out/GenContiki/Sink.c"]
    assert oracle.strip_mismatches(copy, ws, ["out/GenContiki/Sink.c"]) == ["out/GenContiki/Sink.c"]
    assert oracle.digest(copy, uris) != reference


def test_tracer_wraps_imported_names_and_restores_them():
    original = workspace.write_text
    assert process.write_text is original
    tracer = Tracer()
    tracer.install()
    try:
        assert process.write_text is workspace.write_text is not original
        with tracer.span("outer"):
            megamodel.save_megamodel(megamodel.Megamodel())
    finally:
        tracer.uninstall()
    assert process.write_text is workspace.write_text is original
    spans = tracer.take()
    assert spans["megamodel.save_megamodel"][1] == 1
    assert spans["model.canonical_json"][1] == 1
    assert all(own >= 0 for own, _calls, _bytes in spans.values())


def test_times_are_scaled_by_the_latest_gauge_samples():
    bench = run.Bench(REPO, "case-study", 1, traced=False)
    reference = run.REFERENCE["reference_s"]
    for seconds in (9.0, 2 * reference, 2 * reference, 50 * reference, 2 * reference,
                    2 * reference):
        bench.sample("reference_s", seconds)
    bench.sample("enact_s", 0.02, "reference_s")
    # 16 ms of CPU and 4 ms of waiting, at half the reference speed.
    bench.sample("enact_s", 0.02, "reference_s", cpu=0.016)
    # The first gauge sample has left the window and the median ignores the
    # outlier; without a CPU time the whole time is scaled.
    assert bench.samples["enact_s"] == [0.02, 0.02]
    assert bench.scaled["enact_s"] == [pytest.approx(0.01), pytest.approx(0.012)]
    assert "reference_s" not in bench.scaled


def test_refuses_to_run_without_the_program(tmp_path):
    proc = subprocess.run(
        [sys.executable, str(REPO / "perfbench" / "run.py"), "--workload", "case-study",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""


@pytest.mark.parametrize("trace", [0, 1])
def test_case_study_run_is_correct(trace):
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "case-study", "--seed", "1",
         "--seconds", "0", "--trace", str(trace)],
        cwd=REPO, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
    if trace == 0:
        assert all(m["value"] > 0 for m in result["metrics"].values())
