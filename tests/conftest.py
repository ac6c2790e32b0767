import shutil
from pathlib import Path

import pytest

from tracelink import megamodel as mg
from tracelink import process as pr
from tracelink.workspace import read_text

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"
WORKSPACE_FIXTURE = FIXTURES / "workspace"

PROCESS_URI = "wsn-iot.proc.json"
INPUT_URI = "Input.pim.model.json"
BINDINGS = {"pim": INPUT_URI}


def copy_workspace(dest: Path) -> Path:
    ws = dest / "ws"
    shutil.copytree(WORKSPACE_FIXTURE, ws)
    return ws


def source_path_key(path: str) -> tuple:
    """The order of M2M trace links and of identifier-tree paths, read off a
    path's text: names, then numeric indexes (a bare name before index 0),
    so ``x[2]`` before ``x[10]`` and the bare ``root`` among collection names."""
    steps = (step.partition("[") for step in path.split("."))
    return tuple((name, int(index[:-1]) if index else -1) for name, _, index in steps)


def run_enactment(ws: Path, **kwargs):
    mgm = mg.discover(ws)
    process = pr.parse_process(read_text(ws, PROCESS_URI))
    result = pr.enact(process, mgm, dict(BINDINGS), ws, **kwargs)
    return mgm, result


@pytest.fixture
def workspace(tmp_path) -> Path:
    return copy_workspace(tmp_path)


@pytest.fixture(scope="module")
def enacted(tmp_path_factory):
    """One enacted copy of the bundled workspace, shared per test module."""
    ws = copy_workspace(tmp_path_factory.mktemp("enacted"))
    mgm, result = run_enactment(ws)
    return ws, mgm, result
