import json
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


# A one-class metamodel whose models may nest as deep as their documents do.
NODE_KIDS_MM = {"name": "DeepMM", "classes": [{"name": "Node", "attributes": [{"name": "id", "type": "string"}],
                                              "collections": [{"class": "Node", "name": "kids"}]}]}
DEPTH_LIMIT = 960  # levels of lists and objects in a model document (docs/formats.md, "Models")


def chain_document(levels: int, last: str = "") -> str:
    """A ``NODE_KIDS_MM`` model document: a chain of ``levels`` elements, each
    with an ``id`` and holding the next in ``kids``, so ``3 * levels`` deep;
    ``last`` is more members of the last element."""
    text = "".join(f'{{"class": "Node", "attrs": {{"id": "n{level}"}}, "collections": {{"kids": ['
                   for level in range(1, levels))
    text += f'{{"class": "Node", "attrs": {{"id": "n{levels}"}}{last}}}' + "]}}" * (levels - 1)
    return f'{{"metamodel": "DeepMM", "root": {text}}}'


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


def replicated(doc: dict, times: int) -> dict:
    """``doc`` with its filters and each viewpoint's devices repeated
    ``times`` times, the originals first, so every reference keeps its target."""
    doc = json.loads(json.dumps(doc))
    holders = [doc["root"]] + [v for vs in doc["root"]["collections"].values() for v in vs]
    for holder in holders:
        for name, items in holder.get("collections", {}).items():
            if name in ("filters", "device", "indirectdevice"):
                holder["collections"][name] = json.loads(json.dumps(items * times))
    return doc


def count_metamodel_lookups(metamodels: dict) -> list[int]:
    """Count every class lookup (``class_named``) and feature lookup (in a
    class's ``features``) on ``metamodels`` from now on, in a one-item list."""
    count = [0]

    class CountingFeatures(dict):
        def __getitem__(self, name):
            count[0] += 1
            return super().__getitem__(name)

        def get(self, name, default=None):
            count[0] += 1
            return super().get(name, default)

    for mm in metamodels.values():
        lookup = mm.class_named

        def class_named(name, lookup=lookup):
            count[0] += 1
            return lookup(name)

        mm.__dict__["class_named"] = class_named
        for cls in mm.classes:
            cls.__dict__["features"] = CountingFeatures(cls.features)
    return count
