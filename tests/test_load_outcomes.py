"""Trace reader outcomes pinned by digest.

Each trace file of the enacted fixture is read as written and as a set of
seeded mutants of its JSON document, each with one or two edits: a key
dropped, a value retyped, a ``sources`` or ``targets`` list emptied or
turned into a string, or an endpoint swapped for one of the other kind. An
outcome is the loaded trace's ``repr`` or the raised exception's type and
message, so a change to ``load_trace`` that alters any accepted value, any
error type, any error text or which of two faults is reported changes a
digest.
"""

import hashlib
import json
import random

import pytest

from tracelink.errors import TracelinkError
from tracelink.trace import load_trace

MUTANTS_PER_TRACE = 1000
RETYPED = (1.5, "x", True, None, [], {})


def _slots(doc) -> list[tuple[object, object]]:
    """(container, key) of every value below the document root, in document order."""
    out, todo = [], [doc]
    while todo:
        node = todo.pop(0)
        for key, value in (node.items() if isinstance(node, dict) else enumerate(node)):
            out.append((node, key))
            if isinstance(value, (dict, list)):
                todo.append(value)
    return out


def _swapped(endpoint: dict) -> dict:
    if "model" in endpoint:
        return {"file": endpoint["model"], "startByte": 0, "endByte": 1, "startLine": 1, "startCol": 1}
    return {"model": endpoint.get("file", "m"), "path": "root"}


def _edit(rng: random.Random, doc: dict):
    slots = _slots(doc)
    links = [node for node, key in slots if isinstance(node, dict) and key in ("sources", "targets")]
    ends = [(node, key) for node, key in slots
            if isinstance(node, list) and isinstance(node[key], dict) and ("model" in node[key] or "file" in node[key])]
    edit = rng.randrange(4)
    if edit == 0 and any(isinstance(node, dict) for node, _ in slots):
        node, key = rng.choice([slot for slot in slots if isinstance(slot[0], dict)])
        del node[key]
    elif edit == 2 and links:
        link = rng.choice(links)
        side = rng.choice([key for key in ("sources", "targets") if key in link])
        link[side] = rng.choice(([], json.dumps(link[side])))
    elif edit == 3 and ends:
        node, key = rng.choice(ends)
        node[key] = _swapped(node[key])
    else:
        node, key = rng.choice(slots)
        node[key] = json.loads(json.dumps(rng.choice(RETYPED)))  # a fresh [] or {}


def outcome(text: str) -> str:
    try:
        return "ok " + repr(load_trace(text))
    except TracelinkError as exc:
        return f"{type(exc).__name__} {exc}"


def outcomes_digest(name: str, text: str) -> str:
    rng = random.Random(name)
    digest = hashlib.sha256(outcome(text).encode() + b"\0")
    for _ in range(MUTANTS_PER_TRACE):
        doc = json.loads(text)
        for _ in range(rng.randint(1, 2)):
            _edit(rng, doc)
        digest.update(outcome(json.dumps(doc)).encode() + b"\0")
    return digest.hexdigest()


OUTCOME_DIGESTS = {
    "GenArduino": "62802650df4acc470a3ad72a482a24279475f2d3fb132b2d83ed313941cd3ab6",
    "GenContiki": "032872cdf7e028eb7f320e5ee55e167313bebe11a03e03a53d689c86da8a0701",
    "GenGateway": "d6b49739318e47b04d0d13a92c7296545b630755fe8b3cc971c06c4b4417ca65",
    "GenRIOT": "ad39cd04424e080543bd351a3900f92f183b4e3c4c574b25028fc75dfd169c62",
    "MapArduino": "b8bfbb11bd249d485a5c1b3dfe0ef2d14a6fcda4e24d769e9f29b3217c43253e",
    "MapContiki": "f56af9ab71f19d263eb1a2ecc01bbe0f90a5af6e7f1b2f4e089814e1dd506568",
    "MapDataCollector": "c08872688ffb11d59170d279ab5d595c7946ec487ac1667bee1d4da3a1296498",
    "MapRIOT": "e1a713912c3744b5f45ea787d75271e67c1f59b5147e18f51235eb4440158c26",
}


@pytest.mark.parametrize("name", sorted(OUTCOME_DIGESTS))
def test_trace_reader_outcomes_are_unchanged(enacted, name):
    ws, _mgm, _result = enacted
    text = (ws / "traces" / f"{name}.trace.json").read_text(encoding="utf-8")
    assert outcomes_digest(name, text) == OUTCOME_DIGESTS[name]
