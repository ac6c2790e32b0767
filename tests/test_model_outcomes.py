"""Model reader outcomes pinned by digest.

Two model documents, the fixture PIM and the PSM that MapContiki makes from
it, are read as written and as a set of seeded mutants of their JSON, each
with one or two edits: a key dropped, a value retyped, an element's class
renamed to another class of the metamodel or to an unknown one, a reference
made to dangle or pointed at an element that may be of the wrong class, or a
reference removed. Two edits let a structural fault and a conformance fault
meet in one document. Each text is read against its metamodel and against a
copy of it in which every reference is required, so a removed reference is a
fault. An outcome is the model's ``repr`` and whether it is marked checked,
or the raised exception's type and message and, for a ``ConformanceError``,
every violation; so a change to ``parse_model`` that alters any accepted
value, any error type or text, which of two faults is reported, or any
violation found changes a digest.
"""

import hashlib
import json
import random

import pytest

from tracelink.errors import ConformanceError, TracelinkError
from tracelink.model import parse_metamodel, parse_model

from conftest import WORKSPACE_FIXTURE

MUTANTS_PER_MODEL = 1000
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


def _elements(doc) -> list[tuple[str, dict]]:
    """(path, element) of each element the edits so far left reachable as an element."""
    out, todo = [], [("root", doc.get("root"))]
    while todo:
        path, raw = todo.pop(0)
        if not isinstance(raw, dict):
            continue
        out.append((path, raw))
        colls = raw.get("collections")
        for name, items in (colls.items() if isinstance(colls, dict) else ()):
            prefix = "" if path == "root" else path + "."
            if isinstance(items, list):
                todo.extend((f"{prefix}{name}[{i}]", item) for i, item in enumerate(items))
    return out


def _edit(rng: random.Random, doc: dict, mm: dict):
    slots = _slots(doc)
    elements = _elements(doc)
    refs = [(raw["refs"], name) for _, raw in elements if isinstance(raw.get("refs"), dict) for name in raw["refs"]]
    edit = rng.randrange(5)
    if edit == 0 and any(isinstance(node, dict) for node, _ in slots):
        node, key = rng.choice([slot for slot in slots if isinstance(slot[0], dict)])
        del node[key]
    elif edit == 2 and elements:
        _, raw = rng.choice(elements)
        raw["class"] = rng.choice([c["name"] for c in mm["classes"]] + ["Unknown"])
    elif edit == 3 and refs:
        holder, name = rng.choice(refs)
        path, _ = rng.choice(elements)
        # Past the end of the target's own collection dangles; the target
        # itself may or may not be of the reference's class.
        dangling = "wsn[99]" if path == "root" else path.rpartition("[")[0] + "[99]"
        holder[name] = rng.choice([path, dangling])
    elif edit == 4 and refs:
        holder, name = rng.choice(refs)
        del holder[name]
    else:
        node, key = rng.choice(slots)
        node[key] = json.loads(json.dumps(rng.choice(RETYPED)))  # a fresh [] or {}


def outcome(text: str, mm) -> str:
    try:
        m = parse_model(text, mm, uri="m.model.json")
        return f"ok checked={m.checked_against is mm} {m!r}"
    except ConformanceError as exc:
        return f"{type(exc).__name__} {exc} {exc.violations!r}"
    except TracelinkError as exc:
        return f"{type(exc).__name__} {exc}"


def outcomes_digest(name: str, text: str, mm_doc: dict) -> str:
    strict_doc = json.loads(json.dumps(mm_doc))
    for cls in strict_doc["classes"]:
        for ref in cls.get("references", []):
            ref.pop("optional", None)
    metamodels = [parse_metamodel(json.dumps(d)) for d in (mm_doc, strict_doc)]
    rng = random.Random(name)
    texts = [text]
    for _ in range(MUTANTS_PER_MODEL):
        doc = json.loads(text)
        for _ in range(rng.randint(1, 2)):
            _edit(rng, doc, mm_doc)
        texts.append(json.dumps(doc))
    digest = hashlib.sha256()
    for t in texts:
        for mm in metamodels:
            digest.update(outcome(t, mm).encode() + b"\0")
    return digest.hexdigest()


OUTCOME_DIGESTS = {
    "Input.pim.model.json": "b70e9695db9abcb17549b09307fadc9beddefec1954ba73de67de4baf306908f",
    "out/MapContiki/contiki.model.json": "c69ca1abfecc514a420785a1535ee4534458e08a922ed8d64e9b9181cf87a590",
}
METAMODELS = {"Input.pim.model.json": "PIMM.mm.json", "out/MapContiki/contiki.model.json": "PSMM.mm.json"}


@pytest.mark.parametrize("name", sorted(OUTCOME_DIGESTS))
def test_model_reader_outcomes_are_unchanged(enacted, name):
    ws, _mgm, _result = enacted
    text = (ws / name).read_text(encoding="utf-8")
    mm_doc = json.loads((WORKSPACE_FIXTURE / METAMODELS[name]).read_text(encoding="utf-8"))
    assert outcomes_digest(name, text, mm_doc) == OUTCOME_DIGESTS[name]
