"""Every loader ends in a TracelinkError on a mistyped document, never in a
traceback. The property is checked exhaustively: each JSON value of each
enacted fixture document (the whole document included) is replaced, one
at a time, by each value of a fixed set of JSON values of other types."""

import copy
import json

import pytest

from tracelink.errors import TracelinkError
from tracelink.gtm import _join
from tracelink.megamodel import load_megamodel, megamodel_dot, save_megamodel
from tracelink.model import parse_metamodel, parse_model
from tracelink.process import parse_process
from tracelink.trace import load_trace, save_trace
from tracelink.workspace import read_text

REPLACEMENTS = (None, 0, 1.5, True, "x", [], {}, [1], {"a": 1})


def _positions(value, trail=()):
    """The key/index trail of every value in a JSON document, root first."""
    yield trail
    items = value.items() if isinstance(value, dict) else enumerate(value) if isinstance(value, list) else ()
    for key, child in items:
        yield from _positions(child, trail + (key,))


def _replaced(doc, trail, new):
    if not trail:
        return new
    doc = copy.deepcopy(doc)
    parent = doc
    for key in trail[:-1]:
        parent = parent[key]
    parent[trail[-1]] = new
    return doc


def _model(mm_uri):
    return lambda text, ws: parse_model(text, parse_metamodel(read_text(ws, mm_uri)))


def _megamodel(text, ws):
    """Load, then save, reload and draw the registry, as the commands do."""
    mgm = load_megamodel(text)
    assert load_megamodel(save_megamodel(mgm)) == mgm
    megamodel_dot(mgm)


def _trace(text, ws):
    """Load, then save and reload the trace and join it into a map, as the
    commands do."""
    t = load_trace(text)
    assert load_trace(save_trace(t)) == t
    _join([t])


# (name, workspace uri, loader); the megamodel is taken from the enactment.
CASES = [
    ("M2M trace", "traces/MapDataCollector.trace.json", _trace),
    ("M2C trace", "traces/GenRIOT.trace.json", _trace),
    ("process", "wsn-iot.proc.json", lambda text, ws: parse_process(text)),
    ("PIM metamodel", "PIMM.mm.json", lambda text, ws: parse_metamodel(text)),
    ("PSM metamodel", "PSMM.mm.json", lambda text, ws: parse_metamodel(text)),
    ("PIM model", "Input.pim.model.json", _model("PIMM.mm.json")),
    ("M2M output model", "out/MapContiki/contiki.model.json", _model("PSMM.mm.json")),
    ("megamodel", None, _megamodel),
]


@pytest.mark.parametrize("uri, load", [case[1:] for case in CASES], ids=[case[0] for case in CASES])
def test_mistyped_value_ends_in_tracelink_error(enacted, uri, load):
    ws, _, result = enacted
    text = read_text(ws, uri) if uri else save_megamodel(result.megamodel)
    load(text, ws)  # the document as enacted loads
    doc = json.loads(text)
    crashes = []
    for trail in _positions(doc):
        for new in REPLACEMENTS:
            try:
                load(json.dumps(_replaced(doc, trail, new)), ws)
            except TracelinkError:
                pass
            except Exception as exc:  # noqa: BLE001 - any other exception is the failure
                crashes.append(f"{list(trail)} = {new!r}: {type(exc).__name__}: {exc}")
    assert not crashes, f"{len(crashes)} crashes, first: " + "; ".join(crashes[:5])
