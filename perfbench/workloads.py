"""Workspace generators for the benchmark's workloads, and the code each
template must emit for a generated input.

Every generator writes a complete workspace (metamodels, PIM, transformations,
process) into an empty directory and returns a ``Workload`` describing how to
enact it. The expected code is derived here from the PIM document alone, with
no tracelink code, so the benchmark can check generated files byte for byte.
"""

from __future__ import annotations

import json
import random
import shutil
from dataclasses import dataclass
from pathlib import Path

PROCESS_URI = "wsn-iot.proc.json"
PIM_URI = "Input.pim.model.json"

# (code file under out/, action id) for each fixture template.
CODE_FILES = {
    "GenContiki": "Sink.c",
    "GenArduino": "Esp.ino",
    "GenRIOT": "Riot.c",
    "GenGateway": "Gateway.java",
}

# wsn-wide: viewpoints x devices per viewpoint, fixed so every seed does the
# same amount of work; only names, addresses and peers vary with the seed.
# Twice this size spread 17-25% between runs (README.md).
WIDE_WSN = (12, 30)
WIDE_INDIRECT = (4, 15)
WIDE_IOT = (12, 25)
WIDE_FILTERS = (40, 4)

# chain-deep: refinement hops between MapContiki and GenContiki.
CHAIN_HOPS = 48

FILTER_NAMES = ("temperature", "humidity", "pressure", "light", "co2", "noise", "vibration")


@dataclass(frozen=True)
class Workload:
    process_uri: str
    pim_uri: str
    code_actions: tuple[str, ...]  # M2C action ids, each writes out/<id>/<file>
    hops: int = 0  # refinement actions between MapContiki and GenContiki


def fixture_dir(repo: Path) -> Path:
    return repo / "fixtures" / "workspace"


# ---------------------------------------------------------------------------
# PIM generation
# ---------------------------------------------------------------------------

def _name(rng: random.Random, prefix: str, i: int, j: int) -> str:
    return f"{prefix}{i}-{j}-{rng.getrandbits(24):06x}"


def _address(rng: random.Random) -> str:
    return f"10.{rng.randrange(256)}.{rng.randrange(256)}.{rng.randrange(1, 255)}"


def generate_pim(rng: random.Random, wsn: tuple[int, int], indirect: tuple[int, int],
                 iot: tuple[int, int], filters: tuple[int, int]) -> dict:
    """A PIMM document every fixture transformation accepts.

    Devices take their viewpoint's domain (``wsn`` for mesh and uplink
    viewpoints, ``iot`` for edge ones) and every second device has a peer
    drawn from its own domain, so each M2M rule that binds ``uplink`` finds
    the peer's image in the same output model.
    """
    def viewpoints(cls, coll, dev_coll, count, per, prefix, domain):
        out = []
        for i in range(count):
            devices = [{
                "class": "Device",
                "attrs": {"name": _name(rng, prefix, i, j), "address": _address(rng),
                          "domain": domain, "role": rng.choice(("source", "relay", "sink"))},
            } for j in range(per)]
            out.append({"class": cls, "attrs": {"name": f"{coll}-{i}"},
                        "collections": {dev_coll: devices}})
        return out

    wsn_vps = viewpoints("WsnViewpoint", "wsn", "device", *wsn, "w", "wsn")
    ind_vps = viewpoints("IndirectViewpoint", "indirect", "indirectdevice", *indirect, "u", "wsn")
    iot_vps = viewpoints("IotViewpoint", "iot", "device", *iot, "e", "iot")

    def link_peers(groups):
        pool = [(f"{coll}[{i}].{dev_coll}[{j}]", dev)
                for coll, dev_coll, vps in groups
                for i, vp in enumerate(vps)
                for j, dev in enumerate(vp["collections"][dev_coll])]
        for k, (path, dev) in enumerate(pool):
            if k % 2 == 1 and len(pool) > 1:
                peer = rng.choice([p for p, _ in pool if p != path])
                dev["refs"] = {"peer": peer}

    link_peers((("wsn", "device", wsn_vps), ("indirect", "indirectdevice", ind_vps)))
    link_peers((("iot", "device", iot_vps),))

    filter_count, sections = filters
    filter_elems = []
    for i in range(filter_count):
        name = "temperature" if i == 0 else f"{rng.choice(FILTER_NAMES)}{i}"
        filter_elems.append({
            "class": "Filter", "attrs": {"name": name},
            "collections": {"sections": [
                {"class": "Section", "attrs": {"key": f"k{s}", "value": f"v{rng.randrange(1000)}"}}
                for s in range(sections)]},
        })
    return {
        "metamodel": "PIMM",
        "root": {
            "class": "GlobalViewpoint",
            "attrs": {"name": "field-monitor"},
            "collections": {"wsn": wsn_vps, "indirect": ind_vps, "iot": iot_vps,
                            "filters": filter_elems},
        },
    }


def count_elements(doc: dict) -> int:
    def walk(e):
        return 1 + sum(walk(c) for items in e.get("collections", {}).values() for c in items)
    return walk(doc["root"])


def _write_json(path: Path, doc: dict):
    path.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n", encoding="utf-8")


# ---------------------------------------------------------------------------
# Workspaces
# ---------------------------------------------------------------------------

def make_case_study(repo: Path, dest: Path, seed: int) -> Workload:
    """The bundled fixture as shipped; the seed only picks query anchors."""
    shutil.copytree(fixture_dir(repo), dest)
    return Workload(PROCESS_URI, PIM_URI, tuple(CODE_FILES))


def make_wsn_wide(repo: Path, dest: Path, seed: int, scale: float = 1.0) -> Workload:
    """The fixture process over a seeded PIM of about a thousand elements."""
    shutil.copytree(fixture_dir(repo), dest)
    rng = random.Random(seed)

    def scaled(shape):
        return (shape[0], max(1, round(shape[1] * scale)))

    doc = generate_pim(rng, scaled(WIDE_WSN), scaled(WIDE_INDIRECT), scaled(WIDE_IOT),
                       WIDE_FILTERS)
    _write_json(dest / PIM_URI, doc)
    return Workload(PROCESS_URI, PIM_URI, tuple(CODE_FILES))


_REFINEMENT = """\
-- Refinement hop {index}: copies every PSMM element unchanged.
transformation {name};
input psm : PSMM;
output out : PSMM;

rule Model {{
  from s : PSMM!PsmModel
  to t : PSMM!PsmModel (
    name <- s.name,
    platform <- s.platform,
    networks <- s.networks,
    features <- s.features
  )
}}

rule Net {{
  from s : PSMM!Network
  to t : PSMM!Network (
    name <- s.name,
    platforms <- s.platforms
  )
}}

rule Plat {{
  from s : PSMM!Platform
  to t : PSMM!Platform (
    name <- s.name,
    address <- s.address,
    role <- s.role,
    settings <- s.settings,
    uplink <- s.uplink
  )
}}

rule Feat {{
  from s : PSMM!Feature
  to t : PSMM!Feature (
    key <- s.key,
    value <- s.value
  )
}}

rule Set {{
  from s : PSMM!Setting
  to t : PSMM!Setting (
    key <- s.key,
    value <- s.value
  )
}}
"""


def _action(aid: str, transformation: str, pin_in: str, mm_in: str,
            pin_out: str | None, mm_out: str = "PSMM") -> dict:
    node = {"id": aid, "kind": "Action", "transformation": transformation,
            "inputPins": [{"name": pin_in, "metamodel": mm_in}], "outputPins": []}
    if pin_out is not None:
        node["outputPins"] = [{"name": pin_out, "metamodel": mm_out}]
    return node


def make_chain_deep(repo: Path, dest: Path, seed: int) -> Workload:
    """MapContiki, CHAIN_HOPS PSMM->PSMM refinements, then GenContiki, over a
    small seeded PIM."""
    fixture = fixture_dir(repo)
    dest.mkdir(parents=True)
    for name in ("PIMM.mm.json", "PSMM.mm.json", "MapContiki.m2m", "GenContiki.m2c"):
        shutil.copyfile(fixture / name, dest / name)
    rng = random.Random(seed)
    _write_json(dest / PIM_URI, generate_pim(rng, (2, 3), (1, 1), (1, 2), (2, 1)))

    nodes = [{"id": "start", "kind": "Initial"},
             _action("MapContiki", "TransformationM2M:MapContiki.m2m", "pim", "PIMM", "psm")]
    edges = []
    prev = "MapContiki"
    for k in range(1, CHAIN_HOPS + 1):
        name = f"Refine{k:03d}"
        (dest / f"{name}.m2m").write_text(_REFINEMENT.format(index=k, name=name), encoding="utf-8")
        nodes.append(_action(name, f"TransformationM2M:{name}.m2m", "psm", "PSMM", "psm"))
        edges.append({"from": prev, "fromPin": "psm", "to": name, "toPin": "psm"})
        prev = name
    nodes.append(_action("GenContiki", "TransformationM2C:GenContiki.m2c", "psm", "PSMM", None))
    edges.append({"from": prev, "fromPin": "psm", "to": "GenContiki", "toPin": "psm"})
    nodes.append({"id": "done", "kind": "Final"})
    ids = [n["id"] for n in nodes]
    process = {"name": "chain-deep", "nodes": nodes,
               "controlEdges": [[a, b] for a, b in zip(ids, ids[1:])],
               "objectEdges": edges}
    (dest / PROCESS_URI).write_text(json.dumps(process, indent=2) + "\n", encoding="utf-8")
    return Workload(PROCESS_URI, PIM_URI, ("GenContiki",), CHAIN_HOPS)


GENERATORS = {
    "case-study": make_case_study,
    "wsn-wide": make_wsn_wide,
    "chain-deep": make_chain_deep,
}


# ---------------------------------------------------------------------------
# Expected code, derived from the PIM alone
# ---------------------------------------------------------------------------

def _devices(root: dict, coll: str, dev_coll: str, domain: str):
    for vp in root.get("collections", {}).get(coll, []):
        yield vp, [d for d in vp.get("collections", {}).get(dev_coll, [])
                   if d["attrs"]["domain"] == domain]


def expected_code(pim: dict) -> dict[str, str]:
    """Clean text of each fixture template's output, keyed by action id.

    Mirrors the fixture chain: MapContiki keeps wsn-domain devices of the
    mesh then uplink viewpoints, MapArduino and MapRIOT keep iot-domain
    devices, MapDataCollector turns filters into features.
    """
    root = pim["root"]
    name = root["attrs"]["name"]

    sink = [f"/* contiki node table: {name}-contiki */\n", '#include "contiki.h"\n', "\n",
            "static const char *nodes[] = {\n"]
    nets = [*_devices(root, "wsn", "device", "wsn"),
            *_devices(root, "indirect", "indirectdevice", "wsn")]
    for vp, devs in nets:
        sink.append(f"  /* net: {vp['attrs']['name']} */\n")
        sink += [f'  "{d["attrs"]["name"]}@{d["attrs"]["address"]}",\n' for d in devs]
    sink.append("};\n")

    iot = list(_devices(root, "iot", "device", "iot"))
    esp = [f"// board wiring for {name}-arduino\n"]
    riot = [f"/* riot build: {name}-riot */\n"]
    for vp, devs in iot:
        esp += [f'String {d["attrs"]["name"]}_addr = "{d["attrs"]["address"]}";\n' for d in devs]
        riot.append(f"netif_t riot-{vp['attrs']['name']}_if;\n")
        riot += [f'static const char *{d["attrs"]["name"]}_ip = "{d["attrs"]["address"]}";\n'
                 for d in devs]

    gateway = [f"// gateway {name}-gateway\n", "// standalone gateway\n", "class Gateway {\n"]
    for f in root.get("collections", {}).get("filters", []):
        key = f["attrs"]["name"]
        gateway.append(f'  String {key} = "filter:{key}";\n')
        if key == "temperature":
            gateway.append(f"  // primary sensor: {key}\n")
    gateway.append("}\n")

    return {"GenContiki": "".join(sink), "GenArduino": "".join(esp),
            "GenRIOT": "".join(riot), "GenGateway": "".join(gateway)}
