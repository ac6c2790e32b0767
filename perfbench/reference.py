"""Fixed units of reference work that use no tracelink code.

The benchmark times ``reference_work`` before each timed operation, and
``reference_step`` before each warm query, and reports every time scaled by
how fast this work ran around it (README.md, "Machine speed"). The work
resembles what tracelink does, in plain Python: it builds a model-like tree of
dicts, names every element by its path, serialises the tree as sorted JSON and
parses it back, formats code lines and runs a regular expression over them. It
touches no files: file-system speed on one machine varies far more, and for
other reasons, than processor speed does. Nothing in it depends on the seed or
on the workload.
"""

from __future__ import annotations

import json
import re

_LINE = re.compile(r'"([a-z0-9-]+)@([0-9.]+)",')


def _tree(width: int, depth: int, prefix: str) -> dict:
    node = {"class": "Node", "name": prefix, "address": f"10.0.{depth}.{width}"}
    if depth:
        node["children"] = [_tree(width, depth - 1, f"{prefix}-{i}") for i in range(width)]
    return node


def _paths(node: dict, path: str, out: list[str]):
    out.append(path)
    for i, child in enumerate(node.get("children", ())):
        _paths(child, f"{path}.children[{i}]", out)


_SMALL = _tree(3, 2, "s")


def reference_step() -> int:
    """A small slice of the same CPU work, about as long as a warm query on
    the smallest workload; returns a checksum."""
    paths: list[str] = []
    _paths(_SMALL, "root", paths)
    return len(paths) + len(json.dumps(_SMALL, sort_keys=True))


def reference_work() -> int:
    """Do the fixed work once; returns a checksum of what it computed."""
    tree = _tree(4, 4, "n")
    paths: list[str] = []
    _paths(tree, "root", paths)
    text = json.dumps(tree, sort_keys=True, indent=2)
    back = json.loads(text)
    flat: list[dict] = []
    stack = [back]
    while stack:
        node = stack.pop()
        flat.append(node)
        stack.extend(node.get("children", ()))
    code = "\n".join(f'  "{n["name"]}@{n["address"]}",' for n in flat)
    found = sum(1 for _ in _LINE.finditer(code))
    return len(paths) + len(text) + found
