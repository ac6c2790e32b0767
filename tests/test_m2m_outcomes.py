"""M2M execution outcomes pinned by digest.

Each fixture ``Map*.m2m`` transformation runs on the fixture PIM as a set of
seeded binding-level mutants, each against the fixture PSMM or a mutant of
it. A transformation edit retypes a literal, binds a source feature of
another type, binds a collection to a sibling pattern of a drawn class,
points a reference at another image, or drops a binding. A metamodel edit
retypes an output attribute, retargets an output reference or collection, or
makes the output reference required. An outcome is the SHA-256 of the
output's serialization, or the type of the exception raised, so a change to
the engine that alters any output or any error's type changes a digest.
Error messages are not pinned: they may name where a fault is found.
"""

import hashlib
import json
import random
from dataclasses import replace

import pytest

from tracelink.errors import TracelinkError
from tracelink.m2m import Binding, Concat, Literal, Nav, TargetPattern, VarRef, execute_m2m, parse_m2m, print_m2m
from tracelink.model import (
    PRIMITIVE_TYPES,
    AttributeDef,
    check_conformance,
    parse_metamodel,
    parse_model,
    serialize_model,
)

from conftest import INPUT_URI, WORKSPACE_FIXTURE

MUTANTS_PER_TRANSFORMATION = 200
TRANSFORMATIONS = sorted(p.name for p in WORKSPACE_FIXTURE.glob("Map*.m2m"))
OTHER_VALUES = ("x", 7, 2.5, True)


def read(name: str) -> str:
    return (WORKSPACE_FIXTURE / name).read_text(encoding="utf-8")


PIMM = parse_metamodel(read("PIMM.mm.json"))
PSMM_DOC = json.loads(read("PSMM.mm.json"))
PIM = parse_model(read(INPUT_URI), PIMM, uri=INPUT_URI)


def _retyped(rng: random.Random, expr):
    """``expr`` with one of its literals replaced by a value of another type."""
    if isinstance(expr, Literal):
        return Literal(rng.choice([v for v in OTHER_VALUES if type(v) is not type(expr.value)]))
    sides = [side for side in ("left", "right") if _has_literal(getattr(expr, side))]
    side = rng.choice(sides)
    return replace(expr, **{side: _retyped(rng, getattr(expr, side))})


def _has_literal(expr) -> bool:
    return isinstance(expr, Literal) or (isinstance(expr, Concat) and (_has_literal(expr.left)
                                                                      or _has_literal(expr.right)))


def _with_pattern(t, ri: int, pi: int, pattern):
    rule = t.rules[ri]
    targets = rule.targets[:pi] + ((pattern,) if pattern is not None else ()) + rule.targets[pi + 1:]
    return replace(t, rules=t.rules[:ri] + (replace(rule, targets=targets),) + t.rules[ri + 1:])


def _element_values(rule, source_features) -> list:
    """Element-valued expressions of ``rule``: its source variable, the
    source's collections and references, and its sibling pattern variables."""
    values = [VarRef(rule.from_var)] + [VarRef(p.var) for p in rule.targets[1:]]
    values += [Nav(rule.from_var, f.name) for f in source_features.values() if not isinstance(f, AttributeDef)]
    return values


def mutate_transformation(rng: random.Random, t):
    """One binding-level edit of ``t``."""
    ri = rng.randrange(len(t.rules))
    rule = t.rules[ri]
    source_features = PIMM.class_named(rule.from_class).features
    pattern = rule.targets[0]
    edit = rng.randrange(5)
    if edit == 0:  # retype a literal
        sites = [(ri, bi) for ri, r in enumerate(t.rules) for bi, b in enumerate(r.targets[0].bindings)
                 if _has_literal(b.expr)]
        if sites:
            ri, bi = rng.choice(sites)
            pattern = t.rules[ri].targets[0]
            binding = pattern.bindings[bi]
            bindings = list(pattern.bindings)
            bindings[bi] = Binding(binding.feature, _retyped(rng, binding.expr))
            return _with_pattern(t, ri, 0, replace(pattern, bindings=tuple(bindings)))
    if edit <= 1 and pattern.bindings:  # bind a source feature of another type
        bi = rng.randrange(len(pattern.bindings))
        bindings = list(pattern.bindings)
        bindings[bi] = Binding(bindings[bi].feature, Nav(rule.from_var, rng.choice(sorted(source_features))))
        return _with_pattern(t, ri, 0, replace(pattern, bindings=tuple(bindings)))
    if edit == 2:  # bind a collection to a sibling pattern of a drawn class
        out_class = rng.choice(PSMM_DOC["classes"])
        var = f"extra{len(rule.targets)}"
        t = _with_pattern(t, ri, len(rule.targets), TargetPattern(var, "PSMM", out_class["name"]))
        rule = t.rules[ri]
        collections = [c["name"] for c in next(c for c in PSMM_DOC["classes"] if c["name"] == pattern.class_name)
                       .get("collections", [])]
        feature = rng.choice(collections or [b.feature for b in pattern.bindings] or ["name"])
        bindings = pattern.bindings + (Binding(feature, VarRef(var)),)
        return _with_pattern(t, ri, 0, replace(pattern, bindings=bindings))
    if edit == 3:  # point a reference at another image
        value = rng.choice(_element_values(rule, source_features))
        bindings = [b for b in pattern.bindings if b.feature != "uplink"] + [Binding("uplink", value)]
        return _with_pattern(t, ri, 0, replace(pattern, bindings=tuple(bindings)))
    if pattern.bindings:  # drop a binding
        bi = rng.randrange(len(pattern.bindings))
        return _with_pattern(t, ri, 0, replace(pattern, bindings=pattern.bindings[:bi] + pattern.bindings[bi + 1:]))
    return t


def mutate_metamodel(rng: random.Random, doc: dict) -> dict:
    """One edit of an output metamodel document, which stays a valid metamodel."""
    doc = json.loads(json.dumps(doc))
    classes = doc["classes"]
    edit = rng.randrange(3)
    if edit == 0:  # retype an attribute
        attr = rng.choice([a for c in classes for a in c.get("attributes", [])])
        attr["type"] = rng.choice([ty for ty in PRIMITIVE_TYPES if ty != attr["type"]])
    elif edit == 1:  # retarget a reference or a collection
        feature = rng.choice([f for c in classes for f in (*c.get("collections", []), *c.get("references", []))])
        feature["class"] = rng.choice(classes)["name"]
    else:  # make every reference required
        for c in classes:
            for ref in c.get("references", []):
                ref.pop("optional", None)
    return doc


def mutants(name: str):
    """(transformation text, PSMM document) for the shipped text and each mutant."""
    rng = random.Random(name)
    text = read(name)
    shipped = parse_m2m(text, {"PIMM": PIMM, "PSMM": parse_metamodel(json.dumps(PSMM_DOC))})
    yield text, PSMM_DOC
    for _ in range(MUTANTS_PER_TRANSFORMATION):
        t, doc = mutate_transformation(rng, shipped), PSMM_DOC
        if rng.random() < 0.5:
            t = mutate_transformation(rng, t)
        if rng.random() < 0.5:
            doc = mutate_metamodel(rng, doc)
        yield print_m2m(t), doc


def run(text: str, doc: dict):
    """(outcome, output model or None, metamodels) of one transformation on the fixture PIM."""
    mms = {"PIMM": PIMM, "PSMM": parse_metamodel(json.dumps(doc))}
    try:
        t = parse_m2m(text, mms)
    except TracelinkError as exc:
        return "parse " + type(exc).__name__, None, mms
    try:
        out, _ = execute_m2m(t, {t.inputs[0][0]: PIM}, mms)
    except TracelinkError as exc:
        return "run " + type(exc).__name__, None, mms
    return "ok " + hashlib.sha256(serialize_model(out).encode()).hexdigest(), out, mms


def outcomes_digest(name: str) -> tuple[str, list]:
    digest = hashlib.sha256()
    outputs = []
    for text, doc in mutants(name):
        kind, out, mms = run(text, doc)
        digest.update(kind.encode() + b"\0")
        if out is not None:
            outputs.append((out, mms["PSMM"]))
    return digest.hexdigest(), outputs


OUTCOME_DIGESTS = {
    "MapArduino.m2m": "340b4c8f3f317ef8a885bf363e5188c62309b5a34d7e3f8adb334d6391ce5ab5",
    "MapContiki.m2m": "cd0c32759ea4338ff84b61d7c0bc19267fc17296b31334646b5e309a33faea84",
    "MapDataCollector.m2m": "fbde542a138a342e874efeaca1ffd60301aef8a471e801b4484439f041a83c51",
    "MapRIOT.m2m": "c293c2ac5ae637eea5e2b04d8727758d1d3ec83ce111d94efafe6cb7e229fe28",
}


@pytest.mark.parametrize("name", TRANSFORMATIONS)
def test_m2m_outcomes_are_unchanged(name):
    digest, outputs = outcomes_digest(name)
    assert digest == OUTCOME_DIGESTS[name]
    # Every mutant that runs yields a model that conforms to its output metamodel.
    for out, psmm in outputs:
        assert check_conformance(out, psmm) == []


@pytest.mark.parametrize("name", TRANSFORMATIONS)
def test_running_a_transformation_raises_what_parsing_it_raises(name):
    """One function types a rule, so a run rejects every mutant that parsing
    its text rejects, with the same error, even when it is handed the
    transformation without parsing it."""
    rng = random.Random("prop" + name)
    shipped = parse_m2m(read(name), {"PIMM": PIMM, "PSMM": parse_metamodel(json.dumps(PSMM_DOC))})
    rejected = 0
    for _ in range(MUTANTS_PER_TRANSFORMATION):
        t, doc = mutate_transformation(rng, shipped), PSMM_DOC
        if rng.random() < 0.5:
            t = mutate_transformation(rng, t)
        if rng.random() < 0.5:
            doc = mutate_metamodel(rng, doc)
        mms = {"PIMM": PIMM, "PSMM": parse_metamodel(json.dumps(doc))}
        try:
            parse_m2m(print_m2m(t), mms)
        except TracelinkError as exc:
            rejected += 1
            with pytest.raises(type(exc)) as at_run:
                execute_m2m(t, {t.inputs[0][0]: PIM}, mms)
            assert (type(at_run.value), str(at_run.value)) == (type(exc), str(exc))
    assert rejected > 0
