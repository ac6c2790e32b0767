"""Parser outcomes pinned by digest.

Each text below is parsed as shipped and as a set of seeded mutants: one to
three character deletions, insertions or cut ranges. An outcome is the
parsed value's ``repr`` or the raised exception's type and message, so a
change to the lexer or parser that alters any accepted value, any error
type or any error text (positions included) changes a digest.
"""

import hashlib
import random

import pytest

from tracelink.errors import TracelinkError
from tracelink.m2c import parse_template
from tracelink.m2m import parse_m2m
from tracelink.model import parse_metamodel

import templates
import worlds
from conftest import WORKSPACE_FIXTURE

# A PSMM -> PSMM refinement hop: every rule copies its class unchanged.
REFINEMENT_HOP = """\
-- Refinement hop 7: copies every PSMM element unchanged.
transformation Refine007;
input psm : PSMM;
output out : PSMM;

rule Model {
  from s : PSMM!PsmModel
  to t : PSMM!PsmModel (
    name <- s.name,
    platform <- s.platform,
    networks <- s.networks,
    features <- s.features
  )
}

rule Net {
  from s : PSMM!Network
  to t : PSMM!Network (
    name <- s.name,
    platforms <- s.platforms
  )
}

rule Plat {
  from s : PSMM!Platform
  to t : PSMM!Platform (
    name <- s.name,
    address <- s.address,
    role <- s.role,
    settings <- s.settings,
    uplink <- s.uplink
  )
}

rule Feat {
  from s : PSMM!Feature
  to t : PSMM!Feature (
    key <- s.key,
    value <- s.value
  )
}

rule Set {
  from s : PSMM!Setting
  to t : PSMM!Setting (
    key <- s.key,
    value <- s.value
  )
}
"""

# Characters the grammars give a meaning to, characters they reject, and
# plain text, so mutants reach every token kind and every error.
ALPHABET = 'abzAZ_019.-<>!=(){}[];,:/"\\#$@ \t\n\réß²'
MUTANTS_PER_TEXT = 250


def fixture_metamodels():
    return {name: parse_metamodel((WORKSPACE_FIXTURE / f"{name}.mm.json").read_text(encoding="utf-8"))
            for name in ("PIMM", "PSMM")}


def corpus():
    """(name, parse function, text) for every pinned text."""
    mms = fixture_metamodels()
    texts = [(p.name, lambda t: parse_m2m(t, mms), p.read_text(encoding="utf-8"))
             for p in sorted(WORKSPACE_FIXTURE.glob("*.m2m"))]
    texts += [(p.name, lambda t: parse_template(t, mms), p.read_text(encoding="utf-8"))
              for p in sorted(WORKSPACE_FIXTURE.glob("*.m2c"))]
    texts.append(("refinement-hop", lambda t: parse_m2m(t, mms), REFINEMENT_HOP))
    for seed in range(4):
        world_mms, text, _ = worlds.random_world(seed)
        texts.append((f"world-{seed}", lambda t, m=world_mms: parse_m2m(t, m), text))
    for name in ("LOOP_TEMPLATE", "COND_TEMPLATE", "NESTED_TEMPLATE", "PURE_TEXT_TEMPLATE"):
        texts.append((name, lambda t: parse_template(t, templates.ALL_METAMODELS), getattr(templates, name)))
    return {name: (parse, text) for name, parse, text in texts}


CORPUS = corpus()


def mutate(rng: random.Random, text: str) -> str:
    for _ in range(rng.randint(1, 3)):
        i = rng.randrange(len(text) + 1)
        edit = rng.randrange(3)
        if edit == 0:
            text = text[:i] + text[i + 1:]
        elif edit == 1:
            text = text[:i] + rng.choice(ALPHABET) + text[i:]
        else:
            text = text[:i] + text[i + rng.randint(1, 40):]
    return text


def outcome(parse, text: str) -> str:
    try:
        return "ok " + repr(parse(text))
    except TracelinkError as exc:
        return f"{type(exc).__name__} {exc}"


def outcomes_digest(name: str) -> str:
    parse, text = CORPUS[name]
    rng = random.Random(name)
    digest = hashlib.sha256()
    for mutant in [text] + [mutate(rng, text) for _ in range(MUTANTS_PER_TEXT)]:
        digest.update(outcome(parse, mutant).encode() + b"\0")
    return digest.hexdigest()


OUTCOME_DIGESTS = {
    "COND_TEMPLATE": "bdba4fd4d020b75933b5a01d30622926b1dd4314d10c8f6366dc8b53a719d77f",
    "GenArduino.m2c": "a9d1a38c298c0c4774a7d9c638c1e1dad02530fafc8fd53fa6db079107855bb0",
    "GenContiki.m2c": "7542485301cb97a82c80d060a068c6dd64bf0ef92a8512fe8d1e015c4f8bf16a",
    "GenGateway.m2c": "c156e57741c008c665c657e49be64c17181e6b657462b81f3bc4f083e339cb5e",
    "GenRIOT.m2c": "742650cb38a824a0dd69ac6cf0ef9d53bb23f50fbabaf423bb5f0520ef627173",
    "LOOP_TEMPLATE": "50fef5efe81390f9e98fe907cddada44f14f7d0461ea39d8a9f5306d18073879",
    "MapArduino.m2m": "1ea50bae1e4822a08742124c81a6803e99e3f58479b16a031a60ea522f6358e3",
    "MapContiki.m2m": "4310a10f1245930253480324d4f959d131ec4c09618290ce12e0ac1cc668b84c",
    "MapDataCollector.m2m": "71e6d00e34725b529beaecd4588e51233e5d4c75374ad36ccfb7ecda1609b6e1",
    "MapRIOT.m2m": "ae12746d32e7949dcadda00d4a2e5eb0160f2c0fabf030ec456083faeb8361fd",
    "NESTED_TEMPLATE": "dded4b157d8314a80f6f7e151389cf7cc35f1b04c56ef2004133a765642bcc68",
    "PURE_TEXT_TEMPLATE": "e6e6a563862456e428d7cfb6ccf3d886bef517c5a2b083f57f69bf96f2169aa0",
    "refinement-hop": "fe9fe6080a7b3211ae40e2d8d1a8f0f0929338be57c14909e7ad8253ca768921",
    "world-0": "4f59bbb591d2269ea97eefe4036dd2349e7f4ee9d14f4bb39ccba10628241959",
    "world-1": "c4c2947a8db023c04b5284f4999db505356971a96f257c3a06baa22a067db96d",
    "world-2": "726cd5aeb654c3a9d8f31d60f6c5c938d12f4e1c0b21597aefef7d0319340e78",
    "world-3": "e8df58e3fb34f735ce52b12d29fa58b5185ff5204fa63913bda2dc25131dbc39",
}


@pytest.mark.parametrize("name", sorted(CORPUS))
def test_parse_outcomes_are_unchanged(name):
    assert outcomes_digest(name) == OUTCOME_DIGESTS[name]
