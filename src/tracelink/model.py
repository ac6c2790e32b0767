"""Typed models and metamodels: parsing, conformance checking, path resolution.

Concrete syntax is JSON (``*.mm.json`` / ``*.model.json``, see docs/formats.md).
``canonical_json`` writes every JSON file tracelink saves: a dedicated writer
that reproduces json's ``indent=2, sort_keys=True`` bytes exactly.
Values are immutable after parse; engines that build models mutate fresh
elements during construction only.

Conformance is checked where a model enters: in ``parse_model`` and when
the M2M engine assembles its output. The output check stays because M2M
bindings are not type-checked: a rule may bind ``7`` to a string attribute.
``ensure_conforms`` records the result on the model, so engines trust a
checked model and check a hand-built one.
"""

from __future__ import annotations

import json
import math
from collections.abc import Callable
from dataclasses import dataclass, field
from functools import cached_property
from json.encoder import encode_basestring  # json's own C escaper for ensure_ascii=False

from .errors import ConformanceError, ParseError, PathNotFound, SchemaError
from .paths import IDENTIFIER, ROOT_NAME, ROOT_PATH, ElementPath, _canonical, parse_path

PRIMITIVE_TYPES = ("string", "int", "float", "bool")


# ---------------------------------------------------------------------------
# Metamodel
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class AttributeDef:
    name: str
    type: str  # one of PRIMITIVE_TYPES


@dataclass(frozen=True)
class CollectionDef:
    name: str
    element_class: str


@dataclass(frozen=True)
class ReferenceDef:
    name: str
    target_class: str
    optional: bool = False


@dataclass(frozen=True)
class ClassDef:
    name: str
    attributes: tuple[AttributeDef, ...] = ()
    collections: tuple[CollectionDef, ...] = ()
    references: tuple[ReferenceDef, ...] = ()

    @cached_property
    def features(self) -> dict[str, AttributeDef | CollectionDef | ReferenceDef]:
        """Every feature by name. Relies on the unique feature names that
        ``parse_metamodel`` enforces; callers dispatch on the definition's type."""
        return {f.name: f for f in (*self.attributes, *self.collections, *self.references)}


@dataclass(frozen=True)
class Metamodel:
    name: str
    classes: tuple[ClassDef, ...] = ()

    @cached_property
    def class_named(self) -> Callable[[str], ClassDef | None]:
        """``class_named(name)``: the class of that name or None, one lookup
        in a dict built on first use."""
        return {c.name: c for c in self.classes}.get


# ---------------------------------------------------------------------------
# Model
# ---------------------------------------------------------------------------

@dataclass
class Element:
    """One node of a model tree. Collections are ordered; order is significant."""

    class_name: str
    attrs: dict[str, object] = field(default_factory=dict)
    collections: dict[str, list["Element"]] = field(default_factory=dict)
    refs: dict[str, ElementPath] = field(default_factory=dict)


@dataclass
class Model:
    uri: str
    metamodel_name: str
    root: Element
    # The metamodel ensure_conforms found this model to conform to.
    checked_against: Metamodel | None = field(default=None, init=False, compare=False, repr=False)


@dataclass(frozen=True)
class Violation:
    path: str
    message: str


# ---------------------------------------------------------------------------
# JSON helpers
# ---------------------------------------------------------------------------

def _load_json(text: str, source: str | None = None) -> object:
    """``json.loads``; a syntax error is a ``ParseError`` naming ``source``, line and
    column, and so is nesting deeper than the decoder's recursion limit."""
    prefix = "" if source is None else f"{source}: "
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(prefix + exc.msg, line=exc.lineno, column=exc.colno) from exc
    except RecursionError as exc:
        raise ParseError(prefix + "JSON nested too deeply") from exc


def _require(cond: bool, message: str):
    if not cond:
        raise ParseError(message)


def _json_float(value: float) -> str:
    if value != value:
        return "NaN"
    if value == math.inf:
        return "Infinity"
    if value == -math.inf:
        return "-Infinity"
    return float.__repr__(value)


# Scalar writers by exact type; a subclass (an enum, say) is left to json.
_JSON_SCALARS = {
    str: encode_basestring,
    int: int.__repr__,
    float: _json_float,
    bool: lambda value: "true" if value else "false",
    type(None): lambda value: "null",
}


def canonical_json(data: object) -> str:
    """Canonical serialization: UTF-8, LF, 2-space indent, sorted keys.

    The bytes are those of ``json.dumps(data, ensure_ascii=False, indent=2,
    sort_keys=True) + "\\n"``. json serves ``indent`` only from its
    pure-Python encoder, so a dedicated writer produces them instead. A
    document it does not write (a non-``str`` key, a type outside JSON, a
    cycle) goes to ``json.dumps`` whole, which coerces or raises as json does.
    """
    chunks: list[str] = []
    emit = chunks.append
    scalar = _JSON_SCALARS.get

    def write(value: object, newline: str):
        kind = type(value)
        if kind is dict:
            if not value:
                emit("{}")
                return
            inner = newline + "  "
            sep = "{" + inner
            for key in sorted(value):
                if type(key) is not str:
                    raise TypeError(key)
                item = value[key]
                to_text = scalar(type(item))
                if to_text is None:
                    emit(sep + encode_basestring(key) + ": ")
                    write(item, inner)
                else:
                    emit(sep + encode_basestring(key) + ": " + to_text(item))
                sep = "," + inner
            emit(newline + "}")
        elif kind is list or kind is tuple:
            if not value:
                emit("[]")
                return
            inner = newline + "  "
            sep = "[" + inner
            for item in value:
                to_text = scalar(type(item))
                if to_text is None:
                    emit(sep)
                    write(item, inner)
                else:
                    emit(sep + to_text(item))
                sep = "," + inner
            emit(newline + "]")
        else:
            to_text = scalar(kind)
            if to_text is None:
                raise TypeError(kind)
            emit(to_text(value))

    try:
        write(data, "\n")
    except (TypeError, RecursionError):
        return json.dumps(data, ensure_ascii=False, indent=2, sort_keys=True) + "\n"
    emit("\n")
    return "".join(chunks)


# ---------------------------------------------------------------------------
# Metamodel parse / serialize
# ---------------------------------------------------------------------------

def parse_metamodel(text: str) -> Metamodel:
    data = _load_json(text)
    _require(isinstance(data, dict), "metamodel document must be an object")
    _require(isinstance(data.get("name"), str) and data["name"], "metamodel needs a string 'name'")
    _require(isinstance(data.get("classes", []), list), "'classes' must be a list")

    classes: list[ClassDef] = []
    for raw in data.get("classes", []):
        _require(isinstance(raw, dict), "each class must be an object")
        cname = raw.get("name")
        _require(isinstance(cname, str) and cname, "class needs a string 'name'")
        for key in ("attributes", "collections", "references"):
            _require(isinstance(raw.get(key, []), list), f"class '{cname}': '{key}' must be a list")
        attrs = []
        for a in raw.get("attributes", []):
            _require(isinstance(a, dict) and isinstance(a.get("name"), str), f"bad attribute in class '{cname}'")
            if a.get("type") not in PRIMITIVE_TYPES:
                raise SchemaError(f"class '{cname}', attribute '{a['name']}': unknown type {a.get('type')!r}")
            attrs.append(AttributeDef(a["name"], a["type"]))
        colls = []
        for c in raw.get("collections", []):
            _require(isinstance(c, dict) and isinstance(c.get("name"), str) and isinstance(c.get("class"), str),
                     f"bad collection in class '{cname}'")
            colls.append(CollectionDef(c["name"], c["class"]))
        refs = []
        for r in raw.get("references", []):
            _require(isinstance(r, dict) and isinstance(r.get("name"), str) and isinstance(r.get("class"), str),
                     f"bad reference in class '{cname}'")
            refs.append(ReferenceDef(r["name"], r["class"], bool(r.get("optional", False))))
        classes.append(ClassDef(cname, tuple(attrs), tuple(colls), tuple(refs)))

    mm = Metamodel(data["name"], tuple(classes))
    _check_metamodel(mm)
    return mm


def _check_metamodel(mm: Metamodel):
    seen: set[str] = set()
    for cls in mm.classes:
        if cls.name in seen:
            raise SchemaError(f"duplicate class '{cls.name}' in metamodel '{mm.name}'")
        seen.add(cls.name)
    for cls in mm.classes:
        feature_names: set[str] = set()
        for feat in (*cls.attributes, *cls.collections, *cls.references):
            if feat.name in feature_names:
                raise SchemaError(f"class '{cls.name}': duplicate feature '{feat.name}'")
            feature_names.add(feat.name)
        for coll in cls.collections:
            if IDENTIFIER.fullmatch(coll.name) is None:  # collection names are path segments
                raise SchemaError(f"class '{cls.name}', collection '{coll.name}': not an identifier")
            if mm.class_named(coll.element_class) is None:
                raise SchemaError(
                    f"class '{cls.name}', collection '{coll.name}': unknown class '{coll.element_class}'")
        for ref in cls.references:
            if mm.class_named(ref.target_class) is None:
                raise SchemaError(
                    f"class '{cls.name}', reference '{ref.name}': unknown class '{ref.target_class}'")


def serialize_metamodel(mm: Metamodel) -> str:
    classes = []
    for cls in mm.classes:
        entry: dict[str, object] = {"name": cls.name}
        if cls.attributes:
            entry["attributes"] = [{"name": a.name, "type": a.type} for a in cls.attributes]
        if cls.collections:
            entry["collections"] = [{"class": c.element_class, "name": c.name} for c in cls.collections]
        if cls.references:
            entry["references"] = [
                {"class": r.target_class, "name": r.name, **({"optional": True} if r.optional else {})}
                for r in cls.references
            ]
        classes.append(entry)
    return canonical_json({"name": mm.name, "classes": classes})


# ---------------------------------------------------------------------------
# Model parse / serialize
# ---------------------------------------------------------------------------

_SCALARS = (str, int, float, bool)


def _parse_element(raw: object, where: str) -> Element:
    _require(isinstance(raw, dict), f"{where}: element must be an object")
    _require(isinstance(raw.get("class"), str) and raw["class"], f"{where}: element needs a string 'class'")
    attrs = raw.get("attrs", {})
    _require(isinstance(attrs, dict), f"{where}: 'attrs' must be an object")
    for key, value in attrs.items():
        _require(isinstance(value, _SCALARS), f"{where}: attribute '{key}' must be a scalar")
    collections: dict[str, list[Element]] = {}
    raw_colls = raw.get("collections", {})
    _require(isinstance(raw_colls, dict), f"{where}: 'collections' must be an object")
    for name, items in raw_colls.items():
        _require(isinstance(items, list), f"{where}: collection '{name}' must be a list")
        collections[name] = [_parse_element(item, f"{where}.{name}[{i}]") for i, item in enumerate(items)]
    refs: dict[str, ElementPath] = {}
    raw_refs = raw.get("refs", {})
    _require(isinstance(raw_refs, dict), f"{where}: 'refs' must be an object")
    for name, value in raw_refs.items():
        _require(isinstance(value, str), f"{where}: reference '{name}' must be a path string")
        refs[name] = parse_path(value)
    return Element(raw["class"], dict(attrs), collections, refs)


def parse_model(text: str, mm: Metamodel, uri: str = "") -> Model:
    """Parse and validate a model document against ``mm``."""
    data = _load_json(text)
    _require(isinstance(data, dict), "model document must be an object")
    declared = data.get("metamodel")
    _require(isinstance(declared, str) and declared, "model needs a string 'metamodel'")
    _require("root" in data, "model needs a 'root' element")
    if declared != mm.name:
        raise ConformanceError("root", f"model declares metamodel '{declared}', expected '{mm.name}'")
    model = Model(uri, declared, _parse_element(data["root"], "root"))
    ensure_conforms(model, mm)
    return model


def _element_to_json(e: Element) -> dict:
    out: dict[str, object] = {"class": e.class_name}
    if e.attrs:
        out["attrs"] = dict(e.attrs)
    if any(e.collections.values()):
        out["collections"] = {
            name: [_element_to_json(child) for child in children]
            for name, children in e.collections.items() if children
        }
    if e.refs:
        out["refs"] = {name: str(path) for name, path in e.refs.items()}
    return out


def serialize_model(m: Model) -> str:
    return canonical_json({"metamodel": m.metamodel_name, "root": _element_to_json(m.root)})


# ---------------------------------------------------------------------------
# Conformance
# ---------------------------------------------------------------------------

def _type_ok(declared: str, value: object) -> bool:
    if declared == "string":
        return isinstance(value, str)
    if declared == "bool":
        return isinstance(value, bool)
    if declared == "int":
        return isinstance(value, int) and not isinstance(value, bool)
    if declared == "float":
        return isinstance(value, (int, float)) and not isinstance(value, bool)
    return False


def check_conformance(m: Model, mm: Metamodel) -> list[Violation]:
    """All conformance violations, sorted by path. Empty list means conforming."""
    violations: list[Violation] = []
    seen: set[int] = set()

    def visit(e: Element, path_str: str, prefix: str):
        if id(e) in seen:
            violations.append(Violation(path_str, "element contained more than once"))
            return
        seen.add(id(e))
        cls = mm.class_named(e.class_name)
        if cls is None:
            violations.append(Violation(path_str, f"unknown class '{e.class_name}'"))
        else:
            features = cls.features
            for name, value in e.attrs.items():
                attr = features.get(name)
                if not isinstance(attr, AttributeDef):
                    violations.append(Violation(path_str, f"class '{cls.name}' declares no attribute '{name}'"))
                elif not _type_ok(attr.type, value):
                    violations.append(Violation(
                        path_str, f"attribute '{name}' expects {attr.type}, got {type(value).__name__}"))
            for name in e.collections:
                if not isinstance(features.get(name), CollectionDef):
                    violations.append(Violation(path_str, f"class '{cls.name}' declares no collection '{name}'"))
            for name, ref_path in e.refs.items():
                ref = features.get(name)
                if not isinstance(ref, ReferenceDef):
                    violations.append(Violation(path_str, f"class '{cls.name}' declares no reference '{name}'"))
                    continue
                try:
                    target = resolve_path(m, ref_path)
                except PathNotFound:
                    violations.append(Violation(path_str, f"reference '{name}' dangles: '{ref_path}'"))
                    continue
                if target.class_name != ref.target_class:
                    violations.append(Violation(
                        path_str,
                        f"reference '{name}' expects class '{ref.target_class}', got '{target.class_name}'"))
            for ref in cls.references:
                if not ref.optional and ref.name not in e.refs:
                    violations.append(Violation(path_str, f"required reference '{ref.name}' is unset"))
        for name, children in e.collections.items():
            decl = cls.features.get(name) if cls else None
            for i, child in enumerate(children):
                child_path = f"{prefix}{name}[{i}]"
                if isinstance(decl, CollectionDef) and child.class_name != decl.element_class:
                    violations.append(Violation(
                        child_path,
                        f"collection '{name}' holds class '{decl.element_class}', got '{child.class_name}'"))
                visit(child, child_path, child_path + ".")

    visit(m.root, ROOT_NAME, "")  # children of the root are addressed without a "root." prefix
    violations.sort(key=lambda v: (v.path, v.message))
    return violations


def ensure_conforms(m: Model, mm: Metamodel):
    """Raise ConformanceError unless ``m`` conforms to ``mm``; check only once.

    Relies on models being immutable once checked (module docstring).
    """
    if m.checked_against == mm:
        return
    violations = check_conformance(m, mm)
    if violations:
        raise ConformanceError(violations[0].path, violations[0].message, tuple(violations))
    m.checked_against = mm


# ---------------------------------------------------------------------------
# Path resolution
# ---------------------------------------------------------------------------

def resolve_path(m: Model, p: ElementPath) -> Element:
    """Walk collections/indices from the root to the addressed element."""
    steps = p.split(".")
    current = m.root
    if "[" not in steps[0]:
        if steps[0] != ROOT_NAME:
            raise PathNotFound(steps[0])
        del steps[0]
    for step in steps:
        name, indexed, index = step.partition("[")
        if not indexed:
            raise PathNotFound(step)
        children = current.collections.get(name)
        i = int(index[:-1])
        if children is None or i >= len(children):
            raise PathNotFound(step)
        current = children[i]
    return current


def iter_elements(m: Model):
    """Yield (path, element) pairs in pre-order, root first."""

    def walk(e: Element, prefix: str):
        for name, children in e.collections.items():
            for i, child in enumerate(children):
                text = f"{prefix}{name}[{i}]"
                yield _canonical(text), child
                yield from walk(child, text + ".")

    yield ROOT_PATH, m.root
    yield from walk(m.root, "")  # children of the root are addressed without a "root." prefix
