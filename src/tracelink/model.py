"""Typed models and metamodels: parsing, conformance checking, paths, navigation.

Concrete syntax is JSON (``*.mm.json`` / ``*.model.json``, see docs/formats.md).
``canonical_json`` writes every JSON file tracelink saves except trace files
(``trace.save_trace``) and models (``serialize_model``, from the elements): a
dedicated writer that reproduces json's ``indent=2, sort_keys=True`` bytes
exactly. Values are immutable after parse; engines that build models mutate
fresh elements during construction only.

Conformance is checked where a model enters from disk, in the one walk of
``parse_model`` that builds it. The M2M engine checks each output fact in the
phase that makes it, so its output conforms by construction too. Both mark
the model checked; ``check_conformance`` walks a model built in memory.
``ensure_conforms`` records the result on the model, so engines trust a
checked model and check a hand-built one. A checked model also keeps its
element index (``element_index``), built once on first use.
"""

from __future__ import annotations

import json
from bisect import bisect_left
from collections import namedtuple
from collections.abc import Callable
from functools import cached_property
from json.encoder import encode_basestring  # json's own C escaper for ensure_ascii=False

from .errors import ConformanceError, ParseError, PathNotFound, SchemaError, TracelinkError
from .paths import IDENTIFIER, ROOT_NAME, ROOT_PATH, ElementPath, _canonical, parse_path

PRIMITIVE_TYPES = ("string", "int", "float", "bool")


# ---------------------------------------------------------------------------
# Metamodel
# ---------------------------------------------------------------------------

# What a navigation step over a feature reads from the element holding it is
# defined once, by the feature's ``_read(model, holder)``. Both engines call it
# through the feature they typed the step with: M2M's one-step navigations from
# the source class's ``features``, when a rule file is parsed and once per run;
# M2C's through ``nav_type``, once per template, when it is parsed.


class AttributeDef(namedtuple("AttributeDef", "name type")):  # type: one of PRIMITIVE_TYPES
    __slots__ = ()

    def _read(self, m: Model, holder: Element) -> object:
        return holder.attrs.get(self.name)  # None when unset


class CollectionDef(namedtuple("CollectionDef", "name element_class")):
    __slots__ = ()

    def _read(self, m: Model, holder: Element) -> list[Element]:
        return holder.collections.get(self.name, [])  # the holder's own list, [] when absent


class ReferenceDef(namedtuple("ReferenceDef", "name target_class optional", defaults=(False,))):
    __slots__ = ()

    def _read(self, m: Model, holder: Element) -> Element | None:
        ref_path = holder.refs.get(self.name)  # None when unset
        return None if ref_path is None else resolve_path(m, ref_path)


class ClassDef(namedtuple("ClassDef", "name attributes collections references", defaults=((), (), ()))):
    """A metamodel class. Not slotted, so ``features`` caches in the
    instance's ``__dict__``, which equality, hashing and ``repr`` ignore."""

    @cached_property
    def features(self) -> dict[str, AttributeDef | CollectionDef | ReferenceDef]:
        """Every feature by name. Relies on the unique feature names that
        ``parse_metamodel`` enforces; callers dispatch on the definition's type."""
        return {f.name: f for f in (*self.attributes, *self.collections, *self.references)}

    @cached_property
    def _exact_types(self) -> dict[str, tuple[type, ...]]:
        """Each attribute's name: the Python types it takes as they are, a shortcut past ``_type_ok``."""
        return {a.name: _TYPES[a.type] for a in self.attributes}


class Metamodel(namedtuple("Metamodel", "name classes", defaults=((),))):
    """A metamodel; ``class_named`` caches outside the fields, as ``ClassDef.features`` does."""

    @cached_property
    def class_named(self) -> Callable[[str], ClassDef | None]:
        """``class_named(name)``: the class of that name or None, one lookup
        in a dict built on first use."""
        return {c.name: c for c in self.classes}.get


# ---------------------------------------------------------------------------
# Model
# ---------------------------------------------------------------------------

class Element:
    """One node of a model tree. Collections are ordered; order is significant.

    Engines fill a fresh element's dicts while they build a model, so each
    element gets dicts of its own; equal elements have equal fields."""

    __slots__ = ("class_name", "attrs", "collections", "refs")
    __hash__ = None

    def __init__(self, class_name: str, attrs: dict[str, object] | None = None,
                 collections: dict[str, list[Element]] | None = None, refs: dict[str, ElementPath] | None = None):
        self.class_name = class_name
        self.attrs = {} if attrs is None else attrs
        self.collections = {} if collections is None else collections
        self.refs = {} if refs is None else refs

    def __eq__(self, other):  # the fields' own ``==``, from an explicit stack of pairs: any depth
        if other.__class__ is not self.__class__:
            return NotImplemented
        pairs, seen = [(self, other)], set()
        while pairs:
            a, b = pairs.pop()
            if a.__class__ is not b.__class__ or not isinstance(a, Element):
                if a != b:  # an item that is not an element, compared whole
                    return False
            elif (id(a), id(b)) not in seen:
                seen.add((id(a), id(b)))
                if (a.class_name, a.attrs, a.refs, a.collections.keys()) != (
                        b.class_name, b.attrs, b.refs, b.collections.keys()):
                    return False
                for name, xs in a.collections.items():
                    ys = b.collections[name]
                    if type(xs) is not type(ys) or type(xs) not in (list, tuple) or len(xs) != len(ys):
                        xs, ys = [xs], [ys]  # compared whole
                    pairs += [(x, y) for x, y in zip(xs, ys) if x is not y]
        return True

    def __repr__(self) -> str:  # the fields' own ``repr``, each element's made after its contents': any depth
        text, stack = {}, [self]
        while stack:
            e = stack.pop()
            if id(e) not in text:
                text[id(e)] = _Shown("...")  # until it is made: an element inside its own contents
                stack += [e, *(c for v in e.collections.values() for c in v
                               if isinstance(c, Element) and id(c) not in text)]
                continue
            shown = {name: type(v)(text.get(id(c), c) for c in v) for name, v in e.collections.items()}
            text[id(e)] = _Shown(f"Element(class_name={e.class_name!r}, attrs={e.attrs!r}, "
                                 f"collections={shown!r}, refs={e.refs!r})")
        return str(text[id(self)])


class _Shown(str):  # text that ``repr`` shows as it is
    __repr__ = str.__str__


class Model:
    """A model: its uri, its metamodel's name and its root element.
    ``checked_against`` is the metamodel ``ensure_conforms`` found it to
    conform to, and ``index`` the element index of a checked model; both
    are left out of equality and ``repr``."""

    __slots__ = ("uri", "metamodel_name", "root", "checked_against", "index")
    __hash__ = None

    def __init__(self, uri: str, metamodel_name: str, root: Element):
        self.uri = uri
        self.metamodel_name = metamodel_name
        self.root = root
        self.checked_against: Metamodel | None = None
        self.index: dict[int, tuple[ElementPath, Element]] | None = None

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.uri, self.metamodel_name, self.root) == (other.uri, other.metamodel_name, other.root)

    def __repr__(self) -> str:
        return f"Model(uri={self.uri!r}, metamodel_name={self.metamodel_name!r}, root={self.root!r})"


Violation = namedtuple("Violation", "path message")


# ---------------------------------------------------------------------------
# JSON helpers
# ---------------------------------------------------------------------------

def _load_json(text: str) -> object:
    """``json.loads``; a syntax error is a ``ParseError`` naming line and
    column, and so is nesting deeper than the decoder's recursion limit. The
    decoder shares that limit with the caller's frames, so a document they
    leave it no room for is decoded again on a fresh thread."""
    try:
        try:
            return json.loads(text)
        except RecursionError:
            from concurrent.futures import ThreadPoolExecutor

            with ThreadPoolExecutor(1) as pool:
                return pool.submit(json.loads, text).result()
    except json.JSONDecodeError as exc:
        raise ParseError(exc.msg, line=exc.lineno, column=exc.colno) from exc
    except RecursionError as exc:
        raise ParseError("JSON nested too deeply") from exc


def _require(cond: bool, message: str):
    if not cond:
        raise ParseError(message)


_NON_FINITE = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}  # json's spellings


def _json_float(value: float) -> str:
    text = float.__repr__(value)
    return _NON_FINITE.get(text, text)


# Scalar writers by exact type; a subclass (an enum, say) is left to json.
_JSON_SCALARS = {
    str: encode_basestring,
    int: int.__repr__,
    float: _json_float,
    bool: lambda value: "true" if value else "false",
    type(None): lambda value: "null",
}
_scalar_writer = _JSON_SCALARS.get


def _write_json(value: object, newline: str, emit: Callable[[str], None]):
    """Emit ``value`` at the indent ``newline`` ends in; not a closure, which would reach itself."""
    kind = type(value)
    if kind is dict or kind is list or kind is tuple:
        keyed = kind is dict
        if not value:
            emit("{}" if keyed else "[]")
            return
        inner = newline + "  "
        sep = ("{" if keyed else "[") + inner
        for entry in sorted(value.items()) if keyed else value:
            item = entry[1] if keyed else entry
            head = sep + encode_basestring(entry[0]) + ": " if keyed else sep  # a key that is no str: TypeError
            to_text = _scalar_writer(type(item))
            if to_text is None:
                emit(head)
                _write_json(item, inner, emit)
            else:
                emit(head + to_text(item))
            sep = "," + inner
        emit(newline + ("}" if keyed else "]"))
    else:
        to_text = _scalar_writer(kind)
        if to_text is None:
            raise TypeError(kind)
        emit(to_text(value))


def canonical_json(data: object) -> str:
    """Canonical serialization: UTF-8, LF, 2-space indent, sorted keys.

    The bytes are those of ``json.dumps(data, ensure_ascii=False, indent=2,
    sort_keys=True) + "\\n"``. json serves ``indent`` only from its
    pure-Python encoder, so a dedicated writer produces them instead. A
    document it does not write (a non-``str`` key, a type outside JSON, a
    cycle) goes to ``json.dumps`` whole, which coerces or raises as json does.
    """
    chunks: list[str] = []
    try:
        _write_json(data, "\n", chunks.append)
    except (TypeError, RecursionError):
        return json.dumps(data, ensure_ascii=False, indent=2, sort_keys=True) + "\n"
    chunks.append("\n")
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
_MAX_DEPTH = 960  # levels of lists and objects in a model document: 320 of elements with attributes
_DOCUMENT_KEYS, _ELEMENT_KEYS = frozenset(("metamodel", "root")), frozenset(("class", "attrs", "collections", "refs"))


def _nesting(value: object) -> int:
    """How many levels of lists and objects ``value`` nests, level by level."""
    depth, level = 0, [value]
    while level := [item for item in level if isinstance(item, (dict, list))]:
        depth += 1
        level = [v for item in level for v in (item.values() if isinstance(item, dict) else item)]
    return depth


def _load_model_json(text: str) -> object:
    """A model document's JSON, for a reader that does not walk it as ``parse_model`` does."""
    data = _load_json(text)
    _require(_nesting(data) <= _MAX_DEPTH, "JSON nested too deeply")
    return data


def _path_text(node, prefix: str = "") -> str:
    """The path of a walk's ``node``, (parent node, collection name, index) or None at the root."""
    steps = []
    while node is not None:
        node, name, index = node
        steps.append(f"{name}[{index}]")
    return prefix + ".".join(reversed(steps)) if steps else ROOT_NAME


def parse_model(text: str, mm: Metamodel, uri: str = "") -> Model:
    """Parse a model document and check it against ``mm`` (``_read_model``)."""
    return _read_model(_load_json(text), mm, uri)


def _read_model(data: object, mm: Metamodel, uri: str) -> Model:
    """Read a decoded model document and check it against ``mm`` in one walk:
    the first structural fault in document order is a ``ParseError``, else all
    violations make one ``ConformanceError``; nesting past ``_MAX_DEPTH`` first."""
    try:
        return _walk_model(data, mm, uri)
    except TracelinkError:
        _require(_nesting(data) <= _MAX_DEPTH, "JSON nested too deeply")
        raise


def _walk_model(data: object, mm: Metamodel, uri: str) -> Model:
    _require(isinstance(data, dict), "model document must be an object")
    declared = data.get("metamodel")
    _require(isinstance(declared, str) and declared, "model needs a string 'metamodel'")
    _require("root" in data, "model needs a 'root' element")
    if declared != mm.name:
        raise ConformanceError("root", f"model declares metamodel '{declared}', expected '{mm.name}'")
    _require(_DOCUMENT_KEYS.issuperset(data) or _nesting(data) <= _MAX_DEPTH, "JSON nested too deeply")
    faults, holders, top, class_named = [], [], [], mm.class_named
    # (raw element, path node, list it goes into, the feature it is held in,
    # nesting level); a fault met early waits here as a ParseError for its turn.
    stack = [(data["root"], None, top, None, 2)]
    while stack:
        raw, node, into, held_as, level = stack.pop()
        if not isinstance(raw, dict):
            if isinstance(raw, ParseError):
                raise raw
            raise ParseError(f"{_path_text(node, 'root.')}: element must be an object")
        if level > _MAX_DEPTH - 2 or not _ELEMENT_KEYS.issuperset(raw):
            _require(level - 1 + _nesting(raw) <= _MAX_DEPTH, "JSON nested too deeply")
        class_name, attrs, raw_colls = raw.get("class"), raw.get("attrs", {}), raw.get("collections", {})
        if not isinstance(class_name, str) or not class_name:
            raise ParseError(f"{_path_text(node, 'root.')}: element needs a string 'class'")
        if not isinstance(attrs, dict):
            raise ParseError(f"{_path_text(node, 'root.')}: 'attrs' must be an object")
        for key, value in attrs.items():
            if not isinstance(value, _SCALARS):
                raise ParseError(f"{_path_text(node, 'root.')}: attribute '{key}' must be a scalar")
        if not isinstance(raw_colls, dict):
            raise ParseError(f"{_path_text(node, 'root.')}: 'collections' must be an object")
        e, cls = Element(class_name, attrs), class_named(class_name)
        into.append(e)
        try:
            raw_refs = raw.get("refs", {})
            if not isinstance(raw_refs, dict):
                raise ParseError(f"{_path_text(node, 'root.')}: 'refs' must be an object")
            for name, value in raw_refs.items():
                if not isinstance(value, str):
                    raise ParseError(f"{_path_text(node, 'root.')}: reference '{name}' must be a path string")
                e.refs[name] = parse_path(value)
        except ParseError as exc:  # read after the element's collections
            stack.append((exc, None, None, None, 0))
        if raw_colls:
            frames, features = [], cls.features if cls is not None else {}
            for name, items in raw_colls.items():
                if not isinstance(items, list):
                    frames.append((ParseError(f"{_path_text(node, 'root.')}: collection '{name}' must be a list"),
                                   None, None, None, 0))
                    break
                kids = e.collections[name] = []
                frames.extend([(item, (node, name, i), kids, features.get(name), level + 3)
                               for i, item in enumerate(items)])
            stack.extend(reversed(frames))
        _check_element(cls, e, node, held_as, faults, holders)
    model = Model(uri, declared, top[0])
    _conclude(model, mm, _violations(model, faults, holders))
    return model


def serialize_model(m: Model) -> str:
    """``canonical_json`` of the model's document, written straight from its
    elements from an explicit stack, each indent string made once per level."""
    out, indents = ['{\n  "metamodel": ', encode_basestring(m.metamodel_name), ',\n  "root": '], ["\n"]
    keys: dict[str, str] = {}  # a member's key as JSON text, made once
    writer = _JSON_SCALARS.get

    def members(values: dict, indent: str, close: str) -> str:
        """An object of scalar members, attribute values or reference paths (a str subclass), keys sorted."""
        parts = []
        for key, value in sorted(values.items()):
            if key not in keys:
                keys[key] = encode_basestring(key) + ": "
            parts.append(indent + keys[key] + writer(type(value), encode_basestring)(value))
        return "{" + ",".join(parts) + close + "}"

    todo: list = [(m.root, 1)]  # text, or an element to write at an indent level
    while todo:
        item = todo.pop()
        if item.__class__ is str:
            out.append(item)
            continue
        e, level = item
        while len(indents) <= level + 3:
            indents.append(indents[-1] + "  ")
        close, inner, deeper, kid = indents[level:level + 4]
        attrs = f'{inner}"attrs": {members(e.attrs, deeper, inner)},' if e.attrs else ""
        head = f'{{{attrs}{inner}"class": {encode_basestring(e.class_name)}'
        tail = (f',{inner}"refs": {members(e.refs, deeper, inner)}' if e.refs else "") + close + "}"
        named = [name for name in sorted(e.collections) if e.collections[name]] if e.collections else ()
        if not named:
            out.append(head + tail)
            continue
        body = [f'{head},{inner}"collections": {{']
        for name in named:
            body.append(f'{"," if len(body) > 1 else ""}{deeper}{encode_basestring(name)}: [')
            for i, child in enumerate(e.collections[name]):
                body += ("," + kid if i else kid, (child, level + 3))
            body.append(deeper + "]")
        body.append(inner + "}" + tail)
        todo.extend(reversed(body))
    out.append("\n}\n")
    return "".join(out)


# ---------------------------------------------------------------------------
# Conformance
# ---------------------------------------------------------------------------

# The Python types each attribute type takes; a bool is an int to Python only.
_TYPES = {"string": (str,), "bool": (bool,), "int": (int,), "float": (int, float)}


def _type_ok(declared: str, value: object) -> bool:
    return isinstance(value, _TYPES[declared]) and (declared == "bool" or not isinstance(value, bool))


# Each fact of conformance is defined once, for ``parse_model``'s walk and for
# ``check_conformance``'s. A fault is (path node, message): text only if reported.

def _check_element(cls: ClassDef | None, e: Element, node, held_as, faults: list, holders: list):
    """The facts local to ``e``: its class ``cls`` is known and is the one of
    the collection it is ``held_as``, the feature of its holder; each
    attribute it sets is declared and of its type; each collection and
    reference it sets is declared. An element whose class declares
    references is kept in ``holders`` for later."""
    if isinstance(held_as, CollectionDef) and e.class_name != held_as.element_class:
        faults.append((node, f"collection '{held_as.name}' holds class '{held_as.element_class}', "
                             f"got '{e.class_name}'"))
    if cls is None:
        faults.append((node, f"unknown class '{e.class_name}'"))
        return
    features, exact_types = cls.features, cls._exact_types
    for name, value in e.attrs.items():
        if value.__class__ not in exact_types.get(name, ()):
            attr = features.get(name)
            if not isinstance(attr, AttributeDef):
                faults.append((node, f"class '{cls.name}' declares no attribute '{name}'"))
            elif not _type_ok(attr.type, value):
                faults.append((node, f"attribute '{name}' expects {attr.type}, got {type(value).__name__}"))
    for name in e.collections:
        if not isinstance(features.get(name), CollectionDef):
            faults.append((node, f"class '{cls.name}' declares no collection '{name}'"))
    for name in e.refs:
        if not isinstance(features.get(name), ReferenceDef):
            faults.append((node, f"class '{cls.name}' declares no reference '{name}'"))
    if cls.references:
        holders.append((e, cls, node))


def _violations(m: Model, faults: list, holders: list) -> list[Violation]:
    """``faults``, and those of each declared reference of ``holders`` (element,
    class, node) in the built tree: unset though required, dangling, or to an
    element of another class; sorted by (path, message)."""
    for e, cls, node in holders:
        for ref in cls.references:
            ref_path = e.refs.get(ref.name)
            if ref_path is None:
                if not ref.optional:
                    faults.append((node, f"required reference '{ref.name}' is unset"))
                continue
            try:
                target = resolve_path(m, ref_path)
            except PathNotFound:
                faults.append((node, f"reference '{ref.name}' dangles: '{ref_path}'"))
                continue
            if target.class_name != ref.target_class:
                faults.append((node, f"reference '{ref.name}' expects class '{ref.target_class}', "
                                     f"got '{target.class_name}'"))
    return sorted(Violation(_path_text(node), message) for node, message in faults)


def check_conformance(m: Model, mm: Metamodel) -> list[Violation]:
    """All conformance violations of a model built in memory, sorted by
    (path, message); empty means conforming. Pre-order from an explicit
    stack, so linear in depth; an element held twice is checked where first met."""
    faults, holders, seen, stack = [], [], set(), [(m.root, None, None)]
    while stack:
        e, node, held_as = stack.pop()
        if id(e) in seen:
            faults.append((node, "element contained more than once"))
            continue
        seen.add(id(e))
        cls = mm.class_named(e.class_name)
        _check_element(cls, e, node, held_as, faults, holders)
        features = cls.features if cls is not None else {}
        stack.extend([(child, (node, name, i), features.get(name)) for name, children in e.collections.items()
                      for i, child in enumerate(children)][::-1])
    return _violations(m, faults, holders)


def _conclude(m: Model, mm: Metamodel, violations: list[Violation]):
    if violations:
        raise ConformanceError(violations[0].path, violations[0].message, tuple(violations))
    m.checked_against = mm


def ensure_conforms(m: Model, mm: Metamodel):
    """Raise ConformanceError unless ``m`` conforms to ``mm``; check only once.

    Relies on models being immutable once checked (module docstring).
    """
    if m.checked_against != mm:
        _conclude(m, mm, check_conformance(m, mm))


# ---------------------------------------------------------------------------
# Path resolution and navigation typing
# ---------------------------------------------------------------------------

def resolve_path(m: Model, p: ElementPath) -> Element:
    """Walk collections/indices from the root to the addressed element."""
    current = m.root
    if p == ROOT_NAME:
        return current
    for step in p.split("."):
        name, indexed, index = step.partition("[")
        if not indexed:
            raise PathNotFound(step)
        children = current.collections.get(name)
        try:
            i = int(index[:-1])
        except ValueError:  # more digits than int() converts: no collection is that long
            raise PathNotFound(step) from None
        if children is None or i >= len(children):
            raise PathNotFound(step)
        current = children[i]
    return current


def nav_type(mm: Metamodel, class_name: str,
             steps: tuple[str, ...]) -> tuple[AttributeDef | CollectionDef | ReferenceDef, ...]:
    """The features that ``steps`` from an element of ``class_name`` read, one
    per step. A step past an attribute or a collection, or to no feature, is
    a ``SchemaError``: only references are navigated through."""
    cls, features = mm.class_named(class_name), []
    for step in steps:
        if features:
            if not isinstance(features[-1], ReferenceDef):
                kind = "into attribute" if isinstance(features[-1], AttributeDef) else "through collection"
                raise SchemaError(f"cannot navigate {kind} before '{step}'")
            cls = mm.class_named(features[-1].target_class)
        feature = cls.features.get(step)
        if feature is None:
            raise SchemaError(f"class '{cls.name}' has no feature '{step}'")
        features.append(feature)
    return tuple(features)


def _walk(e: Element, names: list[str], prefix: str):
    """Yield (path, element) for everything in ``e``'s collections ``names``,
    in source-path order, from an explicit stack: linear in depth."""
    stack = [(f"{prefix}{name}[{i}]", child) for name in names for i, child in enumerate(e.collections[name])]
    stack.reverse()
    while stack:
        text, element = stack.pop()
        yield _canonical(text), element
        if element.collections:
            prefix = text + "."
            stack.extend(reversed([(f"{prefix}{name}[{i}]", child) for name in sorted(element.collections)
                                   for i, child in enumerate(element.collections[name])]))


def iter_elements(m: Model):
    """Yield (path, element) pairs in source-path order (docs/formats.md,
    "Element paths"): collections by name, elements by index, each element
    before its contents, and the root's path, the bare name ``root``, among
    the root's collection names: ascending ``paths.source_path_key``. M2M
    trace links come in this order."""
    names = sorted(m.root.collections)
    before = bisect_left(names, ROOT_NAME)
    yield from _walk(m.root, names[:before], "")  # children of the root are addressed without a "root." prefix
    yield ROOT_PATH, m.root
    yield from _walk(m.root, names[before:], "")


def element_index(m: Model) -> dict[int, tuple[ElementPath, Element]]:
    """Every element of ``m`` by ``id``: its (path, element) pair, in
    ``iter_elements`` order. A checked model keeps it, built on first use;
    an unchecked one may still change, so its index is built afresh."""
    index = m.index
    if index is None:
        index = {id(pair[1]): pair for pair in iter_elements(m)}
        if m.checked_against is not None:
            m.index = index
    return index
