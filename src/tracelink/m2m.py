"""Rule-based model-to-model transformations.

The ``*.m2m`` language maps source elements to target elements through
matched rules (grammar in docs/formats.md). Execution is two-phase: match
every source element, then evaluate bindings with element values resolved
to the image created by the first target pattern of the matching rule.

Augmentation marks every target pattern ``traced``; executing an augmented
transformation additionally yields a local trace model with one link per
instantiated target pattern, tagged with the generating rule's name.
"""

from __future__ import annotations

import re
from collections import namedtuple
from dataclasses import dataclass, replace
from itertools import islice

from .errors import (
    ConformanceError,
    MatchAmbiguity,
    ParseError,
    SchemaError,
    TransformationError,
    UnknownClass,
    UnresolvedBinding,
)
from .model import (
    AttributeDef,
    ClassDef,
    CollectionDef,
    Element,
    Metamodel,
    Model,
    ReferenceDef,
    _type_ok,
    element_index,
    ensure_conforms,
)
from .trace import ElementRef, LocalTraceModel, TraceLink

# ---------------------------------------------------------------------------
# AST
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Literal:
    value: str | int | float | bool


@dataclass(frozen=True)
class VarRef:
    var: str


@dataclass(frozen=True)
class Nav:
    var: str
    feature: str


@dataclass(frozen=True)
class Concat:
    left: "Expr"
    right: "Expr"


Expr = Literal | VarRef | Nav | Concat


@dataclass(frozen=True)
class Guard:
    left: Nav
    op: str  # "=" or "!="
    right: Literal


@dataclass(frozen=True)
class Binding:
    feature: str
    expr: Expr


@dataclass(frozen=True)
class TargetPattern:
    var: str
    metamodel: str
    class_name: str
    bindings: tuple[Binding, ...] = ()
    traced: bool = False


@dataclass(frozen=True)
class Rule:
    name: str
    from_var: str
    from_metamodel: str
    from_class: str
    guard: Guard | None
    targets: tuple[TargetPattern, ...]


@dataclass(frozen=True)
class TransformationM2M:
    name: str
    inputs: tuple[tuple[str, str], ...]  # (alias, metamodel name)
    output: tuple[str, str]
    rules: tuple[Rule, ...]


def is_augmented(t: TransformationM2M) -> bool:
    return all(p.traced for rule in t.rules for p in rule.targets)


# ---------------------------------------------------------------------------
# Lexer
# ---------------------------------------------------------------------------

def _token_re(skip: str, symbols: str) -> re.Pattern:
    """One match per token, after any run of ``skip``: the groups are (word, symbol, float, int,
    string, bad character), all empty at the end of the text. Not DOTALL: a string's `\\.` must
    not take a newline."""
    return re.compile(rf"""(?:{skip})* (?: ([A-Za-z_][A-Za-z0-9_]*) | ({symbols}) | (\d+\.\d+) | (\d+)
                           | ("(?:[^"\\\n]|\\.)*") | \Z | (.) )""", re.VERBOSE)


_TOKEN_RE = _token_re(r"\s+|--[^\n]*", r"<-|!=|[{}();,:!.=]")  # whitespace and comments

_KEYWORDS = {"transformation", "input", "output", "rule", "from", "to", "traced", "concat", "true", "false"}
_BAD = ("bad", None)  # the token of a character no token starts with, or of a number too large

_ESCAPES = {"\\": "\\", '"': '"', "n": "\n", "t": "\t"}
_ESCAPE_RE = re.compile(r"\\(.)", re.DOTALL)


def _unescape(s: str) -> str:
    return _ESCAPE_RE.sub(lambda m: _ESCAPES.get(m[1], m[1]), s)


def _number_token(kind: str, digits: str) -> tuple:
    try:
        value = int(digits) if kind == "int" else float(digits)
    except ValueError:  # more digits than int() converts
        return _BAD
    return _BAD if value == float("inf") else (kind, value)  # float() reads one too large for a double as inf


class _Parser:
    """Recursive descent over ``(kind, value)`` tokens, read by index. A kind
    is "ident", "string", "int", "float", the end kind, or the symbol or
    keyword itself. A token's position is worked out only for an error, by
    scanning the text again."""

    pattern, keywords, end = _TOKEN_RE, _KEYWORDS, "eof"

    def __init__(self, text: str):
        keywords, end = self.keywords, (self.end, None)
        self.text = text
        self.tokens = [
            (w if w in keywords else "ident", w) if w
            else (s, s) if s
            else ("string", _unescape(q[1:-1])) if q
            else _number_token("int", n) if n
            else _number_token("float", f) if f
            else _BAD if b
            else end
            for w, s, f, n, q, b in self.pattern.findall(text)
        ]
        self.i = 0
        if _BAD in self.tokens:  # before any grammar error
            self.i = self.tokens.index(_BAD)
            literal = {3: "float", 4: "integer"}.get(self.pattern.match(text, self.offset()).lastindex)
            if literal:  # the bad token's group (``_token_re``) is a number's, not a character's
                self.error(f"{literal} literal too large")
            self.bad_character()

    def offset(self) -> int:
        """The current token's offset in the text."""
        m = next(islice(self.pattern.finditer(self.text), self.i, None))
        return m.start(m.lastindex) if m.lastindex else m.end()

    def error(self, message: str):
        offset = self.offset()
        line_start = self.text.rfind("\n", 0, offset) + 1
        raise ParseError(message, line=self.text.count("\n", 0, line_start) + 1, column=offset - line_start + 1)

    def bad_character(self):
        self.error(f"unexpected character {self.text[self.offset()]!r}")

    def accept(self, kind: str) -> bool:
        if self.tokens[self.i][0] == kind:
            self.i += 1
            return True
        return False

    def expect(self, kind: str):
        """The value of the current token, which must be of ``kind``."""
        got, value = self.tokens[self.i]
        if got != kind:
            self.error(f"expected {kind!r}, got {got!r}")
        self.i += 1
        return value

    # transformation := "transformation" IDENT ";" decl* rule*
    def transformation(self) -> TransformationM2M:
        self.expect("transformation")
        name = self.expect("ident")
        self.expect(";")
        inputs: list[tuple[str, str]] = []
        output: tuple[str, str] | None = None
        while self.tokens[self.i][0] in ("input", "output"):
            is_input = self.tokens[self.i][0] == "input"
            self.i += 1
            alias = self.expect("ident")
            self.expect(":")
            mm = self.expect("ident")
            self.expect(";")
            if is_input:
                inputs.append((alias, mm))
            elif output is None:
                output = (alias, mm)
            else:
                self.error("more than one output declaration")
        if not inputs:
            self.error("at least one input declaration required")
        if output is None:
            self.error("an output declaration is required")
        rules = []
        while self.tokens[self.i][0] == "rule":
            rules.append(self.rule())
        self.expect("eof")
        return TransformationM2M(name, tuple(inputs), output, tuple(rules))

    def rule(self) -> Rule:
        self.expect("rule")
        name = self.expect("ident")
        self.expect("{")
        self.expect("from")
        from_var = self.expect("ident")
        self.expect(":")
        from_mm, from_class = self.qualified_class()
        guard = None
        if self.accept("("):
            guard = self.guard()
            self.expect(")")
        self.expect("to")
        targets = [self.target()]
        while self.accept(","):
            targets.append(self.target())
        self.expect("}")
        return Rule(name, from_var, from_mm, from_class, guard, tuple(targets))

    def qualified_class(self) -> tuple[str, str]:
        mm = self.expect("ident")
        self.expect("!")
        cls = self.expect("ident")
        return mm, cls

    def guard(self) -> Guard:
        left = self.expr()
        if not isinstance(left, Nav):
            self.error("guard must compare a source attribute")
        op = "=" if self.accept("=") else ("!=" if self.accept("!=") else self.error("expected '=' or '!='"))
        right = self.expr()
        if not isinstance(right, Literal):
            self.error("guard must compare against a literal")
        return Guard(left, op, right)

    def target(self) -> TargetPattern:
        var = self.expect("ident")
        self.expect(":")
        mm, cls = self.qualified_class()
        traced = self.accept("traced")
        self.expect("(")
        bindings: list[Binding] = []
        if self.tokens[self.i][0] != ")":
            bindings.append(self.binding())
            while self.accept(","):
                bindings.append(self.binding())
        self.expect(")")
        return TargetPattern(var, mm, cls, tuple(bindings), traced)

    def binding(self) -> Binding:
        feature = self.expect("ident")
        self.expect("<-")
        return Binding(feature, self.expr())

    def expr(self) -> Expr:
        kind, value = self.tokens[self.i]
        if kind == "string" or kind == "int" or kind == "float":
            self.i += 1
            return Literal(value)
        if kind in ("true", "false"):
            self.i += 1
            return Literal(kind == "true")
        if kind == "concat":
            self.i += 1
            self.expect("(")
            left = self.expr()
            self.expect(",")
            right = self.expr()
            self.expect(")")
            return Concat(left, right)
        if kind == "ident":
            self.i += 1
            if self.accept("."):
                return Nav(value, self.expect("ident"))
            return VarRef(value)
        self.error("expected an expression")
        raise AssertionError  # unreachable


def parse_m2m(text: str, metamodels: dict[str, Metamodel]) -> TransformationM2M:
    """Parse a rule file and type each rule against the given metamodels, as a run does (``_plan``)."""
    t = _Parser(text).transformation()
    for mm_name in dict((*t.inputs, t.output)).values():
        if mm_name not in metamodels:
            raise UnknownClass(mm_name)
    seen_rules: set[str] = set()
    for rule in t.rules:
        if rule.name in seen_rules:
            raise SchemaError(f"duplicate rule '{rule.name}'")
        seen_rules.add(rule.name)
        _plan(rule, metamodels, t.output[1], {})
    return t


# ---------------------------------------------------------------------------
# Printer
# ---------------------------------------------------------------------------


def _escape(s: str) -> str:
    return s.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")


def _to_text(value: object) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    return value if isinstance(value, str) else repr(value)


def _literal_text(value: object) -> str:  # as both languages spell a literal
    return f'"{_escape(value)}"' if isinstance(value, str) else _to_text(value)


def _expr_text(expr: Expr) -> str:
    if isinstance(expr, Literal):
        return _literal_text(expr.value)
    if isinstance(expr, VarRef):
        return expr.var
    if isinstance(expr, Nav):
        return f"{expr.var}.{expr.feature}"
    return f"concat({_expr_text(expr.left)}, {_expr_text(expr.right)})"


def print_m2m(t: TransformationM2M) -> str:
    lines = [f"transformation {t.name};"]
    for alias, mm in t.inputs:
        lines.append(f"input {alias} : {mm};")
    lines.append(f"output {t.output[0]} : {t.output[1]};")
    for rule in t.rules:
        lines.append("")
        lines.append(f"rule {rule.name} {{")
        guard = ""
        if rule.guard is not None:
            guard = f" ({_expr_text(rule.guard.left)} {rule.guard.op} {_expr_text(rule.guard.right)})"
        lines.append(f"  from {rule.from_var} : {rule.from_metamodel}!{rule.from_class}{guard}")
        target_texts = []
        for pattern in rule.targets:
            traced = " traced" if pattern.traced else ""
            body = ",\n".join(f"    {b.feature} <- {_expr_text(b.expr)}" for b in pattern.bindings)
            inner = f"(\n{body}\n  )" if body else "()"
            target_texts.append(f"{pattern.var} : {pattern.metamodel}!{pattern.class_name}{traced} {inner}")
        lines.append("  to " + ", ".join(target_texts))
        lines.append("}")
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# Augmentation (the higher-order pass)
# ---------------------------------------------------------------------------


def _marked(t: TransformationM2M, traced: bool) -> TransformationM2M:
    return replace(t, rules=tuple(replace(rule, targets=tuple(replace(p, traced=traced) for p in rule.targets))
                                  for rule in t.rules))


def augment_m2m(t: TransformationM2M) -> TransformationM2M:
    """Mark every target pattern traced. Idempotent; rule logic untouched."""
    return _marked(t, True)


def strip_m2m(t: TransformationM2M) -> TransformationM2M:
    return _marked(t, False)


# ---------------------------------------------------------------------------
# Execution
# ---------------------------------------------------------------------------


# A matched source element: its input alias and path, its rule's plan, and one image per target pattern.
_Instance = namedtuple("_Instance", "alias path element plan images")

# A rule typed against the metamodels: once when parsed, and once per run. ``guard(model, element)``
# tells whether a source element of the rule's class satisfies the guard, None for no guard.
_RulePlan = namedtuple("_RulePlan", "rule guard targets")
# A target pattern: its class, its bindings in order and its class's references. A
# binding is (target feature, its kind: the definition's class, the expression's value
# as ``value(model, element)``, whether the source attribute's declared type proves
# every value's type, so that no value needs a check).
_TargetPlan = namedtuple("_TargetPlan", "class_name bindings references")


def _holds(op: str, left: object, right: object) -> bool:
    """``left op right`` for the operator of a guard or a template condition."""
    return left > right if op == ">" else left == right if op == "=" else left != right


def _compiled(expr: Expr, rule: Rule, src_cls: ClassDef, image_at: dict[str, int],
              image_of: dict[int, list[Element]]):
    """``expr`` of ``rule`` as a function of (model, element), for the matched
    ``element`` of ``model``, and the source feature it reads if it is a
    navigation, else None. A navigation is its feature's ``_read``: None for an
    unset attribute or reference. A sibling pattern's variable is that
    pattern's image of ``element`` in ``image_of``; ``image_at`` gives each
    pattern variable's index. An unknown variable or feature is a ``SchemaError``."""
    if isinstance(expr, Literal):
        literal = expr.value
        return (lambda model, element: literal), None
    if isinstance(expr, Concat):
        left = _compiled(expr.left, rule, src_cls, image_at, image_of)[0]
        right = _compiled(expr.right, rule, src_cls, image_at, image_of)[0]

        def concat(model, element):
            left_value, right_value = left(model, element), right(model, element)
            if not isinstance(left_value, str) or not isinstance(right_value, str):
                raise TransformationError("concat expects two string values")
            return left_value + right_value

        return concat, None
    if isinstance(expr, VarRef) and expr.var in image_at:  # a sibling pattern's image, placed as-is
        i = image_at[expr.var]
        return (lambda model, element: image_of[id(element)][i]), None
    if expr.var != rule.from_var:
        raise SchemaError(f"rule '{rule.name}': unknown variable '{expr.var}'")
    if isinstance(expr, VarRef):  # the matched source element
        return (lambda model, element: element), None
    source = src_cls.features.get(expr.feature)
    if source is None:
        raise SchemaError(f"rule '{rule.name}': class '{src_cls.name}' has no feature '{expr.feature}'")
    return source._read, source


def _plan(rule: Rule, metamodels: dict[str, Metamodel], out_mm_name: str,
          image_of: dict[int, list[Element]]) -> _RulePlan:
    """``rule`` typed against its source class and the output metamodel
    ``out_mm_name``: each navigation's source feature and each binding's
    target feature, looked up once in its class's ``features``. The first
    fault, in rule order, is an ``UnknownClass`` or a ``SchemaError``. A value
    is checked against an attribute unless it is read from a source attribute
    whose declared type proves it: the same type, or an int into a float. The
    inputs conform, so their values have their declared types."""
    src_mm = metamodels.get(rule.from_metamodel)
    if src_mm is None:
        raise UnknownClass(rule.from_metamodel)
    src_cls = src_mm.class_named(rule.from_class)
    if src_cls is None:
        raise UnknownClass(rule.from_class)
    guard = None
    if rule.guard is not None:
        read, attr = _compiled(rule.guard.left, rule, src_cls, {}, image_of)
        op, literal = rule.guard.op, rule.guard.right.value
        if not isinstance(attr, AttributeDef):
            raise SchemaError(f"rule '{rule.name}': '{attr.name}' is not an attr")
        if not _type_ok(attr.type, literal):
            raise SchemaError(f"rule '{rule.name}': guard compares {attr.type} attribute "
                              f"'{attr.name}' against {literal!r}")

        def guard(model, element):  # an unset attribute is None, which no literal equals
            return _holds(op, read(model, element), literal)

    image_at: dict[str, int] = {}
    classes = []
    for pattern in rule.targets:
        out_mm = metamodels.get(pattern.metamodel)
        if out_mm is None:
            raise UnknownClass(pattern.metamodel)
        if pattern.metamodel != out_mm_name:
            raise SchemaError(f"rule '{rule.name}': pattern variable '{pattern.var}' targets "
                              f"'{pattern.metamodel}', not the output metamodel '{out_mm_name}'")
        cls = out_mm.class_named(pattern.class_name)
        if cls is None:
            raise UnknownClass(pattern.class_name)
        if pattern.var in image_at or pattern.var == rule.from_var:
            raise SchemaError(f"rule '{rule.name}': duplicate pattern variable '{pattern.var}'")
        image_at[pattern.var] = len(classes)
        classes.append(cls)
    targets = []
    for pattern, cls in zip(rule.targets, classes):
        bindings, scalar_bound = [], set()
        for binding in pattern.bindings:
            feature = cls.features.get(binding.feature)
            if feature is None:
                raise SchemaError(f"rule '{rule.name}': class '{cls.name}' has no feature '{binding.feature}'")
            if not isinstance(feature, CollectionDef):
                if binding.feature in scalar_bound:
                    raise SchemaError(f"rule '{rule.name}': feature '{binding.feature}' bound more than once")
                scalar_bound.add(binding.feature)
            value, source = _compiled(binding.expr, rule, src_cls, image_at, image_of)
            proven = (isinstance(feature, AttributeDef) and isinstance(source, AttributeDef)
                      and (source.type == feature.type or (source.type, feature.type) == ("int", "float")))
            bindings.append((feature, type(feature), value, proven))
        targets.append(_TargetPlan(pattern.class_name, bindings, cls.references))
    return _RulePlan(rule, guard, targets)


def _run(t: TransformationM2M, inputs: dict[str, Model], metamodels: dict[str, Metamodel],
         output_uri: str) -> tuple[Model, list[_Instance]]:
    """Output model, checked and indexed, and the matched instances by input
    alias, then source path. Each rule is typed once, before any element is
    matched (``_plan``). Each output fact is checked in the phase that makes
    it; a fault is a ``ConformanceError`` at the matched source path naming the
    rule and the feature. Phase 2 raises its first fault when it ends, after
    any binding that cannot be evaluated."""
    declared = dict(t.inputs)
    if set(inputs) != set(declared):
        raise TransformationError(
            f"inputs {sorted(inputs)} do not match declared aliases {sorted(declared)}")
    for alias, model in inputs.items():
        mm_name = declared[alias]
        if model.metamodel_name != mm_name:
            raise ConformanceError("root", f"input '{alias}' must conform to '{mm_name}'")
        ensure_conforms(model, metamodels[mm_name])

    out_mm = metamodels[t.output[1]]

    # The rules by source metamodel, then source class, in rule order. A rule
    # whose class no input's metamodel has is typed, and matches nothing.
    image_of: dict[int, list[Element]] = {}  # a matched element's images, filled in phase 1
    plans_for: dict[str, dict[str, list[_RulePlan]]] = {name: {} for name in declared.values()}
    for rule in t.rules:
        plan = _plan(rule, metamodels, t.output[1], image_of)
        if rule.from_metamodel in plans_for:
            plans_for[rule.from_metamodel].setdefault(rule.from_class, []).append(plan)

    # Phase 1: match every source element, instantiate target patterns.
    instances: list[_Instance] = []  # by input alias, then source path: the trace order
    for alias in sorted(inputs):
        model = inputs[alias]
        by_class = plans_for[model.metamodel_name]
        for path, element in element_index(model).values():
            candidates = by_class.get(element.class_name)
            if candidates is None:
                continue
            plan = None
            for candidate in candidates:
                if candidate.guard is None or candidate.guard(model, element):
                    if plan is not None:
                        raise MatchAmbiguity(str(path), [c.rule.name for c in candidates
                                                         if c.guard is None or c.guard(model, element)])
                    plan = candidate
            if plan is None:
                continue
            images = [Element(p.class_name) for p in plan.targets]
            instances.append(_Instance(alias, path, element, plan, images))
            image_of[id(element)] = images

    image_ids = {id(img) for inst in instances for img in inst.images}

    def resolve_image(source: Element) -> Element:
        if id(source) in image_ids:
            return source  # sibling pattern image, placed as-is
        images = image_of.get(id(source))
        if images is None:
            indexes = map(element_index, inputs.values())
            raise UnresolvedBinding(next(str(index[id(source)][0]) for index in indexes if id(source) in index))
        return images[0]

    # Phase 2: evaluate bindings with default resolution for element values.
    placed: dict[int, int] = {}
    pending_refs: list[tuple[Element, str, Element]] = []
    fault: ConformanceError | None = None
    for alias, path, element, plan, images in instances:
        model, rule = inputs[alias], plan.rule
        for pattern, image in zip(plan.targets, images):
            for feature, kind, value_of, proven in pattern.bindings:
                value = value_of(model, element)
                if value is None:
                    continue
                if kind is AttributeDef:
                    if not proven and not _type_ok(feature.type, value):
                        fault = fault or ConformanceError(
                            path, f"rule '{rule.name}': attribute '{feature.name}' "
                                  f"expects {feature.type}, got {type(value).__name__}")
                    image.attrs[feature.name] = value
                elif kind is ReferenceDef:
                    if isinstance(value, list):
                        raise TransformationError(
                            f"rule '{rule.name}': reference '{feature.name}' bound to a collection")
                    target = resolve_image(value) if isinstance(value, Element) else None
                    if target is None:
                        raise TransformationError(
                            f"rule '{rule.name}': reference '{feature.name}' needs an element value")
                    if target.class_name != feature.target_class:
                        fault = fault or ConformanceError(
                            path, f"rule '{rule.name}': reference '{feature.name}' expects "
                                  f"class '{feature.target_class}', got '{target.class_name}'")
                    pending_refs.append((image, feature.name, target))
                else:  # collection placement
                    children = value if isinstance(value, list) else [value]
                    bucket = image.collections.setdefault(feature.name, [])
                    for child in children:
                        if not isinstance(child, Element):
                            raise TransformationError(
                                f"rule '{rule.name}': collection '{feature.name}' needs element values")
                        child_image = resolve_image(child)
                        if child_image.class_name != feature.element_class:
                            fault = fault or ConformanceError(
                                path, f"rule '{rule.name}': collection '{feature.name}' holds "
                                      f"class '{feature.element_class}', got '{child_image.class_name}'")
                        placed[id(child_image)] = placed.get(id(child_image), 0) + 1
                        bucket.append(child_image)

    if fault is not None:
        raise fault

    # Assembly: exactly one unplaced image is the output root.
    all_images = [img for inst in instances for img in inst.images]
    over_placed = [img for img in all_images if placed.get(id(img), 0) > 1]
    if over_placed:
        raise ConformanceError("root", "an output element is placed into more than one collection")
    unplaced = [img for img in all_images if id(img) not in placed]
    if len(unplaced) != 1:
        raise ConformanceError(
            "root",
            f"output model must have exactly one root element, found {len(unplaced)} unplaced")
    out_model = Model(output_uri, t.output[1], unplaced[0])

    index = element_index(out_model)
    if len(index) != len(all_images):  # each image is placed once, so the others hold one another in a cycle
        raise ConformanceError("root", "an output element is placed inside its own contents, outside the output tree")
    for image, feature, target in pending_refs:
        entry = index.get(id(target))
        if entry is None:
            raise ConformanceError("root", "a reference points at an element outside the output tree")
        image.refs[feature] = entry[0]

    for inst in instances:
        for pattern, image in zip(inst.plan.targets, inst.images):
            for ref in pattern.references:
                if not ref.optional and ref.name not in image.refs:
                    raise ConformanceError(
                        inst.path, f"rule '{inst.plan.rule.name}': required reference '{ref.name}' is unset")
    out_model.checked_against = out_mm
    out_model.index = index
    return out_model, instances


def execute_m2m(
    t: TransformationM2M,
    inputs: dict[str, Model],
    metamodels: dict[str, Metamodel],
    output_uri: str = "",
    *,
    trace_id: str = "",
    transformation_id: str = "",
    execution_stamp: int = 0,
) -> tuple[Model, LocalTraceModel | None]:
    """Run the transformation; return its output model and, if it is
    augmented, its trace, else None. The trace has one link per instantiated
    target pattern, in input alias, source path and pattern order, tagged
    with the rule's name."""
    model, instances = _run(t, inputs, metamodels, output_uri)
    if not is_augmented(t):
        return model, None
    index = model.index
    links = tuple(
        TraceLink(
            sources=(ElementRef(inputs[inst.alias].uri, inst.path),),
            targets=(ElementRef(model.uri, index[id(image)][0]),),
            tags={"rule": inst.plan.rule.name},
        )
        for inst in instances for image in inst.images
    )
    return model, LocalTraceModel(trace_id, transformation_id, execution_stamp, links)
