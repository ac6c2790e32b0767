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
from bisect import bisect_left
from dataclasses import dataclass, replace
from typing import NamedTuple

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
    CollectionDef,
    Element,
    Metamodel,
    Model,
    ReferenceDef,
    ensure_conforms,
    iter_elements,
    resolve_path,
)
from .paths import ROOT_NAME
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

_TOKEN_RE = re.compile(
    r"""(?P<ws>\s+)
      | (?P<comment>--[^\n]*)
      | (?P<arrow><-)
      | (?P<neq>!=)
      | (?P<float>\d+\.\d+)
      | (?P<int>\d+)
      | (?P<string>"(?:[^"\\\n]|\\.)*")
      | (?P<ident>[A-Za-z_][A-Za-z0-9_]*)
      | (?P<sym>[{}();,:!.=])
    """,
    re.VERBOSE,
)

_KEYWORDS = {"transformation", "input", "output", "rule", "from", "to", "traced", "concat", "true", "false"}


class _Token(NamedTuple):
    kind: str  # "ident", "string", "int", "float", or the symbol/keyword itself
    value: object
    line: int
    col: int | None  # None inside an M2C tag, whose tokens carry the tag's line


_ESCAPES = {"\\": "\\", '"': '"', "n": "\n", "t": "\t"}


def _unescape(s: str) -> str:
    out = []
    i = 0
    while i < len(s):
        if s[i] == "\\" and i + 1 < len(s):
            out.append(_ESCAPES.get(s[i + 1], s[i + 1]))
            i += 2
        else:
            out.append(s[i])
            i += 1
    return "".join(out)


def _lex(text: str) -> list[_Token]:
    tokens: list[_Token] = []
    pos = 0
    line = 1
    line_start = 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if m is None:
            raise ParseError(f"unexpected character {text[pos]!r}", line=line, column=pos - line_start + 1)
        kind = m.lastgroup
        raw = m.group()
        col = pos - line_start + 1
        if kind == "ws":
            nl = raw.count("\n")
            if nl:
                line += nl
                line_start = pos + raw.rindex("\n") + 1
        elif kind == "comment":
            pass
        elif kind == "arrow" or kind == "neq" or kind == "sym":
            tokens.append(_Token(raw, raw, line, col))
        elif kind == "ident":
            tokens.append(_Token(raw if raw in _KEYWORDS else "ident", raw, line, col))
        elif kind == "string":
            tokens.append(_Token("string", _unescape(raw[1:-1]), line, col))
        elif kind == "int":
            tokens.append(_Token("int", int(raw), line, col))
        elif kind == "float":
            tokens.append(_Token("float", float(raw), line, col))
        pos = m.end()
    tokens.append(_Token("eof", None, line, len(text) - line_start + 1))
    return tokens


class _Parser:
    def __init__(self, tokens: list[_Token]):
        self.tokens = tokens
        self.i = 0

    @property
    def cur(self) -> _Token:
        return self.tokens[self.i]

    def error(self, message: str):
        raise ParseError(message, line=self.cur.line, column=self.cur.col)

    def accept(self, kind: str) -> _Token | None:
        if self.cur.kind == kind:
            tok = self.cur
            self.i += 1
            return tok
        return None

    def expect(self, kind: str) -> _Token:
        tok = self.accept(kind)
        if tok is None:
            self.error(f"expected {kind!r}, got {self.cur.kind!r}")
        return tok

    # transformation := "transformation" IDENT ";" decl* rule*
    def transformation(self) -> TransformationM2M:
        self.expect("transformation")
        name = self.expect("ident").value
        self.expect(";")
        inputs: list[tuple[str, str]] = []
        output: tuple[str, str] | None = None
        while self.cur.kind in ("input", "output"):
            is_input = self.cur.kind == "input"
            self.i += 1
            alias = self.expect("ident").value
            self.expect(":")
            mm = self.expect("ident").value
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
        while self.cur.kind == "rule":
            rules.append(self.rule())
        self.expect("eof")
        return TransformationM2M(name, tuple(inputs), output, tuple(rules))

    def rule(self) -> Rule:
        self.expect("rule")
        name = self.expect("ident").value
        self.expect("{")
        self.expect("from")
        from_var = self.expect("ident").value
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
        mm = self.expect("ident").value
        self.expect("!")
        cls = self.expect("ident").value
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
        var = self.expect("ident").value
        self.expect(":")
        mm, cls = self.qualified_class()
        traced = self.accept("traced") is not None
        self.expect("(")
        bindings: list[Binding] = []
        if self.cur.kind != ")":
            bindings.append(self.binding())
            while self.accept(","):
                bindings.append(self.binding())
        self.expect(")")
        return TargetPattern(var, mm, cls, tuple(bindings), traced)

    def binding(self) -> Binding:
        feature = self.expect("ident").value
        self.expect("<-")
        return Binding(feature, self.expr())

    def expr(self) -> Expr:
        tok = self.cur
        if tok.kind == "string" or tok.kind == "int" or tok.kind == "float":
            self.i += 1
            return Literal(tok.value)
        if tok.kind in ("true", "false"):
            self.i += 1
            return Literal(tok.kind == "true")
        if tok.kind == "concat":
            self.i += 1
            self.expect("(")
            left = self.expr()
            self.expect(",")
            right = self.expr()
            self.expect(")")
            return Concat(left, right)
        if tok.kind == "ident":
            self.i += 1
            if self.accept("."):
                feature = self.expect("ident").value
                return Nav(tok.value, feature)
            return VarRef(tok.value)
        self.error("expected an expression")
        raise AssertionError  # unreachable


# ---------------------------------------------------------------------------
# Static checks
# ---------------------------------------------------------------------------


def _check_transformation(t: TransformationM2M, metamodels: dict[str, Metamodel]):
    declared = dict(t.inputs)
    out_alias, out_mm_name = t.output
    declared[out_alias] = out_mm_name
    for alias, mm_name in declared.items():
        if mm_name not in metamodels:
            raise UnknownClass(mm_name)

    seen_rules: set[str] = set()
    for rule in t.rules:
        if rule.name in seen_rules:
            raise SchemaError(f"duplicate rule '{rule.name}'")
        seen_rules.add(rule.name)
        src_mm = metamodels.get(rule.from_metamodel)
        if src_mm is None:
            raise UnknownClass(rule.from_metamodel)
        if src_mm.class_named(rule.from_class) is None:
            raise UnknownClass(rule.from_class)
        if rule.guard is not None and not isinstance(_check_nav(rule, rule.guard.left, src_mm), AttributeDef):
            raise SchemaError(f"rule '{rule.name}': '{rule.guard.left.feature}' is not an attr")
        target_vars: set[str] = set()
        for pattern in rule.targets:
            out_mm = metamodels.get(pattern.metamodel)
            if out_mm is None:
                raise UnknownClass(pattern.metamodel)
            if pattern.metamodel != out_mm_name:
                raise SchemaError(f"rule '{rule.name}': pattern variable '{pattern.var}' targets "
                                  f"'{pattern.metamodel}', not the output metamodel '{out_mm_name}'")
            if out_mm.class_named(pattern.class_name) is None:
                raise UnknownClass(pattern.class_name)
            if pattern.var in target_vars or pattern.var == rule.from_var:
                raise SchemaError(f"rule '{rule.name}': duplicate pattern variable '{pattern.var}'")
            target_vars.add(pattern.var)
        for pattern in rule.targets:
            features = metamodels[pattern.metamodel].class_named(pattern.class_name).features
            scalar_bound: set[str] = set()
            for binding in pattern.bindings:
                feature = features.get(binding.feature)
                if feature is None:
                    raise SchemaError(
                        f"rule '{rule.name}': class '{pattern.class_name}' has no feature '{binding.feature}'")
                if not isinstance(feature, CollectionDef):
                    if binding.feature in scalar_bound:
                        raise SchemaError(
                            f"rule '{rule.name}': feature '{binding.feature}' bound more than once")
                    scalar_bound.add(binding.feature)
                _check_expr(rule, binding.expr, src_mm, target_vars)


def _check_nav(rule: Rule, nav: Nav, src_mm: Metamodel) -> AttributeDef | CollectionDef | ReferenceDef:
    if nav.var != rule.from_var:
        raise SchemaError(f"rule '{rule.name}': unknown variable '{nav.var}'")
    feature = src_mm.class_named(rule.from_class).features.get(nav.feature)
    if feature is None:
        raise SchemaError(f"rule '{rule.name}': class '{rule.from_class}' has no feature '{nav.feature}'")
    return feature


def _check_expr(rule: Rule, expr: Expr, src_mm: Metamodel, target_vars: set[str] = frozenset()):
    if isinstance(expr, Literal):
        return
    if isinstance(expr, VarRef):
        # Bare variables: the matched source element, or a sibling target
        # pattern's image (placed as-is, no resolution).
        if expr.var != rule.from_var and expr.var not in target_vars:
            raise SchemaError(f"rule '{rule.name}': unknown variable '{expr.var}'")
        return
    if isinstance(expr, Nav):
        _check_nav(rule, expr, src_mm)
        return
    if isinstance(expr, Concat):
        _check_expr(rule, expr.left, src_mm, target_vars)
        _check_expr(rule, expr.right, src_mm, target_vars)


def parse_m2m(text: str, metamodels: dict[str, Metamodel]) -> TransformationM2M:
    """Parse and class-check a rule file against the given metamodels."""
    t = _Parser(_lex(text)).transformation()
    _check_transformation(t, metamodels)
    return t


# ---------------------------------------------------------------------------
# Printer
# ---------------------------------------------------------------------------


def _escape(s: str) -> str:
    return s.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")


def _expr_text(expr: Expr) -> str:
    if isinstance(expr, Literal):
        if isinstance(expr.value, bool):
            return "true" if expr.value else "false"
        if isinstance(expr.value, str):
            return f'"{_escape(expr.value)}"'
        return repr(expr.value)
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


def augment_m2m(t: TransformationM2M) -> TransformationM2M:
    """Mark every target pattern traced. Idempotent; rule logic untouched."""
    rules = tuple(
        replace(rule, targets=tuple(replace(p, traced=True) for p in rule.targets))
        for rule in t.rules
    )
    return replace(t, rules=rules)


def strip_m2m(t: TransformationM2M) -> TransformationM2M:
    rules = tuple(
        replace(rule, targets=tuple(replace(p, traced=False) for p in rule.targets))
        for rule in t.rules
    )
    return replace(t, rules=rules)


# ---------------------------------------------------------------------------
# Execution
# ---------------------------------------------------------------------------


@dataclass
class _Instance:
    alias: str
    path: object  # ElementPath
    element: Element
    rule: Rule
    images: list[Element]


def _eval_guard(guard: Guard, element: Element) -> bool:
    value = element.attrs.get(guard.left.feature)
    lit = guard.right.value
    return (value == lit) if guard.op == "=" else (value != lit)


def _in_path_order(root: Element) -> list[Element]:
    """Every element of the tree, in source-path order: collections by name,
    elements by numeric index, each element before its contents. The root's
    path, the bare name ``root``, sorts among the names of its collections,
    before a collection named ``root``."""
    order: list[Element] = []

    def visit(e: Element, names: list[str]):
        for name in names:
            for child in e.collections[name]:
                order.append(child)
                visit(child, sorted(child.collections))

    names = sorted(root.collections)
    before = bisect_left(names, ROOT_NAME)
    visit(root, names[:before])
    order.append(root)
    visit(root, names[before:])
    return order


def _run(t: TransformationM2M, inputs: dict[str, Model], metamodels: dict[str, Metamodel],
         output_uri: str) -> tuple[Model, list[tuple[_Instance, int, Element]], dict[int, object]]:
    """Output model, traced (instance, pattern index, image) triples, and
    the output path of every output element, keyed by ``id``."""
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

    # Phase 1: match every source element, instantiate target patterns.
    rules_for: dict[tuple[str, str], list[Rule]] = {}
    for rule in t.rules:
        rules_for.setdefault((rule.from_metamodel, rule.from_class), []).append(rule)
    instances: list[_Instance] = []
    in_trace_order: list[_Instance] = []  # by source path, in _in_path_order's order
    image_of: dict[int, list[Element]] = {}
    elem_paths: dict[int, tuple[str, object]] = {}
    for alias in sorted(inputs):
        model = inputs[alias]
        matched_here: dict[int, _Instance] = {}
        for path, element in iter_elements(model):
            elem_paths[id(element)] = (alias, path)
            matched = [
                rule for rule in rules_for.get((model.metamodel_name, element.class_name), ())
                if rule.guard is None or _eval_guard(rule.guard, element)
            ]
            if len(matched) > 1:
                raise MatchAmbiguity(str(path), [r.name for r in matched])
            if not matched:
                continue
            rule = matched[0]
            images = [Element(p.class_name) for p in rule.targets]
            inst = _Instance(alias, path, element, rule, images)
            instances.append(inst)
            matched_here[id(element)] = inst
            image_of[id(element)] = images
        in_trace_order += (matched_here[id(e)] for e in _in_path_order(model.root)
                           if id(e) in matched_here)

    image_ids = {id(img) for inst in instances for img in inst.images}

    def resolve_image(source: Element) -> Element:
        if id(source) in image_ids:
            return source  # sibling pattern image, placed as-is
        images = image_of.get(id(source))
        if images is None:
            _, path = elem_paths[id(source)]
            raise UnresolvedBinding(str(path))
        return images[0]

    def eval_expr(expr: Expr, element: Element, model: Model,
                  pattern_images: dict[str, Element]) -> object:
        if isinstance(expr, Literal):
            return expr.value
        if isinstance(expr, VarRef):
            if expr.var in pattern_images:
                return pattern_images[expr.var]
            return element
        if isinstance(expr, Nav):
            if expr.feature in element.attrs:
                return element.attrs[expr.feature]
            if expr.feature in element.collections:
                return list(element.collections[expr.feature])
            if expr.feature in element.refs:
                return resolve_path(model, element.refs[expr.feature])
            # Declared feature absent on this element: attrs and refs may be
            # unset, collections default to empty.
            feature = metamodels[model.metamodel_name].class_named(element.class_name).features.get(expr.feature)
            return [] if isinstance(feature, CollectionDef) else None
        if isinstance(expr, Concat):
            left = eval_expr(expr.left, element, model, pattern_images)
            right = eval_expr(expr.right, element, model, pattern_images)
            if not isinstance(left, str) or not isinstance(right, str):
                raise TransformationError("concat expects two string values")
            return left + right
        raise AssertionError(f"unhandled expr {expr!r}")

    # Phase 2: evaluate bindings with default resolution for element values.
    placed: dict[int, int] = {}
    pending_refs: list[tuple[Element, str, Element]] = []
    for inst in instances:
        model = inputs[inst.alias]
        pattern_images = {p.var: img for p, img in zip(inst.rule.targets, inst.images)}
        for pattern, image in zip(inst.rule.targets, inst.images):
            features = metamodels[pattern.metamodel].class_named(pattern.class_name).features
            for binding in pattern.bindings:
                value = eval_expr(binding.expr, inst.element, model, pattern_images)
                if value is None:
                    continue
                feature = features[binding.feature]
                if isinstance(feature, AttributeDef):
                    image.attrs[binding.feature] = value
                elif isinstance(feature, ReferenceDef):
                    if isinstance(value, list):
                        raise TransformationError(
                            f"rule '{inst.rule.name}': reference '{binding.feature}' bound to a collection")
                    target = resolve_image(value) if isinstance(value, Element) else None
                    if target is None:
                        raise TransformationError(
                            f"rule '{inst.rule.name}': reference '{binding.feature}' needs an element value")
                    pending_refs.append((image, binding.feature, target))
                else:  # collection placement
                    children = value if isinstance(value, list) else [value]
                    bucket = image.collections.setdefault(binding.feature, [])
                    for child in children:
                        if not isinstance(child, Element):
                            raise TransformationError(
                                f"rule '{inst.rule.name}': collection '{binding.feature}' needs element values")
                        child_image = resolve_image(child)
                        placed[id(child_image)] = placed.get(id(child_image), 0) + 1
                        bucket.append(child_image)

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

    out_paths = {id(element): path for path, element in iter_elements(out_model)}
    for image, feature, target in pending_refs:
        target_path = out_paths.get(id(target))
        if target_path is None:
            raise ConformanceError("root", "a reference points at an element outside the output tree")
        image.refs[feature] = target_path

    ensure_conforms(out_model, out_mm)

    # Deterministic trace order: input alias, source path, then target pattern index.
    traced: list[tuple[_Instance, int, Element]] = []
    for inst in in_trace_order:
        for idx, (pattern, image) in enumerate(zip(inst.rule.targets, inst.images)):
            if pattern.traced:
                traced.append((inst, idx, image))
    return out_model, traced, out_paths


def execute_m2m(t: TransformationM2M, inputs: dict[str, Model],
                metamodels: dict[str, Metamodel], output_uri: str = "") -> Model:
    model, _, _ = _run(t, inputs, metamodels, output_uri)
    return model


def execute_augmented_m2m(
    t: TransformationM2M,
    inputs: dict[str, Model],
    metamodels: dict[str, Metamodel],
    output_uri: str = "",
    *,
    trace_id: str = "",
    transformation_id: str = "",
    execution_stamp: int = 0,
) -> tuple[Model, LocalTraceModel]:
    if not is_augmented(t):
        raise TransformationError("transformation is not augmented")
    model, traced, out_paths = _run(t, inputs, metamodels, output_uri)
    links = tuple(
        TraceLink(
            sources=(ElementRef(inputs[inst.alias].uri, inst.path),),
            targets=(ElementRef(model.uri, out_paths[id(image)]),),
            tags={"rule": inst.rule.name},
        )
        for inst, _idx, image in traced
    )
    trace = LocalTraceModel(trace_id, transformation_id, execution_stamp, links)
    return model, trace
