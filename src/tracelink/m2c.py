"""Template-based model-to-code generation with trace markers.

``*.m2c`` templates (grammar in docs/formats.md) render a model to text.
The augmentation pass wraps each loop body and each model-deriving
conditional branch in a ``RegionNode`` for its element. A region is one
node from parse to render: the printer writes it as its element's
identifier path between marker delimiters (``{{path}} ... {{/}}`` by
default), and the parser reads that form back into a region where it
wraps a whole loop body or branch. ``render`` writes the generated text of
any template, augmented or not; no marker reaches it. ``render_traced``
augments the template it is given, records each region's element and byte
span in that text as it writes, and puts the markers into the annotated
text only, so the clean text is the plain render byte-for-byte whatever the
model's values hold.

A ``Template`` comes from ``parse_template``, which types each ``TNav`` once,
with the features a render reads; ``augment_template`` and ``strip_template`` keep them.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field, replace

from .errors import (
    ConformanceError,
    EvalError,
    ParseError,
    SchemaError,
    TemplateTypeError,
)
from .m2m import _escape, _holds, _literal_text, _Parser, _to_text, _token_re
from .model import (
    AttributeDef,
    CollectionDef,
    Element,
    Metamodel,
    Model,
    ReferenceDef,
    _type_ok,
    element_index,
    ensure_conforms,
    nav_type,
)
from .trace import ElementRef, LocalTraceModel, TraceLink, span_at

DEFAULT_MARKERS = ("{{", "}}")

# ---------------------------------------------------------------------------
# AST
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class TLiteral:
    value: str | int | float | bool


@dataclass(frozen=True)
class TNav:
    steps: tuple[str, ...]  # steps[0] is a binder variable
    # The feature each later step reads (``nav_type``), set when the template is parsed.
    features: tuple[AttributeDef | CollectionDef | ReferenceDef, ...] = field(default=(), compare=False, repr=False)

    def __str__(self) -> str:
        return ".".join(self.steps)


@dataclass(frozen=True)
class TIndex:
    """The implicit loop index variable ``i``."""


@dataclass(frozen=True)
class TPathOf:
    target: TNav


TemplateExpr = TLiteral | TNav | TIndex | TPathOf


@dataclass(frozen=True)
class SizeCond:
    target: TNav
    op: str  # ">", "=", "!="
    bound: int


@dataclass(frozen=True)
class CmpCond:
    left: TNav
    op: str  # "=", "!="
    right: TLiteral


Cond = SizeCond | CmpCond


@dataclass(frozen=True)
class TextNode:
    text: str
    line: int = 0


@dataclass(frozen=True)
class EmitNode:
    expr: TemplateExpr
    line: int = 0


@dataclass(frozen=True)
class ForNode:
    var: str
    source: TNav
    body: tuple["TemplateNode", ...]
    line: int = 0


@dataclass(frozen=True)
class IfNode:
    cond: Cond
    then_body: tuple["TemplateNode", ...]
    else_body: tuple["TemplateNode", ...] = ()
    line: int = 0


@dataclass(frozen=True)
class RegionNode:
    """The trace region of ``target``'s element around ``body``: a traced
    render records its span and writes its markers into the annotated text."""

    target: TNav
    body: tuple["TemplateNode", ...]
    line: int = 0


TemplateNode = TextNode | EmitNode | ForNode | IfNode | RegionNode


@dataclass(frozen=True)
class Template:
    name: str  # also the generated file's name
    param_var: str
    param_class: str
    metamodel: Metamodel
    body: tuple[TemplateNode, ...]
    marker_open: str = DEFAULT_MARKERS[0]
    marker_close: str = DEFAULT_MARKERS[1]


# ---------------------------------------------------------------------------
# Tag scanner and parser
# ---------------------------------------------------------------------------

_TAG_TOKEN_RE = _token_re(r"\s", r"->|!=|[():!.,/=>]")  # a tag has no comments


class _TagExprParser(_Parser):
    """Tag expressions, over the M2M parser's token reader. Words are all
    "ident", the end kind is "end", and errors carry the tag's line only."""

    pattern, keywords, end = _TAG_TOKEN_RE, (), "end"

    def __init__(self, content: str, line: int):
        self.line = line
        super().__init__(content)

    def error(self, message: str):
        raise ParseError(message, line=self.line)

    def bad_character(self):
        self.error(f"bad token in tag: {self.text[self.offset():]!r}")

    def nav(self) -> TNav:
        steps = [self.expect("ident")]
        while self.accept("."):
            steps.append(self.expect("ident"))
        return TNav(tuple(steps))

    def literal(self, expected: str = "a literal") -> TLiteral:
        kind, value = self.tokens[self.i]
        if kind in ("string", "int", "float"):
            self.i += 1
            return TLiteral(value)
        if kind == "ident" and value in ("true", "false"):
            self.i += 1
            return TLiteral(value == "true")
        self.error(f"expected {expected}")
        raise AssertionError

    def emit_expr(self) -> TemplateExpr:
        kind, value = self.tokens[self.i]
        if kind != "ident" or value in ("true", "false"):
            return self.literal("an expression")
        if value == "path" and self.tokens[self.i + 1][0] == "(":
            self.i += 2
            target = self.nav()
            self.expect(")")
            return TPathOf(target)
        if value == "i" and self.tokens[self.i + 1][0] != ".":
            self.i += 1
            return TIndex()
        return self.nav()

    def cond(self) -> Cond:
        left = self.nav()
        if self.accept("->"):
            if self.expect("ident") != "size":
                self.error("only size() is supported after '->'")
            self.expect("(")
            self.expect(")")
            op = None
            for candidate in (">", "=", "!="):
                if self.accept(candidate):
                    op = candidate
                    break
            if op is None:
                self.error("expected '>', '=', or '!=' after size()")
            bound = self.expect("int")
            return SizeCond(left, op, bound)
        op = "=" if self.accept("=") else ("!=" if self.accept("!=") else None)
        if op is None:
            self.error("expected a comparison operator")
        return CmpCond(left, op, self.literal())


def _scan_pieces(text: str):
    """Split template text into ("text", s, line) and ("tag", content, line)."""
    pieces = []
    i = 0
    line = 1
    n = len(text)
    while i < n:
        k = text.find("[", i)
        if k == -1:
            pieces.append(("text", text[i:], line))
            break
        if k > i:
            chunk = text[i:k]
            pieces.append(("text", chunk, line))
            line += chunk.count("\n")
        j = k + 1
        while j < n:
            c = text[j]
            if c == '"':
                j += 1
                while j < n and text[j] != '"':
                    j += 2 if text[j] == "\\" else 1
                if j >= n:
                    raise ParseError("unterminated string in tag", line=line)
            elif c == "]":
                break
            j += 1
        if j >= n:
            raise ParseError("unterminated tag", line=line)
        content = text[k + 1:j]
        pieces.append(("tag", content, line))
        line += content.count("\n")
        i = j + 1
    return pieces


def _parse_body(pieces, pos: int, terminators: tuple[str, ...],
                markers: tuple[str, str]) -> tuple[list[TemplateNode], str, int]:
    nodes: list[TemplateNode] = []
    while pos < len(pieces):
        kind, content, line = pieces[pos]
        pos += 1
        if kind == "text":
            if content:
                nodes.append(TextNode(content, line))
            continue
        stripped = content.strip()
        word = stripped.split("(", 1)[0].strip()
        if stripped in terminators:
            return nodes, stripped, pos
        if stripped in ("/for", "/if", "/template", "else"):
            raise ParseError(f"unexpected [{stripped}]", line=line)
        if word == "for":
            tp = _TagExprParser(stripped[len("for"):], line)
            tp.expect("(")
            var = tp.expect("ident")
            if var == "i":
                raise ParseError("'i' is reserved for the loop index", line=line)
            tp.expect(":")
            source = tp.nav()
            tp.expect(")")
            tp.expect("end")
            inner, _, pos = _parse_body(pieces, pos, ("/for",), markers)
            nodes.append(ForNode(var, source, _read_region(inner, markers), line))
        elif word == "if":
            tp = _TagExprParser(stripped[len("if"):], line)
            tp.expect("(")
            cond = tp.cond()
            tp.expect(")")
            tp.expect("end")
            then_body, term, pos = _parse_body(pieces, pos, ("else", "/if"), markers)
            else_body: list[TemplateNode] = []
            if term == "else":
                else_body, _, pos = _parse_body(pieces, pos, ("/if",), markers)
            nodes.append(IfNode(cond, _read_region(then_body, markers), _read_region(else_body, markers), line))
        else:
            if not stripped.endswith("/"):
                raise ParseError(f"emit tag must end with '/': [{content}]", line=line)
            tp = _TagExprParser(stripped[:-1], line)
            expr = tp.emit_expr()
            tp.expect("end")
            nodes.append(EmitNode(expr, line))
    raise ParseError(f"missing closing tag, expected one of {terminators}")


def _read_region(body: list[TemplateNode], markers: tuple[str, str]) -> tuple[TemplateNode, ...]:
    """A parsed loop body or branch: the ``RegionNode`` it was printed from,
    if it is a printed region, else the body as it is. The printed form is
    the open delimiter, a ``path()`` emit, the close delimiter, the region's
    body and the end marker; the close delimiter and the end marker merge
    into the body's first and last text."""
    mo, mc = markers
    closer = mo + "/" + mc
    if len(body) < 3:
        return tuple(body)
    head, emit, first, *rest = body
    last = rest[-1] if rest else first
    if not (isinstance(head, TextNode) and head.text == mo
            and isinstance(emit, EmitNode) and isinstance(emit.expr, TPathOf)
            and isinstance(first, TextNode) and first.text.startswith(mc)
            and isinstance(last, TextNode) and last.text.endswith(closer)):
        return tuple(body)
    if not rest:
        if len(first.text) < len(mc) + len(closer):
            return tuple(body)
        inner = [TextNode(first.text[len(mc):len(first.text) - len(closer)], first.line)]
    else:
        inner = [TextNode(first.text[len(mc):], first.line), *rest[:-1],
                 TextNode(last.text[:len(last.text) - len(closer)], last.line)]
    inner = tuple(node for node in inner if not isinstance(node, TextNode) or node.text)
    return (RegionNode(emit.expr.target, inner, emit.line),)


def parse_template(text: str, metamodels: dict[str, Metamodel]) -> Template:
    """Parse and type-check a template against its declared metamodel."""
    pieces = _scan_pieces(text)
    idx = 0
    while idx < len(pieces) and pieces[idx][0] == "text" and not pieces[idx][1].strip():
        idx += 1
    if idx >= len(pieces) or pieces[idx][0] != "tag" or not pieces[idx][1].lstrip().startswith("template"):
        raise ParseError("template file must start with a [template ...] header")
    header, header_line = pieces[idx][1], pieces[idx][2]
    idx += 1

    body_of_header = header.lstrip()[len("template"):].strip()
    paren = body_of_header.find("(")
    if paren <= 0:
        raise ParseError("template header needs a name and a parameter declaration", line=header_line)
    name = body_of_header[:paren].strip()
    if not name or any(c.isspace() for c in name) or "/" in name:
        raise ParseError(f"bad template name {name!r}", line=header_line)
    p = _TagExprParser(body_of_header[paren:], header_line)
    p.expect("(")
    param_var = p.expect("ident")
    if param_var == "i":
        raise ParseError("'i' is reserved for the loop index", line=header_line)
    p.expect(":")
    mm_name = p.expect("ident")
    p.expect("!")
    param_class = p.expect("ident")
    p.expect(")")
    markers = DEFAULT_MARKERS
    if p.tokens[p.i] == ("ident", "markers"):
        p.i += 1
        p.expect("(")
        mo = p.expect("string")
        p.expect(",")
        mc = p.expect("string")
        p.expect(")")
        markers = (mo, mc)
    p.expect("end")

    for delim in markers:
        if not delim or "[" in delim or "]" in delim:
            raise ParseError(f"bad marker delimiter {delim!r}", line=header_line)
    if markers[0] == markers[1]:
        raise ParseError("marker delimiters must be distinct", line=header_line)

    mm = metamodels.get(mm_name)
    if mm is None:
        raise ParseError(f"unknown metamodel '{mm_name}'", line=header_line)
    if mm.class_named(param_class) is None:
        raise TemplateTypeError(f"unknown class '{param_class}' in metamodel '{mm_name}'", header_line)

    body, _, pos = _parse_body(pieces, idx, ("/template",), markers)
    for kind, content, line in pieces[pos:]:
        if kind == "tag" or content.strip():
            raise ParseError("content after [/template]", line=line)

    body = _check_template(mm, body, {param_var: param_class}, False)
    return Template(name, param_var, param_class, mm, body, markers[0], markers[1])


# ---------------------------------------------------------------------------
# Static typing
# ---------------------------------------------------------------------------


_ELEMENT = (ReferenceDef, type(None)), "path() needs an element-valued expression"  # _typed's kinds, message


def _typed(mm: Metamodel, nav: TNav, env: dict[str, str], line: int, kinds: type | tuple[type, ...],
           message: str) -> TNav:
    """``nav`` with the features its steps read (``nav_type``); unless the last (None
    for a bare variable) is one of ``kinds``, a ``TemplateTypeError`` with ``message``."""
    if nav.steps[0] not in env:
        raise TemplateTypeError(f"unknown variable '{nav.steps[0]}'", line)
    try:
        features = nav_type(mm, env[nav.steps[0]], nav.steps[1:])
    except SchemaError as exc:
        raise TemplateTypeError(str(exc), line) from None
    if not isinstance(features[-1] if features else None, kinds):
        raise TemplateTypeError(message, line)
    return TNav(nav.steps, features)


def _check_template(mm: Metamodel, nodes, env: dict[str, str], in_loop: bool) -> tuple[TemplateNode, ...]:
    """``nodes`` type-checked, each navigation with its features; a node without one is kept."""
    out = []
    for node in nodes:
        if isinstance(node, EmitNode):
            expr = node.expr
            if isinstance(expr, TIndex) and not in_loop:
                raise TemplateTypeError("'i' is only available inside a loop", node.line)
            elif isinstance(expr, TPathOf):
                node = EmitNode(TPathOf(_typed(mm, expr.target, env, node.line, *_ELEMENT)), node.line)
            elif isinstance(expr, TNav):
                node = EmitNode(_typed(mm, expr, env, node.line, AttributeDef, f"cannot emit non-attribute '{expr}'"),
                                node.line)
        elif isinstance(node, ForNode):
            source = _typed(mm, node.source, env, node.line, CollectionDef,
                            f"loop source '{node.source}' is not a collection")
            if node.var in env:
                raise TemplateTypeError(f"variable '{node.var}' shadows an enclosing binder", node.line)
            body = _check_template(mm, node.body, {**env, node.var: source.features[-1].element_class}, True)
            node = ForNode(node.var, source, body, node.line)
        elif isinstance(node, IfNode):
            cond = node.cond
            if isinstance(cond, SizeCond):
                cond = SizeCond(_typed(mm, cond.target, env, node.line, (CollectionDef, ReferenceDef),
                                       "size() needs a collection or reference"), cond.op, cond.bound)
            else:
                left = _typed(mm, cond.left, env, node.line, AttributeDef, "condition must compare an attribute")
                if not _type_ok(left.features[-1].type, cond.right.value):
                    raise TemplateTypeError(f"condition compares {left.features[-1].type} attribute "
                                            f"against {cond.right.value!r}", node.line)
                cond = CmpCond(left, cond.op, cond.right)
            node = IfNode(cond, _check_template(mm, node.then_body, env, in_loop),
                          _check_template(mm, node.else_body, env, in_loop), node.line)
        elif isinstance(node, RegionNode):
            target = _typed(mm, node.target, env, node.line, *_ELEMENT)
            node = RegionNode(target, _check_template(mm, node.body, env, in_loop), node.line)
        out.append(node)
    return tuple(out)


# ---------------------------------------------------------------------------
# Rendering
# ---------------------------------------------------------------------------


class _Render:
    """One rendering walk's state: the runs of clean text with each region's
    markers between them (runs at even indexes, markers at odd ones), and
    each region's [path, start byte, end byte] in the clean text, in open
    order."""

    __slots__ = ("t", "m", "closer", "out", "runs", "regions", "offset")

    def __init__(self, t: Template, m: Model):
        self.t, self.m = t, m
        self.closer = t.marker_open + "/" + t.marker_close
        self.out: list[str] = []  # pieces written since the last marker
        self.runs: list[str] = []
        self.regions: list[list] = []
        self.offset = 0  # clean bytes before ``out``

    def model_path(self, e: Element) -> str:
        return element_index(self.m)[id(e)][0]  # the checked model's index, built on first use

    def path_text(self, e: Element) -> str:
        return self.t.param_var if e is self.m.root else f"{self.t.param_var}.{self.model_path(e)}"

    def mark(self, marker: str) -> int:
        """End the run of text before ``marker``; return the marker's clean byte offset."""
        text = "".join(self.out)
        self.out.clear()
        self.runs.extend((text, marker))
        self.offset += len(text.encode("utf-8"))
        return self.offset

    def read(self, value: object, features: tuple, line: int) -> object:
        """What ``features`` read in turn from ``value``, each through its
        ``_read``; an unset one is an ``EvalError`` at the element that holds it."""
        for feature in features:
            holder, value = value, feature._read(self.m, value)
            if value is None:
                kind = "attribute" if isinstance(feature, AttributeDef) else "reference"
                raise EvalError(f"{kind} '{feature.name}' is unset", line, self.model_path(holder))
        return value

    def eval_cond(self, cond: Cond, env: dict[str, object], line: int) -> bool:
        if isinstance(cond, SizeCond):
            # Only the last step may be unset (size 0), so the owner is read first.
            owner = self.read(env[cond.target.steps[0]], cond.target.features[:-1], line)
            value = cond.target.features[-1]._read(self.m, owner)
            size = 0 if value is None else len(value) if isinstance(value, list) else 1
            return _holds(cond.op, size, cond.bound)
        return _holds(cond.op, self.read(env[cond.left.steps[0]], cond.left.features, line), cond.right.value)

    def emit(self, expr: TemplateExpr, env: dict[str, object], line: int):
        if isinstance(expr, TLiteral):
            self.out.append(_to_text(expr.value))
        elif isinstance(expr, TIndex):
            self.out.append(str(env["i"]))
        elif isinstance(expr, TPathOf):
            self.out.append(self.path_text(self.read(env[expr.target.steps[0]], expr.target.features, line)))
        else:
            self.out.append(_to_text(self.read(env[expr.steps[0]], expr.features, line)))

    def run(self, nodes, env: dict[str, object]):
        for node in nodes:
            if isinstance(node, TextNode):
                self.out.append(node.text)
            elif isinstance(node, EmitNode):
                self.emit(node.expr, env, node.line)
            elif isinstance(node, ForNode):
                items = self.read(env[node.source.steps[0]], node.source.features, node.line)
                for i, item in enumerate(items):
                    self.run(node.body, {**env, node.var: item, "i": i})
            elif isinstance(node, IfNode):
                self.run(node.then_body if self.eval_cond(node.cond, env, node.line) else node.else_body, env)
            else:  # RegionNode
                element = self.read(env[node.target.steps[0]], node.target.features, node.line)
                opener = f"{self.t.marker_open}{self.path_text(element)}{self.t.marker_close}"
                region = [self.model_path(element), self.mark(opener), 0]
                self.regions.append(region)
                self.run(node.body, env)
                region[2] = self.mark(self.closer)


def _render(t: Template, m: Model) -> tuple[list[str], list[list]]:
    """The one rendering walk: the runs and regions of a ``_Render``."""
    if m.metamodel_name != t.metamodel.name:
        raise ConformanceError("root", f"model conforms to '{m.metamodel_name}', template needs '{t.metamodel.name}'")
    if m.root.class_name != t.param_class:
        raise ConformanceError("root", f"model root is a '{m.root.class_name}', template needs a '{t.param_class}'")
    ensure_conforms(m, t.metamodel)
    r = _Render(t, m)
    r.run(t.body, {t.param_var: m.root})
    r.runs.append("".join(r.out))
    return r.runs, r.regions


def render(t: Template, m: Model) -> str:
    """The generated text of the template over a conforming model, with no
    region's markers, whether or not the template is augmented."""
    return "".join(_render(t, m)[0][::2])


def render_traced(t: Template, m: Model, model_uri: str, clean_file_uri: str, *, trace_id: str = "",
                  transformation_id: str = "", execution_stamp: int = 0) -> tuple[str, str, LocalTraceModel]:
    """Render the augmented template; return (cleanText, annotatedText, trace).

    ``t`` is augmented here, so it may be augmented already or not. The
    clean text is ``render`` of ``t``; the annotated text is that text with
    each region's markers. Each region that runs becomes one link, in the
    order the regions open, from its element to its byte span in the clean
    text. Outer regions span their whole extent, nested regions included.
    """
    runs, regions = _render(augment_template(t), m)
    text = "".join(runs[::2])
    newlines = [nl.start() for nl in re.finditer(b"\n", text.encode("utf-8"))]
    links = tuple(
        TraceLink(
            sources=(ElementRef(model_uri, path),),
            targets=(span_at(clean_file_uri, newlines, start, end),),
            tags={"template": t.name},
        )
        for path, start, end in regions
    )
    return text, "".join(runs), LocalTraceModel(trace_id, transformation_id, execution_stamp, links)


# ---------------------------------------------------------------------------
# Augmentation (the higher-order pass)
# ---------------------------------------------------------------------------


def _emits_model_text(nodes) -> bool:
    return any(isinstance(node, (EmitNode, RegionNode))
               or isinstance(node, ForNode) and _emits_model_text(node.body)
               or isinstance(node, IfNode) and _emits_model_text(node.then_body + node.else_body)
               for node in nodes)


def _governing_nav(cond: Cond) -> TNav:
    """The element a then-branch's region names: the reference target of a
    ``size()`` test that an unset reference fails, else the owner of the
    tested feature, which exists whenever the branch runs."""
    if isinstance(cond, CmpCond):
        return TNav(cond.left.steps[:-1], cond.left.features[:-1])
    if isinstance(cond.target.features[-1], ReferenceDef) and not _holds(cond.op, 0, cond.bound):
        return cond.target
    return TNav(cond.target.steps[:-1], cond.target.features[:-1])


def _region(body, target: TNav, line: int) -> tuple[TemplateNode, ...]:
    """``body`` in a region of ``target``, unless it is one region already or
    emits no model text."""
    if not _emits_model_text(body) or len(body) == 1 and isinstance(body[0], RegionNode):
        return body
    return (RegionNode(target, body, line),)


def _augment(nodes, binder: str) -> tuple[TemplateNode, ...]:
    out = []
    for node in nodes:
        if isinstance(node, ForNode):
            out.append(replace(node, body=_region(_augment(node.body, node.var), TNav((node.var,)), node.line)))
        elif isinstance(node, IfNode):
            then_body = _region(_augment(node.then_body, binder), _governing_nav(node.cond), node.line)
            else_body = _region(_augment(node.else_body, binder), TNav((binder,)), node.line)
            out.append(replace(node, then_body=then_body, else_body=else_body))
        elif isinstance(node, RegionNode):
            out.append(replace(node, body=_augment(node.body, binder)))
        else:
            out.append(node)
    return tuple(out)


def augment_template(t: Template) -> Template:
    """Wrap loop bodies and model-deriving branches in regions. Idempotent."""
    return replace(t, body=_augment(t.body, t.param_var))


def _strip(nodes) -> tuple[TemplateNode, ...]:
    out = []
    for node in nodes:
        if isinstance(node, ForNode):
            out.append(replace(node, body=_strip(node.body)))
        elif isinstance(node, IfNode):
            out.append(replace(node, then_body=_strip(node.then_body), else_body=_strip(node.else_body)))
        elif isinstance(node, RegionNode):
            out.extend(_strip(node.body))
        else:
            out.append(node)
    return tuple(out)


def strip_template(t: Template) -> Template:
    """Undo augmentation: replace each region with its body."""
    return replace(t, body=_strip(t.body))


# ---------------------------------------------------------------------------
# Printer
# ---------------------------------------------------------------------------


def _expr_text(expr: TemplateExpr) -> str:
    if isinstance(expr, TLiteral):
        return _literal_text(expr.value)
    if isinstance(expr, TIndex):
        return "i"
    if isinstance(expr, TPathOf):
        return f"path({expr.target})"
    return str(expr)


def _cond_text(cond: Cond) -> str:
    if isinstance(cond, SizeCond):
        return f"{cond.target}->size() {cond.op} {cond.bound}"
    return f"{cond.left} {cond.op} {_expr_text(cond.right)}"


def _print(t: Template, nodes, parts: list[str]):
    for node in nodes:
        if isinstance(node, TextNode):
            parts.append(node.text)
        elif isinstance(node, EmitNode):
            parts.append(f"[{_expr_text(node.expr)}/]")
        elif isinstance(node, ForNode):
            parts.append(f"[for ({node.var} : {node.source})]")
            _print(t, node.body, parts)
            parts.append("[/for]")
        elif isinstance(node, IfNode):
            parts.append(f"[if ({_cond_text(node.cond)})]")
            _print(t, node.then_body, parts)
            if node.else_body:
                parts.append("[else]")
                _print(t, node.else_body, parts)
            parts.append("[/if]")
        else:  # RegionNode
            parts.append(f"{t.marker_open}[path({node.target})/]{t.marker_close}")
            _print(t, node.body, parts)
            parts.append(f"{t.marker_open}/{t.marker_close}")


def print_template(t: Template) -> str:
    header = f"[template {t.name} ({t.param_var} : {t.metamodel.name}!{t.param_class})"
    if (t.marker_open, t.marker_close) != DEFAULT_MARKERS:
        header += f' markers("{_escape(t.marker_open)}", "{_escape(t.marker_close)}")'
    parts = [header + "]"]
    _print(t, t.body, parts)
    parts.append("[/template]")
    return "".join(parts) + "\n"
