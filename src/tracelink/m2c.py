"""Template-based model-to-code generation with trace markers.

``*.m2c`` templates (grammar in docs/formats.md) render a model to text.
The augmentation pass rewrites a template so that each loop iteration and
each model-deriving conditional branch emits its element's identifier path
between marker delimiters (``{{path}} ... {{/}}`` by default). Extraction
removes the markers, recovering the original output byte-for-byte, and
turns every marker region into a trace link targeting a code span.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, replace

from .errors import (
    ConformanceError,
    EvalError,
    ParseError,
    PathSyntaxError,
    TemplateTypeError,
    TransformationError,
    UnbalancedMarker,
)
from .m2m import _escape, _Parser, _Token, _unescape
from .model import (
    AttributeDef,
    CollectionDef,
    Element,
    Metamodel,
    Model,
    ReferenceDef,
    _type_ok,
    ensure_conforms,
    iter_elements,
    resolve_path,
)
from .paths import normalize_marker_path, parse_path
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


TemplateNode = TextNode | EmitNode | ForNode | IfNode


@dataclass(frozen=True)
class Template:
    name: str  # also the generated file's name
    param_var: str
    param_class: str
    metamodel: Metamodel
    body: tuple[TemplateNode, ...]
    marker_open: str = DEFAULT_MARKERS[0]
    marker_close: str = DEFAULT_MARKERS[1]


@dataclass(frozen=True)
class AnnotatedOutput:
    """Rendered text still carrying marker-delimited trace regions."""

    text: str
    template_name: str
    marker_open: str = DEFAULT_MARKERS[0]
    marker_close: str = DEFAULT_MARKERS[1]


# ---------------------------------------------------------------------------
# Tag scanner and parser
# ---------------------------------------------------------------------------

_TAG_TOKEN_RE = re.compile(
    r"""(?P<ws>\s+)
      | (?P<arrow>->)
      | (?P<neq>!=)
      | (?P<string>"(?:[^"\\\n]|\\.)*")
      | (?P<float>\d+\.\d+)
      | (?P<int>\d+)
      | (?P<ident>[A-Za-z_][A-Za-z0-9_]*)
      | (?P<sym>[():!.,/=>])
    """,
    re.VERBOSE,
)


def _tokenize_tag(content: str, line: int) -> list[_Token]:
    """Tag tokens, each carrying the tag's line and no column."""
    tokens: list[_Token] = []
    pos = 0
    while pos < len(content):
        m = _TAG_TOKEN_RE.match(content, pos)
        if m is None:
            raise ParseError(f"bad token in tag: {content[pos:]!r}", line=line)
        kind = m.lastgroup
        if kind == "string":
            tokens.append(_Token("string", _unescape(m.group()[1:-1]), line, None))
        elif kind == "int":
            tokens.append(_Token("int", int(m.group()), line, None))
        elif kind == "float":
            tokens.append(_Token("float", float(m.group()), line, None))
        elif kind == "ident":
            tokens.append(_Token("ident", m.group(), line, None))
        elif kind != "ws":
            tokens.append(_Token(m.group(), m.group(), line, None))
        pos = m.end()
    tokens.append(_Token("end", None, line, None))
    return tokens


class _TagExprParser(_Parser):
    """Tag expressions, over the M2M parser's token cursor."""

    def nav(self) -> TNav:
        steps = [self.expect("ident").value]
        while self.accept("."):
            steps.append(self.expect("ident").value)
        return TNav(tuple(steps))

    def literal(self, expected: str = "a literal") -> TLiteral:
        tok = self.cur
        if tok.kind in ("string", "int", "float"):
            self.i += 1
            return TLiteral(tok.value)
        if tok.kind == "ident" and tok.value in ("true", "false"):
            self.i += 1
            return TLiteral(tok.value == "true")
        self.error(f"expected {expected}")
        raise AssertionError

    def emit_expr(self) -> TemplateExpr:
        tok = self.cur
        if tok.kind != "ident" or tok.value in ("true", "false"):
            return self.literal("an expression")
        if tok.value == "path" and self.tokens[self.i + 1].kind == "(":
            self.i += 2
            target = self.nav()
            self.expect(")")
            return TPathOf(target)
        if tok.value == "i" and self.tokens[self.i + 1].kind != ".":
            self.i += 1
            return TIndex()
        return self.nav()

    def cond(self) -> Cond:
        left = self.nav()
        if self.accept("->"):
            if self.expect("ident").value != "size":
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
            bound = self.expect("int").value
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
    p = _TagExprParser(_tokenize_tag(body_of_header[paren:], header_line))
    p.expect("(")
    param_var = p.expect("ident").value
    if param_var == "i":
        raise ParseError("'i' is reserved for the loop index", line=header_line)
    p.expect(":")
    mm_name = p.expect("ident").value
    p.expect("!")
    param_class = p.expect("ident").value
    p.expect(")")
    markers = DEFAULT_MARKERS
    if p.cur.kind == "ident" and p.cur.value == "markers":
        p.i += 1
        p.expect("(")
        mo = p.expect("string").value
        p.expect(",")
        mc = p.expect("string").value
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

    def parse_body(pos: int, terminators: tuple[str, ...]) -> tuple[list[TemplateNode], str, int]:
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
                tp = _TagExprParser(_tokenize_tag(stripped[len("for"):], line))
                tp.expect("(")
                var = tp.expect("ident").value
                if var == "i":
                    raise ParseError("'i' is reserved for the loop index", line=line)
                tp.expect(":")
                source = tp.nav()
                tp.expect(")")
                tp.expect("end")
                inner, _, pos = parse_body(pos, ("/for",))
                nodes.append(ForNode(var, source, tuple(inner), line))
            elif word == "if":
                tp = _TagExprParser(_tokenize_tag(stripped[len("if"):], line))
                tp.expect("(")
                cond = tp.cond()
                tp.expect(")")
                tp.expect("end")
                then_body, term, pos = parse_body(pos, ("else", "/if"))
                else_body: list[TemplateNode] = []
                if term == "else":
                    else_body, _, pos = parse_body(pos, ("/if",))
                nodes.append(IfNode(cond, tuple(then_body), tuple(else_body), line))
            else:
                if not stripped.endswith("/"):
                    raise ParseError(f"emit tag must end with '/': [{content}]", line=line)
                tp = _TagExprParser(_tokenize_tag(stripped[:-1], line))
                expr = tp.emit_expr()
                tp.expect("end")
                nodes.append(EmitNode(expr, line))
        raise ParseError(f"missing closing tag, expected one of {terminators}")

    body, _, pos = parse_body(idx, ("/template",))
    for kind, content, line in pieces[pos:]:
        if kind == "tag" or content.strip():
            raise ParseError("content after [/template]", line=line)

    t = Template(name, param_var, param_class, mm, tuple(body), markers[0], markers[1])
    _check_template(t)
    return t


# ---------------------------------------------------------------------------
# Static typing
# ---------------------------------------------------------------------------


def _nav_feature(t: Template, nav: TNav, env: dict[str, str],
                 line: int) -> AttributeDef | CollectionDef | ReferenceDef | None:
    """The feature a navigation ends on, or None for a bare variable."""
    if nav.steps[0] not in env:
        raise TemplateTypeError(f"unknown variable '{nav.steps[0]}'", line)
    cls = t.metamodel.class_named(env[nav.steps[0]])
    feature = None
    for step in nav.steps[1:]:
        if isinstance(feature, AttributeDef):
            raise TemplateTypeError(f"cannot navigate into attribute before '{step}'", line)
        if isinstance(feature, CollectionDef):
            raise TemplateTypeError(f"cannot navigate through collection before '{step}'", line)
        if feature is not None:
            cls = t.metamodel.class_named(feature.target_class)
        feature = cls.features.get(step)
        if feature is None:
            raise TemplateTypeError(f"class '{cls.name}' has no feature '{step}'", line)
    return feature


def _check_template(t: Template):
    def check(nodes, env: dict[str, str], in_loop: bool):
        for node in nodes:
            if isinstance(node, TextNode):
                continue
            if isinstance(node, EmitNode):
                expr = node.expr
                if isinstance(expr, TLiteral):
                    continue
                if isinstance(expr, TIndex):
                    if not in_loop:
                        raise TemplateTypeError("'i' is only available inside a loop", node.line)
                    continue
                if isinstance(expr, TPathOf):
                    if isinstance(_nav_feature(t, expr.target, env, node.line), (AttributeDef, CollectionDef)):
                        raise TemplateTypeError("path() needs an element-valued expression", node.line)
                    continue
                if not isinstance(_nav_feature(t, expr, env, node.line), AttributeDef):
                    raise TemplateTypeError(f"cannot emit non-attribute '{expr}'", node.line)
            elif isinstance(node, ForNode):
                source = _nav_feature(t, node.source, env, node.line)
                if not isinstance(source, CollectionDef):
                    raise TemplateTypeError(f"loop source '{node.source}' is not a collection", node.line)
                if node.var in env:
                    raise TemplateTypeError(f"variable '{node.var}' shadows an enclosing binder", node.line)
                check(node.body, {**env, node.var: source.element_class}, True)
            elif isinstance(node, IfNode):
                cond = node.cond
                if isinstance(cond, SizeCond):
                    if not isinstance(_nav_feature(t, cond.target, env, node.line), (CollectionDef, ReferenceDef)):
                        raise TemplateTypeError("size() needs a collection or reference", node.line)
                else:
                    attr = _nav_feature(t, cond.left, env, node.line)
                    if not isinstance(attr, AttributeDef):
                        raise TemplateTypeError("condition must compare an attribute", node.line)
                    if not _type_ok(attr.type, cond.right.value):
                        raise TemplateTypeError(
                            f"condition compares {attr.type} attribute against {cond.right.value!r}", node.line)
                check(node.then_body, env, in_loop)
                check(node.else_body, env, in_loop)

    check(t.body, {t.param_var: t.param_class}, False)


# ---------------------------------------------------------------------------
# Rendering
# ---------------------------------------------------------------------------


def _to_text(value: object) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, str):
        return value
    if isinstance(value, int):
        return str(value)
    return repr(value)


def render(t: Template, m: Model) -> str:
    """Render the template over a conforming model."""
    if m.metamodel_name != t.metamodel.name:
        raise ConformanceError("root", f"model conforms to '{m.metamodel_name}', template needs '{t.metamodel.name}'")
    if m.root.class_name != t.param_class:
        raise ConformanceError("root", f"model root is a '{m.root.class_name}', template needs a '{t.param_class}'")
    ensure_conforms(m, t.metamodel)

    out: list[str] = []
    paths: dict[int, str] = {}  # id(element) -> path, built on first use

    def model_path(e: Element) -> str:
        if not paths:
            paths.update((id(x), str(p)) for p, x in iter_elements(m))
        return paths[id(e)]

    class_named = t.metamodel.class_named

    def eval_nav(nav: TNav, env: dict[str, object], line: int) -> object:
        current = env[nav.steps[0]]
        for step in nav.steps[1:]:
            feature = class_named(current.class_name).features.get(step)
            if isinstance(feature, AttributeDef):
                if step not in current.attrs:
                    raise EvalError(f"attribute '{step}' is unset", line, model_path(current))
                return current.attrs[step]
            if isinstance(feature, CollectionDef):
                return list(current.collections.get(step, []))
            ref_path = current.refs.get(step)
            if ref_path is None:
                raise EvalError(f"reference '{step}' is unset", line, model_path(current))
            current = resolve_path(m, ref_path)
        return current

    def eval_cond(cond: Cond, env: dict[str, object], line: int) -> bool:
        if isinstance(cond, SizeCond):
            steps = cond.target.steps
            holder = env[steps[0]]
            for step in steps[1:-1]:
                ref_path = holder.refs.get(step)
                if ref_path is None:
                    raise EvalError(f"reference '{step}' is unset", line, model_path(holder))
                holder = resolve_path(m, ref_path)
            last = steps[-1]
            if isinstance(class_named(holder.class_name).features.get(last), CollectionDef):
                size = len(holder.collections.get(last, []))
            else:
                size = 1 if last in holder.refs else 0
            if cond.op == ">":
                return size > cond.bound
            if cond.op == "=":
                return size == cond.bound
            return size != cond.bound
        value = eval_nav(cond.left, env, line)
        return (value == cond.right.value) if cond.op == "=" else (value != cond.right.value)

    def emit(expr: TemplateExpr, env: dict[str, object], line: int):
        if isinstance(expr, TLiteral):
            out.append(_to_text(expr.value))
        elif isinstance(expr, TIndex):
            out.append(str(env["i"]))
        elif isinstance(expr, TPathOf):
            element = eval_nav(expr.target, env, line)
            out.append(t.param_var if element is m.root else f"{t.param_var}.{model_path(element)}")
        else:
            out.append(_to_text(eval_nav(expr, env, line)))

    def run(nodes, env: dict[str, object]):
        for node in nodes:
            if isinstance(node, TextNode):
                out.append(node.text)
            elif isinstance(node, EmitNode):
                emit(node.expr, env, node.line)
            elif isinstance(node, ForNode):
                items = eval_nav(node.source, env, node.line)
                for i, item in enumerate(items):
                    run(node.body, {**env, node.var: item, "i": i})
            elif isinstance(node, IfNode):
                branch = node.then_body if eval_cond(node.cond, env, node.line) else node.else_body
                run(branch, env)

    run(t.body, {t.param_var: m.root})
    return "".join(out)


# ---------------------------------------------------------------------------
# Augmentation (the higher-order pass)
# ---------------------------------------------------------------------------


def _emits_model_text(nodes) -> bool:
    for node in nodes:
        if isinstance(node, EmitNode):
            return True
        if isinstance(node, ForNode) and _emits_model_text(node.body):
            return True
        if isinstance(node, IfNode) and (_emits_model_text(node.then_body) or _emits_model_text(node.else_body)):
            return True
    return False


def _is_wrapped(body, t: Template) -> bool:
    # Tolerates reparsed augmented sources, where the close delimiter and the
    # end marker merge into adjacent text nodes.
    if len(body) < 3:
        return False
    if not (isinstance(body[0], TextNode) and body[0].text == t.marker_open):
        return False
    if not (isinstance(body[1], EmitNode) and isinstance(body[1].expr, TPathOf)):
        return False
    rest = body[2:]
    closer = t.marker_open + "/" + t.marker_close
    first, last = rest[0], rest[-1]
    if not (isinstance(first, TextNode) and first.text.startswith(t.marker_close)):
        return False
    if not (isinstance(last, TextNode) and last.text.endswith(closer)):
        return False
    if len(rest) == 1:
        return len(first.text) >= len(t.marker_close) + len(closer)
    return True


def _wrap(body, target: TNav, line: int, t: Template):
    return (
        TextNode(t.marker_open, line),
        EmitNode(TPathOf(target), line),
        TextNode(t.marker_close, line),
        *body,
        TextNode(t.marker_open + "/" + t.marker_close, line),
    )


def _unwrap(body, t: Template):
    closer = t.marker_open + "/" + t.marker_close
    rest = list(body[2:])
    if len(rest) == 1:
        text = rest[0].text[len(t.marker_close):len(rest[0].text) - len(closer)]
        return (TextNode(text, rest[0].line),) if text else ()
    out = []
    head = rest[0].text[len(t.marker_close):]
    if head:
        out.append(TextNode(head, rest[0].line))
    out.extend(rest[1:-1])
    tail = rest[-1].text[:len(rest[-1].text) - len(closer)]
    if tail:
        out.append(TextNode(tail, rest[-1].line))
    return tuple(out)


def _governing_nav(cond: Cond, t: Template, env: dict[str, str], line: int) -> TNav:
    """Element whose presence/state the condition tests, as a navigation."""
    if isinstance(cond, SizeCond):
        if isinstance(_nav_feature(t, cond.target, env, line), ReferenceDef):
            return cond.target
        return TNav(cond.target.steps[:-1])
    return TNav(cond.left.steps[:-1])


def augment_template(t: Template) -> Template:
    """Wrap loop bodies and model-deriving branches in path markers. Idempotent."""

    def walk(nodes, env: dict[str, str], binder: str):
        out = []
        for node in nodes:
            if isinstance(node, ForNode):
                inner_env = {**env, node.var: _nav_feature(t, node.source, env, node.line).element_class}
                inner = walk(node.body, inner_env, node.var)
                if _emits_model_text(node.body) and not _is_wrapped(inner, t):
                    inner = _wrap(inner, TNav((node.var,)), node.line, t)
                out.append(replace(node, body=tuple(inner)))
            elif isinstance(node, IfNode):
                then_body = walk(node.then_body, env, binder)
                else_body = walk(node.else_body, env, binder)
                if _emits_model_text(node.then_body) and not _is_wrapped(then_body, t):
                    subject = _governing_nav(node.cond, t, env, node.line)
                    then_body = _wrap(then_body, subject, node.line, t)
                if node.else_body and _emits_model_text(node.else_body) and not _is_wrapped(else_body, t):
                    else_body = _wrap(else_body, TNav((binder,)), node.line, t)
                out.append(replace(node, then_body=tuple(then_body), else_body=tuple(else_body)))
            else:
                out.append(node)
        return out

    return replace(t, body=tuple(walk(t.body, {t.param_var: t.param_class}, t.param_var)))


def strip_template(t: Template) -> Template:
    """Undo augmentation: drop the injected marker nodes."""

    def walk(nodes):
        out = []
        for node in nodes:
            if isinstance(node, ForNode):
                body = _unwrap(node.body, t) if _is_wrapped(node.body, t) else node.body
                out.append(replace(node, body=tuple(walk(body))))
            elif isinstance(node, IfNode):
                then_body = _unwrap(node.then_body, t) if _is_wrapped(node.then_body, t) else node.then_body
                else_body = _unwrap(node.else_body, t) if _is_wrapped(node.else_body, t) else node.else_body
                out.append(replace(node, then_body=tuple(walk(then_body)), else_body=tuple(walk(else_body))))
            else:
                out.append(node)
        return out

    return replace(t, body=tuple(walk(t.body)))


def is_template_augmented(t: Template) -> bool:
    return augment_template(t) == t


def render_augmented(t: Template, m: Model) -> AnnotatedOutput:
    """Render an augmented template; the output carries marker regions."""
    if not is_template_augmented(t):
        raise TransformationError(f"template '{t.name}' is not augmented")
    return AnnotatedOutput(render(t, m), t.name, t.marker_open, t.marker_close)


# ---------------------------------------------------------------------------
# Extraction
# ---------------------------------------------------------------------------


def extract_trace(
    a: AnnotatedOutput,
    model_uri: str,
    clean_file_uri: str,
    *,
    trace_id: str = "",
    transformation_id: str = "",
    execution_stamp: int = 0,
):
    """Strip markers and recover (cleanText, LocalTraceModel).

    Offsets are byte-based over the clean output. Outer regions span their
    whole extent, nested regions included.
    """
    data = a.text.encode("utf-8")
    open_b = a.marker_open.encode("utf-8")
    close_b = a.marker_close.encode("utf-8")
    closer_b = open_b + b"/" + close_b

    clean = bytearray()
    regions: list[list] = []  # [path, start, end], in open order
    stack: list[int] = []
    i = 0
    while i < len(data):
        if data.startswith(closer_b, i):
            if not stack:
                raise UnbalancedMarker(i)
            regions[stack.pop()][2] = len(clean)
            i += len(closer_b)
        elif data.startswith(open_b, i):
            j = data.find(close_b, i + len(open_b))
            if j == -1:
                raise UnbalancedMarker(i)
            payload = data[i + len(open_b):j].decode("utf-8")
            try:
                path = normalize_marker_path(parse_path(payload))
            except PathSyntaxError as exc:
                raise PathSyntaxError(f"bad marker payload {payload!r}", i + len(open_b)) from exc
            stack.append(len(regions))
            regions.append([path, len(clean), -1])
            i = j + len(close_b)
        else:
            k = data.find(open_b, i)
            if k == -1:
                clean += data[i:]
                break
            clean += data[i:k]
            i = k
    if stack:
        raise UnbalancedMarker(len(data))

    clean_bytes = bytes(clean)
    newlines = [m.start() for m in re.finditer(b"\n", clean_bytes)]
    links = tuple(
        TraceLink(
            sources=(ElementRef(model_uri, path),),
            targets=(span_at(clean_file_uri, newlines, start, end),),
            tags={"template": a.template_name},
        )
        for path, start, end in regions
    )
    trace = LocalTraceModel(trace_id, transformation_id, execution_stamp, links)
    return clean_bytes.decode("utf-8"), trace


# ---------------------------------------------------------------------------
# Printer
# ---------------------------------------------------------------------------


def _expr_text(expr: TemplateExpr) -> str:
    if isinstance(expr, TLiteral):
        if isinstance(expr.value, bool):
            return "true" if expr.value else "false"
        if isinstance(expr.value, str):
            return f'"{_escape(expr.value)}"'
        return repr(expr.value)
    if isinstance(expr, TIndex):
        return "i"
    if isinstance(expr, TPathOf):
        return f"path({expr.target})"
    return str(expr)


def _cond_text(cond: Cond) -> str:
    if isinstance(cond, SizeCond):
        return f"{cond.target}->size() {cond.op} {cond.bound}"
    return f"{cond.left} {cond.op} {_expr_text(cond.right)}"


def print_template(t: Template) -> str:
    parts: list[str] = []
    header = f"[template {t.name} ({t.param_var} : {t.metamodel.name}!{t.param_class})"
    if (t.marker_open, t.marker_close) != DEFAULT_MARKERS:
        header += f' markers("{t.marker_open}", "{t.marker_close}")'
    parts.append(header + "]")

    def walk(nodes):
        for node in nodes:
            if isinstance(node, TextNode):
                parts.append(node.text)
            elif isinstance(node, EmitNode):
                parts.append(f"[{_expr_text(node.expr)}/]")
            elif isinstance(node, ForNode):
                parts.append(f"[for ({node.var} : {node.source})]")
                walk(node.body)
                parts.append("[/for]")
            else:
                parts.append(f"[if ({_cond_text(node.cond)})]")
                walk(node.then_body)
                if node.else_body:
                    parts.append("[else]")
                    walk(node.else_body)
                parts.append("[/if]")

    walk(t.body)
    parts.append("[/template]")
    return "".join(parts) + "\n"
