"""Exception types shared across the toolchain."""

from __future__ import annotations


class TracelinkError(Exception):
    """Base class for every error raised by this package."""


class ParseError(TracelinkError):
    """Malformed input document: bad JSON, or text that violates a grammar."""

    def __init__(self, message: str, *, line: int | None = None, column: int | None = None):
        if line is not None:
            message += f" (line {line})" if column is None else f" (line {line}, col {column})"
        super().__init__(message)
        self.line = line
        self.column = column


class PathSyntaxError(ParseError):
    """Element path string rejected; ``offset`` is the byte position of the error."""

    def __init__(self, message: str, offset: int):
        TracelinkError.__init__(self, f"{message} at offset {offset}")
        self.line = None
        self.column = None
        self.offset = offset


class SchemaError(TracelinkError):
    """Declaration-level defect: duplicate names, dangling class references."""


class ConformanceError(TracelinkError):
    """A model does not conform to its metamodel."""

    def __init__(self, path: str, message: str, violations: tuple = ()):
        super().__init__(f"{path}: {message}")
        self.path = path
        self.violations = violations


class PathNotFound(TracelinkError):
    """A path segment could not be resolved against a model."""

    def __init__(self, segment: str):
        super().__init__(f"path segment '{segment}' not found")
        self.segment = segment


class AmbiguousMetamodel(TracelinkError):
    """Two metamodel files in one workspace declare the same name."""

    def __init__(self, name: str):
        super().__init__(f"metamodel '{name}' is defined by more than one file")
        self.name = name


class DuplicateId(TracelinkError):
    """Resource id already present in the megamodel."""

    def __init__(self, resource_id: str):
        super().__init__(f"duplicate resource id '{resource_id}'")
        self.resource_id = resource_id


class DanglingRelation(TracelinkError):
    """Relation endpoint does not name a registered resource."""


class IntegrityError(TracelinkError):
    """A stored file violates an invariant of its format."""


class WellFormednessError(TracelinkError):
    """A process model violates its structural rules."""


class CycleError(TracelinkError):
    """The combined control/object precedence graph has a cycle."""

    def __init__(self, cycle: list[str]):
        super().__init__("precedence cycle: " + " -> ".join(cycle))
        self.cycle = cycle


class MissingBinding(TracelinkError):
    """An externally-fed input pin was left unbound at enactment."""

    def __init__(self, pin: str):
        super().__init__(f"input pin '{pin}' is not bound")
        self.pin = pin


class TransformationError(TracelinkError):
    """A transformation failed; ``action_id`` names the enclosing action when known."""

    def __init__(self, message: str, action_id: str | None = None):
        prefix = f"action '{action_id}': " if action_id else ""
        super().__init__(prefix + message)
        self.action_id = action_id


class MatchAmbiguity(TracelinkError):
    """A source element is matched by more than one rule."""

    def __init__(self, path: str, rule_names: list[str]):
        super().__init__(f"element '{path}' matches multiple rules: {', '.join(rule_names)}")
        self.path = path
        self.rule_names = rule_names


class UnresolvedBinding(TracelinkError):
    """An element-valued binding names a source element that matched no rule."""

    def __init__(self, path: str):
        super().__init__(f"source element '{path}' matched no rule and cannot be resolved")
        self.path = path


class UnknownClass(TracelinkError):
    """A transformation references a class missing from its metamodel."""

    def __init__(self, name: str):
        super().__init__(f"unknown class '{name}'")
        self.name = name


class EvalError(TracelinkError):
    """A template expression failed at render time."""

    def __init__(self, message: str, line: int | None = None, model_path: str | None = None):
        parts = [message]
        if line is not None:
            parts.append(f"template line {line}")
        if model_path is not None:
            parts.append(f"model path {model_path}")
        super().__init__("; ".join(parts))
        self.line = line
        self.model_path = model_path


class TemplateTypeError(TracelinkError):
    """A template expression does not type-check against the metamodel."""

    def __init__(self, message: str, line: int | None = None):
        loc = f" (line {line})" if line is not None else ""
        super().__init__(f"{message}{loc}")
        self.line = line


class AnchorNotFound(TracelinkError):
    """The query anchor is not a node of the global trace map."""

    def __init__(self, anchor: str):
        super().__init__(f"anchor '{anchor}' is not in the trace map")
        self.anchor = anchor


class LocationOutsideSpans(TracelinkError):
    """A raw code location falls inside no traced span."""
