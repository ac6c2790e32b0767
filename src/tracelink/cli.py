"""Command-line frontend: discovery, augmentation, enactment, analysis.

All commands are workspace-relative, path arguments included; the workspace
root is the current directory unless TRACELINK_WORKSPACE is set. Output goes
to stdout. An error prints one ``error:`` line on stderr and exits 2 for a
usage error, 1 for any other.
"""

from __future__ import annotations

import argparse
import os
import re
import sys
from pathlib import Path

from . import __version__, gtm, megamodel, trace
from .errors import AnchorNotFound, TracelinkError
from .megamodel import Megamodel, ResourceKind, ResourceOrigin
from .model import canonical_json
from .paths import parse_path
from .workspace import MEGAMODEL_FILE, OUTPUT_DIR, load, workspace_lock, write_text

# ASCII digits only, as in path indexes; int() alone also reads "1_0", " 3", "+3" and "١٠".
_AT_BYTE = "@([0-9]+)"


def _workspace_root() -> Path:
    return Path(os.environ.get("TRACELINK_WORKSPACE", ".")).resolve()


def _fail(message: str, status: int = 1):
    sys.stderr.write(f"error: {message}\n")
    sys.exit(status)


def _load_mgm(root: Path) -> Megamodel:
    path = root / MEGAMODEL_FILE
    if not path.is_file():
        _fail(f"no {MEGAMODEL_FILE} in '{root}'; run 'tracelink discover' first")
    return megamodel.load_megamodel(path.read_text(encoding="utf-8"))


def _workspace_metamodels(root: Path) -> dict:
    """The metamodels discovery would register, for file-local commands."""
    found = frozenset(
        megamodel.ResourceEntry(megamodel.resource_id(kind, uri), kind, uri, ResourceOrigin.DISCOVERED)
        for uri, kind in megamodel.workspace_files(root) if kind == ResourceKind.METAMODEL)
    return megamodel.load_metamodels(Megamodel(found), root)[0]


def discover(directory: Path):
    """Register workspace resources and write megamodel.json."""
    root = _workspace_root() / directory
    mgm = megamodel.discover(root)
    write_text(root, MEGAMODEL_FILE, megamodel.save_megamodel(mgm))
    for kind in ResourceKind:
        count = len(mgm.of_kind(kind))
        if count:
            print(f"{kind.value}: {count}")
    print(f"registered {len(mgm.resources)} resources, {len(mgm.relations)} relations")


def mgm_show(fmt: str):
    """List the registered resources."""
    root = _workspace_root()
    m = _load_mgm(root)
    if fmt == "json":
        sys.stdout.write(megamodel.save_megamodel(m))
        return
    width = max((len(r.kind.value) for r in m.resources), default=4)
    owidth = max((len(r.origin.value) for r in m.resources), default=6)
    for res in sorted(m.resources, key=lambda r: (r.kind.value, r.uri)):
        print(f"{res.kind.value:<{width}}  {res.origin.value:<{owidth}}  {res.uri}")
    print(f"resources: {len(m.resources)}  relations: {len(m.relations)}")


def mgm_dot():
    """Draw the megamodel in Graphviz DOT."""
    root = _workspace_root()
    sys.stdout.write(megamodel.megamodel_dot(_load_mgm(root)))


def augment_m2m_cmd(file: Path):
    """Write FILE.aug.m2m with trace clauses on every target pattern."""
    from . import m2m

    root = _workspace_root()
    metamodels = _workspace_metamodels(root)
    t = load(root, file.as_posix(), lambda text: m2m.parse_m2m(text, metamodels))
    out = file.with_name(file.name + ".aug.m2m")
    write_text(root, out.as_posix(), m2m.print_m2m(m2m.augment_m2m(t)))
    print(out)


def augment_m2c_cmd(file: Path):
    """Write FILE.aug.m2c with identifier-path markers inserted."""
    from . import m2c

    root = _workspace_root()
    metamodels = _workspace_metamodels(root)
    t = load(root, file.as_posix(), lambda text: m2c.parse_template(text, metamodels))
    out = file.with_name(file.name + ".aug.m2c")
    write_text(root, out.as_posix(), m2c.print_template(m2c.augment_template(t)))
    print(out)


def run_m2m(file: Path, inputs: list[str], out_path: Path):
    """Execute one M2M file; augmented files also write OUT.trace.json."""
    from . import m2m
    from .model import parse_model, serialize_model

    root = _workspace_root()
    metamodels = _workspace_metamodels(root)
    t = load(root, file.as_posix(), lambda text: m2m.parse_m2m(text, metamodels))
    models = {}

    for item in inputs:
        if "=" not in item:
            _fail(f"--in needs ALIAS=MODEL, got {item!r}")
        alias, uri = item.split("=", 1)
        declared = dict(t.inputs).get(alias)
        if declared is None:
            _fail(f"transformation has no input alias '{alias}'")
        models[alias] = load(root, uri, lambda text: parse_model(text, metamodels[declared], uri=uri))
    out_uri = out_path.as_posix()
    result, tr = m2m.execute_m2m(t, models, metamodels, out_uri, trace_id=f"trace:{file.stem}",
                                 transformation_id=f"TransformationM2M:{file.name}")
    if tr is not None:
        write_text(root, out_uri + ".trace.json", trace.save_trace(tr))
    write_text(root, out_uri, serialize_model(result))
    print(out_uri)


def run_m2c(file: Path, model_uri: str, out_dir: Path):
    """Render one template with markers; write the clean file, its annotated
    sidecar and the trace."""
    from . import m2c
    from .model import parse_model

    root = _workspace_root()
    metamodels = _workspace_metamodels(root)
    t = load(root, file.as_posix(), lambda text: m2c.parse_template(text, metamodels))
    model = load(root, model_uri, lambda text: parse_model(text, t.metamodel, uri=model_uri))
    clean_uri = (out_dir / t.name).as_posix()
    clean, annotated, tr = m2c.render_traced(
        t, model, model_uri, clean_uri,
        trace_id=f"trace:{file.stem}", transformation_id=f"TransformationM2C:{file.name}")
    write_text(root, clean_uri, clean)
    write_text(root, clean_uri + ".annotated", annotated)
    write_text(root, clean_uri + ".trace.json", trace.save_trace(tr))
    print(clean_uri)


def enact(process_uri: str, binds: list[str], no_augment: bool):
    """Enact a process: run all actions, register artifacts and traces."""
    from . import process

    root = _workspace_root()
    bindings = {}
    for item in binds:
        if "=" not in item:
            _fail(f"--bind needs PIN=MODEL, got {item!r}")
        pin, uri = item.split("=", 1)
        bindings[pin] = uri

    # The whole read-modify-write of the megamodel holds the lock, so a
    # concurrent enactment cannot lose this one's registrations.
    with workspace_lock(root):
        mgm_value = _load_mgm(root)
        # Re-enactment replaces anything a previous run generated.
        kept = frozenset(r for r in mgm_value.resources if r.origin != ResourceOrigin.GENERATED)
        kept_ids = {r.id for r in kept}
        kept_rels = frozenset(
            rel for rel in mgm_value.relations if rel.from_id in kept_ids and rel.to_id in kept_ids)
        p = load(root, process_uri, process.parse_process)
        result = process.enact(
            p, Megamodel(kept, kept_rels), bindings, root, augment=not no_augment)
        write_text(root, MEGAMODEL_FILE, megamodel.save_megamodel(result.megamodel))
        summary = {
            "process": p.name,
            "stages": [list(stage) for stage in result.plan.stages],
            "artifacts": [{"uri": a.uri, "kind": a.kind.value} for a in result.artifacts],
            "traces": [t.id for t in result.traces],
        }
        write_text(root, f"{OUTPUT_DIR}/enactment.json", canonical_json(summary))
    for line in result.log:
        print(line)
    print(f"registered {len(result.artifacts)} artifacts, {len(result.traces)} traces")


def _suggest_anchor(g: gtm.GlobalTraceMap, model_uri: str, path_text: str) -> str:
    import difflib

    candidates = sorted(
        {n.path for n in g.nodes if isinstance(n, gtm.ElemNode) and n.model_uri == model_uri})
    close = difflib.get_close_matches(path_text, candidates, n=1)
    return f"; did you mean '{close[0]}'?" if close else ""


def impact(model_uri: str, path_text: str, fmt: str):
    """Everything reachable from a model element, layer by layer."""
    anchor = gtm.ElemNode(model_uri, parse_path(path_text))  # before any trace is read
    root = _workspace_root()
    g = gtm.query_gtm(_load_mgm(root), root, model_uri, forward=True)
    try:
        report = gtm.change_impact(g, anchor)
    except AnchorNotFound as exc:
        _fail(str(exc) + _suggest_anchor(g, model_uri, path_text))
    _emit_report(root, report, fmt, "impact")


def origin(file_uri: str, location: str, fmt: str):
    """Trace a code location back to the model elements it came from."""
    match = re.fullmatch(f"{_AT_BYTE}|([0-9]+):([0-9]+)", location)  # before any trace is read
    if match is None:
        _fail(f"location must be LINE:COL or @BYTE, got {location!r}")
    root = _workspace_root()
    g = gtm.query_gtm(_load_mgm(root), root, file_uri, forward=False)
    offset = _location_to_byte(root, file_uri, *match.groups())
    report = gtm.origin_track(g, location=(file_uri, offset))
    _emit_report(root, report, fmt, "origin")


def _location_to_byte(root: Path, file_uri: str, byte: str | None, line_s: str | None, col_s: str | None) -> int:
    """The byte offset of ``@BYTE`` or of ``LINE:COL`` in the file, from the location's matched parts."""
    data = (root / file_uri).read_bytes()
    if byte is not None:
        offset = _number(byte)
        return offset if offset < len(data) else _fail(f"{file_uri} has no byte {offset}")
    line, col = _number(line_s), _number(col_s)
    lines = data.split(b"\n")
    if line < 1 or line > len(lines):
        _fail(f"{file_uri} has no line {line}")
    # A line's bytes are its text plus the newline that ends it, if any.
    if col < 1 or col > len(lines[line - 1]) + (line < len(lines)):
        _fail(f"{file_uri}:{line} has no column {col}")
    return sum(len(x) + 1 for x in lines[:line - 1]) + (col - 1)


def _number(digits: str) -> int:
    """The value of a location's matched ASCII digits; more digits than int() reads is an error."""
    try:
        return int(digits)
    except ValueError:  # past sys.get_int_max_str_digits()
        _fail(f"a number of {len(digits)} digits is too large")


def _emit_report(root: Path, report: gtm.AnalysisReport, fmt: str, name: str):
    if fmt == "json":
        text = canonical_json(gtm.report_json(report))
    else:
        text = report.rendered
    write_text(root, f"{OUTPUT_DIR}/reports/{name}.txt", text)
    sys.stdout.write(text)


def gtm_dot(around: str | None, radius: int):
    """Draw the global trace map in Graphviz DOT."""
    root = _workspace_root()
    mgm = _load_mgm(root)
    g = gtm.build_gtm(mgm, root)
    if around is not None:
        # An anchor with an "@" is FILE@BYTE; without, MODEL:PATH splits at its last ":".
        match = re.fullmatch(f"(.*){_AT_BYTE}|([^@]*):([^@:]*)", around, re.DOTALL)
        if match is None:
            _fail(f"--around must be MODEL:PATH or FILE@BYTE, got {around!r}")
        file_uri, byte, uri, path_text = match.groups()
        anchor = (gtm.origin_track(g, location=(file_uri, _number(byte))).anchor if byte is not None
                  else gtm.ElemNode(uri, parse_path(path_text)))
        g = gtm.slice_around(g, anchor, radius)  # only the drawn models are parsed
    sys.stdout.write(gtm.export_dot(g, dangling=gtm.dangling_endpoints(g, mgm, root)))


def trace_show(file: Path, fmt: str):
    """List a trace model's links."""
    t = load(_workspace_root(), file.as_posix(), trace.load_trace)
    if fmt == "json":
        sys.stdout.write(trace.save_trace(t))
        return
    print(f"{t.id} (for {t.transformation_id}, stamp {t.execution_stamp})")
    for link in t.links:
        tags = " ".join(f"{k}={v}" for k, v in sorted(link.tags.items()))
        sources = ", ".join(str(s) for s in link.sources)
        targets = ", ".join(str(x) for x in link.targets)
        print(f"  [{tags}] {sources} -> {targets}")


class _Parser(argparse.ArgumentParser):
    def error(self, message: str):
        _fail(message, status=2)


def _parser() -> _Parser:
    def command(commands, name: str, run=None, doc: str | None = None, fmt: bool = False):
        doc = " ".join((doc or run.__doc__).split())
        parser = commands.add_parser(name, help=doc, description=doc, allow_abbrev=False)
        parser.set_defaults(run=run, group=parser)  # a group runs nothing and prints its help
        if fmt:
            parser.add_argument("--format", dest="fmt", choices=["text", "json"], default="text")
        return parser

    def subcommands(parser):
        return parser.add_subparsers(title="commands", metavar="COMMAND")

    top = _Parser(prog="tracelink", allow_abbrev=False,
                  description="Enact transformation chains and answer end-to-end trace queries.")
    top.add_argument("--version", action="version", version=f"tracelink, version {__version__}")
    top.set_defaults(run=None, group=top)
    commands = subcommands(top)
    command(commands, "discover", discover).add_argument("directory", metavar="DIRECTORY", type=Path)
    mgm = subcommands(command(commands, "mgm", doc="Inspect the stored megamodel."))
    command(mgm, "show", mgm_show, fmt=True)
    command(mgm, "dot", mgm_dot)
    command(commands, "augment-m2m", augment_m2m_cmd).add_argument("file", metavar="FILE", type=Path)
    command(commands, "augment-m2c", augment_m2c_cmd).add_argument("file", metavar="FILE", type=Path)
    p = command(commands, "run-m2m", run_m2m)
    p.add_argument("file", metavar="FILE", type=Path)
    p.add_argument("--in", dest="inputs", action="append", default=[], metavar="ALIAS=MODEL",
                   help="bind an input alias")
    p.add_argument("--out", dest="out_path", required=True, metavar="PATH", type=Path)
    p = command(commands, "run-m2c", run_m2c)
    p.add_argument("file", metavar="FILE", type=Path)
    p.add_argument("--in", dest="model_uri", required=True, metavar="MODEL")
    p.add_argument("--out", dest="out_dir", required=True, metavar="PATH", type=Path)
    p = command(commands, "enact", enact)
    p.add_argument("process_uri", metavar="PROCESS_URI")
    p.add_argument("--bind", dest="binds", action="append", default=[], metavar="PIN=MODEL",
                   help="bind an external input pin")
    p.add_argument("--no-augment", action="store_true", help="run bare transformations, no traces")
    p = command(commands, "impact", impact, fmt=True)
    p.add_argument("model_uri", metavar="MODEL_URI")
    p.add_argument("path_text", metavar="PATH")
    p = command(commands, "origin", origin, fmt=True)
    p.add_argument("file_uri", metavar="FILE_URI")
    p.add_argument("location", metavar="LINE:COL|@BYTE")
    p = command(subcommands(command(commands, "gtm", doc="Global trace map exports.")), "dot", gtm_dot)
    p.add_argument("--around", metavar="MODEL:PATH|FILE@BYTE", help="slice the map around an anchor")
    p.add_argument("--radius", type=int, default=2, metavar="INTEGER", help="default: %(default)s")
    traces = subcommands(command(commands, "trace", doc="Inspect stored trace models."))
    command(traces, "show", trace_show, fmt=True).add_argument("file", metavar="FILE", type=Path)
    return top


class _Cli:
    """The ``tracelink`` command, with a click command's ``name`` and ``main``."""

    name = "tracelink"
    parser = _parser()

    def main(self, args=None, prog_name=None, standalone_mode=True):
        """Run ``args`` (default ``sys.argv[1:]``); after a success, exit 0 if
        ``standalone_mode``, else return. Help always names the program tracelink."""
        ns = vars(self.parser.parse_args(args))
        run, group = ns.pop("run"), ns.pop("group")
        if run is None:
            group.print_help(sys.stderr)
            sys.exit(2)
        try:
            run(**ns)
        except (TracelinkError, OSError) as exc:
            _fail(str(exc))
        if standalone_mode:
            sys.exit(0)


cli = _Cli()


def main():
    cli.main()


if __name__ == "__main__":
    main()
