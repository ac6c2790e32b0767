"""Command-line frontend: discovery, augmentation, enactment, analysis.

All commands are workspace-relative; the workspace root is the current
directory unless TRACELINK_WORKSPACE is set. Diagnostics go to stderr and
any error exits nonzero.
"""

from __future__ import annotations

import functools
import sys
from pathlib import Path

import click

from . import __version__, gtm, megamodel, trace
from .errors import AmbiguousMetamodel, AnchorNotFound, TracelinkError
from .megamodel import Megamodel, ResourceKind, ResourceOrigin
from .model import canonical_json, parse_metamodel
from .paths import parse_path
from .workspace import MEGAMODEL_FILE, OUTPUT_DIR, TRACE_DIR, read_text, workspace_lock, write_text


def _workspace_root() -> Path:
    import os

    return Path(os.environ.get("TRACELINK_WORKSPACE", ".")).resolve()


def _fail(message: str):
    click.echo(f"error: {message}", err=True)
    sys.exit(1)


def _handle_errors(fn):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        try:
            return fn(*args, **kwargs)
        except TracelinkError as exc:
            _fail(str(exc))
        except OSError as exc:
            _fail(str(exc))

    return wrapper


def _load_mgm(root: Path) -> Megamodel:
    path = root / MEGAMODEL_FILE
    if not path.is_file():
        _fail(f"no {MEGAMODEL_FILE} in '{root}'; run 'tracelink discover' first")
    return megamodel.load_megamodel(path.read_text(encoding="utf-8"))


def _workspace_metamodels(root: Path) -> dict:
    """The metamodels discovery would register, for file-local commands."""
    out = {}
    for uri, kind in megamodel.workspace_files(root):
        if kind != ResourceKind.METAMODEL:
            continue
        mm = parse_metamodel(read_text(root, uri))
        if mm.name in out:
            raise AmbiguousMetamodel(mm.name)
        out[mm.name] = mm
    return out


@click.group()
@click.version_option(__version__, prog_name="tracelink")
def cli():
    """Enact transformation chains and answer end-to-end trace queries."""


@cli.command()
@click.argument("directory", type=click.Path(path_type=Path))
@_handle_errors
def discover(directory: Path):
    """Register workspace resources and write megamodel.json."""
    mgm = megamodel.discover(directory)
    write_text(directory, MEGAMODEL_FILE, megamodel.save_megamodel(mgm))
    for kind in ResourceKind:
        count = len(mgm.of_kind(kind))
        if count:
            click.echo(f"{kind.value}: {count}")
    click.echo(f"registered {len(mgm.resources)} resources, {len(mgm.relations)} relations")


@cli.group()
def mgm():
    """Inspect the stored megamodel."""


@mgm.command("show")
@click.option("--format", "fmt", type=click.Choice(["text", "json"]), default="text")
@_handle_errors
def mgm_show(fmt: str):
    root = _workspace_root()
    m = _load_mgm(root)
    if fmt == "json":
        click.echo(megamodel.save_megamodel(m), nl=False)
        return
    width = max((len(r.kind.value) for r in m.resources), default=4)
    owidth = max((len(r.origin.value) for r in m.resources), default=6)
    for res in sorted(m.resources, key=lambda r: (r.kind.value, r.uri)):
        click.echo(f"{res.kind.value:<{width}}  {res.origin.value:<{owidth}}  {res.uri}")
    click.echo(f"resources: {len(m.resources)}  relations: {len(m.relations)}")


@mgm.command("dot")
@_handle_errors
def mgm_dot():
    root = _workspace_root()
    click.echo(megamodel.megamodel_dot(_load_mgm(root)), nl=False)


@cli.command("augment-m2m")
@click.argument("file", type=click.Path(path_type=Path))
@_handle_errors
def augment_m2m_cmd(file: Path):
    """Write FILE.aug.m2m with trace clauses on every target pattern."""
    from . import m2m

    root = _workspace_root()
    metamodels = _workspace_metamodels(root)
    t = m2m.parse_m2m(file.read_text(encoding="utf-8"), metamodels)
    out = file.with_name(file.name + ".aug.m2m")
    out.write_text(m2m.print_m2m(m2m.augment_m2m(t)), encoding="utf-8", newline="")
    click.echo(str(out))


@cli.command("augment-m2c")
@click.argument("file", type=click.Path(path_type=Path))
@_handle_errors
def augment_m2c_cmd(file: Path):
    """Write FILE.aug.m2c with identifier-path markers inserted."""
    from . import m2c

    root = _workspace_root()
    metamodels = _workspace_metamodels(root)
    t = m2c.parse_template(file.read_text(encoding="utf-8"), metamodels)
    out = file.with_name(file.name + ".aug.m2c")
    out.write_text(m2c.print_template(m2c.augment_template(t)), encoding="utf-8", newline="")
    click.echo(str(out))


@cli.command("run-m2m")
@click.argument("file", type=click.Path(path_type=Path))
@click.option("--in", "inputs", multiple=True, metavar="ALIAS=MODEL", help="bind an input alias")
@click.option("--out", "out_path", required=True, type=click.Path(path_type=Path))
@_handle_errors
def run_m2m(file: Path, inputs: tuple[str, ...], out_path: Path):
    """Execute one M2M file; augmented files also write OUT.trace.json."""
    from . import m2m
    from .model import parse_model, serialize_model

    root = _workspace_root()
    metamodels = _workspace_metamodels(root)
    t = m2m.parse_m2m(file.read_text(encoding="utf-8"), metamodels)
    models = {}

    for item in inputs:
        if "=" not in item:
            _fail(f"--in needs ALIAS=MODEL, got {item!r}")
        alias, uri = item.split("=", 1)
        declared = dict(t.inputs).get(alias)
        if declared is None:
            _fail(f"transformation has no input alias '{alias}'")
        models[alias] = parse_model(read_text(root, uri), metamodels[declared], uri=uri)
    out_uri = out_path.as_posix()
    if m2m.is_augmented(t):
        result, tr = m2m.execute_augmented_m2m(
            t, models, metamodels, out_uri,
            trace_id=f"trace:{file.stem}", transformation_id=f"TransformationM2M:{file.name}")
        write_text(root, out_uri + ".trace.json", trace.save_trace(tr))
    else:
        result = m2m.execute_m2m(t, models, metamodels, out_uri)
    write_text(root, out_uri, serialize_model(result))
    click.echo(out_uri)


@cli.command("run-m2c")
@click.argument("file", type=click.Path(path_type=Path))
@click.option("--in", "model_uri", required=True, metavar="MODEL")
@click.option("--out", "out_dir", required=True, type=click.Path(path_type=Path))
@_handle_errors
def run_m2c(file: Path, model_uri: str, out_dir: Path):
    """Render one template with markers; extract the clean file plus trace."""
    from . import m2c
    from .model import parse_model

    root = _workspace_root()
    metamodels = _workspace_metamodels(root)
    t = m2c.parse_template(file.read_text(encoding="utf-8"), metamodels)
    model = parse_model(read_text(root, model_uri), t.metamodel, uri=model_uri)
    augmented = m2c.augment_template(t)
    annotated = m2c.render_augmented(augmented, model)
    clean_uri = (out_dir / t.name).as_posix()
    clean, tr = m2c.extract_trace(
        annotated, model_uri, clean_uri,
        trace_id=f"trace:{file.stem}", transformation_id=f"TransformationM2C:{file.name}")
    write_text(root, clean_uri, clean)
    write_text(root, clean_uri + ".annotated", annotated.text)
    write_text(root, f"{TRACE_DIR}/{t.name}.trace.json", trace.save_trace(tr))
    click.echo(clean_uri)


@cli.command()
@click.argument("process_uri")
@click.option("--bind", "binds", multiple=True, metavar="PIN=MODEL", help="bind an external input pin")
@click.option("--no-augment", is_flag=True, help="run bare transformations, no traces")
@_handle_errors
def enact(process_uri: str, binds: tuple[str, ...], no_augment: bool):
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
        p = process.parse_process(read_text(root, process_uri))
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
        click.echo(line)
    click.echo(f"registered {len(result.artifacts)} artifacts, {len(result.traces)} traces")


def _suggest_anchor(g: gtm.GlobalTraceMap, model_uri: str, path_text: str) -> str:
    import difflib

    candidates = sorted(
        {n.path for n in g.nodes if isinstance(n, gtm.ElemNode) and n.model_uri == model_uri})
    close = difflib.get_close_matches(path_text, candidates, n=1)
    return f"; did you mean '{close[0]}'?" if close else ""


@cli.command()
@click.argument("model_uri")
@click.argument("path_text", metavar="PATH")
@click.option("--format", "fmt", type=click.Choice(["text", "json"]), default="text")
@_handle_errors
def impact(model_uri: str, path_text: str, fmt: str):
    """Everything reachable from a model element, layer by layer."""
    root = _workspace_root()
    g = gtm.query_gtm(_load_mgm(root), root, model_uri, forward=True)
    anchor = gtm.ElemNode(model_uri, str(parse_path(path_text)))
    try:
        report = gtm.change_impact(g, anchor)
    except AnchorNotFound as exc:
        _fail(str(exc) + _suggest_anchor(g, model_uri, path_text))
        return
    _emit_report(root, report, fmt, "impact")


@cli.command()
@click.argument("file_uri")
@click.argument("location", metavar="LINE:COL|@BYTE")
@click.option("--format", "fmt", type=click.Choice(["text", "json"]), default="text")
@_handle_errors
def origin(file_uri: str, location: str, fmt: str):
    """Trace a code location back to the model elements it came from."""
    root = _workspace_root()
    g = gtm.query_gtm(_load_mgm(root), root, file_uri, forward=False)
    offset = _location_to_byte(root, file_uri, location)
    report = gtm.origin_track(g, location=(file_uri, offset))
    _emit_report(root, report, fmt, "origin")


def _location_to_byte(root: Path, file_uri: str, location: str) -> int:
    try:
        if location.startswith("@"):
            return int(location[1:])
        line_s, col_s = location.split(":", 1)
        line, col = int(line_s), int(col_s)
    except ValueError:
        _fail(f"location must be LINE:COL or @BYTE, got {location!r}")
    lines = (root / file_uri).read_bytes().split(b"\n")
    if line < 1 or line > len(lines):
        _fail(f"{file_uri} has no line {line}")
    # A line's bytes are its text plus the newline that ends it, if any.
    if col < 1 or col > len(lines[line - 1]) + (line < len(lines)):
        _fail(f"{file_uri}:{line} has no column {col}")
    return sum(len(x) + 1 for x in lines[:line - 1]) + (col - 1)


def _emit_report(root: Path, report: gtm.AnalysisReport, fmt: str, name: str):
    if fmt == "json":
        text = canonical_json(gtm.report_json(report))
    else:
        text = report.rendered
    write_text(root, f"{OUTPUT_DIR}/reports/{name}.txt", text)
    click.echo(text, nl=False)


@cli.group("gtm")
def gtm_group():
    """Global trace map exports."""


@gtm_group.command("dot")
@click.option("--around", metavar="MODEL:PATH|FILE@BYTE", default=None,
              help="slice the map around an anchor")
@click.option("--radius", type=int, default=2, show_default=True)
@_handle_errors
def gtm_dot(around: str | None, radius: int):
    root = _workspace_root()
    g = gtm.build_gtm(_load_mgm(root), root)
    anchor = None
    if around is not None:
        try:
            if "@" in around:
                file_uri, offset_s = around.rsplit("@", 1)
                offset = int(offset_s)
            else:
                uri, path_text = around.rsplit(":", 1)
        except ValueError:
            _fail(f"--around must be MODEL:PATH or FILE@BYTE, got {around!r}")
        if "@" in around:
            anchor = gtm.origin_track(g, location=(file_uri, offset)).anchor
        else:
            anchor = gtm.ElemNode(uri, str(parse_path(path_text)))
    click.echo(gtm.export_dot(g, around=anchor, radius=radius), nl=False)


@cli.group("trace")
def trace_group():
    """Inspect stored trace models."""


@trace_group.command("show")
@click.argument("file", type=click.Path(path_type=Path))
@click.option("--format", "fmt", type=click.Choice(["text", "json"]), default="text")
@_handle_errors
def trace_show(file: Path, fmt: str):
    text = file.read_text(encoding="utf-8")
    t = trace.load_trace(text)
    if fmt == "json":
        click.echo(trace.save_trace(t), nl=False)
        return
    click.echo(f"{t.id} (for {t.transformation_id}, stamp {t.execution_stamp})")
    for link in t.links:
        tags = " ".join(f"{k}={v}" for k, v in sorted(link.tags.items()))
        sources = ", ".join(str(s) for s in link.sources)
        targets = ", ".join(str(x) for x in link.targets)
        click.echo(f"  [{tags}] {sources} -> {targets}")


def main():
    cli(prog_name="tracelink")


if __name__ == "__main__":
    main()
