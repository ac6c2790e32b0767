"""Benchmark tracelink end to end on one workload.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout: the benchmark imports tracelink from
``src/`` and builds its workspaces from ``fixtures/workspace`` under
``.perfbench/``, which it removes again on exit (the bytecode cache there is
kept). The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics with
``--trace 0``, the per-layer metrics with ``--trace 1``. README.md explains
every metric and workload.
"""

from __future__ import annotations

import argparse
import gc
import io
import json
import os
import random
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from contextlib import redirect_stdout
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import oracle  # noqa: E402
import workloads  # noqa: E402
from reference import reference_step, reference_work  # noqa: E402
from tracer import Tracer  # noqa: E402

# Rounds between timed set-ups. Set-ups are spread over the run, like every
# other sample, so that setup_s sees the same machine as the rest; a burst of
# back-to-back set-ups at the start sampled only its first second.
SETUP_EVERY = {"case-study": 1, "wsn-wide": 3, "chain-deep": 3}
# Warm-query anchors drawn per run (all of them when there are fewer).
SAMPLE = 24
# Median time of one ``reference_work`` (CPU s) and of one ``reference_step``
# (us) on the machine the figures in README.md come from, at its faster speed.
# Each timed sample is reported at that speed: its CPU time is multiplied by
# this figure over the median of the latest GAUGE_WINDOW samples of its gauge,
# and the rest of its wall time is kept. README.md, "Machine speed", says why.
REFERENCE = {"reference_s": 0.002, "reference_step_us": 15.0}
GAUGE_WINDOW = 5
# peak_rss_mib is read after this many rounds (or fewer, in a shorter run).
# Read at the end, it rose by 4% in runs that the machine's speed let do 20%
# more rounds.
PEAK_ROUNDS = 3
# What the installed ``tracelink`` console script runs.
ENTRY = "import sys; from tracelink.cli import main; sys.exit(main())"

# Per-layer metric -> (span names whose totals it sums, what). ``what`` is
# "ms" (self time per round), "calls" (per round), "kib" (bytes handed to
# write_text, per round) or "us" (self time per warm query). BENCHMARK.json
# gives every metric's unit.
LAYERS = {
    "model.path_of.calls": (("model.path_of",), "calls"),
    "model.path_of.ms": (("model.path_of",), "ms"),
    "model.check_conformance.calls": (("model.check_conformance",), "calls"),
    "model.check_conformance.ms": (("model.check_conformance",), "ms"),
    "model.canonical_json.ms": (("model.canonical_json",), "ms"),
    "model.serialize_model.ms": (("model.serialize_model",), "ms"),
    "trace.save_trace.ms": (("trace.save_trace",), "ms"),
    "workspace.write_text.kib": (("workspace.write_text",), "kib"),
    "workspace.write_text.calls": (("workspace.write_text",), "calls"),
    "m2m.parse_m2m.ms": (("m2m.parse_m2m",), "ms"),
    "m2m.augment_m2m.ms": (("m2m.augment_m2m",), "ms"),
    "m2m.execute.ms": (("m2m.execute_m2m", "m2m.execute_augmented_m2m"), "ms"),
    "m2c.parse_template.ms": (("m2c.parse_template",), "ms"),
    "m2c.render.ms": (("m2c.render",), "ms"),
    "m2c.extract_trace.ms": (("m2c.extract_trace",), "ms"),
    "megamodel.register.calls": (("megamodel.register",), "calls"),
    "megamodel.register.ms": (("megamodel.register",), "ms"),
    "megamodel.load_megamodel.ms": (("megamodel.load_megamodel",), "ms"),
    "megamodel.save_megamodel.ms": (("megamodel.save_megamodel",), "ms"),
    "gtm.build_gtm.ms": (("gtm.build_gtm",), "ms"),
    "trace.load_trace.ms": (("trace.load_trace",), "ms"),
    "paths.parse_path.calls": (("paths.parse_path",), "calls"),
    "model.parse_model.ms": (("model.parse_model",), "ms"),
    "gtm.change_impact.us": (("gtm.change_impact",), "us"),
    "gtm.origin_track.us": (("gtm.origin_track",), "us"),
}


def declared(repo: Path, section: str) -> dict[str, str]:
    """Metric name -> unit, for one section of BENCHMARK.json."""
    spec = json.loads((repo / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {m["name"]: m["unit"] for m in spec[section]}


def clock() -> tuple[float, float]:
    """Wall time, and CPU time of this process and its waited-for children."""
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return time.perf_counter(), time.process_time() + kids.ru_utime + kids.ru_stime


def since(start: tuple[float, float]) -> tuple[float, float]:
    """Wall and CPU seconds since ``start``, a ``clock()`` reading."""
    wall, cpu = clock()
    return wall - start[0], cpu - start[1]


def settle():
    """Start a timed set-up from the same state each time.

    Collects garbage, and writes out what earlier operations left dirty in the
    page cache, so that the set-up finds the file system as a user's next
    command does after a pause. Without the sync, creating
    40 small files slowed from 2 to 16 ms over 14 seconds of creating and
    removing them (README.md, "File-system speed"). Enactments rewrite files
    that exist and are timed without it: with it, the middle half of ten
    case-study enact_s medians spread 0.28, against 0.11 and 0.13 without.
    """
    gc.collect()
    os.sync()


def written_bytes() -> int:
    """Bytes this process has passed to write() so far, from /proc/self/io."""
    with open("/proc/self/io", encoding="ascii") as fh:
        for line in fh:
            if line.startswith("wchar:"):
                return int(line.split()[1])
    raise RuntimeError("/proc/self/io has no wchar line")


class CheckFailed(Exception):
    """An output of tracelink differs from what the benchmark expects."""


def _check(ok: bool, message: str):
    if not ok:
        raise CheckFailed(message)


def _key(node) -> tuple:
    """Oracle key of a tracelink GTM node."""
    if hasattr(node, "model_uri"):
        return ("E", node.model_uri, node.path)
    return ("C", node.file_uri, node.start_byte, node.end_byte, node.start_line, node.start_col)


def _layers(report) -> list[frozenset]:
    return [frozenset(_key(n) for n in layer) for layer in report.layers]


def tracelink_cli(ws: Path, *args: str) -> str:
    """One tracelink command in this process, through the CLI entry point."""
    from tracelink.cli import cli

    os.environ["TRACELINK_WORKSPACE"] = str(ws)
    out = io.StringIO()
    try:
        with redirect_stdout(out):
            cli.main(list(args), prog_name="tracelink", standalone_mode=False)
    except SystemExit as exc:
        _check(not exc.code, f"tracelink {' '.join(args)} exited with {exc.code}")
    return out.getvalue()


class Bench:
    def __init__(self, repo: Path, workload: str, seed: int, traced: bool):
        self.repo = repo
        self.name = workload
        self.seed = seed
        self.work = repo / ".perfbench" / f"{workload}-{os.getpid()}"
        self.tracer = Tracer() if traced else None
        self.attempted = 0
        self.failed = 0
        self.samples: dict[str, list[float]] = {}  # as measured
        self.scaled: dict[str, list[float]] = {}  # timed samples at reference speed
        self.peak_rss_mib = 0.0
        self.round_spans: dict[str, list[int]] = {}  # per traced round
        self.warm_spans: dict[str, list[int]] = {}  # per traced warm query
        self.cli_self_ns: list[int] = []
        self.cli_import_ns: list[int] = []
        self.env = dict(os.environ, PYTHONPATH=str(repo / "src"),
                        PYTHONPYCACHEPREFIX=str(repo / ".perfbench" / "pycache"))
        # Child processes compile tracelink once into the cache above and
        # reuse it, as an installed package does, whatever this shell sets.
        self.env.pop("PYTHONDONTWRITEBYTECODE", None)
        self.env.pop("TRACELINK_WORKSPACE", None)

        from tracelink import gtm, megamodel

        self.gtm, self.megamodel = gtm, megamodel

    # -- running tracelink --------------------------------------------------

    def tl_process(self, *args: str, spans: Path | None = None):
        """One tracelink command as its own process, in the augmented
        workspace; returns its wall and CPU seconds and its standard output."""
        if spans is None:
            cmd = [sys.executable, "-c", ENTRY, *args]
        else:
            cmd = [sys.executable, str(HERE / "clitrace.py"), str(spans), *args]
        started = clock()
        proc = subprocess.run(cmd, cwd=self.ws_aug, env=self.env, capture_output=True,
                              text=True, timeout=120)
        elapsed = since(started)
        _check(proc.returncode == 0,
               f"tracelink {' '.join(args)} exited with {proc.returncode}: {proc.stderr.strip()}")
        return elapsed, proc.stdout

    def enact_args(self, augment: bool) -> list[str]:
        wl = self.wl
        return ["enact", wl.process_uri, "--bind", f"pim={wl.pim_uri}",
                *([] if augment else ["--no-augment"])]

    # -- operations ---------------------------------------------------------

    def op(self, fn, *args):
        """One counted operation; an error or a failed check fails it."""
        self.attempted += 1
        try:
            fn(*args)
        except Exception:  # noqa: BLE001 - the run goes on and reports the failure
            self.failed += 1
            print(f"operation {fn.__name__}{args!r} failed:", file=sys.stderr)
            traceback.print_exc(file=sys.stderr)

    def sample(self, metric: str, value: float, gauge: str | None = None,
               cpu: float | None = None):
        """Record one value. A time is also recorded at the reference speed:
        its CPU part (all of it when ``cpu`` is None) scaled by the recent
        ``gauge`` samples, and the time it spent waiting as measured."""
        self.samples.setdefault(metric, []).append(value)
        if gauge:
            recent = statistics.median(self.samples[gauge][-GAUGE_WINDOW:])
            cpu = value if cpu is None else min(cpu, value)
            self.scaled.setdefault(metric, []).append(
                cpu * REFERENCE[gauge] / recent + value - cpu)

    def gauge(self):
        """One timed reference_work, a sample of the machine's speed now."""
        started = time.process_time()
        reference_work()
        self.sample("reference_s", time.process_time() - started)

    def make_workspace(self, dest: Path, augment: bool):
        self.wl = workloads.GENERATORS[self.name](self.repo, dest, self.seed)
        tracelink_cli(dest, "discover", str(dest))
        tracelink_cli(dest, *self.enact_args(augment))

    def timed_setup(self, dest: Path):
        """One set-up, a sample of setup_s: generate the workspace, discover
        it and run the first augmented enactment."""
        settle()
        started = clock()
        self.make_workspace(dest, augment=True)
        wall, cpu = since(started)
        self.sample("setup_s", wall, "reference_s", cpu)

    def setup_again(self):
        """One more timed set-up, in a workspace that is checked and removed."""
        dest = self.work / "again"
        self.timed_setup(dest)
        self.check_code(dest)
        shutil.rmtree(dest)

    def setup(self):
        """Build the augmented workspace with a timed set-up, then the bare
        one, then the oracle's graph and the query anchors."""
        self.ws_aug = self.work / "aug"
        self.gauge()
        self.timed_setup(self.ws_aug)
        self.ws_bare = self.work / "bare"
        self.make_workspace(self.ws_bare, augment=False)

        pim = json.loads((self.ws_aug / self.wl.pim_uri).read_text(encoding="utf-8"))
        process = json.loads((self.ws_aug / self.wl.process_uri).read_text(encoding="utf-8"))
        self.actions = sum(1 for n in process["nodes"] if n["kind"] == "Action")
        self.elements = workloads.count_elements(pim)
        self.expected = {a: t for a, t in workloads.expected_code(pim).items()
                         if a in self.wl.code_actions}
        self.code_uris = [f"out/{a}/{workloads.CODE_FILES[a]}" for a in self.wl.code_actions]
        self.outputs = oracle.enactment_outputs(self.ws_aug)
        self.reference = oracle.digest(self.ws_aug, self.outputs)
        self.graph = oracle.load_graph(self.ws_aug)
        text = (self.ws_aug / "megamodel.json").read_text(encoding="utf-8")
        self.g = self.gtm.build_gtm(self.megamodel.load_megamodel(text), self.ws_aug)

        rng = random.Random(f"anchors-{self.seed}")
        elements = sorted(n for n in self.graph.forward if n[0] == "E" and n[1] == self.wl.pim_uri)
        self.impact_anchors = sorted(rng.sample(elements, min(SAMPLE, len(elements))))
        self.impact_expected = {a: oracle.impact(self.graph, a) for a in self.impact_anchors}
        self.origin_locations = sorted(self._sample_code_bytes(rng))
        self.origin_expected = {loc: oracle.origin(self.graph, *loc) for loc in self.origin_locations}
        # Keep the collector from walking the benchmark's own long-lived
        # objects (the oracle, the warm GTM) during timed operations.
        gc.collect()
        gc.freeze()

    def _sample_code_bytes(self, rng: random.Random) -> list[tuple[str, int]]:
        """Distinct (file, offset) pairs drawn uniformly from traced bytes."""
        runs: list[tuple[str, int, int]] = []  # merged spans, in file order
        for file_uri, start, end in sorted((n[1], n[2], n[3]) for n in self.graph.nodes
                                           if n[0] == "C"):
            if runs and runs[-1][0] == file_uri and start <= runs[-1][2]:
                runs[-1] = (file_uri, runs[-1][1], max(end, runs[-1][2]))
            else:
                runs.append((file_uri, start, end))
        total = sum(end - start for _, start, end in runs)
        out = []
        for index in rng.sample(range(total), min(SAMPLE, total)):
            for file_uri, start, end in runs:
                if index < end - start:
                    out.append((file_uri, start + index))
                    break
                index -= end - start
        return out

    def verify(self):
        """Checks made once per run, before timing."""
        self.check_code(self.ws_aug)
        self.check_code(self.ws_bare)
        _check(not oracle.strip_mismatches(self.ws_aug, self.ws_bare, self.code_uris),
               "augmented and bare code differ")
        gtm = self.gtm
        for anchor in self.impact_anchors:
            report = gtm.change_impact(self.g, gtm.ElemNode(anchor[1], anchor[2]))
            for code in [n for layer in report.layers for n in layer if isinstance(n, gtm.CodeNode)]:
                back = gtm.origin_track(self.g, anchor=code)
                _check(any(_key(n) == anchor for layer in back.layers for n in layer),
                       f"duality: {anchor} reaches {code} but not back")
        for file_uri, offset in self.origin_locations:
            report = gtm.origin_track(self.g, location=(file_uri, offset))
            for elem in [n for layer in report.layers for n in layer if isinstance(n, gtm.ElemNode)]:
                forward = gtm.change_impact(self.g, elem)
                _check(report.anchor in {n for layer in forward.layers for n in layer},
                       f"duality: {report.anchor} comes from {elem} but is not reached from it")
        if self.wl.hops:
            device = ("E", self.wl.pim_uri, "wsn[0].device[0]")
            found = oracle.impact(self.graph, device)
            report = gtm.change_impact(self.g, gtm.ElemNode(device[1], device[2]))
            _check(_layers(report) == found, "chain impact differs from the oracle")
            _check(len(found) == self.wl.hops + 2 and all(n[0] == "C" for n in found[-1]),
                   f"chain impact has {len(found)} layers, want {self.wl.hops + 2}")
        if self.name == "case-study":
            self.check_case_study()
        else:
            self.cli_impact(0, record=False)  # also fills the children's bytecode cache

    def check_case_study(self):
        """The README's impact and origin chains, through the CLI."""
        _, text = self.tl_process("impact", "Input.pim.model.json", "indirect[0].indirectdevice[0]")
        chain = ["Input.pim.model.json:indirect[0].indirectdevice[0]",
                 "out/MapContiki/contiki.model.json:networks[1].platforms[0]",
                 "out/GenContiki/Sink.c:9:1"]
        _check(text == f"{chain[0]}\n=> {chain[1]}\n==> {chain[2]}\n", f"impact chain: {text!r}")
        _, text = self.tl_process("origin", "out/GenContiki/Sink.c", "9:1")
        _check(text == f"{chain[2]}\n=> {chain[1]}\n==> {chain[0]}\n", f"origin chain: {text!r}")
        found = oracle.impact(self.graph, ("E", *chain[0].split(":")))
        _check(len(found) == 2 and found[0] == {("E", *chain[1].split(":"))}
               and [f"{n[1]}:{n[4]}:{n[5]}" for n in found[1]] == [chain[2]],
               "oracle disagrees with the README chain")

    def check_code(self, ws: Path):
        bad = oracle.code_mismatches(ws, self.expected, workloads.CODE_FILES)
        _check(not bad, f"code differs from the input-derived text: {bad}")

    def enact(self, augment: bool, metric: str):
        ws = self.ws_aug if augment else self.ws_bare
        args = self.enact_args(augment)
        gc.collect()
        written = written_bytes()
        started = clock()
        tracelink_cli(ws, *args)
        wall, cpu = since(started)
        written = written_bytes() - written
        self.check_code(ws)
        if augment:
            self.sample("written_kib", written / 1024)
            outputs = oracle.enactment_outputs(ws)
            _check(outputs == self.outputs, "enactment wrote another set of files")
            _check(oracle.digest(ws, outputs) == self.reference,
                   "augmented enactment is not deterministic")
            _check(not oracle.strip_mismatches(ws, self.ws_bare, self.code_uris),
                   "augmented and bare code differ")
        self.sample(metric, wall, "reference_s", cpu)

    def cli_impact(self, i: int, record: bool = True):
        anchor = self.impact_anchors[i % len(self.impact_anchors)]
        spans = self.work / "spans.json" if self.tracer and record else None
        elapsed, text = self.tl_process("impact", anchor[1], anchor[2], "--format", "json",
                                        spans=spans)
        got = oracle.report_from_json(json.loads(text))
        _check(got == (anchor, self.impact_expected[anchor]), f"CLI impact of {anchor}")
        if record:
            self._cli_done("impact_cli_ms", elapsed, spans)

    def cli_origin(self, i: int):
        file_uri, offset = self.origin_locations[i % len(self.origin_locations)]
        line, col = oracle.line_col((self.ws_aug / file_uri).read_bytes(), offset)
        spans = self.work / "spans.json" if self.tracer else None
        elapsed, text = self.tl_process("origin", file_uri, f"{line}:{col}", "--format", "json",
                                        spans=spans)
        got = oracle.report_from_json(json.loads(text))
        _check(got == self.origin_expected[(file_uri, offset)], f"CLI origin of {file_uri}@{offset}")
        self._cli_done("origin_cli_ms", elapsed, spans)

    def _cli_done(self, metric: str, elapsed: tuple[float, float], spans: Path | None):
        wall, cpu = elapsed
        self.sample(metric, wall * 1000, "reference_s", cpu * 1000)
        if spans is not None:
            doc = json.loads(spans.read_text(encoding="utf-8"))
            self.cli_import_ns.append(doc["import_ns"])
            self.cli_self_ns.append(doc["spans"].pop("cli.self")[0])
            _merge(self.round_spans, doc["spans"])

    def gauge_step(self):
        """One timed reference_step, the speed sample for a warm query. An
        untimed one first brings its data back into the caches, so that the
        sample does not depend on what the previous query left there."""
        reference_step()
        started = time.perf_counter_ns()
        reference_step()
        self.sample("reference_step_us", (time.perf_counter_ns() - started) / 1000)

    def warm_impact(self, anchor: tuple):
        node = self.gtm.ElemNode(anchor[1], anchor[2])
        self.gauge_step()
        started = time.perf_counter_ns()
        report = self.gtm.change_impact(self.g, node)
        elapsed = time.perf_counter_ns() - started
        _check(_layers(report) == self.impact_expected[anchor], f"impact of {anchor}")
        self.sample("impact_warm_us", elapsed / 1000, "reference_step_us")

    def warm_origin(self, location: tuple[str, int]):
        self.gauge_step()
        started = time.perf_counter_ns()
        report = self.gtm.origin_track(self.g, location=location)
        elapsed = time.perf_counter_ns() - started
        _check((_key(report.anchor), _layers(report)) == self.origin_expected[location],
               f"origin of {location}")
        self.sample("origin_warm_us", elapsed / 1000, "reference_step_us")

    # -- rounds -------------------------------------------------------------

    def round(self, i: int):
        """One round: a set-up every SETUP_EVERY rounds, a bare and an
        augmented enactment, one CLI impact and one CLI origin query, and
        every warm query anchor once."""
        if i % SETUP_EVERY[self.name] == 0:
            self.gauge()
            self.op(self.setup_again)
        tracer = self.tracer
        if tracer:
            self.op(self.enact, True, "untraced_enact_s")
            tracer.install()
        # reference_work runs no tracelink code, so the wrappers do not see it.
        for operation, *args in ((self.enact, False, "enact_bare_s"), (self.enact, True, "enact_s"),
                                 (self.cli_impact, i), (self.cli_origin, i)):
            self.gauge()
            self.op(operation, *args)
        self.gauge()
        # Untimed: refill the caches the CLI processes evicted, so the warm
        # queries start warm (their spans land in no round metric).
        self.gtm.change_impact(self.g, self.gtm.ElemNode(*self.impact_anchors[0][1:]))
        self.gtm.origin_track(self.g, location=self.origin_locations[0])
        if tracer:
            _merge(self.round_spans, tracer.take())
        for anchor in self.impact_anchors:
            self.op(self.warm_impact, anchor)
        for location in self.origin_locations:
            self.op(self.warm_origin, location)
        if tracer:
            _merge(self.warm_spans, tracer.take())
            tracer.uninstall()

    def run(self, seconds: float) -> dict:
        try:
            self.setup()
            self.op(self.verify)
            rounds = 0
            started = time.perf_counter()
            while rounds == 0 or time.perf_counter() - started < seconds:
                self.round(rounds)
                rounds += 1
                if rounds <= PEAK_ROUNDS:
                    self.peak_rss_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
            values = self.layer_metrics(rounds) if self.tracer else self.end_to_end()
            units = declared(self.repo, "per_layer" if self.tracer else "end_to_end")
            metrics = {name: {"value": values[name], "unit": unit} for name, unit in units.items()}
        finally:
            os.environ.pop("TRACELINK_WORKSPACE", None)
            shutil.rmtree(self.work, ignore_errors=True)
        return {"correct": self.failed == 0, "attempted": self.attempted,
                "failed": self.failed, "metrics": metrics}

    # -- metrics ------------------------------------------------------------

    def median(self, metric: str) -> float:
        return statistics.median(self.samples[metric])

    def end_to_end(self) -> dict[str, float]:
        """Per-run medians, of times scaled to the reference speed."""
        values = {k: statistics.median(v) for k, v in self.samples.items()}
        print(f"unscaled medians: {json.dumps(values)}", file=sys.stderr)
        values.update({k: statistics.median(v) for k, v in self.scaled.items()})
        values["peak_rss_mib"] = self.peak_rss_mib
        return values

    def layer_metrics(self, rounds: int) -> dict[str, float]:
        warm_queries = {"gtm.change_impact": len(self.impact_anchors) * rounds,
                        "gtm.origin_track": len(self.origin_locations) * rounds}
        out = {}
        for metric, (names, what) in LAYERS.items():
            if what == "us":
                total = sum(self.warm_spans.get(n, (0,))[0] for n in names)
                value = total / 1000 / warm_queries[names[0]]
            else:
                index = {"ms": 0, "calls": 1, "kib": 2}[what]
                total = sum(self.round_spans.get(n, (0, 0, 0))[index] for n in names)
                value = total / {"ms": 1e6, "calls": 1, "kib": 1024}[what] / rounds
            out[metric] = value
        traced, untraced = self.median("enact_s"), self.median("untraced_enact_s")
        out.update({
            "cli.import_ms": statistics.median(self.cli_import_ns) / 1e6,
            "cli.self_ms": statistics.mean(self.cli_self_ns) / 1e6,
            "gtm.nodes": len(self.g.nodes),
            "gtm.edges": len(self.g.edges),
            "trace.links": self.graph.links,
            "process.actions": self.actions,
            "model.elements": self.elements,
            "tracing.overhead_pct": (traced - untraced) / untraced * 100,
        })
        return out


def _merge(dst: dict[str, list[int]], src: dict[str, list[int]]):
    for name, values in src.items():
        entry = dst.setdefault(name, [0, 0, 0])
        for k, v in enumerate(values):
            entry[k] += v


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.GENERATORS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    repo = Path.cwd()
    for needed in ("BENCHMARK.json", "src/tracelink/cli.py", "fixtures/workspace/wsn-iot.proc.json"):
        if not (repo / needed).is_file():
            print(f"error: {needed} not found; run from the root of a tracelink checkout",
                  file=sys.stderr)
            return 2
    sys.path.insert(0, str(repo / "src"))
    result = Bench(repo, args.workload, args.seed, bool(args.trace)).run(args.seconds)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
