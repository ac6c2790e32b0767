"""Run one ``tracelink`` command with tracing, as its own process.

    python perfbench/clitrace.py SPANS_JSON ARG...

Times a fresh ``import tracelink.cli``, installs the tracer, runs the
console entry point with ARG... under a ``cli.self`` span, then writes the
import time and the per-span totals to SPANS_JSON. The command's output and
exit status are passed through unchanged.
"""

import json
import sys
import time


def main() -> int:
    out_path, args = sys.argv[1], sys.argv[2:]
    started = time.perf_counter_ns()
    import tracelink.cli

    import_ns = time.perf_counter_ns() - started
    from tracer import Tracer

    entry = tracelink.cli.main  # called unwrapped: its time is cli.self

    tracer = Tracer()
    tracer.install()
    sys.argv = ["tracelink", *args]
    code = 0
    with tracer.span("cli.self"):
        try:
            entry()
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else 1
    tracer.uninstall()
    sys.stdout.flush()
    with open(out_path, "w", encoding="utf-8") as fh:
        json.dump({"import_ns": import_ns, "spans": tracer.take()}, fh)
    return code


if __name__ == "__main__":
    sys.exit(main())
