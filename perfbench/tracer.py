"""In-memory span recorder that wraps tracelink's public functions.

``Tracer.install`` replaces every public function of every tracelink module
with a wrapper that records a span (name, start, end, parent), also under
the names other modules imported it by, so ``process.write_text`` and
``workspace.write_text`` land in one ``workspace.write_text`` span.
``uninstall`` puts the originals back. Self time is a span's duration minus
the durations of its direct children.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import pkgutil
import time
from contextlib import contextmanager


def tracelink_modules() -> list:
    import tracelink

    mods = [tracelink]
    for info in pkgutil.iter_modules(tracelink.__path__):
        mods.append(importlib.import_module(f"tracelink.{info.name}"))
    return mods


def _is_generator(fn) -> bool:
    return inspect.isgeneratorfunction(inspect.unwrap(fn))


class Tracer:
    def __init__(self):
        self.spans: list[list] = []  # [name, start_ns, end_ns, parent index or -1]
        self.written = 0  # UTF-8 bytes handed to workspace.write_text
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    @contextmanager
    def span(self, name: str):
        index = len(self.spans)
        self.spans.append([name, time.perf_counter_ns(), 0, self._stack[-1] if self._stack else -1])
        self._stack.append(index)
        try:
            yield
        finally:
            self._stack.pop()
            self.spans[index][2] = time.perf_counter_ns()

    def _wrap(self, name: str, fn):
        counts_bytes = name == "workspace.write_text"

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if counts_bytes:
                text = args[2] if len(args) > 2 else kwargs["text"]
                self.written += len(text.encode("utf-8"))
            with self.span(name):
                return fn(*args, **kwargs)

        return wrapper

    def install(self):
        mods = tracelink_modules()
        for mod in mods:
            short = mod.__name__.rsplit(".", 1)[-1]
            for attr, fn in list(vars(mod).items()):
                if (attr.startswith("_") or not inspect.isfunction(fn)
                        or fn.__module__ != mod.__name__ or _is_generator(fn)):
                    continue
                wrapper = self._wrap(f"{short}.{attr}", fn)
                for holder in mods:
                    for name, value in list(vars(holder).items()):
                        if value is fn:
                            setattr(holder, name, wrapper)
                            self._patched.append((holder, name, fn))

    def uninstall(self):
        for holder, name, fn in reversed(self._patched):
            setattr(holder, name, fn)
        self._patched.clear()

    def take(self) -> dict[str, list[int]]:
        """Self time (ns), call count and bytes written (workspace.write_text
        only) per span name; clears the record."""
        self_ns = [end - start for _, start, end, _ in self.spans]
        for _, start, end, parent in self.spans:
            if parent >= 0:
                self_ns[parent] -= end - start
        out: dict[str, list[int]] = {}
        for (name, *_), own in zip(self.spans, self_ns):
            entry = out.setdefault(name, [0, 0, 0])
            entry[0] += own
            entry[1] += 1
        if self.written:
            out.setdefault("workspace.write_text", [0, 0, 0])[2] += self.written
        self.spans.clear()
        self.written = 0
        return out
