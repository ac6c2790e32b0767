"""Workspace layout, canonical file IO, and the enactment lock."""

from __future__ import annotations

import os
from collections.abc import Callable
from contextlib import contextmanager
from pathlib import Path

from .errors import TracelinkError

# The layout is fixed: discovery skips OUTPUT_DIR and TRACE_DIR, enactment
# writes generated artifacts under OUTPUT_DIR and trace models under TRACE_DIR.
OUTPUT_DIR = "out"
TRACE_DIR = "traces"
MEGAMODEL_FILE = "megamodel.json"
LOCK_FILE = ".tracelink.lock"


def read_text(root: Path, uri: str) -> str:
    return (root / uri).read_text(encoding="utf-8")


def load(root: Path, uri: str, parse: Callable[[str], object]):
    """``parse`` of the document at ``uri``, whose error names it: ``uri: message``."""
    try:
        return parse(read_text(root, uri))
    except TracelinkError as exc:
        exc.args = (f"{uri}: {exc}",)
        raise


def write_text(root: Path, uri: str, text: str):
    path = root / uri
    path.parent.mkdir(parents=True, exist_ok=True)
    # Overwrite in place, then cut to length: truncating to zero first frees
    # the file's blocks, and on ext4 also starts writeback at close.
    with open(os.open(path, os.O_WRONLY | os.O_CREAT, 0o666), "wb") as fh:
        fh.write(text.encode("utf-8"))
        fh.truncate()


@contextmanager
def workspace_lock(root: Path):
    """One enactment per workspace at a time."""
    lock_path = root / LOCK_FILE
    try:
        fd = os.open(lock_path, os.O_CREAT | os.O_EXCL | os.O_WRONLY)
    except FileExistsError:
        raise TracelinkError(
            f"another enactment holds '{lock_path}'; remove the file if it is stale") from None
    try:
        os.close(fd)
        yield
    finally:
        try:
            os.unlink(lock_path)
        except FileNotFoundError:
            pass
