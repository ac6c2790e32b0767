import os
import stat

import pytest

from tracelink.cli import cli
from tracelink.workspace import write_text

from conftest import PROCESS_URI, copy_workspace


@pytest.mark.parametrize("first, second", [
    ("a longer first text\n" * 40, "short\n"),
    ("short\n", "a longer second text\n" * 40),
    ("naïve ✓\n" * 10, "ascii\n"),
], ids=["shorter", "longer", "fewer-utf8-bytes"])
def test_a_rewrite_leaves_exactly_the_new_bytes(tmp_path, first, second):
    write_text(tmp_path, "f.txt", first)
    write_text(tmp_path, "f.txt", second)
    assert (tmp_path / "f.txt").read_bytes() == second.encode("utf-8")


def test_a_new_file_is_created_under_missing_directories(tmp_path):
    write_text(tmp_path, "out/a/b/f.c", "int x;\r\n")
    assert (tmp_path / "out/a/b/f.c").read_bytes() == b"int x;\r\n"


def test_a_rewrite_keeps_the_inode_and_its_hard_links(tmp_path):
    write_text(tmp_path, "f.txt", "first text\n")
    os.link(tmp_path / "f.txt", tmp_path / "link.txt")
    inode = (tmp_path / "f.txt").stat().st_ino
    write_text(tmp_path, "f.txt", "second\n")
    assert (tmp_path / "f.txt").stat().st_ino == inode
    assert (tmp_path / "link.txt").read_bytes() == b"second\n"


def test_a_symlinked_output_is_written_through_to_its_target(tmp_path):
    target = tmp_path / "elsewhere.txt"
    target.write_text("the old target text\n", encoding="utf-8")
    (tmp_path / "out").mkdir()
    (tmp_path / "out/f.txt").symlink_to(target)
    write_text(tmp_path, "out/f.txt", "new\n")
    assert (tmp_path / "out/f.txt").is_symlink()
    assert target.read_bytes() == b"new\n"


def test_a_new_file_gets_the_mode_open_gives_it(tmp_path):
    old = os.umask(0o027)
    try:
        write_text(tmp_path, "new.txt", "x")
        with open(tmp_path / "reference.txt", "w"):
            pass
    finally:
        os.umask(old)
    mode = stat.S_IMODE((tmp_path / "new.txt").stat().st_mode)
    assert mode == stat.S_IMODE((tmp_path / "reference.txt").stat().st_mode) == 0o640


def _run(ws, monkeypatch, *commands):
    monkeypatch.setenv("TRACELINK_WORKSPACE", str(ws))
    for args in commands:
        cli.main(args, standalone_mode=False)


def _written(ws) -> dict:
    files = [p for d in ("out", "traces") for p in (ws / d).rglob("*") if p.is_file()]
    return {p.relative_to(ws).as_posix(): p.read_bytes() for p in files + [ws / "megamodel.json"]}


def test_a_shorter_reenactment_writes_what_a_fresh_enactment_does(tmp_path, monkeypatch):
    discover = ["discover", "."]
    enact = ["enact", PROCESS_URI, "--bind", "pim=Input.pim.model.json"]

    def shorten(ws):
        pim = ws / "Input.pim.model.json"
        pim.write_text(pim.read_text(encoding="utf-8").replace('"source-a"', '"a"'), encoding="utf-8")

    ws = copy_workspace(tmp_path / "reenacted")
    _run(ws, monkeypatch, discover, enact)
    before = _written(ws)
    shorten(ws)
    _run(ws, monkeypatch, enact)
    fresh = copy_workspace(tmp_path / "fresh")
    shorten(fresh)
    _run(fresh, monkeypatch, discover, enact)
    after = _written(ws)
    assert after.keys() == before.keys()
    assert any(len(after[uri]) < len(before[uri]) for uri in after)
    assert after == _written(fresh)
