"""Crash-safe writes: a failed save, persist or artifact write leaves the
previous file intact."""

import os

import pytest

from zerebro.atomic import staged, write_atomic
from zerebro.backrooms import BackroomsConfig, run_backrooms, write_transcript
from zerebro.chain import Ledger, to_nanos
from zerebro.collapse import GaussianModel, RecursionConfig, run_recursion, write_trajectory
from zerebro.embedding import EmbeddingConfig
from zerebro.errors import IoFailureError
from zerebro.generator import MarkovGenerator
from zerebro.memory import MemoryStore


def fail_fsync(_fd):
    raise OSError(5, "simulated I/O error at fsync")


def ledger_writer(grow: bool):
    ledger = Ledger()
    ledger.create_wallet(seed=1, endowment=to_nanos("10"))
    if grow:
        ledger.create_wallet(seed=2, endowment=to_nanos("5"))
    return ledger.save


def store_writer(grow: bool):
    store = MemoryStore(EmbeddingConfig(dimension=32))
    store.upsert(store.make_record("a", "the first lantern", source="human", timestamp=1))
    if grow:
        store.upsert(store.make_record("b", "a second lantern", source="agent", timestamp=2))
    return store.persist


def trajectory_writer(grow: bool):
    config = RecursionConfig("gaussian", 10, 3 if grow else 2, 0.0, 1, GaussianModel(0.0, 1.0))
    trajectory = run_recursion(config)
    return lambda path: write_trajectory(trajectory, path)


def transcript_writer(grow: bool):
    config = BackroomsConfig(turns=3 if grow else 2, seed=1)
    memory = MemoryStore(EmbeddingConfig(dimension=32))
    transcript = run_backrooms(config, memory=memory, generator=MarkovGenerator())
    return lambda path: write_transcript(transcript, path)


@pytest.mark.parametrize(
    "writer", [ledger_writer, store_writer, trajectory_writer, transcript_writer],
    ids=["ledger", "snapshot", "trajectory", "transcript"],
)
def test_failed_write_keeps_previous_file(tmp_path, monkeypatch, writer):
    path = tmp_path / "state"
    writer(grow=False)(path)
    previous = path.read_bytes()

    monkeypatch.setattr(os, "fsync", fail_fsync)
    with pytest.raises(IoFailureError, match=f"cannot write {path}: .*simulated I/O error"):
        writer(grow=True)(path)
    assert path.read_bytes() == previous
    assert sorted(p.name for p in tmp_path.iterdir()) == ["state"]

    monkeypatch.undo()
    writer(grow=True)(path)
    assert path.read_bytes() != previous


def test_rename_is_fsynced_in_its_directory(tmp_path, monkeypatch):
    """The rename reaches the disk too: after os.replace, the directory that
    holds the file is fsynced."""
    calls = []
    real_fsync, real_replace = os.fsync, os.replace

    def fsync(fd):
        calls.append(("fsync", os.path.samestat(os.fstat(fd), tmp_path.stat())))
        real_fsync(fd)

    def replace(src, dst):
        calls.append(("replace", None))
        real_replace(src, dst)

    monkeypatch.setattr(os, "fsync", fsync)
    monkeypatch.setattr(os, "replace", replace)
    write_atomic(tmp_path / "state", b"new bytes")
    # the temp file's own fsync, the rename, then the directory's
    assert calls == [("fsync", False), ("replace", None), ("fsync", True)]
    assert (tmp_path / "state").read_bytes() == b"new bytes"


def test_each_made_directory_is_fsynced_into_its_parent(tmp_path, monkeypatch):
    """A new directory's entry reaches the disk too: after the rename, the
    file's directory and the parent of each directory made for it are fsynced."""
    (tmp_path / "old").mkdir()
    synced = []
    real_fsync = os.fsync

    def fsync(fd):
        directories = [tmp_path, *(d for d in tmp_path.rglob("*") if d.is_dir())]
        synced.append(next((d for d in directories
                            if os.path.samestat(os.fstat(fd), d.stat())), "a file"))
        real_fsync(fd)

    monkeypatch.setattr(os, "fsync", fsync)
    write_atomic(tmp_path / "old" / "new" / "deeper" / "f", b"new bytes")
    old = tmp_path / "old"
    assert synced == ["a file", old / "new" / "deeper", old / "new", old]
    synced.clear()
    write_atomic(old / "new" / "g", b"into a directory that is there")
    assert synced == ["a file", old / "new"]


def test_text_is_written_as_utf8(tmp_path):
    write_atomic(tmp_path / "state", "a lantern \u2014 at dusk\n")
    assert (tmp_path / "state").read_bytes() == "a lantern \u2014 at dusk\n".encode("utf-8")


def test_missing_directories_are_made(tmp_path):
    write_atomic(tmp_path / "a" / "b" / "f", b"new bytes")
    assert (tmp_path / "a" / "b" / "f").read_bytes() == b"new bytes"
    assert sorted(p.name for p in (tmp_path / "a" / "b").iterdir()) == ["f"]


def test_discarded_commit_removes_the_directories_it_made(tmp_path):
    """A staged block that raises leaves none of the directories staged made
    for it, and keeps one that was there before."""
    with pytest.raises(RuntimeError, match="mid-write"):
        with staged(tmp_path / "a" / "b" / "c" / "f") as fh:
            fh.write(b"half a file")
            assert (tmp_path / "a" / "b" / "c").is_dir()
            raise RuntimeError("mid-write")
    assert list(tmp_path.iterdir()) == []


def test_discarded_commit_keeps_a_made_directory_another_commit_filled(tmp_path):
    with pytest.raises(RuntimeError):
        with staged(tmp_path / "a" / "b" / "f"):
            write_atomic(tmp_path / "a" / "kept", b"committed meanwhile")
            raise RuntimeError("mid-write")
    assert sorted(p.name for p in (tmp_path / "a").iterdir()) == ["kept"]
    assert sorted(p.name for p in tmp_path.iterdir()) == ["a"]
