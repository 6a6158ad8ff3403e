"""Crash-safe writes: a failed save or persist leaves the previous file intact."""

import os

import pytest

from zerebro.atomic import write_atomic
from zerebro.chain import Ledger, to_nanos
from zerebro.embedding import EmbeddingConfig
from zerebro.errors import IoFailureError
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


@pytest.mark.parametrize("writer", [ledger_writer, store_writer], ids=["ledger", "snapshot"])
def test_failed_write_keeps_previous_file(tmp_path, monkeypatch, writer):
    path = tmp_path / "state"
    writer(grow=False)(path)
    previous = path.read_bytes()

    monkeypatch.setattr(os, "fsync", fail_fsync)
    with pytest.raises(IoFailureError, match="simulated I/O error"):
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
