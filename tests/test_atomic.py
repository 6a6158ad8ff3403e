"""Crash-safe writes: a failed save or persist leaves the previous file intact."""

import os

import pytest

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

