"""Memory store: upsert/replace semantics, brute-force retrieval oracle,
diversity admission, snapshot persistence."""

import numpy as np
import pytest

from zerebro.embedding import EmbeddingConfig, cosine_similarity, embed
from zerebro.errors import (
    CorruptSnapshotError,
    DimensionMismatchError,
    EmptyTextError,
)
from zerebro.memory import (
    AdmissionPolicy,
    MemoryRecord,
    MemoryStore,
)

CFG = EmbeddingConfig(dimension=64)

WORDS = (
    "river lantern frost market map bread harbor train piano wind clock "
    "garden shell book lighthouse alley kite bridge chalk well knife orchard "
    "smoke ferry spider thunder moth fence tide owl canal mill winter compass"
).split()


def random_text(rng) -> str:
    n = int(rng.integers(3, 9))
    return " ".join(WORDS[int(rng.integers(len(WORDS)))] for _ in range(n))


def fresh_store(rng, size: int, used: set | None = None) -> MemoryStore:
    store = MemoryStore(CFG)
    seen = used if used is not None else set()
    i = 0
    while len(store) < size:
        text = f"{random_text(rng)} #{i}"
        i += 1
        if text in seen:
            continue
        seen.add(text)
        store.add_text(f"r{len(store):04d}", text, source="human", timestamp=len(store))
    return store


def brute_force_rank(store: MemoryStore, query: str):
    """Independent oracle: full sort of every record by cosine, ties by id."""
    q = embed(query, store.config)
    scored = [(cosine_similarity(q, r.vector), r.id) for r in store.records()]
    scored.sort(key=lambda pair: (-pair[0], pair[1]))
    return scored


class TestUpsert:
    def test_count_after_first_upsert(self):
        store = MemoryStore(CFG)
        store.add_text("r1", "one small record")
        assert store.stats().count == 1

    def test_replace_semantics(self):
        store = MemoryStore(CFG)
        store.add_text("r1", "first text")
        store.add_text("r1", "second text")
        assert len(store) == 1
        assert store.get("r1").text == "second text"

    def test_wrong_width_vector(self):
        store = MemoryStore(CFG)
        bad = MemoryRecord(
            id="bad", text="x", vector=np.ones(CFG.dimension + 1), source="human", timestamp=0
        )
        with pytest.raises(DimensionMismatchError):
            store.upsert(bad)

    def test_empty_text_rejected(self):
        with pytest.raises(EmptyTextError):
            MemoryRecord(id="r", text="", vector=np.ones(4), source="human", timestamp=0)

    def test_unknown_source_rejected(self):
        with pytest.raises(ValueError):
            MemoryRecord(id="r", text="x", vector=np.ones(4), source="robot", timestamp=0)


class TestRetrieve:
    def test_self_retrieval(self):
        store = MemoryStore(CFG)
        record = store.add_text("r1", "a very particular sentence")
        results = store.retrieve(record.text, 1)
        assert len(results) == 1
        assert results[0].record.id == "r1"
        assert results[0].similarity >= 1 - 1e-9

    def test_empty_store(self):
        assert MemoryStore(CFG).retrieve("anything", 3) == []

    def test_default_top_k_is_five(self):
        rng = np.random.default_rng(11)
        store = fresh_store(rng, 12)
        assert len(store.retrieve("river lantern")) == 5

    def test_empty_query_rejected(self):
        with pytest.raises(EmptyTextError):
            MemoryStore(CFG).retrieve("  ")

    def test_ordering_matches_brute_force_oracle(self):
        rng = np.random.default_rng(17)
        store = fresh_store(rng, 50)
        for _ in range(10):
            query = random_text(rng)
            got = store.retrieve(query, 50)
            expected = brute_force_rank(store, query)
            assert [(r.similarity, r.record.id) for r in got] == expected

    def test_truncates_to_count(self):
        rng = np.random.default_rng(3)
        store = fresh_store(rng, 4)
        assert len(store.retrieve("river", 100)) == 4


class TestAdmission:
    def test_empty_store_admits(self):
        store = MemoryStore(CFG)
        candidate = store.make_record("c1", "anything goes first")
        decision = store.admit_with_diversity(candidate, AdmissionPolicy(0.95))
        assert decision.admitted
        assert len(store) == 1
        assert store.get("c1").screened

    def test_duplicate_text_rejected(self):
        store = MemoryStore(CFG)
        store.add_text("r1", "identical words here")
        candidate = store.make_record("c1", "identical words here")
        decision = store.admit_with_diversity(candidate, AdmissionPolicy(0.95))
        assert not decision.admitted
        assert "exceeds threshold" in decision.reason
        assert len(store) == 1

    def test_disjoint_alphabet_admitted(self):
        store = MemoryStore(CFG)
        store.add_text("r1", "cdcd dcdc cddc")
        candidate = store.make_record("c1", "mnmn nmnm mnno")
        # oracle: max similarity by brute force over all stored records
        worst = max(
            cosine_similarity(candidate.vector, r.vector) for r in store.records()
        )
        assert worst <= 0.5
        decision = store.admit_with_diversity(candidate, AdmissionPolicy(0.5))
        assert decision.admitted

    def test_tau_screen_soundness(self):
        rng = np.random.default_rng(23)
        store = MemoryStore(CFG)
        tau = 0.9
        for i in range(60):
            candidate = store.make_record(f"c{i:03d}", f"{random_text(rng)} #{i}")
            store.admit_with_diversity(candidate, AdmissionPolicy(tau))
        store.add_text("raw-bypass", "river river river river")
        records = list(store.records())
        for i, a in enumerate(records):
            for b in records[i + 1 :]:
                sim = cosine_similarity(a.vector, b.vector)
                if sim > tau:
                    assert not (a.screened and b.screened)

    def test_count_never_decreases(self):
        rng = np.random.default_rng(29)
        store = MemoryStore(CFG)
        count = 0
        for i in range(40):
            candidate = store.make_record(f"c{i:03d}", random_text(rng))
            store.admit_with_diversity(candidate, AdmissionPolicy(0.8))
            assert len(store) >= count
            count = len(store)


class TestStats:
    def test_empty(self):
        stats = MemoryStore(CFG).stats()
        assert stats.count == 0
        assert stats.source_histogram == {}
        assert stats.dispersion == 0.0

    def test_histogram_counts(self):
        store = MemoryStore(CFG)
        for i in range(3):
            store.add_text(f"h{i}", f"human text {i}", source="human")
        for i in range(2):
            store.add_text(f"a{i}", f"agent text {i}", source="agent")
        stats = store.stats()
        assert stats.source_histogram == {"human": 3, "agent": 2}
        assert stats.count == sum(stats.source_histogram.values())

    def test_identical_vectors_zero_dispersion(self):
        store = MemoryStore(CFG)
        store.add_text("r1", "same sentence")
        vec = store.get("r1").vector
        store.upsert(
            MemoryRecord(id="r2", text="same sentence", vector=vec.copy(),
                         source="agent", timestamp=1)
        )
        assert store.stats().dispersion == pytest.approx(0.0, abs=1e-9)


class TestPersistence:
    def test_empty_round_trip(self, tmp_path):
        store = MemoryStore(CFG)
        path = tmp_path / "empty.snapshot"
        store.persist(path)
        loaded = MemoryStore.load(path)
        assert len(loaded) == 0
        assert loaded.config == CFG

    def test_hundred_record_round_trip_bit_exact(self, tmp_path):
        rng = np.random.default_rng(31)
        store = fresh_store(rng, 100)
        path = tmp_path / "store.snapshot"
        store.persist(path)
        loaded = MemoryStore.load(path)
        assert len(loaded) == 100
        assert loaded.stats() == store.stats()
        for record in store.records():
            twin = loaded.get(record.id)
            assert twin.text == record.text
            assert twin.source == record.source
            assert twin.timestamp == record.timestamp
            assert (twin.vector == record.vector).all()

    def test_truncated_file_detected(self, tmp_path):
        rng = np.random.default_rng(37)
        store = fresh_store(rng, 5)
        path = tmp_path / "store.snapshot"
        store.persist(path)
        raw = path.read_bytes()
        path.write_bytes(raw[: len(raw) // 2])
        with pytest.raises(CorruptSnapshotError):
            MemoryStore.load(path)

    def test_wrong_width_vector_line_is_corrupt(self, tmp_path):
        import base64 as b64
        import hashlib
        import json as js

        store = MemoryStore(CFG)
        store.add_text("r1", "short vector ahead")
        path = tmp_path / "store.snapshot"
        store.persist(path)
        lines = path.read_bytes().split(b"\n")
        payload = js.loads(lines[1])
        payload["vector"] = b64.b64encode(b"\x00" * 8).decode("ascii")
        lines[1] = js.dumps(payload, sort_keys=True).encode()
        body = b"\n".join(lines[:-2]) + b"\n"
        checksum = hashlib.sha256(body).hexdigest()
        path.write_bytes(body + f"checksum={checksum}\n".encode())
        with pytest.raises(CorruptSnapshotError):
            MemoryStore.load(path)

    def test_duplicate_id_is_corrupt(self, tmp_path):
        import hashlib

        store = MemoryStore(CFG)
        store.add_text("r1", "the first of two")
        path = tmp_path / "store.snapshot"
        store.persist(path)
        lines = path.read_bytes().split(b"\n")
        body = b"\n".join([lines[0], lines[1], lines[1]]) + b"\n"
        checksum = hashlib.sha256(body).hexdigest()
        path.write_bytes(body + f"checksum={checksum}\n".encode())
        with pytest.raises(CorruptSnapshotError, match="duplicate record id 'r1'"):
            MemoryStore.load(path)

    def test_flipped_byte_detected(self, tmp_path):
        rng = np.random.default_rng(41)
        store = fresh_store(rng, 5)
        path = tmp_path / "store.snapshot"
        store.persist(path)
        raw = bytearray(path.read_bytes())
        raw[len(raw) // 3] ^= 0x01
        path.write_bytes(bytes(raw))
        with pytest.raises(CorruptSnapshotError):
            MemoryStore.load(path)

    def test_screened_flag_survives(self, tmp_path):
        store = MemoryStore(CFG)
        candidate = store.make_record("c1", "first and only")
        store.admit_with_diversity(candidate)
        path = tmp_path / "store.snapshot"
        store.persist(path)
        assert MemoryStore.load(path).get("c1").screened

    def test_concurrent_readers_with_one_writer(self):
        import threading

        store = MemoryStore(CFG)
        store.add_text("seed", "initial record to query against")
        errors: list[Exception] = []

        def writer():
            for i in range(80):
                store.add_text(f"w{i:03d}", f"written record {i}")

        def reader():
            try:
                for _ in range(80):
                    results = store.retrieve("written record", 5)
                    for r in results:
                        assert r.record.text  # fully applied records only
            except Exception as exc:  # pragma: no cover - failure reporting
                errors.append(exc)

        threads = [threading.Thread(target=writer)] + [
            threading.Thread(target=reader) for _ in range(3)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert not errors
        assert len(store) == 81

    def test_remote_stub_backend_round_trips(self, tmp_path):
        store = MemoryStore(CFG, backend="remote-stub")
        store.add_text("r1", "served by the stub engine")
        results = store.retrieve("served by the stub engine", 1)
        assert results[0].similarity >= 1 - 1e-9
        path = tmp_path / "stub.snapshot"
        store.persist(path)
        loaded = MemoryStore.load(path)
        assert loaded.backend == "remote-stub"
        assert (loaded.get("r1").vector == store.get("r1").vector).all()
