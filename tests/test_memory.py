"""Memory store: upsert/replace semantics, brute-force retrieval oracle,
diversity admission, snapshot persistence."""

import base64
import math
import re
from collections import Counter

import numpy as np
import pytest

from zerebro.embedding import EmbeddingConfig, HashedEngine, cosine_similarity, embed
from zerebro.errors import (
    BadConfigError,
    CorruptSnapshotError,
    DimensionMismatchError,
    EmptyTextError,
)
from zerebro.memory import (
    BLOCK_ROWS,
    SOURCES,
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

    def test_wrong_width_vector_line_is_corrupt(self, tmp_path, rechecksum):
        store = MemoryStore(CFG)
        store.add_text("r1", "short vector ahead")
        path = tmp_path / "store.snapshot"
        store.persist(path)
        rechecksum(path, lambda rows: rows[1][3].update(vector="AAAAAAAAAAA="))  # one float64
        with pytest.raises(CorruptSnapshotError, match="offset 1: record vector has shape"):
            MemoryStore.load(path)

    @pytest.mark.parametrize("vector", [
        "AAAAAAAAAA==",  # seven bytes: no whole float64
        "AAAA!AAAAAA=",  # a byte outside the base64 alphabet
    ], ids=["ragged", "not-base64"])
    def test_undecodable_vector_is_corrupt(self, tmp_path, rechecksum, vector):
        store = MemoryStore(CFG)
        store.add_text("r1", "a vector that does not decode")
        path = tmp_path / "store.snapshot"
        store.persist(path)
        rechecksum(path, lambda rows: rows[1][3].update(vector=vector))
        with pytest.raises(CorruptSnapshotError, match="bad record line at offset 1: "):
            MemoryStore.load(path)

    @pytest.mark.parametrize("value", [math.nan, math.inf, 0.0], ids=["nan", "inf", "zero"])
    def test_vector_without_finite_nonzero_norm_is_corrupt(self, tmp_path, rechecksum, value):
        """Cosine ranks a NaN or inf vector as garbage and refuses a zero one."""
        store = MemoryStore(CFG)
        store.add_text("r0", "a sound vector first")
        store.add_text("r1", "a vector that cannot be ranked")
        path = tmp_path / "store.snapshot"
        store.persist(path)
        vector = np.zeros(CFG.dimension)
        vector[3] = value
        encoded = base64.b64encode(vector.astype("<f8").tobytes()).decode("ascii")
        rechecksum(path, lambda rows: rows[2][3].update(vector=encoded))
        with pytest.raises(CorruptSnapshotError, match="bad record line at offset 2: record "
                           "vector needs a finite, nonzero norm"):
            MemoryStore.load(path)

    def test_duplicate_id_is_corrupt(self, tmp_path, rechecksum):
        store = MemoryStore(CFG)
        store.add_text("r1", "the first of two")
        path = tmp_path / "store.snapshot"
        store.persist(path)
        rechecksum(path, lambda rows: rows.append(["2", *rows[1][1:]]))
        with pytest.raises(CorruptSnapshotError, match="offset 2: duplicate record id 'r1'"):
            MemoryStore.load(path)

    def test_other_ngram_range_is_corrupt(self, tmp_path, rechecksum):
        store = MemoryStore(CFG)
        store.add_text("r1", "a range the engine cannot embed")
        path = tmp_path / "store.snapshot"
        store.persist(path)
        rechecksum(path, lambda rows: rows[0][3].update(ngram_min=2))
        with pytest.raises(CorruptSnapshotError, match=r"'ngram_min': 2, 'seed': 0}\) are not "
                                                       r"\(0, {.*'ngram_min': 3, 'seed': 0}\)"):
            MemoryStore.load(path)

    @pytest.mark.parametrize("field, value, named", [
        ("seed", -1, "seed must fit in 64 unsigned bits"),
        ("dim", 1, "dimension must be >= 2, got 1"),
        ("dim", "64", "field 'dim' must be int, got '64'"),
        ("seed", True, "field 'seed' must be int, got True"),
        ("ngram_max", 5.0, "field 'ngram_max' must be int, got 5.0"),
        ("format", "memstore v3", "'format': 'memstore v3', 'ngram_max'"),
        ("format", None, "field 'format' must be str, got None"),
        ("backend", "hashed", "fields ['backend', 'dim', "),
    ], ids=["seed=0-seed=-1", "dim=64-dim=1", "dim=64-dim64", "seed-bool", "ngram_max-float",
            "format-v3", "format-null", "backend-field"])
    def test_header_config_refused_is_corrupt(self, tmp_path, rechecksum, field, value, named):
        """A re-checksummed config line stating a config the store refuses."""
        store = MemoryStore(CFG)
        store.add_text("r1", "a config the store refuses")
        path = tmp_path / "store.snapshot"
        store.persist(path)
        rechecksum(path, lambda rows: rows[0][3].update({field: value}))
        with pytest.raises(CorruptSnapshotError) as excinfo:
            MemoryStore.load(path)
        assert str(excinfo.value).startswith(f"{path}: bad config line at offset 0: ")
        assert named in str(excinfo.value)

    def test_config_timestamp_other_than_zero_is_corrupt(self, tmp_path, rechecksum):
        """persist writes 0 there, so another value would not write back as read."""
        store = MemoryStore(CFG)
        store.add_text("r1", "a config line with a timestamp")
        path = tmp_path / "store.snapshot"
        store.persist(path)
        rechecksum(path, lambda rows: rows[0].__setitem__(2, "5"))
        with pytest.raises(CorruptSnapshotError, match=r"offset 0: timestamp and body \(5, "):
            MemoryStore.load(path)

    @pytest.mark.parametrize("edit", [
        lambda rows: rows.append(["2", *rows[0][1:]]),
        lambda rows: rows.insert(1, rows.pop(0)),
    ], ids=["second-config", "config-after-record"])
    def test_config_line_only_at_offset_zero(self, tmp_path, rechecksum, edit):
        store = MemoryStore(CFG)
        store.add_text("r1", "the config line comes first")
        path = tmp_path / "store.snapshot"
        store.persist(path)

        def renumbered(rows):
            edit(rows)
            for offset, row in enumerate(rows):
                row[0] = str(offset)

        rechecksum(path, renumbered)
        with pytest.raises(CorruptSnapshotError, match="only it, is at offset 0"):
            MemoryStore.load(path)

    @pytest.mark.parametrize("edit, named", [
        (lambda row: row.__setitem__(1, "telemetry"), "unknown kind 'telemetry' at offset 1"),
        (lambda row: row.__setitem__(3, ["r1"]), "body at offset 1 is not a JSON object"),
    ], ids=["unknown-kind", "body-not-an-object"])
    def test_line_outside_the_snapshot_kinds_is_corrupt(self, tmp_path, rechecksum, edit,
                                                        named):
        store = MemoryStore(CFG)
        store.add_text("r1", "a line of another kind or shape")
        path = tmp_path / "store.snapshot"
        store.persist(path)
        rechecksum(path, lambda rows: edit(rows[1]))
        with pytest.raises(CorruptSnapshotError, match=re.escape(f"{path}: {named}")):
            MemoryStore.load(path)

    @pytest.mark.parametrize("column", ["+4", " 4", "4 ", "4_0", "04", "-0"])
    def test_non_canonical_timestamp_column_is_corrupt(self, tmp_path, rechecksum, column):
        """A timestamp column int() reads but that is not its integer's own str."""
        store = MemoryStore(CFG)
        store.add_text("r1", "a timestamp of the wrong shape", timestamp=4)
        path = tmp_path / "store.snapshot"
        store.persist(path)
        rechecksum(path, lambda rows: rows[1].__setitem__(2, column))
        with pytest.raises(CorruptSnapshotError,
                           match="line at offset 1 has timestamp ") as excinfo:
            MemoryStore.load(path)
        assert str(path) in str(excinfo.value)

    @pytest.mark.parametrize("cut", [1, 20, None], ids=["newline", "digest", "whole-line"])
    def test_cut_checksum_line_is_corrupt(self, tmp_path, cut):
        store = MemoryStore(CFG)
        store.add_text("r1", "a checksum line cut short")
        path = tmp_path / "store.snapshot"
        store.persist(path)
        raw = path.read_bytes()
        checksum_line = raw.splitlines(keepends=True)[-1]
        path.write_bytes(raw[:-(cut or len(checksum_line))])
        with pytest.raises(CorruptSnapshotError, match="checksum mismatch"):
            MemoryStore.load(path)

    def test_v1_snapshot_is_no_longer_read(self, tmp_path):
        """A snapshot in the retired memstore v1 format, with a valid checksum."""
        import hashlib

        body = (b"memstore v1 dim=64 ngram_min=3 ngram_max=5 seed=0 backend=hashed\n"
                b'{"id": "r1", "screened": false, "source": "human", "text": "t", '
                b'"timestamp": 0, "vector": ""}\n')
        path = tmp_path / "store.snapshot"
        path.write_bytes(body + b"checksum=" + hashlib.sha256(body).hexdigest().encode() + b"\n")
        with pytest.raises(CorruptSnapshotError, match="memstore v1 is a snapshot format no "
                                                       "longer read") as excinfo:
            MemoryStore.load(path)
        assert str(path) in str(excinfo.value)

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

    @pytest.mark.parametrize("field, value", [
        ("text", 5),
        ("id", 7),
        ("source", ["agent"]),
        ("vector", None),
        ("screened", "yes"),
        ("screened", 1),
        ("timestamp", 2.5),
        ("timestamp", True),
        ("timestamp", "4"),
    ])
    def test_wrong_typed_field_is_corrupt(self, tmp_path, rechecksum, field, value):
        """A re-checksummed record line holding a field of another JSON type;
        the timestamp is the line's column, written as that JSON value."""
        import json

        store = MemoryStore(CFG)
        store.add_text("r1", "a field of the wrong type", timestamp=4)
        path = tmp_path / "store.snapshot"
        store.persist(path)
        if field == "timestamp":
            rechecksum(path, lambda rows: rows[1].__setitem__(2, json.dumps(value)))
            named = "unparseable line at offset 1"
        else:
            rechecksum(path, lambda rows: rows[1][3].update({field: value}))
            named = f"bad record line at offset 1: field '{field}' must be "
        with pytest.raises(CorruptSnapshotError, match=named) as excinfo:
            MemoryStore.load(path)
        assert str(path) in str(excinfo.value)

    @pytest.mark.parametrize("edit", [
        lambda body: body.pop("screened"),
        lambda body: body.update(timestamp=4),  # the timestamp lives in its column
    ], ids=["missing", "extra"])
    def test_other_field_set_is_corrupt(self, tmp_path, rechecksum, edit):
        store = MemoryStore(CFG)
        store.add_text("r1", "fields missing or left over", timestamp=4)
        path = tmp_path / "store.snapshot"
        store.persist(path)
        rechecksum(path, lambda rows: edit(rows[1][3]))
        with pytest.raises(CorruptSnapshotError, match="bad record line at offset 1: fields "):
            MemoryStore.load(path)

    def test_load_then_persist_keeps_the_bytes(self, tmp_path):
        rng = np.random.default_rng(43)
        store = fresh_store(rng, 30)
        store.admit_with_diversity(store.make_record("c1", "screened on the way in"))
        store.add_text("a1", "an agent line", source="agent", timestamp=2**40)
        first, second = tmp_path / "first.snapshot", tmp_path / "second.snapshot"
        store.persist(first)
        MemoryStore.load(first).persist(second)
        assert second.read_bytes() == first.read_bytes()

    def test_only_the_hashed_backend(self):
        assert MemoryStore(CFG, backend="hashed").config == CFG
        with pytest.raises(BadConfigError, match="'remote-stub'"):
            MemoryStore(CFG, backend="remote-stub")


# --- the block store against the per-pair oracle --------------------------------------
# Every comparison below is exact (==): the store's vectorised scan must give
# the very floats that cosine_similarity gives record by record.

BIG = 600  # more rows than one block of the store holds (BLOCK_ROWS)
CFG16 = EmbeddingConfig(dimension=16)  # filled_store's default
# sha256 of the snapshot test_persist_bytes_unchanged writes, in the
# offsetlog format; its content, written back as a memstore v1 file, gives
# 9cdb2359..., the digest the dict-backed store this one replaced recorded
PERSIST_DIGEST = "b587cd502db3bb11f2bb4030822e7c1b3d2be1d4b14443bb2e4cfc1dfeec165d"


def oracle_admission(store: MemoryStore, vector, tau: float):
    """(admitted, max_similarity) as the per-record screen computes them:
    rejected at the first record, in insertion order, over the threshold."""
    worst = 0.0
    for record in store.records():
        s = cosine_similarity(vector, record.vector)
        if s > worst:
            worst = s
            if worst > tau:
                return False, worst
    return True, worst


def filled_store(size: int, dimension: int = 16, seed: int = 5):
    rng = np.random.default_rng(seed)
    store = MemoryStore(EmbeddingConfig(dimension=dimension))
    i = 0
    while len(store) < size:
        text = f"{random_text(rng)} #{i}"
        i += 1
        try:  # at dimension 2 some texts hash to the zero vector
            store.add_text(f"r{len(store):04d}", text, timestamp=len(store))
        except EmptyTextError:
            pass
    return store


def assert_matches_oracle(store: MemoryStore, rng, queries: int = 8, texts=()):
    """Every retrieve equals the per-record oracle, for `queries` random
    queries and then each of `texts`."""
    engine_store = MemoryStore(store.config)
    for query in [random_text(rng) for _ in range(queries)] + list(texts):
        try:
            q = engine_store.make_record("q", query).vector
        except EmptyTextError:
            continue
        expected = sorted(
            ((cosine_similarity(q, r.vector), r.id) for r in store.records()),
            key=lambda pair: (-pair[0], pair[1]),
        )
        for k in (1, 3, len(store)):
            got = store.retrieve(query, k)
            assert [(r.similarity, r.record.id) for r in got] == expected[:k]
            assert all(type(r.similarity) is float for r in got)


class TestBlockStoreOracle:
    @pytest.mark.parametrize("dimension", [2, 37, 257], ids="hashed-{}".format)
    def test_odd_dimensions_and_backends(self, dimension):
        store = filled_store(60, dimension)
        assert_matches_oracle(store, np.random.default_rng(dimension))

    def test_store_larger_than_one_block(self):
        assert BIG > BLOCK_ROWS
        store = filled_store(BIG)
        assert_matches_oracle(store, np.random.default_rng(1))
        assert store.ids() == [f"r{i:04d}" for i in range(BIG)]

    def test_upsert_replaces_in_place(self):
        store = filled_store(BIG)
        held = store.get("r0003")
        held_vector = held.vector
        before = held_vector.copy()
        store.add_text("r0003", "an entirely different sentence now")
        store.add_text("r0550", "and a second replacement past the first block")
        assert len(store) == BIG
        assert store.ids() == [f"r{i:04d}" for i in range(BIG)]
        assert store.get("r0003").text == "an entirely different sentence now"
        # a record or vector handed out never changes
        assert (held.vector == before).all() and (held_vector == before).all()
        assert store.retrieve("an entirely different sentence now", 1)[0].record.id == "r0003"
        assert_matches_oracle(store, np.random.default_rng(2))

    def test_top_k_cuts_through_a_tie(self):
        store = filled_store(30)
        for rid in ("d3", "d1", "d4", "d0", "d2"):
            store.add_text(rid, "the same words stored five times")
        expected = sorted(
            ((cosine_similarity(embed("the same words stored five times", CFG16), r.vector), r.id)
             for r in store.records()),
            key=lambda pair: (-pair[0], pair[1]),
        )
        for k in (1, 2, 4, 5, 6):
            got = store.retrieve("the same words stored five times", k)
            assert [(r.similarity, r.record.id) for r in got] == expected[:k]
        assert [r.record.id for r in store.retrieve("the same words stored five times", 3)] == [
            "d0", "d1", "d2"]

    def test_admission_reports_first_record_over_threshold(self):
        store = MemoryStore(EmbeddingConfig(dimension=3))
        for rid, vector in [("low", [0.0, 1.0, 0.0]), ("first", [0.95, 0.3122, 0.0]),
                            ("closer", [0.99, 0.141, 0.0])]:
            store.upsert(MemoryRecord(id=rid, text=rid, vector=np.array(vector),
                                      source="human", timestamp=0))
        candidate = MemoryRecord(id="c", text="c", vector=np.array([1.0, 0.0, 0.0]),
                                 source="agent", timestamp=1)
        admitted, first = oracle_admission(store, candidate.vector, 0.9)
        decision = store.admit_with_diversity(candidate, AdmissionPolicy(0.9))
        assert (decision.admitted, decision.max_similarity) == (admitted, first)
        assert not admitted
        assert first == cosine_similarity(candidate.vector, store.get("first").vector)
        assert first < cosine_similarity(candidate.vector, store.get("closer").vector)

    def test_admission_below_zero_reports_zero(self):
        store = MemoryStore(EmbeddingConfig(dimension=2))
        store.upsert(MemoryRecord(id="a", text="a", vector=np.array([-1.0, 0.0]),
                                  source="human", timestamp=0))
        candidate = MemoryRecord(id="c", text="c", vector=np.array([1.0, 0.5]),
                                 source="agent", timestamp=1)
        decision = store.admit_with_diversity(candidate, AdmissionPolicy(0.5))
        assert decision.admitted and decision.max_similarity == 0.0

    @pytest.mark.parametrize("tau", [-0.2, 0.0, 0.3, 0.6, 0.9, 0.98])
    def test_admission_matches_oracle(self, tau):
        rng = np.random.default_rng(int(tau * 100) + 50)
        store = filled_store(BIG, seed=9)
        for i in range(40):
            candidate = store.make_record(f"c{i:02d}", f"{random_text(rng)} #c{i}")
            expected = oracle_admission(store, candidate.vector, tau)
            decision = store.admit_with_diversity(candidate, AdmissionPolicy(tau))
            assert (decision.admitted, decision.max_similarity) == expected
            assert (candidate.id in store) == decision.admitted

    def test_reloaded_snapshot(self, tmp_path):
        store = filled_store(BIG, dimension=37)
        path = tmp_path / "store.snapshot"
        store.persist(path)
        loaded = MemoryStore.load(path)
        assert loaded.ids() == store.ids()
        assert_matches_oracle(loaded, np.random.default_rng(4))
        for query in ("river lantern", "owl canal mill"):
            assert [(r.similarity, r.record.id) for r in loaded.retrieve(query, 7)] == [
                (r.similarity, r.record.id) for r in store.retrieve(query, 7)]

    def test_stored_vectors_are_read_only(self):
        store = filled_store(3)
        candidate = store.make_record("c", "admitted through the screen")
        store.admit_with_diversity(candidate, AdmissionPolicy(0.999))
        for record in store.records():
            assert not record.vector.flags.writeable
            with pytest.raises(ValueError):
                record.vector[0] = 0.0

    def test_memo_vector_is_read_only(self):
        store = MemoryStore(CFG)
        record = store.make_record("a", "a lantern at the ferry")
        assert not record.vector.flags.writeable
        with pytest.raises(ValueError):
            record.vector[0] = 0.0
        assert not store.add_text("b", "the owl over the mill").vector.flags.writeable

    def test_a_text_returns_the_same_vector_every_time(self):
        store = MemoryStore(CFG)
        record = store.make_record("a", "a lantern at the ferry")
        assert store.make_record("b", "a lantern at the ferry").vector is record.vector
        other = store.make_record("c", "the owl over the mill").vector
        again = store.make_record("d", "a lantern at the ferry").vector
        assert again is record.vector
        assert np.array_equal(again, record.vector) and not np.array_equal(again, other)

    def test_stored_vector_unchanged_by_later_embeds(self):
        store = MemoryStore(CFG)
        stored = store.add_text("a", "a lantern at the ferry")
        held = store.get("a").vector
        before = held.copy()
        store.retrieve("a lantern at the ferry")
        for i in range(5):
            store.add_text(f"x{i}", f"the owl over the mill {i}")
            store.retrieve(f"chalk on the bridge {i}")
        assert np.array_equal(store.get("a").vector, before)
        assert np.array_equal(held, before) and np.array_equal(stored.vector, before)
        assert np.array_equal(before, embed("a lantern at the ferry", CFG))

    def test_unstorable_vector_leaves_store_unchanged(self):
        store = filled_store(BLOCK_ROWS)  # the next row would open a new block
        bad = MemoryRecord(id="bad", text="bad", vector=np.array(["x"] * 16),
                           source="human", timestamp=0)
        with pytest.raises(ValueError):
            store.upsert(bad)
        assert "bad" not in store and len(store) == BLOCK_ROWS
        store.add_text("next", "the record after the failed one")
        assert store.ids()[-1] == "next"
        assert_matches_oracle(store, np.random.default_rng(6), queries=3)

    def test_zero_vector_is_undefined(self):
        store = MemoryStore(EmbeddingConfig(dimension=4))
        store.upsert(MemoryRecord(id="z", text="z", vector=np.zeros(4),
                                  source="human", timestamp=0))
        with pytest.raises(ValueError, match="zero-norm"):
            store.retrieve("anything at all", 1)

    def test_persist_bytes_unchanged(self, tmp_path):
        """Snapshot bytes hold what the dict-backed store's held."""
        import hashlib

        rng = np.random.default_rng(77)
        store = MemoryStore(EmbeddingConfig(dimension=37, seed=3))
        for i in range(BIG):
            store.add_text(f"r{i:04d}", f"{random_text(rng)} #{i}", source=SOURCES[i % 3],
                           timestamp=i)
        store.add_text("r0007", "replaced in place", source="agent", timestamp=BIG)
        for i in range(5):
            store.admit_with_diversity(store.make_record(f"c{i}", random_text(rng)))
        path = tmp_path / "hashed.snapshot"
        store.persist(path)
        assert hashlib.sha256(path.read_bytes()).hexdigest() == PERSIST_DIGEST


@pytest.fixture
def embedded(monkeypatch):
    """How many times the hashed engine has embedded each text."""
    counts = Counter()
    original = HashedEngine.embed_text

    def counting(self, text):
        counts[text] += 1
        return original(self, text)

    monkeypatch.setattr(HashedEngine, "embed_text", counting)
    return counts


def made(record_id: str, text: str, config=CFG16) -> MemoryRecord:
    """A record whose vector its caller made: the negated engine vector."""
    return MemoryRecord(id=record_id, text=text, vector=-embed(text, config),
                        source="human", timestamp=0)


def assert_ranked_by_engine(store: MemoryStore, query: str, k: int = 5):
    """retrieve(query) scores the records with the engine's vector for query."""
    got = store.retrieve(query, k)
    assert [(r.similarity, r.record.id) for r in got] == brute_force_rank(store, query)[:k]
    return got


class TestScanArithmetic:
    """The scan's spellings of the query norm and the clamp equal the numpy
    functions cosine_similarity uses, bit for bit."""

    def test_clamp_equals_clip(self):
        one_up, one_down = np.nextafter(1.0, 2.0), np.nextafter(1.0, 0.0)
        values = np.array([
            -0.0, 0.0, 1.0, -1.0, one_up, -one_up, one_down, -one_down, 2.0, -2.0,
            np.inf, -np.inf, np.nan, -np.nan, 5e-324, -5e-324, 1e308, -1e308,
        ])
        values = np.concatenate([values, np.random.default_rng(0).uniform(-1.5, 1.5, 200)])
        clamped = values.copy()
        np.maximum(clamped, -1.0, out=clamped)
        np.minimum(clamped, 1.0, out=clamped)
        assert clamped.tobytes() == np.clip(values, -1.0, 1.0).tobytes()

    @pytest.mark.parametrize("dimension", [1, 2, 16, 37, 256, 768, 1024])
    def test_query_norm_equals_linalg_norm(self, dimension):
        rng = np.random.default_rng(dimension)
        for scale in (1e-200, 1e-3, 1.0, 1e150):
            vector = rng.standard_normal(dimension) * scale
            assert math.sqrt(vector.dot(vector)) == float(np.linalg.norm(vector))


class TestEmbeddingCache:
    """Each text is embedded once, by the store's own engine; no other
    vector ever stands in for the engine's."""

    LANTERN = "a lantern at the ferry"

    def test_text_stored_then_queried_is_embedded_once(self, embedded):
        store = filled_store(40)
        store.add_text("held", self.LANTERN)
        store.upsert(made("made", self.LANTERN))
        for i in range(6):
            assert_ranked_by_engine(store, self.LANTERN)
            store.retrieve(f"chalk on the bridge {i}")  # another text embedded between
        assert embedded[self.LANTERN] == 1

    def test_caller_made_vector_is_never_a_query_vector(self, embedded):
        store = filled_store(40)
        store.upsert(made("made", self.LANTERN))
        owl = "the owl over the mill"
        store.admit_with_diversity(made("screened", owl), AdmissionPolicy(1.0))
        for query in (self.LANTERN, owl, self.LANTERN, owl):
            assert_ranked_by_engine(store, query)
        assert (embedded[self.LANTERN], embedded[owl]) == (1, 1)

    def test_replaced_row_text_is_not_embedded_again(self, embedded):
        store = filled_store(40)
        first, second, third = self.LANTERN, "the owl over the mill", "smoke on the canal"
        store.add_text("a", first)
        store.add_text("a", second)  # an engine vector replaces one
        assert_ranked_by_engine(store, first)
        assert_ranked_by_engine(store, second)
        assert (embedded[first], embedded[second]) == (1, 1)
        store.upsert(made("a", third))  # a caller-made vector replaces one
        assert_ranked_by_engine(store, third)
        assert_ranked_by_engine(store, second)
        assert (embedded[second], embedded[third]) == (1, 1)

    def test_stored_text_vector_is_held_once(self):
        store = filled_store(40)
        store.add_text("held", self.LANTERN)
        assert store.make_record("other", self.LANTERN).vector is store.get("held").vector

    def test_backrooms_embeds_each_distinct_text_once(self, embedded):
        from zerebro.backrooms import BackroomsConfig, run_backrooms
        from zerebro.generator import MarkovGenerator

        config = BackroomsConfig(turns=80, seed=0, injection_rate=0.5)
        turns = run_backrooms(config, memory=MemoryStore(CFG16),
                              generator=MarkovGenerator()).turns
        injected = Counter(t.observation for t in turns if t.injected)
        assert max(injected.values()) > 1  # an unstored sentence is queried again
        assert set(embedded) == set(injected) | {t.generated for t in turns}
        assert set(embedded.values()) == {1}

    def test_reloaded_snapshot_texts_are_embedded_afresh(self, embedded, tmp_path):
        store = MemoryStore(CFG16)
        texts = [f"the {word} at dusk" for word in WORDS[:12]]
        for i, text in enumerate(texts):
            store.add_text(f"r{i:02d}", text)
        store.persist(tmp_path / "store.snapshot")
        loaded = MemoryStore.load(tmp_path / "store.snapshot")
        for text in texts:
            assert_ranked_by_engine(loaded, text)
        # once for the store that wrote the snapshot, once for the loaded one
        assert all(embedded[text] == 2 for text in texts)

    def test_replacements_free_the_old_block(self):
        import tracemalloc

        store = MemoryStore(EmbeddingConfig(dimension=768))
        for i in range(100):
            store.add_text(f"r{i:03d}", f"the {WORDS[i % len(WORDS)]} at dusk {i}")
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            for i in range(20):  # each copies the 512 x 768 block (3 MB)
                store.add_text(f"r{i:03d}", f"record {i} written again")
            held = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        assert held < 8 * 2**20
        # the overwritten rows' old texts keep their own vectors
        for i in range(20):
            text = f"the {WORDS[i % len(WORDS)]} at dusk {i}"
            assert store.make_record("q", text).vector.base is None
            assert_ranked_by_engine(store, text)

    def test_oracle_with_repeated_texts(self):
        rng = np.random.default_rng(9)
        store = filled_store(BLOCK_ROWS + 20)
        texts = [random_text(rng) for _ in range(12)]
        for i in range(60):
            text = texts[i % len(texts)]
            if i % 5 == 4:
                store.upsert(made(f"m{i:02d}", text))
            elif i % 7 == 6:  # replace a first-block row, so its block is copied
                store.add_text(f"r{i:04d}", text)
            else:
                store.add_text(f"t{i:02d}", text)
        assert_matches_oracle(store, rng, queries=2, texts=texts)


@pytest.fixture
def scans(monkeypatch):
    """(start, len(store)) of every _similarities call."""
    calls = []
    original = MemoryStore._similarities

    def spying(self, vector, start=0):
        calls.append((start, len(self)))
        return original(self, vector, start)

    monkeypatch.setattr(MemoryStore, "_similarities", spying)
    return calls


class TestRankedCache:
    """A repeated retrieve scans only the rows stored since the last call with
    the same query and top_k, and returns what a full scan returns."""

    def test_interleaved_writes_match_the_oracle(self):
        rng = np.random.default_rng(12)
        store = filled_store(BLOCK_ROWS - 25)
        queries = [random_text(rng) for _ in range(2)] + ["the same words stored twice"]
        for step in range(36):
            text = random_text(rng)
            if step % 4 == 0:
                store.add_text(f"n{step:02d}", text)
            elif step % 4 == 1:  # a replacement, in the first block
                store.add_text(f"r{int(rng.integers(BLOCK_ROWS - 25)):04d}", text)
            elif step % 4 == 2:
                candidate = store.make_record(f"c{step:02d}", text)
                store.admit_with_diversity(candidate, AdmissionPolicy(0.9))
            else:  # ties with the kept results under a smaller id: it ranks first
                store.add_text(f"d{35 - step:02d}", queries[2])
            for query in queries:
                expected = brute_force_rank(store, query)
                for k in (1, 3, 5, len(store)):
                    got = store.retrieve(query, k)
                    assert [(r.similarity, r.record.id) for r in got] == expected[:k]
                # a result's record is whole: its vector is its own text's
                assert all((r.record.vector == embed(r.record.text, CFG16)).all()
                           for r in got[:5])
        assert len(store) > BLOCK_ROWS
        # replacements keep each id's row, and every row holds its text's vector
        assert store.ids()[: BLOCK_ROWS - 25] == [f"r{i:04d}" for i in range(BLOCK_ROWS - 25)]
        for record in store.records():
            assert (record.vector == embed(record.text, CFG16)).all()

    def test_returned_list_is_the_callers(self):
        store = filled_store(40)
        query = "lantern river ferry"
        got = store.retrieve(query, 3)
        expected = [(r.similarity, r.record.id) for r in got]
        got.clear()
        assert [(r.similarity, r.record.id) for r in store.retrieve(query, 3)] == expected
        store.retrieve(query, 3).pop()
        store.add_text("late", "chalk on the bridge")
        assert_ranked_by_engine(store, query, 3)

    def test_repeated_query_scans_only_new_rows(self, scans):
        store = filled_store(BLOCK_ROWS - 2)
        query = "owl over the canal mill"
        assert_ranked_by_engine(store, query, 5)
        for i in range(3):  # across the block boundary
            store.add_text(f"x{i}", f"owl canal mill {i}")
        assert_ranked_by_engine(store, query, 5)
        assert_ranked_by_engine(store, query, 5)
        assert_ranked_by_engine(store, query, 3)  # another top_k is another entry
        store.admit_with_diversity(store.make_record("c", "owl canal"), AdmissionPolicy(1.0))
        assert_ranked_by_engine(store, query, 5)
        store.add_text("r0001", "owl over the canal mill")  # a replacement clears
        assert_ranked_by_engine(store, query, 5)
        n = BLOCK_ROWS - 2
        assert scans == [(0, n), (n, n + 3), (n + 3, n + 3), (0, n + 3), (0, n + 3),
                         (n + 3, n + 4), (0, n + 4)]
