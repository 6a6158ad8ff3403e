"""In-process RAG vectorstore: upsert, exact top-k retrieval, diversity
admission, and checksummed snapshot persistence.

Search is an exact cosine scan, not an approximate index; store sizes here
stay small enough that correctness and testability win. Ties are broken by
ascending record id so retrieval order is fully deterministic.

Layout: vectors live as float64 rows of fixed-size blocks,
np.empty((BLOCK_ROWS, D)), one row per record in insertion order; a full
block is followed by a new one, so no vector is ever copied as the store
grows. A record's norm is cached beside its row at insert, and the stored
record's `vector` is a read-only view of that row, so no vector is held
twice. An upsert of an existing id overwrites its row, keeping its place,
in a copy of the row's block, so vectors already handed out never change;
a replacement therefore costs O(BLOCK_ROWS), an insert O(1).

Embedding cache: make_record and retrieve embed through the store, which
maps each text to the vector its engine made, read-only so no caller can
change what a later call returns. Each text is embedded once, whether
stored then queried (backrooms), queried then stored (an agent
observation) or drawn again. Storing a record that holds that very
vector points the entry at the record's row view, so no vector is held
twice. Nothing is invalidated: the engine is a pure function of
the text; only a cache miss inserts, so a caller-made or snapshot-loaded
vector never enters; and no published row is written again, since a
replacement writes into a copy of its block. That copy takes the
entries viewing the block with it, and the overwritten row's old text
keeps a copy of its own vector, so the old block is freed.

Ranked cache: retrieve keeps each (query text, top_k)'s results with the
number of rows it scanned, and a repeated call scans only the rows
stored since, merging them with the kept results by (-similarity, id).
That is a total order, so the top k of the union is the top k of the
whole store; and a row's similarity does not depend on which rows are
scanned with it (below). Appends leave the cache as it is; a replacement
clears it, since it changes a scanned row and re-points records. It
holds at most top_k references per distinct (query text, top_k), beside
the embedding cache's one vector per text.

Exactness: retrieval and admission scan the filled rows of each block with
    np.clip(np.vecdot(q, rows) / (float(np.linalg.norm(q)) * norms), -1, 1)
np.vecdot(q, V) equals np.dot(q, v) row by row, bit for bit (numpy 2.4.6
with OpenBLAS 0.3.31: no mismatch in 83,200 pairs, D from 2 to 1024, both
engines, misaligned queries), and the norm, product, quotient and clamp
are those of embedding.cosine_similarity, so every similarity equals the
per-pair cosine_similarity(q, record.vector). tests/test_memory.py checks
this with exact ==. (V @ q, einsum and (V * q).sum(axis=1) sum in another
order and differ in the last bit on up to about 60% of pairs, depending on
D; np.linalg.norm(V, axis=1) differs from the per-vector norm too.) The
scan spells the query norm math.sqrt(q.dot(q)), which is np.linalg.norm's
own arithmetic for a 1-d float vector, and the clamp np.maximum then
np.minimum in place, which equals np.clip bit for bit (-0.0, +-inf and NaN
included), to skip those functions' Python wrappers. Only
filled rows are scanned: the tail of an np.empty block is uninitialised
memory.

Snapshot format (utf-8, "\\n" line endings):
    memstore v1 dim=<D> ngram_min=3 ngram_max=5 seed=<s> backend=<name>
    <one JSON record per line, vector as base64 little-endian float64;
     a field of another JSON type than _RECORD_FIELDS states is corrupt>
    checksum=<sha256 hex of every prior byte>
The n-gram range is embedding's fixed NGRAM_MIN..NGRAM_MAX; a snapshot
stating any other range is refused as corrupt.
"""

from __future__ import annotations

import base64
import hashlib
import json
import math
import threading
from dataclasses import dataclass, replace
from typing import Iterator

import numpy as np

from .atomic import write_atomic
from .diversity import embedding_dispersion
from .embedding import NGRAM_MAX, NGRAM_MIN, EmbeddingConfig, make_engine
from .errors import (
    BadConfigError,
    CorruptSnapshotError,
    DimensionMismatchError,
    EmptyTextError,
    IoFailureError,
    ZerebroError,
)
from .offsetlog import canonical_json

SOURCES = ("human", "agent", "platform-feedback")
DEFAULT_TOP_K = 5
SNAPSHOT_VERSION = "memstore v1"
# each snapshot record field's exact JSON type; a bool is not an int here
_RECORD_FIELDS = {"id": str, "text": str, "vector": str, "source": str, "timestamp": int,
                 "screened": bool}
BLOCK_ROWS = 512


def _read_only(vector: np.ndarray) -> np.ndarray:
    vector.flags.writeable = False
    return vector


@dataclass(frozen=True)
class MemoryRecord:
    """One embedded conversation fragment.

    `screened` marks records that entered through the diversity admission
    policy; raw upserts leave it False so policy bypasses stay visible.
    """

    id: str
    text: str
    vector: np.ndarray
    source: str
    timestamp: int
    screened: bool = False

    def __post_init__(self):
        if not self.id:
            raise ValueError("record id must be non-empty")
        if not self.text:
            raise EmptyTextError("record text must be non-empty")
        if self.source not in SOURCES:
            raise ValueError(f"unknown source {self.source!r}, expected one of {SOURCES}")


@dataclass(frozen=True)
class RetrievalResult:
    record: MemoryRecord
    similarity: float


@dataclass(frozen=True)
class MemoryStats:
    count: int
    source_histogram: dict[str, int]
    dispersion: float


@dataclass(frozen=True)
class AdmissionPolicy:
    """Near-duplicate screen: reject when max similarity exceeds the threshold."""

    max_similarity_threshold: float = 0.98


@dataclass(frozen=True)
class AdmissionDecision:
    admitted: bool
    reason: str | None = None
    max_similarity: float = 0.0


class MemoryStore:
    """Exact-search vector memory over one embedding engine.

    Concurrency: a single lock serializes writers and scans, so readers
    never observe a partially applied upsert.
    """

    def __init__(self, config: EmbeddingConfig = EmbeddingConfig(), backend: str = "hashed"):
        self._engine = make_engine(backend, config)
        self._records: list[MemoryRecord] = []  # row order, which is insertion order
        self._rows: dict[str, int] = {}
        self._blocks: list[np.ndarray] = []  # (BLOCK_ROWS, D) vectors
        self._norms: list[np.ndarray] = []  # (BLOCK_ROWS,) cached norms
        self._vectors: dict[str, np.ndarray] = {}  # text -> its engine's read-only vector
        # (query text, top_k) -> (rows scanned, their top_k results)
        self._ranked: dict[tuple[str, int], tuple[int, list[RetrievalResult]]] = {}
        self._lock = threading.Lock()

    @property
    def config(self) -> EmbeddingConfig:
        return self._engine.config

    @property
    def backend(self) -> str:
        return self._engine.backend

    @property
    def dimension(self) -> int:
        return self._engine.dimension

    def __len__(self) -> int:
        return len(self._records)

    def __contains__(self, record_id: str) -> bool:
        return record_id in self._rows

    def get(self, record_id: str) -> MemoryRecord | None:
        row = self._rows.get(record_id)
        return None if row is None else self._records[row]

    def records(self) -> Iterator[MemoryRecord]:
        """Records in insertion order."""
        return iter(list(self._records))

    def ids(self) -> list[str]:
        return list(self._rows)

    def _embed(self, text: str) -> np.ndarray:
        """The engine's read-only vector for text, embedded on its first use."""
        vector = self._vectors.get(text)
        if vector is None:  # no lock: setdefault keeps a concurrent miss's entry
            vector = self._vectors.setdefault(text, _read_only(self._engine.embed_text(text)))
        return vector

    # --- writes -------------------------------------------------------------

    def make_record(
        self,
        record_id: str,
        text: str,
        source: str = "human",
        timestamp: int = 0,
    ) -> MemoryRecord:
        """Embed text and wrap it as a record for this store."""
        return MemoryRecord(
            id=record_id,
            text=text,
            vector=self._embed(text),
            source=source,
            timestamp=timestamp,
        )

    def upsert(self, record: MemoryRecord) -> str:
        """Insert or replace by id. Count grows by at most one."""
        self._check_dimension(record, "record")
        with self._lock:
            self._put(record)
        return record.id

    def add_text(
        self, record_id: str, text: str, source: str = "human", timestamp: int = 0
    ) -> MemoryRecord:
        record = self.make_record(record_id, text, source, timestamp)
        self.upsert(record)
        return record

    def admit_with_diversity(
        self, candidate: MemoryRecord, policy: AdmissionPolicy = AdmissionPolicy()
    ) -> AdmissionDecision:
        """Upsert the candidate unless it is too similar to anything stored.

        A rejection reports the first record, in insertion order, whose
        similarity exceeds the threshold; an admission the highest
        similarity, or 0.0 when none is positive.
        """
        self._check_dimension(candidate, "candidate")
        tau = policy.max_similarity_threshold
        with self._lock:
            similarities = self._similarities(candidate.vector)
            # the running maximum starts at 0.0, so nothing at or below 0 rejects
            over = np.flatnonzero(similarities > max(tau, 0.0))
            if over.size:
                worst = float(similarities[over[0]])
                return AdmissionDecision(
                    admitted=False,
                    reason=f"max similarity {worst:.6f} exceeds threshold {tau}",
                    max_similarity=worst,
                )
            worst = max(0.0, float(similarities.max())) if similarities.size else 0.0
            self._put(replace(candidate, screened=True))
        return AdmissionDecision(admitted=True, max_similarity=worst)

    def _check_dimension(self, record: MemoryRecord, role: str) -> None:
        if record.vector.shape != (self.dimension,):
            raise DimensionMismatchError(
                f"{role} vector has shape {record.vector.shape}, store dimension is {self.dimension}"
            )

    def _put(self, record: MemoryRecord) -> None:
        """Store record in its row, a new one for a new id; lock held."""
        row = self._rows.get(record.id, len(self._records))
        replacing = row < len(self._records)
        block, offset = divmod(row, BLOCK_ROWS)
        if replacing:
            self._copy_block(block, row)
        elif block == len(self._blocks):
            self._blocks.append(np.empty((BLOCK_ROWS, self.dimension)))
            self._norms.append(np.empty(BLOCK_ROWS))
        self._blocks[block][offset] = record.vector
        view = _read_only(self._blocks[block][offset])
        self._norms[block][offset] = float(np.linalg.norm(view))
        stored = replace(record, vector=view)
        if self._vectors.get(record.text) is record.vector:
            self._vectors[record.text] = view
        if replacing:
            self._records[row] = stored
        else:  # published last, so unlocked readers never see a half-made row
            self._records.append(stored)
            self._rows[record.id] = row

    def _copy_block(self, block: int, overwritten: int) -> None:
        """Move a block to new memory before row `overwritten` of it is
        overwritten: vectors handed out are views of the old memory, and must
        not change. Cache entries viewing the block follow it, the overwritten
        row's as a copy of its own, so nothing the store holds keeps the old
        memory alive; the ranked cache is cleared."""
        start = block * BLOCK_ROWS
        filled = min(BLOCK_ROWS, len(self._records) - start)
        vectors = np.empty_like(self._blocks[block])
        vectors[:filled] = self._blocks[block][:filled]
        self._blocks[block] = vectors
        for row in range(start, start + filled):
            record = self._records[row]
            moved = _read_only(vectors[row - start])
            if self._vectors.get(record.text) is record.vector:
                self._vectors[record.text] = _read_only(moved.copy()) if row == overwritten else moved
            self._records[row] = replace(record, vector=moved)
        self._ranked.clear()

    # --- reads ----------------------------------------------------------------

    def retrieve(self, query_text: str, top_k: int = DEFAULT_TOP_K) -> list[RetrievalResult]:
        """Exact top-k by cosine similarity, ties broken by ascending id."""
        if not query_text or not query_text.strip():
            raise EmptyTextError("query text must be non-empty")
        if top_k < 1:
            raise ValueError(f"top_k must be positive, got {top_k}")
        query = self._embed(query_text)
        key = (query_text, top_k)
        with self._lock:
            # rows before start are ranked in kept (see the module docstring)
            start, kept = self._ranked.get(key, (0, []))
            similarities = self._similarities(query, start)
            rows = np.arange(len(similarities))
            if len(kept) == top_k:  # a new row enters only at or above the k-th kept
                rows = np.flatnonzero(similarities >= kept[-1].similarity)
            cut = len(rows) - top_k
            if cut > 0:
                # keep every row tied with the k-th largest: ids break the tie
                kth = np.partition(similarities[rows], cut)[cut]
                rows = rows[similarities[rows] >= kth]
            scored = kept + [
                RetrievalResult(record=self._records[row], similarity=similarity)
                for row, similarity in zip((rows + start).tolist(), similarities[rows].tolist())
            ]
            scored.sort(key=lambda rr: (-rr.similarity, rr.record.id))
            del scored[top_k:]
            self._ranked[key] = (len(self._records), scored)
        return list(scored)

    def _similarities(self, vector: np.ndarray, start: int = 0) -> np.ndarray:
        """cosine_similarity(vector, r.vector) for the records from row start
        on, in row order, bit for bit (see the module docstring); lock held."""
        query_norm = math.sqrt(vector.dot(vector))
        parts = []
        for block in range(start // BLOCK_ROWS, len(self._blocks)):
            first = max(start - block * BLOCK_ROWS, 0)
            filled = min(BLOCK_ROWS, len(self._records) - block * BLOCK_ROWS)
            denominators = query_norm * self._norms[block][first:filled]
            if not denominators.all():
                raise ValueError("cosine similarity is undefined for zero-norm vectors")
            parts.append(np.vecdot(vector, self._blocks[block][first:filled]) / denominators)
        if not parts:
            return np.empty(0)
        similarities = parts[0] if len(parts) == 1 else np.concatenate(parts)
        # the clamp to [-1, 1] (see the module docstring)
        np.maximum(similarities, -1.0, out=similarities)
        return np.minimum(similarities, 1.0, out=similarities)

    def stats(self) -> MemoryStats:
        with self._lock:
            snapshot = list(self._records)
        histogram: dict[str, int] = {}
        for r in snapshot:
            histogram[r.source] = histogram.get(r.source, 0) + 1
        if len(snapshot) < 2:
            dispersion = 0.0
        else:
            dispersion = embedding_dispersion([r.vector for r in snapshot])
        return MemoryStats(count=len(snapshot), source_histogram=histogram, dispersion=dispersion)

    # --- persistence ------------------------------------------------------------

    def persist(self, path) -> None:
        """Write the snapshot; vectors round-trip bit-exact."""
        cfg = self.config
        lines = [
            f"{SNAPSHOT_VERSION} dim={cfg.dimension} ngram_min={NGRAM_MIN} "
            f"ngram_max={NGRAM_MAX} seed={cfg.seed} backend={self.backend}"
        ]
        for r in self.records():
            payload = {
                "id": r.id,
                "text": r.text,
                "source": r.source,
                "timestamp": r.timestamp,
                "screened": r.screened,
                "vector": base64.b64encode(
                    np.ascontiguousarray(r.vector, dtype="<f8").tobytes()
                ).decode("ascii"),
            }
            lines.append(canonical_json(payload))
        body = ("\n".join(lines) + "\n").encode("utf-8")
        checksum = hashlib.sha256(body).hexdigest()
        try:
            write_atomic(path, body + f"checksum={checksum}\n".encode("ascii"))
        except OSError as exc:
            raise IoFailureError(f"cannot write snapshot {path}: {exc}") from exc

    @classmethod
    def load(cls, path) -> "MemoryStore":
        try:
            with open(path, "rb") as fh:
                raw = fh.read()
        except OSError as exc:
            raise IoFailureError(f"cannot read snapshot {path}: {exc}") from exc

        lines = raw.split(b"\n")
        if len(lines) < 2 or not lines[-2].startswith(b"checksum="):
            raise CorruptSnapshotError(f"{path}: missing checksum line")
        if lines[-1] != b"":
            raise CorruptSnapshotError(f"{path}: trailing bytes after checksum")
        body = b"\n".join(lines[:-2]) + b"\n"
        stated = lines[-2].split(b"=", 1)[1].decode("ascii", "replace")
        actual = hashlib.sha256(body).hexdigest()
        if stated != actual:
            raise CorruptSnapshotError(f"{path}: checksum mismatch ({stated} != {actual})")

        header = lines[0].decode("utf-8", "replace")
        if not header.startswith(SNAPSHOT_VERSION + " "):
            raise CorruptSnapshotError(f"{path}: bad header {header!r}")
        try:
            fields = dict(part.split("=", 1) for part in header.split(" ")[2:])
            ngrams = int(fields["ngram_min"]), int(fields["ngram_max"])
            config = EmbeddingConfig(dimension=int(fields["dim"]), seed=int(fields["seed"]))
            store = cls(config, backend=fields.get("backend", "hashed"))
        except (KeyError, ValueError, BadConfigError) as exc:
            raise CorruptSnapshotError(f"{path}: unreadable header {header!r}: {exc}") from exc
        if ngrams != (NGRAM_MIN, NGRAM_MAX):
            raise CorruptSnapshotError(
                f"{path}: n-gram range {list(ngrams)} is not [{NGRAM_MIN}, {NGRAM_MAX}]"
            )

        for lineno, line in enumerate(lines[1:-2], start=2):
            try:
                payload = json.loads(line.decode("utf-8"))
                for name, kind in _RECORD_FIELDS.items():
                    if type(payload[name]) is not kind:
                        raise CorruptSnapshotError(f"field {name!r} must be {kind.__name__}, "
                                                   f"got {payload[name]!r}")
                vector = np.frombuffer(base64.b64decode(payload["vector"]), dtype="<f8")
                record = MemoryRecord(
                    id=payload["id"],
                    text=payload["text"],
                    vector=vector,
                    source=payload["source"],
                    timestamp=payload["timestamp"],
                    screened=payload["screened"],
                )
                if record.id in store:
                    raise CorruptSnapshotError(f"duplicate record id {record.id!r}")
                store.upsert(record)
            except (ValueError, KeyError, TypeError, ZerebroError) as exc:
                raise CorruptSnapshotError(f"{path}: bad record at line {lineno}: {exc}") from exc
        return store
