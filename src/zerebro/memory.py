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

Exactness: retrieval and admission scan the filled rows of each block with
    np.clip(np.vecdot(q, rows) / (float(np.linalg.norm(q)) * norms), -1, 1)
np.vecdot(q, V) equals np.dot(q, v) row by row, bit for bit (numpy 2.4.6
with OpenBLAS 0.3.31: no mismatch in 83,200 pairs, D from 2 to 1024, both
engines, misaligned queries), and the norm, product, quotient and clamp
are those of embedding.cosine_similarity, so every similarity equals the
per-pair cosine_similarity(q, record.vector). tests/test_memory.py checks
this with exact ==. (V @ q, einsum and (V * q).sum(axis=1) sum in another
order and differ in the last bit on up to about 60% of pairs, depending on
D; np.linalg.norm(V, axis=1) differs from the per-vector norm too.) Only
filled rows are scanned: the tail of an np.empty block is uninitialised
memory.

Snapshot format (utf-8, "\\n" line endings):
    memstore v1 dim=<D> ngram_min=<a> ngram_max=<b> seed=<s> backend=<name>
    <one JSON record per line, vector as base64 little-endian float64>
    checksum=<sha256 hex of every prior byte>
"""

from __future__ import annotations

import base64
import hashlib
import json
import threading
from dataclasses import dataclass, replace
from typing import Iterator

import numpy as np

from .atomic import write_atomic
from .embedding import EmbeddingConfig, make_engine
from .errors import (
    CorruptSnapshotError,
    DimensionMismatchError,
    EmptyTextError,
    IoFailureError,
    ZerebroError,
)

SOURCES = ("human", "agent", "platform-feedback")
DEFAULT_TOP_K = 5
SNAPSHOT_VERSION = "memstore v1"
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

    # --- writes -------------------------------------------------------------

    def make_record(
        self,
        record_id: str,
        text: str,
        source: str = "human",
        timestamp: int = 0,
        screened: bool = False,
    ) -> MemoryRecord:
        """Embed text and wrap it as a record for this store."""
        return MemoryRecord(
            id=record_id,
            text=text,
            vector=self._engine.embed_text(text),
            source=source,
            timestamp=timestamp,
            screened=screened,
        )

    def upsert(self, record: MemoryRecord) -> str:
        """Insert or replace by id. Count grows by at most one."""
        if record.vector.shape != (self.dimension,):
            raise DimensionMismatchError(
                f"record vector has shape {record.vector.shape}, store dimension is {self.dimension}"
            )
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
        if candidate.vector.shape != (self.dimension,):
            raise DimensionMismatchError(
                f"candidate vector has shape {candidate.vector.shape}, "
                f"store dimension is {self.dimension}"
            )
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

    def _put(self, record: MemoryRecord) -> None:
        """Store record in its row, a new one for a new id; lock held."""
        row = self._rows.get(record.id, len(self._records))
        replacing = row < len(self._records)
        block, offset = divmod(row, BLOCK_ROWS)
        if replacing:
            self._copy_block(block)
        elif block == len(self._blocks):
            self._blocks.append(np.empty((BLOCK_ROWS, self.dimension)))
            self._norms.append(np.empty(BLOCK_ROWS))
        self._blocks[block][offset] = record.vector
        view = _read_only(self._blocks[block][offset])
        self._norms[block][offset] = float(np.linalg.norm(view))
        stored = replace(record, vector=view)
        if replacing:
            self._records[row] = stored
        else:  # published last, so unlocked readers never see a half-made row
            self._records.append(stored)
            self._rows[record.id] = row

    def _copy_block(self, block: int) -> None:
        """Move a block to new memory before one of its rows is overwritten:
        vectors handed out are views of the old memory, and must not change."""
        start = block * BLOCK_ROWS
        filled = min(BLOCK_ROWS, len(self._records) - start)
        vectors = np.empty_like(self._blocks[block])
        vectors[:filled] = self._blocks[block][:filled]
        self._blocks[block] = vectors
        for row in range(start, start + filled):
            self._records[row] = replace(
                self._records[row], vector=_read_only(vectors[row - start])
            )

    # --- reads ----------------------------------------------------------------

    def retrieve(self, query_text: str, top_k: int = DEFAULT_TOP_K) -> list[RetrievalResult]:
        """Exact top-k by cosine similarity, ties broken by ascending id."""
        if not query_text or not query_text.strip():
            raise EmptyTextError("query text must be non-empty")
        if top_k < 1:
            raise ValueError(f"top_k must be positive, got {top_k}")
        query = self._engine.embed_text(query_text)
        with self._lock:
            similarities = self._similarities(query)
            rows = np.arange(len(similarities))
            cut = len(similarities) - top_k
            if cut > 0:
                # keep every row tied with the k-th largest: ids break the tie
                kth = np.partition(similarities, cut)[cut]
                rows = np.flatnonzero(similarities >= kth)
            scored = [
                RetrievalResult(record=self._records[row], similarity=similarity)
                for row, similarity in zip(rows.tolist(), similarities[rows].tolist())
            ]
        scored.sort(key=lambda rr: (-rr.similarity, rr.record.id))
        return scored[:top_k]

    def _similarities(self, vector: np.ndarray) -> np.ndarray:
        """cosine_similarity(vector, r.vector) for every record, in row
        order, bit for bit (see the module docstring); lock held."""
        query_norm = float(np.linalg.norm(vector))
        parts = []
        for block, (vectors, norms) in enumerate(zip(self._blocks, self._norms)):
            filled = min(BLOCK_ROWS, len(self._records) - block * BLOCK_ROWS)
            denominators = query_norm * norms[:filled]
            if not denominators.all():
                raise ValueError("cosine similarity is undefined for zero-norm vectors")
            parts.append(np.vecdot(vector, vectors[:filled]) / denominators)
        return np.clip(np.concatenate(parts), -1.0, 1.0) if parts else np.empty(0)

    def stats(self) -> MemoryStats:
        with self._lock:
            snapshot = list(self._records)
        histogram: dict[str, int] = {}
        for r in snapshot:
            histogram[r.source] = histogram.get(r.source, 0) + 1
        if len(snapshot) < 2:
            dispersion = 0.0
        else:
            from .diversity import embedding_dispersion

            dispersion = embedding_dispersion([r.vector for r in snapshot])
        return MemoryStats(count=len(snapshot), source_histogram=histogram, dispersion=dispersion)

    # --- persistence ------------------------------------------------------------

    def persist(self, path) -> None:
        """Write the snapshot; vectors round-trip bit-exact."""
        cfg = self.config
        lines = [
            f"{SNAPSHOT_VERSION} dim={cfg.dimension} ngram_min={cfg.ngram_min} "
            f"ngram_max={cfg.ngram_max} seed={cfg.seed} backend={self.backend}"
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
            lines.append(json.dumps(payload, sort_keys=True, ensure_ascii=True))
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
        fields = dict(part.split("=", 1) for part in header.split(" ")[2:])
        try:
            config = EmbeddingConfig(
                dimension=int(fields["dim"]),
                ngram_min=int(fields["ngram_min"]),
                ngram_max=int(fields["ngram_max"]),
                seed=int(fields["seed"]),
            )
            backend = fields.get("backend", "hashed")
        except (KeyError, ValueError) as exc:
            raise CorruptSnapshotError(f"{path}: unreadable header {header!r}") from exc

        store = cls(config, backend=backend)
        for lineno, line in enumerate(lines[1:-2], start=2):
            try:
                payload = json.loads(line.decode("utf-8"))
                vector = np.frombuffer(base64.b64decode(payload["vector"]), dtype="<f8")
                record = MemoryRecord(
                    id=payload["id"],
                    text=payload["text"],
                    vector=vector,
                    source=payload["source"],
                    timestamp=int(payload["timestamp"]),
                    screened=bool(payload["screened"]),
                )
                if record.id in store:
                    raise CorruptSnapshotError(f"duplicate record id {record.id!r}")
                store.upsert(record)
            except (ValueError, KeyError, TypeError, ZerebroError) as exc:
                raise CorruptSnapshotError(f"{path}: bad record at line {lineno}: {exc}") from exc
        return store
