"""In-process RAG vectorstore: upsert, exact top-k retrieval, diversity
admission, and checksummed snapshot persistence.

Search is an exact cosine scan, not an approximate index; store sizes here
stay small enough that correctness and testability win. Ties are broken by
ascending record id so retrieval order is fully deterministic.

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
from .embedding import EmbeddingConfig, cosine_similarity, make_engine
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

    Concurrency: a single lock serializes writers; retrieval snapshots the
    record list under the same lock, so readers never observe a partially
    applied upsert.
    """

    def __init__(self, config: EmbeddingConfig = EmbeddingConfig(), backend: str = "hashed"):
        self._engine = make_engine(backend, config)
        self._records: dict[str, MemoryRecord] = {}
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
        return record_id in self._records

    def get(self, record_id: str) -> MemoryRecord | None:
        return self._records.get(record_id)

    def records(self) -> Iterator[MemoryRecord]:
        """Records in insertion order."""
        return iter(list(self._records.values()))

    def ids(self) -> list[str]:
        return list(self._records)

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
            self._records[record.id] = record
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
        """Upsert the candidate unless it is too similar to anything stored."""
        if candidate.vector.shape != (self.dimension,):
            raise DimensionMismatchError(
                f"candidate vector has shape {candidate.vector.shape}, "
                f"store dimension is {self.dimension}"
            )
        tau = policy.max_similarity_threshold
        with self._lock:
            worst = 0.0
            for record in self._records.values():
                s = cosine_similarity(candidate.vector, record.vector)
                if s > worst:
                    worst = s
                    if worst > tau:
                        return AdmissionDecision(
                            admitted=False,
                            reason=f"max similarity {worst:.6f} exceeds threshold {tau}",
                            max_similarity=worst,
                        )
            self._records[candidate.id] = replace(candidate, screened=True)
        return AdmissionDecision(admitted=True, max_similarity=worst)

    # --- reads ----------------------------------------------------------------

    def retrieve(self, query_text: str, top_k: int = DEFAULT_TOP_K) -> list[RetrievalResult]:
        """Exact top-k by cosine similarity, ties broken by ascending id."""
        if not query_text or not query_text.strip():
            raise EmptyTextError("query text must be non-empty")
        if top_k < 1:
            raise ValueError(f"top_k must be positive, got {top_k}")
        query = self._engine.embed_text(query_text)
        with self._lock:
            snapshot = list(self._records.values())
        scored = [
            RetrievalResult(record=r, similarity=cosine_similarity(query, r.vector))
            for r in snapshot
        ]
        scored.sort(key=lambda rr: (-rr.similarity, rr.record.id))
        return scored[:top_k]

    def stats(self) -> MemoryStats:
        with self._lock:
            snapshot = list(self._records.values())
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
                vector = np.frombuffer(
                    base64.b64decode(payload["vector"]), dtype="<f8"
                ).astype(np.float64, copy=True)
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
