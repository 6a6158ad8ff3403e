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
twice. An upsert of an existing id stores every record again in new
blocks, the new one in its id's row, so rows keep their order and vectors
handed out never change; a replacement costs O(N), an insert O(1).

Embedding cache: make_record and retrieve embed through the store, which
maps each text to the vector its engine made, read-only so no caller can
change what a later call returns. Each text is embedded once, whether
stored then queried (backrooms), queried then stored (an agent
observation) or drawn again. Storing a record that holds that very
vector points the entry at the record's row view, so no vector is held
twice. Nothing is invalidated: the engine is a pure function of
the text; only a cache miss inserts, so a caller-made or snapshot-loaded
vector never enters; and no published row is written again, since a
replacement stores every record again. Entries viewing the old blocks
follow their records' new rows, and the replaced row's old text keeps a
copy of its own vector, so the old blocks are freed.

Ranked cache: retrieve keeps each (query text, top_k)'s results with the
number of rows it scanned, and a repeated call scans only the rows
stored since, merging them with the kept results by (-similarity, id).
That is a total order, so the top k of the union is the top k of the
whole store; and a row's similarity does not depend on which rows are
scanned with it (below). Appends leave the cache as it is; a replacement
clears it, since it stores every row again. It holds at most top_k
references per distinct (query text, top_k), beside the embedding
cache's one vector per text.

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

Snapshot format: an `offsetlog` file whose bodies are _FIELDS' fields, of
exactly those JSON types:
    0\tconfig\t0\t{"dim", "format": "memstore v2", "ngram_max", "ngram_min", "seed"}
    <offset>\trecord\t<timestamp>\t{"id", "screened", "source", "text", "vector"}
    <offset>\tchecksum\t0\t{"sha256": <hex of every earlier byte>}
one record line per row, its vector base64 little-endian float64. load
compares the last line byte for byte with the checksum line re-encoded from
the bytes before it. A snapshot stating an n-gram range other than
embedding's fixed one, in the retired `memstore v1` format, or with a
record vector whose norm is not finite and nonzero, is corrupt.
"""

from __future__ import annotations

import base64
import hashlib
import math
from dataclasses import dataclass, replace
from typing import Iterator

import numpy as np

from .atomic import write_atomic
from .diversity import embedding_dispersion
from .embedding import NGRAM_MAX, NGRAM_MIN, EmbeddingConfig, HashedEngine
from .errors import (
    BadConfigError,
    CorruptLogError,
    CorruptSnapshotError,
    DimensionMismatchError,
    EmptyTextError,
    IoFailureError,
    ZerebroError,
)
from . import offsetlog

SOURCES = ("human", "agent", "platform-feedback")
DEFAULT_TOP_K = 5
SNAPSHOT_FORMAT = "memstore v2"
# each snapshot line kind's body fields and their exact JSON types; a bool is not an int here
_FIELDS = {
    "config": {"dim": int, "format": str, "ngram_max": int, "ngram_min": int, "seed": int},
    "record": {"id": str, "screened": bool, "source": str, "text": str, "vector": str},
}
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
    """Exact-search vector memory over the hashed embedding engine.

    `backend` is accepted for callers that still name the engine; "hashed"
    is its only value.

    Not thread-safe: a store belongs to one thread (see the README).
    """

    def __init__(self, config: EmbeddingConfig = EmbeddingConfig(), backend: str = "hashed"):
        if backend != "hashed":
            raise BadConfigError(f"unknown embedding backend {backend!r}; the only one is 'hashed'")
        self._engine = HashedEngine(config)
        self._records: list[MemoryRecord] = []  # row order, which is insertion order
        self._rows: dict[str, int] = {}
        self._blocks: list[np.ndarray] = []  # (BLOCK_ROWS, D) vectors
        self._norms: list[np.ndarray] = []  # (BLOCK_ROWS,) cached norms
        self._vectors: dict[str, np.ndarray] = {}  # text -> its engine's read-only vector
        # (query text, top_k) -> (rows scanned, their top_k results)
        self._ranked: dict[tuple[str, int], tuple[int, list[RetrievalResult]]] = {}

    @property
    def config(self) -> EmbeddingConfig:
        return self._engine.config

    @property
    def dimension(self) -> int:
        return self._engine.config.dimension

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
        if vector is None:
            vector = self._vectors[text] = _read_only(self._engine.embed_text(text))
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
        """Store record in a new row; a known id rebuilds the store."""
        if record.id in self._rows:
            return self._rebuild(record)
        block, offset = divmod(len(self._records), BLOCK_ROWS)
        if block == len(self._blocks):
            self._blocks.append(np.empty((BLOCK_ROWS, self.dimension)))
            self._norms.append(np.empty(BLOCK_ROWS))
        self._blocks[block][offset] = record.vector
        view = _read_only(self._blocks[block][offset])
        self._norms[block][offset] = float(np.linalg.norm(view))
        if self._vectors.get(record.text) is record.vector:
            self._vectors[record.text] = view
        self._rows[record.id] = len(self._records)
        self._records.append(replace(record, vector=view))

    def _rebuild(self, record: MemoryRecord) -> None:
        """Store every record again in new blocks, in row order, with record
        in its id's row. Records and vectors handed out view the old blocks,
        which nothing writes again; the replaced text's cache entry becomes a
        copy of its own, so nothing the store holds keeps them alive."""
        row = self._rows[record.id]
        old = self._records[row]
        if self._vectors.get(old.text) is old.vector:
            self._vectors[old.text] = _read_only(old.vector.copy())
        records = self._records
        records[row] = record
        self._records, self._rows, self._blocks, self._norms = [], {}, [], []
        self._ranked.clear()
        for r in records:
            self._put(r)

    # --- reads ----------------------------------------------------------------

    def retrieve(self, query_text: str, top_k: int = DEFAULT_TOP_K) -> list[RetrievalResult]:
        """Exact top-k by cosine similarity, ties broken by ascending id."""
        if not query_text or not query_text.strip():
            raise EmptyTextError("query text must be non-empty")
        if top_k < 1:
            raise ValueError(f"top_k must be positive, got {top_k}")
        query = self._embed(query_text)
        key = (query_text, top_k)
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
        on, in row order, bit for bit (see the module docstring)."""
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
        histogram: dict[str, int] = {}
        for r in self._records:
            histogram[r.source] = histogram.get(r.source, 0) + 1
        if len(self) < 2:
            dispersion = 0.0
        else:
            dispersion = embedding_dispersion([r.vector for r in self._records])
        return MemoryStats(count=len(self), source_histogram=histogram, dispersion=dispersion)

    # --- persistence ------------------------------------------------------------

    def persist(self, path) -> None:
        """Write the snapshot; vectors round-trip bit-exact."""
        lines = [offsetlog.encode(0, "config", 0, _config_body(self.config))]
        for offset, r in enumerate(self.records(), start=1):
            vector = base64.b64encode(np.ascontiguousarray(r.vector, dtype="<f8").tobytes())
            lines.append(offsetlog.encode(offset, "record", r.timestamp, {
                "id": r.id, "screened": r.screened, "source": r.source, "text": r.text,
                "vector": vector.decode("ascii")}))
        body = "".join(lines).encode("utf-8")
        write_atomic(path, body + _checksum_line(len(lines), body))

    @classmethod
    def load(cls, path) -> "MemoryStore":
        try:
            with open(path, "rb") as fh:
                lines = fh.readlines()
        except OSError as exc:
            raise IoFailureError(f"cannot read snapshot {path}: {exc}") from exc
        if lines and lines[0].startswith(b"memstore v1 "):
            raise CorruptSnapshotError(f"{path}: memstore v1 is a snapshot format no longer "
                                       "read; rebuild the store with `zerebro memory upsert`")
        if len(lines) < 2 or lines[-1] != _checksum_line(len(lines) - 1, b"".join(lines[:-1])):
            raise CorruptSnapshotError(f"{path}: checksum mismatch: the last line is not the "
                                       "checksum line of the lines before it")
        try:
            for offset, kind, timestamp, body in offsetlog.parse(lines[:-1], _FIELDS, path):
                fields = _FIELDS[kind]
                if body.keys() != fields.keys():
                    raise CorruptSnapshotError(f"fields {sorted(body)} are not {list(fields)}")
                for name, json_type in fields.items():
                    if type(body[name]) is not json_type:
                        raise CorruptSnapshotError(
                            f"field {name!r} must be {json_type.__name__}, got {body[name]!r}")
                if (kind == "config") != (offset == 0):
                    raise CorruptSnapshotError("the config line, and only it, is at offset 0")
                if kind == "config":
                    store = cls(EmbeddingConfig(dimension=body["dim"], seed=body["seed"]))
                    got, expected = (timestamp, body), (0, _config_body(store.config))
                    if got != expected:
                        raise CorruptSnapshotError(f"timestamp and body {got} are not {expected}")
                elif body["id"] in store:
                    raise CorruptSnapshotError(f"duplicate record id {body['id']!r}")
                else:
                    vector = np.frombuffer(base64.b64decode(body["vector"], validate=True), "<f8")
                    store.upsert(MemoryRecord(body["id"], body["text"], vector, body["source"],
                                              timestamp, body["screened"]))
                    # after upsert's width check; a NaN norm fails it too
                    if not 0.0 < np.linalg.norm(vector) < math.inf:
                        raise CorruptSnapshotError("record vector needs a finite, nonzero norm")
        except CorruptLogError as exc:
            raise CorruptSnapshotError(str(exc)) from exc
        except (ValueError, ZerebroError) as exc:
            raise CorruptSnapshotError(
                f"{path}: bad {kind} line at offset {offset}: {exc}") from exc
        return store


def _config_body(config: EmbeddingConfig) -> dict:
    return {"dim": config.dimension, "format": SNAPSHOT_FORMAT, "ngram_max": NGRAM_MAX,
            "ngram_min": NGRAM_MIN, "seed": config.seed}


def _checksum_line(offset: int, earlier: bytes) -> bytes:
    """The snapshot's last line: the sha256 of every byte before it."""
    line = offsetlog.encode(offset, "checksum", 0, {"sha256": hashlib.sha256(earlier).hexdigest()})
    return line.encode("ascii")
