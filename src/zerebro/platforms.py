"""Simulated social connectors and the append-only event log.

Connectors assign dense, strictly increasing post ids and enforce
per-platform length limits (280 for the short-form analog, 1024
elsewhere). Engagement is a pure seeded function of content length and
distinct-1 token diversity, monotone in diversity at fixed length, which
lets the feedback loop reward diverse output end to end. Its three random
multipliers depend on the connector seed and the post length alone, so a
connector draws them once per length it sees and keeps them.

The event log is the remote-logging analog: a local file in the
dense-offset line format of `zerebro.offsetlog`. Replaying a session's log
reproduces the live run's final state hash: replay folds each feedback
line's entries through the same `agent.integrate_feedback` call the live
run made on them.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

from . import agent as agent_mod
from . import atomic, offsetlog, seeding
from .clock import SimClock
from .diversity import distinct_n
from .errors import (
    ConnectorDownError,
    IoFailureError,
    TooLongError,
    UnknownPostError,
)
from .seeding import Draws

LOG_KINDS = ("observation", "plan", "gate", "dispatch", "receipt", "error", "feedback")
SHORT_FORM_LIMIT = 280
DEFAULT_LIMIT = 1024


@dataclass(frozen=True)
class PostReceipt:
    post_id: int
    platform: str
    timestamp: int
    content_hash: str


@dataclass(frozen=True)
class EngagementMetrics:
    post_id: int
    likes: int
    shares: int
    comments: int


@dataclass(frozen=True)
class LogEntry:
    offset: int
    kind: str
    timestamp: int
    payload: dict


class SimulatedConnector:
    """One platform: stores posts, hands out dense ids, simulates engagement.

    `outages` is a deterministic fault schedule: half-open [start, end)
    intervals of post-attempt indices during which every post raises
    ConnectorDownError.
    """

    def __init__(
        self,
        platform: str,
        char_limit: int = DEFAULT_LIMIT,
        seed: int = 0,
        clock: Callable[[], int] | None = None,
        outages: tuple[tuple[int, int], ...] = (),
    ):
        self.platform = platform
        self.char_limit = char_limit
        self.seed = seed
        self.outages = tuple(outages)
        self._clock = clock or SimClock()
        # ids are dense from 0 and posts are never deleted, so the next id is
        # the post count
        self._posts: dict[int, str] = {}
        self._attempts = 0
        # the engagement multipliers drawn for each post length: at most
        # char_limit + 1 entries, since no post is longer
        self._multipliers: dict[int, np.ndarray] = {}

    @property
    def post_count(self) -> int:
        return len(self._posts)

    @property
    def last_post_id(self) -> int:
        return len(self._posts) - 1

    def post(self, content: str) -> PostReceipt:
        attempt = self._attempts
        self._attempts += 1
        if any(start <= attempt < end for start, end in self.outages):
            raise ConnectorDownError(f"{self.platform} is down")
        if not content:
            raise TooLongError(f"{self.platform}: content must be non-empty")
        if len(content) > self.char_limit:
            raise TooLongError(
                f"{self.platform}: {len(content)} chars exceeds limit {self.char_limit}"
            )
        post_id = len(self._posts)
        self._posts[post_id] = content
        return PostReceipt(
            post_id=post_id,
            platform=self.platform,
            timestamp=self._clock(),
            content_hash=hashlib.sha256(content.encode("utf-8")).hexdigest(),
        )

    def get_post(self, post_id: int) -> str:
        try:
            return self._posts[post_id]
        except KeyError:
            raise UnknownPostError(f"{self.platform}: no post {post_id}") from None

    def fetch_engagement(self, post_id: int) -> EngagementMetrics:
        """Seeded engagement, monotone in distinct-1 diversity at fixed length."""
        content = self.get_post(post_id)
        length = len(content)
        # post accepts whitespace-only content, which has no 1-grams
        diversity = distinct_n([content], 1) if content.strip() else 0.0
        u = self._multipliers.get(length)
        if u is None:
            draws = Draws(seeding.seed(f"{self.seed}:{length}".encode("ascii")))
            u = draws.uniform(0.5, 1.5, size=3)
            self._multipliers[length] = u
        score = math.sqrt(length) * (0.25 + 0.75 * diversity)
        return EngagementMetrics(
            post_id=post_id,
            likes=int(score * u[0] * 2.0),
            shares=int(score * u[1] * 0.6),
            comments=int(score * u[2] * 0.4),
        )


def make_default_connectors(
    seed: int = 0, clock: Callable[[], int] | None = None
) -> dict[str, SimulatedConnector]:
    clock = clock or SimClock()
    return {
        "twitter": SimulatedConnector("twitter", SHORT_FORM_LIMIT, seed, clock),
        "warpcast": SimulatedConnector("warpcast", DEFAULT_LIMIT, seed + 1, clock),
        "telegram": SimulatedConnector("telegram", DEFAULT_LIMIT, seed + 2, clock),
    }


def load_connector_config(
    path, clock: Callable[[], int] | None = None
) -> dict[str, SimulatedConnector]:
    """Build connectors from a config file.

    One platform per line:
        platform=twitter limit=280 seed=3 outage=5:8,20:22
    `limit` defaults to 1024, `seed` to 0; `outage` lists half-open
    post-attempt intervals during which the connector is down. A file that
    is not UTF-8 or defines no platform raises ValueError, and so does a
    line with a limit below 1, an outage span whose start is not below its
    end, or a platform an earlier line defined.
    """
    clock = clock or SimClock()
    connectors: dict[str, SimulatedConnector] = {}
    try:
        with open(path, "r", encoding="utf-8") as fh:
            lines = fh.read().splitlines()
    except OSError as exc:
        raise IoFailureError(f"cannot read connector config {path}: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise ValueError(f"connector config {path} is not UTF-8 ({exc})") from None
    for raw in lines:
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        try:
            fields = dict(part.split("=", 1) for part in line.split())
        except ValueError:
            raise ValueError(f"connector config line {raw!r} is not key=value fields") from None
        if "platform" not in fields:
            raise ValueError(f"connector config line {raw!r} lacks platform=")
        try:
            outages = []
            for span in filter(None, fields.get("outage", "").split(",")):
                start, end = span.split(":")
                outages.append((int(start), int(end)))
            limit = int(fields.get("limit", DEFAULT_LIMIT))
            seed = int(fields.get("seed", 0))
        except ValueError:
            raise ValueError(
                f"connector config {path}: line {raw!r} needs integer limit= and seed=, "
                "and outage= as comma-separated start:end spans"
            ) from None
        name = fields["platform"]
        if limit < 1 or any(start >= end for start, end in outages) or name in connectors:
            raise ValueError(
                f"connector config {path}: line {raw!r} needs limit >= 1, outage spans "
                "that start before they end, and a platform no earlier line defined"
            )
        connectors[name] = SimulatedConnector(
            name, char_limit=limit, seed=seed, clock=clock, outages=tuple(outages),
        )
    if not connectors:
        raise ValueError(f"connector config {path} defines no platform")
    return connectors


# --- event log --------------------------------------------------------------------


class EventLog:
    """Log file with dense offsets from 0, committed whole. Not thread-safe.

    The lines stream, flushed one at a time, into the file `atomic.staged`
    opens beside the path given, and `self.path` names that staged file
    while the log is open. A clean exit from the `with` block commits it
    over the path given, which `self.path` then names; an exception out of
    the block discards it, so a file already at the path keeps its bytes.
    """

    def __init__(self, path, clock: Callable[[], int] | None = None):
        self._clock = clock or SimClock()
        self._offset = 0
        self._final = Path(path)
        self._staged = atomic.staged(path)
        self._fh = self._staged.__enter__()
        self.path = Path(self._fh.name)

    def append(self, kind: str, payload: dict) -> int:
        if kind not in LOG_KINDS:
            raise ValueError(f"unknown log kind {kind!r}")
        offset = self._offset
        line = offsetlog.encode(offset, kind, self._clock(), payload)
        try:
            self._fh.write(line.encode("utf-8"))
            self._fh.flush()
        except OSError as exc:
            raise IoFailureError(f"cannot append to log {self.path}: {exc}") from exc
        self._offset += 1
        return offset

    def __enter__(self) -> "EventLog":
        return self

    def __exit__(self, *exc_info) -> None:
        self._staged.__exit__(*exc_info)
        if exc_info[0] is None:
            self.path = self._final


def read_log(path) -> list[LogEntry]:
    """Parse and validate a log file; offsets must be dense from 0."""
    return [LogEntry(*row) for row in offsetlog.read(path, LOG_KINDS)]


def replay_log(path, *, persona_seed: int = 0) -> str:
    """Rebuild the agent state purely from the log and return its hash.

    The starting weights are not an event: replay assumes the default
    ones, agent.DEFAULT_WEIGHTS, that every session the CLI runs starts
    from. `persona_seed` does not enter the hash.
    """
    state = agent_mod.initial_state(persona_seed)
    memory_items: list[tuple[str, str]] = []
    post_counters: dict[str, tuple[int, int]] = {}
    plan_contents: dict[int, str | dict] = {}
    turns = 0

    # folded as the lines are read: the log is never held whole
    for _, kind, _, p in offsetlog.read(path, LOG_KINDS):
        if kind == "observation":
            turns += 1
            memory_items.append((p["id"], p["text"]))
        elif kind == "plan":
            plan_contents = {i: r["content"] for i, r in enumerate(p["requests"])}
        elif kind == "receipt":
            if p["kind"] != "post_text":
                continue
            platform = p["target"]
            count, _ = post_counters.get(platform, (0, -1))
            post_counters[platform] = (count + 1, p["post_id"])
            memory_items.append((p["memory_id"], plan_contents[p["index"]]))
        elif kind == "feedback":
            state = agent_mod.integrate_feedback(state, p["engagements"], eta=p["eta"])

    return agent_mod.state_hash(turns, state.strategy_weights, memory_items, post_counters)
