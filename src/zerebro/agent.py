"""The autonomous loop: plan actions from retrieved memory, gate them on
sentiment, dispatch to connectors and the simulated chain, and fold
engagement back into the action-selection weights.

High-level reasoning is action-kind selection under the strategy weights;
low-level reasoning is content filling, delegated to the Generator. The
split keeps the planner testable independent of any language model.
"""

from __future__ import annotations

import hashlib
import math
import struct
from bisect import bisect_right
from dataclasses import dataclass, replace
from types import SimpleNamespace
from typing import Callable, Mapping, Sequence

import numpy as np

from . import seeding
from .clock import SimClock
from .corpus import negative_words, positive_words
from .errors import EmptyTextError, NoGeneratorError, ZerebroError
from .generator import Generator
from .memory import MemoryStore
from .seeding import Draws, u64

ACTION_KINDS = ("post_text", "generate_image", "mint_art", "deploy_token")
DEFAULT_WEIGHTS = {kind: 0.25 for kind in ACTION_KINDS}
DEFAULT_MAX_ACTIONS = 3
DEFAULT_ETA = 0.1


def _weight_sum(weights: Mapping[str, float]) -> float:
    """The weights' sum as numpy adds fewer than 8 values: in order
    (ACTION_KINDS order; zero weights add nothing)."""
    total = 0.0
    for kind in ACTION_KINDS:
        total += weights.get(kind, 0.0)
    return total


def _kind_cdf(weights: Mapping[str, float]) -> tuple[list[str], list[float]]:
    """The kinds of positive weight in ACTION_KINDS order, and the cdf
    numpy's `choice(p=...)` draws them by: p is the weights over their sum,
    and the cdf p's running sum over its last value."""
    kinds = [k for k in ACTION_KINDS if weights.get(k, 0.0) > 0]
    total = _weight_sum(weights)
    cdf = []
    running = 0.0
    for kind in kinds:
        running += weights[kind] / total
        cdf.append(running)
    return kinds, [c / running for c in cdf]


@dataclass(frozen=True)
class AgentState:
    persona_seed: int
    strategy_weights: dict[str, float]
    turn_counter: int = 0
    sentiment_threshold: float = 0.0

    def __post_init__(self):
        weights = self.strategy_weights
        if not weights:
            raise ValueError("strategy_weights must not be empty")
        for kind, w in weights.items():
            if kind not in ACTION_KINDS:
                raise ValueError(f"unknown action kind {kind!r}")
            if not np.isfinite(w) or w < 0:
                raise ValueError(f"weight for {kind!r} must be finite and >= 0, got {w}")
        if not any(w > 0 for w in weights.values()):
            raise ValueError("at least one action kind needs positive weight")
        total = _weight_sum(weights)
        if not math.isfinite(total):
            raise ValueError(f"strategy weights must have a finite sum, got {total}")
        if not -1.0 <= self.sentiment_threshold <= 1.0:
            raise ValueError("sentiment_threshold must lie in [-1, 1]")


def initial_state(
    persona_seed: int,
    weights: Mapping[str, float] | None = None,
    sentiment_threshold: float = 0.0,
) -> AgentState:
    return AgentState(
        persona_seed=persona_seed,
        strategy_weights=dict(weights) if weights is not None else dict(DEFAULT_WEIGHTS),
        sentiment_threshold=sentiment_threshold,
    )


@dataclass(frozen=True)
class ActionRequest:
    kind: str
    target: str
    content: str | dict
    provenance: tuple[str, ...] = ()

    def __post_init__(self):
        if self.kind not in ACTION_KINDS:
            raise ValueError(f"unknown action kind {self.kind!r}")
        if self.kind == "post_text" and (not isinstance(self.content, str) or not self.content):
            raise ValueError("post_text requests need non-empty string content")


@dataclass(frozen=True)
class GateDecision:
    passed: bool
    reason: str | None = None
    score: float | None = None


@dataclass(frozen=True)
class ActionReceipt:
    request: ActionRequest
    ref: str
    timestamp: int


# --- sentiment ------------------------------------------------------------------


def sentiment_score(text: str) -> float:
    """Lexicon polarity: (pos - neg) / max(1, pos + neg), in [-1, 1]."""
    pos = neg = 0
    positive, negative = positive_words(), negative_words()
    for raw in text.lower().split():
        token = raw.strip(".,;:!?'\"()[]")
        if token in positive:
            pos += 1
        elif token in negative:
            neg += 1
    return (pos - neg) / max(1, pos + neg)


def gate(request: ActionRequest, threshold: float) -> GateDecision:
    """Block text posts scoring below the threshold; other kinds pass."""
    if request.kind != "post_text":
        return GateDecision(passed=True)
    score = sentiment_score(request.content)
    if score < threshold:
        return GateDecision(
            passed=False,
            reason=f"sentiment {score:.3f} below threshold {threshold:.3f}",
            score=score,
        )
    return GateDecision(passed=True, score=score)


# --- planning ------------------------------------------------------------------


def plan(
    state: AgentState,
    memory: MemoryStore,
    observation: str,
    generator: Generator | None,
    *,
    targets: Sequence[str] = ("twitter",),
    max_actions: int = DEFAULT_MAX_ACTIONS,
) -> list[ActionRequest]:
    """Plan up to max_actions requests; deterministic per (state, memory, observation)."""
    if not observation or not observation.strip():
        raise EmptyTextError("observation must be non-empty")
    if generator is None:
        raise NoGeneratorError("no text generator configured")
    if not targets:
        raise ValueError("at least one posting target is required")
    if max_actions < 0:
        raise ValueError(f"max_actions must be non-negative, got {max_actions}")

    retrieved = memory.retrieve(observation) if len(memory) else []
    context = [r.record.text for r in retrieved]
    provenance = tuple(r.record.id for r in retrieved)

    draws = Draws(seeding.seed(u64(state.persona_seed), u64(state.turn_counter),
                               observation.encode("utf-8")))
    kinds, cdf = _kind_cdf(state.strategy_weights)

    n_actions = draws.integers(max_actions + 1)
    requests: list[ActionRequest] = []
    for _ in range(n_actions):
        kind = kinds[bisect_right(cdf, draws.random())]
        action_seed = draws.integers(2**63)
        if kind == "post_text":
            content: str | dict = generator.generate(observation, context, action_seed)
            target = targets[draws.integers(len(targets))]
        else:
            theme_pool = observation.split()
            theme = theme_pool[draws.integers(len(theme_pool))]
            content = {"theme": theme, "seed": action_seed}
            target = "simchain"
        requests.append(
            ActionRequest(kind=kind, target=target, content=content, provenance=provenance)
        )
    return requests


# --- feedback ------------------------------------------------------------------


def integrate_feedback(
    state: AgentState,
    engagements: Sequence[Mapping],
    *,
    eta: float = DEFAULT_ETA,
) -> AgentState:
    """Multiplicative-weights update from engagement, then renormalize.

    `engagements` are the entries of a feedback log line: dicts whose
    "kind" names the action kind their "likes", "shares" and "comments"
    credit. An empty list is the identity.
    """
    if not engagements:
        return state

    totals: dict[str, float] = {}
    for e in engagements:
        kind = e["kind"]
        totals[kind] = totals.get(kind, 0.0) + e["likes"] + e["shares"] + e["comments"]
    peak = max(totals.values())

    weights = dict(state.strategy_weights)
    for kind, total in totals.items():
        normalized = total / peak if peak > 0 else 0.0
        weights[kind] = weights[kind] * (1.0 + eta * normalized)
    z = sum(weights.values())
    weights = {k: w / z for k, w in weights.items()}
    return replace(state, strategy_weights=weights)


# --- the step ------------------------------------------------------------------


# the event log of a turn run without one: every append is dropped
_NO_LOG = SimpleNamespace(append=lambda kind, payload: None)


def step(
    state: AgentState,
    memory: MemoryStore,
    connectors: Mapping[str, object],
    chain_client,
    observation: str,
    *,
    generator: Generator,
    log=None,
    clock: Callable[[], int] | None = None,
    max_actions: int = DEFAULT_MAX_ACTIONS,
) -> tuple[AgentState, list[ActionReceipt]]:
    """One full turn: plan, gate, dispatch, log, remember.

    Connector and chain errors are logged per-request and do not abort the
    turn. Blocked requests are logged, never dispatched. The observation is
    always remembered, as human-sourced; generated text is remembered only
    once dispatched.
    """
    clock = clock or SimClock()
    log = _NO_LOG if log is None else log
    turn = state.turn_counter
    requests = plan(
        state,
        memory,
        observation,
        generator,
        targets=tuple(sorted(connectors)),
        max_actions=max_actions,
    )

    obs_id = f"obs-{turn:06d}"
    memory.add_text(obs_id, observation, "human", clock())
    log.append("observation", {"turn": turn, "id": obs_id, "text": observation,
                               "source": "human"})
    log.append("plan", {"turn": turn, "requests": [_request_payload(r) for r in requests]})

    decisions = [gate(request, state.sentiment_threshold) for request in requests]
    log.append("gate", {"turn": turn, "results": [
        {"index": i, "kind": r.kind, "passed": d.passed, "reason": d.reason, "score": d.score}
        for i, (r, d) in enumerate(zip(requests, decisions))
    ]})

    receipts: list[ActionReceipt] = []
    dispatched = 0
    for index, (request, decision) in enumerate(zip(requests, decisions)):
        if not decision.passed:
            continue
        action = {"turn": turn, "index": index, "kind": request.kind, "target": request.target}
        log.append("dispatch", action)
        try:
            receipt = _dispatch(request, connectors, chain_client, clock)
        except ZerebroError as exc:
            log.append("error", {**action, "error": type(exc).__name__, "message": str(exc)})
            continue
        receipts.append(receipt)
        payload = {**action, "ref": receipt.ref}
        if request.kind == "post_text":
            gen_id = f"gen-{turn:06d}-{dispatched}"
            dispatched += 1
            memory.add_text(gen_id, request.content, "agent", clock())
            payload["memory_id"] = gen_id
            payload["post_id"] = int(receipt.ref.rsplit(":", 1)[1])
        log.append("receipt", payload)

    return replace(state, turn_counter=turn + 1), receipts


def _request_payload(request: ActionRequest) -> dict:
    return {
        "kind": request.kind,
        "target": request.target,
        "content": request.content,
        "provenance": list(request.provenance),
    }


def _dispatch(request: ActionRequest, connectors, chain_client, clock) -> ActionReceipt:
    ts = clock()
    if request.kind == "post_text":
        connector = connectors[request.target]
        post = connector.post(request.content)
        return ActionReceipt(request, f"{request.target}:{post.post_id}", ts)
    if chain_client is None:
        raise ZerebroError("no chain client configured for chain-bound actions")
    theme, seed = request.content["theme"], request.content["seed"]
    if request.kind == "generate_image":
        art_hash = chain_client.generate_image(seed, theme)
        return ActionReceipt(request, f"art:{art_hash[:16]}", ts)
    if request.kind == "mint_art":
        mint = chain_client.mint(seed, theme)
        return ActionReceipt(request, f"nft:{mint.token_id}", ts)
    token = chain_client.deploy(seed, theme)
    return ActionReceipt(request, f"token:{token.symbol}", ts)


# --- state hashing ---------------------------------------------------------------


def state_hash(
    turn_counter: int,
    weights: Mapping[str, float],
    memory_items: Sequence[tuple[str, str]],
    post_counters: Mapping[str, tuple[int, int]],
) -> str:
    """Canonical digest of the replayable agent state.

    Weight floats are hashed from their raw bytes, so live and replayed
    states match only if every update took the identical arithmetic path.
    """
    h = hashlib.sha256()
    h.update(f"turns={turn_counter}\n".encode())
    for kind in sorted(weights):
        h.update(kind.encode("utf-8"))
        h.update(struct.pack("<d", weights[kind]))
    for record_id, text in memory_items:
        h.update(record_id.encode("utf-8"))
        h.update(hashlib.sha256(text.encode("utf-8")).digest())
    for platform in sorted(post_counters):
        count, last_id = post_counters[platform]
        h.update(f"{platform}={count}:{last_id}\n".encode())
    return h.hexdigest()


def session_state_hash(state: AgentState, memory: MemoryStore, connectors: Mapping) -> str:
    # zero-post connectors are invisible to a log replay, so they are
    # excluded here too
    return state_hash(
        state.turn_counter,
        state.strategy_weights,
        [(r.id, r.text) for r in memory.records()],
        {
            name: (c.post_count, c.last_post_id)
            for name, c in connectors.items()
            if c.post_count > 0
        },
    )


# --- multi-turn session -----------------------------------------------------------


def check_session_args(turns: int, eta: float, max_actions: int) -> None:
    """Refuse negative turns or max_actions, and an eta not finite and above
    -1, since each weight's factor 1 + eta * x, x in [0, 1], must stay
    positive."""
    if turns < 0:
        raise ValueError(f"turns must be non-negative, got {turns}")
    if not (np.isfinite(eta) and eta > -1):
        raise ValueError(f"eta must be a finite number above -1, got {eta}")
    if max_actions < 0:
        raise ValueError(f"max_actions must be non-negative, got {max_actions}")


def run_session(
    state: AgentState,
    memory: MemoryStore,
    connectors: Mapping[str, object],
    chain_client,
    generator: Generator,
    observations: Callable[[int], str],
    turns: int,
    *,
    log=None,
    clock: Callable[[], int] | None = None,
    eta: float = DEFAULT_ETA,
    max_actions: int = DEFAULT_MAX_ACTIONS,
) -> tuple[AgentState, str]:
    """Drive the loop for `turns` turns with per-turn engagement feedback.

    Returns the final state and its hash. With a log attached and the
    default starting weights, replaying the log file reproduces the hash.
    Bad turns, eta or max_actions raise ValueError before the first turn.
    """
    check_session_args(turns, eta, max_actions)
    clock = clock or SimClock()
    log = _NO_LOG if log is None else log
    for turn in range(turns):
        state, receipts = step(
            state, memory, connectors, chain_client, observations(turn),
            generator=generator, log=log, clock=clock, max_actions=max_actions,
        )
        fb_payload = []
        for receipt in receipts:
            if receipt.request.kind != "post_text":
                continue
            platform = receipt.request.target
            post_id = int(receipt.ref.rsplit(":", 1)[1])
            metrics = connectors[platform].fetch_engagement(post_id)
            fb_payload.append(
                {"platform": platform, "post_id": post_id, "kind": receipt.request.kind,
                 "likes": metrics.likes, "shares": metrics.shares,
                 "comments": metrics.comments}
            )
        # the feedback line's entries are what replay folds too
        state = integrate_feedback(state, fb_payload, eta=eta)
        if fb_payload:
            log.append("feedback", {"turn": turn, "eta": eta, "engagements": fb_payload})
    return state, session_state_hash(state, memory, connectors)
