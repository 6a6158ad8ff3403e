"""Agent loop: planning determinism, sentiment gating, step bookkeeping,
multiplicative-weights feedback, and the generator contract."""

import numpy as np
import pytest

from zerebro.agent import (
    ACTION_KINDS,
    ActionRequest,
    AgentState,
    gate,
    initial_state,
    integrate_feedback,
    plan,
    run_session,
    sentiment_score,
    step,
)
from zerebro.chain import AgentChainClient, Ledger, to_nanos
from zerebro.clock import SimClock
from zerebro.embedding import EmbeddingConfig, HashedEngine
from zerebro.errors import EmptyTextError, NoGeneratorError
from zerebro.generator import MarkovGenerator
from zerebro.memory import MemoryStore
from zerebro.platforms import SimulatedConnector

CFG = EmbeddingConfig(dimension=64)


@pytest.fixture
def generator():
    return MarkovGenerator()


@pytest.fixture
def memory():
    return MemoryStore(CFG)


def make_chain(clock=None):
    ledger = Ledger(clock=clock)
    wallet = ledger.create_wallet(seed=1, endowment=to_nanos(1000))
    return AgentChainClient(ledger, wallet, art_size=(8, 8))


class TestGenerator:
    def test_deterministic(self, generator):
        a = generator.generate("the river", ["a lantern in the window"], 5)
        b = generator.generate("the river", ["a lantern in the window"], 5)
        assert a == b

    def test_inputs_change_output(self, generator):
        base = generator.generate("the river", [], 5)
        assert generator.generate("the river", [], 6) != base or \
            generator.generate("the harbor", [], 5) != base

    def test_nonempty_and_bounded(self, generator):
        for seed in range(20):
            text = generator.generate("frost on glass", ["the market opens loud"], seed)
            n = len(text.split())
            assert generator.min_tokens <= n <= generator.max_tokens


class TestSentiment:
    def test_empty_scores_zero(self):
        assert sentiment_score("") == 0.0

    def test_no_hits_scores_zero(self):
        assert sentiment_score("ledger entropy vector") == 0.0

    def test_all_positive(self):
        assert sentiment_score("bright calm gentle warm") == 1.0

    def test_balanced(self):
        assert sentiment_score("bright ruin") == 0.0

    def test_punctuation_stripped(self):
        assert sentiment_score("Bright! calm, warm.") == 1.0

    def test_bounded(self):
        for text in ("ruin ruin bleak", "bright bleak calm ruin grim", "x y z"):
            assert -1.0 <= sentiment_score(text) <= 1.0


class TestGate:
    def test_threshold_floor_passes_everything(self):
        req = ActionRequest("post_text", "twitter", "bleak ruin grim")
        assert gate(req, -1.0).passed

    def test_negative_content_blocked_at_zero(self):
        req = ActionRequest("post_text", "twitter", "bleak ruin")
        decision = gate(req, 0.0)
        assert not decision.passed
        assert "below threshold" in decision.reason

    def test_non_text_kinds_bypass(self):
        req = ActionRequest("mint_art", "simchain", {"theme": "bleak", "seed": 1})
        assert gate(req, 1.0).passed


class TestPlan:
    def test_empty_observation_rejected(self, memory, generator):
        with pytest.raises(EmptyTextError):
            plan(initial_state(1), memory, "  ", generator)

    def test_no_generator(self, memory):
        with pytest.raises(NoGeneratorError):
            plan(initial_state(1), memory, "something", None)

    def test_degenerate_weights_plan_only_posts(self, memory, generator):
        state = initial_state(3, weights={"post_text": 1.0})
        for attempt in range(5):
            requests = plan(state, memory, f"observation {attempt}", generator)
            assert all(r.kind == "post_text" for r in requests)

    def test_cold_start_empty_provenance(self, memory, generator):
        requests = plan(initial_state(3), memory, "first contact", generator)
        assert all(r.provenance == () for r in requests)

    def test_deterministic_replan(self, memory, generator):
        memory.add_text("m1", "the bridge holds its breath")
        state = initial_state(9)
        a = plan(state, memory, "the bridge", generator)
        b = plan(state, memory, "the bridge", generator)
        assert a == b

    def test_provenance_ids_exist(self, memory, generator):
        for i in range(8):
            memory.add_text(f"m{i}", f"stored sentence number {i}")
        requests = plan(initial_state(4), memory, "stored sentence", generator)
        for request in requests:
            for rid in request.provenance:
                assert rid in memory

    def test_negative_max_actions_rejected(self, memory, generator):
        with pytest.raises(ValueError, match="max_actions must be non-negative, got -1"):
            plan(initial_state(1), memory, "something", generator, max_actions=-1)

    def test_bounded_plan_length(self, memory, generator):
        state = initial_state(11)
        for i in range(10):
            requests = plan(state, memory, f"obs {i}", generator, max_actions=3)
            assert 0 <= len(requests) <= 3


def entry(kind, likes, shares, comments, post_id=0):
    """One entry of a feedback log line, as run_session logs it."""
    return {"platform": "twitter", "post_id": post_id, "kind": kind,
            "likes": likes, "shares": shares, "comments": comments}


class TestIntegrateFeedback:
    def test_empty_is_identity(self):
        state = initial_state(1)
        assert integrate_feedback(state, []) is state

    def test_positive_engagement_increases_weight(self):
        state = initial_state(1)
        updated = integrate_feedback(state, [entry("post_text", 10, 2, 1)])
        assert updated.strategy_weights["post_text"] > state.strategy_weights["post_text"]

    def test_equal_engagement_on_all_kinds_is_noop(self):
        state = initial_state(1)  # weights already normalized (0.25 each)
        entries = [entry(kind, 5, 5, 5, post_id=i) for i, kind in enumerate(ACTION_KINDS)]
        updated = integrate_feedback(state, entries)
        for kind in ACTION_KINDS:
            assert updated.strategy_weights[kind] == pytest.approx(
                state.strategy_weights[kind], abs=1e-12
            )

    def test_weights_stay_positive(self):
        state = initial_state(1)
        rng = np.random.default_rng(0)
        for i in range(200):
            kind = ACTION_KINDS[int(rng.integers(len(ACTION_KINDS)))]
            e = entry(kind, int(rng.integers(0, 50)), int(rng.integers(0, 10)),
                      int(rng.integers(0, 10)), post_id=i)
            state = integrate_feedback(state, [e])
            assert all(w > 0 for w in state.strategy_weights.values())
            assert sum(state.strategy_weights.values()) == pytest.approx(1.0, abs=1e-9)


class TestStep:
    def make_components(self):
        clock = SimClock()
        memory = MemoryStore(CFG)
        connectors = {"twitter": SimulatedConnector("twitter", 280, seed=3, clock=clock)}
        return clock, memory, connectors, make_chain(clock)

    def test_all_blocked_turn(self, generator):
        clock, memory, connectors, chain = self.make_components()
        state = initial_state(2, weights={"post_text": 1.0}, sentiment_threshold=1.0)
        # threshold 1.0 blocks any text that is not purely positive
        new_state, receipts = step(
            state, memory, connectors, chain, "the quarry echoes", generator=generator,
            clock=clock,
        )
        assert new_state.turn_counter == state.turn_counter + 1
        if not receipts:  # generated text scored below 1.0, the expected path
            assert len(memory) == 1
            assert memory.get("obs-000000") is not None

    def test_one_passing_post_grows_memory_by_two(self, generator):
        clock, memory, connectors, chain = self.make_components()
        state = initial_state(6, weights={"post_text": 1.0}, sentiment_threshold=-1.0)
        for observation in ("the ferry charges", "night markets sell", "a kite argues"):
            before = len(memory)
            state, receipts = step(
                state, memory, connectors, chain, observation, generator=generator,
                clock=clock,
            )
            posts = [r for r in receipts if r.request.kind == "post_text"]
            assert len(memory) == before + 1 + len(posts)
            if posts:
                return
        pytest.fail("no post dispatched in three turns")

    def test_connector_failure_isolated(self, generator):
        clock, memory, _, chain = self.make_components()
        # an outage window covering every post attempt the turn can make
        connectors = {"twitter": SimulatedConnector("twitter", 280, seed=3, clock=clock,
                                                    outages=((0, 10**9),))}
        state = initial_state(8, weights={"post_text": 1.0}, sentiment_threshold=-1.0)
        new_state, receipts = step(
            state, memory, connectors, chain, "dust settles on the piano",
            generator=generator, clock=clock,
        )
        assert receipts == []
        assert new_state.turn_counter == 1
        assert len(memory) == 1  # observation only, failed dispatches stored nothing

    def test_no_connectors_rejected(self, generator):
        clock, memory, _, chain = self.make_components()
        state = initial_state(8, weights={"post_text": 1.0}, sentiment_threshold=-1.0)
        with pytest.raises(ValueError, match="at least one posting target"):
            step(state, memory, {}, chain, "dust settles on the piano",
                 generator=generator, clock=clock)

    def test_observation_embedded_once(self, generator, monkeypatch):
        clock, memory, connectors, chain = self.make_components()
        memory.add_text("seed", "the harbor wakes slowly", timestamp=0)
        embedded = []
        original = HashedEngine.embed_text

        def counting(engine, text):
            embedded.append(text)
            return original(engine, text)

        monkeypatch.setattr(HashedEngine, "embed_text", counting)
        state = initial_state(6, weights={"post_text": 1.0}, sentiment_threshold=-1.0)
        observation = "the ferry charges through fog"
        step(state, memory, connectors, chain, observation, generator=generator, clock=clock)
        assert embedded.count(observation) == 1
        assert embedded[0] == observation  # plan's retrieve; the record reuses it

    def test_gate_soundness_over_fuzz(self, generator):
        clock, memory, connectors, chain = self.make_components()
        state = initial_state(10, weights={"post_text": 1.0}, sentiment_threshold=0.0)
        rng = np.random.default_rng(44)
        pool = ("the bright harbor", "bleak ruin on the hill", "a calm gentle morning",
                "grim broken fences", "the market opens loud")
        dispatched = 0
        for i in range(60):
            observation = pool[int(rng.integers(len(pool)))] + f" {i}"
            state, receipts = step(
                state, memory, connectors, chain, observation, generator=generator,
                clock=clock,
            )
            for receipt in receipts:
                if receipt.request.kind == "post_text":
                    dispatched += 1
                    assert sentiment_score(receipt.request.content) >= 0.0
        assert dispatched > 0


class TestStateValidation:
    def test_needs_positive_weight(self):
        with pytest.raises(ValueError):
            AgentState(persona_seed=1, strategy_weights={"post_text": 0.0})

    def test_rejects_unknown_kind(self):
        with pytest.raises(ValueError):
            AgentState(persona_seed=1, strategy_weights={"sing": 1.0})

    def test_threshold_bounds(self):
        with pytest.raises(ValueError):
            AgentState(persona_seed=1, strategy_weights={"post_text": 1.0},
                       sentiment_threshold=2.0)

    def test_rejects_weights_whose_sum_overflows(self):
        # each weight is finite; their sum is not, so p would be 0/inf
        with pytest.raises(ValueError, match="finite sum, got inf"):
            initial_state(0, {"post_text": 1e308, "mint_art": 1e308})
        initial_state(0, {"post_text": 1e308, "mint_art": 1e307})  # finite: accepted


@pytest.mark.parametrize("flags, named", [
    ({"eta": -1.0}, "eta must be"),
    ({"eta": -5.0}, "eta must be"),
    ({"eta": float("nan")}, "eta must be"),
    ({"max_actions": -2}, "max_actions must be"),
], ids=["eta-minus-one", "eta-minus-five", "eta-nan", "max-actions-negative"])
def test_session_flags_checked_before_first_turn(generator, flags, named):
    """eta <= -1 would zero or flip a weight; a negative cap means nothing."""
    observed = []
    connectors = {"twitter": SimulatedConnector("twitter", seed=0)}
    with pytest.raises(ValueError, match=named):
        run_session(initial_state(0), MemoryStore(CFG), connectors, make_chain(), generator,
                    lambda turn: observed.append(turn) or "a calm sea", 3, **flags)
    assert observed == []


def test_negative_turns_refused_zero_accepted(generator):
    """A negative turn count is refused before anything runs; zero turns is
    a valid, empty session."""
    connectors = {"twitter": SimulatedConnector("twitter", seed=0)}
    with pytest.raises(ValueError, match="turns must be non-negative, got -3"):
        run_session(initial_state(0), MemoryStore(CFG), connectors, make_chain(), generator,
                    lambda turn: "a calm sea", -3)
    final, _ = run_session(initial_state(0), MemoryStore(CFG), connectors, make_chain(),
                           generator, lambda turn: "a calm sea", 0)
    assert final.turn_counter == 0
