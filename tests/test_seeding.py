"""Seeded draws: `Draws` against numpy's own `default_rng`, and the text
generator and the planner against oracles that draw through numpy's
`Generator` methods, as both did before they read PCG64 words directly.
Values are compared with ==, arrays by their bytes."""

import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from zerebro.agent import ACTION_KINDS, AgentState, _kind_cdf, plan
from zerebro.embedding import EmbeddingConfig
from zerebro.generator import MarkovGenerator
from zerebro.memory import MemoryStore
from zerebro.seeding import Draws, seed, u64

# both sides of every 32-bit and 64-bit branch: no draw at 1, Lemire on
# 32-bit halves below 2**32 (heavy rejection at 2**31 + 1 and 3 * 2**30), a
# bare half at 2**32, Lemire on the 128-bit product above, a bare word at 2**64
BOUNDS = [1, 2, 3, 15, 2**31 + 1, 3 * 2**30, 2**32 - 1, 2**32, 2**32 + 1, 2**63, 2**64]


def oracle_integers(rng, n):
    # uint64, so that 2**64 is in range; below 2**63 it draws what int64 does
    return int(rng.integers(n, dtype=np.uint64))


def replay(parts, calls):
    """The values of `calls` from Draws and from default_rng of the same seed."""
    draws = Draws(seed(*parts))
    rng = np.random.default_rng(seed(*parts))
    ours, theirs = [], []
    for call in calls:
        if call == "random":
            ours.append(draws.random())
            theirs.append(rng.random())
        else:
            ours.append(draws.integers(call))
            theirs.append(oracle_integers(rng, call))
    return ours, theirs


class TestDraws:
    @pytest.mark.parametrize("n", BOUNDS)
    def test_interleaved_with_random(self, n):
        # 600 calls use well over 300 words: the 32-word batch refills many times
        chooser = random.Random(n)
        for key in range(4):
            calls = [n if chooser.random() < 0.7 else "random" for _ in range(600)]
            ours, theirs = replay((u64(key), str(n).encode()), calls)
            assert ours == theirs

    def test_every_bound_in_one_sequence(self):
        chooser = random.Random(0)
        calls = [chooser.choice(BOUNDS + ["random"]) for _ in range(2000)]
        ours, theirs = replay((b"mixed",), calls)
        assert ours == theirs

    @settings(max_examples=200, deadline=None)
    @given(parts=st.lists(st.binary(max_size=12), max_size=3),
           calls=st.lists(st.one_of(st.just("random"), st.sampled_from(BOUNDS),
                                    st.integers(1, 2**64)), max_size=120))
    def test_any_sequence(self, parts, calls):
        ours, theirs = replay(parts, calls)
        assert ours == theirs

    def test_key_seeds_like_the_shared_helper(self):
        draws = Draws(seed(b"theme", key=u64(7)))
        rng = np.random.default_rng(seed(b"theme", key=u64(7)))
        assert [draws.random() for _ in range(40)] == [rng.random() for _ in range(40)]

    @pytest.mark.parametrize("run_seed", [0, 7, 123456789, 2**64 + 5])
    def test_run_seed_draws_like_default_rng(self, run_seed):
        # backrooms' per-turn coin and corpus pick, from the run's own seed
        draws, rng = Draws(run_seed), np.random.default_rng(run_seed)
        ours = [(draws.random(), draws.integers(165)) for _ in range(300)]
        assert ours == [(rng.random(), int(rng.integers(165))) for _ in range(300)]

    def test_negative_seed_refused_like_default_rng(self):
        with pytest.raises(ValueError):
            np.random.default_rng(-1)
        with pytest.raises(ValueError):
            Draws(-1)

    @pytest.mark.parametrize("low, high, size", [
        (0.5, 1.5, 3),
        (0.5, 1.5, (2, 5)),
        (-3.0, 7.25, 1),
        (0.0, 1.0, 0),
        (np.tile([1.0, 1.0, 0.0, 0.4], 12), np.tile([7.0, 7.0, 2 * np.pi, 1.0], 12), None),
        (np.zeros((3, 1)), np.arange(1.0, 5.0), None),
        (np.arange(4.0), 10.0, None),
    ], ids=["scalar", "scalar-2d", "scalar-one", "empty", "art-bounds", "broadcast", "array-low"])
    def test_uniform(self, low, high, size):
        draws = Draws(seed(b"uniform"))
        rng = np.random.default_rng(seed(b"uniform"))
        # a half-word held from an integer draw is untouched by uniform, as in numpy
        assert draws.integers(15) == oracle_integers(rng, 15)
        ours = draws.uniform(low, high, size)
        theirs = rng.uniform(low, high, size)
        assert ours.shape == theirs.shape
        assert ours.tobytes() == theirs.tobytes()
        assert [draws.integers(15), draws.random()] == [oracle_integers(rng, 15), rng.random()]

    @pytest.mark.parametrize("n", [0, -1, 2**64 + 1])
    def test_out_of_range_bound_raises(self, n):
        with pytest.raises(ValueError):
            Draws(seed(b"x")).integers(n)


# --- generate against its numpy-Generator form ----------------------------------------


GENERATOR = MarkovGenerator()


def oracle_generate(gen, prompt, retrieved_context, seed_):
    """MarkovGenerator.generate as it drew through numpy's Generator."""
    rng = np.random.default_rng(seed(u64(seed_), prompt.encode("utf-8"),
                                     *(b"\x1f" + ctx.encode("utf-8") for ctx in retrieved_context)))
    focus: list[str] = []
    seen: set[str] = set()
    for text in [prompt, *retrieved_context]:
        for tok in text.split():
            if tok not in seen:
                seen.add(tok)
                focus.append(tok)
    focus_in_chain = [t for t in focus if t in gen._chain]

    def pick_start() -> str:
        if focus_in_chain and rng.random() < 0.85:
            return focus_in_chain[rng.integers(len(focus_in_chain))]
        return gen._starts[rng.integers(len(gen._starts))]

    length = int(rng.integers(gen.min_tokens, gen.max_tokens + 1))
    word = pick_start()
    out = [word]
    while len(out) < length:
        options = gen._chain.get(word)
        if options is None or rng.random() < gen.jump_prob:
            word = pick_start()
        else:
            focused = [w for w in options if w in seen]
            if focused and rng.random() < gen.focus_bias:
                word = focused[rng.integers(len(focused))]
            else:
                word = options[rng.integers(len(options))]
        out.append(word)
    return " ".join(out)


CHAIN_WORDS = sorted(GENERATOR._chain)
# words no chain entry has: a context of these gives no focus start
STRANGERS = ["zq", "xyzzy", "Ω", "🜂", "qqq-", "lantern?!"]
assert not set(STRANGERS) & set(GENERATOR._chain)

# the separators str.split() knows, so joined texts are split as each is
_spaces = st.sampled_from([" ", "  ", "\t", "\n", "　", "\xa0"])
_chain_text = st.lists(st.sampled_from(CHAIN_WORDS), min_size=1, max_size=10).map(" ".join)
_stranger_text = st.lists(st.sampled_from(STRANGERS), min_size=1, max_size=4).map(" ".join)
_texts = st.one_of(
    _chain_text,
    _stranger_text,
    st.lists(st.one_of(st.sampled_from(CHAIN_WORDS + STRANGERS), _spaces), max_size=12)
    .map("".join),
    st.text(max_size=30),
)
_seeds = st.integers(0, 2**64 - 1)


class TestGenerateOracle:
    @settings(max_examples=300, deadline=None)
    @given(prompt=_texts, context=st.lists(_texts, max_size=5), seed_=_seeds)
    def test_matches_the_oracle(self, prompt, context, seed_):
        assert GENERATOR.generate(prompt, context, seed_) == \
            oracle_generate(GENERATOR, prompt, context, seed_)

    @settings(max_examples=100, deadline=None)
    @given(prompt=_stranger_text, context=st.lists(_stranger_text, max_size=3), seed_=_seeds)
    def test_no_chain_words(self, prompt, context, seed_):
        assert GENERATOR.generate(prompt, context, seed_) == \
            oracle_generate(GENERATOR, prompt, context, seed_)

    def test_corpus_prompts(self):
        chooser = random.Random(3)
        sentences = [" ".join(chooser.sample(CHAIN_WORDS, 8)) for _ in range(30)]
        for i in range(300):
            prompt = chooser.choice(sentences)
            context = chooser.sample(sentences, chooser.randint(0, 5))
            assert GENERATOR.generate(prompt, context, i) == \
                oracle_generate(GENERATOR, prompt, context, i)


# --- plan against its numpy-Generator form ------------------------------------------


class RecordingGenerator:
    """Text that names its arguments, so a plan's calls show in its requests."""

    def generate(self, prompt, retrieved_context, seed_):
        return f"{prompt}|{'/'.join(retrieved_context)}|{seed_}"


def oracle_requests(state, memory, observation, generator, targets, max_actions):
    """plan's draws as they went through numpy's Generator, as (kind, target,
    content, provenance) tuples."""
    retrieved = memory.retrieve(observation) if len(memory) else []
    context = [r.record.text for r in retrieved]
    provenance = tuple(r.record.id for r in retrieved)
    rng = np.random.default_rng(seed(u64(state.persona_seed), u64(state.turn_counter),
                                     observation.encode("utf-8")))
    kinds = [k for k in ACTION_KINDS if state.strategy_weights.get(k, 0.0) > 0]
    probs = np.array([state.strategy_weights[k] for k in kinds], dtype=np.float64)
    probs /= probs.sum()
    out = []
    for _ in range(int(rng.integers(0, max_actions + 1))):
        kind = kinds[rng.choice(len(kinds), p=probs)]
        action_seed = int(rng.integers(0, 2**63))
        if kind == "post_text":
            content = generator.generate(observation, context, action_seed)
            target = targets[int(rng.integers(len(targets)))]
        else:
            theme_pool = observation.split()
            content = {"theme": theme_pool[int(rng.integers(len(theme_pool)))],
                       "seed": action_seed}
            target = "simchain"
        out.append((kind, target, content, provenance))
    return out


def _memory():
    store = MemoryStore(EmbeddingConfig(dimension=32))
    for i, text in enumerate(["the lantern at the ferry", "an owl over the mill",
                              "salt on the harbor wall", "the market opens loud"]):
        store.add_text(f"m{i}", text)
    return store


MEMORY = _memory()
EMPTY = MemoryStore(EmbeddingConfig(dimension=32))

# zero weights drop a kind; the positive ones span many binades, so the cdf
# arithmetic rounds
_weight = st.one_of(st.just(0.0), st.floats(1e-300, 1e300), st.floats(0.01, 10.0))
_weights = st.fixed_dictionaries({kind: _weight for kind in ACTION_KINDS}).filter(
    lambda w: any(v > 0 for v in w.values()))
_observations = st.one_of(_chain_text, st.text(min_size=1, max_size=20)).filter(str.strip)


class TestPlanOracle:
    @settings(max_examples=300, deadline=None)
    @given(weights=_weights, persona=_seeds, turn=st.integers(0, 2**64 - 1),
           observation=_observations, max_actions=st.integers(0, 8),
           targets=st.sampled_from([("twitter",), ("telegram", "twitter", "warpcast")]),
           store=st.sampled_from([MEMORY, EMPTY]))
    def test_matches_the_oracle(self, weights, persona, turn, observation, max_actions,
                                targets, store):
        state = AgentState(persona_seed=persona, strategy_weights=weights, turn_counter=turn)
        generator = RecordingGenerator()
        requests = plan(state, store, observation, generator, targets=targets,
                        max_actions=max_actions)
        assert [(r.kind, r.target, r.content, r.provenance) for r in requests] == \
            oracle_requests(state, store, observation, generator, targets, max_actions)

    @settings(max_examples=500, deadline=None)
    @given(weights=_weights)
    def test_cdf_is_numpys(self, weights):
        # a draw lands within an ulp of a cdf value too rarely for the plans
        # above to show a last-bit difference; compare the cdf itself
        kinds, cdf = _kind_cdf(weights)
        p = np.array([weights[k] for k in kinds])
        p /= p.sum()
        expected = p.cumsum()
        expected /= expected[-1]
        assert kinds == [k for k in ACTION_KINDS if weights[k] > 0]
        assert cdf == expected.tolist()

    def test_zero_max_actions_plans_nothing(self):
        state = AgentState(persona_seed=1, strategy_weights=dict.fromkeys(ACTION_KINDS, 1.0))
        for i in range(20):
            assert plan(state, MEMORY, f"the ferry {i}", RecordingGenerator(), max_actions=0) == []

    def test_markov_generator_through_plan(self):
        state = AgentState(persona_seed=7, strategy_weights={"post_text": 3.0, "mint_art": 1.0})
        for i in range(40):
            observation = f"the lantern swings over the harbor {i}"
            requests = plan(state, MEMORY, observation, GENERATOR, max_actions=4)
            assert [(r.kind, r.target, r.content, r.provenance) for r in requests] == \
                oracle_requests(state, MEMORY, observation, GENERATOR, ("twitter",), 4)
