"""Backrooms dialogue: bookkeeping exactness, determinism, windowing,
the kept window against a full recompute, embed counts, error annotation,
transcript files."""

import math
import statistics

import numpy as np
import pytest

from zerebro.backrooms import (
    WINDOW,
    BackroomsConfig,
    TurnError,
    _Window,
    run_backrooms,
    write_transcript,
)
from zerebro.corpus import human_corpus
from zerebro.diversity import distinct_n, tail_mass
from zerebro.embedding import EmbeddingConfig, HashedEngine
from zerebro.errors import BadConfigError, NoNgramsError
from zerebro.generator import MarkovGenerator
from zerebro.memory import MemoryStore

CFG = EmbeddingConfig(dimension=64)


def run(turns=10, seed=0, rate=0.0, store_injected=False, memory=None, config=CFG):
    memory = memory if memory is not None else MemoryStore(config)
    config = BackroomsConfig(
        turns=turns, seed=seed, injection_rate=rate, store_injected=store_injected
    )
    return run_backrooms(config, memory=memory, generator=MarkovGenerator()), memory


class TestConfig:
    def test_turns_positive(self):
        with pytest.raises(BadConfigError):
            BackroomsConfig(turns=0, seed=1)

    def test_rate_bounds(self):
        with pytest.raises(BadConfigError):
            BackroomsConfig(turns=1, seed=1, injection_rate=1.5)


class TestRun:
    def test_memory_grows_by_exactly_turns(self):
        transcript, memory = run(turns=10, rate=0.0)
        assert len(memory) == 10
        assert len(transcript.turns) == 10

    def test_memory_growth_with_stored_injections(self):
        transcript, memory = run(turns=40, seed=5, rate=0.7, store_injected=True)
        injected = sum(1 for t in transcript.turns if t.injected)
        assert injected > 0
        assert len(memory) == 40 + injected

    def test_identical_config_identical_transcripts(self):
        a, _ = run(turns=15, seed=9, rate=0.3)
        b, _ = run(turns=15, seed=9, rate=0.3)
        assert a == b

    def test_every_memory_id_exists(self):
        transcript, memory = run(turns=12, seed=2, rate=0.5, store_injected=True)
        for turn in transcript.turns:
            for record_id in turn.memory_ids:
                assert record_id in memory

    def test_first_turn_uses_opening_prompt(self):
        transcript, _ = run(turns=3, seed=4)
        assert transcript.turns[0].observation == transcript.config.opening_prompt
        assert not transcript.turns[0].injected

    def test_self_feeding_chains_observations(self):
        transcript, _ = run(turns=6, seed=4, rate=0.0)
        for prev, cur in zip(transcript.turns, transcript.turns[1:]):
            assert cur.observation == prev.generated

    def test_agent_source_records(self):
        _, memory = run(turns=5, seed=1)
        assert memory.stats().source_histogram == {"agent": 5}

    def test_window_caps_at_25(self):
        transcript, _ = run(turns=30, seed=3)
        # distinct_2 at turn 29 covers only the last WINDOW texts
        texts = [t.generated for t in transcript.turns][-WINDOW:]
        from zerebro.diversity import distinct_n

        assert transcript.turns[-1].report.distinct_2 == pytest.approx(
            distinct_n(texts, 2)
        )

    def test_turn_error_carries_index(self):
        from zerebro.errors import EmptyTextError

        class Broken:
            calls = 0

            def generate(self, prompt, retrieved_context, seed):
                Broken.calls += 1
                if Broken.calls >= 3:
                    raise EmptyTextError("boom")
                return "fine for now"

        config = BackroomsConfig(turns=5, seed=0)
        with pytest.raises(TurnError) as excinfo:
            run_backrooms(config, memory=MemoryStore(CFG), generator=Broken())
        assert excinfo.value.turn == 2
        assert "EmptyTextError" in str(excinfo.value)


class RepeatingGenerator:
    """Texts over a four-word vocabulary, with tokens and bigrams repeated
    within a text and across texts, so window counts rise and fall to 0."""

    def generate(self, prompt, retrieved_context, seed):
        words = ["moth", "lamp", "moth", "dust"]
        return " ".join(words[(seed >> k) % 4] for k in range(1 + seed % 7))


def full_dispersion(vectors):
    """Dispersion over the whole window: stack, normalise every row, gram."""
    mat = np.array(vectors, dtype=np.float64)
    unit = mat / np.linalg.norm(mat, axis=1)[:, None]
    gram = np.clip(unit @ unit.T, -1.0, 1.0)
    return float(np.mean(1.0 - gram[np.triu_indices(len(vectors), k=1)]))


def full_entropy(histogram):
    """Entropy in bits over positive counts, summed in histogram order."""
    total = sum(histogram.values())
    h = 0.0
    for c in histogram.values():
        p = c / total
        h -= p * math.log2(p)
    return max(0.0, h)


def recomputed(transcript, memory):
    """Every turn's report, rebuilt from scratch over the window's texts with
    formulas written out here, not the library's own."""
    lengths = [len(s.split()) for s in human_corpus()]
    mu0, sigma0 = statistics.fmean(lengths), statistics.pstdev(lengths)
    reports = []
    for turn in range(len(transcript.turns)):
        window = transcript.turns[max(0, turn + 1 - WINDOW) : turn + 1]
        texts = [t.generated for t in window]
        vectors = [memory.get(t.memory_ids[-1]).vector for t in window]
        tokens: dict[str, int] = {}
        for text in texts:
            for tok in text.split():
                tokens[tok] = tokens.get(tok, 0) + 1
        reports.append({
            "shannon_entropy_bits": full_entropy(tokens),
            "distinct_1": distinct_n(texts, 1),
            "distinct_2": distinct_n(texts, 2),
            "embedding_dispersion": full_dispersion(vectors) if len(vectors) > 1 else 0.0,
            "tail_mass": tail_mass([len(t.split()) for t in texts], mu0, sigma0, 2.0),
        })
    return reports


class TestKeptWindow:
    """The sliding window's report equals the full recompute, by ==."""

    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    @pytest.mark.parametrize("rate,stored", [(0.0, False), (0.5, False), (1.0, True)])
    def test_every_turn_equals_recompute(self, seed, rate, stored):
        transcript, memory = run(turns=70, seed=seed, rate=rate, store_injected=stored)
        for turn, expected in zip(transcript.turns, recomputed(transcript, memory)):
            assert vars(turn.report) == expected, turn.turn

    @pytest.mark.parametrize("dimension", [5, 33, 768])
    def test_odd_dimensions_equal_recompute(self, dimension):
        # rows of 5 or 33 float64s put most kept slices off 64-byte boundaries;
        # 130 turns pass the row array's end, 2 * WINDOW rows, four times
        transcript, memory = run(turns=130, seed=dimension, rate=0.5, store_injected=True,
                                 config=EmbeddingConfig(dimension=dimension))
        for turn, expected in zip(transcript.turns, recomputed(transcript, memory)):
            assert vars(turn.report) == expected, turn.turn

    @pytest.mark.parametrize("dimension", [5, 33, 768])
    def test_kept_rows_equal_the_batch_past_compaction(self, dimension):
        # 128 pushes into 2 * WINDOW rows: the kept rows move to the front 4 times
        rng = np.random.default_rng(dimension)
        vectors = rng.standard_normal((5 * WINDOW + 3, dimension))
        window = _Window(dimension)
        for i, vector in enumerate(vectors):
            window.push(f"text {i}", vector)
            batch = vectors[max(0, i + 1 - WINDOW) : i + 1]
            live = window._rows[window._stop - len(batch) : window._stop]
            assert np.array_equal(live, batch / np.linalg.norm(batch, axis=1)[:, None]), i

    @pytest.mark.parametrize("seed", [0, 5])
    def test_repeated_tokens_equal_recompute(self, seed):
        memory = MemoryStore(CFG)
        config = BackroomsConfig(turns=80, seed=seed, injection_rate=0.3)
        transcript = run_backrooms(config, memory=memory, generator=RepeatingGenerator())
        assert any(len(set(t.generated.split())) < len(t.generated.split())
                   for t in transcript.turns)
        for turn, expected in zip(transcript.turns, recomputed(transcript, memory)):
            assert vars(turn.report) == expected, turn.turn

    def test_one_token_texts_have_no_bigrams(self):
        class OneToken:
            def generate(self, prompt, retrieved_context, seed):
                return "lantern"

        config = BackroomsConfig(turns=3, seed=0)
        with pytest.raises(NoNgramsError, match="no sequence contains an n-gram of size 2"):
            run_backrooms(config, memory=MemoryStore(CFG), generator=OneToken())

    def test_bigrams_evicted_to_none(self):
        # one two-token text, then one-token texts: the window loses its
        # last bigram when the first text is evicted, at turn WINDOW
        class FirstTwoTokens:
            calls = 0

            def generate(self, prompt, retrieved_context, seed):
                FirstTwoTokens.calls += 1
                return "lantern hum" if FirstTwoTokens.calls == 1 else f"w{FirstTwoTokens.calls}"

        config = BackroomsConfig(turns=WINDOW + 5, seed=0)
        with pytest.raises(NoNgramsError):
            run_backrooms(config, memory=MemoryStore(CFG), generator=FirstTwoTokens())
        assert FirstTwoTokens.calls == WINDOW + 1


@pytest.fixture
def embedded(monkeypatch):
    """The texts the hashed engine embeds, in call order."""
    texts = []
    original = HashedEngine.embed_text

    def counting(self, text):
        texts.append(text)
        return original(self, text)

    monkeypatch.setattr(HashedEngine, "embed_text", counting)
    return texts


class TestEmbedOnce:
    def test_self_dialogue_embeds_each_text_once(self, embedded):
        transcript, _ = run(turns=200, seed=1, rate=0.0)
        # the opening prompt is never embedded: the store is empty at turn 0
        assert embedded == [t.generated for t in transcript.turns]

    def test_stored_injections_embed_each_text_once(self, embedded):
        transcript, _ = run(turns=60, seed=2, rate=0.5, store_injected=True)
        stored = []
        for t in transcript.turns:
            if t.injected:
                stored.append(t.observation)
            stored.append(t.generated)
        # a sentence injected again is one the store holds: it is not embedded again
        assert len(set(stored)) < len(stored)
        assert embedded == list(dict.fromkeys(stored))


class TestDirectionCheck:
    def test_injection_raises_windowed_diversity_on_matched_seeds(self):
        # small version of the acceptance run: 6 matched seeds, 60 turns
        d0, d5 = [], []
        for seed in range(6):
            zero, _ = run(turns=60, seed=seed, rate=0.0)
            half, _ = run(turns=60, seed=seed, rate=0.5)
            d0.append(zero.final_report().distinct_2)
            d5.append(half.final_report().distinct_2)
        assert sum(d5) / len(d5) >= sum(d0) / len(d0)


class TestTranscriptFile:
    def test_block_format_and_summary(self, tmp_path):
        transcript, _ = run(turns=4, seed=8, rate=0.25)
        path = tmp_path / "transcript.txt"
        write_transcript(transcript, path)
        text = path.read_text(encoding="utf-8")
        assert text.startswith("backrooms transcript v1\n")
        assert text.count("turn ") >= 4
        assert "distinct_2=" in text
        assert "summary final_distinct_2=" in text

    def test_byte_identical_across_runs(self, tmp_path):
        a, _ = run(turns=5, seed=12, rate=0.4)
        b, _ = run(turns=5, seed=12, rate=0.4)
        write_transcript(a, tmp_path / "a.txt")
        write_transcript(b, tmp_path / "b.txt")
        assert (tmp_path / "a.txt").read_bytes() == (tmp_path / "b.txt").read_bytes()
