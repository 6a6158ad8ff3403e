"""Recursive self-dialogue: the agent converses with itself, feeding every
utterance back into memory, with optional injection of fresh human-corpus
sentences as an entropy source.

Each turn the observation is either the agent's own previous output or,
with probability injection_rate, a corpus sentence. The per-turn diversity
report covers a sliding window of the most recent generated texts, so a
narrowing vocabulary shows up as falling distinct-2 and dispersion.
"""

from __future__ import annotations

import statistics
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .corpus import human_corpus
from .diversity import DiversityReport, distinct_n, embedding_dispersion, shannon_entropy, tail_mass
from .errors import BadConfigError, ZerebroError
from .generator import Generator
from .memory import MemoryStore

WINDOW = 25
DEFAULT_OPENING_PROMPT = "the corridor repeats itself in soft fluorescent hums"


@dataclass(frozen=True)
class BackroomsConfig:
    turns: int
    seed: int
    injection_rate: float = 0.0
    opening_prompt: str = DEFAULT_OPENING_PROMPT
    store_injected: bool = False

    def __post_init__(self):
        if self.turns < 1:
            raise BadConfigError(f"turns must be positive, got {self.turns}")
        if not 0.0 <= self.injection_rate <= 1.0:
            raise BadConfigError(f"injection_rate must lie in [0, 1], got {self.injection_rate}")
        if not self.opening_prompt.strip():
            raise BadConfigError("opening_prompt must be non-empty")


@dataclass(frozen=True)
class TurnRecord:
    turn: int
    observation: str
    injected: bool
    generated: str
    memory_ids: tuple[str, ...]
    report: DiversityReport


@dataclass(frozen=True)
class DialogueTranscript:
    config: BackroomsConfig
    turns: tuple[TurnRecord, ...] = field(default_factory=tuple)

    def final_report(self) -> DiversityReport:
        return self.turns[-1].report


class TurnError(ZerebroError):
    """A generator or memory failure, annotated with the failing turn."""

    def __init__(self, turn: int, cause: Exception):
        super().__init__(f"turn {turn}: {type(cause).__name__}: {cause}")
        self.turn = turn


def _window_report(
    texts: Sequence[str],
    vectors: Sequence[np.ndarray],
    baseline: tuple[float, float],
) -> DiversityReport:
    tokens: dict[str, int] = {}
    for text in texts:
        for tok in text.split():
            tokens[tok] = tokens.get(tok, 0) + 1
    dispersion = embedding_dispersion(vectors) if len(vectors) >= 2 else 0.0
    mu0, sigma0 = baseline
    return DiversityReport(
        shannon_entropy_bits=shannon_entropy(tokens),
        distinct_1=distinct_n(texts, 1),
        distinct_2=distinct_n(texts, 2),
        embedding_dispersion=dispersion,
        tail_mass=tail_mass([len(t.split()) for t in texts], mu0, sigma0, 2.0),
    )


def run_backrooms(
    config: BackroomsConfig,
    *,
    memory: MemoryStore,
    generator: Generator,
) -> DialogueTranscript:
    """Run the dialogue; deterministic for a given config and components.

    Injected sentences come from the bundled human corpus. The injection
    coin and the corpus pick consume the random stream every turn
    regardless of outcome, so runs at different injection rates with the
    same seed stay aligned (common random numbers).
    """
    pool = human_corpus()
    lengths = [len(s.split()) for s in pool]
    baseline = statistics.fmean(lengths), statistics.pstdev(lengths)
    rng = np.random.default_rng(config.seed)

    window_texts: list[str] = []
    window_vectors: list[np.ndarray] = []
    records: list[TurnRecord] = []
    last_output = config.opening_prompt

    for turn in range(config.turns):
        coin = rng.random()
        pick = int(rng.integers(len(pool)))
        injected = turn > 0 and coin < config.injection_rate
        observation = pool[pick] if injected else last_output

        try:
            retrieved = memory.retrieve(observation, 5) if len(memory) else []
            context = [r.record.text for r in retrieved]
            turn_seed = (config.seed + 0x9E3779B9 * (turn + 1)) % 2**63
            generated = generator.generate(observation, context, turn_seed)

            ids = []
            if injected and config.store_injected:
                rec = memory.make_record(f"brh-{turn:05d}", observation, "human", turn)
                memory.upsert(rec)
                ids.append(rec.id)
            rec = memory.make_record(f"br-{turn:05d}", generated, "agent", turn)
            memory.upsert(rec)
            ids.append(rec.id)
        except ZerebroError as exc:
            raise TurnError(turn, exc) from exc

        window_texts.append(generated)
        window_vectors.append(rec.vector)
        if len(window_texts) > WINDOW:
            window_texts.pop(0)
            window_vectors.pop(0)

        records.append(
            TurnRecord(
                turn=turn,
                observation=observation,
                injected=injected,
                generated=generated,
                memory_ids=tuple(ids),
                report=_window_report(window_texts, window_vectors, baseline),
            )
        )
        last_output = generated

    return DialogueTranscript(config=config, turns=tuple(records))


def write_transcript(transcript: DialogueTranscript, path) -> None:
    """Turn-per-block text file with metric lines, plus a summary row."""
    cfg = transcript.config
    blocks = [
        "backrooms transcript v1",
        f"turns={cfg.turns} seed={cfg.seed} injection_rate={cfg.injection_rate} "
        f"store_injected={cfg.store_injected} window={WINDOW}",
        f"opening_prompt: {cfg.opening_prompt}",
        "",
    ]
    for t in transcript.turns:
        blocks.append(f"turn {t.turn} injected={t.injected}")
        blocks.append(f"observation: {t.observation}")
        blocks.append(f"generated: {t.generated}")
        blocks.append(f"memory: {','.join(t.memory_ids)}")
        blocks.append(t.report.as_text_block())
        blocks.append("")
    final = transcript.final_report()
    blocks.append(
        "summary "
        f"final_distinct_2={final.distinct_2!r} "
        f"final_dispersion={final.embedding_dispersion!r} "
        f"final_entropy_bits={final.shannon_entropy_bits!r}"
    )
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\n".join(blocks) + "\n")
