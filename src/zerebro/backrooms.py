"""Recursive self-dialogue: the agent converses with itself, feeding every
utterance back into memory, with optional injection of fresh human-corpus
sentences as an entropy source.

Each turn the observation is either the agent's own previous output or,
with probability injection_rate, a corpus sentence. The per-turn diversity
report covers a sliding window of the most recent generated texts, so a
narrowing vocabulary shows up as falling distinct-2 and dispersion.

The window (`_Window`) is kept, not rebuilt: each turn adds the new text
and evicts the oldest. It holds only what a turn cannot rebuild cheaply:
each text's token list, split once; each text's unit row, normalised once
as it enters, in one contiguous slice of a (2 * WINDOW, D) array that is
moved to the front when it reaches the end; and the bigram counts, so
distinct-2 is len(counts) / total, the integer ratio `distinct_n`
computes. The unigram histogram is rebuilt from the token lists in window
order, so entropy sums in the full recompute's order, and distinct-1 is
its key count over its total. Dispersion is one gram product over the
kept unit rows, and tail mass reads the token lists' lengths. The store
embeds each text once (see `memory`): the generated text stored as a
record is the next turn's query. So a turn's Python work is one split and
bigram count of its new text, one embed and one row normalisation per new
text, the retrieval scan, and the O(WINDOW) histogram and gram product;
nothing is re-split, re-embedded or re-normalised. Every figure equals
the full recompute over the window bit for bit.
"""

from __future__ import annotations

import itertools
import statistics
from collections import Counter, deque
from dataclasses import dataclass, field

import numpy as np

from .corpus import human_corpus
from .diversity import DiversityReport, distinct_n, normalize_rows, shannon_entropy, tail_mass
from .diversity import embedding_dispersion  # noqa: F401  the name perfbench/tracer.py wraps
from .diversity import unit_dispersion
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


class _Window:
    """The last WINDOW generated texts: token lists, unit rows, bigram counts."""

    def __init__(self, dimension: int):
        self._tokens: deque[list[str]] = deque()
        # the live unit rows are _rows[_stop - len(_tokens) : _stop]
        self._rows = np.empty((2 * WINDOW, dimension))
        self._stop = 0
        # a key is deleted when its count reaches 0
        self._bigrams: dict[tuple[str, str], int] = {}

    def push(self, text: str, vector: np.ndarray) -> None:
        """Add a text, evicting the oldest once the window holds WINDOW."""
        tokens = text.split()
        self._count(tokens, 1)
        self._tokens.append(tokens)
        if len(self._tokens) > WINDOW:
            self._count(self._tokens.popleft(), -1)
        if self._stop == len(self._rows):  # move the kept rows to the front
            self._stop = len(self._tokens) - 1
            self._rows[: self._stop] = self._rows[len(self._rows) - self._stop :]
        self._rows[self._stop] = vector
        normalize_rows(self._rows[self._stop : self._stop + 1])
        self._stop += 1

    def _count(self, tokens: list[str], step: int) -> None:
        """Add (step 1) or remove (step -1) one text's bigrams."""
        for gram in zip(tokens, tokens[1:]):
            count = self._bigrams.get(gram, 0) + step
            if count:
                self._bigrams[gram] = count
            else:
                del self._bigrams[gram]

    def report(self, baseline: tuple[float, float]) -> DiversityReport:
        n = len(self._tokens)
        dispersion = unit_dispersion(self._rows[self._stop - n : self._stop]) if n >= 2 else 0.0
        # rebuilt in window order, so entropy sums in the full recompute's order
        histogram = Counter(itertools.chain.from_iterable(self._tokens))
        bigrams = sum(self._bigrams.values())
        mu0, sigma0 = baseline
        return DiversityReport(
            shannon_entropy_bits=shannon_entropy(histogram),
            distinct_1=len(histogram) / histogram.total(),
            # with no bigram in the window, distinct_n raises NoNgramsError
            distinct_2=len(self._bigrams) / bigrams if bigrams else distinct_n(self._tokens, 2),
            embedding_dispersion=dispersion,
            tail_mass=tail_mass([len(t) for t in self._tokens], mu0, sigma0, 2.0),
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

    window = _Window(memory.dimension)
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
                ids.append(memory.add_text(f"brh-{turn:05d}", observation, "human", turn).id)
            rec = memory.add_text(f"br-{turn:05d}", generated, "agent", turn)
            ids.append(rec.id)
        except ZerebroError as exc:
            raise TurnError(turn, exc) from exc

        window.push(generated, rec.vector)
        records.append(
            TurnRecord(
                turn=turn,
                observation=observation,
                injected=injected,
                generated=generated,
                memory_ids=tuple(ids),
                report=window.report(baseline),
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
