"""Pluggable text generation behind a tiny interface.

The default generator is a seeded Markov walk over the bundled corpus,
biased toward the vocabulary of the prompt and the retrieved context; its
bias, restart probability and length range are fixed constants.
That bias is what makes the recursive experiments meaningful: an agent
feeding on its own output keeps re-walking the same neighborhoods, while
fresh human sentences open new ones.

Contract: generate(prompt, retrieved_context, seed) is a pure function of
its arguments. Any object with that method (a remote LLM client included)
can be dropped in.
"""

from __future__ import annotations

from typing import Protocol, Sequence

from .corpus import human_corpus
from .seeding import stream, u64


class Generator(Protocol):
    def generate(self, prompt: str, retrieved_context: Sequence[str], seed: int) -> str: ...


class MarkovGenerator:
    """Order-1 word chain over the bundled corpus, with focus-vocabulary bias.

    The knobs are constants. focus_bias is the probability of preferring a
    successor that already appears in the prompt/context vocabulary;
    jump_prob restarts the walk at a focus word; each text has between
    min_tokens and max_tokens tokens. Higher bias tightens the feedback loop.
    """

    focus_bias = 0.55
    jump_prob = 0.3
    min_tokens = 6
    max_tokens = 20

    def __init__(self):
        self._chain: dict[str, list[str]] = {}
        self._starts: list[str] = []
        # the corpus loader drops blank lines, so every sentence has a token
        for sentence in human_corpus():
            tokens = sentence.split()
            self._starts.append(tokens[0])
            for a, b in zip(tokens, tokens[1:]):
                self._chain.setdefault(a, []).append(b)

    def generate(self, prompt: str, retrieved_context: Sequence[str], seed: int) -> str:
        rng = stream(u64(seed), prompt.encode("utf-8"),
                     *(b"\x1f" + ctx.encode("utf-8") for ctx in retrieved_context))
        focus: list[str] = []
        seen: set[str] = set()
        for text in [prompt, *retrieved_context]:
            for tok in text.split():
                if tok not in seen:
                    seen.add(tok)
                    focus.append(tok)
        focus_in_chain = [t for t in focus if t in self._chain]

        def pick_start() -> str:
            if focus_in_chain and rng.random() < 0.85:
                return focus_in_chain[rng.integers(len(focus_in_chain))]
            return self._starts[rng.integers(len(self._starts))]

        length = int(rng.integers(self.min_tokens, self.max_tokens + 1))
        word = pick_start()
        out = [word]
        while len(out) < length:
            options = self._chain.get(word)
            if options is None or rng.random() < self.jump_prob:
                word = pick_start()
            else:
                focused = [w for w in options if w in seen]
                if focused and rng.random() < self.focus_bias:
                    word = focused[rng.integers(len(focused))]
                else:
                    word = options[rng.integers(len(options))]
            out.append(word)
        return " ".join(out)
