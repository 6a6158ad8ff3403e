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

The walk's draws come from `seeding.Draws` keyed by the seed, the prompt
and each context text, the draws numpy's default generator would make for
that seed, without numpy's per-call dispatch: a text of about 30 scalar
draws is a tight Python loop, which is why `generate` binds its draws and
the corpus tables to locals and builds each word's focus successors once
per call.
"""

from __future__ import annotations

from typing import Protocol, Sequence

from .corpus import human_corpus
from .seeding import Draws, u64


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
        draws = Draws(u64(seed), prompt.encode("utf-8"),
                      *(b"\x1f" + ctx.encode("utf-8") for ctx in retrieved_context))
        random, integers = draws.random, draws.integers
        chain, starts = self._chain, self._starts
        n_starts = len(starts)
        jump_prob, focus_bias = self.jump_prob, self.focus_bias
        # the focus vocabulary, in first-seen order
        focus = dict.fromkeys(" ".join((prompt, *retrieved_context)).split())
        focus_in_chain = [t for t in focus if t in chain]
        n_focus = len(focus_in_chain)
        # each word's focus successors, in chain order, made on first use
        focused_of: dict[str, list[str]] = {}

        length = self.min_tokens + integers(self.max_tokens - self.min_tokens + 1)
        out: list[str] = []
        options = None  # so the first word is a start pick, as after a jump
        while len(out) < length:
            if options is None or random() < jump_prob:
                if n_focus and random() < 0.85:
                    word = focus_in_chain[integers(n_focus)]
                else:
                    word = starts[integers(n_starts)]
            else:
                focused = focused_of.get(word)
                if focused is None:
                    focused = focused_of[word] = [w for w in options if w in focus]
                if focused and random() < focus_bias:
                    word = focused[integers(len(focused))]
                else:
                    word = options[integers(len(options))]
            out.append(word)
            options = chain.get(word)
        return " ".join(out)
