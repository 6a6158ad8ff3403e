"""Spans and counters recorded around zerebro's layers from the outside.

`install` replaces each traced function with a wrapper at the name its
callers look up: a module global for functions called through their
module (`zerebro.backrooms.distinct_n`, not `zerebro.diversity.distinct_n`,
because backrooms imports it by name), a class attribute for methods. A
span is (name, start, end, parent); spans stay in memory until `write`.
Counters are updated by the same wrappers, after the wrapped call.
"""

from __future__ import annotations

import functools
import os
import time
from collections import defaultdict
from pathlib import Path
from typing import Callable


class Tracer:
    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent index or -1]
        self._stack: list[int] = []
        self.counters: dict[str, float] = {}
        self.names: list[str] = []

    def wrap(self, name: str, fn: Callable, after=None, raised: str | None = None) -> Callable:
        """`fn` inside a span; `after(result, args)` runs once it returns,
        and a raised exception increments the `raised` counter."""
        spans, stack, counters, clock = self.spans, self._stack, self.counters, time.perf_counter
        self.names.append(name)
        if raised:
            counters[raised] = 0

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, 0.0, 0.0, stack[-1] if stack else -1]
            stack.append(len(spans))
            spans.append(span)
            span[1] = clock()
            try:
                result = fn(*args, **kwargs)
            except Exception:
                if raised:
                    counters[raised] += 1
                raise
            finally:
                span[2] = clock()
                stack.pop()
            if after is not None:
                after(result, args)
            return result

        return traced

    def add(self, counter: str, amount: float = 1) -> None:
        self.counters[counter] += amount

    def peak(self, gauge: str, value: float) -> None:
        self.counters[gauge] = max(self.counters[gauge], value)

    def summary(self) -> dict[str, float]:
        """calls, busy_s (inclusive) and self_s (minus child spans) per span
        name, self_s per layer (the name's first part), and the counters."""
        out: dict[str, float] = dict(self.counters)
        for name in self.names:
            out[f"{name}.calls"] = 0
            out[f"{name}.busy_s"] = 0.0
            out[f"{name}.self_s"] = 0.0
            out[f"{name.split('.')[0]}.self_s"] = 0.0
        child = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        for (name, start, end, _), children in zip(self.spans, child):
            out[f"{name}.calls"] += 1
            out[f"{name}.busy_s"] += end - start
            out[f"{name}.self_s"] += end - start - children
            out[f"{name.split('.')[0]}.self_s"] += end - start - children
        return out

    def write(self, path: Path) -> None:
        """One span per line: index, name, start, end, parent index."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("index\tname\tstart_s\tend_s\tparent\n")
            for i, (name, start, end, parent) in enumerate(self.spans):
                fh.write(f"{i}\t{name}\t{start!r}\t{end!r}\t{parent}\n")


def install(tracer: Tracer) -> Callable[[], None]:
    """Wrap every traced layer boundary; returns a function that unwraps them."""
    from zerebro import agent, backrooms, chain, collapse, embedding, generator, memory, platforms

    undo: list[tuple[object, str, object]] = []
    counters = tracer.counters

    def patch(owner, attr: str, name: str, after=None, raised=None, gauges=(), counts=()):
        for counter in (*gauges, *counts):
            counters[counter] = 0
        original = owner.__dict__[attr]
        if isinstance(original, classmethod):
            wrapped = classmethod(tracer.wrap(name, original.__func__, after, raised))
        else:
            wrapped = tracer.wrap(name, original, after, raised)
        undo.append((owner, attr, original))
        setattr(owner, attr, wrapped)

    add, peak = tracer.add, tracer.peak

    patch(embedding.HashedEngine, "embed_text", "embedding.embed_text",
          after=lambda r, a: add("embedding.bytes_in", len(a[1].encode("utf-8"))),
          counts=("embedding.bytes_in",))

    patch(memory.MemoryStore, "retrieve", "memory.retrieve",
          after=lambda r, a: add("memory.retrieve.records_scanned", len(a[0])),
          counts=("memory.retrieve.records_scanned",))
    patch(memory.MemoryStore, "upsert", "memory.upsert",
          after=lambda r, a: peak("memory.records", len(a[0])), gauges=("memory.records",))
    patch(memory.MemoryStore, "make_record", "memory.make_record")

    patch(generator.MarkovGenerator, "generate", "generator.generate",
          after=lambda r, a: add("generator.tokens_out", len(r.split())),
          counts=("generator.tokens_out",))

    for fn in ("embedding_dispersion", "distinct_n", "shannon_entropy", "tail_mass"):
        patch(backrooms, fn, f"diversity.{fn}")
    patch(backrooms, "run_backrooms", "backrooms.run_backrooms")

    patch(agent, "run_session", "agent.run_session")
    patch(agent, "step", "agent.step",
          after=lambda r, a: add("agent.actions_dispatched", len(r[1])),
          counts=("agent.actions_dispatched",))
    patch(agent, "plan", "agent.plan",
          after=lambda r, a: add("agent.actions_planned", len(r)),
          counts=("agent.actions_planned",))
    patch(agent, "gate", "agent.gate",
          after=lambda r, a: add("agent.gate.passed", r.passed), counts=("agent.gate.passed",))
    patch(agent, "integrate_feedback", "agent.integrate_feedback")

    log_sizes: dict[str, int] = defaultdict(int)

    def log_bytes(_result, args):
        path = str(args[0].path)
        size = os.path.getsize(path)
        add("platforms.log_append.bytes", size - log_sizes[path])
        log_sizes[path] = size

    patch(platforms.SimulatedConnector, "post", "platforms.post", raised="platforms.post.errors")
    patch(platforms.SimulatedConnector, "fetch_engagement", "platforms.fetch_engagement")
    patch(platforms.EventLog, "append", "platforms.log_append",
          after=log_bytes, counts=("platforms.log_append.bytes",))
    patch(platforms, "replay_log", "platforms.replay_log")

    for op in ("transfer", "mint_nft", "execute_sale", "deploy_token"):
        patch(chain.Ledger, op, f"chain.{op}", raised=f"chain.{op}.rejected")

    def serialized(result, _args):
        add("chain.serialize.bytes", len(result))
        peak("chain.entries", result.count("\n"))

    patch(chain, "generate_art", "chain.generate_art")
    patch(chain.Ledger, "serialize", "chain.serialize", after=serialized,
          counts=("chain.serialize.bytes",), gauges=("chain.entries",))
    patch(chain.Ledger, "verify", "chain.verify")
    patch(chain.Ledger, "save", "chain.save")
    patch(chain.Ledger, "load", "chain.load")

    patch(collapse, "compare_regimens", "collapse.compare_regimens")
    patch(collapse, "run_recursion", "collapse.run_recursion",
          after=lambda r, a: add("collapse.seed_generations", len(r.records) - 1),
          counts=("collapse.seed_generations",))
    patch(collapse, "step_generation", "collapse.step_generation")

    def uninstall() -> None:
        for owner, attr, original in reversed(undo):
            setattr(owner, attr, original)

    return uninstall


def derived(summary: dict[str, float]) -> dict[str, float]:
    """Ratios computed from the summary's counts."""
    gates = summary["agent.gate.calls"]
    return {"agent.gate.pass_ratio": summary["agent.gate.passed"] / gates if gates else 0.0}
