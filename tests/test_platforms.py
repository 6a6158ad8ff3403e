"""Connectors and the event log: id monotonicity, length limits, fault
injection, engagement determinism, append-only replay."""

import json
import math
import threading

import numpy as np
import pytest

from zerebro.agent import initial_state, run_session, session_state_hash
from zerebro.chain import AgentChainClient, Ledger, to_nanos
from zerebro.clock import SimClock
from zerebro.corpus import human_corpus
from zerebro.diversity import distinct_n
from zerebro.embedding import EmbeddingConfig
from zerebro.errors import (
    ConnectorDownError,
    CorruptLogError,
    TooLongError,
    UnknownPostError,
)
from zerebro.generator import MarkovGenerator
from zerebro.memory import MemoryStore
from zerebro.platforms import (
    EngagementMetrics,
    EventLog,
    SimulatedConnector,
    load_connector_config,
    make_default_connectors,
    read_log,
    replay_log,
)
from zerebro.seeding import seed as seed_of


class TestConnector:
    def test_sequential_ids(self):
        connector = SimulatedConnector("twitter", 280)
        first = connector.post("one")
        second = connector.post("two")
        assert (first.post_id, second.post_id) == (0, 1)

    def test_twitter_limit_boundary(self):
        connector = SimulatedConnector("twitter", 280)
        connector.post("x" * 280)  # at the limit: accepted
        with pytest.raises(TooLongError):
            connector.post("x" * 281)

    def test_default_limit_is_1024(self):
        connectors = make_default_connectors()
        assert connectors["twitter"].char_limit == 280
        assert connectors["warpcast"].char_limit == 1024
        assert connectors["telegram"].char_limit == 1024

    def test_unknown_post(self):
        connector = SimulatedConnector("twitter", seed=3)
        with pytest.raises(UnknownPostError):
            connector.fetch_engagement(99)

    def test_engagement_repeatable(self):
        connector = SimulatedConnector("twitter", seed=3)
        pid = connector.post("gulls quarrel over the same empty shell").post_id
        assert connector.fetch_engagement(pid) == connector.fetch_engagement(pid)

    def test_engagement_monotone_in_diversity(self):
        connector = SimulatedConnector("twitter", seed=3)
        dull_text = " ".join(["aa"] * 8)  # one distinct token
        varied_text = "ab cd ef gh ij kl mn op"  # all distinct, same length
        assert len(dull_text) == len(varied_text)
        dull = connector.post(dull_text)
        varied = connector.post(varied_text)
        lo = connector.fetch_engagement(dull.post_id)
        hi = connector.fetch_engagement(varied.post_id)
        assert lo.likes <= hi.likes
        assert lo.shares <= hi.shares
        assert lo.comments <= hi.comments

    def test_engagement_matches_a_fresh_draw_per_call(self):
        def reference(connector, post_id):
            content = connector.get_post(post_id)
            diversity = distinct_n([content], 1) if content.strip() else 0.0
            rng = np.random.default_rng(seed_of(f"{connector.seed}:{len(content)}".encode("ascii")))
            u = rng.uniform(0.5, 1.5, 3)
            score = math.sqrt(len(content)) * (0.25 + 0.75 * diversity)
            return EngagementMetrics(post_id, int(score * u[0] * 2.0),
                                     int(score * u[1] * 0.6), int(score * u[2] * 0.4))

        # four posts of one length, of differing diversity, and three of other lengths
        texts = [" ".join(["aa"] * 8), "ab cd ef gh ij kl mn op", "ab ab ef ef ij ij mn op",
                 "   " + "x" * 20, "gulls", "gulls quarrel over the same empty shell", "   "]
        for seed in (3, 11):
            connector = SimulatedConnector("twitter", seed=seed)
            ids = [connector.post(text).post_id for text in texts]
            for post_id in ids + ids[::-1]:
                assert connector.fetch_engagement(post_id) == reference(connector, post_id)

    def test_whitespace_only_post_has_engagement(self):
        # post accepts it; it has no tokens, so its diversity scores 0.0
        connector = SimulatedConnector("twitter", seed=3)
        pid = connector.post("   ").post_id
        assert connector.fetch_engagement(pid).post_id == pid

    def test_concurrent_ids_gap_free(self):
        connector = SimulatedConnector("warpcast")
        ids = []
        lock = threading.Lock()

        def worker(k):
            for i in range(50):
                receipt = connector.post(f"post {k}-{i}")
                with lock:
                    ids.append(receipt.post_id)

        threads = [threading.Thread(target=worker, args=(k,)) for k in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert sorted(ids) == list(range(400))

    def test_content_hash_matches(self):
        import hashlib

        connector = SimulatedConnector("twitter")
        receipt = connector.post("specific words")
        assert receipt.content_hash == hashlib.sha256(b"specific words").hexdigest()

    def test_scheduled_outage_window(self):
        connector = SimulatedConnector("twitter", outages=((2, 4),))
        assert connector.post("a").post_id == 0
        assert connector.post("b").post_id == 1
        for _ in range(2):  # attempts 2 and 3 fall inside the outage
            with pytest.raises(ConnectorDownError):
                connector.post("c")
        assert connector.post("d").post_id == 2


class TestConnectorConfigFile:
    def test_load(self, tmp_path):
        path = tmp_path / "connectors.conf"
        path.write_text(
            "# fleet definition\n"
            "platform=twitter limit=280 seed=3 outage=1:2,5:7\n"
            "platform=telegram\n",
            encoding="utf-8",
        )
        connectors = load_connector_config(path)
        assert set(connectors) == {"twitter", "telegram"}
        assert connectors["twitter"].char_limit == 280
        assert connectors["twitter"].outages == ((1, 2), (5, 7))
        assert connectors["telegram"].char_limit == 1024
        connectors["twitter"].post("first attempt fine")
        with pytest.raises(ConnectorDownError):
            connectors["twitter"].post("second attempt down")

    def test_missing_platform_key(self, tmp_path):
        path = tmp_path / "bad.conf"
        path.write_text("limit=280\n", encoding="utf-8")
        with pytest.raises(ValueError):
            load_connector_config(path)

    @pytest.mark.parametrize("line", [
        "platform=x outage=5",
        "platform=x outage=1:2:3",
        "platform=x outage=a:4",
        "platform=x outage=1:2,7",
        "platform=x limit=lots",
        "platform=x limit=2.5",
        "platform=x seed=three",
        "platform=x limit=0",
        "platform=x limit=-1",
        "platform=x outage=4:4",
        "platform=x outage=1:2,9:3",
        "platform=ok seed=2",
    ])
    def test_malformed_value_names_file_and_line(self, tmp_path, line):
        path = tmp_path / "bad.conf"
        path.write_text(f"platform=ok\n{line}  # the bad one\n", encoding="utf-8")
        with pytest.raises(ValueError) as excinfo:
            load_connector_config(path)
        message = str(excinfo.value)
        assert str(path) in message
        assert repr(f"{line}  # the bad one") in message


class TestEventLog:
    def test_first_offset_zero(self, tmp_path):
        with EventLog(tmp_path / "x.log") as log:
            assert log.append("observation", {"text": "hello"}) == 0
            assert log.append("plan", {"requests": []}) == 1

    def test_append_only_byte_prefix(self, tmp_path):
        path = tmp_path / "x.log"
        with EventLog(path) as log:
            log.append("observation", {"n": 1})
            before = path.read_bytes()
            log.append("observation", {"n": 2})
            after = path.read_bytes()
        assert after.startswith(before)

    def test_read_round_trip(self, tmp_path):
        path = tmp_path / "x.log"
        with EventLog(path) as log:
            log.append("observation", {"text": "tab\tand\nnewline"})
        entries = read_log(path)
        assert entries[0].payload == {"text": "tab\tand\nnewline"}

    def test_offset_gap_detected(self, tmp_path):
        path = tmp_path / "x.log"
        with EventLog(path) as log:
            log.append("observation", {"n": 1})
            log.append("observation", {"n": 2})
        lines = path.read_text(encoding="utf-8").splitlines()
        lines[1] = "5" + lines[1][1:]
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        with pytest.raises(CorruptLogError):
            read_log(path)

    def test_non_utf8_line_is_corrupt(self, tmp_path):
        path = tmp_path / "x.log"
        with EventLog(path) as log:
            log.append("observation", {"n": 1})
            log.append("observation", {"text": "soon mangled"})
        path.write_bytes(path.read_bytes().replace(b"mangled", b"mangl\xff"))
        with pytest.raises(CorruptLogError, match="offset 1 is not UTF-8"):
            read_log(path)

    def test_unknown_kind_rejected_at_append(self, tmp_path):
        with EventLog(tmp_path / "x.log") as log:
            with pytest.raises(ValueError):
                log.append("telemetry", {})

    def test_torn_tail_refused_on_open(self, tmp_path):
        path = tmp_path / "x.log"
        with EventLog(path) as log:
            log.append("observation", {"n": 1})
            log.append("observation", {"text": "cut off mid-line"})
        intact = path.read_bytes()
        path.write_bytes(intact[: intact.index(b"mid-line")])
        with pytest.raises(CorruptLogError, match="offset 1 is torn"):
            EventLog(path)
        assert intact.startswith(path.read_bytes())  # nothing was appended

    def test_every_truncation_reads_a_prefix_or_raises(self, tmp_path):
        path = tmp_path / "x.log"
        with EventLog(path) as log:
            for n in range(3):
                log.append("observation", {"n": n, "text": "tab\there"})
        intact = path.read_bytes()
        full = read_log(path)
        for cut in range(len(intact)):
            path.write_bytes(intact[:cut])
            try:
                prefix = read_log(path)
            except CorruptLogError:
                prefix = None
            assert prefix is None or prefix == full[: len(prefix)]
            if cut == 0 or intact[cut - 1 : cut] == b"\n":
                with EventLog(path) as log:
                    assert log.append("observation", {}) == intact[:cut].count(b"\n")
            else:
                with pytest.raises(CorruptLogError):
                    EventLog(path)

    def test_reopen_resumes_dense_offsets(self, tmp_path):
        path = tmp_path / "x.log"
        with EventLog(path) as log:
            log.append("observation", {"n": 1})
            log.append("observation", {"n": 2})
        with EventLog(path) as log:
            assert log.append("observation", {"n": 3}) == 2
        assert [e.offset for e in read_log(path)] == [0, 1, 2]


class TestReplay:
    def run_once(self, tmp_path, turns=12, seed=77):
        import numpy as np

        clock = SimClock()
        memory = MemoryStore(EmbeddingConfig(dimension=64))
        connectors = make_default_connectors(seed=seed, clock=clock)
        ledger = Ledger(clock=clock)
        wallet = ledger.create_wallet(seed=seed, endowment=to_nanos(50))
        chain = AgentChainClient(ledger, wallet, art_size=(8, 8))
        state = initial_state(seed)
        corpus = human_corpus()
        rng = np.random.default_rng(seed)

        path = tmp_path / "run.log"
        with EventLog(path, clock=clock) as log:
            final, digest = run_session(
                state, memory, connectors, chain, MarkovGenerator(),
                lambda t: corpus[int(rng.integers(len(corpus)))],
                turns, log=log, clock=clock,
            )
        return path, final, digest, (memory, connectors)

    def test_replay_matches_live_hash(self, tmp_path):
        path, final, digest, (memory, connectors) = self.run_once(tmp_path)
        assert replay_log(path, persona_seed=77) == digest
        assert session_state_hash(final, memory, connectors) == digest

    def test_full_loop_determinism(self, tmp_path):
        (tmp_path / "a").mkdir()
        (tmp_path / "b").mkdir()
        _, _, first, _ = self.run_once(tmp_path / "a")
        _, _, second, _ = self.run_once(tmp_path / "b")
        assert first == second

    def test_replay_detects_tampering(self, tmp_path):
        path, _, digest, _ = self.run_once(tmp_path)
        lines = path.read_text(encoding="utf-8").splitlines()
        for i, line in enumerate(lines):
            if "\tobservation\t" in line:
                payload = json.loads(line.split("\t", 3)[3])
                payload["text"] = payload["text"] + " tampered"
                parts = line.split("\t", 3)
                lines[i] = "\t".join(parts[:3] + [json.dumps(payload, sort_keys=True)])
                break
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        assert replay_log(path, persona_seed=77) != digest

    def test_replay_reads_the_log_line_by_line(self, tmp_path):
        """Lines the fold ignores cost no memory: the log is never held whole."""
        import tracemalloc

        path = tmp_path / "big.log"
        with EventLog(path) as log:
            for i in range(2000):
                log.append("gate", {"turn": i, "results": ["x" * 400]})
        size = path.stat().st_size
        tracemalloc.start()
        try:
            replay_log(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < size / 10
