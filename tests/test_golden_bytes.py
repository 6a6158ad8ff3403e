"""Byte-identity pins for the replayable files.

The agent's event log, its ledger and state hash, a serialized ledger after
a fixed mix of operations, verify_entries' reports on two tampered copies,
the collapse lab's trajectory files and regimen reports, backrooms
transcripts, and the files of five console runs (three `collapse` reports,
a ledger that `chain mint` then `chain deploy` wrote, and a memory snapshot
that three `memory upsert` runs wrote) are all pinned by sha256. Any change
to the log line format, the ledger's state transition, its verification
messages, the snapshot's records or embeddings, the collapse lab's sampling,
refitting or tail-mass scoring, or the backrooms window's diversity figures
fails here.
"""

import hashlib
from dataclasses import replace

import pytest

from zerebro.backrooms import WINDOW, BackroomsConfig, run_backrooms, write_transcript
from zerebro.chain import Ledger, generate_art, to_nanos, verify_entries
from zerebro.cli import main
from zerebro.collapse import (
    CategoricalModel,
    GaussianModel,
    RecursionConfig,
    compare_regimens,
    format_regimen_report,
    run_recursion,
    uniform_categorical,
    write_trajectory,
)
from zerebro.embedding import EmbeddingConfig
from zerebro.errors import InsufficientFundsError
from zerebro.generator import MarkovGenerator
from zerebro.memory import MemoryStore

AGENT_DIGESTS = {
    "agent.log": "fb247792fa91f7b0335d7885fd2c8ba5eab458a231963e01673d1bac27cfc510",
    "ledger.log": "d4f5f3af2e16905dec79ae9418da53a0e7b68341d5f347313c01c8627398304e",
    "state_hash.txt": "533803eae85f23f9e2f81db5fede57bde369917c66f4959860d60462c9e51ac1",
}
LEDGER_DIGEST = "a5c42612c8e43a02dd7a39541a2f70253cfd2d296be6a602e79b9ce2a27fab08"
AMOUNT_BUMP_DIGEST = "9c60386ef99cbc09d36e1cafbbf00c1b62e12432034a6b3fc8867401a51f12c2"
DUPLICATE_ART_DIGEST = "32f23d3b155aef0a0108b9563bfa95656a1959cf00526d63f7c8b50b0564245b"

# trajectory.tsv per config; the one-symbol origin has sigma0 == 0 in the
# tail-mass frame, the 1e-40 variance run collapses at generation 1, and
# the tiny origin's 1e-300 cannot move the running sum past it
TRAJECTORY_CONFIGS = {
    "gaussian-rho0.25": RecursionConfig(
        "gaussian", 100, 20, 0.25, 7, GaussianModel(mu=0.0, sigma2=1.0)
    ),
    "uniform-1000": RecursionConfig("categorical", 100, 20, 0.0, 11, uniform_categorical(1000)),
    "string-symbols": RecursionConfig(
        "categorical", 50, 15, 0.5, 5,
        CategoricalModel({"a": 0.1, "b": 0.2, "zz": 0.3, "c": 0.4}),
    ),
    "one-symbol": RecursionConfig("categorical", 10, 5, 0.0, 2, uniform_categorical(1)),
    "collapsed": RecursionConfig("gaussian", 10, 5, 0.0, 0, GaussianModel(mu=1.0, sigma2=1e-40)),
    "tiny-probability": RecursionConfig(
        "categorical", 20, 10, 0.5, 3, CategoricalModel({"a": 1e-300, "b": 1.0})
    ),
}
TRAJECTORY_DIGESTS = {
    "gaussian-rho0.25": "fb1f930ca221d7578566e6c270cc0fcd23148d7ddf320521cec0e59625d85863",
    "uniform-1000": "d769f004cc632fb654bc6978d4e5407897e05776798669b12cb0dfeab67d9428",
    "string-symbols": "86c33f5b0126d84c86f0bf412898fbfdd3dc1175100b7bbbeea59549454a7715",
    "one-symbol": "1246a2eaa433426796cbfa9f37aa8ab613266f00c941a0999c39b743e2a20ac4",
    "collapsed": "a0a3faf3a2c43fc52966cada11cbfe04410cd0639b276df8aea650784cceee63",
    "tiny-probability": "6a7c6b21ea4d5e154f9f271a37cd6d79b8ebdac5151efea23c2f82194c57a94e",
}
REPORT_DIGESTS = {
    "gaussian": "5962728460c38f626c4d2fd1d2c5f9e74e1cc091ac0a5695f568bc9dd0e35ee1",
    "categorical": "d0fe3531c3c7b57e4e75b2e0a172b4f4ba822dc8e41fee24e64b3d52d64bc2fd",
}

# 60-turn transcripts at 768-d, past WINDOW so the window evicts:
# (injection_rate, store_injected)
BACKROOMS_CONFIGS = {
    "hashed-rate0": (0.0, False),
    "hashed-rate0.5": (0.5, False),
    "hashed-rate1-stored": (1.0, True),
}
BACKROOMS_DIGESTS = {
    "hashed-rate0": "c4c5bd3472988f2feb2c108fced96dae836bf677c9c6b1b78eb9f588f50a5ce6",
    "hashed-rate0.5": "aa3ed65a4bc9fd9d4c73dc699804da5a9ebc55b367c6286866fc61d5ab17b048",
    "hashed-rate1-stored": "68eb6953ba09072d1bdee71f85837805dba3ae2546b8a0a6a00286860b6b4f3c",
}
BACKROOMS_TURNS = 60

# commands run in turn into one --out, then the file they leave and its sha256
CLI_PINS = {
    "gaussian-report": (
        [["collapse", "--model", "gaussian", "--G", "20", "--seeds", "50", "--rho", "0.25",
          "--seed", "3"]],
        "collapse_report.txt",
        "df3e3a84956f9e719016b50a91b6bc5c7957e624d8acc43cc6b572f0a3a66713",
    ),
    "categorical-report": (
        [["collapse", "--model", "categorical", "--G", "5", "--seeds", "2", "--seed", "1"]],
        "collapse_report.txt",
        "d5e8333112f31ddd2c199ee97e4d2bdcbb106aba7392396c42d07a9d81bece3f",
    ),
    # past one SEED_CHUNK, with rows drawing from both the origin and the model
    "categorical-mixed-report": (
        [["collapse", "--model", "categorical", "--G", "20", "--seeds", "70", "--rho", "0.3",
          "--seed", "5"]],
        "collapse_report.txt",
        "1547e280757f649c5da06f4f84fbf3ea2c0b6e1bb9fcacd41f71acece74898c6",
    ),
    # chain deploy loads the minted ledger, appends to the text its load kept and saves it
    "chain-ledger": (
        [["chain", "mint", "--art-seed", "3", "--theme", "lantern"],
         ["chain", "deploy", "--name", "t", "--symbol", "CORR"]],
        "ledger.log",
        "09cb27872356b63361f7bb35bccf829cdee9411fc528f20965ae057a548e60ed",
    ),
    # each upsert loads the snapshot the one before persisted; m1 is replaced in its row
    "memory-snapshot": (
        [["memory", "upsert", "--id", "m1", "--text", "a lantern at dusk"],
         ["memory", "upsert", "--id", "m1", "--text", "the lantern at the ferry"],
         ["memory", "upsert", "--id", "m2", "--text", "an owl over the mill", "--source", "agent"]],
        "memory.snapshot",
        "5b2cb5511b02966a49ee37c8737e9743dce34671d01dbc802666471bbc4e2376",
    ),
}


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def mixed_ledger() -> Ledger:
    """Transfer, two mints, deploy, NFT sale, token sale, one rejected op."""
    ledger = Ledger()
    a = ledger.create_wallet(seed=1, endowment=to_nanos("10"))
    b = ledger.create_wallet(seed=2, endowment=to_nanos("5"))
    ledger.transfer(a.address, b.address, to_nanos("1.5"))
    first = ledger.mint_nft(a, generate_art(1, "moth", 8, 8))
    ledger.mint_nft(b, generate_art(2, "moth", 8, 8))
    ledger.deploy_token(a, "moth token", "MOTH", 1000)
    ledger.execute_sale(first.token_id, a.address, b.address, to_nanos("2"))
    ledger.execute_sale(("MOTH", 250), a.address, b.address, to_nanos("0.75"))
    with pytest.raises(InsufficientFundsError):
        ledger.transfer(a.address, b.address, to_nanos("1000"))
    return ledger


def violations_digest(entries) -> str:
    report = verify_entries(entries)
    assert not report.ok
    return sha256("\n".join(report.violations).encode("utf-8"))


def test_agent_artifacts(tmp_path):
    assert main(["agent", "--turns", "40", "--seed", "3", "--out", str(tmp_path)]) == 0
    digests = {name: sha256((tmp_path / name).read_bytes()) for name in AGENT_DIGESTS}
    assert digests == AGENT_DIGESTS


def test_serialized_ledger():
    assert sha256(mixed_ledger().serialize().encode("utf-8")) == LEDGER_DIGEST


def test_tampered_ledger_reports():
    entries = list(mixed_ledger().entries)
    bumped = list(entries)
    # 1.5 -> 10.5 overdraws the sender: a hash mismatch, then transfer's refusal
    bumped[2] = replace(bumped[2], amount=bumped[2].amount + to_nanos("9"))
    assert violations_digest(bumped) == AMOUNT_BUMP_DIGEST

    mints = [i for i, e in enumerate(entries) if e.kind == "mint"]
    copied = list(entries)
    first, second = copied[mints[0]], copied[mints[1]]
    copied[mints[1]] = replace(
        second, payload={**second.payload, "art_hash": first.payload["art_hash"]}
    )
    assert violations_digest(copied) == DUPLICATE_ART_DIGEST


@pytest.mark.parametrize("name", sorted(TRAJECTORY_CONFIGS))
def test_collapse_trajectory(tmp_path, name):
    path = tmp_path / "trajectory.tsv"
    write_trajectory(run_recursion(TRAJECTORY_CONFIGS[name]), path)
    assert sha256(path.read_bytes()) == TRAJECTORY_DIGESTS[name]


@pytest.mark.parametrize("family", sorted(REPORT_DIGESTS))
def test_regimen_report(family):
    base = (TRAJECTORY_CONFIGS["gaussian-rho0.25"] if family == "gaussian"
            else TRAJECTORY_CONFIGS["uniform-1000"])
    report = compare_regimens(base, [0.0, 0.5, 1.0], n_seeds=4)
    assert sha256(format_regimen_report(report).encode("utf-8")) == REPORT_DIGESTS[family]


@pytest.mark.parametrize("name", sorted(BACKROOMS_CONFIGS))
def test_backrooms_transcript(tmp_path, name):
    rate, stored = BACKROOMS_CONFIGS[name]
    assert BACKROOMS_TURNS > WINDOW
    memory = MemoryStore(EmbeddingConfig(dimension=768, seed=1))
    config = BackroomsConfig(
        turns=BACKROOMS_TURNS, seed=1, injection_rate=rate, store_injected=stored
    )
    path = tmp_path / "transcript.txt"
    write_transcript(run_backrooms(config, memory=memory, generator=MarkovGenerator()), path)
    assert sha256(path.read_bytes()) == BACKROOMS_DIGESTS[name]


@pytest.mark.parametrize("name", sorted(CLI_PINS))
def test_cli_artifact(tmp_path, name):
    runs, artifact, digest = CLI_PINS[name]
    for argv in runs:
        assert main([*argv, "--out", str(tmp_path)]) == 0
    assert sha256((tmp_path / artifact).read_bytes()) == digest
