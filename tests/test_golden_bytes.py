"""Byte-identity pins for the replayable files.

The agent's event log, its ledger and state hash, a serialized ledger after
a fixed mix of operations, and verify_entries' reports on two tampered
copies are all pinned by sha256. Any change to the log line format, the
ledger's state transition or its verification messages fails here.
"""

import hashlib
from dataclasses import replace

import pytest

from zerebro.chain import Ledger, generate_art, to_nanos, verify_entries
from zerebro.cli import main
from zerebro.errors import InsufficientFundsError

AGENT_DIGESTS = {
    "agent.log": "fb247792fa91f7b0335d7885fd2c8ba5eab458a231963e01673d1bac27cfc510",
    "ledger.log": "d4f5f3af2e16905dec79ae9418da53a0e7b68341d5f347313c01c8627398304e",
    "state_hash.txt": "533803eae85f23f9e2f81db5fede57bde369917c66f4959860d60462c9e51ac1",
}
LEDGER_DIGEST = "a5c42612c8e43a02dd7a39541a2f70253cfd2d296be6a602e79b9ce2a27fab08"
AMOUNT_BUMP_DIGEST = "1af6f185c3757843a9086aca0a8e66dc976710f493d5041c03293572768bf1e3"
DUPLICATE_ART_DIGEST = "89326e8773c2d403a2527f2e23b9ac5c9a8974a93c76803ec0a8adbe96aa331d"


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
    # 1.5 -> 10.5 overdraws the sender: a hash mismatch, then a negative balance
    bumped[2] = replace(bumped[2], amount=bumped[2].amount + to_nanos("9"))
    assert violations_digest(bumped) == AMOUNT_BUMP_DIGEST

    mints = [i for i, e in enumerate(entries) if e.kind == "mint"]
    copied = list(entries)
    first, second = copied[mints[0]], copied[mints[1]]
    copied[mints[1]] = replace(
        second, payload={**second.payload, "art_hash": first.payload["art_hash"]}
    )
    assert violations_digest(copied) == DUPLICATE_ART_DIGEST
