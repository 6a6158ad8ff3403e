"""Ledger: exact conservation, atomicity, provenance injectivity,
randomized operation fuzzing, persistence, procedural art."""

import hashlib
import json
import math
import os
import platform
import re
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from zerebro import offsetlog
from zerebro.chain import (
    GENESIS,
    MAX_AMOUNT,
    NANO,
    ChainFees,
    Ledger,
    format_nanos,
    generate_art,
    implied_market_cap,
    parse_ppm_size,
    read_entries,
    to_nanos,
    verify_entries,
    wallet_address,
)
from zerebro.clock import STEP_MS
from zerebro.seeding import seed as seed_of, u64
from zerebro.errors import (
    BadSymbolError,
    CorruptLogError,
    DuplicateArtError,
    InsufficientFundsError,
    NotOwnerError,
    SymbolTakenError,
    ZerebroError,
)


def fresh_ledger(n_wallets=2, endowment="10"):
    ledger = Ledger()
    wallets = [ledger.create_wallet(seed=i, endowment=to_nanos(endowment))
               for i in range(n_wallets)]
    return ledger, wallets


class TestFixedPoint:
    def test_parse_and_format(self):
        assert to_nanos("1.5") == 1_500_000_000
        assert to_nanos("0.000000001") == 1
        assert to_nanos(2) == 2_000_000_000
        # 31 significant digits, past the default decimal context's 28
        assert to_nanos("1234567890123456789012.123456789") == 1234567890123456789012123456789
        assert format_nanos(1_500_000_000) == "1.500000000"
        assert format_nanos(-1) == "-0.000000001"

    def test_sub_nano_rejected(self):
        with pytest.raises(Exception):
            to_nanos("0.0000000001")

    @pytest.mark.parametrize("amount, named", [
        ("inf", "'inf' is not finite"),
        ("-Infinity", "'-Infinity' is not finite"),
        ("nan", "'nan' is not finite"),
        ("1e999999999", "'1e999999999' is too large"),
        ("1e-999999999", "'1e-999999999' is not representable in 9 decimals"),
        ("1e5000", "'1e5000' is too large: the ledger maximum is 1e\\+30 units"),
    ], ids=["inf", "minus-inf", "nan", "huge", "tiny", "above-ledger-maximum"])
    def test_non_finite_or_out_of_range_amount_is_value_error(self, amount, named):
        with pytest.raises(ValueError, match=named):
            to_nanos(amount)

    def test_ledger_maximum_is_inclusive_in_either_sign(self):
        from zerebro.chain import MAX_AMOUNT, NANO

        assert to_nanos(MAX_AMOUNT) == -to_nanos("-1e30") == MAX_AMOUNT * NANO
        for amount in (MAX_AMOUNT + 1, -MAX_AMOUNT - 1, f"{MAX_AMOUNT}.000000001"):
            with pytest.raises(ValueError, match=f"amount {re.escape(repr(amount))} is too large"):
                to_nanos(amount)


class TestWallets:
    def test_address_stable_per_seed(self):
        assert wallet_address(42) == wallet_address(42)
        assert wallet_address(42) != wallet_address(43)

    def test_endowment_recorded_as_genesis_transfer(self):
        ledger, (w,) = fresh_ledger(1)
        entry = ledger.entries[0]
        assert (entry.kind, entry.src, entry.dst) == ("transfer", GENESIS, w.address)
        assert ledger.balance(w.address) == to_nanos("10")

    def test_zero_transfer_from_unseen_address(self):
        ledger, (a,) = fresh_ledger(1)
        stranger = wallet_address(99)
        ledger.transfer(stranger, a.address, 0)
        assert ledger.balance(stranger) == 0
        assert ledger.verify().ok


class TestMint:
    def test_fee_arithmetic(self):
        ledger = Ledger(fees=ChainFees(mint=to_nanos("0.01")))
        wallet = ledger.create_wallet(seed=1, endowment=to_nanos("1"))
        art = generate_art(1, "lantern", 8, 8)
        record = ledger.mint_nft(wallet, art)
        assert ledger.balance(wallet.address) == to_nanos("0.99")
        kinds = [e.kind for e in ledger.entries]
        assert kinds == ["transfer", "mint", "fee"]
        assert record.token_id == 0
        assert ledger.nft_owner(0) == wallet.address

    def test_insufficient_funds_leaves_ledger_untouched(self):
        ledger = Ledger(fees=ChainFees(mint=to_nanos("0.01")))
        wallet = ledger.create_wallet(seed=1, endowment=to_nanos("0.005"))
        before = ledger.serialize()
        with pytest.raises(InsufficientFundsError):
            ledger.mint_nft(wallet, b"some-art-bytes")
        assert ledger.serialize() == before

    def test_duplicate_art_rejected(self):
        ledger, (w,) = fresh_ledger(1)
        art = generate_art(5, "well", 8, 8)
        ledger.mint_nft(w, art)
        before = ledger.serialize()
        with pytest.raises(DuplicateArtError):
            ledger.mint_nft(w, art)
        assert ledger.serialize() == before

    def test_token_ids_dense(self):
        ledger, (w,) = fresh_ledger(1, endowment="100")
        for i in range(5):
            record = ledger.mint_nft(w, generate_art(i, "orchard", 8, 8))
            assert record.token_id == i


class TestDeploy:
    def test_supply_credited_and_market_cap_arithmetic(self):
        ledger, (w,) = fresh_ledger(1)
        record = ledger.deploy_token(w, "corridor token", "CORR", 10**9)
        assert ledger.token_balance("CORR", w.address) == 10**9
        # price 0.013 per unit over a 1e9 supply implies a 1.3e7 cap;
        # pure arithmetic, not a market claim
        cap = implied_market_cap(record.total_supply, to_nanos("0.013"))
        assert cap == to_nanos(13_000_000)

    def test_duplicate_symbol(self):
        ledger, (w,) = fresh_ledger(1)
        ledger.deploy_token(w, "first", "SAME", 100)
        with pytest.raises(SymbolTakenError):
            ledger.deploy_token(w, "second", "SAME", 100)

    def test_bad_symbols(self):
        ledger, (w,) = fresh_ledger(1)
        for symbol in ("toolongsymbol99", "lower", "HAS9DIGIT", "", "WAY-TOO"):
            with pytest.raises(BadSymbolError):
                ledger.deploy_token(w, "x", symbol, 100)


class TestSale:
    def test_conservation_across_sale(self):
        ledger, (seller, buyer) = fresh_ledger(2)
        ledger.deploy_token(seller, "tok", "TOK", 1000)
        total_before = ledger.balance(seller.address) + ledger.balance(buyer.address)
        ledger.execute_sale(("TOK", 250), seller.address, buyer.address, to_nanos("3"))
        total_after = ledger.balance(seller.address) + ledger.balance(buyer.address)
        assert total_before == total_after
        assert ledger.token_balance("TOK", buyer.address) == 250

    def test_nft_ownership_transfers(self):
        ledger, (seller, buyer) = fresh_ledger(2)
        record = ledger.mint_nft(seller, generate_art(9, "tide", 8, 8))
        ledger.execute_sale(record.token_id, seller.address, buyer.address, to_nanos("1"))
        assert ledger.nft_owner(record.token_id) == buyer.address

    def test_self_sale_recorded_but_net_zero(self):
        ledger, (w,) = fresh_ledger(1)
        record = ledger.mint_nft(w, generate_art(2, "fog", 8, 8))
        balance = ledger.balance(w.address)
        entry = ledger.execute_sale(record.token_id, w.address, w.address, to_nanos("1"))
        assert ledger.balance(w.address) == balance
        assert ledger.nft_owner(record.token_id) == w.address
        assert entry.kind == "sale"

    def test_non_owner_rejected(self):
        ledger, (seller, buyer) = fresh_ledger(2)
        record = ledger.mint_nft(seller, generate_art(3, "bats", 8, 8))
        with pytest.raises(NotOwnerError):
            ledger.execute_sale(record.token_id, buyer.address, seller.address, 5)

    def test_buyer_insufficient(self):
        ledger, (seller, buyer) = fresh_ledger(2, endowment="1")
        record = ledger.mint_nft(seller, generate_art(4, "dusk", 8, 8))
        with pytest.raises(InsufficientFundsError):
            ledger.execute_sale(record.token_id, seller.address, buyer.address,
                                to_nanos("99"))


class TestVerify:
    def test_fresh_ledger_ok(self):
        ledger, _ = fresh_ledger(2)
        assert ledger.verify().ok

    def test_corrupted_amount_detected_with_prefix(self):
        from dataclasses import replace

        ledger, (a, b) = fresh_ledger(2)
        ledger.transfer(a.address, b.address, to_nanos("1"))
        entries = list(ledger.entries)
        entries[2] = replace(entries[2], amount=entries[2].amount + 1)
        report = verify_entries(entries)
        assert not report.ok
        assert any(v.startswith("seq 2:") for v in report.violations)

    def test_decreasing_timestamp_reported(self):
        from dataclasses import replace

        ledger, (a, b) = fresh_ledger(2)
        ledger.transfer(a.address, b.address, to_nanos("1"))
        entries = list(ledger.entries)
        earlier = entries[1].timestamp - 1
        entries[2] = replace(entries[2], timestamp=earlier)
        report = verify_entries(entries)
        assert report.violations == (
            f"seq 2: timestamp {earlier} precedes seq 1's {entries[1].timestamp}",
        )

    def test_equal_timestamps_verify(self):
        ledger = Ledger(clock=lambda: 5)
        a = ledger.create_wallet(seed=1, endowment=to_nanos("3"))
        b = ledger.create_wallet(seed=2, endowment=to_nanos("3"))
        ledger.transfer(a.address, b.address, to_nanos("1"))
        assert ledger.verify().ok

    def test_randomized_valid_operations_stay_ok(self):
        rng = np.random.default_rng(101)
        ledger = Ledger(fees=ChainFees(mint=to_nanos("0.01"), deploy=to_nanos("0.02")))
        wallets = [ledger.create_wallet(seed=i, endowment=to_nanos("50"))
                   for i in range(6)]
        addresses = [w.address for w in wallets]
        minted: list[int] = []
        art_seed = 0
        for _ in range(1000):
            op = rng.integers(4)
            a, b = (addresses[int(i)] for i in rng.integers(0, len(addresses), 2))
            if op == 0:
                amount = int(rng.integers(0, ledger.balance(a) + 1))
                ledger.transfer(a, b, amount)
            elif op == 1 and ledger.balance(a) >= ledger.fees.mint:
                art_seed += 1
                record = ledger.mint_nft(a, generate_art(art_seed, "fuzz", 4, 4))
                minted.append(record.token_id)
            elif op == 2 and minted:
                token_id = minted[int(rng.integers(len(minted)))]
                owner = ledger.nft_owner(token_id)
                price = int(rng.integers(0, ledger.balance(b) + 1))
                ledger.execute_sale(token_id, owner, b, price)
            # op == 3: deliberate no-op turn
        assert ledger.verify().ok


class TestConcurrency:
    def test_serialized_concurrent_transfers_conserve(self):
        import threading

        ledger, wallets = fresh_ledger(4, endowment="100")
        addresses = [w.address for w in wallets]

        def churn(k):
            rng = np.random.default_rng(k)
            for _ in range(100):
                a = addresses[int(rng.integers(4))]
                b = addresses[int(rng.integers(4))]
                try:
                    ledger.transfer(a, b, int(rng.integers(0, to_nanos("2"))))
                except InsufficientFundsError:
                    pass

        threads = [threading.Thread(target=churn, args=(k,)) for k in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        total = sum(ledger.balance(a) for a in addresses)
        assert total + ledger.fees_collected() == 4 * to_nanos("100")
        assert ledger.verify().ok


class TestPersistence:
    def test_round_trip(self, tmp_path):
        ledger, (a, b) = fresh_ledger(2)
        ledger.deploy_token(a, "tok", "TOK", 500)
        ledger.mint_nft(b, generate_art(6, "mill", 8, 8))
        ledger.execute_sale(("TOK", 100), a.address, b.address, to_nanos("2"))
        path = tmp_path / "ledger.log"
        ledger.save(path)
        loaded = Ledger.load(path)
        assert loaded.serialize() == ledger.serialize()
        assert loaded.balance(a.address) == ledger.balance(a.address)
        assert loaded.token_balance("TOK", b.address) == 100
        assert loaded.verify().ok

    def test_load_rebuilds_every_view(self, tmp_path):
        ledger, wallets = fresh_ledger(3, endowment="20")
        a, b, c = (w.address for w in wallets)
        ledger.deploy_token(a, "tok", "TOK", 500)
        ledger.deploy_token(b, "ore", "ORE", 90)
        first = ledger.mint_nft(b, generate_art(7, "weir", 8, 8))
        ledger.mint_nft(c, generate_art(8, "weir", 8, 8))
        ledger.execute_sale(first.token_id, b, a, to_nanos("3"))
        ledger.execute_sale(("TOK", 120), a, c, to_nanos("1"))
        ledger.execute_sale(("TOK", 20), c, b, 0)
        ledger.transfer(c, a, to_nanos("0.5"))
        path = tmp_path / "ledger.log"
        ledger.save(path)
        loaded = Ledger.load(path)

        def views(led):
            return (
                [led.balance(x) for x in (a, b, c)],
                [led.token_balance(s, x) for s in ("TOK", "ORE") for x in (a, b, c)],
                [led.token(s) for s in ("TOK", "ORE")],
                [(m, led.nft_owner(m.token_id)) for m in led.mints()],
                led.fees_collected(),
                led.entries,
            )

        assert views(loaded) == views(ledger)

    def test_load_resumes_clock_after_last_entry(self, tmp_path):
        ledger, (a, b) = fresh_ledger(2)
        path = tmp_path / "ledger.log"
        ledger.save(path)
        last = ledger.entries[-1].timestamp
        loaded = Ledger.load(path)
        loaded.transfer(a.address, b.address, to_nanos("1"))
        loaded.transfer(b.address, a.address, to_nanos("1"))
        appended = loaded.entries[len(ledger.entries):]
        assert [e.timestamp for e in appended] == [last + STEP_MS, last + 2 * STEP_MS]
        assert loaded.verify().ok

    def test_gap_detected_on_load(self, tmp_path):
        ledger, _ = fresh_ledger(2)
        path = tmp_path / "ledger.log"
        ledger.save(path)
        lines = path.read_text(encoding="utf-8").splitlines()
        path.write_text(lines[1] + "\n", encoding="utf-8")
        with pytest.raises(CorruptLogError):
            Ledger.load(path)

    def test_line_without_a_field_is_corrupt(self, tmp_path):
        ledger, _ = fresh_ledger(1)
        path = tmp_path / "ledger.log"
        path.write_text(ledger.serialize().replace('"src": ', '"source": '), encoding="utf-8")
        with pytest.raises(CorruptLogError, match="bad ledger line 0: 'src'"):
            read_entries(path)


def loop_art(seed, theme, width, height):
    """generate_art as it was first written: twelve draws and twelve sine
    passes of one channel at a time. The reference its bytes must equal."""
    rng = np.random.default_rng(seed_of(theme.encode("utf-8"), key=u64(seed % 2**64)))
    ys, xs = np.mgrid[0:height, 0:width].astype(np.float64)
    xs = xs / width
    ys = ys / height
    channels = []
    for _ in range(3):
        field = np.zeros((height, width))
        for _ in range(4):
            fx, fy = rng.uniform(1.0, 7.0, size=2)
            phase = rng.uniform(0.0, 2.0 * math.pi)
            field += rng.uniform(0.4, 1.0) * np.sin(
                2.0 * math.pi * (fx * xs + fy * ys) + phase
            )
        lo, hi = field.min(), field.max()
        span = (hi - lo) or 1.0
        channels.append(((field - lo) / span * 255.0).astype(np.uint8))
    pixels = np.stack(channels, axis=-1)
    header = f"P6\n{width} {height}\n255\n".encode("ascii")
    return header + pixels.tobytes()


# sha256 of generate_art's bytes, recorded from the twelve-pass loop
ART_PINS = {
    (3, "lantern", 64, 64): "260172bb3b6ab4e1f2ac42d09e02e3e62758b54d340fa57e774d1eeadaae744e",
    (5, "corridor", 4, 4): "25d15d50f39ddbbdb3ad565413e39999ef4971db6a68e5e3d978427af04695af",
    (7, "stairwell", 48, 36): "a8bbbd57ae7486f8ede31f23d6accdca000d27cb35075ded25854404d4a37acc",
    (0, "moth", 1, 1): "3ff6c5463ace13c0f26a735ac1af2bb96ab8a9ba1cb4398359cf2466f63a4d1b",
    (-1, "static", 7, 3): "6f284691ba088a2ed31ebf81e799b7dc4283d0b57b1ebe42ac318e620327ca19",
    (11, "ferry", 32, 32): "81737e192b2f909dd499ed88b302a47a3b115b175f18b9f0e2b7e5fd5b41084d",
}

# numpy's x86-64-v2 features only: no AVX/AVX2/AVX-512 dispatch of np.sin
X86_V2_FEATURES = "SSE SSE2 SSE3 SSSE3 SSE41 POPCNT SSE42"
# the same level as numpy's config names it: its features, or the group name numpy 2.4 uses
X86_V2_NAMES = X86_V2_FEATURES.split() + ["X86_V2"]


class TestArt:
    @pytest.mark.parametrize("size", [(1, 1), (7, 3), (4, 4), (8, 8), (32, 32), (48, 36),
                                      (64, 64)])
    def test_bytes_equal_the_twelve_pass_loop(self, size):
        for seed in range(200):
            theme = ("corridor", "lantern", "moth")[seed % 3]
            assert generate_art(seed, theme, *size) == loop_art(seed, theme, *size), seed

    @pytest.mark.parametrize("args", list(ART_PINS))
    def test_pinned_bytes(self, args):
        assert hashlib.sha256(generate_art(*args)).hexdigest() == ART_PINS[args]

    @pytest.mark.skipif(platform.machine().lower() not in ("x86_64", "amd64"),
                        reason="numpy's x86-64 dispatch only")
    def test_pinned_bytes_under_x86_v2_dispatch(self):
        # NPY_ENABLE_CPU_FEATURES can switch dispatch off, never the compiled-in baseline
        baseline = np.show_config(mode="dicts")["SIMD Extensions"]["baseline"]
        if not set(baseline) <= set(X86_V2_NAMES):
            pytest.skip(f"numpy's baseline is above x86-64-v2: {sorted(baseline)}")
        script = (
            "import hashlib, json, sys\n"
            "import numpy as np\n"
            "from zerebro.chain import generate_art\n"
            "found = np.show_config(mode='dicts')['SIMD Extensions'].get('found', [])\n"
            "assert set(found) <= set(sys.argv[1:]), found\n"
            "json.dump([hashlib.sha256(generate_art(*a)).hexdigest()"
            " for a in json.load(sys.stdin)], sys.stdout)\n"
        )
        env = dict(os.environ, NPY_ENABLE_CPU_FEATURES=X86_V2_FEATURES,
                   PYTHONPATH=os.pathsep.join(filter(None, [
                       str(Path(__file__).resolve().parent.parent / "src"),
                       os.environ.get("PYTHONPATH")])))
        result = subprocess.run([sys.executable, "-c", script, *X86_V2_NAMES], env=env,
                                capture_output=True, text=True,
                                input=json.dumps(list(ART_PINS)))
        assert result.returncode == 0, result.stderr
        assert json.loads(result.stdout) == list(ART_PINS.values())

    @pytest.mark.parametrize("width, height, name", [(0, 4, "width"), (-1, 4, "width"),
                                                      (4, 0, "height"), (4, -3, "height")])
    def test_size_below_one_is_refused(self, width, height, name):
        with pytest.raises(ValueError, match=f"art {name} must be at least 1"):
            generate_art(1, "corridor", width, height)

    def test_deterministic(self):
        assert generate_art(5, "corridor") == generate_art(5, "corridor")

    def test_seed_changes_bytes(self):
        assert generate_art(1, "corridor") != generate_art(2, "corridor")

    def test_theme_changes_bytes(self):
        assert generate_art(1, "corridor") != generate_art(1, "stairwell")

    def test_parses_as_ppm_with_configured_size(self):
        art = generate_art(3, "lantern", width=48, height=36)
        assert parse_ppm_size(art) == (48, 36)
        header, rest = art.split(b"\n255\n", 1)
        assert len(rest) == 48 * 36 * 3

    def test_no_hash_collisions_over_1000_seeds(self):
        seen = set()
        for seed in range(1000):
            digest = hashlib.sha256(generate_art(seed, "collision", 16, 16)).hexdigest()
            assert digest not in seen
            seen.add(digest)


def content_hash(kind, src, dst, amount, payload) -> str:
    """The reference content hash: sha256 of canonical_json of the whole body."""
    body = {"kind": kind, "src": src, "dst": dst, "amount": amount, "payload": payload}
    return hashlib.sha256(offsetlog.canonical_json(body).encode("utf-8")).hexdigest()


def rehashed(entry, payload, **fields):
    """The entry with a new payload, and any other fields, and a recomputed
    content hash."""
    changed = replace(entry, payload=payload, **fields)
    return replace(changed, payload_hash=content_hash(
        changed.kind, changed.src, changed.dst, changed.amount, payload))


def saved(entries, tmp_path):
    """The path of a ledger file holding entries, written by the reference encoder."""
    path = tmp_path / "ledger.log"
    path.write_text(encoded_afresh(entries), encoding="utf-8")
    return path


def token_ledger():
    ledger, (a, b) = fresh_ledger(2)
    ledger.deploy_token(a, "moth token", "MOTH", 1000)
    ledger.execute_sale(("MOTH", 250), a.address, b.address, to_nanos("1"))
    return ledger


class TestUncountablePayloads:
    """Units or a supply that is not a whole count: replay reports the
    operation's own refusal, not a crash."""

    @pytest.mark.parametrize("units", ["missing", None, "many", [1]])
    def test_token_sale_units(self, units):
        entries = list(token_ledger().entries)
        sale = entries[-1]
        payload = {k: v for k, v in sale.payload.items() if k != "units"}
        if units == "missing":
            expected = f"seq {sale.sequence}: sale payload {payload!r} cannot be read"
        else:
            payload["units"] = units
            expected = f"seq {sale.sequence}: units must be an int, got {units!r}"
        entries[-1] = rehashed(sale, payload)
        report = verify_entries(entries)
        assert not report.ok
        assert expected in report.violations

    @pytest.mark.parametrize("supply", [None, "lots", [1000]])
    def test_deploy_total_supply(self, supply):
        entries = list(token_ledger().entries)
        index = next(i for i, e in enumerate(entries) if e.kind == "deploy")
        deploy = entries[index]
        entries[index] = rehashed(deploy, {**deploy.payload, "total_supply": supply})
        report = verify_entries(entries)
        assert not report.ok
        assert f"seq {index}: total_supply must be an int, got {supply!r}" in report.violations

    def test_load_raises_corrupt_log(self, tmp_path):
        ledger = token_ledger()
        sale = ledger.entries[-1]
        path = saved([*ledger.entries[:-1], rehashed(sale, {
            k: v for k, v in sale.payload.items() if k != "units"})], tmp_path)
        with pytest.raises(CorruptLogError, match="sale payload .* cannot be read"):
            Ledger.load(path)


def mixed_entries():
    """Endowments, a mint with its fee, a deploy, an NFT sale, a token sale."""
    ledger, (a, b) = fresh_ledger(2)
    first = ledger.mint_nft(a, generate_art(1, "moth", 8, 8))
    ledger.deploy_token(a, "moth token", "MOTH", 1000)
    ledger.execute_sale(first.token_id, a.address, b.address, to_nanos("1"))
    ledger.execute_sale(("MOTH", 250), a.address, b.address, to_nanos("1"))
    return list(ledger.entries)


class TestUnkeyablePayloads:
    """A JSON list or object where an operation needs a token id, a hash or
    a symbol is a violation, not a crash."""

    @pytest.mark.parametrize("kind, field, value", [
        ("mint", "token_id", [0]),
        ("mint", "art_hash", {"h": 1}),
        ("deploy", "symbol", ["MOTH"]),
        ("sale", "nft", [0]),
        ("sale", "token", {"s": "MOTH"}),
    ])
    def test_reported_not_raised(self, tmp_path, kind, field, value):
        entries = mixed_entries()
        index = next(i for i, e in enumerate(entries)
                     if e.kind == kind and field in e.payload)
        payload = {**entries[index].payload, field: value}
        entries[index] = rehashed(entries[index], payload)
        report = verify_entries(entries)
        # mint takes no token id: it writes the next one, which differs
        expected = (f"seq {index}: the mint at seq {index} writes mint " if field == "token_id"
                    else f"seq {index}: {kind} payload {payload!r} cannot be read")
        assert len(report.violations) == 1 and report.violations[0].startswith(expected)

        with pytest.raises(CorruptLogError, match=f"seq {index}: "):
            Ledger.load(saved(entries, tmp_path))

    def test_float_token_id_differs(self):
        entries = mixed_entries()
        index = next(i for i, e in enumerate(entries) if e.kind == "mint")
        entries[index] = rehashed(entries[index], {**entries[index].payload, "token_id": 0.0})
        report = verify_entries(entries)
        assert len(report.violations) == 1
        assert report.violations[0].startswith(f"seq {index}: the mint at seq {index} writes "
                                               f"mint ")
        assert "{'token_id': 0, " in report.violations[0]


class TestNonObjectPayloads:
    """A payload that is not a JSON object is one violation line naming the
    entry's kind and the payload."""

    @pytest.mark.parametrize("kind, asset", [
        ("mint", None), ("deploy", None), ("sale", "nft"), ("sale", "token"),
    ])
    @pytest.mark.parametrize("payload", [[0, "token"], "tokens", None, 7])
    def test_reported_not_raised(self, tmp_path, kind, asset, payload):
        entries = mixed_entries()
        index = next(i for i, e in enumerate(entries)
                     if e.kind == kind and (asset is None or asset in e.payload))
        entries[index] = rehashed(entries[index], payload)
        report = verify_entries(entries)
        assert f"seq {index}: {kind} payload {payload!r} cannot be read" in report.violations

        with pytest.raises(CorruptLogError, match="cannot be read"):
            Ledger.load(saved(entries, tmp_path))

    def test_transfer_payload_is_compared(self):
        entries = mixed_entries()
        index = next(i for i, e in enumerate(entries) if e.kind == "transfer")
        entries[index] = rehashed(entries[index], ["anything"])
        report = verify_entries(entries)
        assert report.violations == (
            f"seq {index}: the transfer at seq {index} writes transfer {GENESIS} -> "
            f"{entries[index].dst} amount {entries[index].amount} payload "
            "{'endowment': True} here",
        )


class TestAddressFields:
    """An entry whose src or dst is not a JSON string is one violation line
    naming that field, not its payload."""

    @pytest.mark.parametrize("kind", ["transfer", "mint", "deploy", "sale"])
    @pytest.mark.parametrize("field", ["src", "dst"])
    @pytest.mark.parametrize("value", [["w1"], {"w": 1}, 5, None, True])
    def test_reported_by_field(self, tmp_path, kind, field, value):
        entries = mixed_entries()
        index = next(i for i, e in enumerate(entries) if e.kind == kind)
        entries[index] = rehashed(entries[index], entries[index].payload, **{field: value})
        report = verify_entries(entries)
        assert report.violations == (f"seq {index}: {kind} {field} must be a str, got {value!r}",)

        with pytest.raises(CorruptLogError, match=f"seq {index}: {kind} {field} must be a str"):
            Ledger.load(saved(entries, tmp_path))


def ledger_ending_with(op):
    """Two endowed wallets, then op as the ledger's last operation."""
    ledger, (a, b) = fresh_ledger(2)
    if op == "endow":
        ledger.create_wallet(seed=7, endowment=to_nanos("3"))
    elif op == "deploy":
        ledger.deploy_token(a, "moth token", "MOTH", 1000)
    elif op == "token-sale":
        ledger.deploy_token(a, "moth token", "MOTH", 1000)
        ledger.execute_sale(("MOTH", 250), a.address, b.address, to_nanos("1"))
    else:
        minted = ledger.mint_nft(a, generate_art(1, "moth", 8, 8))
        if op == "nft-sale":
            ledger.execute_sale(minted.token_id, a.address, b.address, to_nanos("1"))
    return list(ledger.entries)


# (last operation, index of the tampered entry from the end, its new fields);
# each tampered ledger, re-hashed, verified ok while verify kept its own copy
# of the rules
DRIFT_CASES = {
    "deploy-bad-symbol": ("deploy", -2, lambda e: {"payload": {**e.payload, "symbol": "bad!"}}),
    "deploy-zero-supply": ("deploy", -2, lambda e: {"payload": {**e.payload, "total_supply": 0}}),
    "deploy-negative-supply": (
        "deploy", -2, lambda e: {"payload": {**e.payload, "total_supply": -5}}),
    "deploy-fractional-supply": (
        "deploy", -2, lambda e: {"payload": {**e.payload, "total_supply": 100.5}}),
    "token-sale-zero-units": ("token-sale", -1, lambda e: {"payload": {**e.payload, "units": 0}}),
    "token-sale-negative-units": (
        "token-sale", -1, lambda e: {"payload": {**e.payload, "units": -3}}),
    "token-sale-fractional-units": (
        "token-sale", -1, lambda e: {"payload": {**e.payload, "units": 2.5}}),
    "mint-fee-one-nano": ("mint", -1, lambda e: {"amount": 1}),
    "deploy-fee-zero": ("deploy", -1, lambda e: {"amount": 0}),
    "nft-sale-amount-not-price": ("nft-sale", -1, lambda e: {"amount": e.amount - 1}),
    "genesis-transfer-bare": ("endow", -1, lambda e: {"payload": {}}),
    "second-endowment": ("endow", -1, lambda e: {"dst": wallet_address(0)}),
    "zero-endowment": ("endow", -1, lambda e: {"amount": 0}),
}


@pytest.mark.parametrize("case", sorted(DRIFT_CASES))
def test_drift_case_is_a_violation(tmp_path, case):
    """No live operation writes these entries, so replay refuses each one at
    the first entry that differs, and load raises."""
    op, at, change = DRIFT_CASES[case]
    entries = ledger_ending_with(op)
    index = len(entries) + at
    fields = change(entries[index])
    entries[index] = rehashed(entries[index], fields.pop("payload", entries[index].payload),
                              **fields)
    report = verify_entries(entries)
    assert len(report.violations) == 1
    assert report.violations[0].startswith(f"seq {index}: ")
    assert "Error(" not in report.violations[0]
    with pytest.raises(CorruptLogError, match=f"seq {index}: "):
        Ledger.load(saved(entries, tmp_path))


@pytest.mark.parametrize("shape", ["mint-without-fee", "fee-alone"])
def test_fee_outside_its_operation(tmp_path, shape):
    """A mint whose fee is missing runs past the end of the entries; a fee
    with no mint or deploy before it starts no operation."""
    from dataclasses import replace

    entries = ledger_ending_with("mint")
    if shape == "mint-without-fee":
        entries.pop()
        expected = f"seq {len(entries)}: the mint at seq {len(entries) - 1} writes fee "
    else:
        entries.append(replace(entries[-1], sequence=len(entries)))
        expected = f"seq {len(entries) - 1}: no operation starts with a 'fee' entry"
    report = verify_entries(entries)
    assert len(report.violations) == 1 and report.violations[0].startswith(expected)
    with pytest.raises(CorruptLogError):
        Ledger.load(saved(entries, tmp_path))


class TestWholeCounts:
    """Live ops refuse a count the fold would truncate, before committing."""

    @pytest.mark.parametrize("units", [2.5, 2.0, True, "2"])
    def test_sale_units(self, units):
        ledger = token_ledger()
        a, b = (e.dst for e in ledger.entries[:2])
        before = ledger.serialize()
        with pytest.raises(ValueError, match="units must be an int"):
            ledger.execute_sale(("MOTH", units), a, b, to_nanos("1"))
        assert ledger.serialize() == before

    @pytest.mark.parametrize("supply", [7.5, 7.0, "7"])
    def test_deploy_supply(self, supply):
        ledger, (a,) = fresh_ledger(1)
        before = ledger.serialize()
        with pytest.raises(ValueError, match="total_supply must be an int"):
            ledger.deploy_token(a, "moth token", "MOTH", supply)
        assert ledger.serialize() == before

    @pytest.mark.parametrize("amount", [2.5, 2.0, True])
    def test_transfer_amount(self, amount):
        ledger, (a, b) = fresh_ledger(2)
        before = ledger.serialize()
        with pytest.raises(ValueError, match="amount must be an int"):
            ledger.transfer(a.address, b.address, amount)
        assert ledger.serialize() == before

    @pytest.mark.parametrize("endowment", [2.5, 1e9, True])
    def test_endowment(self, endowment):
        ledger = Ledger()
        with pytest.raises(ValueError, match="endowment must be an int"):
            ledger.create_wallet(seed=1, endowment=endowment)
        assert ledger.entries == ()

    @pytest.mark.parametrize("price", [2.5, 2.0, True])
    def test_sale_price(self, price):
        for asset in (0, ("MOTH", 1)):
            ledger, (a, b) = fresh_ledger(2)
            ledger.mint_nft(a, generate_art(1, "moth", 8, 8))
            ledger.deploy_token(a, "moth token", "MOTH", 1000)
            before = ledger.serialize()
            with pytest.raises(ValueError, match="price must be an int"):
                ledger.execute_sale(asset, a.address, b.address, price)
            assert ledger.serialize() == before


class TestAmountBound:
    """Live ops refuse a count or amount past MAX_AMOUNT units, in either
    sign, naming the field, before committing; one at the bound is taken
    and written as before."""

    TOP = MAX_AMOUNT * NANO

    @pytest.mark.parametrize("value", [TOP + 1, -TOP - 1, 10**5000, -(10**5000)],
                             ids=["above", "below", "5001-digits", "minus-5001-digits"])
    @pytest.mark.parametrize("field", ["endowment", "amount", "total_supply", "price", "units"])
    def test_out_of_range_is_named_and_writes_nothing(self, field, value):
        ledger, (a, b) = fresh_ledger(2)
        ledger.mint_nft(a, generate_art(1, "moth", 8, 8))
        ledger.deploy_token(a, "moth token", "MOTH", 1000)
        ops = {
            "endowment": lambda: ledger.create_wallet(seed=7, endowment=value),
            "amount": lambda: ledger.transfer(a.address, b.address, value),
            "total_supply": lambda: ledger.deploy_token(a, "owl token", "OWL", value),
            "price": lambda: ledger.execute_sale(0, a.address, b.address, value),
            "units": lambda: ledger.execute_sale(("MOTH", value), a.address, b.address, 1),
        }
        before = ledger.serialize()
        with pytest.raises(ValueError, match=f"^{field} is out of range: the ledger maximum "
                                             r"is 1e\+39 nano-units \(1e\+30 units\)$"):
            ops[field]()
        assert ledger.serialize() == before

    def test_amounts_at_the_bound_keep_their_bytes(self):
        ledger = Ledger()
        a = ledger.create_wallet(seed=1, endowment=self.TOP)
        b = ledger.create_wallet(seed=2, endowment=to_nanos("1"))
        ledger.deploy_token(b, "moth token", "MOTH", self.TOP)
        ledger.execute_sale(("MOTH", self.TOP), b.address, a.address, self.TOP)
        ledger.mint_nft(b, generate_art(1, "moth", 8, 8))
        ledger.execute_sale(0, b.address, a.address, 0)
        ledger.transfer(b.address, a.address, self.TOP)
        assert ledger.verify().ok
        assert hashlib.sha256(ledger.serialize().encode("utf-8")).hexdigest() == (
            "e5dc1952024ab7787697e822507979eea377ce8540861d1ea940bc0865cedc5f")


class TestAssetIdentity:
    """An NFT id is an int and not a bool; an art hash is a sha256 hex digest."""

    def test_bool_nft_id_refused(self):
        ledger, (a, b) = fresh_ledger(2)
        for seed in (1, 2):
            ledger.mint_nft(a, generate_art(seed, "moth", 8, 8))
        before = ledger.serialize()
        with pytest.raises(ValueError, match="nft must be an int, got True"):
            ledger.execute_sale(True, a.address, b.address, to_nanos("1"))
        assert ledger.serialize() == before
        assert ledger.verify().ok

    @pytest.mark.parametrize("art_hash", ["moth", "A" * 64, "0" * 63, "0" * 65, "0" * 63 + "\n"])
    def test_mint_refuses_malformed_hash(self, art_hash):
        ledger, (a,) = fresh_ledger(1)
        with pytest.raises(ValueError, match="art_hash must be 64 lowercase hex digits"):
            ledger._mint(a.address, art_hash)
        assert len(ledger.entries) == 1

    @pytest.mark.parametrize("art_hash, message", [
        (5, "mint payload {'token_id': 0, 'art_hash': 5} cannot be read"),
        ("f" * 40, f"art_hash must be 64 lowercase hex digits, got {'f' * 40!r}"),
    ])
    def test_rehashed_mint_is_a_violation(self, tmp_path, capsys, art_hash, message):
        from zerebro.cli import main

        entries = mixed_entries()
        index = next(i for i, e in enumerate(entries) if e.kind == "mint")
        entries[index] = rehashed(entries[index], {**entries[index].payload, "art_hash": art_hash})
        report = verify_entries(entries)
        assert report.violations == (f"seq {index}: {message}",)

        path = saved(entries, tmp_path)
        assert main(["chain", "verify", "--ledger", str(path), "--out", str(tmp_path)]) == 1
        out = capsys.readouterr().out.splitlines()
        assert len(out) == 1 and out[0].startswith(f"violation: seq {index}: ")


def encoded_afresh(entries) -> str:
    """The reference for Ledger.serialize: every entry encoded again, joined."""
    return "".join(
        offsetlog.encode(e.sequence, e.kind, e.timestamp, {
            "src": e.src, "dst": e.dst, "amount": e.amount,
            "payload": e.payload, "payload_hash": e.payload_hash,
        })
        for e in entries
    )


class _Count(int):
    """An int subclass whose repr is not its JSON text; JSON writes the int."""

    def __repr__(self):
        return f"_Count({int(self)})"


_json_keys = st.text(max_size=6)
_json_scalars = (
    st.none() | st.booleans() | st.floats()
    | st.sampled_from([math.nan, math.inf, -math.inf, -0.0])
    | st.integers() | st.integers(min_value=2**64, max_value=2**80) | st.integers().map(_Count)
    # quotes, backslashes, control characters and non-ASCII text
    | st.text(alphabet=st.sampled_from('ab"\\\x00\x1f\n\t\x7f\xe9\u2603\U0001f600'), max_size=8)
    | st.text(max_size=8)
)
_json_values = st.recursive(
    _json_scalars,
    lambda inner: (st.lists(inner, max_size=3)
                   | st.dictionaries(_json_keys, inner, max_size=3)
                   | st.dictionaries(st.integers(), inner, max_size=3)),
    max_leaves=10,
)


class TestCanonicalJson:
    """canonical_json is json.dumps(value, sort_keys=True), call after call."""

    @settings(max_examples=300, deadline=None)
    @given(value=_json_values)
    def test_equals_json_dumps(self, value):
        assert offsetlog.canonical_json(value) == json.dumps(value, sort_keys=True)

    def test_exact_after_an_unserializable_value(self):
        value = {"a": [1, {"b": 2.5}], "bad": object()}
        with pytest.raises(TypeError, match="not JSON serializable"):
            offsetlog.canonical_json(value)
        del value["bad"]
        # the same dict again: nothing from the failed call marks it as seen
        assert offsetlog.canonical_json(value) == json.dumps(value, sort_keys=True)

    def test_self_reference_raises(self):
        looped = {"a": 1}
        looped["self"] = looped
        with pytest.raises((ValueError, RecursionError)):
            offsetlog.canonical_json(looped)
        assert offsetlog.canonical_json({"a": 1}) == '{"a": 1}'


class TestEntryEncoding:
    """`_line` writes the entry hash and the file line from one encoding of
    each value; both must stay the bytes canonical_json writes for the whole
    body."""

    @settings(max_examples=200, deadline=None)
    @given(kind=_json_values, src=_json_values, dst=_json_values, amount=_json_values,
           payload=st.dictionaries(_json_keys, _json_values, max_size=4)
           | st.dictionaries(st.integers(), _json_values, max_size=4))
    def test_hash_and_line_equal_the_whole_body_formulas(
            self, kind, src, dst, amount, payload):
        from zerebro.chain import LedgerEntry, _line

        payload_hash, line = _line(3, kind, 1700000000000, src, dst, amount, payload)
        assert payload_hash == content_hash(kind, src, dst, amount, payload)
        entry = LedgerEntry(3, kind, src, dst, amount, 1700000000000, payload, payload_hash)
        assert line == encoded_afresh([entry])


def live_op(ledger, addresses, code, i, j, x) -> bool:
    """One live op picked by code, wallets by i and j, amounts and art by x.

    Returns whether it committed. Many picks fail by design (overdrafts,
    duplicate art, non-owner sales, taken symbols); those raise a typed
    error and must commit nothing.
    """
    a, b = addresses[i % len(addresses)], addresses[j % len(addresses)]
    symbol = "T" + chr(ord("A") + x % 4)
    try:
        if code == 0:
            ledger.transfer(a, b, ledger.balance(a) * x // 100)
        elif code == 1:
            ledger.mint_nft(a, generate_art(x % 8, "cache", 4, 4))
        elif code == 2:
            ledger.execute_sale(x % 3, a, b, ledger.balance(b) * x // 200)
        elif code == 3:
            ledger.deploy_token(a, f"{symbol} token", symbol, 100)
        elif code == 4:
            ledger.execute_sale((symbol, 1 + x % 60), a, b, ledger.balance(b) * x // 200)
        else:
            ledger.transfer(a, b, ledger.balance(a) + 1)
    except ZerebroError:
        return False
    return True


def random_ops(ledger, addresses, seed, count):
    """count random live ops; yields whether each committed."""
    rng = np.random.default_rng(seed)
    for _ in range(count):
        yield live_op(ledger, addresses, *rng.integers(0, (6, 8, 8, 101)).tolist())


def churned(count, seed=11, endowment="10"):
    ledger, wallets = fresh_ledger(3, endowment)
    addresses = [w.address for w in wallets]
    list(random_ops(ledger, addresses, seed, count))
    return ledger, addresses


class TestSerializeCache:
    """serialize keeps its text between calls; it must always equal a fresh join."""

    def test_interleaved_live_and_failed_ops(self):
        ledger, addresses = churned(0, endowment="5")
        committed = failed = 0
        before = ledger.serialize()
        for ok in random_ops(ledger, addresses, 7, 400):
            committed += ok
            failed += not ok
            text = ledger.serialize()
            assert text == encoded_afresh(ledger.entries)
            # a failed op commits nothing, so the kept text comes back as is
            assert (text is before) == (not ok)
            before = text
        assert committed > 100 and failed > 100

    def test_failed_op_between_snapshots(self):
        ledger, (a, b) = fresh_ledger(2)
        before = ledger.serialize()
        with pytest.raises(InsufficientFundsError):
            ledger.transfer(a.address, b.address, to_nanos("11"))
        assert ledger.serialize() is before

    def test_verify_between_appends_keeps_the_text(self):
        ledger, addresses = churned(60)
        for _ in random_ops(ledger, addresses, 21, 40):
            text = ledger.serialize()
            assert ledger.verify().ok
            # verify replays on a ledger of its own and writes nothing here
            assert ledger.serialize() is text == encoded_afresh(ledger.entries)

    def test_loaded_ledger_then_appended(self, tmp_path, monkeypatch):
        import zerebro.chain

        def encoded_again(sequence, *fields):
            raise AssertionError(f"entry {sequence} encoded again")

        ledger, addresses = churned(4000, seed=13, endowment="100")
        assert len(ledger.entries) > 1200
        path = tmp_path / "ledger.log"
        ledger.save(path)
        loaded = Ledger.load(path)
        with monkeypatch.context() as patched:
            # load keeps the lines its verification wrote
            patched.setattr(zerebro.chain, "_line", encoded_again)
            text = loaded.serialize()
            assert loaded.serialize() is text
        assert text == encoded_afresh(loaded.entries) == path.read_text(encoding="utf-8")
        list(random_ops(loaded, addresses, 14, 150))
        assert loaded.serialize() == encoded_afresh(loaded.entries)
        assert loaded.verify().ok

    def test_non_canonical_file_loads_and_serializes_canonically(self, tmp_path):
        ledger, (a, b) = fresh_ledger(2)
        ledger.transfer(a.address, b.address, 5)
        path = tmp_path / "ledger.log"
        ledger.save(path)
        lines = path.read_text(encoding="utf-8").splitlines(keepends=True)
        head, body = lines[-1].rsplit("\t", 1)
        # the same values in another key order, with one space dropped: the
        # content hash covers values, not text, so the file still verifies
        reordered = json.dumps(dict(reversed(json.loads(body).items())))
        assert reordered.endswith('"amount": 5}')
        lines[-1] = head + "\t" + reordered.replace('"amount": 5', '"amount":5') + "\n"
        path.write_text("".join(lines), encoding="utf-8")

        loaded = Ledger.load(path)
        assert loaded.entries == ledger.entries
        assert loaded.serialize() == encoded_afresh(loaded.entries) == ledger.serialize()
        assert loaded.serialize() != path.read_text(encoding="utf-8")

    @pytest.mark.parametrize("tamper", ["hash", "replay"])
    def test_file_failing_verification_still_raises(self, tmp_path, tamper):
        entries = list(churned(300, seed=16)[0].entries)
        if tamper == "hash":
            entries[-1] = replace(entries[-1], amount=entries[-1].amount + 1)
        else:  # a consistent hash, but no operation writes this entry
            entries[-1] = rehashed(entries[-1], entries[-1].payload, amount=10**15)
        with pytest.raises(CorruptLogError, match="fail verification"):
            Ledger.load(saved(entries, tmp_path))

    def test_threads_append_and_serialize(self):
        import threading

        ledger, addresses = churned(0, endowment="50")
        errors: list[str] = []

        def churn(k):
            for _ in random_ops(ledger, addresses, 100 + k, 150):
                text = ledger.serialize()
                # entries are only appended, so the text covers a prefix of them
                covered = ledger.entries[:text.count("\n")]
                if text != encoded_afresh(covered):
                    errors.append(f"thread {k}: snapshot of {len(covered)} entries differs")

        threads = [threading.Thread(target=churn, args=(k,)) for k in range(4)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert errors == []
        assert ledger.serialize() == encoded_afresh(ledger.entries)
        assert ledger.verify().ok


def ledger_views(ledger, addresses):
    symbols = sorted({e.payload["symbol"] for e in ledger.entries if e.kind == "deploy"})
    return (
        [ledger.balance(x) for x in addresses],
        [ledger.token_balance(s, x) for s in symbols for x in addresses],
        [ledger.token(s) for s in symbols],
        [(m, ledger.nft_owner(m.token_id)) for m in ledger.mints()],
        ledger.fees_collected(),
    )


@settings(max_examples=60, deadline=None)
@given(st.lists(st.tuples(st.integers(0, 5), st.integers(0, 2), st.integers(0, 2),
                          st.integers(0, 100)), max_size=40))
def test_live_ops_verify_and_round_trip(ops):
    """Any sequence of live ops verifies, and load(save()) rebuilds the same
    text and the same balances."""
    import tempfile
    from pathlib import Path

    ledger, wallets = fresh_ledger(3, endowment="1")
    addresses = [w.address for w in wallets]
    for op in ops:
        live_op(ledger, addresses, *op)
        if op[3] % 3 == 0:
            assert ledger.serialize() == encoded_afresh(ledger.entries)
    assert ledger.verify().ok
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "ledger.log"
        ledger.save(path)
        loaded = Ledger.load(path)
    assert loaded.serialize() == ledger.serialize() == encoded_afresh(ledger.entries)
    assert ledger_views(loaded, addresses) == ledger_views(ledger, addresses)
