"""Ledger: exact conservation, atomicity, provenance injectivity,
randomized operation fuzzing, persistence, procedural art."""

import hashlib

import numpy as np
import pytest

from zerebro.chain import (
    GENESIS,
    ChainFees,
    Ledger,
    format_nanos,
    generate_art,
    implied_market_cap,
    parse_ppm_size,
    to_nanos,
    verify_entries,
    wallet_address,
)
from zerebro.errors import (
    BadSymbolError,
    CorruptLogError,
    DuplicateArtError,
    InsufficientFundsError,
    NotOwnerError,
    SymbolTakenError,
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
        assert format_nanos(1_500_000_000) == "1.500000000"
        assert format_nanos(-1) == "-0.000000001"

    def test_sub_nano_rejected(self):
        with pytest.raises(Exception):
            to_nanos("0.0000000001")


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

    def test_gap_detected_on_load(self, tmp_path):
        ledger, _ = fresh_ledger(2)
        path = tmp_path / "ledger.log"
        ledger.save(path)
        lines = path.read_text(encoding="utf-8").splitlines()
        path.write_text(lines[1] + "\n", encoding="utf-8")
        with pytest.raises(CorruptLogError):
            Ledger.load(path)


class TestArt:
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


def rehashed(entry, payload):
    """The entry with a new payload and a recomputed content hash."""
    from dataclasses import replace

    from zerebro.chain import _entry_hash

    return replace(entry, payload=payload, payload_hash=_entry_hash(
        entry.kind, entry.src, entry.dst, entry.amount, payload))


def token_ledger():
    ledger, (a, b) = fresh_ledger(2)
    ledger.deploy_token(a, "moth token", "MOTH", 1000)
    ledger.execute_sale(("MOTH", 250), a.address, b.address, to_nanos("1"))
    return ledger


class TestUncountablePayloads:
    """Units or a supply the fold cannot count with are violations, not crashes."""

    @pytest.mark.parametrize("units", ["missing", None, "many", [1]])
    def test_token_sale_units(self, units):
        entries = list(token_ledger().entries)
        sale = entries[-1]
        payload = {k: v for k, v in sale.payload.items() if k != "units"}
        if units != "missing":
            payload["units"] = units
        entries[-1] = rehashed(sale, payload)
        expected = None if units == "missing" else units
        report = verify_entries(entries)
        assert not report.ok
        assert f"seq {sale.sequence}: token sale units {expected!r} not an integer" in (
            report.violations
        )

    @pytest.mark.parametrize("supply", [None, "lots", [1000]])
    def test_deploy_total_supply(self, supply):
        entries = list(token_ledger().entries)
        index = next(i for i, e in enumerate(entries) if e.kind == "deploy")
        deploy = entries[index]
        entries[index] = rehashed(deploy, {**deploy.payload, "total_supply": supply})
        report = verify_entries(entries)
        assert not report.ok
        assert f"seq {index}: total_supply {supply!r} not an integer" in report.violations

    def test_load_raises_corrupt_log(self, tmp_path):
        ledger = token_ledger()
        sale = ledger.entries[-1]
        tampered = Ledger()
        tampered._entries = [*ledger.entries[:-1], rehashed(sale, {
            k: v for k, v in sale.payload.items() if k != "units"})]
        path = tmp_path / "ledger.log"
        path.write_text(tampered.serialize(), encoding="utf-8")
        with pytest.raises(CorruptLogError, match="token sale units None not an integer"):
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
    """A JSON list or object where the fold needs a dict key is a violation."""

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
        entries[index] = rehashed(entries[index], {**entries[index].payload, field: value})
        report = verify_entries(entries)
        assert f"seq {index}: {kind} {field} {value!r} is a JSON list or object" in (
            report.violations)

        tampered = Ledger()
        tampered._entries = entries
        path = tmp_path / "ledger.log"
        path.write_text(tampered.serialize(), encoding="utf-8")
        with pytest.raises(CorruptLogError, match="is a JSON list or object"):
            Ledger.load(path)

    def test_float_token_id_still_verifies(self):
        entries = mixed_entries()
        index = next(i for i, e in enumerate(entries) if e.kind == "mint")
        entries[index] = rehashed(entries[index], {**entries[index].payload, "token_id": 0.0})
        assert verify_entries(entries).ok


class TestNonObjectPayloads:
    """A payload the fold reads must be a JSON object; others are violations."""

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
        assert f"seq {index}: payload {payload!r} is not a JSON object" in report.violations

        tampered = Ledger()
        tampered._entries = entries
        path = tmp_path / "ledger.log"
        path.write_text(tampered.serialize(), encoding="utf-8")
        with pytest.raises(CorruptLogError, match="is not a JSON object"):
            Ledger.load(path)

    def test_transfer_payload_is_not_read(self):
        entries = mixed_entries()
        index = next(i for i, e in enumerate(entries) if e.kind == "transfer")
        entries[index] = rehashed(entries[index], ["anything"])
        assert verify_entries(entries).ok


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
