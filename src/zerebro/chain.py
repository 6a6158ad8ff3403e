"""Simulated blockchain: wallets, flat fees, NFT mints with provenance,
token deployment, fixed-price sales, and full-ledger verification.

Money is 9-decimal fixed point carried as integer nano-units; floats never
touch balances, so conservation is exact: at every ledger prefix,
sum(balances) + fees collected == sum(endowments). Operations validate
everything up front and only then mutate, so a failed call leaves the
ledger byte-identical.

The ledger's state changes only by folding one entry at a time into it
(`Ledger._apply`): the live operations fold each entry they commit,
`verify_entries` folds with its checks around each step, and `Ledger.load`
keeps the state its verifying fold built. The ledger persists in the
dense-offset line format of `zerebro.offsetlog`.
"""

from __future__ import annotations

import hashlib
import json
import math
import threading
from dataclasses import dataclass
from decimal import Decimal, InvalidOperation
from typing import Callable, Sequence

import numpy as np

from . import offsetlog
from .atomic import write_atomic
from .clock import SimClock
from .errors import (
    BadSymbolError,
    CorruptLogError,
    DuplicateArtError,
    InsufficientFundsError,
    IoFailureError,
    NotOwnerError,
    SymbolTakenError,
)

NANO = 10**9
GENESIS = "genesis"
FEE_SINK = "fees"
ENTRY_KINDS = ("transfer", "mint", "deploy", "sale", "fee")


def to_nanos(amount) -> int:
    """Parse a decimal amount into integer nano-units, exactly."""
    if isinstance(amount, int):
        return amount * NANO
    try:
        scaled = Decimal(str(amount)) * NANO
    except InvalidOperation as exc:
        raise ValueError(f"amount {amount!r} is not a decimal") from exc
    nanos = int(scaled)
    if nanos != scaled:
        raise ValueError(f"amount {amount!r} is not representable in 9 decimals")
    return nanos


def format_nanos(nanos: int) -> str:
    sign = "-" if nanos < 0 else ""
    units, frac = divmod(abs(nanos), NANO)
    return f"{sign}{units}.{frac:09d}"


@dataclass(frozen=True)
class Wallet:
    address: str


@dataclass(frozen=True)
class LedgerEntry:
    sequence: int
    kind: str
    src: str
    dst: str
    amount: int
    timestamp: int
    payload: dict
    payload_hash: str


@dataclass(frozen=True)
class MintRecord:
    token_id: int
    creator: str
    art_hash: str
    timestamp: int


@dataclass(frozen=True)
class TokenRecord:
    name: str
    symbol: str
    total_supply: int
    deployer: str


@dataclass(frozen=True)
class ChainFees:
    mint: int = to_nanos("0.01")
    deploy: int = to_nanos("0.02")


@dataclass(frozen=True)
class VerifyReport:
    ok: bool
    violations: tuple[str, ...] = ()


def wallet_address(seed: int) -> str:
    digest = hashlib.blake2b(seed.to_bytes(8, "little", signed=False), digest_size=8)
    return "w" + digest.hexdigest()


def _entry_hash(kind: str, src: str, dst: str, amount: int, payload: dict) -> str:
    """Content hash over the whole entry body; catches any field tamper."""
    body = {"kind": kind, "src": src, "dst": dst, "amount": amount, "payload": payload}
    return hashlib.sha256(json.dumps(body, sort_keys=True).encode("utf-8")).hexdigest()


def _valid_symbol(symbol: str) -> bool:
    return 1 <= len(symbol) <= 10 and all("A" <= ch <= "Z" for ch in symbol)


def _check_count(name: str, value) -> None:
    """Live ops commit whole counts only: the fold would truncate a float."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise ValueError(f"{name} must be an int, got {value!r}")


class Ledger:
    """Single-writer ledger; committed entries are immutable."""

    def __init__(self, fees: ChainFees = ChainFees(), clock: Callable[[], int] | None = None):
        self.fees = fees
        self._clock = clock or SimClock()
        self._entries: list[LedgerEntry] = []
        self._balances: dict[str, int] = {}
        self._endowed = 0
        self._fees_collected = 0
        self._mints: list[MintRecord] = []
        self._art_index: dict[str, int] = {}
        self._nft_owner: dict[int, str] = {}
        self._tokens: dict[str, TokenRecord] = {}
        self._token_balances: dict[str, dict[str, int]] = {}
        self._lock = threading.RLock()

    # --- views -------------------------------------------------------------

    @property
    def entries(self) -> tuple[LedgerEntry, ...]:
        return tuple(self._entries)

    def balance(self, address: str) -> int:
        return self._balances.get(address, 0)

    def fees_collected(self) -> int:
        return self._fees_collected

    def nft_owner(self, token_id: int) -> str | None:
        return self._nft_owner.get(token_id)

    def token(self, symbol: str) -> TokenRecord | None:
        return self._tokens.get(symbol)

    def token_balance(self, symbol: str, address: str) -> int:
        return self._token_balances.get(symbol, {}).get(address, 0)

    def mints(self) -> tuple[MintRecord, ...]:
        return tuple(self._mints)

    # --- operations -----------------------------------------------------------

    def _append(self, kind: str, src: str, dst: str, amount: int, payload: dict) -> LedgerEntry:
        """Commit one entry and fold it into the state; callers validate first."""
        entry = LedgerEntry(
            sequence=len(self._entries),
            kind=kind,
            src=src,
            dst=dst,
            amount=amount,
            timestamp=self._clock(),
            payload=payload,
            payload_hash=_entry_hash(kind, src, dst, amount, payload),
        )
        self._entries.append(entry)
        self._apply(entry)
        return entry

    def _apply(self, e: LedgerEntry) -> None:
        """The ledger's state transition: fold one entry into the state.

        Live operations, verify_entries and load all change state only
        through here. It checks nothing; verify_entries checks around it.
        """
        kind, payload, balances = e.kind, e.payload, self._balances
        if kind == "transfer":
            if e.src == GENESIS:
                self._endowed += e.amount
            else:
                balances[e.src] = balances.get(e.src, 0) - e.amount
            balances[e.dst] = balances.get(e.dst, 0) + e.amount
        elif kind == "fee":
            balances[e.src] = balances.get(e.src, 0) - e.amount
            self._fees_collected += e.amount
        elif kind == "sale":
            balances[e.src] = balances.get(e.src, 0) - e.amount
            balances[e.dst] = balances.get(e.dst, 0) + e.amount
            if "token" in payload:
                holdings = self._token_balances.setdefault(payload["token"], {})
                units = int(payload["units"])
                holdings[e.dst] = holdings.get(e.dst, 0) - units
                holdings[e.src] = holdings.get(e.src, 0) + units
            else:
                self._nft_owner[payload.get("nft")] = e.src
        elif kind == "mint":
            token_id, art_hash = payload.get("token_id"), payload.get("art_hash")
            self._mints.append(MintRecord(token_id, e.src, art_hash, e.timestamp))
            self._art_index.setdefault(art_hash, token_id)
            self._nft_owner[token_id] = e.src
        elif kind == "deploy":
            symbol = payload.get("symbol")
            supply = int(payload.get("total_supply", 0))
            self._tokens[symbol] = TokenRecord(payload.get("name"), symbol, supply, e.src)
            self._token_balances.setdefault(symbol, {})[e.src] = supply

    def create_wallet(self, seed: int, endowment: int = 0) -> Wallet:
        """Derive a stable address from the seed and endow it from genesis."""
        if endowment < 0:
            raise ValueError("endowment must be non-negative")
        address = wallet_address(seed)
        if endowment > 0:
            with self._lock:
                self._append("transfer", GENESIS, address, endowment, {"endowment": True})
        return Wallet(address=address)

    def transfer(self, src: str, dst: str, amount: int) -> LedgerEntry:
        if amount < 0:
            raise ValueError("amount must be non-negative")
        with self._lock:
            if self.balance(src) < amount:
                raise InsufficientFundsError(
                    f"{src} holds {format_nanos(self.balance(src))}, "
                    f"needs {format_nanos(amount)}"
                )
            return self._append("transfer", src, dst, amount, {})

    def mint_nft(self, wallet: Wallet | str, art: bytes) -> MintRecord:
        """Mint art bytes as an NFT; duplicate art is rejected by content hash."""
        address = wallet.address if isinstance(wallet, Wallet) else wallet
        fee = self.fees.mint
        art_hash = hashlib.sha256(art).hexdigest()
        with self._lock:
            if self.balance(address) < fee:
                raise InsufficientFundsError(
                    f"{address} holds {format_nanos(self.balance(address))}, "
                    f"mint fee is {format_nanos(fee)}"
                )
            if art_hash in self._art_index:
                raise DuplicateArtError(f"art {art_hash[:16]} already minted "
                                        f"as token {self._art_index[art_hash]}")
            token_id = len(self._mints)
            self._append(
                "mint", address, address, 0,
                {"token_id": token_id, "art_hash": art_hash},
            )
            self._append("fee", address, FEE_SINK, fee, {"for": "mint", "token_id": token_id})
            return self._mints[token_id]

    def deploy_token(
        self, wallet: Wallet | str, name: str, symbol: str, total_supply: int
    ) -> TokenRecord:
        address = wallet.address if isinstance(wallet, Wallet) else wallet
        fee = self.fees.deploy
        if not _valid_symbol(symbol):
            raise BadSymbolError(f"symbol {symbol!r} must be 1-10 uppercase ASCII letters")
        _check_count("total_supply", total_supply)
        if total_supply < 1:
            raise ValueError(f"total_supply must be positive, got {total_supply}")
        with self._lock:
            if symbol in self._tokens:
                raise SymbolTakenError(f"symbol {symbol} already deployed")
            if self.balance(address) < fee:
                raise InsufficientFundsError(
                    f"{address} holds {format_nanos(self.balance(address))}, "
                    f"deploy fee is {format_nanos(fee)}"
                )
            self._append(
                "deploy", address, address, 0,
                {"name": name, "symbol": symbol, "total_supply": total_supply},
            )
            self._append("fee", address, FEE_SINK, fee, {"for": "deploy", "symbol": symbol})
            return self._tokens[symbol]

    def execute_sale(self, asset, seller: str, buyer: str, price: int) -> LedgerEntry:
        """Sell an NFT (asset=token_id) or token units (asset=(symbol, units)).

        Balances move buyer -> seller; ownership moves seller -> buyer. A
        self-sale nets to zero but is still recorded.
        """
        if price < 0:
            raise ValueError("price must be non-negative")
        with self._lock:
            if isinstance(asset, int):
                owner = self._nft_owner.get(asset)
                if owner is None or owner != seller:
                    raise NotOwnerError(f"{seller} does not own NFT {asset}")
                payload = {"nft": asset, "price": price}
            else:
                symbol, units = asset
                _check_count("units", units)
                if units < 1:
                    raise ValueError("units must be positive")
                if self.token_balance(symbol, seller) < units:
                    raise NotOwnerError(
                        f"{seller} holds {self.token_balance(symbol, seller)} {symbol}, "
                        f"sale needs {units}"
                    )
                payload = {"token": symbol, "units": units, "price": price}
            if self.balance(buyer) < price:
                raise InsufficientFundsError(
                    f"buyer {buyer} holds {format_nanos(self.balance(buyer))}, "
                    f"price is {format_nanos(price)}"
                )
            return self._append("sale", buyer, seller, price, payload)

    # --- verification ------------------------------------------------------------

    def verify(self) -> VerifyReport:
        return verify_entries(self._entries)

    # --- persistence ---------------------------------------------------------------

    def serialize(self) -> str:
        return "".join(
            offsetlog.encode(e.sequence, e.kind, e.timestamp, {
                "src": e.src, "dst": e.dst, "amount": e.amount,
                "payload": e.payload, "payload_hash": e.payload_hash,
            })
            for e in self._entries
        )

    def save(self, path) -> None:
        try:
            write_atomic(path, self.serialize().encode("utf-8"))
        except OSError as exc:
            raise IoFailureError(f"cannot write ledger {path}: {exc}") from exc

    @classmethod
    def load(cls, path, fees: ChainFees = ChainFees()) -> "Ledger":
        """Rebuild a ledger from its file; the verifying fold builds the state."""
        entries = read_entries(path)
        ledger = cls(fees=fees)
        violations = _fold_checked(entries, ledger)
        if violations:
            raise CorruptLogError("ledger entries fail verification: " + "; ".join(violations))
        ledger._entries = entries
        return ledger


def read_entries(path) -> list[LedgerEntry]:
    """A ledger file's entries, unverified; CorruptLogError on a bad line."""
    entries = []
    for sequence, kind, timestamp, body in offsetlog.read(path, ENTRY_KINDS):
        try:
            entries.append(LedgerEntry(
                sequence=sequence, kind=kind, src=body["src"], dst=body["dst"],
                amount=int(body["amount"]), timestamp=timestamp,
                payload=body["payload"], payload_hash=body["payload_hash"],
            ))
        except (KeyError, TypeError, ValueError) as exc:
            raise CorruptLogError(f"{path}: bad ledger line {sequence}: {exc}") from exc
    return entries


def _counts(value) -> bool:
    """Whether the fold can count with value, as int(value)."""
    try:
        int(value)
    except (TypeError, ValueError, OverflowError):
        return False
    return True


def _key_fields(e: LedgerEntry) -> list[tuple[str, object]]:
    """(field, value) for each value Ledger._apply uses as a dict key."""
    payload = e.payload
    if e.kind == "transfer":
        return [("src", e.src), ("dst", e.dst)]
    if e.kind == "fee":
        return [("src", e.src)]
    if e.kind == "sale":
        asset = "token" if "token" in payload else "nft"
        return [("src", e.src), ("dst", e.dst), (asset, payload.get(asset))]
    if e.kind == "mint":
        return [("token_id", payload.get("token_id")), ("art_hash", payload.get("art_hash"))]
    return [("src", e.src), ("symbol", payload.get("symbol"))]


def verify_entries(entries: Sequence[LedgerEntry]) -> VerifyReport:
    """Check sequencing, prefix-wise balances and conservation, provenance.

    Violations are reported (never raised) and name the first failing
    sequence number per category.
    """
    violations = _fold_checked(entries, Ledger())
    return VerifyReport(ok=not violations, violations=tuple(violations))


def _fold_checked(entries: Sequence[LedgerEntry], ledger: Ledger) -> list[str]:
    """Fold entries into an empty ledger with Ledger._apply, checking each
    one before and after; returns verify_entries' violations."""
    violations: list[str] = []
    next_token_id = 0

    def fail(seq: int, message: str) -> None:
        violations.append(f"seq {seq}: {message}")

    for expected, e in enumerate(entries):
        if e.sequence != expected:
            fail(expected, f"sequence not dense, found {e.sequence}")
            break
        if e.kind not in ENTRY_KINDS:
            fail(e.sequence, f"unknown kind {e.kind!r}")
            continue
        if e.amount < 0:
            fail(e.sequence, f"negative amount {e.amount}")
            continue
        if _entry_hash(e.kind, e.src, e.dst, e.amount, e.payload) != e.payload_hash:
            fail(e.sequence, "entry content hash mismatch")

        payload = e.payload
        if e.kind in ("sale", "mint", "deploy") and not isinstance(payload, dict):
            fail(e.sequence, f"payload {payload!r} is not a JSON object")
            continue
        token_sale = e.kind == "sale" and "token" in payload
        if token_sale and not _counts(payload.get("units")):
            fail(e.sequence, f"token sale units {payload.get('units')!r} not an integer")
            continue
        if e.kind == "deploy" and not _counts(payload.get("total_supply", 0)):
            fail(e.sequence, f"total_supply {payload.get('total_supply')!r} not an integer")
            continue
        unkeyable = [(f, v) for f, v in _key_fields(e) if isinstance(v, (list, dict))]
        if unkeyable:
            field, value = unkeyable[0]
            fail(e.sequence, f"{e.kind} {field} {value!r} is a JSON list or object")
            continue
        if e.kind == "fee" and e.dst != FEE_SINK:
            fail(e.sequence, f"fee routed to {e.dst!r}, not the fee sink")
        elif e.kind == "sale" and not token_sale:
            nft = payload.get("nft")
            if ledger._nft_owner.get(nft) != e.dst:
                fail(e.sequence, f"NFT {nft} sold by non-owner {e.dst}")
        elif e.kind == "mint":
            art_hash = payload.get("art_hash")
            token_id = payload.get("token_id")
            if art_hash in ledger._art_index:
                fail(e.sequence, f"duplicate art hash {str(art_hash)[:16]} "
                                 f"(first minted seq for token {ledger._art_index[art_hash]})")
            if token_id != next_token_id:
                fail(e.sequence, f"token id not dense, expected {next_token_id} got {token_id}")
            next_token_id = (token_id + 1) if isinstance(token_id, int) else next_token_id
        elif e.kind == "deploy" and payload.get("symbol") in ledger._tokens:
            fail(e.sequence, f"symbol {payload.get('symbol')} deployed twice")

        ledger._apply(e)

        if token_sale and ledger._token_balances[payload["token"]][e.dst] < 0:
            fail(e.sequence, f"seller overdraws {payload['token']} units")
        negative = [a for a, b in ledger._balances.items() if b < 0]
        if negative:
            fail(e.sequence, f"negative balance for {sorted(negative)[0]}")
            break
        if sum(ledger._balances.values()) + ledger._fees_collected != ledger._endowed:
            fail(e.sequence, "conservation violated: balances + fees != endowments")
            break

    for symbol, token in ledger._tokens.items():
        circulating = sum(ledger._token_balances.get(symbol, {}).values())
        if circulating != token.total_supply:
            violations.append(
                f"token {symbol}: circulating {circulating} != supply {token.total_supply}"
            )
    return violations


def implied_market_cap(total_supply: int, price_nanos_per_unit: int) -> int:
    """supply * unit price, in nano-units. Pure arithmetic, nothing more."""
    return total_supply * price_nanos_per_unit


# --- procedural art -----------------------------------------------------------------


def generate_art(seed: int, theme: str, width: int = 64, height: int = 64) -> bytes:
    """Deterministic plasma-style image as binary PPM (P6) bytes."""
    digest = hashlib.blake2b(
        theme.encode("utf-8"), digest_size=8, key=(seed % 2**64).to_bytes(8, "little")
    ).digest()
    rng = np.random.default_rng(int.from_bytes(digest, "little"))
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


def parse_ppm_size(art: bytes) -> tuple[int, int]:
    """Width and height from a P6 header; raises on malformed art."""
    if not art.startswith(b"P6\n"):
        raise ValueError("not a binary PPM")
    head = art.split(b"\n", 3)
    width, height = head[1].split(b" ")
    return int(width), int(height)


# --- agent-facing client --------------------------------------------------------------


class AgentChainClient:
    """The agent's handle on the chain: one wallet, themed art, derived symbols."""

    def __init__(
        self,
        ledger: Ledger,
        wallet: Wallet,
        art_size: tuple[int, int] = (32, 32),
        art_sink: Callable[[str, bytes], None] | None = None,
    ):
        self.ledger = ledger
        self.wallet = wallet
        self.art_size = art_size
        self._art_sink = art_sink

    def _art(self, seed: int, theme: str) -> tuple[str, bytes]:
        art = generate_art(seed, theme, *self.art_size)
        art_hash = hashlib.sha256(art).hexdigest()
        if self._art_sink is not None:
            self._art_sink(art_hash, art)
        return art_hash, art

    def generate_image(self, seed: int, theme: str) -> str:
        art_hash, _ = self._art(seed, theme)
        return art_hash

    def mint(self, seed: int, theme: str) -> MintRecord:
        _, art = self._art(seed, theme)
        return self.ledger.mint_nft(self.wallet, art)

    def deploy(self, seed: int, theme: str) -> TokenRecord:
        letters = [ch for ch in theme.upper() if "A" <= ch <= "Z"][:4] or ["Z"]
        suffix = format(seed % 26**3, "06d")[:3]
        symbol = ("".join(letters) + "".join(
            chr(ord("A") + int(d)) for d in suffix
        ))[:10]
        return self.ledger.deploy_token(
            self.wallet, name=f"{theme} token", symbol=symbol, total_supply=10**9
        )


__all__ = [
    "NANO", "GENESIS", "FEE_SINK", "to_nanos", "format_nanos",
    "Wallet", "LedgerEntry", "MintRecord", "TokenRecord", "ChainFees",
    "VerifyReport", "Ledger", "read_entries", "verify_entries", "implied_market_cap",
    "generate_art", "parse_ppm_size", "AgentChainClient", "wallet_address",
]
