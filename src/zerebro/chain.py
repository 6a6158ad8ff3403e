"""Simulated blockchain: wallets, flat fees, NFT mints with provenance,
token deployment, fixed-price sales, and full-ledger verification.

Money is 9-decimal fixed point carried as integer nano-units; floats never
touch balances, so conservation is exact: at every ledger prefix,
sum(balances) + fees collected == sum(endowments). Operations validate
everything up front and only then mutate, so a failed call leaves the
ledger byte-identical.

The ledger's rules live in its operations and nowhere else; a committed
entry changes the state only through `Ledger._apply`. `verify_entries`
replays: for each entry it runs, on an empty ledger, the live operation
that writes it and requires that exactly the given entries come out, and
`Ledger.load` keeps the ledger that replay built. The ledger persists in
the dense-offset line format of `zerebro.offsetlog`.

An entry's file line is written once, when it is committed, by `_line`,
from the same encoding of its values that its content hash reads. A
replayed entry commits the line its hash check wrote, so a loaded ledger
encodes nothing again, and `Ledger.serialize` only joins the lines
committed since its last call onto the text it keeps.
"""

from __future__ import annotations

import hashlib
import json
import math
import operator
import re
import sys
import threading
from dataclasses import dataclass
from decimal import MAX_PREC, Context, Decimal, InvalidOperation, Overflow
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
    ZerebroError,
)
from .seeding import Draws, u64

NANO = 10**9
GENESIS = "genesis"
FEE_SINK = "fees"
ENTRY_KINDS = ("transfer", "mint", "deploy", "sale", "fee")
# the largest amount, in units, that to_nanos takes; any real supply is
# far below it, and ledger sums of such amounts stay far inside the
# 4300-digit limit Python sets on writing an int as text
MAX_AMOUNT = 10**30
# scales an amount to nano-units with no rounding; past the default
# exponent range the product overflows
_EXACT = Context(prec=MAX_PREC, traps=[InvalidOperation, Overflow])


def to_nanos(amount) -> int:
    """Parse a finite decimal amount of at most MAX_AMOUNT units, in either
    sign, into integer nano-units, exactly."""
    if isinstance(amount, int):
        scaled = amount * NANO
    else:
        try:
            scaled = _EXACT.multiply(Decimal(str(amount)), NANO)
        except InvalidOperation as exc:
            raise ValueError(f"amount {amount!r} is not a decimal") from exc
        except Overflow as exc:
            raise ValueError(f"amount {amount!r} is too large") from exc
        if not scaled.is_finite():
            raise ValueError(f"amount {amount!r} is not finite")
    # a comparison, unlike abs() of a Decimal, never rounds
    if not -MAX_AMOUNT * NANO <= scaled <= MAX_AMOUNT * NANO:
        raise ValueError(f"amount {amount!r} is too large: the ledger maximum is "
                         f"{MAX_AMOUNT:.0e} units")
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


@dataclass(frozen=True, slots=True)
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


_json_str = json.encoder.encode_basestring_ascii


def _json(value) -> str:
    """offsetlog.canonical_json(value); an exact str or int is written as the
    C encoder writes it inside a body, without a call into the encoder."""
    if type(value) is str:
        return _json_str(value)
    if type(value) is int:
        return int.__repr__(value)
    return offsetlog.canonical_json(value)


def _line(sequence: int, kind: str, timestamp: int, src: str, dst: str, amount: int,
          payload: dict) -> tuple[str, str]:
    """An entry's content hash and its file line, from one encoding of each value.

    The hash, over the whole entry body so it catches any field tamper, is
    the sha256 of canonical_json of {amount, dst, kind, payload, src}; the
    line's body is canonical_json of {amount, dst, payload, payload_hash,
    src}. Both sort their keys, so they share the text of every value but
    kind and payload_hash.
    """
    amount, dst, payload, src = _json(amount), _json(dst), _json(payload), _json(src)
    payload_hash = hashlib.sha256((
        f'{{"amount": {amount}, "dst": {dst}, "kind": {_json(kind)}, '
        f'"payload": {payload}, "src": {src}}}').encode("utf-8")).hexdigest()
    return payload_hash, offsetlog.encode_text(sequence, kind, timestamp, (
        f'{{"amount": {amount}, "dst": {dst}, "payload": {payload}, '
        f'"payload_hash": "{payload_hash}", "src": {src}}}'))


def _check_count(name: str, value) -> None:
    """Counts and amounts are whole and at most MAX_AMOUNT units in either
    sign, in live calls and in replayed ledger files alike."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise ValueError(f"{name} must be an int, got {value!r}")
    if abs(value) > MAX_AMOUNT * NANO:
        # the value is not written out: past 4300 digits str() of it raises
        raise ValueError(f"{name} is out of range: the ledger maximum is "
                         f"{MAX_AMOUNT * NANO:.0e} nano-units ({MAX_AMOUNT:.0e} units)")


_ART_HASH = re.compile("[0-9a-f]{64}")


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
        # the file text: the lines serialize has joined, and those committed since
        self._text = ""
        self._pending: list[str] = []

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
        entry, line = self._entry(kind, src, dst, amount, payload)
        self._entries.append(entry)
        self._pending.append(line)
        self._apply(entry)
        return entry

    def _entry(self, kind: str, src: str, dst: str, amount: int,
               payload: dict) -> tuple[LedgerEntry, str]:
        """The next entry, stamped by the clock, and its file line; replay puts
        the given ones here."""
        sequence, timestamp = len(self._entries), self._clock()
        payload_hash, line = _line(sequence, kind, timestamp, src, dst, amount, payload)
        return LedgerEntry(sequence, kind, src, dst, amount, timestamp, payload,
                           payload_hash), line

    def _apply(self, e: LedgerEntry) -> None:
        """The state transition for one committed entry; operations check, it does not."""
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
                holdings, units = self._token_balances[payload["token"]], payload["units"]
                holdings[e.dst] -= units
                holdings[e.src] = holdings.get(e.src, 0) + units
            else:
                self._nft_owner[payload["nft"]] = e.src
        elif kind == "mint":
            token_id, art_hash = payload["token_id"], payload["art_hash"]
            self._mints.append(MintRecord(token_id, e.src, art_hash, e.timestamp))
            self._art_index[art_hash] = token_id
            self._nft_owner[token_id] = e.src
        elif kind == "deploy":
            symbol, supply = payload["symbol"], payload["total_supply"]
            self._tokens[symbol] = TokenRecord(payload["name"], symbol, supply, e.src)
            self._token_balances[symbol] = {e.src: supply}

    def _require_funds(self, address: str, amount: int, what: str, holder: str = "") -> None:
        """Refuse unless address holds amount; `what` names the amount."""
        held = self.balance(address)
        if held < amount:
            raise InsufficientFundsError(
                f"{holder}{address} holds {format_nanos(held)}, {what} {format_nanos(amount)}"
            )

    def create_wallet(self, seed: int, endowment: int = 0) -> Wallet:
        """Derive a stable address from the seed and endow it from genesis
        the first time this ledger sees the address, never again."""
        address = wallet_address(seed)
        self._endow(address, endowment)
        return Wallet(address=address)

    def _endow(self, address: str, amount: int) -> None:
        _check_count("endowment", amount)
        if amount < 0:
            raise ValueError("endowment must be non-negative")
        with self._lock:
            # every address that has moved or held money has a balance key
            if amount > 0 and address not in self._balances:
                self._append("transfer", GENESIS, address, amount, {"endowment": True})

    def transfer(self, src: str, dst: str, amount: int) -> LedgerEntry:
        _check_count("amount", amount)
        if amount < 0:
            raise ValueError("amount must be non-negative")
        with self._lock:
            self._require_funds(src, amount, "needs")
            return self._append("transfer", src, dst, amount, {})

    def mint_nft(self, wallet: Wallet | str, art: bytes) -> MintRecord:
        """Mint art bytes as an NFT; duplicate art is rejected by content hash."""
        address = wallet.address if isinstance(wallet, Wallet) else wallet
        return self._mint(address, hashlib.sha256(art).hexdigest())

    def _mint(self, address: str, art_hash: str) -> MintRecord:
        """mint_nft by the art's hash, which is all a ledger holds of it."""
        if not _ART_HASH.fullmatch(art_hash):  # a TypeError for a non-str
            raise ValueError(f"art_hash must be 64 lowercase hex digits, got {art_hash!r}")
        fee = self.fees.mint
        with self._lock:
            self._require_funds(address, fee, "mint fee is")
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
        if not (1 <= len(symbol) <= 10 and all("A" <= ch <= "Z" for ch in symbol)):
            raise BadSymbolError(f"symbol {symbol!r} must be 1-10 uppercase ASCII letters")
        _check_count("total_supply", total_supply)
        if total_supply < 1:
            raise ValueError(f"total_supply must be positive, got {total_supply}")
        with self._lock:
            if symbol in self._tokens:
                raise SymbolTakenError(f"symbol {symbol} already deployed")
            self._require_funds(address, fee, "deploy fee is")
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
        _check_count("price", price)
        if price < 0:
            raise ValueError("price must be non-negative")
        with self._lock:
            if isinstance(asset, int):
                _check_count("nft", asset)  # a bool is no NFT id
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
            self._require_funds(buyer, price, "price is", holder="buyer ")
            return self._append("sale", buyer, seller, price, payload)

    # --- verification ------------------------------------------------------------

    def verify(self) -> VerifyReport:
        """verify_entries, replayed at this ledger's own fees."""
        return _fold_checked(self.entries, Ledger(self.fees))

    # --- persistence ---------------------------------------------------------------

    def serialize(self) -> str:
        """The ledger file's text: each entry's `offsetlog` line, in order.

        The text is kept, and a call joins onto it the lines committed since
        the last one; with none, it returns the kept text itself.
        """
        with self._lock:
            if self._pending:
                self._text += "".join(self._pending)
                self._pending.clear()
            return self._text

    def save(self, path) -> None:
        try:
            write_atomic(path, self.serialize().encode("utf-8"))
        except OSError as exc:
            raise IoFailureError(f"cannot write ledger {path}: {exc}") from exc

    @classmethod
    def load(cls, path, fees: ChainFees = ChainFees()) -> "Ledger":
        """Rebuild a ledger by replaying its file; CorruptLogError on a violation.

        The ledger's clock resumes STEP_MS after the last entry's timestamp,
        so entries appended after a load keep the file's timestamps in order.
        """
        entries = read_entries(path)
        ledger = cls(fees=fees, clock=SimClock.after(entries[-1].timestamp) if entries else None)
        violations = _fold_checked(entries, ledger).violations
        if violations:
            raise CorruptLogError("ledger entries fail verification: " + "; ".join(violations))
        return ledger


def _interned(value):
    """value, or a dict's keys, with each str interned.

    json.loads makes a fresh copy of every kind, address and payload key on
    every line; a loaded ledger shares one of each instead.
    """
    if isinstance(value, str):
        return sys.intern(value)
    if isinstance(value, dict):
        return {sys.intern(k): v for k, v in value.items()}
    return value


def read_entries(path) -> list[LedgerEntry]:
    """A ledger file's entries, unverified; CorruptLogError on a line that
    lacks a field. Values are kept as read: replay refuses an amount that is
    not an int."""
    entries = []
    for sequence, kind, timestamp, body in offsetlog.read(path, ENTRY_KINDS):
        try:
            entries.append(LedgerEntry(
                sequence=sequence, kind=_interned(kind), src=_interned(body["src"]),
                dst=_interned(body["dst"]), amount=body["amount"], timestamp=timestamp,
                payload=_interned(body["payload"]), payload_hash=body["payload_hash"],
            ))
        except KeyError as exc:
            raise CorruptLogError(f"{path}: bad ledger line {sequence}: {exc}") from exc
    return entries


def verify_entries(entries: Sequence[LedgerEntry]) -> VerifyReport:
    """Replay entries at the default fees; report, never raise, each violation.

    Each is one line, `seq N: <message>`: `timestamp T precedes seq M's T'`,
    `entry content hash mismatch`, `<kind> src|dst must be a str, got A`
    (for an address of another JSON type), the refusing operation's own error,
    `<kind> payload P cannot be read`, `the <kind> at seq M writes <entry>
    here` (for an entry that differs or is missing), `the <kind> at seq N
    writes nothing`, `no operation starts with a '<kind>' entry`, `negative
    balance for <address>` or `conservation violated: ...`; or, unnumbered,
    `token <symbol>: circulating C != supply S`. Replay stops at the first.
    """
    return _fold_checked(entries, Ledger())


def _fold_checked(entries: Sequence[LedgerEntry], ledger: Ledger) -> VerifyReport:
    """Replay entries on the empty ledger; returns verify_entries' report.

    Each operation runs with the fields of the entry it starts at, and each
    entry it commits must be the given one there, which it commits instead,
    with the file line its hash check wrote.
    """
    violations: list[str] = []
    lines: list[str] = []
    for i, e in enumerate(entries):
        if i and e.timestamp < entries[i - 1].timestamp:
            violations.append(f"seq {i}: timestamp {e.timestamp} precedes seq {i - 1}'s "
                              f"{entries[i - 1].timestamp}")
        payload_hash, line = _line(e.sequence, e.kind, e.timestamp, e.src, e.dst, e.amount,
                                   e.payload)
        if payload_hash != e.payload_hash:
            violations.append(f"seq {i}: entry content hash mismatch")
        lines.append(line)

    written, last = ledger._entries, len(entries) - 1

    def given(kind: str, src: str, dst: str, amount: int,
              payload: dict) -> tuple[LedgerEntry, str]:
        # the given entry, if it is the one written here to the byte: == takes
        # 1, 1.0 and True for one another, so the values' types must match too
        seq = len(written)
        if seq <= last and payload == entries[seq].payload:
            e = entries[seq]
            ours = (seq, kind, src, dst, amount, *payload.values())
            theirs = (e.sequence, e.kind, e.src, e.dst, e.amount, *map(e.payload.get, payload))
            if ours == theirs and list(map(type, ours)) == list(map(type, theirs)):
                return e, lines[seq]
        raise CorruptLogError(f"seq {seq}: the {entries[start].kind} at seq {start} writes "
                              f"{kind} {src} -> {dst} amount {amount} payload {payload!r} here")

    ledger._entry = given
    start = 0
    while start <= last:
        e, p, stop = entries[start], entries[start].payload, None
        try:
            if type(e.src) is not str or type(e.dst) is not str:
                bad = "src" if type(e.src) is not str else "dst"
                stop = f"seq {start}: {e.kind} {bad} must be a str, got {getattr(e, bad)!r}"
            elif e.kind == "transfer" and e.src == GENESIS:
                ledger._endow(e.dst, e.amount)
            elif e.kind == "transfer":
                ledger.transfer(e.src, e.dst, e.amount)
            elif e.kind == "mint":
                ledger._mint(e.src, p["art_hash"])
            elif e.kind == "deploy":
                ledger.deploy_token(e.src, p["name"], p["symbol"], p["total_supply"])
            elif e.kind == "sale":
                # an NFT's id is an index: a float or a list there is
                # unreadable, not a (symbol, units) pair
                asset = (p["token"], p["units"]) if "token" in p else operator.index(p["nft"])
                ledger.execute_sale(asset, e.dst, e.src, p["price"])
            else:
                stop = f"seq {start}: no operation starts with a {e.kind!r} entry"
        except CorruptLogError as exc:  # from given: no operation raises it
            stop = str(exc)
        except (ZerebroError, ValueError) as exc:
            stop = f"seq {start}: {exc}"
        except (KeyError, TypeError, AttributeError):
            stop = f"seq {start}: {e.kind} payload {p!r} cannot be read"
        if stop is None and len(written) == start:
            stop = f"seq {start}: the {e.kind} at seq {start} writes nothing"
        elif stop is None:
            start, balances = len(written), ledger._balances
            negative = [a for a, b in balances.items() if b < 0]
            if negative:
                stop = f"seq {start - 1}: negative balance for {min(negative)}"
            elif sum(balances.values()) + ledger._fees_collected != ledger._endowed:
                stop = f"seq {start - 1}: conservation violated: balances + fees != endowments"
        if stop:
            violations.append(stop)
            break
    del ledger._entry

    for symbol, token in ledger._tokens.items():
        circulating = sum(ledger._token_balances[symbol].values())
        if circulating != token.total_supply:
            violations.append(
                f"token {symbol}: circulating {circulating} != supply {token.total_supply}"
            )
    return VerifyReport(ok=not violations, violations=tuple(violations))


def implied_market_cap(total_supply: int, price_nanos_per_unit: int) -> int:
    """supply * unit price, in nano-units. Pure arithmetic, nothing more."""
    return total_supply * price_nanos_per_unit


# --- procedural art -----------------------------------------------------------------


# the bounds of generate_art's 48 uniforms: per channel, per wave, (fx, fy, phase, amplitude).
# With array bounds `Draws.uniform` computes each value as numpy's scalar calls
# do, low + (high - low) * u, so the 48 values equal twelve per-wave draws.
_LOW = np.tile([1.0, 1.0, 0.0, 0.4], 12)
_HIGH = np.tile([7.0, 7.0, 2.0 * math.pi, 1.0], 12)


def generate_art(seed: int, theme: str, width: int = 64, height: int = 64) -> bytes:
    """Deterministic plasma-style image as binary PPM (P6) bytes.

    Each of the three channels sums four sine waves over the unit square.
    The draws keyed by (theme, seed) give 48 uniforms in one call: by
    channel, then wave, then (fx, fy) in [1, 7), phase in [0, 2 pi) and
    amplitude in [0.4, 1). Each pixel sums its waves in wave order, and
    each channel is scaled from its own min..max to 0..255. Width and
    height below 1 raise ValueError.
    """
    for name, size in (("width", width), ("height", height)):
        if size < 1:
            raise ValueError(f"art {name} must be at least 1, got {size}")
    draws = Draws(theme.encode("utf-8"), key=u64(seed % 2**64))
    # each (4 waves, 3 channels, 1, 1): wave k's value for every channel
    fx, fy, phase, amp = draws.uniform(_LOW, _HIGH).reshape(3, 4, 4, 1, 1).transpose(2, 1, 0, 3, 4)
    xs = np.arange(width, dtype=np.float64) / width
    ys = (np.arange(height, dtype=np.float64) / height)[:, None]
    # amp * sin(2 pi (fx xs + fy ys) + phase) for every wave of every channel,
    # as one (4, 3, H, W) array worked in place, so a large image makes no
    # temporaries of that size. Summing in wave order from w[0] rather than
    # from zeros can only change a zero's sign, which the min..max scaling
    # maps to the same byte.
    w = fx * xs + fy * ys
    w *= 2.0 * math.pi
    w += phase
    np.sin(w, out=w)
    w *= amp
    field = w[0] + w[1] + w[2] + w[3]
    lo = field.min(axis=(1, 2), keepdims=True)
    span = field.max(axis=(1, 2), keepdims=True) - lo
    span[span == 0.0] = 1.0
    pixels = ((field - lo) / span * 255.0).astype(np.uint8).transpose(1, 2, 0)
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
    "NANO", "GENESIS", "FEE_SINK", "MAX_AMOUNT", "to_nanos", "format_nanos",
    "Wallet", "LedgerEntry", "MintRecord", "TokenRecord", "ChainFees",
    "VerifyReport", "Ledger", "read_entries", "verify_entries", "implied_market_cap",
    "generate_art", "parse_ppm_size", "AgentChainClient", "wallet_address",
]
