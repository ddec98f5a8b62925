"""Medium-capacity channel: grind addresses whose selected digest bits carry
payload chunks, then (optionally) order the outputs to carry a permutation
rank as extra bits.

Every emitted address is a real derived address — the digest bits are never
written directly, only searched for — so a recorded derivation index can
re-derive every output (the no-manual-modification property).

One address carrying an m-bit chunk costs ~2^m attempts (the paper's cost
law). A transaction grinds its n chunks in one scan over the counters, in
which each counter fills the first open chunk it carries, so it costs the
expected maximum of n geometric waits, ~2^m * H_n attempts
(H_n = 1 + 1/2 + ... + 1/n; 2.2x fewer than n * 2^m at n = 5).

PERMUTED mode spends t = ceil(log2 n) bits per chunk on a masked slot tag so
the receiver can restore payload order after the permutation is applied.
Tags are masked with a keyed per-slot stream; counters whose masks collide
are unusable for PERMUTED transactions and both sides skip them (usability
is computable from the shared key alone, so the skip set never desyncs).
"""

from __future__ import annotations

import dataclasses
import hashlib
import math
from dataclasses import dataclass
from enum import Enum

from . import backend
from .bitio import bits_to_int, int_to_bits
from .errors import (
    GrindExhausted,
    PermutationMismatch,
    TagCorruption,
    ValidationError,
)
from .hdw import (
    DOMAIN_GRIND,
    Address,
    Channel,
    DerivationIndex,
    KeyMaterial,
    derive_address,
)
from .ledger import DUST, StegoTemplate, StegoTransaction, TxOutput
from .permcode import CanonicalSet, PermRank, perm_capacity_bits, rank, unrank


class Mode(Enum):
    ORDERED = "ordered"
    PERMUTED = "permuted"


def _ceil_log2(n: int) -> int:
    return (n - 1).bit_length()


@dataclass(frozen=True)
class ChannelConfig:
    """Sender/receiver agreement: outputs per transaction, bits per address,
    chunk ordering mode, and which digest bits carry payload."""

    n: int = 5
    m: int = 15
    mode: Mode = Mode.ORDERED
    bit_selector: tuple[int, ...] | None = None
    grind_cap: int | None = None
    max_fields_per_tx: int = 0  # high channel: 0 = single transaction

    def __post_init__(self):
        # configs also arrive from files and config frames: check types first
        ints = [self.n, self.m, self.max_fields_per_tx, *(self.bit_selector or ())]
        if self.grind_cap is not None:
            ints.append(self.grind_cap)
        if (any(type(v) is not int for v in ints) or type(self.mode) is not Mode
                or type(self.bit_selector) not in (tuple, type(None))):
            raise ValidationError(f"channel config field of the wrong type: {self!r}")
        if self.max_fields_per_tx < 0 or (self.grind_cap is not None and self.grind_cap < 1):
            raise ValidationError("max_fields_per_tx must be >= 0 and grind_cap >= 1")
        if not 2 <= self.n <= 20:
            raise ValidationError("n must be in [2, 20]")
        if not 0 <= self.m <= 24:
            raise ValidationError("m must be in [0, 24]")
        if self.mode is Mode.PERMUTED and self.m <= self.tag_bits:
            raise ValidationError(
                f"PERMUTED needs m > ceil(log2 n) = {self.tag_bits}"
            )
        if self.bit_selector is not None:
            sel = self.bit_selector
            if len(sel) != self.m or len(set(sel)) != self.m:
                raise ValidationError("bit_selector must hold m distinct positions")
            if any(not 0 <= p < 160 for p in sel):
                raise ValidationError("bit positions must be in [0, 160)")

    @property
    def selector(self) -> tuple[int, ...]:
        if self.bit_selector is not None:
            return self.bit_selector
        return tuple(range(self.m - 1, -1, -1))  # m least-significant bits

    @property
    def tag_bits(self) -> int:
        return _ceil_log2(self.n)

    @property
    def attempts_cap(self) -> int:
        return self.grind_cap if self.grind_cap is not None else 2 ** (self.m + 8)

    def to_dict(self) -> dict:
        """Every field, in field order, as JSON values (the mode's value, the
        selector as a list)."""
        data = dataclasses.asdict(self)
        data["mode"] = self.mode.value
        if self.bit_selector is not None:
            data["bit_selector"] = list(self.bit_selector)
        return data

    @classmethod
    def from_dict(cls, data: dict) -> "ChannelConfig":
        """Inverse of to_dict. Keys that name no field are ignored, so a dict
        written with fields since removed still loads; a missing key takes
        the default; a bad value raises ValidationError."""
        if not isinstance(data, dict):
            raise ValidationError("channel config must be a mapping")
        names = {f.name for f in dataclasses.fields(cls)}
        values = {key: value for key, value in data.items() if key in names}
        try:
            if "mode" in values:
                values["mode"] = Mode(values["mode"])
            if values.get("bit_selector") is not None:
                values["bit_selector"] = tuple(values["bit_selector"])
            return cls(**values)
        except (TypeError, ValueError) as exc:
            raise ValidationError(f"bad channel config: {exc}") from exc


@dataclass(frozen=True)
class Chunk:
    bits: int
    slot: int

    def validate(self, cfg: ChannelConfig) -> None:
        if self.bits >> cfg.m:
            raise ValidationError(f"chunk value {self.bits} exceeds {cfg.m} bits")


@dataclass(frozen=True)
class GrindResult:
    address: Address
    index: DerivationIndex
    attempts: int


@dataclass
class CapacityReport:
    n: int
    m: int
    paper: float  # n*m + log2(n!), fractional bits included
    ordered: int
    permuted: int | None


def effective_capacity(cfg: ChannelConfig) -> CapacityReport:
    t = cfg.tag_bits
    permuted = None
    if cfg.m > t and cfg.n >= 2:
        permuted = cfg.n * (cfg.m - t) + perm_capacity_bits(cfg.n)
    return CapacityReport(
        n=cfg.n,
        m=cfg.m,
        paper=cfg.n * cfg.m + math.log2(math.factorial(cfg.n)),
        ordered=cfg.n * cfg.m,
        permuted=permuted,
    )


def payload_bits_per_tx(cfg: ChannelConfig) -> int:
    cap = effective_capacity(cfg)
    return cap.ordered if cfg.mode is Mode.ORDERED else cap.permuted


def grind(
    km: KeyMaterial,
    target: Chunk,
    cfg: ChannelConfig,
    start_index: int,
) -> GrindResult:
    """Smallest grind counter >= start_index whose address carries the
    target bits. Deterministic; backend-accelerated."""
    return _grind_chunks(km, [target], cfg, start_index)[0]


def _grind_chunks(
    km: KeyMaterial,
    chunks: list[Chunk],
    cfg: ChannelConfig,
    start_index: int,
) -> list[GrindResult]:
    """One scan of grind counters from start_index that gives every chunk
    its own address, in chunk order. A counter goes to the first still-open
    chunk its digest carries, so equal chunks get distinct counters (and
    digests). The scan ends at the last hit, after ~2^m * H_n attempts for
    n chunks, and never runs past cfg.attempts_cap counters."""
    for chunk in chunks:
        chunk.validate(cfg)
    if start_index < 1:
        raise ValidationError("start_index must be >= 1")
    hit = backend.get().grind_scan(
        km.k,
        DOMAIN_GRIND,
        km.gy,
        start_index,
        cfg.attempts_cap,
        cfg.selector,
        *(chunk.bits for chunk in chunks),
    )
    if hit is None:
        values = ", ".join(f"{chunk.bits:#x}" for chunk in chunks)
        raise GrindExhausted(
            f"no match for every {cfg.m}-bit chunk of ({values}) within "
            f"{cfg.attempts_cap} attempts",
            next_counter=start_index + cfg.attempts_cap,
        )
    return [
        GrindResult(
            address=Address(digest),
            index=DerivationIndex(DOMAIN_GRIND, counter),
            attempts=counter - start_index + 1,
        )
        for counter, digest in hit[0]
    ]


# ---------------------------------------------------------------------------
# Slot-tag masking (PERMUTED mode)
#
# mask(slot) = first t bits of SHA-256(k || "tagmask" || counter || slot).
# Masks are independent per slot, so the n masked tags can collide; a counter
# whose tags collide is unusable (slot recovery would be ambiguous) and both
# sides skip it deterministically. A wrong key yields an unrelated tag set,
# so a matched transaction fails to unmask with probability 1 - n!/2^(t*n).

def masked_slot_tags(k: bytes, counter: int, n: int, t: int) -> list[int]:
    """Masked tag per slot (may collide; see med_counter_usable)."""
    tags = []
    for slot in range(n):
        msg = k + b"tagmask" + counter.to_bytes(8, "big") + bytes([slot])
        mask = int.from_bytes(hashlib.sha256(msg).digest()[:4], "big") >> (32 - t)
        tags.append(slot ^ mask)
    return tags


def med_counter_usable(k: bytes, counter: int, cfg: "ChannelConfig") -> bool:
    """PERMUTED transactions only ride counters whose masked tags are
    distinct; ORDERED mode uses every counter."""
    if cfg.mode is not Mode.PERMUTED:
        return True
    tags = masked_slot_tags(k, counter, cfg.n, cfg.tag_bits)
    return len(set(tags)) == cfg.n


def next_usable_counter(k: bytes, counter: int, cfg: "ChannelConfig") -> int:
    while not med_counter_usable(k, counter, cfg):
        counter += 1
    return counter


# ---------------------------------------------------------------------------
# Embedding

def embed(gen, payload: list[int], cfg: ChannelConfig, rng) -> StegoTemplate:
    """Build one transaction carrying `payload` bits at the generation's
    next MED counter.

    Grinds all n chunks in one scan from the generation's next grind
    counter, ~2^m * H_n attempts (H_n = 1 + 1/2 + ... + 1/n), and moves that
    counter past the last hit. Reads (without advancing) the MED signal
    counter. Output amounts come from `rng`.
    """
    expected = payload_bits_per_tx(cfg)
    if len(payload) != expected:
        raise ValidationError(f"payload must be exactly {expected} bits, got {len(payload)}")
    if any(b not in (0, 1) for b in payload):
        raise ValidationError("payload must be a bit list")
    km = gen.km
    counter = gen.next_signal["MED"]
    signal = derive_address(km, DerivationIndex(Channel.MED.value, counter))

    if cfg.mode is Mode.ORDERED:
        chunks = [
            Chunk(bits=bits_to_int(payload[i * cfg.m : (i + 1) * cfg.m]), slot=i)
            for i in range(cfg.n)
        ]
    else:
        t = cfg.tag_bits
        data_bits = cfg.m - t
        tags = masked_slot_tags(km.k, counter, cfg.n, t)
        if len(set(tags)) != cfg.n:
            raise ValidationError(
                f"MED counter {counter} is unusable in PERMUTED mode "
                "(colliding slot tags); skip to the next counter"
            )
        chunks = []
        for slot in range(cfg.n):
            bits = payload[slot * data_bits : (slot + 1) * data_bits]
            chunks.append(Chunk(bits=(tags[slot] << data_bits) | bits_to_int(bits), slot=slot))
    records = _grind_chunks(km, chunks, cfg, gen.next_grind)
    gen.next_grind = max(r.index.counter for r in records) + 1
    if cfg.mode is Mode.ORDERED:
        ordered_records = records
    else:
        v = bits_to_int(payload[cfg.n * data_bits :])
        canon = CanonicalSet.from_addresses([r.address for r in records])
        order = unrank(PermRank.of(v, cfg.n), canon)
        by_digest = {r.address.digest: r for r in records}
        ordered_records = [by_digest[a.digest] for a in order]

    stego_outputs = tuple(
        TxOutput(rec.address.digest, rng.randint(DUST, 1_000_000))
        for rec in ordered_records
    )
    change_digest, change_counter = gen.fresh_wallet_address()
    return StegoTemplate(
        counter=counter,
        signal_address=signal,
        stego_outputs=stego_outputs,
        grind_records=tuple(ordered_records),
        change_output=TxOutput(change_digest, rng.randint(DUST, 1_000_000)),
        change_index=DerivationIndex(DOMAIN_GRIND, change_counter),
    )


def extract(
    tx: StegoTransaction,
    km: KeyMaterial,
    cfg: ChannelConfig,
    counter: int,
) -> list[int]:
    """Recover the payload bits from a matched transaction.

    `counter` is the MED signal counter the input address matched at.
    """
    if len(tx.outputs) != cfg.n + 1:
        raise TagCorruption(
            f"expected {cfg.n} stego outputs plus change, got {len(tx.outputs)}"
        )
    stego = tx.outputs[: cfg.n]
    digests = [o.field for o in stego]
    if len(set(digests)) != len(digests):
        raise PermutationMismatch("duplicate output digests")
    sel = cfg.selector
    chunks = [backend.select_bits(d, sel) for d in digests]

    if cfg.mode is Mode.ORDERED:
        bits: list[int] = []
        for c in chunks:
            bits.extend(int_to_bits(c, cfg.m))
        return bits

    t = cfg.tag_bits
    data_bits = cfg.m - t
    expected_tags = masked_slot_tags(km.k, counter, cfg.n, t)
    if len(set(expected_tags)) != cfg.n:
        raise TagCorruption(
            "matched counter is unusable under this key (colliding tags)"
        )
    tag_to_slot = {tag: slot for slot, tag in enumerate(expected_tags)}
    slot_payloads: dict[int, int] = {}
    for c in chunks:
        tag = c >> data_bits
        slot = tag_to_slot.get(tag)
        if slot is None or slot in slot_payloads:
            raise TagCorruption("slot tags do not unmask to a permutation")
        slot_payloads[slot] = c & ((1 << data_bits) - 1)
    addresses = [Address(d) for d in digests]
    canon = CanonicalSet.from_addresses(addresses)
    v = rank(addresses, canon)
    bits = []
    for slot in range(cfg.n):
        bits.extend(int_to_bits(slot_payloads[slot], data_bits))
    bits.extend(int_to_bits(v.value, perm_capacity_bits(cfg.n)))
    return bits
