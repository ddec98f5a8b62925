"""Medium-capacity channel: grind addresses whose selected digest bits carry
payload chunks, then (optionally) order the outputs to carry a permutation
rank as extra bits.

Every emitted address is a real derived address — the digest bits are never
written directly, only searched for — so a recorded derivation index can
re-derive every output (the no-manual-modification property).

One address carrying an m-bit chunk costs ~2^m attempts (the paper's cost
law). A scan grinds many chunks at once: each counter fills the first open
chunk it carries, so k chunks of distinct values cost the expected maximum
of k geometric waits, ~2^m * H_k attempts (H_k = 1 + 1/2 + ... + 1/k); a
value that c chunks share waits for its c-th hit, so when k nears 2^m a
scan costs more (~1.4x at k = 20, m = 4). A message grinds its T
transactions in groups of g = floor(MAX_TARGETS / n), one scan for the
g * n chunks of a group, so it costs ceil(T/g) scans of ~2^m * H_{g*n}
attempts (the last group may be smaller): 64 * H_10 ~ 188 for a
2-transaction message at n = 5, m = 6, where one scan per transaction
costs 2 * 64 * H_5 ~ 292. At n > 10 a group is one transaction. An
attempt is one counter consumed. The compiled backend derives counters in
batches of 256 and hands the part of a batch past the last hit to the next
group's scan, which starts just past it, so over many messages it derives
about as many counters as the scans consume, and at most one batch more.
An attempt costs ~2.7 us on a CPU with AVX-512 IFMA, where the kernel adds
8 lanes at a time, ~8.5 us on its portable path and 250-350 us on the pure
backend (med_grind on a 2-vCPU Xeon VM, BENCH_17.json).

Every mode XORs each transaction's payload bits with a keystream, the
first bits of SHA-256(k || "medstream" || 8-byte MED signal counter ||
4-byte block index) over blocks 0, 1, ..., so the chunk values on the
chain are uniform and carry no message bit in the clear (Cachin, IH 1998;
Hopper, Langford and von Ahn, CRYPTO 2002). No two MED transactions of a
key share a signal counter, so no two share a keystream.

PERMUTED mode is ORDERED plus the order of tied outputs. The n chunks are
the first n * m whitened payload bits, in output order, as in ORDERED. The
outputs that share a chunk value v (c_v > 1 of them) may stand in any order
over the positions that hold v: measured against sorted-digest order, per
value in ascending order, their orders give a mixed-radix rank that
carries floor(log2 prod c_v!) more payload bits. Sender and receiver both
read that count off the chunk values, so the bits a transaction carries
vary, and every signal counter is usable.
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
from .permcode import CanonicalSet, PermRank, rank, unrank


class Mode(Enum):
    ORDERED = "ordered"
    PERMUTED = "permuted"


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
    permuted: float  # n*m + E[floor(log2 prod c_v!)] over uniform chunk values


def _partitions(n: int, largest: int):
    """The integer partitions of n into parts of at most `largest`, each a
    non-increasing tuple."""
    if n == 0:
        yield ()
    for part in range(min(n, largest), 0, -1):
        for rest in _partitions(n - part, part):
            yield (part, *rest)


def expected_rank_bits(n: int, m: int) -> float:
    """E[floor(log2 prod c_v!)] for n uniform m-bit chunk values, where c_v
    counts the chunks of value v: the mean tie-rank bits of a PERMUTED
    transaction. Exact: a sum over the partitions of n into the counts of
    the distinct values, each weighted by the share of the 2^(m*n) chunk
    sequences that have those counts."""
    total = 0
    for counts in _partitions(n, n):
        orders = math.prod(map(math.factorial, counts))  # tie arrangements
        # value choices times chunk orders, over the orders among equal counts
        sequences = math.perm(2**m, len(counts)) * math.factorial(n) // (
            orders * math.prod(math.factorial(counts.count(c)) for c in set(counts))
        )
        total += sequences * (orders.bit_length() - 1)
    return total / 2 ** (m * n)


def capacity(n: int, m: int) -> CapacityReport:
    """Bits per transaction of n outputs carrying m bits each.

    The paper's n*m + log2(n!) counts the order twice: the receiver sees n
    distinct addresses whose chunk values the sender chose, and distinct
    values already fix their order. Only the order among outputs of equal
    value is free, so PERMUTED carries n*m + E[floor(log2 prod c_v!)]: m = 0
    gives the paper's pure order channel, floor(log2 n!)."""
    return CapacityReport(
        n=n,
        m=m,
        paper=n * m + math.log2(math.factorial(n)),
        ordered=n * m,
        permuted=n * m + expected_rank_bits(n, m),
    )


def effective_capacity(cfg: ChannelConfig) -> CapacityReport:
    return capacity(cfg.n, cfg.m)


def grind(
    km: KeyMaterial,
    target: Chunk,
    cfg: ChannelConfig,
    start_index: int,
) -> GrindResult:
    """Smallest grind counter >= start_index whose address carries the
    target bits. Deterministic; backend-accelerated."""
    return _grind_chunks(km, [target], cfg, start_index)[0][0]


def _grind_chunks(
    km: KeyMaterial,
    chunks: list[Chunk],
    cfg: ChannelConfig,
    start_index: int,
    spares: int = 0,
) -> tuple[list[GrindResult], tuple[tuple[int, bytes], ...]]:
    """One scan of grind counters from start_index that gives every chunk
    its own address, in chunk order. A counter goes to the first still-open
    chunk its digest carries, so equal chunks get distinct counters (and
    digests). The scan ends at the last hit, after ~2^m * H_k attempts for
    k chunks, and never runs past cfg.attempts_cap counters. Also returns
    the (counter, digest) pairs of the first `spares` counters below the
    last hit that no chunk took."""
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
        spares=spares,
    )
    if hit is None:
        values = ", ".join(f"{chunk.bits:#x}" for chunk in chunks)
        raise GrindExhausted(
            f"no match for every {cfg.m}-bit chunk of ({values}) within "
            f"{cfg.attempts_cap} attempts",
            next_counter=start_index + cfg.attempts_cap,
        )
    records = [
        GrindResult(
            address=Address(digest),
            index=DerivationIndex(DOMAIN_GRIND, counter),
            attempts=counter - start_index + 1,
        )
        for counter, digest in hit[0]
    ]
    return records, hit[2] if spares else ()


# ---------------------------------------------------------------------------
# Payload layout

_STREAM_TAG = b"medstream"


def _keystream(k: bytes, counter: int, nbits: int) -> int:
    """The first nbits of SHA-256(k || "medstream" || counter || block) over
    blocks 0, 1, ..., as an integer: the mask of the MED transaction at
    signal counter `counter`. A longer stream extends a shorter one."""
    head = k + _STREAM_TAG + counter.to_bytes(8, "big")
    blocks = -(-nbits // 256)
    stream = b"".join(
        hashlib.sha256(head + block.to_bytes(4, "big")).digest() for block in range(blocks)
    )
    return int.from_bytes(stream, "big") >> (256 * blocks - nbits)


def _chunk_values(word: int, width: int, cfg: ChannelConfig) -> list[int]:
    """The n m-bit chunk values at the top of a width-bit word, in output
    order."""
    head = word >> (width - cfg.n * cfg.m)
    return [(head >> (cfg.m * (cfg.n - 1 - i))) & ((1 << cfg.m) - 1) for i in range(cfg.n)]


def _tie_groups(values: list[int], cfg: ChannelConfig) -> list[list[int]]:
    """PERMUTED: the positions of each chunk value that more than one output
    holds, by ascending value; ORDERED: none."""
    if cfg.mode is Mode.ORDERED:
        return []
    positions: dict[int, list[int]] = {}
    for i, value in enumerate(values):
        positions.setdefault(value, []).append(i)
    return [positions[v] for v in sorted(positions) if len(positions[v]) > 1]


def _rank_bits(groups: list[list[int]]) -> int:
    """floor(log2 prod c_v!): the payload bits the tie arrangements carry."""
    return math.prod(math.factorial(len(g)) for g in groups).bit_length() - 1


def split_payloads(k: bytes, cfg: ChannelConfig, counter: int, bits: list[int],
                   rng) -> list[list[int]]:
    """Cut `bits` into the payloads of the MED transactions at signal counters
    `counter`, `counter` + 1, ...: n*m bits each, plus in PERMUTED mode the
    tie-rank bits its whitened chunk values allow. The last payload is
    padded with random bits from `rng`."""
    nm = cfg.n * cfg.m
    payloads, pos = [], 0
    while pos < len(bits):
        payload = bits[pos : pos + nm]
        payload += [rng.getrandbits(1) for _ in range(nm - len(payload))]
        word = bits_to_int(payload) ^ _keystream(k, counter, nm)
        extra = _rank_bits(_tie_groups(_chunk_values(word, nm, cfg), cfg))
        if not nm + extra:
            raise ValidationError("configured capacity too small")
        rest = bits[pos + nm : pos + nm + extra]
        payload += rest + [rng.getrandbits(1) for _ in range(extra - len(rest))]
        payloads.append(payload)
        pos += len(payload)
        counter += 1
    return payloads


# ---------------------------------------------------------------------------
# Embedding

def group_size(cfg: ChannelConfig) -> int:
    """Transactions ground together in one scan: as many as fit their
    n chunks each into one grind_scan."""
    return backend.MAX_TARGETS // cfg.n


def embed(gen, payloads: list[list[int]], cfg: ChannelConfig, rng) -> list[StegoTemplate]:
    """Build one group of transactions, one per payload, at most
    group_size(cfg) of them, riding consecutive MED signal counters from
    the generation's next one. Each payload must be as split_payloads cuts
    it for its counter.

    One scan from the generation's next grind counter grinds the chunks of
    every transaction, ~2^m * H_k attempts for k chunks (H_k = 1 + 1/2 +
    ... + 1/k). The scan also hands back the first two non-hit counters per
    transaction with their digests, for its change and its funding change.
    They are kept in `gen.grind_spares`, which fresh_wallet_address takes
    first without deriving them again, and next_grind moves past the last
    hit. Only each transaction's signal address is derived on its own.
    Reads (without advancing) the MED signal counter. Output amounts come
    from `rng`.
    """
    if not 1 <= len(payloads) <= group_size(cfg):
        raise ValidationError(
            f"a group holds 1 to {group_size(cfg)} payloads, got {len(payloads)}"
        )
    km = gen.km
    nm = cfg.n * cfg.m
    layouts, chunks = [], []
    for counter, payload in enumerate(payloads, gen.next_signal["MED"]):
        if any(b not in (0, 1) for b in payload):
            raise ValidationError("payload must be a bit list")
        if len(payload) < nm:
            raise ValidationError(f"payload must hold at least {nm} bits, got {len(payload)}")
        word = bits_to_int(payload) ^ _keystream(km.k, counter, len(payload))
        values = _chunk_values(word, len(payload), cfg)
        groups = _tie_groups(values, cfg)
        size = nm + _rank_bits(groups)
        if len(payload) != size:
            raise ValidationError(
                f"payload at MED counter {counter} must be exactly {size} bits, "
                f"got {len(payload)}"
            )
        layouts.append((counter, groups, word & ((1 << (size - nm)) - 1)))
        chunks += [Chunk(bits=value, slot=i) for i, value in enumerate(values)]

    records, spares = _grind_chunks(km, chunks, cfg, gen.next_grind, 2 * len(payloads))
    gen.grind_spares = list(spares)
    gen.next_grind = max(r.index.counter for r in records) + 1

    templates = []
    for i, (counter, groups, tie_rank) in enumerate(layouts):
        tx_records = records[i * cfg.n : (i + 1) * cfg.n]
        for positions in groups:
            tie_rank, digit = divmod(tie_rank, math.factorial(len(positions)))
            by_digest = {tx_records[p].address.digest: tx_records[p] for p in positions}
            canon = CanonicalSet.from_addresses([tx_records[p].address for p in positions])
            for p, address in zip(positions, unrank(PermRank.of(digit, len(positions)), canon)):
                tx_records[p] = by_digest[address.digest]
        stego_outputs = tuple(
            TxOutput(rec.address.digest, rng.randint(DUST, 1_000_000))
            for rec in tx_records
        )
        change_digest, change_counter = gen.fresh_wallet_address()
        templates.append(StegoTemplate(
            counter=counter,
            signal_address=derive_address(km, DerivationIndex(Channel.MED.value, counter)),
            stego_outputs=stego_outputs,
            grind_records=tuple(tx_records),
            change_output=TxOutput(change_digest, rng.randint(DUST, 1_000_000)),
            change_index=DerivationIndex(DOMAIN_GRIND, change_counter),
        ))
    return templates


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
    digests = [o.field for o in tx.outputs[: cfg.n]]
    if len(set(digests)) != len(digests):
        raise PermutationMismatch("duplicate output digests")
    values = [backend.select_bits(d, cfg.selector) for d in digests]
    word = 0
    for value in values:
        word = (word << cfg.m) | value
    tie_rank, radix = 0, 1
    for positions in _tie_groups(values, cfg):
        observed = [Address(digests[p]) for p in positions]
        tie_rank += rank(observed, CanonicalSet.from_addresses(observed)).value * radix
        radix *= math.factorial(len(positions))
    extra = radix.bit_length() - 1
    if tie_rank >> extra:
        raise PermutationMismatch(f"tie rank {tie_rank} does not fit in {extra} bits")
    size = cfg.n * cfg.m + extra
    return int_to_bits(((word << extra) | tie_rank) ^ _keystream(km.k, counter, size), size)
