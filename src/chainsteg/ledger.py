"""Deterministic simulated blockchain: mempool, block assembly, the
input-address index that receivers scan.

No proof of work and no networking; confirmation is an explicit mine_block
call. Output order inside a transaction is preserved bit-exactly (the
permutation channel depends on it). Decoy traffic is generated at mining
time from a seeded RNG so whole chains are reproducible byte for byte.

Chain file format (normative): a sequence of records, each
    4-byte big-endian length || block bytes
The `<chain>.mempool` sidecar uses the same framing with transaction bytes.
Block bytes: height u64 || prev_hash 32B || timestamp u64 || tx_count u32
|| transactions || block_hash 32B, where block_hash = sha256d of everything
before it. Transaction bytes: input_count u32 || inputs (prev_txid 32B,
vout u32, address 20B) || output_count u32 || outputs (field 20B, kind u8,
amount u64) || fee u64. txid = sha256d(transaction bytes).

The encoding is canonical: every byte belongs to a fixed-width field, so
serializing the parsed fields gives back exactly the bytes they were parsed
from. Loading therefore hashes the bytes it read: a parsed transaction's
txid is sha256d of its own slice of the record, and a block record is
checked against its stored hash as sha256d of the record bytes before the
hash. Neither is serialized again on load. `Block.verify` re-serializes,
so `input_index` still catches a block whose fields were replaced after it
was loaded.

Block rules, checked by `Ledger._connect` whether a block was mined or
loaded (a loaded block that breaks one raises CorruptChain):
- coinbase first: transaction 0 is the coinbase, whose one input spends the
  null outpoint, and no other transaction spends a null outpoint;
- spends known and unspent: every other input spends an output that exists
  and is unspent, and names the address that output pays;
- inputs balance: each non-coinbase transaction's inputs sum to its outputs
  plus its fee;
- coinbase cap: above height 0 the coinbase pays at most BLOCK_SUBSIDY plus
  the fees of the block.
Transactions apply in block order, so one may spend an output created
earlier in the same block.
"""

from __future__ import annotations

import functools
import math
import operator
import os
import random
import struct
from dataclasses import dataclass
from typing import NamedTuple

from .errors import CorruptChain, Rejected
from .files import write_atomic
from .hashes import sha256d
from .hdw import Address, DerivationIndex

DUST = 546
DEFAULT_FEE = 1000
BLOCK_SUBSIDY = 50_0000_0000
_POOL_FUND = 10**15  # genesis output that funds the decoy economy
_GENESIS_TIME = 1_600_000_000
_NULL32 = bytes(32)

KIND_P2PKH = 0

# Decoy output counts follow a normal of this mean and deviation, rounded
# and redrawn until in [min, max], to match observed transaction statistics.
_DECOY_OUT_MEAN = 3.45
_DECOY_OUT_SD = 1.2
_DECOY_OUT_MIN = 1
_DECOY_OUT_MAX = 30

# Fixed-width parts of the wire format; a parser decodes each with one
# unpack_from, and each run of input or output rows with one iter_unpack.
_U32 = struct.Struct(">I")
_U64 = struct.Struct(">Q")
_INPUT = struct.Struct(">32sI20s")  # prev_txid, vout, address
_OUTPUT = struct.Struct(">20sBQ")  # field, kind, amount
_BLOCK_HEAD = struct.Struct(">Q32sQI")  # height, prev_hash, timestamp, tx_count


class TxInput(NamedTuple):
    prev_txid: bytes
    vout: int
    address: bytes  # 20-byte digest of the output being spent

    def serialize(self) -> bytes:
        return self.prev_txid + struct.pack(">I", self.vout) + self.address


class TxOutput(NamedTuple):
    field: bytes  # 20 bytes: an address digest or a raw stego field
    amount: int
    kind: int = KIND_P2PKH

    def serialize(self) -> bytes:
        return self.field + struct.pack(">BQ", self.kind, self.amount)


# Build parsed rows without a Python-level call per row: TxInput rows are in
# wire order; TxOutput rows are (field, kind, amount) on the wire.
_new_input = functools.partial(tuple.__new__, TxInput)
_new_output = functools.partial(tuple.__new__, TxOutput)
_output_order = operator.itemgetter(0, 2, 1)
_amount = operator.attrgetter("amount")


@dataclass(frozen=True)
class StegoTransaction:
    inputs: tuple[TxInput, ...]
    outputs: tuple[TxOutput, ...]
    fee: int

    def serialize(self) -> bytes:
        parts = [struct.pack(">I", len(self.inputs))]
        parts += [i.serialize() for i in self.inputs]
        parts.append(struct.pack(">I", len(self.outputs)))
        parts += [o.serialize() for o in self.outputs]
        parts.append(struct.pack(">Q", self.fee))
        return b"".join(parts)

    @functools.cached_property
    def txid(self) -> bytes:
        return sha256d(self.serialize())

    @classmethod
    def deserialize(cls, data: bytes, offset: int = 0) -> tuple["StegoTransaction", int]:
        """Parse one transaction at `offset`; its txid is the hash of the
        bytes it was parsed from (the encoding is canonical). Raises
        struct.error when `data` ends inside it: a count that runs past the
        end gives a short slice, and the read after that slice fails."""
        start = offset
        (n_in,) = _U32.unpack_from(data, offset)
        offset += 4
        end = offset + _INPUT.size * n_in
        inputs = tuple(map(_new_input, _INPUT.iter_unpack(data[offset:end])))
        (n_out,) = _U32.unpack_from(data, end)
        offset = end + 4
        end = offset + _OUTPUT.size * n_out
        rows = _OUTPUT.iter_unpack(data[offset:end])
        outputs = tuple(map(_new_output, map(_output_order, rows)))
        (fee,) = _U64.unpack_from(data, end)
        offset = end + 8
        # Frozen: fill the fields and the cached txid without __init__.
        tx = object.__new__(cls)
        vars(tx).update(inputs=inputs, outputs=outputs, fee=fee,
                        txid=sha256d(data[start:offset]))
        return tx, offset


@dataclass
class StegoTemplate:
    """One stego transaction awaiting funding: it spends an outpoint on the
    signal address into the payload outputs followed by change."""

    counter: int  # signal counter of the carrying channel
    signal_address: Address
    stego_outputs: tuple[TxOutput, ...]
    grind_records: tuple  # MED: a GrindResult per stego output; HIGH: empty
    change_output: TxOutput
    change_index: DerivationIndex

    @property
    def required_funding(self) -> int:
        total = sum(o.amount for o in self.stego_outputs)
        return total + self.change_output.amount + DEFAULT_FEE

    def transaction(self, funding_outpoint: tuple[bytes, int] | None = None) -> StegoTransaction:
        outpoint = funding_outpoint or (bytes(32), 0)
        return StegoTransaction(
            inputs=(TxInput(outpoint[0], outpoint[1], self.signal_address.digest),),
            outputs=(*self.stego_outputs, self.change_output),
            fee=DEFAULT_FEE,
        )


def _record(raw: bytes) -> bytes:
    return struct.pack(">I", len(raw)) + raw


def _records(data: bytes):
    """Split a file of length-prefixed records."""
    offset = 0
    while offset < len(data):
        if offset + 4 > len(data):
            raise CorruptChain("truncated record length")
        (length,) = _U32.unpack_from(data, offset)
        offset += 4
        if offset + length > len(data):
            raise CorruptChain("record extends past end of file")
        yield data[offset : offset + length]
        offset += length


@dataclass(frozen=True)
class Block:
    height: int
    prev_hash: bytes
    timestamp: int
    transactions: tuple[StegoTransaction, ...]
    block_hash: bytes = b""  # claimed hash, sealed at creation

    def body_bytes(self) -> bytes:
        parts = [
            struct.pack(">Q", self.height),
            self.prev_hash,
            struct.pack(">QI", self.timestamp, len(self.transactions)),
        ]
        parts += [tx.serialize() for tx in self.transactions]
        return b"".join(parts)

    @classmethod
    def seal(cls, height, prev_hash, timestamp, transactions) -> "Block":
        blk = cls(height, prev_hash, timestamp, tuple(transactions))
        return cls(
            height, prev_hash, timestamp, tuple(transactions),
            block_hash=sha256d(blk.body_bytes()),
        )

    def verify(self) -> None:
        if sha256d(self.body_bytes()) != self.block_hash:
            raise CorruptChain(f"block {self.height} failed hash re-verification")

    def serialize(self) -> bytes:
        return self.body_bytes() + self.block_hash

    @classmethod
    def deserialize(cls, data: bytes) -> "Block":
        """Parse one block record and check its stored hash against the
        hash of the record bytes before it (the encoding is canonical)."""
        try:
            height, prev, timestamp, n_tx = _BLOCK_HEAD.unpack_from(data, 0)
            offset = _BLOCK_HEAD.size
            txs = []
            for _ in range(n_tx):
                tx, offset = StegoTransaction.deserialize(data, offset)
                txs.append(tx)
        except struct.error as exc:
            raise CorruptChain(f"truncated block record: {exc}") from exc
        if offset + 32 != len(data):
            raise CorruptChain("trailing bytes in block record")
        claimed = data[offset:]
        if sha256d(data[:offset]) != claimed:
            raise CorruptChain(f"block {height} failed hash re-verification")
        return cls(height, prev, timestamp, tuple(txs), block_hash=claimed)


def _decoy_output_count(rng: random.Random) -> int:
    while True:
        n = round(rng.gauss(_DECOY_OUT_MEAN, _DECOY_OUT_SD))
        if _DECOY_OUT_MIN <= n <= _DECOY_OUT_MAX:
            return n


@dataclass
class NoiseProfile:
    """Cover-traffic generator settings."""

    rate: float = 5.0  # decoy transactions per block

    def sample_count(self, rng: random.Random) -> int:
        # Knuth Poisson; rate is small so this is fine.
        limit = math.exp(-self.rate)
        k, prod = 0, rng.random()
        while prod > limit:
            k += 1
            prod *= rng.random()
        return k


class Ledger:
    """Single-writer chain state; reads of confirmed data are pure."""

    def __init__(self):
        self.blocks: list[Block] = []
        self.mempool: list[StegoTransaction] = []
        self._mempool_ids: set[bytes] = set()
        self._mempool_outputs: dict[tuple[bytes, int], TxOutput] = {}
        self._mempool_reserved: set[tuple[bytes, int]] = set()
        self._utxos: dict[tuple[bytes, int], TxOutput] = {}
        self._pool: list[tuple[bytes, int]] = []  # decoy-economy outpoints
        self._issued = 0
        self._persisted_blocks = 0

    # -- construction ------------------------------------------------------

    @classmethod
    def create(
        cls,
        genesis_allocations: list[tuple[bytes, int]] | None = None,
    ) -> "Ledger":
        ledger = cls()
        rng = random.Random(0xC0FFEE)
        outputs = [TxOutput(rng.randbytes(20), _POOL_FUND)]
        for digest, amount in genesis_allocations or []:
            outputs.append(TxOutput(digest, amount))
        coinbase = StegoTransaction(
            inputs=(TxInput(_NULL32, 0, bytes(20)),),
            outputs=tuple(outputs),
            fee=0,
        )
        block = Block.seal(0, _NULL32, _GENESIS_TIME, (coinbase,))
        ledger._connect(block)
        ledger._pool.append((coinbase.txid, 0))
        return ledger

    # -- submission --------------------------------------------------------

    def utxo(self, outpoint: tuple[bytes, int]) -> TxOutput | None:
        return self._utxos.get(outpoint)

    def submit(self, tx: StegoTransaction) -> bytes:
        txid = tx.txid
        if txid in self._mempool_ids:
            return txid  # idempotent resubmission
        if not tx.inputs:
            raise Rejected("transaction has no inputs")
        if any(i.prev_txid == _NULL32 for i in tx.inputs):
            raise Rejected("null outpoints are reserved for coinbase")
        total_in = 0
        seen: set[tuple[bytes, int]] = set()
        for inp in tx.inputs:
            outpoint = (inp.prev_txid, inp.vout)
            if outpoint in seen:
                raise Rejected("duplicate outpoint within transaction")
            seen.add(outpoint)
            if outpoint in self._mempool_reserved:
                raise Rejected(f"outpoint {inp.prev_txid.hex()[:16]}:{inp.vout} already spent")
            prev = self._utxos.get(outpoint) or self._mempool_outputs.get(outpoint)
            if prev is None:
                raise Rejected("input references unknown output")
            if prev.field != inp.address:
                raise Rejected("input address does not match referenced output")
            total_in += prev.amount
        if not tx.outputs:
            raise Rejected("transaction has no outputs")
        for out in tx.outputs:
            if len(out.field) != 20:
                raise Rejected("output field must be 20 bytes")
            if out.amount < DUST:
                raise Rejected(f"output below dust threshold ({out.amount} < {DUST})")
        if tx.fee < 0 or total_in != sum(o.amount for o in tx.outputs) + tx.fee:
            raise Rejected("inputs do not balance outputs plus fee")
        self.mempool.append(tx)
        self._mempool_ids.add(txid)
        for inp in tx.inputs:
            self._mempool_reserved.add((inp.prev_txid, inp.vout))
        for vout, out in enumerate(tx.outputs):
            self._mempool_outputs[(txid, vout)] = out
        return txid

    # -- mining ------------------------------------------------------------

    def _make_decoy(self, rng: random.Random):
        """A decoy spending a random pool outpoint, with the outpoint of its
        change; None when the pool is empty."""
        if not self._pool:
            return None
        outpoint = self._pool.pop(rng.randrange(len(self._pool)))
        prev = self._utxos[outpoint]
        n_out = _decoy_output_count(rng)
        fee = rng.randint(200, 2000)
        budget = prev.amount - fee
        amounts = []
        for _ in range(n_out - 1):
            amounts.append(rng.randint(DUST, 1_000_000))
        change = budget - sum(amounts)
        if change < DUST:  # pool fragment too small; merge everything
            amounts, change = [], budget
            n_out = 1
        outputs = [TxOutput(rng.randbytes(20), a) for a in amounts]
        change_pos = rng.randrange(n_out)
        outputs.insert(change_pos, TxOutput(rng.randbytes(20), change))
        tx = StegoTransaction(
            inputs=(TxInput(outpoint[0], outpoint[1], prev.field),),
            outputs=tuple(outputs),
            fee=fee,
        )
        return tx, (tx.txid, change_pos)

    def mine_block(self, decoys: NoiseProfile | None = None, seed: int = 0) -> Block:
        height = len(self.blocks)
        rng = random.Random((seed << 20) ^ height)
        profile = decoys or NoiseProfile(rate=0.0)
        decoy_txs, decoy_change = [], []
        for _ in range(profile.sample_count(rng)):
            decoy = self._make_decoy(rng)
            if decoy is not None:
                decoy_txs.append(decoy[0])
                decoy_change.append(decoy[1])
        real = list(self.mempool)
        txs = self._shuffle_topological(real + decoy_txs, rng)
        fees = sum(tx.fee for tx in txs)
        coinbase = StegoTransaction(
            inputs=(TxInput(_NULL32, height, bytes(20)),),
            outputs=(TxOutput(rng.randbytes(20), BLOCK_SUBSIDY + fees),),
            fee=0,
        )
        block = Block.seal(
            height,
            self.blocks[-1].block_hash if self.blocks else _NULL32,
            _GENESIS_TIME + 600 * height,
            (coinbase, *txs),
        )
        self._connect(block)
        self._pool.append((coinbase.txid, 0))
        self._pool.extend(decoy_change)
        self.mempool.clear()
        self._mempool_ids.clear()
        self._mempool_outputs.clear()
        self._mempool_reserved.clear()
        return block

    @staticmethod
    def _shuffle_topological(txs: list[StegoTransaction], rng: random.Random):
        """Random order that still places spenders after their parents."""
        pending = list(txs)
        rng.shuffle(pending)
        placed: list[StegoTransaction] = []
        placed_ids: set[bytes] = set()
        while pending:
            progress = False
            rest = []
            batch_ids = {t.txid for t in pending}
            for tx in pending:
                deps = {i.prev_txid for i in tx.inputs}
                # A dependency inside this same block must already be placed.
                if all(d in placed_ids or d not in batch_ids for d in deps):
                    placed.append(tx)
                    placed_ids.add(tx.txid)
                    progress = True
                else:
                    rest.append(tx)
            pending = rest
            if not progress and pending:
                raise Rejected("dependency cycle in mempool")
        return placed

    def _connect(self, block: Block) -> None:
        """Apply a block transaction by transaction, spends before
        creations, so a transaction may spend an earlier one of the same
        block. The block rules are in the module docstring."""
        txs = block.transactions
        if not txs or len(txs[0].inputs) != 1 or txs[0].inputs[0].prev_txid != _NULL32:
            raise CorruptChain(f"block {block.height} does not start with a coinbase")
        utxos, fees = self._utxos, 0
        for position, tx in enumerate(txs):
            txid = tx.txid
            if position:
                total_in = 0
                for inp in tx.inputs:
                    outpoint = (inp.prev_txid, inp.vout)
                    prev = utxos.pop(outpoint, None)
                    if prev is None:
                        if inp.prev_txid == _NULL32:
                            raise CorruptChain(
                                f"block {block.height} spends a null outpoint outside its coinbase"
                            )
                        raise CorruptChain(
                            f"block {block.height} spends unknown or spent output "
                            f"{inp.prev_txid.hex()[:16]}:{inp.vout}"
                        )
                    if prev.field != inp.address:
                        raise CorruptChain(
                            f"block {block.height} spends {inp.prev_txid.hex()[:16]}:"
                            f"{inp.vout} from an address it was not paid to"
                        )
                    total_in += prev.amount
                if total_in != sum(map(_amount, tx.outputs)) + tx.fee:
                    raise CorruptChain(
                        f"block {block.height} transaction {txid.hex()[:16]} "
                        "does not balance its inputs with its outputs plus fee"
                    )
                fees += tx.fee
            for vout, out in enumerate(tx.outputs):
                utxos[(txid, vout)] = out
        minted = sum(map(_amount, txs[0].outputs))
        if block.height and minted > BLOCK_SUBSIDY + fees:
            raise CorruptChain(
                f"block {block.height} coinbase pays {minted}, more than "
                f"subsidy plus fees ({BLOCK_SUBSIDY + fees})"
            )
        self._issued += minted - fees
        self.blocks.append(block)

    # -- reading -----------------------------------------------------------

    @property
    def tip_height(self) -> int:
        return len(self.blocks) - 1

    def input_index(self, from_height: int) -> dict[bytes, list[StegoTransaction]]:
        """Confirmed non-coinbase transactions from `from_height` on, keyed
        by input address, each list in chain order. Re-verifies block
        hashes on read."""
        index: dict[bytes, list[StegoTransaction]] = {}
        for block in self.blocks[max(from_height, 0) :]:
            block.verify()
            for tx in block.transactions[1:]:
                for inp in tx.inputs:
                    index.setdefault(inp.address, []).append(tx)
        return index

    def total_supply(self) -> int:
        return self._issued

    def utxo_total(self) -> int:
        return sum(o.amount for o in self._utxos.values())

    # -- persistence ---------------------------------------------------------

    def save(self, path) -> None:
        """Append blocks not yet persisted (append-only record file).

        Unconfirmed transactions go to a `<path>.mempool` sidecar (same
        length-prefixed record framing, replaced atomically) so a separate
        mine invocation can pick them up; the block-file format itself
        stays append-only.
        """
        mode = "ab" if self._persisted_blocks else "wb"
        with open(path, mode) as fh:
            for block in self.blocks[self._persisted_blocks :]:
                fh.write(_record(block.serialize()))
        self._persisted_blocks = len(self.blocks)
        sidecar = f"{path}.mempool"
        if self.mempool:
            write_atomic(sidecar, b"".join(_record(tx.serialize()) for tx in self.mempool))
        else:
            try:
                os.remove(sidecar)
            except FileNotFoundError:
                pass

    @classmethod
    def load(cls, path) -> "Ledger":
        ledger = cls()
        with open(path, "rb") as fh:
            data = fh.read()
        prev_hash = _NULL32
        for record in _records(data):
            block = Block.deserialize(record)
            if block.height != len(ledger.blocks):
                raise CorruptChain(f"unexpected height {block.height}")
            if block.prev_hash != prev_hash:
                raise CorruptChain(f"block {block.height} breaks the hash chain")
            ledger._connect(block)
            prev_hash = block.block_hash
        if not ledger.blocks:
            raise CorruptChain("empty chain file")
        ledger._persisted_blocks = len(ledger.blocks)
        # Rebuild the decoy pool conservatively: coinbase outputs still unspent.
        for block in ledger.blocks:
            coinbase = block.transactions[0]
            if (coinbase.txid, 0) in ledger._utxos:
                ledger._pool.append((coinbase.txid, 0))
        try:
            with open(f"{path}.mempool", "rb") as fh:
                raw = fh.read()
        except FileNotFoundError:
            return ledger
        for record in _records(raw):
            try:
                tx, consumed = StegoTransaction.deserialize(record)
            except struct.error as exc:
                raise CorruptChain(f"truncated mempool record: {exc}") from exc
            if consumed != len(record):
                raise CorruptChain("trailing bytes in mempool record")
            ledger.submit(tx)
        return ledger

    def export_text(self) -> str:
        """Canonical human-readable dump, one paragraph per block."""
        lines = []
        for block in self.blocks:
            lines.append(
                f"block {block.height} hash={block.block_hash.hex()} "
                f"prev={block.prev_hash.hex()} time={block.timestamp} "
                f"txs={len(block.transactions)}"
            )
            for tx in block.transactions:
                lines.append(f"  tx {tx.txid.hex()} fee={tx.fee}")
                for inp in tx.inputs:
                    lines.append(
                        f"    in  {inp.prev_txid.hex()}:{inp.vout} addr={inp.address.hex()}"
                    )
                for vout, out in enumerate(tx.outputs):
                    lines.append(
                        f"    out {vout} field={out.field.hex()} kind={out.kind} "
                        f"amount={out.amount}"
                    )
        return "\n".join(lines) + "\n"
