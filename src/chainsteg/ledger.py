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
from. Loading therefore hashes the bytes it read and serializes nothing: a
txid is sha256d of the transaction's own slice of the record, and a record
is checked against its stored hash as sha256d of the record bytes before
the hash.

Loading builds no transaction and no block. The whole file goes through
`Ledger._connect` in one call of the backend's `connect_records` (the C
kernel when it is built, else the pure-Python loop), as every created or
mined block does as a file of one record. In one walk it frames the
records, checking each one's framing and every count; it hashes every
record and transaction (in 16 AVX-512 lanes in the kernel, where the CPU
has them); then for each record it checks the stored hash, the height and
the hash chain, applies the block rules below straight from the bytes to
the ledger's UTXO table, reserved once for every output in the file, and
checks the coinbase cap. It returns a fixed-width row per block (its
timestamp, hash, coinbase txid and record extent) and what the blocks
issue; the only Python pass over the rows rebuilds the decoy pool from the
coinbase txids. The kernel's table keeps each unspent
output as a fixed-size entry, not as Python objects, and `Ledger.utxo`
builds its row only when it is read. The ledger keeps the file's bytes
once, with the rows, and `Ledger.blocks` makes a loaded block's Block only
when it is read: a mine reads the tip, a scan the blocks from its cursor
on, and a save to another file writes the records without making any. A
loaded block parses its transactions from its record
(`parse_transactions`) only when they are first read: by `input_index`
from a receiver's cursor on, by `export_text` or `stat_suite`, or to name
the transaction that broke a rule. A truncated record, trailing bytes, a
count that runs past the record, a cut length prefix, a record past the
end of the file and a failed hash check all raise CorruptChain; of several
faults, the first in file order.
Mempool sidecar records are parsed at once, since each is submitted again.

A sealed or loaded block keeps its wire bytes: `save` writes them, and
`Block.verify` has nothing to re-serialize, since frozen fields cannot
drift from them. A block made by `Block(...)` or `dataclasses.replace`
keeps none, so `verify` re-serializes it, and `input_index` still catches a
block whose fields were replaced after it was mined or loaded. The chain
file is append-only: a save appends to the file the blocks went to last,
and writes the whole chain to any other file.

Block rules, checked on one path whether a block was created, mined or
loaded (a block that breaks one raises CorruptChain, with the same text on
each path). A block made in this process is sealed, so it has its record
bytes too, and `Ledger._connect` applies every block from them through the
backend's `connect_records`, the one module that checks the rules. It
reports which rule a transaction broke, or that a coinbase passed its cap,
and the ledger turns that into its text:
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

import math
import os
import random
from dataclasses import dataclass
from typing import NamedTuple

from . import backend
from .backend import _BLOCK_HEAD, _BLOCK_ROW, _INPUT, _OUTPUT, _U32, _U64
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

# The CorruptChain text of each way a chain file's record can be refused
# before it is applied; the details are those of the backend's
# connect_records refusal.
_FAULTS = {
    "length": "truncated record length",
    "extent": "record extends past end of file",
    "truncated": "truncated block record: {}",
    "trailing": "trailing bytes in block record",
    "hash": "block {} failed hash re-verification",
    "height": "unexpected height {}",
    "chain": "block {} breaks the hash chain",
    "coinbase": "block {} does not start with a coinbase",
    "cap": "block {} coinbase pays {}, more than subsidy plus fees ({})",
}


class TxInput(NamedTuple):
    prev_txid: bytes
    vout: int
    address: bytes  # 20-byte digest of the output being spent


class TxOutput(NamedTuple):
    field: bytes  # 20 bytes: an address digest or a raw stego field
    amount: int
    kind: int = KIND_P2PKH


class _kept:
    """A value computed on its first read and kept in the instance's
    __dict__, where every later read finds it. functools.cached_property
    takes a lock on each first read, and a __getattr__ on the class would
    take every other attribute read off CPython's specialized fast path."""

    def __init__(self, func):
        self.func, self.name = func, func.__name__

    def __get__(self, obj, owner=None):
        if obj is None:
            return self
        value = vars(obj)[self.name] = self.func(obj)
        return value


@dataclass(frozen=True)
class StegoTransaction:
    inputs: tuple[TxInput, ...]
    outputs: tuple[TxOutput, ...]
    fee: int

    def serialize(self) -> bytes:
        return self._wire

    @_kept
    def _wire(self) -> bytes:
        # made once: frozen fields cannot drift from them
        return b"".join([
            _U32.pack(len(self.inputs)),
            *[_INPUT.pack(*i) for i in self.inputs],
            _U32.pack(len(self.outputs)),
            *[_OUTPUT.pack(o.field, o.kind, o.amount) for o in self.outputs],
            _U64.pack(self.fee),
        ])

    @_kept
    def txid(self) -> bytes:
        return sha256d(self._wire)


def _parse_transactions(data: bytes, offset: int, count: int):
    """`count` transactions of `data` from `offset`, and the offset past
    them, parsed by the active backend; ValueError when a count runs past
    the data."""
    return backend.get().parse_transactions(data, offset, count,
                                            StegoTransaction, TxInput, TxOutput)


def _record_transactions(wire: bytes) -> tuple[StegoTransaction, ...]:
    """The transactions of a block record that framed when it was kept."""
    (count,) = _U32.unpack_from(wire, _BLOCK_HEAD.size - 4)
    return _parse_transactions(wire, _BLOCK_HEAD.size, count)[0]


@dataclass
class StegoTemplate:
    """One stego transaction awaiting funding: it spends an outpoint on the
    signal address into the payload outputs followed by change."""

    counter: int  # signal counter of the carrying channel
    signal_address: Address
    stego_outputs: tuple[TxOutput, ...]
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
    return _U32.pack(len(raw)) + raw


def _records(data: bytes):
    """Split a mempool sidecar of length-prefixed records."""
    offset = 0
    while offset < len(data):
        if offset + 4 > len(data):
            raise CorruptChain(_FAULTS["length"])
        (length,) = _U32.unpack_from(data, offset)
        offset += 4
        if offset + length > len(data):
            raise CorruptChain(_FAULTS["extent"])
        yield data[offset : offset + length]
        offset += length


@dataclass(frozen=True)
class Block:
    """A block. One that was sealed or loaded keeps its wire bytes, checked
    against its hash when kept, in `_wire`; a loaded one parses its
    transactions from them when they are first read."""

    height: int
    prev_hash: bytes
    timestamp: int
    transactions: tuple[StegoTransaction, ...]
    block_hash: bytes = b""  # claimed hash, sealed at creation

    def __getattr__(self, name):
        # only a missing field reaches here: a loaded block's transactions
        wire = vars(self).get("_wire")
        if name != "transactions" or wire is None:
            raise AttributeError(f"{type(self).__name__!r} object has no attribute {name!r}")
        txs = vars(self)["transactions"] = _record_transactions(wire)
        return txs

    def body_bytes(self) -> bytes:
        head = _BLOCK_HEAD.pack(self.height, self.prev_hash, self.timestamp,
                                len(self.transactions))
        return b"".join([head, *[tx.serialize() for tx in self.transactions]])

    @classmethod
    def seal(cls, height, prev_hash, timestamp, transactions) -> "Block":
        txs = tuple(transactions)
        body = cls(height, prev_hash, timestamp, txs).body_bytes()
        block = cls(height, prev_hash, timestamp, txs, block_hash=sha256d(body))
        vars(block)["_wire"] = body + block.block_hash
        return block

    @classmethod
    def _loaded(cls, wire, height, prev_hash, timestamp, block_hash) -> "Block":
        """The block of a record that the backend's connect_records took."""
        block = object.__new__(cls)
        vars(block).update(height=height, prev_hash=prev_hash, timestamp=timestamp,
                           block_hash=block_hash, _wire=wire)
        return block

    def verify(self) -> None:
        """Check the stored hash against the fields. Frozen fields cannot
        drift from the wire bytes a block keeps, so only a block without
        them, made by Block(...) or dataclasses.replace, is re-serialized."""
        if "_wire" not in vars(self) and sha256d(self.body_bytes()) != self.block_hash:
            raise CorruptChain(_FAULTS["hash"].format(self.height))

    def serialize(self) -> bytes:
        return self.body_bytes() + self.block_hash


class _Chain:
    """`Ledger.blocks`: the chain's blocks, read as a list of Block. A load
    keeps the chain file's bytes and the row connect_records returned for
    each block, and makes a loaded block's Block from them only when it is
    read: a mine reads the tip, a scan the blocks from its cursor on.
    Blocks created or mined here are appended as they are. A block may be
    assigned over, as a list item can."""

    __slots__ = ("_blocks", "_data", "_rows", "_replaced")

    def __init__(self):
        self._blocks: list[Block | None] = []  # None: loaded, not read yet
        self._data = b""  # the chain file the loaded blocks came from
        self._rows = b""  # their connect_records rows
        self._replaced = False  # whether a block was assigned over

    def load(self, data: bytes, rows: bytes) -> None:
        """Take the first blocks, those that connect_records applied from
        the chain file `data` with these rows."""
        self._data, self._rows = data, rows
        self._blocks = [None] * (len(rows) // _BLOCK_ROW.size)

    def __len__(self) -> int:
        return len(self._blocks)

    def __getitem__(self, index):
        if isinstance(index, slice):
            return [self[i] for i in range(*index.indices(len(self._blocks)))]
        return self._blocks[index] or self._read(index % len(self._blocks))

    def __iter__(self):
        return map(self.__getitem__, range(len(self._blocks)))

    def __setitem__(self, index: int, block: Block) -> None:
        self._blocks[index] = block
        self._replaced = True

    def append(self, block: Block) -> None:
        self._blocks.append(block)

    def _read(self, height: int) -> Block:
        timestamp, block_hash, _, start, end = _BLOCK_ROW.unpack_from(
            self._rows, height * _BLOCK_ROW.size)
        wire = self._data[start:end]
        block = self._blocks[height] = Block._loaded(wire, height, wire[8:40], timestamp,
                                                     block_hash)
        return block

    def records(self, start: int) -> bytes:
        """The framed records of the blocks from `start` on, as a chain file
        holds them. Loaded blocks, unless one was assigned over, are one
        slice of the file they came from, so no Block is made for them."""
        loaded = len(self._rows) // _BLOCK_ROW.size
        parts = []
        if start < loaded and not self._replaced:
            first = _BLOCK_ROW.unpack_from(self._rows, start * _BLOCK_ROW.size)[3] - 4
            end = _BLOCK_ROW.unpack_from(self._rows, len(self._rows) - _BLOCK_ROW.size)[4]
            parts.append(self._data[first:end])
            start = loaded
        parts += [_record(vars(b).get("_wire") or b.serialize()) for b in self[start:]]
        return b"".join(parts)


def _record_error(data: bytes, at: int, height: int, reason: str, *details) -> str:
    """The CorruptChain text for the refusal of the record at offset `at` of
    the framed records `data`, at `height`; a broken transaction rule parses
    the record to name it."""
    if reason in _FAULTS:
        return _FAULTS[reason].format(*details)
    position, index = details
    (length,) = _U32.unpack_from(data, at)
    tx = _record_transactions(data[at + 4 : at + 4 + length])[position]
    if reason == "balance":
        return (f"block {height} transaction {tx.txid.hex()[:16]} "
                "does not balance its inputs with its outputs plus fee")
    inp = tx.inputs[index]
    outpoint = f"{inp.prev_txid.hex()[:16]}:{inp.vout}"
    if reason == "address":
        return f"block {height} spends {outpoint} from an address it was not paid to"
    if inp.prev_txid == _NULL32:
        return f"block {height} spends a null outpoint outside its coinbase"
    return f"block {height} spends unknown or spent output {outpoint}"


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
        self.blocks = _Chain()
        self.mempool: list[StegoTransaction] = []
        self._mempool_ids: set[bytes] = set()
        self._mempool_outputs: dict[tuple[bytes, int], TxOutput] = {}
        self._mempool_reserved: set[tuple[bytes, int]] = set()
        # the backend that applies this ledger's blocks to its UTXO table
        self._backend = backend.get()
        self._utxos = self._backend.utxo_table(TxOutput)
        self._pool: list[tuple[bytes, int]] = []  # decoy-economy outpoints
        self._issued = 0
        self._saved_to = None  # real path of the chain file the blocks went to
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
            if len(digest) != 20:  # packing would pad it silently
                raise Rejected("genesis allocation digest must be 20 bytes")
            outputs.append(TxOutput(digest, amount))
        coinbase = StegoTransaction(
            inputs=(TxInput(_NULL32, 0, bytes(20)),),
            outputs=tuple(outputs),
            fee=0,
        )
        block = Block.seal(0, _NULL32, _GENESIS_TIME, (coinbase,))
        ledger._pool.append((_BLOCK_ROW.unpack(ledger._connect(block))[2], 0))
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
        prev = self._utxos.get(outpoint)
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
        if self._mempool_reserved:
            # this block's mempool transactions spend these: no decoy may
            self._pool = [op for op in self._pool if op not in self._mempool_reserved]
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
        self._pool.append((_BLOCK_ROW.unpack(self._connect(block))[2], 0))
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

    def _connect(self, chain: Block | bytes) -> bytes:
        """Apply the next blocks, a sealed Block or the framed records of a
        chain file (a load, into an empty ledger), in one call to the
        backend's `connect_records`, a sealed block as its one record;
        count what they issue and append them. Returns their rows. The
        backend applies each block transaction by transaction, spends
        before creations, so a transaction may spend an earlier one of the
        same block, checks each coinbase cap, and stops at the first record
        it refuses, whose fault is raised here. The block rules are in the
        module docstring."""
        sealed = chain if isinstance(chain, Block) else None
        data = _record(vars(sealed)["_wire"]) if sealed else chain
        height = len(self.blocks)
        prev_hash = self.blocks[-1].block_hash if height else _NULL32
        rows, issued, refusal = self._backend.connect_records(self._utxos, data, height,
                                                              prev_hash, BLOCK_SUBSIDY)
        self._issued += issued
        if sealed is None:
            self.blocks.load(data, rows)
        elif rows:
            self.blocks.append(sealed)
        if refusal is not None:
            applied = len(rows) // _BLOCK_ROW.size
            at = _BLOCK_ROW.unpack_from(rows, len(rows) - _BLOCK_ROW.size)[4] if rows else 0
            raise CorruptChain(_record_error(data, at, height + applied, *refusal))
        return rows

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
        return self._utxos.total()

    # -- persistence ---------------------------------------------------------

    def save(self, path) -> None:
        """Append blocks not yet persisted (append-only record file).

        Only the file the blocks went to last is appended to; a save to any
        other file writes the whole chain there, replaced atomically.
        Unconfirmed transactions go to a `<path>.mempool` sidecar (same
        length-prefixed record framing, replaced atomically) so a separate
        mine invocation can pick them up; the block-file format itself
        stays append-only.
        """
        target = os.path.realpath(path)
        append = target == self._saved_to
        data = self.blocks.records(self._persisted_blocks if append else 0)
        if append:
            with open(path, "ab") as fh:
                fh.write(data)
        else:
            write_atomic(path, data)
        self._saved_to, self._persisted_blocks = target, len(self.blocks)
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
        """The ledger of the chain file at `path`, whose records are applied
        in one `_connect` call, with its mempool sidecar submitted again."""
        ledger = cls()
        with open(path, "rb") as fh:
            data = fh.read()
        rows = ledger._connect(data)
        if not ledger.blocks:
            raise CorruptChain("empty chain file")
        ledger._saved_to, ledger._persisted_blocks = os.path.realpath(path), len(ledger.blocks)
        # Rebuild the decoy pool conservatively: coinbase outputs still unspent.
        ledger._pool = [(row[2], 0) for row in _BLOCK_ROW.iter_unpack(rows)
                        if (row[2], 0) in ledger._utxos]
        try:
            with open(f"{path}.mempool", "rb") as fh:
                raw = fh.read()
        except FileNotFoundError:
            return ledger
        for record in _records(raw):
            try:
                (tx,), consumed = _parse_transactions(record, 0, 1)
            except ValueError as exc:
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
