"""Backend selection: compiled kernel when importable, pure Python otherwise.

Both backends implement the same calls used on hot paths: derive_digest
and grind_scan for grinding, parse_transactions for reading transactions,
utxo_table and connect_records for applying blocks, mult_g for checking a
private key and decompress for reading a public one. The observable
contract is identical: grind_scan gives each target the smallest matching
counter not taken by an earlier target, parse_transactions builds the same
rows, fields and txids, mult_g and decompress give ec.mult_g's and
ec.decompress's point or ValueError text, and connect_records leaves the
same unspent outputs in the table and returns the same rows and refusal,
so results never depend on which backend ran.

utxo_table(row_type) makes an empty UTXO table. Only connect_records fills
it; get(outpoint) returns the row_type row (field, amount, kind) that a
(txid, vout) outpoint names, or None; `outpoint in table` tests for one;
and total() sums every unspent amount. A table has no order and is not
iterated. The kernel's table keeps each output as a fixed-size entry of one
array and builds the row on read, so no Python object exists per unspent
output; PureBackend's is a dict of rows behind the same calls.

connect_records(table, data, height, prev_hash, subsidy) is the one
apply contract, and the one place the block rules are checked: every
block, whether the ledger created, mined or loaded it, is applied from its
record bytes, and no transaction is built for it. data is a chain file's
records, each framed by its 4-byte big-endian length (a created or mined
block is one such record), applied in file order, the first at `height`
after `prev_hash`. It returns (rows, issued, refusal). rows holds one
fixed-width _BLOCK_ROW per block applied: its timestamp, block hash and
coinbase txid, and the start and end of its record in data. issued is what
the applied blocks issue, their coinbases' pay less their fees, summed.
refusal is None, or the args of the refusal of the first record it does
not apply, where it stops. A length prefix cut short is ("length",), a
record that runs past the data ("extent",). Before a record touches the
table it checks the record's framing and every count, its stored hash
(sha256d of the bytes before it), that its header gives its height and the
previous record's hash, and that transaction 0 is a coinbase: one input,
which spends the null outpoint. A refusal there is ("truncated", text),
("trailing",) or ("hash" | "height" | "chain" | "coinbase", the record's
height). It then applies the transactions in order. Each one after the
coinbase removes the output that each of its inputs names, which must be
present and pay the input's address, and must balance its inputs with its
outputs plus its fee; each one's outputs then go in under (txid, vout), so
a later one may spend them. A broken rule is (reason, position, index)
with reason "spent", "address" or "balance" (index -1), with what came
before it applied; an output whose address did not match is spent all the
same. Last, above height 0 the coinbase may pay at most `subsidy` plus the
block's fees, else ("cap", height, minted, subsidy + fees). Of several
faults the first in file order is the one returned, and the ledger turns
it into its CorruptChain text.

The kernel frames every record of the file in one walk, reserves the table
once for their outputs, so a load never regrows it, and hashes every record
and transaction in one batch: in 16 AVX-512 lanes on a CPU that has them,
when the batch keeps them busy (a load), and on the one SHA-NI or portable
stream otherwise (a created or mined block). PureBackend parses each
record with parse_transactions and applies the rows.

A loaded block's transactions, parsed when first read, hold tens of
thousands of rows of bytes and ints, which can be in no reference cycle:
the kernel untracks each row, and the inputs and outputs tuples that hold
them, from the cyclic GC as it makes them. A collection never untracks a
tuple subclass such as TxInput and TxOutput, nor a tuple holding one, so
without this every full collection would walk them all.

The compiled grind_scan derives counters in batches of 256, so it may
derive past the last hit. It keeps that last batch in memory, and the next
scan under the same key, tag and gy that starts inside it (the scan of
the next group of MED transactions) uses those digests before deriving
more. The kept batch
is never persisted, a scan under another key replaces it, and results,
attempts included, never depend on it.

grind_scan(..., spares=s) also returns the (counter, digest) pairs of the
first s counters below the last hit that no target took, the same on both
backends. A MED send takes its change addresses from them, so it derives
none of them a second time.

The compiled kernel picks its batch path once, at import: on a CPU with
AVX-512 F and IFMA it adds 8 lanes at a time in 5x52-bit limbs, after
known-answer tests against its portable 4x64 path, which every other CPU
runs. It picks its SHA-256 the same way: SHA-NI where the CPU has it, and
16 AVX-512 F lanes for connect_records' batches where it has that, each
after a known-answer test. A failed test raises RuntimeError on import. No
option or setting chooses a path, and results are the same on all. A
derivation in a 256-lane batch takes 1.7 us of CPU time on the IFMA path
and 6.2 us on the portable one, and a single derive_digest 12.5 us (2-vCPU
Xeon VM; BENCH_18.json).
"""

from __future__ import annotations

import functools
import hashlib
import operator
import os
import struct

from . import ec
from .hashes import hash160, sha256d

_DIGEST_BATCH = 64
MAX_TARGETS = 20  # targets per scan: MED outputs of a group of floor(20 / n) transactions
MAX_SPARES = 2 * MAX_TARGETS  # spare counters a scan returns: two per transaction at most

# Fixed-width parts of a transaction on the wire (see ledger); the pure
# parser decodes each with one unpack_from, and each run of input or output
# rows with one iter_unpack.
_U32 = struct.Struct(">I")
_U64 = struct.Struct(">Q")
_BLOCK_HEAD = struct.Struct(">Q32sQI")  # height, prev_hash, timestamp, tx_count
_INPUT = struct.Struct(">32sI20s")  # prev_txid, vout, address
_OUTPUT = struct.Struct(">20sBQ")  # field, kind, amount
_TX_MIN = 16  # both counts and the fee
# connect_records' row per block applied: timestamp, block_hash, coinbase
# txid, and the start and end of its record in the file. New fields go at
# the end.
_BLOCK_ROW = struct.Struct(">Q32s32sQQ")
_output_order = operator.itemgetter(0, 2, 1)  # wire (field, kind, amount) -> row
_amount = operator.itemgetter(1)  # an output row's amount
_NULL32 = bytes(32)


class _Parsed:
    """A transaction the pure connect_records parses only to apply it."""


class _UtxoDict(dict):
    """PureBackend's UTXO table: a dict of (txid, vout) -> row_type rows,
    read through the calls the kernel's UtxoTable answers: get, `in` and
    total."""

    __slots__ = ("row",)

    def __init__(self, row_type):
        super().__init__()
        self.row = row_type

    def total(self) -> int:
        return sum(map(_amount, self.values()))


def select_bits(digest: bytes, positions: tuple[int, ...]) -> int:
    """Build a chunk value from digest bits; positions are LSB-indexed into
    the 160-bit integer, first position becomes the chunk's MSB."""
    value = int.from_bytes(digest, "big")
    out = 0
    for pos in positions:
        out = (out << 1) | ((value >> pos) & 1)
    return out


class PureBackend:
    name = "pure"

    @staticmethod
    def _points(k: bytes, tag: int, start: int, count: int, gy):
        jac = []
        for counter in range(start, start + count):
            msg = k + bytes([tag]) + counter.to_bytes(8, "big")
            h = int.from_bytes(hashlib.sha256(msg).digest(), "big") % ec.Q
            jac.append(ec._jac_add_affine(ec.mult_g_jacobian(h), gy))
        return ec.jac_batch_to_affine(jac)

    def derive_digest(self, k: bytes, tag: int, counter: int, gy):
        pt = self._points(k, tag, counter, 1, gy)[0]
        return None if pt is None else hash160(ec.compress(pt))

    def grind_scan(self, k, tag, gy, start, max_attempts, positions, *targets, spares=0):
        """One scan of counters start, start + 1, ... that fills every target.

        A usable counter whose digest carries a value on `positions` goes to
        the first still-open target with that value, so equal targets get
        distinct counters. Returns ((counter, digest) per target, attempts),
        where attempts is the offset of the last hit + 1, or None when
        `max_attempts` counters leave a target open. With `spares` > 0 a
        third item follows: the (counter, digest) pairs of the first
        `spares` usable counters below the last hit that no target took."""
        m = len(positions)
        if any(not 0 <= pos < 160 for pos in positions):
            raise ValueError(f"bit positions must be in [0, 160), got {positions}")
        if not 1 <= len(targets) <= MAX_TARGETS:
            raise ValueError(f"{len(targets)} targets, expected 1 to {MAX_TARGETS}")
        if any(not 0 <= t < 1 << m for t in targets):
            raise ValueError(f"targets must be in [0, 2^{m}), got {targets}")
        if not 0 <= spares <= MAX_SPARES:
            raise ValueError(f"spares must be in [0, {MAX_SPARES}], got {spares}")
        open_slots: dict[int, list[int]] = {}
        for slot, value in enumerate(targets):
            open_slots.setdefault(value, []).append(slot)
        hits = [None] * len(targets)
        kept = []
        n_open = len(targets)
        batch = _DIGEST_BATCH if m >= 6 else max(8, 1 << m)
        done = 0
        while done < max_attempts:
            count = min(batch, max_attempts - done)
            pts = self._points(k, tag, start + done, count, gy)
            for i, pt in enumerate(pts):
                if pt is None:
                    continue  # degenerate index, skip
                digest = hash160(ec.compress(pt))
                slots = open_slots.get(select_bits(digest, positions))
                if slots:
                    hits[slots.pop(0)] = (start + done + i, digest)
                    n_open -= 1
                    if not n_open:
                        result = tuple(hits), done + i + 1
                        return (*result, tuple(kept)) if spares else result
                elif len(kept) < spares:
                    kept.append((start + done + i, digest))
            done += count
        return None

    @staticmethod
    def parse_transactions(data, offset, count, tx_type, input_type, output_type):
        """Parse `count` transactions from `data` at `offset`; returns them as
        a tuple and the offset past the last one. Rows are built without a
        Python-level call per row; each transaction is made without its
        __init__, its fields and txid (sha256d of its own bytes) set in its
        __dict__. Raises ValueError when a count runs past the data; no
        count is trusted before it is checked against the bytes left."""
        size = len(data)
        if not 0 <= offset <= size or not 0 <= count <= (size - offset) // _TX_MIN:
            raise ValueError(f"{count} transactions cannot fit in the data")
        new_input = functools.partial(tuple.__new__, input_type)
        new_output = functools.partial(tuple.__new__, output_type)
        txs = []
        for _ in range(count):
            start = offset
            if size - offset < _TX_MIN:
                raise ValueError("data ends inside a transaction")
            (n_in,) = _U32.unpack_from(data, offset)
            offset += 4
            # the output count and the fee follow the inputs
            if n_in > (size - offset - 4 - 8) // _INPUT.size:
                raise ValueError("input count runs past the data")
            end = offset + _INPUT.size * n_in
            inputs = tuple(map(new_input, _INPUT.iter_unpack(data[offset:end])))
            (n_out,) = _U32.unpack_from(data, end)
            offset = end + 4
            if n_out > (size - offset - 8) // _OUTPUT.size:
                raise ValueError("output count runs past the data")
            end = offset + _OUTPUT.size * n_out
            rows = _OUTPUT.iter_unpack(data[offset:end])
            outputs = tuple(map(new_output, map(_output_order, rows)))
            (fee,) = _U64.unpack_from(data, end)
            offset = end + 8
            tx = object.__new__(tx_type)
            vars(tx).update(inputs=inputs, outputs=outputs, fee=fee,
                            txid=sha256d(data[start:offset]))
            txs.append(tx)
        return tuple(txs), offset

    utxo_table = _UtxoDict
    mult_g = staticmethod(ec.mult_g)
    decompress = staticmethod(ec.decompress)

    def connect_records(self, utxos, data, height, prev_hash, subsidy):
        """Apply the framed block records of `data` in file order (the
        contract is in the module docstring) through _connect_record; stop
        at the first refusal and return it with the rows of what was
        applied."""
        rows, issued, at, size = [], 0, 0, len(data)
        try:
            while at < size:
                if size - at < 4:
                    raise ValueError("length")
                (length,) = _U32.unpack_from(data, at)
                start, at = at + 4, at + 4 + length
                if at > size:
                    raise ValueError("extent")
                at_height = height + len(rows)
                timestamp, block_hash, fees, minted, coinbase = self._connect_record(
                    utxos, data[start:at], at_height, prev_hash)
                if at_height and minted > subsidy + fees:
                    raise ValueError("cap", at_height, minted, subsidy + fees)
                issued += minted - fees
                rows.append(_BLOCK_ROW.pack(timestamp, block_hash, coinbase, start, at))
                prev_hash = block_hash
        except ValueError as exc:
            return b"".join(rows), issued, exc.args
        return b"".join(rows), issued, None

    def _connect_record(self, utxos, record, height, prev_hash):
        """Apply one block record: parse_transactions, the record checks,
        then the rows in order."""
        if len(record) < _BLOCK_HEAD.size:
            raise ValueError("truncated", "data ends inside the block header")
        at_height, prev, timestamp, count = _BLOCK_HEAD.unpack_from(record)
        try:
            txs, end = self.parse_transactions(record, _BLOCK_HEAD.size, count,
                                               _Parsed, tuple, utxos.row)
        except ValueError as exc:
            raise ValueError("truncated", str(exc)) from None
        if end + 32 != len(record):
            raise ValueError("trailing")
        block_hash = record[end:]
        if sha256d(record[:end]) != block_hash:
            raise ValueError("hash", at_height)
        if at_height != height:
            raise ValueError("height", at_height)
        if prev != prev_hash:
            raise ValueError("chain", at_height)
        if not txs or len(txs[0].inputs) != 1 or txs[0].inputs[0][0] != _NULL32:
            raise ValueError("coinbase", at_height)
        fees = 0
        for position, tx in enumerate(txs):
            txid = tx.txid
            if position:
                total_in = 0
                for index, inp in enumerate(tx.inputs):
                    spent = utxos.pop(inp[:2], None)  # (prev_txid, vout)
                    if spent is None:
                        raise ValueError("spent", position, index)
                    if spent[0] != inp[2]:  # the field it pays, the input's address
                        raise ValueError("address", position, index)
                    total_in += spent[1]
                if total_in != sum(map(_amount, tx.outputs)) + tx.fee:
                    raise ValueError("balance", position, -1)
                fees += tx.fee
            for vout, out in enumerate(tx.outputs):
                utxos[(txid, vout)] = out
        return timestamp, block_hash, fees, sum(map(_amount, txs[0].outputs)), txs[0].txid


_pure = PureBackend()
_ext = None
try:
    from . import _kernel  # noqa: F401

    class ExtBackend:
        name = "ext"

        def derive_digest(self, k, tag, counter, gy):
            return _kernel.derive_digest(k, tag, counter, gy[0], gy[1])

        def grind_scan(self, k, tag, gy, start, max_attempts, positions, *targets, spares=0):
            return _kernel.grind_scan(
                k, tag, gy[0], gy[1], start, max_attempts, positions, targets, spares=spares
            )

        parse_transactions = staticmethod(_kernel.parse_transactions)
        utxo_table = _kernel.UtxoTable
        connect_records = staticmethod(_kernel.connect_records)
        decompress = staticmethod(_kernel.decompress)

        def mult_g(self, scalar):
            return _kernel.mult_g(scalar % ec.Q)

    _ext = ExtBackend()
except ImportError:
    pass

_active = None


def available() -> list[str]:
    return ["pure"] + (["ext"] if _ext is not None else [])


def get():
    global _active
    if _active is None:
        choice = os.environ.get("CHAINSTEG_BACKEND", "auto")
        set_backend(choice)
    return _active


def set_backend(name: str):
    global _active
    if name == "auto":
        _active = _ext if _ext is not None else _pure
    elif name == "pure":
        _active = _pure
    elif name == "ext":
        if _ext is None:
            raise RuntimeError("compiled kernel not available")
        _active = _ext
    else:
        raise ValueError(f"unknown backend {name!r}")
    return _active
