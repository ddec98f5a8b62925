"""Backend selection: compiled kernel when importable, pure Python otherwise.

Both backends implement the same five calls used on hot paths:
derive_digest and grind_scan for grinding, parse_transactions for reading
transactions, connect for blocks mined in this process, and connect_record
for loading blocks. The observable contract is identical: grind_scan gives
each target the smallest matching counter not taken by an earlier target,
parse_transactions builds the same rows, fields and txids, and connect and
connect_record leave the same UTXO dict, in the same order, and refuse the
same block for the same reason, so results never depend on which backend
ran.

connect(utxos, transactions) applies one block's transactions in order.
Transaction 0 is the coinbase, whose inputs spend nothing. Each other one
pops the outpoint of every input, which must be present and pay the
input's address, and must balance its inputs with its outputs plus its
fee. Its outputs then go in under (txid, vout) keys. It returns the block's
fees, or raises ValueError(reason, position, index) with reason "spent",
"address" or "balance" (index -1), which the ledger turns into its
CorruptChain text. The coinbase-first rule and the coinbase cap stay in
the ledger. Rows are read by position; the compiled connect reads rows made
by Python or by the parser alike, and a row or field of another type
raises TypeError.

connect_record(utxos, record, height, prev_hash, output_type) applies one
block record straight from its bytes, and builds no transaction: only the
output rows that go into utxos. Before utxos is touched it checks the
record's framing and every count, its stored hash (sha256d of the bytes
before it), that its header gives `height` and `prev_hash`, and that
transaction 0 is a coinbase; a refusal there raises ValueError("truncated",
text), ValueError("trailing") or ValueError("hash" | "height" | "chain" |
"coinbase", the record's height). It then applies the transactions as
connect does, with the same ValueError on a broken rule, and returns
(timestamp, block_hash, fees, minted, coinbase_txid), minted being what
the coinbase pays; the ledger checks the cap. The kernel walks the bytes
once to check and once to apply, with connect's spend and balance code;
PureBackend parses the record with parse_transactions and runs connect.

A loaded chain holds thousands of UTXO rows and outpoint keys, and tens of
thousands of rows and tuples once its blocks are read. Each holds only
bytes and ints, so none can be part of a reference cycle, and the kernel
untracks each from the cyclic GC when it makes it. A collection untracks an exact tuple whose items are all
untracked, which covers the keys, but never a tuple subclass such as the
TxInput and TxOutput rows, and so never the tuples that hold those rows:
without this, every full collection would walk them all. Only
gc.is_tracked tells the difference.

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
runs. A failed test raises RuntimeError on import. No option or setting
chooses the path, and results are the same on both. A derivation in a
256-lane batch takes 1.7 us of CPU time on the IFMA path and 6.2 us on the
portable one, and a single derive_digest 12.5 us (2-vCPU Xeon VM;
BENCH_18.json).
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
_output_order = operator.itemgetter(0, 2, 1)  # wire (field, kind, amount) -> row
_amount = operator.itemgetter(1)  # an output row's amount
_NULL32 = bytes(32)


class _Parsed:
    """A transaction the pure connect_record parses only to apply it."""


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

    @staticmethod
    def connect(utxos, transactions):
        """Apply a block's transactions to `utxos` in order and return the
        sum of the non-coinbase fees (the contract is in the module
        docstring). A broken rule raises ValueError(reason, position,
        index), with what came before it applied. Rows are read by
        position, as the kernel reads them."""
        fees = 0
        for position, tx in enumerate(transactions):
            txid = tx.txid
            if position:
                total_in = 0
                for index, inp in enumerate(tx.inputs):
                    prev = utxos.pop(inp[:2], None)  # (prev_txid, vout)
                    if prev is None:
                        raise ValueError("spent", position, index)
                    if prev[0] != inp[2]:  # the field it pays, the input's address
                        raise ValueError("address", position, index)
                    total_in += prev[1]
                if total_in != sum(map(_amount, tx.outputs)) + tx.fee:
                    raise ValueError("balance", position, -1)
                fees += tx.fee
            for vout, out in enumerate(tx.outputs):
                utxos[(txid, vout)] = out
        return fees

    def connect_record(self, utxos, record, height, prev_hash, output_type):
        """Apply one block record (the contract is in the module docstring):
        parse_transactions, the record checks, then connect."""
        if len(record) < _BLOCK_HEAD.size:
            raise ValueError("truncated", "data ends inside the block header")
        at_height, prev, timestamp, count = _BLOCK_HEAD.unpack_from(record)
        try:
            txs, end = self.parse_transactions(record, _BLOCK_HEAD.size, count,
                                               _Parsed, tuple, output_type)
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
        fees = self.connect(utxos, txs)
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
        connect = staticmethod(_kernel.connect)
        connect_record = staticmethod(_kernel.connect_record)

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
