"""Chain-file surgery for tests: split a file into its length-prefixed
records, re-seal an edited block record, and append a block whose hash is
valid whatever its transactions do; the backend switch that runs a load on
each backend present, and the state a load rebuilds."""

import contextlib
import struct

from chainsteg import backend
from chainsteg.hashes import sha256d
from chainsteg.ledger import BLOCK_SUBSIDY, Block, StegoTransaction, TxInput, TxOutput


@contextlib.contextmanager
def active_backend(name):
    """Make `name` the active backend inside the block, then restore."""
    previous = backend.get().name
    try:
        yield backend.set_backend(name)
    finally:
        backend.set_backend(previous)


def chain_state(ledger):
    """What a load must rebuild the same on every backend: the UTXO dict in
    order, the supply, the decoy pool and the tip."""
    return (list(ledger._utxos.items()), ledger.total_supply(), ledger._pool,
            ledger.blocks[-1].block_hash)


def records(raw: bytes) -> list[bytes]:
    out, offset = [], 0
    while offset < len(raw):
        (length,) = struct.unpack_from(">I", raw, offset)
        out.append(raw[offset + 4 : offset + 4 + length])
        offset += 4 + length
    return out


def framed(recs) -> bytes:
    return b"".join(struct.pack(">I", len(rec)) + rec for rec in recs)


def reseal(record: bytes) -> bytes:
    """The block record with its trailing hash recomputed over the rest."""
    return record[:-32] + sha256d(record[:-32])


def coinbase(height: int, amount: int = BLOCK_SUBSIDY) -> StegoTransaction:
    """A coinbase for `height` paying `amount` to one output."""
    return StegoTransaction(
        inputs=(TxInput(bytes(32), height, bytes(20)),),
        outputs=(TxOutput(b"\x05" * 20, amount),),
        fee=0,
    )


def append_sealed(path, ledger, txs) -> None:
    """Append to `path` a sealed block after `ledger`'s tip that holds
    exactly `txs`, in that order, unchecked."""
    tip = ledger.blocks[-1]
    block = Block.seal(len(ledger.blocks), tip.block_hash, tip.timestamp + 600, txs)
    with open(path, "ab") as fh:
        fh.write(framed([block.serialize()]))


def append_block(path, ledger, *txs) -> None:
    """Append to `path` a sealed block after `ledger`'s tip that holds a
    coinbase and `txs`, unchecked."""
    append_sealed(path, ledger, (coinbase(len(ledger.blocks)), *txs))


def spend(outpoint, address: bytes = b"\xaa" * 20, amount: int = 10**6) -> StegoTransaction:
    """A one-in, one-out transaction with fee 1000 spending `outpoint` at
    `address`."""
    return StegoTransaction(
        inputs=(TxInput(outpoint[0], outpoint[1], address),),
        outputs=(TxOutput(b"\x02" * 20, amount),),
        fee=1000,
    )
