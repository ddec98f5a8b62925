"""Chain-file surgery for tests: split a file into its length-prefixed
records, re-seal an edited block record, and append a block whose hash is
valid whatever its transactions do."""

import struct

from chainsteg.hashes import sha256d
from chainsteg.ledger import BLOCK_SUBSIDY, Block, StegoTransaction, TxInput, TxOutput


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


def append_block(path, ledger, *txs) -> None:
    """Append to `path` a sealed block after `ledger`'s tip that holds a
    coinbase and `txs`, unchecked."""
    height = len(ledger.blocks)
    coinbase = StegoTransaction(
        inputs=(TxInput(bytes(32), height, bytes(20)),),
        outputs=(TxOutput(b"\x05" * 20, BLOCK_SUBSIDY),),
        fee=0,
    )
    block = Block.seal(height, ledger.blocks[-1].block_hash,
                       ledger.blocks[-1].timestamp + 600, (coinbase, *txs))
    with open(path, "ab") as fh:
        fh.write(framed([block.serialize()]))


def spend(outpoint, address: bytes = b"\xaa" * 20) -> StegoTransaction:
    """A one-in, one-out transaction spending `outpoint` at `address`."""
    return StegoTransaction(
        inputs=(TxInput(outpoint[0], outpoint[1], address),),
        outputs=(TxOutput(b"\x02" * 20, 10**6),),
        fee=1000,
    )
