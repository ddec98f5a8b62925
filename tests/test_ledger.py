import dataclasses
import random
import struct

import chainfile
import pytest

from chainsteg import Channel, ChannelConfig, Mode, backend
from chainsteg import ledger as ledger_module
from chainsteg.errors import CorruptChain, Rejected
from chainsteg.hashes import sha256d
from chainsteg.ledger import (
    BLOCK_SUBSIDY,
    Block,
    Ledger,
    NoiseProfile,
    StegoTransaction,
    TxInput,
    TxOutput,
)
from chainsteg.session import SessionState


def fresh_ledger():
    return Ledger.create(genesis_allocations=[(b"\xaa" * 20, 10**9)])


def genesis_outpoint(ledger):
    coinbase = ledger.blocks[0].transactions[0]
    return (coinbase.txid, 1)  # vout 0 is the decoy pool


def spend_genesis(ledger, outputs, fee):
    outpoint = genesis_outpoint(ledger)
    return StegoTransaction(
        inputs=(TxInput(outpoint[0], outpoint[1], b"\xaa" * 20),),
        outputs=tuple(outputs),
        fee=fee,
    )


def test_submit_and_mine():
    ledger = fresh_ledger()
    tx = spend_genesis(ledger, [TxOutput(b"\x01" * 20, 10**9 - 1000)], 1000)
    txid = ledger.submit(tx)
    assert len(ledger.mempool) == 1
    assert ledger.submit(tx) == txid  # idempotent
    assert len(ledger.mempool) == 1
    block = ledger.mine_block()
    assert block.height == 1
    assert tx in block.transactions
    assert ledger.utxo((txid, 0)).amount == 10**9 - 1000


def test_double_spend_rejected():
    ledger = fresh_ledger()
    tx1 = spend_genesis(ledger, [TxOutput(b"\x01" * 20, 10**9 - 1000)], 1000)
    tx2 = spend_genesis(ledger, [TxOutput(b"\x02" * 20, 10**9 - 1000)], 1000)
    ledger.submit(tx1)
    with pytest.raises(Rejected):
        ledger.submit(tx2)
    ledger.mine_block()
    with pytest.raises(Rejected):
        ledger.submit(tx2)


def test_validation_rules():
    ledger = fresh_ledger()
    with pytest.raises(Rejected):  # dust
        ledger.submit(spend_genesis(ledger, [TxOutput(b"\x01" * 20, 100),
                                             TxOutput(b"\x02" * 20, 10**9 - 1100)], 1000))
    with pytest.raises(Rejected):  # imbalance
        ledger.submit(spend_genesis(ledger, [TxOutput(b"\x01" * 20, 5000)], 1000))
    with pytest.raises(Rejected):  # wrong input address
        outpoint = genesis_outpoint(ledger)
        ledger.submit(StegoTransaction(
            inputs=(TxInput(outpoint[0], outpoint[1], b"\xbb" * 20),),
            outputs=(TxOutput(b"\x01" * 20, 10**9 - 1000),),
            fee=1000,
        ))
    with pytest.raises(Rejected):  # unknown outpoint
        ledger.submit(StegoTransaction(
            inputs=(TxInput(b"\x99" * 32, 0, b"\xaa" * 20),),
            outputs=(TxOutput(b"\x01" * 20, 1000),),
            fee=0,
        ))
    with pytest.raises(Rejected):  # null outpoint reserved
        ledger.submit(StegoTransaction(
            inputs=(TxInput(bytes(32), 0, b"\xaa" * 20),),
            outputs=(TxOutput(b"\x01" * 20, 1000),),
            fee=0,
        ))
    with pytest.raises(Rejected):  # a genesis digest of the wrong length
        Ledger.create([(b"\x01" * 19, 10**9)])


def test_mempool_chaining():
    ledger = fresh_ledger()
    tx1 = spend_genesis(ledger, [TxOutput(b"\x01" * 20, 10**9 - 1000)], 1000)
    txid1 = ledger.submit(tx1)
    tx2 = StegoTransaction(
        inputs=(TxInput(txid1, 0, b"\x01" * 20),),
        outputs=(TxOutput(b"\x02" * 20, 10**9 - 2000),),
        fee=1000,
    )
    ledger.submit(tx2)
    block = ledger.mine_block(seed=99)
    order = [tx.txid for tx in block.transactions]
    assert order.index(txid1) < order.index(tx2.txid)


def test_empty_block_and_determinism():
    l1 = fresh_ledger()
    l2 = fresh_ledger()
    b1 = l1.mine_block(NoiseProfile(rate=0.0), seed=5)
    b2 = l2.mine_block(NoiseProfile(rate=0.0), seed=5)
    assert len(b1.transactions) == 1  # coinbase only
    assert b1.serialize() == b2.serialize()
    b3 = l1.mine_block(NoiseProfile(rate=3.0), seed=6)
    b4 = l2.mine_block(NoiseProfile(rate=3.0), seed=6)
    assert b3.serialize() == b4.serialize()


def test_output_order_preserved():
    ledger = fresh_ledger()
    outputs = [TxOutput(bytes([i]) * 20, 1000 + i) for i in range(5)]
    total = sum(o.amount for o in outputs)
    tx = spend_genesis(ledger, outputs + [TxOutput(b"\x77" * 20, 10**9 - total - 1000)], 1000)
    ledger.submit(tx)
    block = ledger.mine_block()
    mined = next(t for t in block.transactions if t.txid == tx.txid)
    assert [o.field for o in mined.outputs[:5]] == [o.field for o in outputs]


def test_decoy_output_count_statistics():
    ledger = Ledger.create()
    profile = NoiseProfile(rate=60.0)
    counts = []
    seed = 0
    while len(counts) < 10000:
        seed += 1
        block = ledger.mine_block(profile, seed=seed)
        for tx in block.transactions[1:]:
            counts.append(len(tx.outputs))
    counts = counts[:10000]
    mean = sum(counts) / len(counts)
    assert abs(mean - 3.45) < 0.1
    assert all(1 <= c <= 30 for c in counts)


def test_decoys_leave_pool_outpoints_the_mempool_spends():
    """A mempool transaction may spend a decoy-pool outpoint (addresses are
    public); no decoy of the block that mines it spends that outpoint too."""
    ledger = Ledger.create()
    ledger.mine_block()
    assert len(ledger._pool) == 2
    for outpoint in list(ledger._pool):
        prev = ledger.utxo(outpoint)
        ledger.submit(chainfile.spend(outpoint, prev.field, prev.amount - 1000))
    ledger.mine_block(NoiseProfile(rate=3.0), seed=2)
    assert ledger.utxo_total() == ledger.total_supply()
    ledger.mine_block(NoiseProfile(rate=3.0), seed=3)  # a decoy spends block 2's coinbase
    assert len(ledger.blocks[-1].transactions) > 1
    assert ledger.utxo_total() == ledger.total_supply()


def test_conservation():
    ledger = fresh_ledger()
    tx = spend_genesis(ledger, [TxOutput(b"\x01" * 20, 10**9 - 5000)], 5000)
    ledger.submit(tx)
    for seed in range(5):
        ledger.mine_block(NoiseProfile(rate=4.0), seed=seed)
    assert ledger.utxo_total() == ledger.total_supply()
    # supply = genesis issuance + one subsidy per mined block
    genesis_total = sum(
        o.amount for o in ledger.blocks[0].transactions[0].outputs
    )
    assert ledger.total_supply() == genesis_total + 5 * BLOCK_SUBSIDY


def test_scan():
    ledger = fresh_ledger()
    tx = spend_genesis(ledger, [TxOutput(b"\x01" * 20, 10**9 - 1000)], 1000)
    ledger.submit(tx)
    ledger.mine_block(NoiseProfile(rate=2.0), seed=1)
    index = ledger.input_index(0)
    assert b"\xff" * 20 not in index
    assert index[b"\xaa" * 20] == [tx]
    assert ledger.input_index(0) == index  # pure read
    assert all(i.prev_txid != bytes(32) for txs in index.values() for t in txs for i in t.inputs)
    assert ledger.input_index(2) == {}


def test_scan_detects_tampering():
    ledger = fresh_ledger()
    ledger.mine_block()
    good = ledger.blocks[1]
    ledger.blocks[1] = Block(
        height=good.height,
        prev_hash=good.prev_hash,
        timestamp=good.timestamp + 1,  # mutate a confirmed field
        transactions=good.transactions,
        block_hash=good.block_hash,
    )
    with pytest.raises(CorruptChain):
        ledger.input_index(0)
    ledger.blocks[1] = good
    ledger.input_index(0)


@pytest.fixture()
def stego_chain(tmp_path, km):
    """A seeded chain file with MED and HIGH transactions among decoys, and
    one HIGH message still in its mempool sidecar."""
    cfg = ChannelConfig(n=3, m=5, mode=Mode.PERMUTED, max_fields_per_tx=2)
    sender = SessionState(km, cfg, seed=4)
    ledger = sender.genesis_ledger()
    sender.send_message(ledger, b"confirmed", Channel.MED)
    ledger.mine_block(NoiseProfile(rate=4.0), seed=1)
    sender.send_message(ledger, b"also confirmed", Channel.HIGH)
    ledger.mine_block(NoiseProfile(rate=4.0), seed=2)
    sender.send_message(ledger, b"still in the mempool", Channel.HIGH)
    path = tmp_path / "chain.bin"
    ledger.save(path)
    return path


def test_encoding_is_canonical(stego_chain):
    """Load hashes the bytes it read, which is sound only because
    serializing the parsed fields gives back exactly those bytes."""
    ledger = Ledger.load(stego_chain)
    pending = chainfile.records((stego_chain.parent / "chain.bin.mempool").read_bytes())
    assert [b.serialize() for b in ledger.blocks] == chainfile.records(stego_chain.read_bytes())
    assert [tx.serialize() for tx in ledger.mempool] == pending
    txs = [tx for b in ledger.blocks for tx in b.transactions] + ledger.mempool
    assert len(ledger.mempool) >= 1 and len(txs) > 3 * len(ledger.blocks)  # decoys too
    for tx in txs:
        assert vars(tx)["txid"] == sha256d(tx.serialize())


def file_txids(record: bytes) -> list[bytes]:
    """sha256d of each transaction's bytes in a block record, found by
    walking its counts."""
    (count,), offset, txids = struct.unpack_from(">I", record, 48), 52, []
    for _ in range(count):
        start = offset
        (n_in,) = struct.unpack_from(">I", record, offset)
        offset += 4 + 56 * n_in
        (n_out,) = struct.unpack_from(">I", record, offset)
        offset += 4 + 29 * n_out + 8
        txids.append(sha256d(record[start:offset]))
    assert offset + 32 == len(record)
    return txids


def test_load_serializes_nothing(stego_chain, monkeypatch):
    """Load neither re-serializes a record nor builds a transaction through
    the dataclass constructor, and on each backend it parses transactions
    only from the mempool sidecar; a block parses its own from its record
    when they are first read."""
    calls = []
    for owner, attr in ((StegoTransaction, "serialize"), (StegoTransaction, "__init__"),
                        (Block, "body_bytes"), (ledger_module, "_parse_transactions")):
        def counted(*args, _original=getattr(owner, attr), _name=attr, **kwargs):
            calls.append(_name)
            return _original(*args, **kwargs)
        monkeypatch.setattr(owner, attr, counted)
    pending = chainfile.records((stego_chain.parent / "chain.bin.mempool").read_bytes())
    records = chainfile.records(stego_chain.read_bytes())
    for name in backend.available():
        calls.clear()
        with chainfile.active_backend(name):
            ledger = Ledger.load(stego_chain)
            assert ledger.mempool and len(ledger.blocks) == 3
            assert calls == ["_parse_transactions"] * len(pending)
            assert all("transactions" not in vars(block) for block in ledger.blocks)
            for block, record in zip(ledger.blocks, records, strict=True):
                assert [tx.txid for tx in block.transactions] == file_txids(record)
        assert calls == ["_parse_transactions"] * (len(pending) + len(records))


def test_scan_detects_tampering_after_load(stego_chain):
    ledger = Ledger.load(stego_chain)
    good = ledger.blocks[1]
    tx = good.transactions[1]
    ledger.blocks[1] = dataclasses.replace(good, transactions=(
        good.transactions[0], dataclasses.replace(tx, fee=tx.fee + 1), *good.transactions[2:]
    ))
    with pytest.raises(CorruptChain):
        ledger.input_index(0)
    ledger.blocks[1] = good
    ledger.input_index(0)


def load_on_each_backend(path) -> list[Ledger]:
    """Ledger.load(path) with each backend present active in turn, so both
    backends' `connect` apply the block rules."""
    loaded = []
    for name in backend.available():
        with chainfile.active_backend(name):
            loaded.append(Ledger.load(path))
    return loaded


def record_refusal(impl, path):
    """The ValueError args with which `impl`'s connect_record refuses the
    first record of the chain file it refuses; None when it takes them all."""
    utxos, prev_hash = {}, bytes(32)
    for height, record in enumerate(chainfile.records(path.read_bytes())):
        try:
            _, prev_hash, *_ = impl.connect_record(utxos, record, height, prev_hash, TxOutput)
        except ValueError as exc:
            return exc.args
    return None


def load_error(path) -> str:
    """The CorruptChain text that Ledger.load(path) raises, the same on each
    backend present, whose connect_record refuses the same record for the
    same (reason, position, index)."""
    texts, refusals = set(), set()
    for name in backend.available():
        with chainfile.active_backend(name) as impl:
            with pytest.raises(CorruptChain) as exc:
                Ledger.load(path)
            refusals.add(record_refusal(impl, path))
        texts.add(str(exc.value))
    assert len(texts) == 1, texts
    assert len(refusals) == 1, refusals
    return texts.pop()


@pytest.mark.parametrize("spent", ["unknown", "already spent"])
def test_load_rejects_resealed_block_with_bad_spend(tmp_path, spent):
    path = tmp_path / "chain.bin"
    ledger = fresh_ledger()
    outpoint = genesis_outpoint(ledger)
    ledger.submit(spend_genesis(ledger, [TxOutput(b"\x01" * 20, 10**9 - 1000)], 1000))
    ledger.mine_block()
    ledger.save(path)
    if spent == "unknown":
        outpoint = (b"\x07" * 32, 0)
    chainfile.append_block(path, ledger, chainfile.spend(outpoint))
    assert load_error(path) == (
        f"block 2 spends unknown or spent output {outpoint[0].hex()[:16]}:{outpoint[1]}"
    )


def chain_with_unspent_allocation(path):
    """A saved two-block chain whose genesis also pays 10**9 to \xaa*20,
    and the outpoint of that allocation, which no block spends."""
    ledger = fresh_ledger()
    outpoint = genesis_outpoint(ledger)
    ledger.mine_block()
    ledger.save(path)
    return ledger, outpoint


@pytest.mark.parametrize("case,message", [
    ("creates value", "does not balance"),
    ("pays too little", "does not balance"),
    ("wrong address", "not paid to"),
    ("coinbase over cap", "more than subsidy plus fees"),
])
def test_load_rejects_resealed_block_that_breaks_value_rules(tmp_path, case, message):
    path = tmp_path / "chain.bin"
    ledger, outpoint = chain_with_unspent_allocation(path)
    height = len(ledger.blocks)
    txs = {
        "creates value": [chainfile.coinbase(height), chainfile.spend(outpoint, amount=10**12)],
        "pays too little": [chainfile.coinbase(height), chainfile.spend(outpoint)],
        "wrong address": [chainfile.coinbase(height),
                          chainfile.spend(outpoint, b"\xbb" * 20, 10**9 - 1000)],
        "coinbase over cap": [chainfile.coinbase(height, BLOCK_SUBSIDY + 1001),
                              chainfile.spend(outpoint, amount=10**9 - 1000)],
    }[case]
    chainfile.append_sealed(path, ledger, txs)
    spent = f"{outpoint[0].hex()[:16]}:{outpoint[1]}"
    assert load_error(path) == {
        "does not balance": f"block 2 transaction {txs[1].txid.hex()[:16]} does not "
                            "balance its inputs with its outputs plus fee",
        "not paid to": f"block 2 spends {spent} from an address it was not paid to",
        "more than subsidy plus fees": f"block 2 coinbase pays {BLOCK_SUBSIDY + 1001}, "
                                       f"more than subsidy plus fees ({BLOCK_SUBSIDY + 1000})",
    }[message]


def test_load_accepts_coinbase_at_cap(tmp_path):
    path = tmp_path / "chain.bin"
    ledger, outpoint = chain_with_unspent_allocation(path)
    chainfile.append_sealed(path, ledger, [
        chainfile.coinbase(len(ledger.blocks), BLOCK_SUBSIDY + 1000),
        chainfile.spend(outpoint, amount=10**9 - 1000),
    ])
    for loaded in load_on_each_backend(path):
        assert len(loaded.blocks) == 3
        assert loaded.total_supply() == loaded.utxo_total()


@pytest.mark.parametrize("layout,message", [
    ("coinbase second", "does not start with a coinbase"),
    ("no coinbase", "does not start with a coinbase"),
    ("two coinbases", "null outpoint outside its coinbase"),
])
def test_load_rejects_resealed_block_without_coinbase_first(tmp_path, layout, message):
    path = tmp_path / "chain.bin"
    ledger, outpoint = chain_with_unspent_allocation(path)
    coinbase = chainfile.coinbase(len(ledger.blocks))
    spend = chainfile.spend(outpoint, amount=10**9 - 1000)
    txs = {
        "coinbase second": [spend, coinbase],
        "no coinbase": [spend],
        "two coinbases": [coinbase, chainfile.coinbase(len(ledger.blocks), 1000)],
    }[layout]
    chainfile.append_sealed(path, ledger, txs)
    assert message in load_error(path)


@pytest.mark.parametrize("place,message", [
    ("height", "unexpected height 3"),
    ("parent", "block 2 breaks the hash chain"),
])
def test_load_rejects_resealed_block_out_of_place(tmp_path, place, message):
    """A block whose hash holds must still sit at the next height, on the
    tip."""
    path = tmp_path / "chain.bin"
    ledger, _ = chain_with_unspent_allocation(path)
    tip = ledger.blocks[-1]
    height = tip.height + (2 if place == "height" else 1)
    parent = tip.prev_hash if place == "parent" else tip.block_hash
    block = Block.seal(height, parent, tip.timestamp + 600, [chainfile.coinbase(height)])
    with open(path, "ab") as fh:
        fh.write(chainfile.framed([block.serialize()]))
    assert load_error(path) == message


def test_load_keeps_in_block_chaining(tmp_path):
    """A transaction may spend an output created earlier in its block."""
    path, reordered = tmp_path / "chain.bin", tmp_path / "reordered.bin"
    ledger, outpoint = chain_with_unspent_allocation(path)
    reordered.write_bytes(path.read_bytes())
    parent = chainfile.spend(outpoint, amount=10**9 - 1000)
    child = chainfile.spend((parent.txid, 0), b"\x02" * 20, 10**9 - 2000)
    chainfile.append_block(path, ledger, parent, child)
    for loaded in load_on_each_backend(path):
        assert loaded.utxo((child.txid, 0)).amount == 10**9 - 2000
    chainfile.append_block(reordered, ledger, child, parent)
    assert "spends unknown or spent output" in load_error(reordered)


def test_save_load_roundtrip(tmp_path):
    path = tmp_path / "chain.bin"
    ledger = fresh_ledger()
    tx = spend_genesis(ledger, [TxOutput(b"\x01" * 20, 10**9 - 1000)], 1000)
    ledger.submit(tx)
    ledger.mine_block(NoiseProfile(rate=3.0), seed=2)
    ledger.save(path)
    loaded = Ledger.load(path)
    assert len(loaded.blocks) == len(ledger.blocks)
    for a, b in zip(loaded.blocks, ledger.blocks):
        assert a.serialize() == b.serialize()
    assert loaded.utxo_total() == ledger.utxo_total()
    # append-only: mine more, save again, reload
    loaded.mine_block(seed=3)
    loaded.save(path)
    again = Ledger.load(path)
    assert len(again.blocks) == 3


def test_mempool_sidecar(tmp_path):
    path = tmp_path / "chain.bin"
    ledger = fresh_ledger()
    tx = spend_genesis(ledger, [TxOutput(b"\x01" * 20, 10**9 - 1000)], 1000)
    ledger.submit(tx)
    ledger.save(path)
    loaded = Ledger.load(path)
    assert len(loaded.mempool) == 1
    block = loaded.mine_block()
    assert tx in block.transactions
    loaded.save(path)
    assert not (tmp_path / "chain.bin.mempool").exists()


def test_truncated_sidecar_is_corrupt_chain(tmp_path):
    path = tmp_path / "chain.bin"
    ledger = fresh_ledger()
    tx1 = spend_genesis(ledger, [TxOutput(b"\x01" * 20, 10**9 - 1000)], 1000)
    tx2 = StegoTransaction(
        inputs=(TxInput(ledger.submit(tx1), 0, b"\x01" * 20),),
        outputs=(TxOutput(b"\x02" * 20, 10**9 - 2000),),
        fee=1000,
    )
    ledger.submit(tx2)
    ledger.save(path)
    sidecar = tmp_path / "chain.bin.mempool"
    raw = sidecar.read_bytes()
    loaded = 0
    for cut in range(len(raw)):
        sidecar.write_bytes(raw[:cut])
        try:
            pending = Ledger.load(path).mempool
        except CorruptChain:
            continue
        assert pending == [tx1, tx2][: len(pending)]
        loaded += 1
    assert loaded == 2  # cut at 0 and at the record boundary


def test_single_byte_corruption_detected(tmp_path):
    path = tmp_path / "chain.bin"
    ledger = fresh_ledger()
    tx = spend_genesis(ledger, [TxOutput(b"\x01" * 20, 10**9 - 1000)], 1000)
    ledger.submit(tx)
    ledger.mine_block(NoiseProfile(rate=3.0), seed=7)
    ledger.save(path)
    raw = path.read_bytes()
    rng = random.Random(123)
    for _ in range(40):
        pos = rng.randrange(len(raw))
        bit = 1 << rng.randrange(8)
        mutated = bytearray(raw)
        mutated[pos] ^= bit
        path.write_bytes(bytes(mutated))
        with pytest.raises(CorruptChain):
            Ledger.load(path)
    path.write_bytes(raw)
    Ledger.load(path)  # pristine file still loads


def test_load_rejects_trailing_bytes_in_block_record(tmp_path):
    path = tmp_path / "chain.bin"
    path.write_bytes(chainfile.framed([fresh_ledger().blocks[0].serialize() + b"\x00"]))
    assert load_error(path) == "trailing bytes in block record"


def test_save_to_another_file_writes_the_whole_chain(tmp_path):
    """Blocks persisted to one file are not what another file holds: a save
    elsewhere writes the whole chain, and appends stay per file."""
    first, second = tmp_path / "a.bin", tmp_path / "b.bin"
    ledger = fresh_ledger()
    ledger.mine_block(NoiseProfile(rate=3.0), seed=1)
    ledger.save(first)
    loaded = Ledger.load(first)
    loaded.mine_block(NoiseProfile(rate=3.0), seed=2)
    loaded.save(second)
    assert second.read_bytes().startswith(first.read_bytes())
    again = Ledger.load(second)
    assert [b.block_hash for b in again.blocks] == [b.block_hash for b in loaded.blocks]
    assert again.utxo_total() == again.total_supply() == loaded.total_supply()
    loaded.mine_block(seed=3)
    loaded.save(second)  # an append
    assert len(Ledger.load(first).blocks) == 2
    loaded.save(first)  # behind by two blocks: rewritten whole
    for path in (first, second):
        assert Ledger.load(path).blocks[-1].block_hash == loaded.blocks[-1].block_hash
    assert first.read_bytes() == second.read_bytes()


def test_export_text():
    ledger = fresh_ledger()
    ledger.mine_block()
    text = ledger.export_text()
    assert "block 0" in text and "block 1" in text
    assert ledger.blocks[1].block_hash.hex() in text
