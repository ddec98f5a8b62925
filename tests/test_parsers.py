"""Every on-disk parser fails closed: any truncation or single bit flip of a
key, config, chain, mempool sidecar or session file either loads or raises
a ChainstegError subclass."""

import random
import struct

import chainfile
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chainsteg import Channel, ChannelConfig, KeyMaterial, Mode, NoiseProfile
from chainsteg.cli import load_config
from chainsteg.errors import ChainstegError, CorruptChain
from chainsteg.hashes import sha256d
from chainsteg.hdw import read_key_file, write_key_file
from chainsteg.ledger import Block, Ledger, StegoTransaction, TxInput, TxOutput
from chainsteg.session import SessionState


@pytest.fixture(scope="module")
def state_files(tmp_path_factory):
    """Path and loader per file kind, from one small seeded run."""
    root = tmp_path_factory.mktemp("state")
    km = KeyMaterial.generate(random.Random(3))
    sender = SessionState(km, ChannelConfig(n=3, m=5, mode=Mode.PERMUTED,
                                            max_fields_per_tx=2), seed=4)
    ledger = sender.genesis_ledger()
    sender.send_message(ledger, b"confirmed", Channel.MED)
    ledger.mine_block(NoiseProfile(rate=2.0), seed=1)
    sender.send_message(ledger, b"still in the mempool", Channel.HIGH)
    ledger.save(root / "chain.bin")
    sender.save(root / "sender.session")
    write_key_file(root / "key.txt", km)
    (root / "channel.cfg").write_text(
        "n = 3\nm = 5\nmode = permuted  # comment\nbit_selector = 4,3,2,1,0\n"
        "grind_cap = 100000\nmax_fields_per_tx = 2\n"
    )
    return {
        "key": (root / "key.txt", read_key_file),
        "config": (root / "channel.cfg", load_config),
        "chain": (root / "chain.bin", Ledger.load),
        "sidecar": (root / "chain.bin.mempool", lambda _: Ledger.load(root / "chain.bin")),
        "session": (root / "sender.session", SessionState.load),
    }


@settings(max_examples=300)
@given(data=st.data())
def test_truncated_or_bit_flipped_file_fails_closed(state_files, data):
    kind = data.draw(st.sampled_from(sorted(state_files)), label="kind")
    path, load = state_files[kind]
    raw = path.read_bytes()
    mutated = bytearray(raw)
    if data.draw(st.booleans(), label="truncate"):
        del mutated[data.draw(st.integers(0, len(raw) - 1), label="length"):]
    else:
        bit = data.draw(st.integers(0, 8 * len(raw) - 1), label="bit")
        mutated[bit // 8] ^= 1 << (bit % 8)
    path.write_bytes(bytes(mutated))
    try:
        load(path)
    except ChainstegError:
        pass
    finally:
        path.write_bytes(raw)


@settings(max_examples=200)
@given(data=st.data())
def test_resealed_bit_flip_in_last_block_fails_closed(state_files, data):
    """A bit flip inside the last block's transactions, with that block's
    hash re-sealed, gets past the hash check to the spend checks."""
    path, _ = state_files["chain"]
    raw = path.read_bytes()
    *head, last = chainfile.records(raw)
    # transactions lie between the 52-byte header and the 32-byte hash
    bit = data.draw(st.integers(8 * 52, 8 * (len(last) - 32) - 1), label="bit")
    mutated = bytearray(last)
    mutated[bit // 8] ^= 1 << (bit % 8)
    path.write_bytes(chainfile.framed([*head, chainfile.reseal(bytes(mutated))]))
    try:
        Ledger.load(path)
    except ChainstegError:
        pass
    finally:
        path.write_bytes(raw)


def _fixed(size):
    return st.binary(min_size=size, max_size=size)


_U32, _U64 = st.integers(0, 2**32 - 1), st.integers(0, 2**64 - 1)
transactions = st.builds(
    StegoTransaction,
    st.lists(st.builds(TxInput, _fixed(32), _U32, _fixed(20)), max_size=5).map(tuple),
    st.lists(st.builds(TxOutput, _fixed(20), _U64, st.integers(0, 255)), max_size=5).map(tuple),
    _U64,
)


@settings(max_examples=300)
@given(tx=transactions, before=st.binary(max_size=40), after=st.binary(max_size=40))
def test_transaction_round_trip(tx, before, after):
    raw = tx.serialize()
    parsed, end = StegoTransaction.deserialize(before + raw + after, len(before))
    assert end == len(before) + len(raw)
    assert parsed == tx
    assert {type(i) for i in parsed.inputs} <= {TxInput}
    assert {type(o) for o in parsed.outputs} <= {TxOutput}
    assert vars(parsed)["txid"] == sha256d(raw)


def test_every_output_kind_round_trips():
    tx = StegoTransaction(
        inputs=(TxInput(b"\x01" * 32, 2**32 - 1, b"\x02" * 20),),
        outputs=tuple(TxOutput(bytes([kind]) * 20, 2**64 - 1 - kind, kind)
                      for kind in range(256)),
        fee=2**64 - 1,
    )
    parsed, _ = StegoTransaction.deserialize(tx.serialize())
    assert parsed == tx and [o.kind for o in parsed.outputs] == list(range(256))


@pytest.mark.parametrize("missing_rows", [1, 3])
@pytest.mark.parametrize("run", ["inputs", "outputs"])
def test_count_past_end_by_whole_rows_is_corrupt(tmp_path, run, missing_rows):
    """A count inflated so its row run is short by whole rows unpacks
    without error; the record must still be refused."""
    tx = StegoTransaction(
        inputs=tuple(TxInput(bytes([i]) * 32, i, b"\xaa" * 20) for i in range(2)),
        outputs=tuple(TxOutput(bytes([i]) * 20, 1000 + i) for i in range(3)),
        fee=1000,
    )
    raw = tx.serialize()
    count_at = 0 if run == "inputs" else 4 + 56 * 2
    rows_end = 4 + 56 * 2 if run == "inputs" else count_at + 4 + 29 * 3
    (count,) = struct.unpack_from(">I", raw, count_at)
    cut = raw[:count_at] + struct.pack(">I", count + missing_rows) + raw[count_at + 4 : rows_end]
    with pytest.raises(CorruptChain):
        Block.deserialize(struct.pack(">Q32sQI", 1, bytes(32), 0, 1) + cut)
    path = tmp_path / "chain.bin"
    Ledger.create().save(path)
    (tmp_path / "chain.bin.mempool").write_bytes(chainfile.framed([cut]))
    with pytest.raises(CorruptChain, match="truncated mempool record"):
        Ledger.load(path)
