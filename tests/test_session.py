import json
import os
import random

import pytest

from chainsteg import Channel, ChannelConfig, Mode, NoiseProfile, backend, high
from chainsteg.cli import main
from chainsteg.errors import ValidationError
from chainsteg.hdw import DerivationIndex, KeyMaterial, derive_address
from chainsteg.ledger import StegoTransaction, TxInput, TxOutput
from chainsteg.medium import payload_bits_per_tx
from chainsteg.session import SCAN_WINDOW, SessionState


def pair(km, cfg, tx_seed=21, rx_seed=99):
    sender = SessionState(km, cfg, seed=tx_seed)
    ledger = sender.genesis_ledger()
    receiver = SessionState(km.public_only(), cfg, seed=rx_seed)
    return sender, receiver, ledger


def test_med_roundtrip_multi_tx(km, ordered_cfg):
    sender, receiver, ledger = pair(km, ordered_cfg)
    msg = b"the quick brown fox jumps over the lazy dog"
    txids = sender.send_message(ledger, msg, Channel.MED)
    assert len(txids) == -(-((len(msg) * 8) + 16) // payload_bits_per_tx(ordered_cfg))
    ledger.mine_block(NoiseProfile(rate=3.0), seed=1)
    assert receiver.detect_and_receive(ledger) == [("MED", msg)]
    # counters synchronized after quiescence
    assert receiver.current.next_signal["MED"] == sender.current.next_signal["MED"]
    assert receiver.detect_and_receive(ledger) == []  # exactly once


def test_permuted_roundtrip(km, permuted_cfg):
    sender, receiver, ledger = pair(km, permuted_cfg)
    msg = bytes(range(64))
    sender.send_message(ledger, msg, Channel.MED)
    ledger.mine_block(NoiseProfile(rate=2.0), seed=2)
    assert receiver.detect_and_receive(ledger) == [("MED", msg)]


def test_empty_med_message(km):
    # capacity 18 >= 16-bit length prefix: one tx of header plus padding
    cfg = ChannelConfig(n=3, m=6, mode=Mode.ORDERED)
    sender, receiver, ledger = pair(km, cfg)
    txids = sender.send_message(ledger, b"", Channel.MED)
    assert len(txids) == 1
    ledger.mine_block()
    assert receiver.detect_and_receive(ledger) == [("MED", b"")]


def test_empty_med_message_small_capacity(km, ordered_cfg):
    # capacity 12 < 16: the length prefix alone spans two transactions
    sender, receiver, ledger = pair(km, ordered_cfg)
    txids = sender.send_message(ledger, b"", Channel.MED)
    assert len(txids) == 2
    ledger.mine_block()
    assert receiver.detect_and_receive(ledger) == [("MED", b"")]


def test_med_framing_arithmetic():
    # 66-byte message at n=5, m=15 ORDERED: ceil((16+528)/75) = 8 transactions
    cfg = ChannelConfig(n=5, m=15)
    cap = payload_bits_per_tx(cfg)
    assert cap == 75
    assert -(-(16 + 8 * 66) // cap) == 8


def test_high_roundtrip(km, ordered_cfg):
    sender, receiver, ledger = pair(km, ordered_cfg)
    msg = b"\x00\x01\x02" * 321
    sender.send_message(ledger, msg, Channel.HIGH)
    ledger.mine_block(NoiseProfile(rate=4.0), seed=3)
    assert receiver.detect_and_receive(ledger) == [("HIGH", msg)]


def test_interleaved_channels(km, ordered_cfg):
    sender, receiver, ledger = pair(km, ordered_cfg)
    sender.send_message(ledger, b"medium one", Channel.MED)
    sender.send_message(ledger, b"high one", Channel.HIGH)
    sender.send_message(ledger, b"medium two", Channel.MED)
    ledger.mine_block(NoiseProfile(rate=5.0), seed=4)
    got = receiver.detect_and_receive(ledger)
    assert ("MED", b"medium one") in got
    assert ("MED", b"medium two") in got
    assert ("HIGH", b"high one") in got
    assert len(got) == 3


def test_message_split_across_blocks(km, ordered_cfg):
    sender, receiver, ledger = pair(km, ordered_cfg)
    msg = bytes(range(100, 140))
    blocks_before = len(ledger.blocks)
    per_block = []  # what the receiver returns after each confirmed block

    def confirm():
        ledger.mine_block(NoiseProfile(rate=1.0), seed=5)
        per_block.append(receiver.detect_and_receive(ledger))

    txids = sender.send_message(ledger, msg, Channel.MED, confirm=confirm)
    assert len(txids) > 1
    assert len(ledger.blocks) == blocks_before + len(txids)
    # the message returns only once its last block is in, and only once
    assert per_block == [[]] * (len(txids) - 1) + [[("MED", msg)]]
    assert receiver.detect_and_receive(ledger) == []


def test_incremental_scan_returns_once(km, ordered_cfg):
    sender, _, ledger = pair(km, ordered_cfg)
    msg = bytes(range(60))
    receiver = SessionState(km, ordered_cfg, seed=8)
    collected = []
    sender.send_message(
        ledger, msg, Channel.MED,
        confirm=lambda: (
            ledger.mine_block(NoiseProfile(rate=2.0), seed=len(ledger.blocks)),
            collected.extend(receiver.detect_and_receive(ledger)),
        ),
    )
    collected.extend(receiver.detect_and_receive(ledger))
    assert collected == [("MED", msg)]


def test_rotation_and_handover(km, ordered_cfg):
    sender, receiver, ledger = pair(km, ordered_cfg)
    sender.send_message(ledger, b"before rotation", Channel.MED)
    new_km = sender.rotate_keys(ledger)
    assert sender.current.km == new_km
    assert sender.current.next_signal == {"HIGH": 1, "MED": 1}
    sender.send_message(ledger, b"after rotation", Channel.MED)
    ledger.mine_block(NoiseProfile(rate=3.0), seed=6)  # everything in one block
    got = receiver.detect_and_receive(ledger)
    assert ("MED", b"before rotation") in got
    assert ("MED", b"after rotation") in got
    assert len(receiver.generations) == 2
    assert receiver.current.km.k == new_km.k


def test_rotation_replay_is_noop(km, ordered_cfg):
    sender, receiver, ledger = pair(km, ordered_cfg)
    new_km = sender.rotate_keys(ledger)
    ledger.mine_block()
    receiver.detect_and_receive(ledger)
    assert len(receiver.generations) == 2
    # replay: same rotation frame re-sent under the old key with same msg_id
    old_gen = sender.generations[0]
    payload = new_km.k + new_km.y.to_bytes(32, "big")
    counter = old_gen.next_signal["HIGH"]
    fields = high.frame_message(old_gen.km, payload, 0, counter, sender.rng,
                                high.VERSION_ROTATE)
    template = high.tx_template(old_gen, fields, sender.rng)
    outpoint = sender._fund(ledger, template.signal_address.digest,
                            template.required_funding)
    ledger.submit(template.transaction(outpoint))
    old_gen.next_signal["HIGH"] = counter + 1
    ledger.mine_block()
    got = receiver.detect_and_receive(ledger)
    assert got == []
    assert len(receiver.generations) == 2  # replay did not add a generation


def test_quarantine_and_advance(km, ordered_cfg):
    sender, receiver, ledger = pair(km, ordered_cfg)
    # craft a poisoned tx on the next MED signal address: wrong output count
    counter = sender.current.next_signal["MED"]
    digest = derive_address(km, DerivationIndex(Channel.MED.value, counter)).digest
    outpoint = sender._fund(ledger, digest, 5000)
    poison = StegoTransaction(
        inputs=(TxInput(outpoint[0], outpoint[1], digest),),
        outputs=(TxOutput(b"\x11" * 20, 4000),),  # not n+1 outputs
        fee=1000,
    )
    ledger.submit(poison)
    sender.current.next_signal["MED"] += 1  # sender burns the counter
    sender.send_message(ledger, b"healthy message", Channel.MED)
    ledger.mine_block(NoiseProfile(rate=2.0), seed=9)
    got = receiver.detect_and_receive(ledger)
    assert got == [("MED", b"healthy message")]
    assert len(receiver.quarantine) == 1
    assert receiver.quarantine[0][0] == poison.txid.hex()


def test_no_plaintext_on_chain(km, ordered_cfg):
    sender, _, ledger = pair(km, ordered_cfg)
    msg = b"EXTREMELY-DISTINCTIVE-PLAINTEXT-MARKER-0123456789"
    sender.send_message(ledger, msg, Channel.MED)
    sender.send_message(ledger, msg, Channel.HIGH)
    ledger.mine_block(NoiseProfile(rate=3.0), seed=10)
    chain_bytes = b"".join(b.serialize() for b in ledger.blocks)
    chain_bytes += b"".join(t.serialize() for t in ledger.mempool)
    assert msg not in chain_bytes
    for window in range(len(msg) - 8):
        assert msg[window : window + 8] not in chain_bytes


def test_insufficient_funds(km, ordered_cfg):
    sender = SessionState(km, ordered_cfg, seed=30)
    ledger = sender.genesis_ledger(amount=10000)  # tiny wallet
    with pytest.raises(ValidationError):
        sender.send_message(ledger, b"x" * 400, Channel.MED)


def test_session_persistence_resume(km, ordered_cfg, tmp_path):
    sender, receiver, ledger = pair(km, ordered_cfg)
    sender.send_message(ledger, b"part one", Channel.MED)
    ledger.mine_block(seed=1)
    receiver.detect_and_receive(ledger)
    spath, rpath = tmp_path / "s.bin", tmp_path / "r.bin"
    sender.save(spath)
    receiver.save(rpath)
    sender2 = SessionState.load(spath)
    receiver2 = SessionState.load(rpath)
    assert sender2.current.next_signal == sender.current.next_signal
    assert sender2.current.next_grind == sender.current.next_grind
    assert [u.txid for u in sender2.wallet] == [u.txid for u in sender.wallet]
    assert receiver2.cursor == receiver.cursor
    assert receiver2.drain_inbox() == [("MED", b"part one")]
    sender2.send_message(ledger, b"part two", Channel.HIGH)
    ledger.mine_block(seed=2)
    assert receiver2.detect_and_receive(ledger) == [("HIGH", b"part two")]


def test_truncated_or_garbled_session_is_validation_error(km, ordered_cfg, tmp_path):
    sender, receiver, ledger = pair(km, ordered_cfg)
    sender.send_message(ledger, b"queued", Channel.HIGH)
    path = tmp_path / "s.bin"
    sender.save(path)
    raw = path.read_bytes()
    cuts = [5, 6, 7, len(raw) // 2, len(raw) - 1] + list(range(8, len(raw), 997))
    garbled = [raw[:6] + body for body in (
        b"[]", b"{}", b"null", b"\xff", b'{"generations": [{"km": 5}]}',
    )]
    for blob in [raw[:cut] for cut in cuts] + garbled:
        path.write_bytes(blob)
        with pytest.raises(ValidationError):
            SessionState.load(path)
    ledger.save(tmp_path / "c.bin")
    assert main(["--chain", str(tmp_path / "c.bin"), "--session", str(path), "scan"]) == 2


def test_failed_save_keeps_previous_file(km, ordered_cfg, tmp_path, monkeypatch):
    sender, _, ledger = pair(km, ordered_cfg)
    path = tmp_path / "s.bin"
    sender.save(path)
    before = path.read_bytes()
    sender.send_message(ledger, b"changes the session", Channel.HIGH)

    def failing_replace(src, dst):
        raise OSError("replace failed")

    monkeypatch.setattr(os, "replace", failing_replace)
    with pytest.raises(OSError):
        sender.save(path)
    monkeypatch.undo()
    assert path.read_bytes() == before
    assert os.listdir(tmp_path) == ["s.bin"]  # the temporary file is gone
    assert SessionState.load(path).current.next_signal["HIGH"] == 1


def test_session_file_with_retired_keys_loads(km, tmp_path):
    # files written before scan_window, address_version and high_kind were
    # removed hold those keys; loading ignores them
    cfg = ChannelConfig(n=3, m=4, mode=Mode.PERMUTED, max_fields_per_tx=2)
    state = SessionState(km, cfg, seed=3)
    path = tmp_path / "s.bin"
    state.save(path)
    raw = path.read_bytes()
    data = json.loads(raw[6:])
    data["scan_window"] = 16
    for cfg_dict in [data["cfg"]] + [c for _, c in data["generations"][0]["cfg_schedule"]]:
        cfg_dict.update(address_version=0, high_kind=0)
    path.write_bytes(raw[:6] + json.dumps(data).encode())
    loaded = SessionState.load(path)
    assert loaded.cfg == cfg
    assert loaded.current.cfg_at(1) == cfg


def test_session_file_with_burn_log_loads(km, tmp_path):
    # files written while sessions kept a burn log hold "burn_log" and a
    # "debug_unmasked_tags" entry in every config; loading ignores both
    cfg = ChannelConfig(n=3, m=4, mode=Mode.PERMUTED, max_fields_per_tx=2)
    state = SessionState(km, cfg, seed=3)
    ledger = state.genesis_ledger()
    [txid] = state.send_message(ledger, b"burned bytes", Channel.HIGH)
    path = tmp_path / "s.bin"
    state.save(path)
    raw = path.read_bytes()
    data = json.loads(raw[6:])
    assert "burn_log" not in data
    data["burn_log"] = [[txid.hex(), vout, 1000] for vout in range(2)]
    for cfg_dict in [data["cfg"]] + [c for _, c in data["generations"][0]["cfg_schedule"]]:
        cfg_dict["debug_unmasked_tags"] = False
    path.write_bytes(raw[:6] + json.dumps(data).encode())
    loaded = SessionState.load(path)
    assert loaded.cfg == cfg and loaded.embed_log == state.embed_log
    loaded.save(path)
    assert path.read_bytes() == raw


def test_seeded_scenario_is_pinned(km):
    # One seeded run through HIGH split by max_fields_per_tx, PERMUTED MED at
    # small m, rotate_keys, switch_config and decoy traffic. The tip hash is
    # the wire contract: change it only with a recorded format change.
    km = KeyMaterial.generate(random.Random(2101))
    cfg = ChannelConfig(n=3, m=4, mode=Mode.PERMUTED, max_fields_per_tx=2)
    sender = SessionState(km, cfg, seed=31)
    ledger = sender.genesis_ledger()
    noise = NoiseProfile(rate=3.0)
    sender.send_message(ledger, b"split over HIGH txs", Channel.HIGH)
    ledger.mine_block(noise, seed=1)
    sender.send_message(ledger, b"med", Channel.MED)
    ledger.mine_block(noise, seed=2)
    sender.rotate_keys(ledger)
    ledger.mine_block(noise, seed=3)
    sender.switch_config(
        ledger, ChannelConfig(n=4, m=5, mode=Mode.PERMUTED, max_fields_per_tx=3)
    )
    sender.send_message(ledger, b"new key, new cfg", Channel.MED)
    sender.send_message(ledger, b"high again", Channel.HIGH)
    ledger.mine_block(noise, seed=4)
    receiver = SessionState(km.public_only(), cfg, seed=32)
    assert receiver.detect_and_receive(ledger) == [
        ("HIGH", b"split over HIGH txs"),
        ("MED", b"med"),
        ("HIGH", b"high again"),
        ("MED", b"new key, new cfg"),
    ]
    assert [len(b.transactions) for b in ledger.blocks] == [1, 6, 13, 9, 40]
    assert ledger.blocks[-1].block_hash.hex() == (
        "9ea1a255eb2e4a99f8c1be561cb5137e12395f091cfeb92d9caa2ff6e713930f"
    )


def test_switch_config(km):
    cfg1 = ChannelConfig(n=3, m=4, mode=Mode.ORDERED)
    cfg2 = ChannelConfig(n=4, m=6, mode=Mode.PERMUTED)
    sender = SessionState(km, cfg1, seed=41)
    ledger = sender.genesis_ledger()
    receiver = SessionState(km, cfg1, seed=42)
    sender.send_message(ledger, b"old params", Channel.MED)
    sender.switch_config(ledger, cfg2)
    sender.send_message(ledger, b"new params", Channel.MED)
    ledger.mine_block(seed=11)
    got = receiver.detect_and_receive(ledger)
    assert ("MED", b"old params") in got
    assert ("MED", b"new params") in got
    assert receiver.cfg == cfg2


def test_receive_derives_only_new_window_counters(km, monkeypatch):
    sender, receiver, ledger = pair(km, ChannelConfig(n=4, m=8))
    receiver.detect_and_receive(ledger)  # set-up scan: both windows derived
    assert len(sender.send_message(ledger, b"hi", Channel.MED)) == 1
    ledger.mine_block(seed=5)
    be = backend.get()
    calls = []
    real = be.derive_digest
    monkeypatch.setattr(be, "derive_digest", lambda *args: calls.append(args) or real(*args))
    assert receiver.detect_and_receive(ledger) == [("MED", b"hi")]
    # the MED window moved past counter 1, so only counter 1 + 16 is new
    assert [args[2] for args in calls] == [1 + SCAN_WINDOW]


def test_switch_config_with_scan_after_every_block(km):
    # The receiver computes which MED counters are usable under the old
    # parameters before the switch frame arrives; after it, the sender skips
    # by the new ones, and every message must still be delivered.
    cfg1 = ChannelConfig(n=5, m=6, mode=Mode.PERMUTED)
    cfg2 = ChannelConfig(n=4, m=5, mode=Mode.PERMUTED)
    sender, receiver, ledger = pair(km, cfg1, tx_seed=51, rx_seed=52)
    got = receiver.detect_and_receive(ledger)
    sent = []

    def send(msg, channel):
        sender.send_message(ledger, msg, channel)
        sent.append((channel.name, msg))
        ledger.mine_block(NoiseProfile(rate=1.0), seed=len(sent))
        got.extend(receiver.detect_and_receive(ledger))

    send(b"before the switch", Channel.MED)
    sender.switch_config(ledger, cfg2)
    ledger.mine_block(seed=99)
    got.extend(receiver.detect_and_receive(ledger))
    for i in range(4):
        send(b"after the switch %d" % i, Channel.MED)
    send(b"high", Channel.HIGH)
    assert got == sent
    assert receiver.cfg == cfg2
    assert not receiver.quarantine


def test_randomized_interleavings(km, ordered_cfg):
    rng = random.Random(1234)
    for trial in range(3):
        sender, receiver, ledger = pair(km, ordered_cfg,
                                        tx_seed=100 + trial, rx_seed=200 + trial)
        messages = [rng.randbytes(rng.randint(1, 80)) for _ in range(4)]
        got = []
        for i, msg in enumerate(messages):
            chan = Channel.MED if i % 2 == 0 else Channel.HIGH
            sender.send_message(ledger, msg, chan)
            if rng.random() < 0.7:
                ledger.mine_block(NoiseProfile(rate=2.0), seed=rng.randrange(2**30))
            if rng.random() < 0.5:
                got.extend(receiver.detect_and_receive(ledger))
        ledger.mine_block(NoiseProfile(rate=2.0), seed=rng.randrange(2**30))
        got.extend(receiver.detect_and_receive(ledger))
        assert sorted(data for _, data in got) == sorted(messages)
        # repeated scans return nothing new
        assert receiver.detect_and_receive(ledger) == []


def test_wallet_conservation(km, ordered_cfg):
    sender, _, ledger = pair(km, ordered_cfg)
    sender.send_message(ledger, b"spend some funds", Channel.MED)
    ledger.mine_block(seed=3)
    assert ledger.utxo_total() == ledger.total_supply()
    # wallet entries re-derive and exist on chain
    for utxo in sender.wallet:
        out = ledger.utxo((utxo.txid, utxo.vout))
        assert out is not None and out.amount == utxo.amount
        assert sender._wallet_digest(utxo) == out.field
