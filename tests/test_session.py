import copy
import hashlib
import json
import os
import random

import pytest

from chainsteg import Channel, ChannelConfig, Mode, NoiseProfile, backend, ec, high, medium
from chainsteg.cli import main
from chainsteg.errors import ValidationError
from chainsteg.bitio import bytes_to_bits, int_to_bits
from chainsteg.hdw import DOMAIN_GRIND, DerivationIndex, KeyMaterial, derive_address
from chainsteg.ledger import StegoTransaction, TxInput, TxOutput
from chainsteg.medium import split_payloads
from chainsteg.session import SCAN_WINDOW, Generation, KeyedStream, SessionState, _config_frame
from test_medium import grind_counters


def pair(km, cfg, tx_seed=21, rx_seed=99):
    sender = SessionState(km, cfg, seed=tx_seed)
    ledger = sender.genesis_ledger()
    receiver = SessionState(km.public_only(), cfg, seed=rx_seed)
    return sender, receiver, ledger


def test_med_roundtrip_multi_tx(km, ordered_cfg):
    sender, receiver, ledger = pair(km, ordered_cfg)
    msg = b"the quick brown fox jumps over the lazy dog"
    txids = sender.send_message(ledger, msg, Channel.MED)
    assert len(txids) == -(-((len(msg) * 8) + 16) // (ordered_cfg.n * ordered_cfg.m))
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


def test_med_framing_arithmetic(km):
    # 66-byte message at n=5, m=15 ORDERED: ceil((16+528)/75) = 8 transactions
    cfg = ChannelConfig(n=5, m=15)
    bits = int_to_bits(66, 16) + bytes_to_bits(bytes(66))
    payloads = split_payloads(km.k, cfg, 1, bits, random.Random(0))
    assert [len(p) for p in payloads] == [75] * 8
    assert sum(payloads, [])[: len(bits)] == bits


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


def test_rotation_hands_over_no_spending_key(km, ordered_cfg):
    # the frame carries k' || compressed g^y'; the rotated key follows from
    # neither the seed alone nor the key alone
    rotated = []
    for key, seed in ((km, 21), (km, 22), (KeyMaterial.generate(random.Random(7)), 21)):
        sender, receiver, ledger = pair(key, ordered_cfg, tx_seed=seed)
        new_km = sender.rotate_keys(ledger)
        ledger.mine_block()
        receiver.detect_and_receive(ledger)
        assert receiver.generations[1].km == new_km.public_only()
        assert receiver.generations[1].km.y is None and not receiver.quarantine
        rotated.append((new_km.k, new_km.gy))
    assert len(set(rotated)) == 3


def test_rotation_replay_is_noop(km, ordered_cfg):
    sender, receiver, ledger = pair(km, ordered_cfg)
    new_km = sender.rotate_keys(ledger)
    ledger.mine_block()
    receiver.detect_and_receive(ledger)
    assert len(receiver.generations) == 2
    # replay: same rotation frame re-sent under the old key with same msg_id
    old_gen = sender.generations[0]
    payload = new_km.k + ec.compress(new_km.gy)
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
    assert got == [] and not receiver.quarantine
    assert len(receiver.generations) == 2  # replay did not add a generation


def test_config_replay_is_noop(km, ordered_cfg):
    cfg2 = ChannelConfig(n=4, m=5, mode=Mode.ORDERED)
    cfg3 = ChannelConfig(n=2, m=7, mode=Mode.ORDERED)
    sender, receiver, ledger = pair(km, ordered_cfg)
    sender.switch_config(ledger, cfg2)  # from MED counter 1
    sender.send_message(ledger, b"under cfg2", Channel.MED)
    sender.switch_config(ledger, cfg3)
    ledger.mine_block()
    assert receiver.detect_and_receive(ledger) == [("MED", b"under cfg2")]
    schedule = list(receiver.current.med_cfg_schedule)
    assert [start for start, _ in schedule] == [1, 1, sender.current.next_signal["MED"]]
    # replay: the first switch frame re-sent under a fresh msg_id
    sender._send_high(ledger, _config_frame(1, cfg2), version=high.VERSION_CONFIG)
    sender.send_message(ledger, b"under cfg3", Channel.MED)
    ledger.mine_block()
    assert receiver.detect_and_receive(ledger) == [("MED", b"under cfg3")]
    assert receiver.current.med_cfg_schedule == schedule
    assert receiver.cfg == cfg3 and not receiver.quarantine


@pytest.mark.parametrize("block_per_step", [False, True], ids=["one_block", "block_per_step"])
def test_switch_is_read_before_the_med_transactions_it_governs(km, ordered_cfg,
                                                                block_per_step):
    # The config frame rides HIGH counter 5 and governs MED from counter 1;
    # HIGH and MED counters are separate streams, so a receiver must read the
    # switch first, whatever the two counters say. One receiver scans after
    # every block, the other once at the end.
    cfg2 = ChannelConfig(n=4, m=5, mode=Mode.ORDERED)
    sender, live, ledger = pair(km, ordered_cfg)
    lagging = SessionState(km.public_only(), ordered_cfg, seed=98)
    sent, got = [], []
    for step in ["HIGH"] * 4 + ["switch"] + ["MED"] * 2:
        if step == "switch":
            sender.switch_config(ledger, cfg2)
        else:
            sent.append((step, b"%s %d" % (step.encode(), len(sent))))
            sender.send_message(ledger, sent[-1][1], Channel[step])
        if block_per_step or len(sent) == 6:
            ledger.mine_block()
            got += live.detect_and_receive(ledger)
    assert got == sent
    assert lagging.detect_and_receive(ledger) == sent
    assert not live.quarantine and not lagging.quarantine
    assert lagging.current.med_cfg_schedule == live.current.med_cfg_schedule
    assert lagging.current.next_signal == live.current.next_signal
    assert lagging.cfg == live.cfg == cfg2


def test_control_frames_survive_msg_id_wrap(km, ordered_cfg):
    sender, receiver, ledger = pair(km, ordered_cfg)
    sender.switch_config(ledger, ChannelConfig(n=4, m=5, mode=Mode.ORDERED))  # msg_id 0
    ledger.mine_block()
    receiver.detect_and_receive(ledger)
    sender.next_msg_id = 4096  # what 4,096 HIGH sends leave
    sender.rotate_keys(ledger)  # msg_id wraps to 0
    ledger.mine_block()
    receiver.detect_and_receive(ledger)
    assert len(sender.generations) == len(receiver.generations) == 2
    sender.send_message(ledger, b"under the new key", Channel.MED)
    ledger.mine_block()
    assert receiver.detect_and_receive(ledger) == [("MED", b"under the new key")]
    assert not receiver.quarantine


def test_malformed_rotation_is_quarantined(km, ordered_cfg):
    sender, receiver, ledger = pair(km, ordered_cfg)
    # a rotation frame whose g^y' is off the curve (x = 5: 5^3 + 7 is no
    # square mod p); the old 64-byte k' || y' frame is refused the same way
    off_curve = b"\x02" + (5).to_bytes(32, "big")
    with pytest.raises(ValueError):
        ec.decompress(off_curve)
    [bad, old] = [sender._send_high(ledger, payload, version=high.VERSION_ROTATE)[0]
                  for payload in (km.k + off_curve, km.k + bytes(32))]
    sender.send_message(ledger, b"after the bad rotation", Channel.HIGH)
    ledger.mine_block()
    assert receiver.detect_and_receive(ledger) == [("HIGH", b"after the bad rotation")]
    assert [txid for txid, _ in receiver.quarantine] == [bad.hex(), old.hex()]
    assert all(reason.startswith("malformed rotation frame")
               for _, reason in receiver.quarantine)
    assert len(receiver.generations) == 1
    assert receiver.detect_and_receive(ledger) == []


def _fail_after_first_tx():
    raise RuntimeError("confirmation failed")


def test_failed_send_leaves_its_msg_id_to_the_next_message(km):
    sender, receiver, ledger = pair(km, ChannelConfig(n=3, m=4, max_fields_per_tx=2))
    with pytest.raises(RuntimeError):  # 60 bytes: 6 fields, 3 transactions
        sender.send_message(ledger, b"x" * 60, Channel.HIGH, confirm=_fail_after_first_tx)
    assert sender.next_msg_id == 0
    assert len(sender.send_message(ledger, b"y" * 60, Channel.HIGH)) == 3
    ledger.mine_block()
    # the first message's lone fragment 0 is dropped, never mixed in
    assert receiver.detect_and_receive(ledger) == [("HIGH", b"y" * 60)]
    assert not receiver.quarantine and not receiver.current.reassembler.buffers


def test_msg_id_wrap_by_real_sends(km):
    # An incomplete first message, then 4,097 complete ones: msg_ids 0
    # (incomplete), 0, 1, ..., 4095, and 0 again after the 12-bit wrap.
    sender, receiver, ledger = pair(km, ChannelConfig(n=3, m=4, max_fields_per_tx=2))
    with pytest.raises(RuntimeError):
        sender.send_message(ledger, b"x" * 30, Channel.HIGH, confirm=_fail_after_first_tx)
    sent = []
    for i in range(4097):
        sent.append(("HIGH", b"%d" % i))
        sender.send_message(ledger, sent[-1][1], Channel.HIGH)
        if i % 16 == 15:
            ledger.mine_block()
    ledger.mine_block()
    assert sender.next_msg_id == 4097
    assert receiver.detect_and_receive(ledger) == sent
    assert not receiver.quarantine and not receiver.current.reassembler.buffers


def test_permuted_n16_delivers_every_message():
    # Every MED counter is usable at every n: 10 messages at n = 16 ride
    # MED counters 1 to 10, one transaction each.
    km = KeyMaterial.generate(random.Random(1))
    sender, receiver, ledger = pair(km, ChannelConfig(n=16, m=6, mode=Mode.PERMUTED))
    sent, got = [], []
    for i in range(10):
        sent.append(("MED", bytes([i]) * 8))
        sender.send_message(ledger, sent[-1][1], Channel.MED)
        ledger.mine_block(NoiseProfile(rate=2.0), seed=5)
        got += receiver.detect_and_receive(ledger)
    index = ledger.input_index(0)
    assert sender.current.next_signal["MED"] == 11
    assert all(derive_address(km, DerivationIndex(Channel.MED.value, c)).digest in index
               for c in range(1, 11))
    assert got == sent and not receiver.quarantine


def _half_sent_med(tmp_path=None):
    """A PERMUTED n=5 sender whose 2-transaction MED message "first" failed
    after its first transaction was mined; with `tmp_path`, the sender is
    saved and loaded after the failure."""
    km = KeyMaterial.generate(random.Random(5))
    sender, receiver, ledger = pair(km, ChannelConfig(n=5, m=6, mode=Mode.PERMUTED),
                                    tx_seed=1, rx_seed=2)

    def mine_then_fail():
        ledger.mine_block()
        raise RuntimeError("confirmation failed")

    with pytest.raises(RuntimeError):
        sender.send_message(ledger, b"first", Channel.MED, confirm=mine_then_fail)
    # the first transaction carried 30 chunk bits and 0 to 6 tie-rank bits
    unsent = sender.current.med_unsent
    assert 16 + 40 - 36 <= len(unsent) <= 16 + 40 - 30
    assert unsent == (int_to_bits(5, 16) + bytes_to_bits(b"first"))[-len(unsent):]
    if tmp_path is not None:
        sender.save(tmp_path / "s.bin")
        sender = SessionState.load(tmp_path / "s.bin")
    return sender, receiver, ledger


@pytest.mark.parametrize("reload", [False, True])
def test_half_sent_med_message_is_finished_by_the_next_send(tmp_path, reload):
    sender, receiver, ledger = _half_sent_med(tmp_path if reload else None)
    sender.send_message(ledger, b"second", Channel.MED)
    ledger.mine_block()
    assert receiver.detect_and_receive(ledger) == [("MED", b"first"), ("MED", b"second")]
    assert not receiver.quarantine and not receiver.current.med_bits
    assert not sender.current.med_unsent


def test_rotation_drops_a_half_sent_med_message():
    sender, receiver, ledger = _half_sent_med()
    sender.rotate_keys(ledger)
    assert not sender.generations[0].med_unsent
    sender.send_message(ledger, b"second", Channel.MED)
    ledger.mine_block()
    assert receiver.detect_and_receive(ledger) == [("MED", b"second")]
    assert not receiver.quarantine
    # the retired key's unfinished message can never complete
    assert receiver.generations[0].med_bits == []


def test_med_sends_never_reuse_a_grind_counter(km, monkeypatch):
    # Every grind counter a MED send uses (hits, change, funding change) is
    # distinct, and no later send uses it again, also after a send that
    # fails part-way, whose unsent transactions' hits stay used.
    sender, receiver, ledger = pair(km, ChannelConfig(n=5, m=6, mode=Mode.PERMUTED))
    handed = []
    fresh, embed = Generation.fresh_wallet_address, medium.embed

    def fresh_recorded(gen):
        digest, counter = fresh(gen)
        handed.append(counter)
        return digest, counter

    def embed_recorded(gen, *args):
        start = gen.next_grind
        templates = embed(gen, *args)
        handed.extend(grind_counters(gen, start, [o.field for t in templates
                                                  for o in t.stego_outputs]))
        return templates

    monkeypatch.setattr(Generation, "fresh_wallet_address", fresh_recorded)
    monkeypatch.setattr(medium, "embed", embed_recorded)
    used = set()
    messages = [b"x" * 20, b"y" * 20, b"z" * 20]  # 6 transactions: groups of 4 and 2
    for i, message in enumerate(messages):
        handed.clear()
        try:
            sender.send_message(ledger, message, Channel.MED,
                                confirm=_fail_after_first_tx if i == 1 else None)
        except RuntimeError:
            pass
        assert len(handed) == len(set(handed)) > 20
        assert used.isdisjoint(handed)
        used.update(handed)
    ledger.mine_block()
    assert receiver.detect_and_receive(ledger) == [("MED", m) for m in messages]


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


def test_keyless_read_of_selected_bits_shows_no_message():
    # An observer without the key joins the selected bits of the first n
    # outputs of every transaction with n + 1 outputs. Without the
    # keystream this read the whole message, led by its length prefix.
    km = KeyMaterial.generate(random.Random(7))
    cfg = ChannelConfig(n=5, m=8, mode=Mode.ORDERED)
    sender, receiver, ledger = pair(km, cfg)
    msg = b"meet at the north gate at dawn, bring the second key"
    sender.send_message(ledger, msg, Channel.MED)
    ledger.mine_block(NoiseProfile(rate=5.0), seed=1)
    fragments = [
        bytes(backend.select_bits(o.field, cfg.selector) for o in tx.outputs[: cfg.n])
        for tx in ledger.blocks[-1].transactions if len(tx.outputs) == cfg.n + 1
    ]
    assert len(fragments) >= 11  # the message's 11 transactions, and any decoys
    assert not any(f.startswith(len(msg).to_bytes(2, "big")) for f in fragments)
    joined = b"".join(fragments)
    assert not any(msg[i : i + 4] in joined for i in range(len(msg) - 3))
    assert receiver.detect_and_receive(ledger) == [("MED", msg)]


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


@pytest.mark.parametrize("command", ["scan", "send"])
def test_session_that_would_fail_on_use_is_refused(km, ordered_cfg, tmp_path, capsys,
                                                    command):
    # each file parses, but scan would index an empty cfg_schedule and send
    # a wallet row's generation outside `generations`
    sender, _, ledger = pair(km, ordered_cfg)
    path, chain, msg = tmp_path / "s.bin", tmp_path / "c.bin", tmp_path / "m.bin"
    sender.save(path)
    ledger.save(chain)
    msg.write_bytes(b"m")
    raw = path.read_bytes()
    data = json.loads(raw[6:])
    if command == "scan":
        data["generations"][0]["cfg_schedule"] = []
    else:
        data["wallet"][0][3] = 1
    path.write_bytes(raw[:6] + json.dumps(data).encode())
    with pytest.raises(ValidationError):
        SessionState.load(path)
    args = ["--chain", str(chain), "--session", str(path), command]
    if command == "send":
        args += ["--channel", "high", "--in", str(msg)]
    assert main(args) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1 and "Traceback" not in err


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
    # files written before scan_window, the top-level cfg, address_version,
    # high_kind and processed_control were removed hold those keys; loading
    # ignores them
    cfg = ChannelConfig(n=3, m=4, mode=Mode.PERMUTED, max_fields_per_tx=2)
    state = SessionState(km, cfg, seed=3)
    path = tmp_path / "s.bin"
    state.save(path)
    raw = path.read_bytes()
    data = json.loads(raw[6:])
    assert "cfg" not in data
    data["scan_window"] = 16
    data["cfg"] = cfg.to_dict()
    data["generations"][0]["processed_control"] = [0, 4095]
    for cfg_dict in [data["cfg"]] + [c for _, c in data["generations"][0]["cfg_schedule"]]:
        cfg_dict.update(address_version=0, high_kind=0)
    path.write_bytes(raw[:6] + json.dumps(data).encode())
    loaded = SessionState.load(path)
    assert loaded.cfg == cfg
    assert loaded.current.cfg_at(1) == cfg


def test_session_file_with_burn_log_loads(km, tmp_path):
    # files written while sessions kept a burn log hold "burn_log" and a
    # "debug_unmasked_tags" entry in every config; files written while they
    # kept an embed log hold "embed_log" and a nonce guard entry per HIGH
    # message. Loading ignores the logs and takes the highest guard entry
    # as the nonce mark, and a save writes neither log and one entry.
    cfg = ChannelConfig(n=3, m=4, mode=Mode.PERMUTED, max_fields_per_tx=2)
    state = SessionState(km, cfg, seed=3)
    ledger = state.genesis_ledger()
    [txid] = state.send_message(ledger, b"burned bytes", Channel.HIGH)
    [later] = state.send_message(ledger, b"later bytes", Channel.HIGH)
    path = tmp_path / "s.bin"
    state.save(path)
    raw = path.read_bytes()
    data = json.loads(raw[6:])
    assert "burn_log" not in data and "embed_log" not in data
    guard = data["generations"][0]["nonce_guard"]
    assert list(guard) == ["2"]
    data["generations"][0]["nonce_guard"] = {"1": "ab" * 32, **guard}
    data["embed_log"] = [
        {"txid": t.hex(), "generation": 0, "channel": "HIGH", "counter": c,
         "entries": [[2, 2 * c]]}
        for c, t in ((1, txid), (2, later))
    ]
    data["burn_log"] = [[txid.hex(), vout, 1000] for vout in range(2)]
    data["cfg"] = cfg.to_dict()
    for cfg_dict in [data["cfg"]] + [c for _, c in data["generations"][0]["cfg_schedule"]]:
        cfg_dict["debug_unmasked_tags"] = False
    path.write_bytes(raw[:6] + json.dumps(data).encode())
    loaded = SessionState.load(path)
    assert loaded.cfg == cfg
    assert loaded.current.nonce_mark == state.current.nonce_mark
    assert loaded.current.nonce_mark[0] == 2
    loaded.save(path)
    assert path.read_bytes() == raw


def test_session_file_cfg_key_is_ignored(km, tmp_path):
    # an old file's top-level cfg is not read: a bogus one loads, and the
    # config in force is the saved schedule's
    cfg = ChannelConfig(n=3, m=4, mode=Mode.PERMUTED, max_fields_per_tx=2)
    state = SessionState(km, cfg, seed=3)
    state.switch_config(state.genesis_ledger(), ChannelConfig(n=4, m=5, mode=Mode.ORDERED))
    path = tmp_path / "s.bin"
    state.save(path)
    raw = path.read_bytes()
    data = json.loads(raw[6:])
    data["cfg"] = {"bogus": True}
    path.write_bytes(raw[:6] + json.dumps(data).encode())
    loaded = SessionState.load(path)
    assert loaded.current.med_cfg_schedule == state.current.med_cfg_schedule
    assert loaded.cfg == ChannelConfig(n=4, m=5, mode=Mode.ORDERED)
    loaded.save(path)
    assert path.read_bytes() == raw


def test_session_file_does_not_grow_with_traffic(km, tmp_path):
    # Apart from the wallet, which keeps each stego transaction's change, a
    # sender's file after 4N mixed MED and HIGH sends is the size it was
    # after N, give or take the digits of its counters.
    state = SessionState(km, ChannelConfig(n=3, m=4, mode=Mode.PERMUTED), seed=5)
    ledger = state.genesis_ledger()
    rng = random.Random(6)
    path = tmp_path / "s.bin"
    sizes = []
    for i in range(20):
        state.send_message(ledger, rng.randbytes(4), Channel.MED)
        state.send_message(ledger, rng.randbytes(20), Channel.HIGH)
        ledger.mine_block()
        if i + 1 in (5, 20):
            state.save(path)
            data = json.loads(path.read_bytes()[6:])
            sizes.append(len(json.dumps(
                {key: value for key, value in data.items() if key != "wallet"})))
    assert len(state.wallet) > 100
    assert sizes[1] - sizes[0] <= 16


def test_keyed_stream_draws_are_sha256_of_key_and_counter():
    # getrandbits(k) is the first k bits of SHA-256(key || counter), one
    # counter per 256 bits, so [key, counter] alone resumes the stream
    block = [hashlib.sha256(b"key" + i.to_bytes(8, "big")).digest() for i in range(3)]
    stream = KeyedStream(b"key")
    assert stream.getrandbits(12) == int.from_bytes(block[0], "big") >> 244
    assert stream.getrandbits(300) == int.from_bytes(block[1] + block[2], "big") >> 212
    assert stream.counter == 3 and stream.getrandbits(0) == 0 and stream.counter == 3
    resumed, copied = KeyedStream(b"key", 3), copy.deepcopy(stream)
    draws = [(s.randrange(10**9), s.randbytes(5), s.random()) for s in (stream, resumed, copied)]
    assert draws[0] == draws[1] == draws[2] and 0 < draws[0][2] < 1


def test_sessions_with_other_keys_draw_other_amounts(ordered_cfg):
    # the draws are keyed: a shared seed, here the library default 0, gives
    # an observer no list of amounts to look for
    amounts = []
    for _ in range(2):
        state = SessionState(KeyMaterial.generate(), ordered_cfg)
        ledger = state.genesis_ledger()
        [txid] = state.send_message(ledger, bytes(64), Channel.HIGH)
        amounts.append([o.amount for tx in ledger.mempool if tx.txid == txid
                        for o in tx.outputs])
    assert amounts[0] and amounts[0] != amounts[1]


def test_session_file_with_mersenne_twister_state_loads(km, ordered_cfg, tmp_path):
    # files written while the session kept random.Random's state hold it
    # under "rng_state"; it is ignored, and the stream starts at (0, 0)
    sender, receiver, ledger = pair(km, ordered_cfg)
    path = tmp_path / "s.bin"
    sender.save(path)
    raw = path.read_bytes()
    data = json.loads(raw[6:])
    version, internal, gauss = random.Random(21).getstate()
    del data["rng"]
    data["rng_state"] = [version, list(internal), gauss]
    path.write_bytes(raw[:6] + json.dumps(data).encode())
    loaded = SessionState.load(path)
    assert (loaded.seed, loaded.rng.counter) == (0, 0)
    loaded.send_message(ledger, b"old file, new stream", Channel.MED)
    loaded.send_message(ledger, b"and high", Channel.HIGH)
    ledger.mine_block()
    assert receiver.detect_and_receive(ledger) == [
        ("HIGH", b"and high"), ("MED", b"old file, new stream")]
    loaded.save(path)
    assert json.loads(path.read_bytes()[6:])["rng"] == [0, loaded.rng.counter]


@pytest.mark.parametrize("entry", [None, 0, [], {}, [0], [0, 1, 2], [1.5, 0], ["x", 0],
                                   [True, 0], [0, True], [0, -1], [0, 2**63], [0, None]])
def test_malformed_rng_entry_is_refused(km, ordered_cfg, tmp_path, entry):
    # a bad entry fails the load, not the first draw of a later send
    sender, _, _ = pair(km, ordered_cfg)
    path = tmp_path / "s.bin"
    sender.save(path)
    raw = path.read_bytes()
    data = json.loads(raw[6:])
    data["rng"] = entry
    path.write_bytes(raw[:6] + json.dumps(data).encode())
    with pytest.raises(ValidationError):
        SessionState.load(path)


@pytest.mark.parametrize("sends", [1, 4])
def test_sends_across_reloads_match_one_process(km, tmp_path, sends):
    # north star 3: a draw depends only on the key and the counter, so a
    # save and load between sends changes nothing on the chain
    cfg = ChannelConfig(n=3, m=4, mode=Mode.PERMUTED, max_fields_per_tx=2)
    msgs = random.Random(sends)
    messages = [(msgs.randbytes(5), msgs.randbytes(30)) for _ in range(sends)]
    tips, files = [], []
    for reload in (False, True):
        state = SessionState(km, cfg, seed=77)
        ledger = state.genesis_ledger()
        path = tmp_path / f"s{reload}.bin"
        for i, (med, hi) in enumerate(messages):
            for message, channel in ((med, Channel.MED), (hi, Channel.HIGH)):
                if reload:
                    state.save(path)
                    state = SessionState.load(path)
                state.send_message(ledger, message, channel)
            ledger.mine_block(NoiseProfile(rate=2.0), seed=i)
        state.save(path)
        tips.append(ledger.blocks[-1].block_hash)
        files.append(path.read_bytes())
        assert json.loads(files[-1][6:])["rng"] == [77, state.rng.counter]
    assert tips[0] == tips[1] and files[0] == files[1]


def _seeded_scenario():
    """One seeded run through HIGH split by max_fields_per_tx, PERMUTED MED at
    small m, rotate_keys, switch_config and decoy traffic; returns the
    ledger and what a fresh receiver reads from it."""
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
    return ledger, receiver.detect_and_receive(ledger)


def test_seeded_scenario_is_pinned():
    # The tip hash is the wire contract: change it only with a recorded
    # format change.
    ledger, got = _seeded_scenario()
    assert got == [
        ("HIGH", b"split over HIGH txs"),
        ("MED", b"med"),
        ("HIGH", b"high again"),
        ("MED", b"new key, new cfg"),
    ]
    assert [len(b.transactions) for b in ledger.blocks] == [1, 6, 11, 9, 38]
    assert ledger.blocks[-1].block_hash.hex() == (
        "0c690cd681c8df908504bc1cdcdd3c9b4b2427df0850b59045197d246907b002"
    )


@pytest.mark.skipif("ext" not in backend.available(), reason="compiled kernel not built")
def test_seeded_scenario_tip_is_backend_independent():
    prev = backend.get()
    tips = []
    try:
        for name in ("pure", "ext"):
            backend.set_backend(name)
            ledger, got = _seeded_scenario()
            tips.append((got, ledger.blocks[-1].block_hash))
    finally:
        backend.set_backend(prev.name)
    assert tips[0] == tips[1]


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


def test_med_send_derives_only_signal_addresses(km, tmp_path, monkeypatch):
    """A MED send derives each transaction's signal address and nothing else:
    its change and funding-change digests come from its grind scan, and the
    output it spends keeps the digest it was made with. After a load the
    spent output's digest is derived once more, as the session file does not
    hold it."""
    sender, receiver, ledger = pair(km, ChannelConfig(n=5, m=6, mode=Mode.PERMUTED))
    be = backend.get()
    calls = []
    real = be.derive_digest
    monkeypatch.setattr(be, "derive_digest", lambda *args: calls.append(args) or real(*args))
    signal = sender.current.next_signal["MED"]
    txids = sender.send_message(ledger, b"4 by", Channel.MED)
    assert len(txids) == 2
    assert [args[1:3] for args in calls] == [(Channel.MED.value, signal), (Channel.MED.value, signal + 1)]
    sender.save(tmp_path / "s.bin")
    sender = SessionState.load(tmp_path / "s.bin")
    calls.clear()
    signal = sender.current.next_signal["MED"]
    txids = sender.send_message(ledger, b"more", Channel.MED)
    tags = [args[1] for args in calls]
    assert tags.count(Channel.MED.value) == len(txids)
    assert len(calls) == len(txids) + 1 and tags.count(DOMAIN_GRIND) == 1
    ledger.mine_block(seed=3)
    assert receiver.detect_and_receive(ledger) == [("MED", b"4 by"), ("MED", b"more")]


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
    sender.switch_config(ledger, ChannelConfig(n=3, m=8))  # HIGH counter 1, from MED 2
    ledger.mine_block(seed=6)
    calls.clear()
    assert receiver.detect_and_receive(ledger) == []
    # the HIGH window keeps its digests and derives one new counter; the MED
    # window, whose counters are all usable under either config, derives none
    assert [args[1:3] for args in calls] == [(Channel.HIGH.value, 1 + SCAN_WINDOW)]


def test_switch_config_with_scan_after_every_block(km):
    # The receiver holds its MED window from before the switch frame arrives;
    # after it, the sender embeds under the new parameters, and every message
    # must still be delivered.
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
    # MED and HIGH sends, config switches and key rotations, mined and
    # scanned at random; a lagging receiver scans once at the end
    rng = random.Random(1234)
    configs = [ChannelConfig(n=4, m=5, mode=Mode.ORDERED),
               ChannelConfig(n=3, m=4, mode=Mode.PERMUTED)]
    for trial in range(3):
        sender, receiver, ledger = pair(km, ordered_cfg,
                                        tx_seed=100 + trial, rx_seed=200 + trial)
        lagging = SessionState(km.public_only(), ordered_cfg, seed=300 + trial)
        sent, got = [], []
        for i in range(10):
            step = rng.choice(["MED", "HIGH", "MED", "HIGH", "switch", "rotate"])
            if step == "switch":
                sender.switch_config(ledger, rng.choice(configs))
            elif step == "rotate":
                sender.rotate_keys(ledger)
            else:
                sent.append((step, b"%d " % i + rng.randbytes(rng.randint(1, 80))))
                sender.send_message(ledger, sent[-1][1], Channel[step])
            if rng.random() < 0.7:
                ledger.mine_block(NoiseProfile(rate=2.0), seed=rng.randrange(2**30))
            if rng.random() < 0.5:
                got.extend(receiver.detect_and_receive(ledger))
        ledger.mine_block(NoiseProfile(rate=2.0), seed=rng.randrange(2**30))
        got.extend(receiver.detect_and_receive(ledger))
        assert sorted(got) == sorted(sent)  # each exactly once
        assert sorted(lagging.detect_and_receive(ledger)) == sorted(sent)
        assert not receiver.quarantine and not lagging.quarantine
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
