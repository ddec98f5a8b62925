import random

import pytest

from chainsteg import Channel
from chainsteg.errors import AuthError, FramingError, NonceReuse
from chainsteg.hdw import KeyMaterial
from chainsteg.high import (
    VERSION_DATA,
    Reassembler,
    fragment_count,
    guard_nonce,
    mask_field,
    pack_header,
    unpack_header,
)
from chainsteg.ledger import StegoTransaction, TxOutput
from chainsteg.medium import ChannelConfig
from chainsteg.session import SessionState
from chainsteg.stats import two_sample_bytes_p, two_sample_monobit_p


def make_state(km, seed=9, **cfg_kwargs):
    state = SessionState(km, ChannelConfig(**cfg_kwargs), seed=seed)
    return state, state.genesis_ledger()


def send(state, ledger, message):
    """Send over the HIGH channel; returns a (signal counter, transaction)
    pair per transaction, in send order."""
    counter = state.current.next_signal["HIGH"]
    txids = state.send_message(ledger, message, Channel.HIGH)
    by_id = {tx.txid: tx for tx in ledger.mempool}
    return [(counter + i, by_id[txid]) for i, txid in enumerate(txids)]


def receive(k, pairs):
    """Feed (counter, transaction) pairs to one Reassembler; returns the
    completed plaintexts and the message ids still pending."""
    asm = Reassembler(k)
    done = []
    for counter, tx in pairs:
        done += [plaintext for _, _, plaintext in asm.feed_transaction(tx, counter)]
    return done, sorted(asm.buffers)


def flip(tx, vout, byte, bit):
    outputs = list(tx.outputs)
    mutated = bytearray(outputs[vout].field)
    mutated[byte] ^= 1 << bit
    outputs[vout] = TxOutput(bytes(mutated), outputs[vout].amount, outputs[vout].kind)
    return StegoTransaction(tx.inputs, tuple(outputs), tx.fee)


def test_header_pack_roundtrip():
    rng = random.Random(1)
    for _ in range(200):
        fields = (rng.randrange(16), rng.randrange(65536), rng.randrange(4096),
                  rng.randrange(65536))
        assert unpack_header(pack_header(*fields)) == fields
    with pytest.raises(FramingError):
        pack_header(16, 0, 0, 0)
    with pytest.raises(FramingError):
        pack_header(1, 65536, 0, 0)


def test_fragment_count_packing():
    # ciphertext = plaintext + 16-byte tag, 14 payload bytes per field
    assert fragment_count(0) == 2   # 16 bytes of tag alone
    assert fragment_count(1) == 2   # the spec's 1-byte example: 2 outputs
    assert fragment_count(12) == 2
    assert fragment_count(13) == 3
    assert fragment_count(14 * 4 - 16) == 4


def test_one_byte_message_needs_two_fields(km):
    state, ledger = make_state(km)
    [(_, tx)] = send(state, ledger, b"x")
    assert len(tx.outputs) == 3  # two fields + change


def test_encode_decode_roundtrip(km):
    state, ledger = make_state(km)
    rng = random.Random(2)
    for trial in range(30):
        msg = rng.randbytes(rng.randint(1, 2048))
        pairs = send(state, ledger, msg)
        assert len(pairs) == 1
        assert receive(km.k, pairs) == ([msg], [])


def test_empty_message_roundtrip(km):
    state, ledger = make_state(km)
    assert receive(km.k, send(state, ledger, b"")) == ([b""], [])


def test_message_too_long(km):
    state, ledger = make_state(km)
    with pytest.raises(FramingError):
        state.send_message(ledger, b"x" * 8193, Channel.HIGH)
    # the refused send published nothing, so it keys no counter
    assert receive(km.k, send(state, ledger, b"short")) == ([b"short"], [])


def test_multi_tx_out_of_order_reassembly(km):
    # fragments split across transactions, fed in shuffled order
    state, ledger = make_state(km, max_fields_per_tx=3)
    rng = random.Random(3)
    msg = rng.randbytes(200)  # 216 ct bytes -> 16 fields -> 6 txs
    pairs = send(state, ledger, msg)
    assert len(pairs) > 2
    for _ in range(5):
        rng.shuffle(pairs)
        assert receive(km.k, pairs) == ([msg], [])


def test_incomplete_fragments(km):
    state, ledger = make_state(km, max_fields_per_tx=2)
    rng = random.Random(4)
    msg = rng.randbytes(100)
    pairs = send(state, ledger, msg)
    assert receive(km.k, pairs[:1]) == ([], [0])
    assert receive(km.k, pairs[1:]) == ([], [0])


def test_any_single_bit_flip_detected(km):
    state, ledger = make_state(km)
    msg = b"attack at dawn"
    [(counter, tx)] = send(state, ledger, msg)
    for vout in range(len(tx.outputs) - 1):
        for byte in range(20):
            for bit in (0, 3, 7):
                try:
                    done, pending = receive(km.k, [(counter, flip(tx, vout, byte, bit))])
                except AuthError:
                    continue
                assert done == [] and pending


def test_body_flip_is_auth_error(km):
    state, ledger = make_state(km)
    [(counter, tx)] = send(state, ledger, b"payload bytes")
    with pytest.raises(AuthError):
        receive(km.k, [(counter, flip(tx, 0, 10, 4))])  # body region (offset >= 6)


def test_wrong_key_fails(km):
    state, ledger = make_state(km)
    pairs = send(state, ledger, b"secret")
    other = KeyMaterial.generate(random.Random(99))
    try:
        done, _ = receive(other.k, pairs)
    except AuthError:
        return
    assert done == []


def test_counter_rotation_changes_everything(km):
    # same message at different counters -> unrelated field bytes
    state_a, ledger_a = make_state(km, seed=10)
    state_b, ledger_b = make_state(km, seed=10)
    state_b.current.next_signal["HIGH"] = 50
    msg = b"m" * 40
    [(_, tx_a)] = send(state_a, ledger_a, msg)
    [(_, tx_b)] = send(state_b, ledger_b, msg)
    distances = []
    for out_a, out_b in zip(tx_a.outputs[:-1], tx_b.outputs[:-1]):
        diff = int.from_bytes(out_a.field, "big") ^ int.from_bytes(out_b.field, "big")
        distances.append(bin(diff).count("1"))
    mean = sum(distances) / len(distances)
    # per field: Binomial(160, 1/2); mean of F fields within 3 sigma/sqrt(F)
    sigma = (160 * 0.25) ** 0.5 / len(distances) ** 0.5
    assert abs(mean - 80) < 3 * sigma + 1


def test_nonce_reuse_refused(km):
    state, ledger = make_state(km)
    send(state, ledger, b"first")
    state.current.next_signal["HIGH"] = 1  # counter not advanced
    state.next_msg_id = 0
    with pytest.raises(NonceReuse):
        state.send_message(ledger, b"second", Channel.HIGH)
    # the same message is a safe retry
    guard_nonce(state.current, 1, b"first", 0, VERSION_DATA)


def test_high_counter_below_the_nonce_mark_is_refused(km):
    # the mark is the highest counter0 published: a send wound back below
    # it is refused even with the message that counter keyed, since its
    # signal address is already spent
    state, ledger = make_state(km)
    send(state, ledger, b"first")
    send(state, ledger, b"second")
    assert state.current.nonce_mark[0] == 2
    state.current.next_signal["HIGH"] = 1
    state.next_msg_id = 0
    pending = len(ledger.mempool)
    with pytest.raises(NonceReuse):
        state.send_message(ledger, b"first", Channel.HIGH)
    assert len(ledger.mempool) == pending and state.current.next_signal["HIGH"] == 1
    # at the mark, only the message it keyed may be sent again
    with pytest.raises(NonceReuse):
        guard_nonce(state.current, 2, b"first", 1, VERSION_DATA)
    guard_nonce(state.current, 2, b"second", 1, VERSION_DATA)


def test_field_mask_is_involution(km):
    rng = random.Random(5)
    field = rng.randbytes(20)
    masked = mask_field(km.k, field, 7, 3)
    assert masked[6:] == field[6:]  # body untouched
    assert mask_field(km.k, masked, 7, 3) == field
    assert mask_field(km.k, field, 8, 3) != masked  # counter-dependent


def test_randomness_of_fields(km):
    state, ledger = make_state(km)
    rng = random.Random(6)
    fields = []
    while len(fields) < 60:
        msg = rng.randbytes(rng.randint(20, 200))
        [(_, tx)] = send(state, ledger, msg)
        fields.extend(o.field for o in tx.outputs[:-1])
    blob = b"".join(fields)
    reference = random.Random(7).randbytes(len(blob))
    assert two_sample_monobit_p(blob, reference) >= 0.001
    assert two_sample_bytes_p(blob, reference) >= 0.001


def test_reassembler_rejects_conflicting_duplicate(km):
    state, ledger = make_state(km)
    [(counter, tx)] = send(state, ledger, b"hello world, this is long enough")
    asm = Reassembler(km.k)
    asm.feed_transaction(tx, counter)
    # feed again at a different counter: headers unmask differently -> error
    with pytest.raises(AuthError):
        asm.feed_transaction(tx, counter + 1)
