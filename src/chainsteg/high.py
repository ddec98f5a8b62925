"""High-capacity channel: encrypted payload fragments emitted verbatim as
the 160-bit hash fields of burned outputs.

Frame layout (normative, bit-exact):

    field (20 bytes) = header (6 bytes) || body (14 bytes)
    header = version (4 bits) || total_len (16 bits) || msg_id (12 bits)
             || fragment_index (16 bits)

total_len is the plaintext byte length; the body stream carries
AES-256-GCM ciphertext (plaintext length + 16-byte tag), with the final
fragment padded by random bytes. Key and nonce derive from the signal
counter carrying fragment 0:

    key   = SHA-256(k || "highkey"   || counter0 as 8-byte BE)
    nonce = SHA-256(k || "highnonce" || counter0 as 8-byte BE)[:12]

The 4-byte header prefix (version, total_len, msg_id) and the padding are
authenticated as associated data, so any bit flip in any field fails
decryption. Headers are masked on the wire with a keyed stream tied to the
carrying transaction's counter and the output position:

    mask = SHA-256(k || "highmask" || tx_counter 8B BE || position 4B BE)[:6]

In a high transaction every output except the last is a field; the last
output is change. Field outputs are burned (no preimage exists).
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass

from cryptography.exceptions import InvalidTag
from cryptography.hazmat.primitives.ciphers.aead import AESGCM

from .errors import AuthError, FramingError, NonceReuse
from .hdw import DOMAIN_GRIND, Channel, DerivationIndex, KeyMaterial, derive_address
from .ledger import DUST, StegoTemplate, StegoTransaction, TxOutput

VERSION_DATA = 1
VERSION_ROTATE = 2
VERSION_CONFIG = 3
_KNOWN_VERSIONS = (VERSION_DATA, VERSION_ROTATE, VERSION_CONFIG)

FIELD_BYTES = 20
HEADER_BYTES = 6
BODY_BYTES = FIELD_BYTES - HEADER_BYTES
MAX_MESSAGE = 8192
GCM_TAG_BYTES = 16


def pack_header(version: int, total_len: int, msg_id: int, fragment_index: int) -> bytes:
    if not (0 <= version < 16 and 0 <= total_len < 65536 and 0 <= msg_id < 4096):
        raise FramingError("header field out of range")
    if not 0 <= fragment_index < 65536:
        raise FramingError("fragment index out of range")
    return bytes(
        (
            (version << 4) | (total_len >> 12),
            (total_len >> 4) & 0xFF,
            ((total_len & 0xF) << 4) | (msg_id >> 8),
            msg_id & 0xFF,
            fragment_index >> 8,
            fragment_index & 0xFF,
        )
    )


def unpack_header(header: bytes) -> tuple[int, int, int, int]:
    version = header[0] >> 4
    total_len = ((header[0] & 0xF) << 12) | (header[1] << 4) | (header[2] >> 4)
    msg_id = ((header[2] & 0xF) << 8) | header[3]
    fragment_index = (header[4] << 8) | header[5]
    return version, total_len, msg_id, fragment_index


def _key(k: bytes, counter0: int) -> bytes:
    return hashlib.sha256(k + b"highkey" + counter0.to_bytes(8, "big")).digest()


def _nonce(k: bytes, counter0: int) -> bytes:
    return hashlib.sha256(k + b"highnonce" + counter0.to_bytes(8, "big")).digest()[:12]


def _field_mask(k: bytes, tx_counter: int, position: int) -> bytes:
    msg = k + b"highmask" + tx_counter.to_bytes(8, "big") + position.to_bytes(4, "big")
    return hashlib.sha256(msg).digest()[:HEADER_BYTES]


def mask_field(k: bytes, raw_field: bytes, tx_counter: int, position: int) -> bytes:
    """XOR the header region with the keyed stream (involution)."""
    mask = _field_mask(k, tx_counter, position)
    return bytes(a ^ b for a, b in zip(raw_field[:HEADER_BYTES], mask)) + raw_field[HEADER_BYTES:]


def fragment_count(total_len: int) -> int:
    ct_len = total_len + GCM_TAG_BYTES
    return (ct_len + BODY_BYTES - 1) // BODY_BYTES


def frame_message(
    km: KeyMaterial,
    message: bytes,
    msg_id: int,
    counter0: int,
    rng,
    version: int = VERSION_DATA,
) -> list[bytes]:
    """Encrypt and split a message into unmasked 20-byte fields."""
    if len(message) > MAX_MESSAGE:
        raise FramingError(f"message exceeds {MAX_MESSAGE} bytes")
    total_len = len(message)
    n_frags = fragment_count(total_len)
    ct_len = total_len + GCM_TAG_BYTES
    padding = rng.randbytes(n_frags * BODY_BYTES - ct_len)
    prefix = pack_header(version, total_len, msg_id, 0)[:4]
    ciphertext = AESGCM(_key(km.k, counter0)).encrypt(
        _nonce(km.k, counter0), message, prefix + padding
    )
    body = ciphertext + padding
    fields = []
    for i in range(n_frags):
        header = pack_header(version, total_len, msg_id, i)
        fields.append(header + body[i * BODY_BYTES : (i + 1) * BODY_BYTES])
    return fields


def tx_template(gen, fields: list[bytes], rng) -> StegoTemplate:
    """One transaction carrying `fields` at the generation's next HIGH
    counter: masked fields, then change to a fresh wallet address."""
    counter = gen.next_signal["HIGH"]
    signal = derive_address(gen.km, DerivationIndex(Channel.HIGH.value, counter))
    outputs = tuple(
        TxOutput(mask_field(gen.km.k, f, counter, j), rng.randint(DUST, 10_000))
        for j, f in enumerate(fields)
    )
    change_digest, change_counter = gen.fresh_wallet_address()
    return StegoTemplate(
        counter=counter,
        signal_address=signal,
        stego_outputs=outputs,
        grind_records=(),
        change_output=TxOutput(change_digest, rng.randint(DUST, 1_000_000)),
        change_index=DerivationIndex(DOMAIN_GRIND, change_counter),
    )


def guard_nonce(gen, counter: int, message: bytes, msg_id: int, version: int) -> bytes:
    """Refuse to key two different encryptions from one signal counter.

    Returns the message's fingerprint; the caller records it in
    `gen.high_nonce_guard` once a transaction keyed at `counter` is
    published, so a refused send leaves the counter free."""
    fingerprint = hashlib.sha256(
        bytes([version]) + msg_id.to_bytes(2, "big") + message
    ).digest()
    previous = gen.high_nonce_guard.get(counter)
    if previous is not None and previous != fingerprint:
        raise NonceReuse(f"signal counter {counter} already keyed a different message")
    return fingerprint


# ---------------------------------------------------------------------------
# Receiving

@dataclass
class _Fragment:
    version: int
    total_len: int
    body: bytes
    counter: int


class Reassembler:
    """Collects fragments by message id; yields plaintext when complete.

    Ids wrap at 12 bits, and a send that fails part-way leaves its id to the
    next message. Fragment 0 rides its message's lowest counter, so when it
    arrives at counter c, that id's fragments below c are an older
    message's and are dropped."""

    def __init__(self, k: bytes):
        self.k = k
        self.buffers: dict[int, dict[int, _Fragment]] = {}

    def feed_transaction(self, tx: StegoTransaction, counter: int) -> list[tuple[int, int, bytes]]:
        """Parse a matched transaction; returns completed
        (msg_id, version, plaintext) triples."""
        if len(tx.outputs) < 2:
            raise AuthError("high transaction carries no stego fields")
        completed = []
        for position, out in enumerate(tx.outputs[:-1]):
            raw = mask_field(self.k, out.field, counter, position)
            version, total_len, msg_id, frag_idx = unpack_header(raw[:HEADER_BYTES])
            if version not in _KNOWN_VERSIONS:
                raise AuthError(f"unknown frame version {version}")
            n_frags = fragment_count(total_len)
            if frag_idx >= n_frags:
                raise AuthError("fragment index out of range for declared length")
            bucket = self.buffers.setdefault(msg_id, {})
            if frag_idx == 0:
                for stale in [i for i, f in bucket.items() if f.counter < counter]:
                    del bucket[stale]
            frag = _Fragment(version, total_len, raw[HEADER_BYTES:], counter)
            existing = bucket.get(frag_idx)
            if existing is not None:
                if (existing.version, existing.total_len, existing.body) != (
                    frag.version,
                    frag.total_len,
                    frag.body,
                ):
                    raise AuthError("conflicting duplicate fragment")
                continue
            bucket[frag_idx] = frag
            if len(bucket) == n_frags:
                completed.append(self._finish(msg_id))
        return completed

    def _finish(self, msg_id: int) -> tuple[int, int, bytes]:
        bucket = self.buffers.pop(msg_id)
        first = bucket[0]
        versions = {f.version for f in bucket.values()}
        lengths = {f.total_len for f in bucket.values()}
        if len(versions) != 1 or len(lengths) != 1:
            raise AuthError("inconsistent fragment headers")
        n_frags = fragment_count(first.total_len)
        body = b"".join(bucket[i].body for i in range(n_frags))
        ct_len = first.total_len + GCM_TAG_BYTES
        ciphertext, padding = body[:ct_len], body[ct_len:]
        prefix = pack_header(first.version, first.total_len, msg_id, 0)[:4]
        try:
            plaintext = AESGCM(_key(self.k, first.counter)).decrypt(
                _nonce(self.k, first.counter), ciphertext, prefix + padding
            )
        except InvalidTag as exc:
            raise AuthError("authentication failed") from exc
        return msg_id, first.version, plaintext
