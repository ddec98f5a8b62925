"""Deterministic key/address derivation from shared material (k, y) / (k, g^y).

The i-th private key is y + H(k || i) mod q; the i-th public key is
G*H(k || i) + g^y, so the (k, g^y) holder derives the same addresses without
ever learning y. Index serialization is pinned as

    SHA-256( k || domain tag (1 byte) || counter (8 bytes big-endian) )

with separate domain tags for the two signal streams and for grinding, so
that grinding's heavy index consumption cannot desynchronize the receiver's
sequential signal scan.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from enum import Enum

from . import ec
from .errors import DegenerateIndex, ValidationError
from .hashes import base58check_decode, base58check_encode

DOMAIN_SIG_HIGH = 0x01
DOMAIN_SIG_MED = 0x02
DOMAIN_GRIND = 0x03
_DOMAINS = (DOMAIN_SIG_HIGH, DOMAIN_SIG_MED, DOMAIN_GRIND)


class Channel(Enum):
    HIGH = DOMAIN_SIG_HIGH
    MED = DOMAIN_SIG_MED


@dataclass(frozen=True)
class DerivationIndex:
    domain: int
    counter: int

    def __post_init__(self):
        if self.domain not in _DOMAINS:
            raise ValidationError(f"unknown domain tag {self.domain:#x}")
        if not 1 <= self.counter < 2**64:
            raise ValidationError("counter must be in [1, 2^64)")

    def message(self, k: bytes) -> bytes:
        return k + bytes([self.domain]) + self.counter.to_bytes(8, "big")


@dataclass(frozen=True)
class Address:
    digest: bytes
    version: int = 0x00

    def __post_init__(self):
        if len(self.digest) != 20:
            raise ValidationError("address digest must be 20 bytes")

    @property
    def text(self) -> str:
        return base58check_encode(self.version, self.digest)

    @classmethod
    def from_text(cls, text: str) -> "Address":
        version, digest = base58check_decode(text)
        if len(digest) != 20:
            raise ValidationError("decoded payload is not 20 bytes")
        return cls(digest=digest, version=version)

    def __lt__(self, other: "Address") -> bool:
        return self.digest < other.digest


@dataclass(frozen=True)
class KeyMaterial:
    """Shared secret k plus either the scalar y (private side) or g^y only."""

    k: bytes
    gy: tuple[int, int]
    y: int | None = None

    def __post_init__(self):
        if len(self.k) != 32:
            raise ValidationError("k must be 32 bytes")
        if self.gy is None or not ec.is_on_curve(self.gy):
            raise ValidationError("g^y is not a curve point")
        if self.y is not None:
            if not 1 <= self.y < ec.Q:
                raise ValidationError("y out of range [1, q-1]")
            if ec.mult_g(self.y) != self.gy:
                raise ValidationError("g^y does not match y")

    @classmethod
    def from_private(cls, k: bytes, y: int) -> "KeyMaterial":
        return cls(k=k, gy=ec.mult_g(y), y=y)

    @classmethod
    def generate(cls, rng=None) -> "KeyMaterial":
        if rng is None:
            import secrets

            k = secrets.token_bytes(32)
            y = 1 + secrets.randbelow(ec.Q - 1)
        else:
            k = rng.randbytes(32)
            y = rng.randrange(1, ec.Q)
        return cls.from_private(k, y)

    def public_only(self) -> "KeyMaterial":
        return KeyMaterial(k=self.k, gy=self.gy)

    @property
    def has_private(self) -> bool:
        return self.y is not None


def hdw_scalar(k: bytes, idx: DerivationIndex) -> int:
    return int.from_bytes(hashlib.sha256(idx.message(k)).digest(), "big") % ec.Q


def derive_private(km: KeyMaterial, idx: DerivationIndex) -> int:
    if km.y is None:
        raise ValidationError("private derivation needs y")
    x = (km.y + hdw_scalar(km.k, idx)) % ec.Q
    if x == 0:
        raise DegenerateIndex(f"index {idx} derives the zero key")
    return x


def derive_address(km: KeyMaterial, idx: DerivationIndex, version: int = 0x00) -> Address:
    from . import backend

    digest = backend.get().derive_digest(km.k, idx.domain, idx.counter, km.gy)
    if digest is None:
        raise DegenerateIndex(f"index {idx} derives the point at infinity")
    return Address(digest=digest, version=version)


def signal_address(km: KeyMaterial, session, channel: Channel, version: int = 0x00) -> Address:
    """Address announcing the next transaction on `channel`.

    Reads the session's next counter without advancing it; advancing happens
    when a transaction is actually submitted.
    """
    counter = session.next_signal[channel.name]
    return derive_address(km, DerivationIndex(channel.value, counter), version)


# ---------------------------------------------------------------------------
# Key file format (documented in the README):
#   line 1: "k: " + 64 hex chars
#   line 2: "y: " + 64 hex chars      -- only in private-side files
#   line 3: "gy: " + 66 hex chars (compressed point)

def write_key_file(path, km: KeyMaterial, include_private: bool = True) -> None:
    lines = [f"k: {km.k.hex()}"]
    if include_private and km.y is not None:
        lines.append(f"y: {km.y.to_bytes(32, 'big').hex()}")
    lines.append(f"gy: {ec.compress(km.gy).hex()}")
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


def read_key_file(path) -> KeyMaterial:
    fields = {}
    with open(path) as fh:
        for line in fh:
            line = line.strip()
            if not line:
                continue
            name, _, value = line.partition(":")
            fields[name.strip()] = value.strip()
    try:
        k = bytes.fromhex(fields["k"])
        gy = ec.decompress(bytes.fromhex(fields["gy"]))
    except (KeyError, ValueError) as exc:
        raise ValidationError(f"malformed key file: {exc}") from exc
    y = int.from_bytes(bytes.fromhex(fields["y"]), "big") if "y" in fields else None
    return KeyMaterial(k=k, gy=gy, y=y)
