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

import random
from dataclasses import dataclass
from enum import Enum

from . import backend, ec
from .errors import DegenerateIndex, ValidationError
from .files import write_atomic

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


@dataclass(frozen=True)
class Address:
    digest: bytes

    def __post_init__(self):
        if len(self.digest) != 20:
            raise ValidationError("address digest must be 20 bytes")


@dataclass(frozen=True)
class KeyMaterial:
    """Shared secret k plus either the scalar y (private side) or g^y only."""

    k: bytes
    gy: tuple[int, int]
    y: int | None = None

    def __post_init__(self, derived: bool = False):
        # derived: gy was just computed from y, so it matches y
        if len(self.k) != 32:
            raise ValidationError("k must be 32 bytes")
        if self.gy is None or not ec.is_on_curve(self.gy):
            raise ValidationError("g^y is not a curve point")
        if self.y is not None:
            if not 1 <= self.y < ec.Q:
                raise ValidationError("y out of range [1, q-1]")
            if not derived and backend.get().mult_g(self.y) != self.gy:
                raise ValidationError("g^y does not match y")

    @classmethod
    def from_private(cls, k: bytes, y: int) -> "KeyMaterial":
        km = object.__new__(cls)
        vars(km).update(k=k, gy=backend.get().mult_g(y), y=y)
        km.__post_init__(derived=True)
        return km

    @classmethod
    def generate(cls, rng=None) -> "KeyMaterial":
        rng = random.SystemRandom() if rng is None else rng  # os.urandom, as secrets
        return cls.from_private(rng.randbytes(32), rng.randrange(1, ec.Q))

    def public_only(self) -> "KeyMaterial":
        return KeyMaterial(k=self.k, gy=self.gy)


def derive_address(km: KeyMaterial, idx: DerivationIndex) -> Address:
    digest = backend.get().derive_digest(km.k, idx.domain, idx.counter, km.gy)
    if digest is None:
        raise DegenerateIndex(f"index {idx} derives the point at infinity")
    return Address(digest=digest)


# ---------------------------------------------------------------------------
# Key file format (normative; read_key_file and write_key_file follow it),
# UTF-8 text:
#   line 1: "k: " + 64 hex chars
#   line 2: "y: " + 64 hex chars      -- only in private-side files
#   line 3: "gy: " + 66 hex chars (compressed point)

def write_key_file(path, km: KeyMaterial, include_private: bool = True) -> None:
    lines = [f"k: {km.k.hex()}"]
    if include_private and km.y is not None:
        lines.append(f"y: {km.y.to_bytes(32, 'big').hex()}")
    lines.append(f"gy: {ec.compress(km.gy).hex()}")
    write_atomic(path, ("\n".join(lines) + "\n").encode())


def read_key_file(path) -> KeyMaterial:
    """Parse a key file; a malformed one raises ValidationError."""
    with open(path, "rb") as fh:
        raw = fh.read()
    try:
        fields = {}
        for line in raw.decode().splitlines():
            name, _, value = line.partition(":")
            fields[name.strip()] = value.strip()
        k = bytes.fromhex(fields["k"])
        gy = backend.get().decompress(bytes.fromhex(fields["gy"]))
        y = int.from_bytes(bytes.fromhex(fields["y"]), "big") if "y" in fields else None
    except (KeyError, ValueError) as exc:  # UnicodeDecodeError is a ValueError
        raise ValidationError(f"malformed key file: {exc}") from exc
    return KeyMaterial(k=k, gy=gy, y=y)
