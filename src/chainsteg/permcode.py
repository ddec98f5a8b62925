"""Bijection between orderings of n distinct addresses and [0, n!-1].

Addresses compare bytewise on the 20-byte digest, most significant byte
first; the canonical (rank 0) ordering is ascending. n is capped at 20 so
every rank fits in an unsigned 64-bit value.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import PermutationMismatch, RangeError, ValidationError
from .hdw import Address

MAX_N = 20


@dataclass(frozen=True)
class CanonicalSet:
    items: tuple[Address, ...]

    def __post_init__(self):
        if not 2 <= len(self.items) <= MAX_N:
            raise ValidationError(f"need 2..{MAX_N} addresses, got {len(self.items)}")
        digests = [a.digest for a in self.items]
        if len(set(digests)) != len(digests):
            raise ValidationError("duplicate addresses in canonical set")
        if digests != sorted(digests):
            raise ValidationError("canonical set must be sorted ascending")

    @classmethod
    def from_addresses(cls, addresses) -> "CanonicalSet":
        return cls(items=tuple(sorted(addresses, key=lambda a: a.digest)))

    @property
    def n(self) -> int:
        return len(self.items)


@dataclass(frozen=True)
class PermRank:
    value: int
    bit_capacity: int

    @classmethod
    def of(cls, value: int, n: int) -> "PermRank":
        if not 0 <= value < math.factorial(n):
            raise RangeError(f"rank {value} out of [0, {n}!-1]")
        return cls(value=value, bit_capacity=perm_capacity_bits(n))


def perm_capacity_bits(n: int) -> int:
    """Whole bits a permutation of n items can carry: floor(log2 n!)."""
    if n < 1:
        raise ValidationError("n must be >= 1")
    return math.factorial(n).bit_length() - 1


def rank(observed, canon: CanonicalSet) -> PermRank:
    """Lehmer rank of `observed` relative to the canonical ascending order."""
    if len(observed) != canon.n:
        raise PermutationMismatch("length differs from canonical set")
    remaining = [a.digest for a in canon.items]
    value = 0
    for addr in observed:
        try:
            pos = remaining.index(addr.digest)
        except ValueError:
            raise PermutationMismatch(
                f"address {addr.digest.hex()} not in canonical set"
            ) from None
        value = value * len(remaining) + pos
        # value accumulates in the factorial number system: multiply by the
        # number of remaining choices, add the index among them.
        remaining.pop(pos)
    return PermRank.of(value, canon.n)


def unrank(v: PermRank, canon: CanonicalSet) -> list[Address]:
    n = canon.n
    if v.value >= math.factorial(n):
        raise RangeError(f"rank {v.value} out of [0, {n}!-1]")
    remaining = list(canon.items)
    digits = []
    value = v.value
    for radix in range(1, n + 1):
        value, digit = divmod(value, radix)
        digits.append(digit)
    out = []
    for digit in reversed(digits):
        out.append(remaining.pop(digit))
    return out
