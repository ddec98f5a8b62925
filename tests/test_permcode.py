import math
import random
from itertools import permutations

import pytest
from hypothesis import given
from hypothesis import strategies as st

import oracles
from chainsteg.errors import PermutationMismatch, RangeError, ValidationError
from chainsteg.hdw import Address
from chainsteg.permcode import MAX_N, CanonicalSet, PermRank, perm_capacity_bits, rank, unrank


def addr(value: int) -> Address:
    return Address(value.to_bytes(20, "big"))


def addrs(*values) -> list[Address]:
    return [addr(v) for v in values]


def canonical(*items) -> list[Address]:
    return list(CanonicalSet.from_addresses(items).items)


def test_compare_rules():
    # the canonical order compares digests bytewise, most significant first
    assert canonical(addr(2), addr(1)) == [addr(1), addr(2)]  # last-byte tiebreak
    high = Address(b"\x80" + bytes(19))
    low = Address(b"\x7f" + b"\xff" * 19)
    assert canonical(high, low) == [low, high]  # first differing byte decides


@given(st.lists(st.binary(min_size=20, max_size=20), min_size=2, max_size=MAX_N,
                unique=True),
       st.randoms(use_true_random=False))
def test_compare_total_order(digests, rnd):
    # the canonical order is a total order on distinct digests: it does not
    # depend on the input order, and it is the bytewise order
    items = [Address(d) for d in digests]
    shuffled = list(items)
    rnd.shuffle(shuffled)
    assert canonical(*shuffled) == canonical(*items)
    assert [a.digest for a in canonical(*items)] == sorted(digests)


def test_rank_spec_examples():
    a, b, c = addrs(10, 20, 30)
    canon = CanonicalSet.from_addresses([a, b, c])
    assert rank([a, b, c], canon).value == 0
    assert rank([c, b, a], canon).value == 5
    assert rank([b, a, c], canon).value == 2


def test_rank_matches_brute_force():
    rng = random.Random(1)
    values = rng.sample(range(1000), 4)
    items = addrs(*values)
    canon = CanonicalSet.from_addresses(items)
    for perm in permutations(items):
        expected = oracles.brute_force_rank(
            [a.digest for a in perm], [a.digest for a in canon.items]
        )
        assert rank(list(perm), canon).value == expected


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
def test_bijection_exhaustive(n):
    items = addrs(*range(100, 100 + n))
    canon = CanonicalSet.from_addresses(items)
    seen = set()
    for v in range(math.factorial(n)):
        perm = unrank(PermRank.of(v, n), canon)
        key = tuple(a.digest for a in perm)
        assert key not in seen
        seen.add(key)
        assert rank(perm, canon).value == v
    assert len(seen) == math.factorial(n)


def test_unrank_edges():
    items = addrs(5, 6, 7)
    canon = CanonicalSet.from_addresses(items)
    assert unrank(PermRank.of(0, 3), canon) == list(canon.items)
    descending = unrank(PermRank.of(5, 3), canon)
    assert descending == list(reversed(canon.items))


def test_rank_invariant_to_input_order():
    rng = random.Random(2)
    items = addrs(*rng.sample(range(10**6), 6))
    observed = list(items)
    rng.shuffle(observed)
    canons = []
    for _ in range(5):
        shuffled = list(items)
        rng.shuffle(shuffled)
        canons.append(CanonicalSet.from_addresses(shuffled))
    ranks = {rank(observed, c).value for c in canons}
    assert len(ranks) == 1


@given(st.integers(min_value=2, max_value=20), st.randoms(use_true_random=False))
def test_bijection_random_n(n, rnd):
    values = rnd.sample(range(10**9), n)
    canon = CanonicalSet.from_addresses(addrs(*values))
    v = rnd.randrange(math.factorial(n))
    perm = unrank(PermRank.of(v, n), canon)
    assert rank(perm, canon).value == v


def test_capacity_values():
    assert perm_capacity_bits(1) == 0
    assert perm_capacity_bits(5) == 6   # log2(120) ~ 6.9
    assert perm_capacity_bits(10) == 21  # log2(3628800) ~ 21.79
    for n in range(1, 21):
        exact = math.factorial(n).bit_length() - 1
        assert perm_capacity_bits(n) == exact
        assert 2**exact <= math.factorial(n) < 2 ** (exact + 1)


def test_perm_rank_bit_capacity_field():
    r = PermRank.of(100, 5)
    assert r.bit_capacity == 6


def test_errors():
    items = addrs(1, 2, 3)
    canon = CanonicalSet.from_addresses(items)
    with pytest.raises(RangeError):
        PermRank.of(6, 3)
    with pytest.raises(RangeError):
        unrank(PermRank(value=6, bit_capacity=2), canon)
    with pytest.raises(PermutationMismatch):
        rank(addrs(1, 2, 4), canon)
    with pytest.raises(PermutationMismatch):
        rank(addrs(1, 2), canon)
    with pytest.raises(PermutationMismatch):
        rank(addrs(1, 2, 2), canon)
    with pytest.raises(ValidationError):
        CanonicalSet.from_addresses(addrs(1, 1, 2))
    with pytest.raises(ValidationError):
        CanonicalSet.from_addresses(addrs(1))
    with pytest.raises(ValidationError):
        CanonicalSet.from_addresses(addrs(*range(21)))
    with pytest.raises(ValidationError):
        CanonicalSet(items=tuple(addrs(3, 2, 1)))  # not ascending
