import random

import pytest

import chainfile
import oracles
from chainsteg import backend, ec
from chainsteg.errors import DegenerateIndex, ValidationError
from chainsteg.hdw import (
    DOMAIN_GRIND,
    Channel,
    DerivationIndex,
    KeyMaterial,
    derive_address,
    read_key_file,
    write_key_file,
)
from chainsteg.hashes import hash160
from chainsteg.stats import two_sample_bytes_p

# Frozen from the independent affine oracle (tests/oracles.py), computed
# before the production path existed.
VECTOR_A_X1 = 0xB4225D76AB019D9BE83928519D30A02FAE6712F6E8583021C555F845073F4D56
VECTOR_B_PUB = "03fa81fa004a76106539621f89dac08d51dff26ab1017315f2856a488743f7cc20"
VECTOR_B_DIGEST = "f823c9e0cf128a3d4ba5b5f5ccbf35c364c64c1a"


def test_private_derivation_frozen_vector():
    # the private key y + H(k || i) whose public key derive_address hashes
    km = KeyMaterial.from_private(bytes(32), 1)
    assert oracles.hdw_private(km.k, km.y, DOMAIN_GRIND, 1) == VECTOR_A_X1
    digest = derive_address(km, DerivationIndex(DOMAIN_GRIND, 1)).digest
    assert digest == hash160(ec.compress(ec.mult_g(VECTOR_A_X1)))


def test_public_derivation_frozen_vector():
    km = KeyMaterial.from_private(bytes([1]) * 32, 2)
    pub = oracles.hdw_public_from_gy(km.k, km.gy, 0x03, 7)
    assert oracles.compress(pub).hex() == VECTOR_B_PUB
    assert hash160(bytes.fromhex(VECTOR_B_PUB)).hex() == VECTOR_B_DIGEST
    idx = DerivationIndex(DOMAIN_GRIND, 7)
    for side in (km, km.public_only()):
        assert derive_address(side, idx).digest.hex() == VECTOR_B_DIGEST


def test_derivation_is_deterministic():
    km = KeyMaterial.generate(random.Random(1))
    idx = DerivationIndex(DOMAIN_GRIND, 1234)
    assert derive_address(km, idx) == derive_address(km, idx)


def test_private_difference_identity():
    # x_i - x_j == H(k||i) - H(k||j) mod q, so the address at i is the hash
    # of G*x_j + G*(H(k||i) - H(k||j)); distinct indices give distinct keys
    km = KeyMaterial.generate(random.Random(2))
    rng = random.Random(3)
    for _ in range(5):
        i, j = rng.randrange(1, 2**40), rng.randrange(1, 2**40)
        xi = oracles.hdw_private(km.k, km.y, DOMAIN_GRIND, i)
        xj = oracles.hdw_private(km.k, km.y, DOMAIN_GRIND, j)
        hi = oracles.hdw_scalar(km.k, DOMAIN_GRIND, i)
        hj = oracles.hdw_scalar(km.k, DOMAIN_GRIND, j)
        assert xi != xj and (xi - xj) % ec.Q == (hi - hj) % ec.Q
        pub = ec.point_add(ec.mult_g(xj), ec.mult_g((hi - hj) % ec.Q))
        assert derive_address(km, DerivationIndex(DOMAIN_GRIND, i)).digest == \
            hash160(ec.compress(pub))


def test_public_equals_generator_times_private():
    # the sender's derived private key controls the address that the
    # public-only side derives for the same index
    km = KeyMaterial.generate(random.Random(4))
    rng = random.Random(5)
    for _ in range(25):
        idx = DerivationIndex(DOMAIN_GRIND, rng.randrange(1, 2**50))
        pub = ec.mult_g(oracles.hdw_private(km.k, km.y, DOMAIN_GRIND, idx.counter))
        assert derive_address(km.public_only(), idx).digest == hash160(ec.compress(pub))


def test_public_side_derives_same_address():
    km = KeyMaterial.generate(random.Random(6))
    pub_side = km.public_only()
    assert pub_side.y is None
    for counter in (1, 2, 77):
        idx = DerivationIndex(DOMAIN_GRIND, counter)
        assert derive_address(km, idx) == derive_address(pub_side, idx)


def test_oracle_agreement_random_triples():
    rng = random.Random(7)
    for _ in range(5):
        k = rng.randbytes(32)
        y = rng.randrange(1, ec.Q)
        counter = rng.randrange(1, 2**30)
        km = KeyMaterial.from_private(k, y)
        idx = DerivationIndex(DOMAIN_GRIND, counter)
        assert derive_address(km, idx).digest == oracles.address_digest(
            k, y, 0x03, counter
        )


def test_degenerate_index_rejected_on_both_paths():
    # pick y so that y + H(k||i) == 0 mod q
    k = bytes(32)
    idx = DerivationIndex(DOMAIN_GRIND, 5)
    h = oracles.hdw_scalar(k, DOMAIN_GRIND, 5)
    km = KeyMaterial.from_private(k, (ec.Q - h) % ec.Q)
    assert oracles.hdw_private(k, km.y, DOMAIN_GRIND, 5) == 0
    for side in (km, km.public_only()):
        with pytest.raises(DegenerateIndex):
            derive_address(side, idx)
    # neighbouring index is fine
    assert derive_address(km, DerivationIndex(DOMAIN_GRIND, 6))


def test_signal_addresses():
    # a channel's signal address at a counter is the derived address at
    # (channel domain, counter): stable, and distinct across channels and
    # counters
    km = KeyMaterial.generate(random.Random(8))

    def signal(channel, counter):
        return derive_address(km, DerivationIndex(channel.value, counter))

    a1 = signal(Channel.MED, 1)
    assert signal(Channel.MED, 1) == a1
    assert signal(Channel.HIGH, 1) != a1
    assert len({signal(Channel.MED, counter).digest for counter in (1, 2, 3)}) == 3


def test_digest_uniformity_chi_square():
    # 10000 consecutive indices -> byte frequencies pass chi-square at 0.01
    # against a seeded uniform reference of the same length
    km = KeyMaterial.generate(random.Random(11))
    from chainsteg import backend

    be = backend.get()
    blob = bytearray()
    for counter in range(1, 10001):
        blob += be.derive_digest(km.k, DOMAIN_GRIND, counter, km.gy)
    reference = random.Random(12).randbytes(len(blob))
    assert two_sample_bytes_p(bytes(blob), reference) >= 0.01


def test_key_material_validation():
    with pytest.raises(ValidationError):
        KeyMaterial(k=bytes(31), gy=ec.G)
    with pytest.raises(ValidationError):
        KeyMaterial(k=bytes(32), gy=(1, 2))
    with pytest.raises(ValidationError):
        KeyMaterial(k=bytes(32), gy=ec.mult_g(3), y=4)
    with pytest.raises(ValidationError):
        KeyMaterial(k=bytes(32), gy=ec.mult_g(ec.Q - 1), y=0)


@pytest.mark.parametrize("name", backend.available())
@pytest.mark.parametrize("make,message", [
    (lambda: KeyMaterial(k=bytes(31), gy=ec.G), "k must be 32 bytes"),
    (lambda: KeyMaterial(k=bytes(32), gy=(1, 2)), "g^y is not a curve point"),
    (lambda: KeyMaterial(k=bytes(32), gy=ec.mult_g(3), y=4), "g^y does not match y"),
    (lambda: KeyMaterial(k=bytes(32), gy=ec.G, y=ec.Q), "y out of range [1, q-1]"),
    (lambda: KeyMaterial.from_private(bytes(31), 5), "k must be 32 bytes"),
    (lambda: KeyMaterial.from_private(bytes(32), 0), "g^y is not a curve point"),
    (lambda: KeyMaterial.from_private(bytes(32), ec.Q), "g^y is not a curve point"),
    (lambda: KeyMaterial.from_private(bytes(32), ec.Q + 1), "y out of range [1, q-1]"),
])
def test_key_material_texts_on_each_backend(name, make, message):
    with chainfile.active_backend(name):
        with pytest.raises(ValidationError) as exc:
            make()
        assert str(exc.value) == message
        km = KeyMaterial.from_private(bytes(32), ec.Q - 1)
        assert km.gy == ec.mult_g(ec.Q - 1) and km == KeyMaterial(km.k, km.gy, km.y)


def test_key_file_roundtrip(tmp_path):
    km = KeyMaterial.generate(random.Random(13))
    private_path = tmp_path / "key.txt"
    public_path = tmp_path / "key.pub"
    write_key_file(private_path, km, include_private=True)
    write_key_file(public_path, km, include_private=False)
    loaded = read_key_file(private_path)
    assert loaded == km
    pub = read_key_file(public_path)
    assert pub.y is None and pub.k == km.k and pub.gy == km.gy
    # both sides derive identical addresses
    idx = DerivationIndex(DOMAIN_GRIND, 42)
    assert derive_address(loaded, idx) == derive_address(pub, idx)


def test_key_file_malformed(tmp_path):
    path = tmp_path / "bad.txt"
    path.write_text("k: zz\n")
    with pytest.raises(ValidationError):
        read_key_file(path)


def test_derivation_index_validation():
    with pytest.raises(ValidationError):
        DerivationIndex(0x09, 1)
    with pytest.raises(ValidationError):
        DerivationIndex(DOMAIN_GRIND, 0)
