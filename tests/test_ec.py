import random

import pytest

import oracles
from chainsteg import ec


def test_mult_g_matches_affine_oracle():
    rng = random.Random(42)
    scalars = [1, 2, 3, ec.Q - 1, 2**255] + [rng.randrange(1, ec.Q) for _ in range(25)]
    for d in scalars:
        assert ec.mult_g(d) == oracles.scalar_mult(d)


def test_mult_g_zero_is_infinity():
    assert ec.mult_g(0) is None
    assert ec.mult_g(ec.Q) is None


def test_mult_g_matches_openssl():
    cryptography = pytest.importorskip("cryptography")
    from cryptography.hazmat.primitives import serialization
    from cryptography.hazmat.primitives.asymmetric import ec as cec

    rng = random.Random(7)
    for _ in range(5):
        d = rng.randrange(1, ec.Q)
        pub = cec.derive_private_key(d, cec.SECP256K1()).public_key()
        want = pub.public_bytes(
            serialization.Encoding.X962, serialization.PublicFormat.CompressedPoint
        )
        assert ec.compress(ec.mult_g(d)) == want


def test_point_add_homomorphism():
    rng = random.Random(3)
    for _ in range(10):
        a = rng.randrange(1, ec.Q)
        b = rng.randrange(1, ec.Q)
        assert ec.point_add(ec.mult_g(a), ec.mult_g(b)) == ec.mult_g((a + b) % ec.Q)


def test_point_add_inverse_is_infinity():
    pt = ec.mult_g(12345)
    assert ec.point_add(pt, (pt[0], ec.P - pt[1])) is None


def test_compress_roundtrip():
    rng = random.Random(11)
    for _ in range(20):
        pt = ec.mult_g(rng.randrange(1, ec.Q))
        assert ec.decompress(ec.compress(pt)) == pt
        assert ec.is_on_curve(pt)


def test_decompress_rejects_garbage():
    with pytest.raises(ValueError):
        ec.decompress(b"\x04" + bytes(32))
    with pytest.raises(ValueError):
        ec.decompress(b"\x02" + (ec.P).to_bytes(32, "big"))
    # x with no square root for x^3+7
    for x in range(2, 50):
        data = bytes([2]) + x.to_bytes(32, "big")
        try:
            pt = ec.decompress(data)
        except ValueError:
            continue
        assert ec.is_on_curve(pt)


def test_batch_normalization_matches_single():
    rng = random.Random(13)
    jacs = []
    for _ in range(10):
        jacs.append(ec.mult_g_jacobian(rng.randrange(1, ec.Q)))
    jacs.append((1, 1, 0))  # infinity mixed in
    batch = ec.jac_batch_to_affine(jacs)
    single = [ec._jac_to_affine(j) for j in jacs]
    assert batch == single
