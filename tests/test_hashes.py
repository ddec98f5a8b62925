import pytest

from chainsteg.hashes import _ripemd160_pure, hash160, ripemd160

# Published RIPEMD-160 vectors (Dobbertin/Bosselaers/Preneel test suite).
RIPEMD_VECTORS = {
    b"": "9c1185a5c5e9fc54612808977ee8f548b2258d31",
    b"a": "0bdc9d2d256b3ee9daae347be6f4dc835a467ffe",
    b"abc": "8eb208f7e05d987a9b044a8e98c6b087f15a0bfc",
    b"message digest": "5d0689ef49d2fae572b881b123a85ffa21595f36",
    b"abcdefghijklmnopqrstuvwxyz": "f71c27109c692c1b56bbdceb5b9d2865b3708dbc",
    b"abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq":
        "12a053384a9c0c88e405a06c27dcf49ada62eb2b",
}


@pytest.mark.parametrize("msg,hexdigest", RIPEMD_VECTORS.items())
def test_ripemd160_vectors(msg, hexdigest):
    assert _ripemd160_pure(msg).hex() == hexdigest
    assert ripemd160(msg).hex() == hexdigest


def test_ripemd160_million_a():
    assert _ripemd160_pure(b"a" * 1000000).hex() == (
        "52783243c1697bdbe16d37f97f68f08325dc1528"
    )


def test_canonical_address_vector():
    # compressed public key of private key 1; its hash160 is the payload of
    # the well-known address 1BgGZ9tcN4rm9KBzDn7KprQz87SZ26SAMH
    pub = bytes.fromhex(
        "0279be667ef9dcbbac55a06295ce870b07029bfcdb2dce28d959f2815b16f81798"
    )
    assert hash160(pub).hex() == "751e76e8199196d454941c45d1b3a323f1433bd6"
