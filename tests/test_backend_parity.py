import random

import pytest

from chainsteg import backend, ec

pytestmark = pytest.mark.skipif(
    "ext" not in backend.available(), reason="compiled kernel not built"
)


@pytest.fixture(autouse=True)
def restore_backend():
    yield
    backend.set_backend("auto")


def test_derivation_parity():
    rng = random.Random(101)
    pure, ext = backend.PureBackend(), backend.set_backend("ext")
    for _ in range(60):
        k = rng.randbytes(32)
        gy = ec.mult_g(rng.randrange(1, ec.Q))
        tag = rng.choice([1, 2, 3])
        counter = rng.randrange(1, 2**60)
        assert pure.derive_digest(k, tag, counter, gy) == ext.derive_digest(
            k, tag, counter, gy
        )


def test_grind_parity():
    rng = random.Random(202)
    pure, ext = backend.PureBackend(), backend.set_backend("ext")
    for _ in range(12):
        k = rng.randbytes(32)
        gy = ec.mult_g(rng.randrange(1, ec.Q))
        m = rng.randint(0, 9)
        positions = tuple(rng.sample(range(160), m))
        target = rng.randrange(2**m) if m else 0
        start = rng.randint(1, 10**6)
        assert pure.grind_scan(k, 3, gy, start, 2 ** (m + 8), positions, target) == \
            ext.grind_scan(k, 3, gy, start, 2 ** (m + 8), positions, target)


def test_grind_exhaustion_parity():
    rng = random.Random(303)
    pure, ext = backend.PureBackend(), backend.set_backend("ext")
    k = rng.randbytes(32)
    gy = ec.mult_g(rng.randrange(1, ec.Q))
    positions = tuple(range(11, -1, -1))
    # a 12-bit target very likely needs > 16 attempts
    assert pure.grind_scan(k, 3, gy, 1, 16, positions, 0xABC) == \
        ext.grind_scan(k, 3, gy, 1, 16, positions, 0xABC)


def test_backend_selection_env():
    assert backend.set_backend("pure").name == "pure"
    assert backend.set_backend("ext").name == "ext"
    assert backend.set_backend("auto").name == "ext"
    with pytest.raises(ValueError):
        backend.set_backend("gpu")


def test_bench_attempts_identical_across_backends():
    from chainsteg.cli import bench_grind

    pure = bench_grind([3, 5], runs=25, seed=7, backend_name="pure")
    ext = bench_grind([3, 5], runs=25, seed=7, backend_name="ext")
    for rp, re_ in zip(pure.rows, ext.rows):
        assert rp.mean_attempts == re_.mean_attempts
        assert rp.std_error == re_.std_error
