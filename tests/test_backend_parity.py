import random
import threading

import pytest

from chainsteg import backend, ec
from chainsteg.hdw import DOMAIN_GRIND, DerivationIndex, KeyMaterial, hdw_scalar

needs_ext = pytest.mark.skipif(
    "ext" not in backend.available(), reason="compiled kernel not built"
)


@pytest.fixture(autouse=True)
def restore_backend():
    yield
    backend.set_backend("auto")


@needs_ext
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


@needs_ext
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


@needs_ext
def test_grind_exhaustion_parity():
    rng = random.Random(303)
    pure, ext = backend.PureBackend(), backend.set_backend("ext")
    k = rng.randbytes(32)
    gy = ec.mult_g(rng.randrange(1, ec.Q))
    positions = tuple(range(11, -1, -1))
    # a 12-bit target very likely needs > 16 attempts
    assert pure.grind_scan(k, 3, gy, 1, 16, positions, 0xABC) == \
        ext.grind_scan(k, 3, gy, 1, 16, positions, 0xABC)


@needs_ext
@pytest.mark.parametrize("m,start", [(0, 1), (4, 2**63 - 6), (7, 12345)])
def test_grind_budget_edges_parity(m, start):
    """m = 0, counters across 2^63, and budgets that end on the hit, one
    short of it, and part-way through a batch."""
    rng = random.Random(m)
    pure, ext = backend.PureBackend(), backend.set_backend("ext")
    k = rng.randbytes(32)
    gy = ec.mult_g(rng.randrange(1, ec.Q))
    positions = tuple(rng.sample(range(160), m))
    target = rng.randrange(2**m)
    _, attempts = pure.grind_scan(k, 3, gy, start, 2 ** (m + 8), positions, target)
    for budget in (attempts, attempts - 1, attempts + 3, 2 ** (m + 8)):
        assert pure.grind_scan(k, 3, gy, start, budget, positions, target) == \
            ext.grind_scan(k, 3, gy, start, budget, positions, target)


@needs_ext
def test_grind_skips_degenerate_counter_parity():
    # y + H(k || tag || 5) == 0 mod q: counter 5 derives the point at infinity
    k = bytes(32)
    h = hdw_scalar(k, DerivationIndex(DOMAIN_GRIND, 5))
    km = KeyMaterial.from_private(k, (ec.Q - h) % ec.Q)
    pure, ext = backend.PureBackend(), backend.set_backend("ext")
    assert ext.derive_digest(km.k, DOMAIN_GRIND, 5, km.gy) is None
    for start, budget in ((5, 1), (5, 4), (3, 8)):
        assert pure.grind_scan(km.k, DOMAIN_GRIND, km.gy, start, budget, (), 0) == \
            ext.grind_scan(km.k, DOMAIN_GRIND, km.gy, start, budget, (), 0)


@pytest.mark.parametrize("name", backend.available())
@pytest.mark.parametrize("positions", [(160,), (-1,), (3, 1000)])
def test_grind_rejects_bad_positions(name, positions):
    be = backend.set_backend(name)
    k, gy = bytes(32), ec.mult_g(5)
    with pytest.raises(ValueError):
        be.grind_scan(k, 3, gy, 1, 4, positions, 0)
    if name == "ext":
        with pytest.raises(ValueError):
            be.grind_scan(bytes(31), 3, gy, 1, 4, (0,), 0)
        with pytest.raises(ValueError):
            be.grind_scan(k, 3, gy, 1, 4, tuple(range(25)), 0)


@needs_ext
def test_concurrent_grinds_match_sequential():
    """The kernel releases the GIL while grinding; threads sharing its
    comb table must still get the sequential results."""
    rng = random.Random(404)
    ext = backend.set_backend("ext")
    k = rng.randbytes(32)
    gy = ec.mult_g(rng.randrange(1, ec.Q))
    jobs = [(1 + 1000 * i, tuple(rng.sample(range(160), 8)), rng.randrange(256))
            for i in range(6)]
    expected = [ext.grind_scan(k, 3, gy, start, 4096, pos, tgt) for start, pos, tgt in jobs]
    got = [None] * len(jobs)

    def worker(i):
        start, pos, tgt = jobs[i]
        got[i] = ext.grind_scan(k, 3, gy, start, 4096, pos, tgt)

    threads = [threading.Thread(target=worker, args=(i,)) for i in range(len(jobs))]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=60)
        assert not t.is_alive()
    assert got == expected


@needs_ext
def test_backend_selection_env():
    assert backend.set_backend("pure").name == "pure"
    assert backend.set_backend("ext").name == "ext"
    assert backend.set_backend("auto").name == "ext"
    with pytest.raises(ValueError):
        backend.set_backend("gpu")


@needs_ext
def test_bench_attempts_identical_across_backends():
    from chainsteg.cli import bench_grind

    pure = bench_grind([3, 5], runs=25, seed=7, backend_name="pure")
    ext = bench_grind([3, 5], runs=25, seed=7, backend_name="ext")
    for rp, re_ in zip(pure.rows, ext.rows):
        assert rp.mean_attempts == re_.mean_attempts
        assert rp.std_error == re_.std_error
