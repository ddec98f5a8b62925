import random
import threading

import pytest

import oracles
from chainsteg import backend, ec
from chainsteg.hdw import DOMAIN_GRIND, KeyMaterial

needs_ext = pytest.mark.skipif(
    "ext" not in backend.available(), reason="compiled kernel not built"
)


@pytest.fixture(autouse=True)
def restore_backend():
    prev = backend.get()
    yield
    backend.set_backend(prev.name)


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


def _multiset(rng, m, n):
    """n chunk values below 2^m drawn from a pool of about n/2 values, so
    repeats are common at every m."""
    pool = [rng.randrange(2**m) for _ in range(max(1, n // 2))]
    return tuple(rng.choice(pool) for _ in range(n))


@needs_ext
def test_grind_parity():
    rng = random.Random(202)
    pure, ext = backend.PureBackend(), backend.set_backend("ext")
    for _ in range(12):
        k = rng.randbytes(32)
        gy = ec.mult_g(rng.randrange(1, ec.Q))
        m = rng.randint(0, 9)
        positions = tuple(rng.sample(range(160), m))
        targets = _multiset(rng, m, rng.randint(1, 20))
        start = rng.randint(1, 10**6)
        got = pure.grind_scan(k, 3, gy, start, 2 ** (m + 8), positions, *targets)
        assert got == ext.grind_scan(k, 3, gy, start, 2 ** (m + 8), positions, *targets)
        hits, attempts = got
        counters = [c for c, _ in hits]
        assert len(set(counters)) == len(targets)
        assert max(counters) == start + attempts - 1
        for (counter, digest), target in zip(hits, targets):
            assert backend.select_bits(digest, positions) == target
            assert digest == pure.derive_digest(k, 3, counter, gy)


# (counter, attempts) that single-target grind_scan returned before scans
# took several targets, for the inputs _pinned_cases draws
PINNED_SINGLE = [
    (386631, 1), (629911, 4), (87752, 6), (845886, 1817), (371533, 15),
    (177427, 4), (813675, 169), (951010, 170), (88499, 23), (352263, 78),
]


def _pinned_cases():
    rng = random.Random(4040)
    for _ in PINNED_SINGLE:
        k = rng.randbytes(32)
        gy = ec.mult_g(rng.randrange(1, ec.Q))
        m = rng.randint(0, 9)
        positions = tuple(rng.sample(range(160), m))
        yield k, gy, positions, rng.randrange(2**m), rng.randint(1, 10**6)


@pytest.mark.parametrize("name", backend.available())
def test_single_target_matches_pinned(name):
    be = backend.set_backend(name)
    for (k, gy, positions, target, start), pinned in zip(_pinned_cases(), PINNED_SINGLE):
        ((counter, digest),), attempts = be.grind_scan(
            k, 3, gy, start, 2 ** (len(positions) + 8), positions, target)
        assert (counter, attempts) == pinned
        assert digest == be.derive_digest(k, 3, counter, gy)


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
    """m = 0, counters across 2^63, and budgets that end on the last hit,
    one short of it, and part-way through a batch, for one target and for
    a multiset of them."""
    rng = random.Random(m)
    pure, ext = backend.PureBackend(), backend.set_backend("ext")
    k = rng.randbytes(32)
    gy = ec.mult_g(rng.randrange(1, ec.Q))
    positions = tuple(rng.sample(range(160), m))
    for targets in ((rng.randrange(2**m),), _multiset(rng, m, 7)):
        _, attempts = pure.grind_scan(k, 3, gy, start, 2 ** (m + 8), positions, *targets)
        for budget in (attempts, attempts - 1, attempts + 3, 2 ** (m + 8)):
            got = pure.grind_scan(k, 3, gy, start, budget, positions, *targets)
            assert got == ext.grind_scan(k, 3, gy, start, budget, positions, *targets)
            assert (got is None) == (budget < attempts)


@needs_ext
def test_grind_skips_degenerate_counter_parity():
    # y + H(k || tag || 5) == 0 mod q: counter 5 derives the point at infinity
    k = bytes(32)
    h = oracles.hdw_scalar(k, DOMAIN_GRIND, 5)
    km = KeyMaterial.from_private(k, (ec.Q - h) % ec.Q)
    pure, ext = backend.PureBackend(), backend.set_backend("ext")
    assert ext.derive_digest(km.k, DOMAIN_GRIND, 5, km.gy) is None
    for start, budget in ((5, 1), (5, 4), (3, 8)):
        assert pure.grind_scan(km.k, DOMAIN_GRIND, km.gy, start, budget, (), 0) == \
            ext.grind_scan(km.k, DOMAIN_GRIND, km.gy, start, budget, (), 0)
    # inside a multi-target scan the skipped counter still counts as an attempt
    for be in (pure, ext):
        hits, attempts = be.grind_scan(km.k, DOMAIN_GRIND, km.gy, 3, 8, (), 0, 0, 0, 0)
        assert [c for c, _ in hits] == [3, 4, 6, 7]
        assert attempts == 5
        assert be.grind_scan(km.k, DOMAIN_GRIND, km.gy, 3, 4, (), 0, 0, 0, 0) is None


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


@pytest.mark.parametrize("name", backend.available())
@pytest.mark.parametrize("targets", [(), tuple([0] * 21), (4,), (0, -1), (2**70,)])
def test_grind_rejects_bad_targets(name, targets):
    # 1 to 20 targets, each a 2-bit value
    be = backend.set_backend(name)
    with pytest.raises(ValueError):
        be.grind_scan(bytes(32), 3, ec.mult_g(5), 1, 4, (7, 3), *targets)


@needs_ext
def test_concurrent_grinds_match_sequential():
    """The kernel releases the GIL while grinding; threads sharing its
    comb table must still get the sequential results."""
    rng = random.Random(404)
    ext = backend.set_backend("ext")
    k = rng.randbytes(32)
    gy = ec.mult_g(rng.randrange(1, ec.Q))
    jobs = [(1 + 10000 * i, tuple(rng.sample(range(160), 8)), _multiset(rng, 8, 5))
            for i in range(6)]
    expected = [ext.grind_scan(k, 3, gy, start, 8192, pos, *tgts)
                for start, pos, tgts in jobs]
    assert None not in expected
    got = [None] * len(jobs)

    def worker(i):
        start, pos, tgts = jobs[i]
        got[i] = ext.grind_scan(k, 3, gy, start, 8192, pos, *tgts)

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
