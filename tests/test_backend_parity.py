import functools
import gc
import json
import os
import random
import shutil
import struct
import subprocess
import sys
import sysconfig
import threading
import tracemalloc
from pathlib import Path

import pytest

import chainfile
import oracles
from chainsteg import Channel, ChannelConfig, Mode, NoiseProfile, backend, ec
from chainsteg.errors import CorruptChain
from chainsteg.hdw import DOMAIN_GRIND, KeyMaterial
from chainsteg.ledger import BLOCK_SUBSIDY, Block, Ledger, StegoTransaction, TxInput, TxOutput
from chainsteg.session import SessionState

needs_ext = pytest.mark.skipif(
    "ext" not in backend.available(), reason="compiled kernel not built"
)
kernel = getattr(backend, "_kernel", None)


def _cpu_flags():
    """The CPU flags the OS reports; None where /proc/cpuinfo cannot be
    read."""
    try:
        with open("/proc/cpuinfo") as f:
            return next((set(line.split(":", 1)[1].split()) for line in f
                         if line.startswith("flags")), set())
    except OSError:
        return None


_FLAGS = _cpu_flags()
HAS_IFMA = None if _FLAGS is None else {"avx512f", "avx512ifma"} <= _FLAGS
HAS_AVX512F = None if _FLAGS is None else "avx512f" in _FLAGS
HAS_SHA_NI = None if _FLAGS is None else "sha_ni" in _FLAGS


@pytest.fixture(autouse=True)
def restore_backend():
    prev = backend.get()
    paths = (kernel._comb_path(), kernel._hash_path()) if kernel is not None else None
    yield
    backend.set_backend(prev.name)
    if paths is not None:
        kernel._comb_path(paths[0])
        kernel._hash_path(paths[1])


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


BUDGET_EDGES = [(0, 1), (4, 2**63 - 6), (7, 12345)]


@needs_ext
@pytest.mark.parametrize("m,start", BUDGET_EDGES)
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


DEGENERATE_LANES = ["doubling", "cancel", "infinity"]


@needs_ext
@pytest.mark.parametrize("case", DEGENERATE_LANES)
def test_affine_degenerate_lane_parity(case):
    """A lane of a wide batch whose affine addition meets x1 == x2. With b the
    low byte of counter c's scalar h, gy = bG makes lane c's first addition a
    doubling and gy = -bG cancels it to infinity; gy = -hG makes the whole
    point infinity, so counter c is skipped."""
    k = bytes(range(32))
    c = next(c for c in range(100, 200) if oracles.hdw_scalar(k, DOMAIN_GRIND, c) & 0xFF)
    h = oracles.hdw_scalar(k, DOMAIN_GRIND, c)
    y = {"doubling": h & 0xFF, "cancel": ec.Q - (h & 0xFF), "infinity": ec.Q - h}[case]
    km = KeyMaterial.from_private(k, y)
    pure, ext = backend.PureBackend(), backend.set_backend("ext")
    for counter in (c - 1, c, c + 1):
        assert ext.derive_digest(km.k, DOMAIN_GRIND, counter, km.gy) == \
            pure.derive_digest(km.k, DOMAIN_GRIND, counter, km.gy)
    # 20 targets on no bits take the first 20 usable counters from c - 5,
    # all in one batch of the affine width
    args = (km.k, DOMAIN_GRIND, km.gy, c - 5, 1024, ()) + (0,) * 20
    got = ext.grind_scan(*args)
    assert got == pure.grind_scan(*args)
    assert (c in [counter for counter, _ in got[0]]) == (case != "infinity")


def _consecutive_scans(be, k, tag, gy, start, jobs):
    """One scan per (positions, targets) job, each from the previous scan's
    last hit + 2, so it starts inside the batch the previous scan kept, as
    the scan of a MED group does."""
    results = []
    for positions, targets in jobs:
        got = be.grind_scan(k, tag, gy, start, 2 ** (len(positions) + 8), positions, *targets)
        results.append(got)
        start = max(counter for counter, _ in got[0]) + 2
    return results


STREAM_MS = [0, 3, 6, 12]


@needs_ext
@pytest.mark.parametrize("m", STREAM_MS)
def test_stream_scans_match_pure(m):
    """Consecutive scans under one key continue the kernel's counter stream:
    the same results as the pure backend, and together they derive at most
    one batch (256 counters) past the last hit."""
    from chainsteg import _kernel

    rng = random.Random(600 + m)
    pure, ext = backend.PureBackend(), backend.set_backend("ext")
    k = rng.randbytes(32)
    gy = ec.mult_g(rng.randrange(1, ec.Q))
    positions = tuple(rng.sample(range(160), m))
    n_scans, n_targets = (2, 1) if m == 12 else (6, 5)
    jobs = [(positions, _multiset(rng, m, n_targets)) for _ in range(n_scans)]
    start = rng.randint(1, 10**6)
    before = _kernel._derived()
    got = _consecutive_scans(ext, k, 3, gy, start, jobs)
    derived = _kernel._derived() - before
    assert got == _consecutive_scans(pure, k, 3, gy, start, jobs)
    last = max(counter for counter, _ in got[-1][0])
    assert derived < last + 1 - start + 256


@needs_ext
@pytest.mark.parametrize("other", ["key", "tag", "gy"])
def test_stream_ignores_other_keys(other):
    """A scan under a second key, tag or gy, placed between two scans of the
    first key and starting inside their stream, neither uses nor corrupts it."""
    rng = random.Random(700)
    pure, ext = backend.PureBackend(), backend.set_backend("ext")
    k, gy = rng.randbytes(32), ec.mult_g(rng.randrange(1, ec.Q))
    second = {
        "key": (rng.randbytes(32), 3, gy),
        "tag": (k, 1, gy),
        "gy": (k, 3, ec.mult_g(rng.randrange(1, ec.Q))),
    }[other]
    positions = tuple(rng.sample(range(160), 6))
    targets = [_multiset(rng, 6, 5) for _ in range(3)]
    results = []
    for be in (pure, ext):
        first = be.grind_scan(k, 3, gy, 1000, 2**14, positions, *targets[0])
        start = max(counter for counter, _ in first[0]) + 2
        between = be.grind_scan(*second, start, 2**14, positions, *targets[1])
        again = be.grind_scan(k, 3, gy, start, 2**14, positions, *targets[2])
        results.append((first, between, again))
    assert results[0] == results[1]


@needs_ext
def test_stream_derives_about_what_sends_consume(monkeypatch):
    """Over MED sends as in the med_grind benchmark (n = 5, m = 6, PERMUTED),
    the kernel derives at most 5% more counters than the scans consume."""
    from chainsteg import _kernel

    ext = backend.set_backend("ext")
    attempts = []
    scan = ext.grind_scan

    def counted(*args, **kwargs):
        got = scan(*args, **kwargs)
        attempts.append(got[1])
        return got

    monkeypatch.setattr(ext, "grind_scan", counted)
    cfg = ChannelConfig(n=5, m=6, mode=Mode.PERMUTED)
    state = SessionState(KeyMaterial.generate(random.Random(808)), cfg, seed=9)
    ledger = state.genesis_ledger()
    rng = random.Random(909)
    before = _kernel._derived()
    for i in range(40):
        state.send_message(ledger, rng.randbytes(4), Channel.MED)
        ledger.mine_block(NoiseProfile(rate=5.0), seed=i)
    assert len(attempts) >= 40
    assert _kernel._derived() - before <= 1.05 * sum(attempts)


def _med_across_group_boundaries():
    """Per config, a fresh sender and receiver: a 5-transaction message at
    n = 5 (144 bits, where 4 transactions carry 120 plus their tie-rank
    bits) and a 2-transaction message at n = 11, each mined and received.
    Returns (transactions sent, messages received, tip) per config."""
    out = []
    for cfg, message in ((ChannelConfig(n=5, m=6, mode=Mode.PERMUTED), bytes(range(16))),
                         (ChannelConfig(n=11, m=4), b"eleven")):
        km = KeyMaterial.generate(random.Random(1313))
        sender = SessionState(km, cfg, seed=13)
        ledger = sender.genesis_ledger()
        receiver = SessionState(km.public_only(), cfg, seed=14)
        txids = sender.send_message(ledger, message, Channel.MED)
        ledger.mine_block(NoiseProfile(rate=2.0), seed=13)
        out.append((len(txids), receiver.detect_and_receive(ledger),
                    ledger.blocks[-1].block_hash.hex()))
    return out


@pytest.mark.parametrize("n,m", [(8, 2), (5, 0)])
@pytest.mark.parametrize("name", backend.available())
def test_tie_heavy_permuted_sessions_round_trip(name, n, m):
    """PERMUTED sessions where every transaction has ties (8 chunks over 4
    values; 5 chunks of one value) deliver every message on each backend,
    and both backends end on the same tip."""
    tips = []
    for be in (name, "pure"):
        backend.set_backend(be)
        km = KeyMaterial.generate(random.Random(1717))
        cfg = ChannelConfig(n=n, m=m, mode=Mode.PERMUTED)
        sender = SessionState(km, cfg, seed=17)
        ledger = sender.genesis_ledger()
        receiver = SessionState(km.public_only(), cfg, seed=18)
        sent = [("MED", bytes(range(i, 3 * i))) for i in range(4)]
        for _, message in sent:
            sender.send_message(ledger, message, Channel.MED)
            ledger.mine_block(NoiseProfile(rate=2.0), seed=len(message))
        assert receiver.detect_and_receive(ledger) == sent
        assert not receiver.quarantine
        tips.append(ledger.blocks[-1].block_hash)
    assert tips[0] == tips[1]


@pytest.mark.parametrize("name", backend.available())
def test_med_groups_split_at_max_targets(name, monkeypatch):
    """A MED message grinds floor(MAX_TARGETS / n) transactions per scan:
    at n = 5 its 5 transactions take a scan of 20 targets and one of 5, at
    n = 11 each transaction takes its own scan. Every message arrives
    byte-identical, on the pure backend's tip."""
    be = backend.set_backend(name)
    scans = []
    scan = be.grind_scan

    def counted(k, tag, gy, start, max_attempts, positions, *targets, **kwargs):
        scans.append(len(targets))
        return scan(k, tag, gy, start, max_attempts, positions, *targets, **kwargs)

    monkeypatch.setattr(be, "grind_scan", counted)
    got = _med_across_group_boundaries()
    assert scans == [20, 5, 11, 11]
    assert [(n, received) for n, received, _ in got] == [
        (5, [("MED", bytes(range(16)))]),
        (2, [("MED", b"eleven")]),
    ]
    backend.set_backend("pure")
    assert [tip for *_, tip in got] == [tip for *_, tip in _med_across_group_boundaries()]


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


@pytest.mark.parametrize("name", backend.available())
@pytest.mark.parametrize("spares", [-1, backend.MAX_SPARES + 1])
def test_grind_rejects_bad_spares(name, spares):
    be = backend.set_backend(name)
    with pytest.raises(ValueError):
        be.grind_scan(bytes(32), 3, ec.mult_g(5), 1, 4, (7, 3), 0, spares=spares)


SPARE_SCANS = ["fresh", "inside_kept", "several_batches"]


@needs_ext
@pytest.mark.parametrize("case", SPARE_SCANS)
def test_spares_match_pure(case):
    """grind_scan(..., spares=s) hands back the same spare pairs on both
    backends: the first s counters below the last hit that no target took,
    each with the digest derive_digest gives it. The scan starts at a fresh
    counter; or 250 counters into the 256-counter batch the kernel kept from
    a previous scan, so its spares come from two batches; or it runs
    several batches to its last hit."""
    rng = random.Random(1800 + SPARE_SCANS.index(case))
    pure, ext = backend.PureBackend(), backend.set_backend("ext")
    k, gy = rng.randbytes(32), ec.mult_g(rng.randrange(1, ec.Q))
    m = 10 if case == "several_batches" else 6
    positions = tuple(rng.sample(range(160), m))
    targets = _multiset(rng, m, 5)
    start = rng.randint(1, 10**6)
    if case == "inside_kept":
        hits, _ = ext.grind_scan(k, 3, gy, start, 2**14, positions, *_multiset(rng, 6, 5))
        start += 256 * ((max(c for c, _ in hits) - start) // 256) + 250
    args = (k, 3, gy, start, 2 ** (m + 8), positions, *targets)
    got = ext.grind_scan(*args, spares=backend.MAX_SPARES)
    assert got == pure.grind_scan(*args, spares=backend.MAX_SPARES)
    hits, attempts, spares = got
    assert attempts > (2 * 256 if case == "several_batches" else backend.MAX_SPARES + 5)
    taken = {c for c, _ in hits}
    expected = [c for c in range(start, start + attempts - 1) if c not in taken]
    assert [c for c, _ in spares] == expected[: backend.MAX_SPARES]
    for counter, digest in spares:
        assert digest == pure.derive_digest(k, 3, counter, gy)
    assert ext.grind_scan(*args, spares=3)[2] == spares[:3]
    assert ext.grind_scan(*args) == got[:2]


@needs_ext
def test_concurrent_grinds_match_sequential():
    """The kernel releases the GIL while grinding; threads sharing its
    comb table, and contending for its counter stream with two keys on the
    same tag, must still get the sequential results."""
    rng = random.Random(404)
    ext = backend.set_backend("ext")
    keys = [(rng.randbytes(32), ec.mult_g(rng.randrange(1, ec.Q))) for _ in range(2)]
    # jobs 2i and 2i + 1 scan the same counters under the two keys
    jobs = [(keys[i % 2], 1 + 10000 * (i // 2),
             [(tuple(rng.sample(range(160), 8)), _multiset(rng, 8, 5)) for _ in range(3)])
            for i in range(6)]

    def run(job):
        (k, gy), start, scans = job
        return _consecutive_scans(ext, k, 3, gy, start, scans)

    expected = [run(job) for job in jobs]
    got = [None] * len(jobs)

    def worker(i):
        got[i] = run(jobs[i])

    threads = [threading.Thread(target=worker, args=(i,)) for i in range(len(jobs))]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
            assert not t.is_alive()
    finally:
        sys.setswitchinterval(interval)
    assert got == expected


# The parity tests above run on the comb path chosen at import; each runs
# again below on both paths.
PARITY_ON_EACH_PATH = {
    "grind": test_grind_parity,
    **{f"budget_edges-{m}-{start}": functools.partial(test_grind_budget_edges_parity, m, start)
       for m, start in BUDGET_EDGES},
    **{f"stream-{m}": functools.partial(test_stream_scans_match_pure, m) for m in STREAM_MS},
    **{f"degenerate-{case}": functools.partial(test_affine_degenerate_lane_parity, case)
       for case in DEGENERATE_LANES},
    "concurrent": test_concurrent_grinds_match_sequential,
}


@needs_ext
@pytest.mark.parametrize("case", list(PARITY_ON_EACH_PATH))
@pytest.mark.parametrize("path", ["portable", "ifma"])
def test_parity_on_each_comb_path(path, case):
    """The portable 4x64 comb and the 8-lane AVX-512 IFMA comb, selected
    through the kernel's private hook, each match the pure backend. The IFMA
    cases skip only where the CPU lacks avx512f or avx512ifma."""
    if path == "ifma" and not HAS_IFMA:
        pytest.skip("the CPU lacks avx512f or avx512ifma, or its flags are unknown")
    kernel._comb_path(path)
    PARITY_ON_EACH_PATH[case]()


@needs_ext
@pytest.mark.skipif(HAS_IFMA is None, reason="CPU flags unknown")
def test_comb_path_follows_cpu():
    """Import chooses the IFMA comb exactly where the CPU has avx512f and
    avx512ifma; the hook switches paths and refuses unknown or missing ones."""
    chosen = "ifma" if HAS_IFMA else "portable"
    assert kernel._comb_path() == chosen
    assert kernel._comb_path("portable") == chosen
    assert kernel._comb_path() == "portable"
    with pytest.raises(ValueError):
        kernel._comb_path("gpu")
    if not HAS_IFMA:
        with pytest.raises(ValueError):
            kernel._comb_path("ifma")


HASH_PATHS = {"x16": HAS_AVX512F, "shani": HAS_SHA_NI, "portable": True}


def _hash_path_or_skip(path):
    """Switch the kernel to SHA-256 path `path`, or skip where the CPU lacks
    it or its flags are unknown."""
    if not HASH_PATHS[path]:
        pytest.skip(f"the CPU lacks the {path} SHA-256 path, or its flags are unknown")
    kernel._hash_path(path)


@needs_ext
@pytest.mark.skipif(_FLAGS is None, reason="CPU flags unknown")
def test_hash_path_follows_cpu():
    """Import chooses the 16 AVX-512 lanes exactly where the CPU has
    avx512f, else SHA-NI where it has sha_ni; the hook switches paths and
    refuses unknown or missing ones."""
    chosen = next(path for path, present in HASH_PATHS.items() if present)
    assert kernel._hash_path() == chosen
    assert kernel._hash_path("portable") == chosen
    assert kernel._hash_path() == "portable"
    with pytest.raises(ValueError):
        kernel._hash_path("gpu")
    for path, present in HASH_PATHS.items():
        if not present:
            with pytest.raises(ValueError):
                kernel._hash_path(path)


@needs_ext
@pytest.mark.skipif(not HAS_IFMA, reason="the CPU lacks avx512f or avx512ifma, or its flags are unknown")
def test_ifma_path_leaves_upper_vector_state_clean():
    """After AVX-512 code the upper halves of the vector registers must read
    as unused (XGETBV(1) bits 2 and 6), or every later legacy-SSE
    instruction, SHA-NI's among them, runs slowly: after 64- and 256-lane
    scans on the IFMA comb, and after a single derivation."""
    kernel._comb_path("ifma")
    rng = random.Random(1900)
    k, gy = rng.randbytes(32), ec.mult_g(rng.randrange(1, ec.Q))
    for lanes in (64, 256):
        # a 24-bit target is almost never hit: the scan derives all its lanes
        kernel.grind_scan(k, 3, gy[0], gy[1], lanes * 10**6, lanes, tuple(range(24)),
                          (0xABCDEF,))
        assert kernel._upper_state() == 0
    kernel.derive_digest(k, 3, 5, gy[0], gy[1])
    assert kernel._upper_state() == 0


def test_kernel_compiles_without_warnings():
    """_kernel.c is clean under -Wall -Werror."""
    compiler = (sysconfig.get_config_var("CC") or "cc").split()[0]
    if shutil.which(compiler) is None:
        pytest.skip("no C compiler")
    source = Path(backend.__file__).with_name("_kernel.c")
    proc = subprocess.run(
        [compiler, "-Wall", "-Werror", "-fsyntax-only", "-I", sysconfig.get_paths()["include"],
         str(source)],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0, proc.stderr


_SANITIZED_TESTS = [
    "tests/test_parsers.py",
    "tests/test_backend_parity.py::test_parse_parity",
    "tests/test_backend_parity.py::test_connect_parity",
    "tests/test_backend_parity.py::test_utxo_table_matches_a_dict_model",
    "tests/test_backend_parity.py::test_a_load_keeps_little_memory_per_utxo",
    "tests/test_backend_parity.py::test_connect_parity_on_a_seeded_chain",
    "tests/test_backend_parity.py::test_load_parity_on_a_fuzzed_chain_file",
    "tests/test_backend_parity.py::test_mult_g_parity",
    "tests/test_backend_parity.py::test_connect_records_match_pure_on_each_hash_path",
    "tests/test_backend_parity.py::test_decompress_parity",
]


def test_kernel_is_clean_under_sanitizers(tmp_path):
    """The kernel's walks over untrusted bytes, the parser and connect_records,
    pass their tests built with AddressSanitizer and UBSan, and neither
    sanitizer reports anything."""
    compiler = (sysconfig.get_config_var("CC") or "cc").split()[0]
    if shutil.which(compiler) is None:
        pytest.skip("no C compiler")
    runtimes = [subprocess.run([compiler, f"-print-file-name={lib}"], capture_output=True,
                               text=True).stdout.strip() for lib in ("libasan.so", "libubsan.so")]
    if not all(map(os.path.isabs, runtimes)):  # the bare name: not found
        pytest.skip(f"{compiler} has no sanitizer runtimes")
    root = Path(__file__).resolve().parent.parent
    package = tmp_path / "chainsteg"
    shutil.copytree(root / "src" / "chainsteg", package,
                    ignore=shutil.ignore_patterns("*.so", "__pycache__"))
    kernel_path = package / f"_kernel{sysconfig.get_config_var('EXT_SUFFIX')}"
    build = subprocess.run(
        [compiler, "-shared", "-fPIC", "-fsanitize=address,undefined",
         "-fno-sanitize-recover=undefined", "-fno-omit-frame-pointer", "-O1",
         "-I", sysconfig.get_paths()["include"], str(package / "_kernel.c"),
         "-o", str(kernel_path)],
        capture_output=True, text=True,
    )
    assert build.returncode == 0, build.stderr
    # PYTHONMALLOC=malloc: small objects too get redzones, not pymalloc arenas
    env = dict(os.environ, PYTHONPATH=str(tmp_path), LD_PRELOAD=" ".join(runtimes),
               ASAN_OPTIONS="detect_leaks=0", PYTHONMALLOC="malloc", CHAINSTEG_BACKEND="ext")
    which = subprocess.run(
        [sys.executable, "-c", "from chainsteg import backend; print(backend._kernel.__file__)"],
        env=env, capture_output=True, text=True,
    )
    assert which.stdout.strip() == str(kernel_path), which.stderr
    # --capture=sys leaves fd 2 alone: a sanitizer aborts the run, and its
    # report would be lost with pytest's captured output
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", "--capture=sys",
         *_SANITIZED_TESTS],
        cwd=root, env=env, capture_output=True, text=True,
    )
    report = proc.stdout + proc.stderr
    assert proc.returncode == 0, report[-6000:]
    assert "Sanitizer" not in report and "runtime error" not in report, report[-6000:]


@needs_ext
def test_microbench_times_each_comb_path():
    """Every row is timed; the IFMA rows read 0 where that path is missing,
    and the 16-lane SHA-256 row where the CPU lacks AVX-512 F."""
    timings = kernel._microbench(100)
    ifma = ("derive_ifma_ns", "fe_mul8_ns")
    assert set(timings) == {"fe_mul_ns", "jpt_add_ns", "fe_inv_ns", "sha256_ns", "ripemd_ns",
                            "derive_portable_ns", *ifma, "sha256_x16_ns"}
    for key, ns in timings.items():
        present = {"sha256_x16_ns": kernel._hash_path() == "x16",
                   **dict.fromkeys(ifma, kernel._comb_path() == "ifma")}.get(key, True)
        assert ns > 0 if present else ns == 0


def _random_transaction(rng):
    return StegoTransaction(
        inputs=tuple(TxInput(rng.randbytes(32), rng.randrange(2**32), rng.randbytes(20))
                     for _ in range(rng.randint(0, 3))),
        outputs=tuple(TxOutput(rng.randbytes(20), rng.randrange(2**64), rng.randrange(256))
                      for _ in range(rng.randint(0, 6))),
        fee=rng.randrange(2**64),
    )


@needs_ext
def test_parse_parity():
    """On whole, truncated and bit-flipped runs of transactions both parsers
    return the same transactions, txids and end offset, or refuse with the
    same message."""
    rng = random.Random(505)
    pure, ext = backend.PureBackend(), backend.set_backend("ext")
    for _ in range(400):
        txs = [_random_transaction(rng) for _ in range(rng.randint(0, 3))]
        offset = rng.randint(0, 8)
        data = bytearray(rng.randbytes(offset) + b"".join(tx.serialize() for tx in txs))
        mutation = rng.choice(["none", "truncate", "flip"])
        if mutation == "truncate" and data:
            del data[rng.randrange(len(data)):]
        elif mutation == "flip" and data:
            bit = rng.randrange(8 * len(data))
            data[bit // 8] ^= 1 << (bit % 8)
        outcomes = []
        for be in (pure, ext):
            try:
                got, end = be.parse_transactions(bytes(data), offset, len(txs),
                                                 StegoTransaction, TxInput, TxOutput)
                outcomes.append(([(tx, tx.txid) for tx in got], end))
            except ValueError as exc:
                outcomes.append(str(exc))
        assert outcomes[0] == outcomes[1]
        if mutation == "none":
            assert outcomes[0] == ([(tx, tx.txid) for tx in txs], len(data))


def _connect_case(rng):
    """A funding coinbase and a block's transactions over its outputs, each
    rule kept or, now and then, broken: an absent outpoint, another address,
    a balance one off. Amounts and fees span the u64 range, so sums pass
    2^64."""
    funding = StegoTransaction(
        inputs=(TxInput(bytes(32), 0, bytes(20)),),
        outputs=tuple(TxOutput(rng.randbytes(20), rng.choice([rng.randrange(1, 10**6), 2**64 - 1]))
                      for _ in range(rng.randint(1, 4))),
        fee=0,
    )
    known = {(funding.txid, vout): out for vout, out in enumerate(funding.outputs)}
    txs = [chainfile.coinbase(1)]
    for _ in range(rng.randint(0, 5)):
        spends = rng.sample(list(known), min(len(known), rng.randint(0, 2)))
        inputs = [TxInput(*op, known[op].field) for op in spends]
        if inputs and rng.random() < 0.1:
            inputs[0] = TxInput(rng.randbytes(32), 0, inputs[0].address)
        if inputs and rng.random() < 0.1:
            inputs[-1] = inputs[-1]._replace(address=rng.randbytes(20))
        total = sum(known[op].amount for op in spends)
        fee = rng.randrange(min(total, 2**64 - 1) + 1)
        first = min(total - fee, 2**64 - 1)
        outputs = [TxOutput(rng.randbytes(20), first)]
        if total - fee - first:
            outputs.append(TxOutput(rng.randbytes(20), total - fee - first))
        if rng.random() < 0.1:
            fee = fee + 1 if fee < 2**64 - 1 else fee - 1
        tx = StegoTransaction(tuple(inputs), tuple(outputs), fee)
        txs.append(tx)
        known.update({(tx.txid, vout): out for vout, out in enumerate(outputs)})
    return funding, txs


def _lookups(table, outpoints):
    """What a UTXO table, or a dict model of one, answers for each of
    `outpoints` to get and to `in`."""
    return [table.get(op) for op in outpoints], [op in table for op in outpoints]


@needs_ext
def test_connect_parity():
    """On kept and broken rules, each case sealed as a block record at height
    1 after a funding record at height 0, both framed in one file, both
    backends apply the same blocks with the same fees, minted amount, hash,
    coinbase txid and offsets and stop at the same refusal, and leave the
    same unspent outputs, refused or not."""
    rng = random.Random(1919)
    pure, ext = backend.PureBackend(), backend.set_backend("ext")
    broken = 0
    for _ in range(400):
        funding, txs = _connect_case(rng)
        genesis = Block.seal(0, bytes(32), 0, (funding,))
        record = Block.seal(1, genesis.block_hash, 600, txs).serialize()
        data = chainfile.framed([genesis.serialize(), record])
        created = [(tx.txid, vout) for tx in (funding, *txs) for vout in range(len(tx.outputs))]
        outcomes = []
        for be in (pure, ext):
            table = be.utxo_table(TxOutput)
            got = be.connect_records(table, data, 0, bytes(32), BLOCK_SUBSIDY)
            outcomes.append((got, _lookups(table, created), table.total()))
        assert outcomes[0] == outcomes[1]
        rows, _, refusal = outcomes[0][0]
        assert len(rows) == backend._BLOCK_ROW.size * (2 - (refusal is not None))
        broken += refusal is not None
    assert 40 < broken < 360


def _table_block(rng, height, model):
    """A block's transactions at `height` over the outpoints in `model`: a
    coinbase of up to 8 outputs, then up to 4 transactions that each spend up
    to 3 outputs, some made earlier in the block, into up to 4. A quarter of
    the coinbases pay one output of 2^64 - 1, the 2^64 - 1 subsidy the model
    test applies them with, so no coinbase passes its cap."""
    amounts = ([2**64 - 1] if rng.random() < 0.25 else
               [rng.choice([1000, 2000, 3000]) for _ in range(rng.randint(1, 8))])
    coinbase = StegoTransaction(
        inputs=(TxInput(bytes(32), height, bytes(20)),),
        outputs=tuple(TxOutput(rng.randbytes(20), amount, rng.randrange(256))
                      for amount in amounts),
        fee=0,
    )
    txs, unspent = [coinbase], dict(model)
    unspent.update({(coinbase.txid, vout): out for vout, out in enumerate(coinbase.outputs)})
    for _ in range(rng.randint(0, 4)):
        spends = rng.sample(sorted(unspent), rng.randint(1, min(3, len(unspent))))
        total = sum(unspent[op].amount for op in spends)
        fee = rng.randrange(min(total, 10**4) + 1)
        n_out = max(rng.randint(1, 4), -(-(total - fee) // (2**64 - 1)))
        share, extra = divmod(total - fee, n_out)
        outputs = tuple(TxOutput(rng.randbytes(20), share + (i < extra)) for i in range(n_out))
        tx = StegoTransaction(tuple(TxInput(*op, unspent.pop(op).field) for op in spends),
                              outputs, fee)
        txs.append(tx)
        unspent.update({(tx.txid, vout): out for vout, out in enumerate(outputs)})
    return txs


@pytest.mark.parametrize("seed", range(4))
@pytest.mark.parametrize("name", ["pure", "ext"])
def test_utxo_table_matches_a_dict_model(name, seed):
    """Blocks of random inserts (outputs) and spends (inputs), applied through
    connect_records one to eight records a call, keep a table equal to a
    dict model across several growths: after each call a sample of live,
    spent and never-made outpoints, and at the end every outpoint made,
    answers get and `in` as the model does, and total() matches the
    model's sum, which passes 2^64."""
    if name not in backend.available():
        pytest.skip("compiled kernel not built")
    be, rng = backend.set_backend(name), random.Random(seed)
    table, model, made = be.utxo_table(TxOutput), {}, []
    height, prev_hash = 0, bytes(32)
    while height < 150:
        records, first, tip = [], height, prev_hash
        for _ in range(min(rng.randint(1, 8), 150 - height)):
            txs = _table_block(rng, height, model)
            records.append(Block.seal(height, prev_hash, 600 * height, txs).serialize())
            height, prev_hash = height + 1, records[-1][-32:]
            for position, tx in enumerate(txs):
                for inp in tx.inputs if position else ():
                    del model[inp.prev_txid, inp.vout]
                made += [(tx.txid, vout) for vout in range(len(tx.outputs))]
                model.update({(tx.txid, vout): out for vout, out in enumerate(tx.outputs)})
        rows, _, refusal = be.connect_records(table, chainfile.framed(records), first, tip,
                                              2**64 - 1)
        assert refusal is None
        assert [row[1] for row in backend._BLOCK_ROW.iter_unpack(rows)] == [r[-32:] for r in records]
        asked = rng.sample(made, min(len(made), 20)) + [(rng.randbytes(32), rng.randrange(2**32))]
        assert _lookups(table, asked) == _lookups(model, asked)
    assert _lookups(table, made) == _lookups(model, made)
    assert table.total() == sum(out.amount for out in model.values())
    # past three quarters of 512 slots: the kernel's index, 16 slots at
    # first, was rebuilt larger on the way
    assert len(model) > 384 and table.total() > 2**64


def _seeded_chain(km, path):
    """A seeded 30-block chain at decoy rate 20 that carries MED and HIGH
    sends, saved to `path` with one HIGH message left in its mempool; the
    ledger that mined it. Mining applies every block through the active
    backend's connect_records."""
    cfg = ChannelConfig(n=3, m=4, mode=Mode.PERMUTED, max_fields_per_tx=2)
    sender = SessionState(km, cfg, seed=19)
    ledger = sender.genesis_ledger()
    for height in range(1, 31):
        if height % 6 == 1:
            sender.send_message(ledger, b"med %d" % height, Channel.MED)
        elif height % 6 == 4:
            sender.send_message(ledger, b"high message %d" % height, Channel.HIGH)
        ledger.mine_block(NoiseProfile(rate=20.0), seed=height)
    sender.send_message(ledger, b"still in the mempool", Channel.HIGH)
    ledger.save(path)
    return ledger


@needs_ext
def test_connect_parity_on_a_seeded_chain(km, tmp_path):
    """Mined and loaded on each backend, a seeded chain gives the same
    unspent outputs, UTXO total, supply, decoy pool and tip."""
    mined = {}
    for name in ("pure", "ext"):
        backend.set_backend(name)
        mined[name] = chainfile.chain_state(_seeded_chain(km, tmp_path / f"{name}.bin"))
    assert mined["pure"] == mined["ext"]
    assert (tmp_path / "pure.bin").read_bytes() == (tmp_path / "ext.bin").read_bytes()
    loaded = {}
    for name in ("pure", "ext"):
        backend.set_backend(name)
        loaded[name] = chainfile.chain_state(Ledger.load(tmp_path / "ext.bin"))
    assert loaded["pure"] == loaded["ext"]
    utxos, total, supply, _, tip = loaded["ext"]
    assert (utxos, total, supply, tip) == (*mined["ext"][:3], mined["ext"][4])
    assert total == supply
    assert sum(out is not None for out in utxos) > 1000 and len(mined["ext"][3]) > 30


def _load_outcome(path):
    """What Ledger.load(path) gives: the state of the chain it loads, or
    its CorruptChain text."""
    try:
        return chainfile.chain_state(Ledger.load(path))
    except CorruptChain as exc:
        return str(exc)


@needs_ext
@pytest.mark.parametrize("hash_path", list(HASH_PATHS))
def test_load_parity_on_a_fuzzed_chain_file(tmp_path, hash_path):
    """Bytes flipped anywhere in a seeded chain file, length prefixes
    included, now and then with the hit record resealed so its
    transactions reach the block rules, and cuts at random offsets: both
    backends load the same blocks to the same state or raise the same
    text, on each of the kernel's SHA-256 paths."""
    _hash_path_or_skip(hash_path)
    path = tmp_path / "chain.bin"
    ledger = Ledger.create(genesis_allocations=[(b"\xaa" * 20, 10**9)])
    for seed in range(1, 7):
        ledger.mine_block(NoiseProfile(rate=4.0), seed=seed)
    ledger.save(path)
    raw = path.read_bytes()
    prefixes = [0]
    for record in chainfile.records(raw)[:-1]:
        prefixes.append(prefixes[-1] + 4 + len(record))
    rng = random.Random(2525)
    seen = set()
    for _ in range(300):
        records = chainfile.records(raw)
        if rng.random() < 0.3:  # a flip between a record's header and hash, resealed
            i = rng.randrange(len(records))
            record = bytearray(records[i])
            bit = rng.randrange(8 * 52, 8 * (len(record) - 32))
            record[bit // 8] ^= 1 << (bit % 8)
            records[i] = chainfile.reseal(bytes(record))
        data = bytearray(chainfile.framed(records))
        for _ in range(rng.choice([0, 1, 1, 2])):
            at = (rng.choice(prefixes) + rng.randrange(4) if rng.random() < 0.3
                  else rng.randrange(len(data)))
            data[at] ^= 1 << rng.randrange(8)
        if rng.random() < 0.4:
            cut = (rng.choice(prefixes) + rng.randrange(5) if rng.random() < 0.5
                   else rng.randrange(len(data) + 1))
            del data[cut:]
        path.write_bytes(bytes(data))
        outcomes = []
        for name in ("pure", "ext"):
            backend.set_backend(name)
            outcomes.append(_load_outcome(path))
        assert outcomes[0] == outcomes[1]
        outcome = outcomes[0]
        seen.add(outcome if isinstance(outcome, str) else
                 "loaded all" if outcome[4] == ledger.blocks[-1].block_hash else "loaded a prefix")
    texts = " | ".join(sorted(seen))
    for want in ("truncated record length", "record extends past end of file",
                 "empty chain file", "trailing bytes in block record", "truncated block record",
                 "failed hash re-verification", "spends", "does not balance",
                 "more than subsidy plus fees", "loaded all", "loaded a prefix"):
        assert want in texts, texts


# (inputs, outputs) of the first transaction shapes whose wire length, 16 +
# 56 inputs + 29 outputs, falls on each side of SHA-256's padding
# boundaries: 55 and 56 bytes into a block (whether the length fits in the
# last block) and 63, 64 and 65 (a whole block), at one to eight blocks
_PADDING_SHAPES = sorted({
    min((n_in, n_out) for n_in in range(1, 4) for n_out in range(1, 41)
        if (16 + 56 * n_in + 29 * n_out) % 64 == residue)
    for residue in (54, 55, 56, 57, 63, 0, 1)
})


def _padding_chain(n_records):
    """n_records framed block records from height 0 whose transactions take
    each of _PADDING_SHAPES in turn: a genesis that pays 300 outputs, then
    blocks of a coinbase and one to three spends of the oldest unspent
    outputs; and every outpoint they make."""
    rng = random.Random(2727)
    genesis = StegoTransaction((TxInput(bytes(32), 0, bytes(20)),),
                               tuple(TxOutput(rng.randbytes(20), 10**9) for _ in range(300)), 0)
    unspent = [((genesis.txid, vout), out) for vout, out in enumerate(genesis.outputs)]
    blocks, made, shape = [Block.seal(0, bytes(32), 0, (genesis,))], list(unspent), 0
    for height in range(1, n_records):
        txs = [chainfile.coinbase(height, BLOCK_SUBSIDY + 1000)]  # at most the cap
        for _ in range(1 + height % 3):
            n_in, n_out = _PADDING_SHAPES[shape % len(_PADDING_SHAPES)]
            shape += 1
            spent, unspent = unspent[:n_in], unspent[n_in:]
            share = (sum(out.amount for _, out in spent) - 1000) // n_out
            tx = StegoTransaction(tuple(TxInput(*op, out.field) for op, out in spent),
                                  tuple(TxOutput(rng.randbytes(20), share) for _ in range(n_out)),
                                  sum(out.amount for _, out in spent) - share * n_out)
            txs.append(tx)
            unspent += [((tx.txid, vout), out) for vout, out in enumerate(tx.outputs)]
        made += [((tx.txid, vout), out) for tx in txs for vout, out in enumerate(tx.outputs)]
        blocks.append(Block.seal(height, blocks[-1].block_hash, 600 * height, txs))
    lengths = {len(tx.serialize()) % 64 for block in blocks for tx in block.transactions[1:]}
    assert n_records < 8 or lengths >= {54, 55, 56, 57, 63, 0, 1}
    return chainfile.framed([block.serialize() for block in blocks]), [op for op, _ in made]


@pytest.fixture(scope="module")
def seeded_chain_file(km, tmp_path_factory):
    """The file of _seeded_chain, mined once for the module."""
    path = tmp_path_factory.mktemp("seeded") / "chain.bin"
    _seeded_chain(km, path)
    return path


@needs_ext
@pytest.mark.parametrize("hash_path", list(HASH_PATHS))
def test_connect_records_match_pure_on_each_hash_path(seeded_chain_file, hash_path):
    """On each of the kernel's SHA-256 paths, connect_records returns the
    pure backend's rows, issued total and refusal, and leaves the same
    table: on the seeded chain, on files of 1, 15, 16, 17 and 40 records
    whose transactions cross the padding boundaries, and on those files
    with one stored hash broken; a load then leaves the upper vector state
    clean."""
    _hash_path_or_skip(hash_path)
    full, outpoints = _padding_chain(40)
    ends = [0]
    for record in chainfile.records(full):
        ends.append(ends[-1] + 4 + len(record))
    seeded = seeded_chain_file.read_bytes()
    cases = [(seeded, chainfile.created_outpoints(Ledger.load(seeded_chain_file)))]
    for n_records in (1, 15, 16, 17, 40):
        data = full[:ends[n_records]]
        broken = bytearray(data)
        broken[ends[n_records] - 1] ^= 1  # the last record's stored hash
        cases += [(data, outpoints), (bytes(broken), outpoints)]
    pure, ext = backend.PureBackend(), backend.set_backend("ext")
    for data, made in cases:
        outcomes = []
        for be in (pure, ext):
            table = be.utxo_table(TxOutput)
            got = be.connect_records(table, data, 0, bytes(32), BLOCK_SUBSIDY)
            outcomes.append((got, _lookups(table, made), table.total()))
        assert outcomes[0] == outcomes[1]
    assert outcomes[0][0][2] == ("hash", 39)
    Ledger.load(seeded_chain_file)
    assert kernel._upper_state() == 0


@needs_ext
def test_decompress_parity():
    """The kernel's decompress gives ec.decompress's point, or its
    ValueError text: for points of both y parities, x at and above p, an x
    whose x^3 + 7 is no square, bad prefix bytes, and lengths 0, 32 and
    34."""
    rng = random.Random(2828)
    ext = backend.set_backend("ext")
    points = [ec.mult_g(rng.randrange(1, ec.Q)) for _ in range(40)]
    assert {pt[1] & 1 for pt in points} == {0, 1}
    cases = [ec.compress(pt) for pt in points]
    cases += [bytes([prefix]) + x.to_bytes(32, "big")
              for prefix in (2, 3) for x in (ec.P, ec.P + 1, 2**256 - 1, ec.P - 1, 0, 5)]
    cases += [bytes([prefix]) + cases[0][1:] for prefix in (0, 1, 4, 6, 0xFF)]
    cases += [b"", cases[0][1:], cases[0] + b"\x00"]
    errors = set()
    for data in cases:
        outcomes = []
        for decompress in (ec.decompress, ext.decompress, backend.PureBackend().decompress):
            try:
                outcomes.append(decompress(data))
            except ValueError as exc:
                outcomes.append(str(exc))
        assert outcomes[0] == outcomes[1] == outcomes[2], data.hex()
        errors.add(outcomes[0] if isinstance(outcomes[0], str) else "point")
    assert errors == {"point", "bad compressed point encoding", "x coordinate out of range",
                      "point not on curve"}


@needs_ext
def test_mult_g_parity():
    """The kernel's mult_g gives ec.mult_g's point, None at infinity, for
    scalars at the edges of [0, q] and past it, and at random."""
    rng = random.Random(2626)
    ext = backend.set_backend("ext")
    scalars = [1, 2, ec.Q - 1, 0, ec.Q, ec.Q + 1, -1, 2**256 - 1, 2**256]
    for y in scalars + [rng.randrange(1, ec.Q) for _ in range(60)]:
        assert ext.mult_g(y) == ec.mult_g(y) == backend.PureBackend().mult_g(y), y


@needs_ext
def test_loaded_rows_are_untracked_and_the_utxo_set_is_one_object(km, tmp_path):
    """After an ext load the UTXO set is one object, which refers to no
    Python object, and the rows it builds on read are untracked; so are the
    rows and the inputs and outputs tuples of a block parsed on first read,
    and a collection frees none of it."""
    path = tmp_path / "chain.bin"
    backend.set_backend("ext")
    _seeded_chain(km, path)
    ledger = Ledger.load(path)
    assert not gc.is_tracked(ledger._utxos) and gc.get_referents(ledger._utxos) == []
    unspent = [out for out in map(ledger.utxo, chainfile.created_outpoints(ledger)) if out]
    assert len(unspent) > 1000 and not any(map(gc.is_tracked, unspent))
    txs = [tx for block in ledger.blocks for tx in block.transactions] + ledger.mempool
    assert ledger.mempool
    for tx in txs:
        assert not gc.is_tracked(tx.inputs) and not gc.is_tracked(tx.outputs)
        assert not any(map(gc.is_tracked, tx.inputs + tx.outputs))
    tip = ledger.blocks[-1].block_hash
    gc.collect()
    assert [b.serialize() for b in ledger.blocks] == chainfile.records(path.read_bytes())
    assert ledger.utxo_total() == ledger.total_supply()
    ledger.mine_block(NoiseProfile(rate=20.0), seed=31)
    ledger.save(path)
    again = Ledger.load(path)
    assert again.blocks[-2].block_hash == tip
    assert again.blocks[-1].block_hash == ledger.blocks[-1].block_hash
    assert again.utxo_total() == again.total_supply()


@needs_ext
def test_a_load_keeps_little_memory_per_utxo(km, tmp_path):
    """What Ledger.load of the seeded chain keeps, beyond its record bytes
    and 128 bytes per block, is under 200 bytes per unspent output, and it
    keeps fewer than 4 allocations per block, most of them the rows of the
    mempool's transactions: none per block or output, since a block's Block
    is made only when it is read (3.9 per block; 10.6 when each was made at
    load). A dict with a key and a row per output kept 254 bytes and 4.6
    allocations per output here."""
    path = tmp_path / "chain.bin"
    backend.set_backend("ext")
    _seeded_chain(km, path)
    records = chainfile.records(path.read_bytes())
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.take_snapshot()
        ledger = Ledger.load(path)
        kept = tracemalloc.take_snapshot().compare_to(before, "filename")
    finally:
        tracemalloc.stop()
    kept_bytes = sum(stat.size_diff for stat in kept)
    kept_blocks = sum(stat.count_diff for stat in kept)
    n_utxos = sum(out is not None for out in map(ledger.utxo, chainfile.created_outpoints(ledger)))
    assert n_utxos > 1000
    assert kept_bytes - sum(map(len, records)) - 128 * len(records) < 200 * n_utxos
    assert kept_blocks < 4 * len(records)


@needs_ext
def test_backend_selection_env():
    assert backend.set_backend("pure").name == "pure"
    assert backend.set_backend("ext").name == "ext"
    assert backend.set_backend("auto").name == "ext"
    with pytest.raises(ValueError):
        backend.set_backend("gpu")


@needs_ext
def test_bench_attempts_identical_across_backends(capsys):
    from chainsteg.cli import main

    assert main(["--seed", "7", "bench", "--m", "3,5", "--runs", "25",
                 "--backend", "both", "--json"]) == 0
    # stdout holds the JSON and nothing else
    pure, ext = json.loads(capsys.readouterr().out)
    assert (pure["backend"], ext["backend"]) == ("pure", "ext")
    for rp, re_ in zip(pure["rows"], ext["rows"], strict=True):
        assert rp["mean_attempts"] == re_["mean_attempts"]
        assert rp["std_error"] == re_["std_error"]
