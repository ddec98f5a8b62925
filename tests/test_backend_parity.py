import functools
import gc
import json
import random
import shutil
import subprocess
import sys
import sysconfig
import threading
from pathlib import Path

import pytest

import chainfile
import oracles
from chainsteg import Channel, ChannelConfig, Mode, NoiseProfile, backend, ec
from chainsteg.hdw import DOMAIN_GRIND, KeyMaterial
from chainsteg.ledger import Ledger, StegoTransaction, TxInput, TxOutput
from chainsteg.session import SessionState

needs_ext = pytest.mark.skipif(
    "ext" not in backend.available(), reason="compiled kernel not built"
)
kernel = getattr(backend, "_kernel", None)


def _cpu_has_ifma():
    """Whether the CPU flags the OS reports include avx512f and avx512ifma;
    None where /proc/cpuinfo cannot be read."""
    try:
        with open("/proc/cpuinfo") as f:
            flags = next((set(line.split(":", 1)[1].split()) for line in f
                          if line.startswith("flags")), set())
    except OSError:
        return None
    return {"avx512f", "avx512ifma"} <= flags


HAS_IFMA = _cpu_has_ifma()


@pytest.fixture(autouse=True)
def restore_backend():
    prev = backend.get()
    path = kernel._comb_path() if kernel is not None else None
    yield
    backend.set_backend(prev.name)
    if path is not None:
        kernel._comb_path(path)


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


@needs_ext
def test_microbench_times_each_comb_path():
    """Every row is timed; the IFMA rows read 0 where that path is missing."""
    timings = kernel._microbench(100)
    ifma = ("derive_ifma_ns", "fe_mul8_ns")
    assert set(timings) == {"fe_mul_ns", "jpt_add_ns", "fe_inv_ns", "sha256_ns", "ripemd_ns",
                            "derive_portable_ns", *ifma}
    for key, ns in timings.items():
        assert ns > 0 if key not in ifma or kernel._comb_path() == "ifma" else ns == 0


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
    """A UTXO dict and a block's transactions over it, each rule kept or, now
    and then, broken: an absent outpoint, another address, a balance one off.
    Amounts and fees span the u64 range, so sums pass 2^64."""
    utxos, known = {}, {}
    for _ in range(rng.randint(1, 4)):
        out = TxOutput(rng.randbytes(20), rng.choice([rng.randrange(1, 10**6), 2**64 - 1]))
        outpoint = (rng.randbytes(32), rng.randrange(3))
        utxos[outpoint] = known[outpoint] = out
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
    return utxos, txs


@needs_ext
def test_connect_parity():
    """On kept and broken rules, over rows made by Python and by the kernel,
    both backends leave the same UTXO dict, in the same order, and return the
    same fees or raise the same ValueError."""
    rng = random.Random(1919)
    pure, ext = backend.PureBackend(), backend.set_backend("ext")
    broken = 0
    for _ in range(400):
        utxos, txs = _connect_case(rng)
        if rng.random() < 0.5:
            data = b"".join(tx.serialize() for tx in txs)
            txs = ext.parse_transactions(data, 0, len(txs), StegoTransaction, TxInput,
                                         TxOutput)[0]
        outcomes = []
        for be in (pure, ext):
            after = dict(utxos)
            try:
                outcomes.append((be.connect(after, txs), list(after.items())))
            except ValueError as exc:
                outcomes.append((exc.args, list(after.items())))
        assert outcomes[0] == outcomes[1]
        broken += isinstance(outcomes[0][0], tuple)
    assert 40 < broken < 360


@needs_ext
@pytest.mark.parametrize("bad", [
    "transactions", "inputs", "short row", "txid", "prev_txid", "vout", "address",
    "output field", "amount", "fee", "utxo",
])
def test_connect_type_checks_what_it_reads(bad):
    """A foreign object where connect reads a row or a field raises
    TypeError, not a crash."""
    ext = backend.set_backend("ext")
    outpoint = (b"\x01" * 32, 0)
    spend = StegoTransaction((TxInput(*outpoint, b"\x02" * 20),),
                             (TxOutput(b"\x03" * 20, 4000),), 1000)
    row = spend.inputs[0]
    fields = vars(spend) | {"txid": spend.txid}
    edits = {
        "inputs": {"inputs": 7},
        "short row": {"inputs": (row[:2],)},
        "txid": {"txid": "ab"},
        "prev_txid": {"inputs": (row._replace(prev_txid=bytearray(32)),)},
        "vout": {"inputs": (row._replace(vout=0.0),)},
        "address": {"inputs": (row._replace(address=None),)},
        "output field": {"outputs": (TxOutput("x" * 20, 4000),)},
        "amount": {"outputs": (TxOutput(b"\x03" * 20, 4000.0),)},
        "fee": {"fee": "1000"},
    }
    tx = object.__new__(StegoTransaction)
    vars(tx).update(fields | edits.get(bad, {}))
    prev = [b"\x02" * 20, 5000, 0] if bad == "utxo" else TxOutput(b"\x02" * 20, 5000)
    with pytest.raises(TypeError):
        ext.connect({outpoint: prev},
                    5 if bad == "transactions" else (chainfile.coinbase(1), tx))
    utxos = {outpoint: TxOutput(b"\x02" * 20, 5000)}
    assert ext.connect(utxos, (chainfile.coinbase(1), spend)) == 1000
    assert [out.field for out in utxos.values()] == [b"\x05" * 20, b"\x03" * 20]


def _seeded_chain(km, path):
    """A seeded 30-block chain at decoy rate 20 that carries MED and HIGH
    sends, saved to `path` with one HIGH message left in its mempool; the
    ledger that mined it. Mining applies every block through the active
    backend's connect."""
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
    """Mined and loaded on each backend, a seeded chain gives the same UTXO
    dict in the same order, supply, decoy pool and tip."""
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
    utxos, supply, _, tip = loaded["ext"]
    assert (utxos, supply, tip) == (mined["ext"][0], mined["ext"][1], mined["ext"][3])
    assert len(utxos) > 1000 and len(mined["ext"][2]) > 30  # decoys spent the pool


@needs_ext
def test_loaded_rows_and_keys_are_untracked(km, tmp_path):
    """The kernel untracks what holds only bytes and ints: after an ext load
    the cyclic GC tracks no UTXO key or row that connect_record made, and no
    row or inputs or outputs tuple of a block parsed on first read, and a
    collection frees none of it."""
    path = tmp_path / "chain.bin"
    backend.set_backend("ext")
    _seeded_chain(km, path)
    ledger = Ledger.load(path)
    assert not any(map(gc.is_tracked, ledger._utxos))
    assert not any(map(gc.is_tracked, ledger._utxos.values()))
    txs = [tx for block in ledger.blocks for tx in block.transactions] + ledger.mempool
    assert ledger.mempool
    for tx in txs:
        assert not gc.is_tracked(tx.inputs) and not gc.is_tracked(tx.outputs)
        assert not any(map(gc.is_tracked, tx.inputs + tx.outputs))
    assert not any(map(gc.is_tracked, ledger._utxos))
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
