import math
import random
from collections import Counter

import pytest

from chainsteg import backend
from chainsteg.errors import (
    GrindExhausted,
    PermutationMismatch,
    TagCorruption,
    ValidationError,
)
from chainsteg.hdw import DOMAIN_GRIND, KeyMaterial
from chainsteg.ledger import StegoTransaction, TxInput, TxOutput
from chainsteg.medium import (
    ChannelConfig,
    Chunk,
    Mode,
    effective_capacity,
    embed,
    extract,
    grind,
    group_size,
    masked_slot_tags,
    med_counter_usable,
    next_usable_counter,
    payload_bits_per_tx,
)
from chainsteg.session import SessionState


def make_state(km, cfg, seed=3):
    return SessionState(km, cfg, seed=seed)


def rand_bits(rng, count):
    return [rng.getrandbits(1) for _ in range(count)]


# ---------------------------------------------------------------------------
# configuration

def test_config_validation():
    ChannelConfig(n=2, m=0)  # degenerate edge allowed for grind tests
    with pytest.raises(ValidationError):
        ChannelConfig(n=1, m=4)
    with pytest.raises(ValidationError):
        ChannelConfig(n=21, m=4)
    with pytest.raises(ValidationError):
        ChannelConfig(n=4, m=25)
    with pytest.raises(ValidationError):
        ChannelConfig(n=4, m=2, mode=Mode.PERMUTED)  # m <= ceil(log2 n)
    with pytest.raises(ValidationError):
        ChannelConfig(n=4, m=4, bit_selector=(0, 1, 2))  # wrong length
    with pytest.raises(ValidationError):
        ChannelConfig(n=4, m=3, bit_selector=(0, 1, 1))
    with pytest.raises(ValidationError):
        ChannelConfig(n=4, m=3, bit_selector=(0, 1, 160))
    assert ChannelConfig(n=4, m=3).selector == (2, 1, 0)
    assert ChannelConfig(n=5, m=15).tag_bits == 3
    assert ChannelConfig(n=4, m=8).tag_bits == 2


def test_capacity_report():
    cap = effective_capacity(ChannelConfig(n=5, m=15))
    assert abs(cap.paper - 81.9069) < 1e-3
    assert cap.ordered == 75
    assert cap.permuted == 66  # 5*(15-3) + floor(log2 120)
    cap48 = effective_capacity(ChannelConfig(n=4, m=8))
    assert abs(cap48.paper - (32 + math.log2(24))) < 1e-9
    assert cap48.ordered == 32
    assert cap48.permuted == 4 * 6 + 4
    assert effective_capacity(ChannelConfig(n=4, m=2)).permuted is None


# ---------------------------------------------------------------------------
# grinding

def test_grind_empty_selector_accepts_first(km):
    cfg = ChannelConfig(n=2, m=0)
    result = grind(km, Chunk(bits=0, slot=0), cfg, start_index=7)
    assert result.attempts == 1
    assert result.index.counter == 7


def test_grind_deterministic(km):
    cfg = ChannelConfig(n=2, m=6)
    a = grind(km, Chunk(bits=33, slot=0), cfg, start_index=1)
    b = grind(km, Chunk(bits=33, slot=0), cfg, start_index=1)
    assert a == b


def test_grind_finds_target_bits(km):
    rng = random.Random(5)
    be = backend.get()
    for m in (1, 4, 8):
        cfg = ChannelConfig(n=2, m=m)
        target = rng.randrange(2**m)
        result = grind(km, Chunk(bits=target, slot=0), cfg, rng.randint(1, 10**6))
        assert backend.select_bits(result.address.digest, cfg.selector) == target
        # the returned address re-derives from its recorded index
        digest = be.derive_digest(km.k, DOMAIN_GRIND, result.index.counter, km.gy)
        assert digest == result.address.digest


def test_grind_respects_custom_selector(km):
    sel = (159, 100, 7)  # arbitrary distinct positions
    cfg = ChannelConfig(n=2, m=3, bit_selector=sel)
    result = grind(km, Chunk(bits=0b101, slot=0), cfg, 1)
    assert backend.select_bits(result.address.digest, sel) == 0b101


def test_grind_exhaustion(km):
    cfg = ChannelConfig(n=2, m=12, grind_cap=4)
    with pytest.raises(GrindExhausted) as info:
        # some 12-bit target will not appear within 4 attempts
        rng = random.Random(1)
        for _ in range(60):
            grind(km, Chunk(bits=rng.randrange(4096), slot=0), cfg,
                  rng.randint(1, 10**6))
    assert info.value.next_counter is not None
    # the cap bounds a transaction's one scan; a failed scan consumes no counter
    state = make_state(km, cfg)
    with pytest.raises(GrindExhausted) as info:
        embed(state.current, [[1] * payload_bits_per_tx(cfg)], cfg, state.rng)
    assert info.value.next_counter == 1 + cfg.grind_cap
    assert state.current.next_grind == 1


def test_grind_smallest_counter(km):
    # scanning from 1 with a permissive target must match counter of the
    # first digest whose selected bit equals the target
    cfg = ChannelConfig(n=2, m=1)
    be = backend.get()
    r0 = grind(km, Chunk(bits=0, slot=0), cfg, 1)
    r1 = grind(km, Chunk(bits=1, slot=0), cfg, 1)
    assert {r0.index.counter, r1.index.counter} == {1, 2} or min(
        r0.index.counter, r1.index.counter
    ) == 1
    first = be.derive_digest(km.k, DOMAIN_GRIND, 1, km.gy)
    bit = backend.select_bits(first, (0,))
    assert (r0 if bit == 0 else r1).index.counter == 1


def test_grind_effort_small_scale(km):
    # coarse 2^m check; the acceptance suite runs the full 3-sigma version
    rng = random.Random(9)
    cfg = ChannelConfig(n=2, m=4)
    attempts = []
    start = 1
    for _ in range(200):
        r = grind(km, Chunk(bits=rng.randrange(16), slot=0), cfg, start)
        attempts.append(r.attempts)
        start = r.index.counter + 1
    mean = sum(attempts) / len(attempts)
    assert 16 * 0.7 < mean < 16 * 1.4


def test_equal_chunks_get_distinct_counters(km):
    # an all-zero payload makes every chunk the same value: the one scan
    # must still give each its own counter and digest
    cfg = ChannelConfig(n=4, m=2)
    state = make_state(km, cfg)
    [result] = embed(state.current, [[0] * payload_bits_per_tx(cfg)], cfg, state.rng)
    counters = [r.index.counter for r in result.grind_records]
    digests = [r.address.digest for r in result.grind_records]
    assert counters == sorted(set(counters))
    assert len(set(digests)) == cfg.n
    assert all(backend.select_bits(d, cfg.selector) == 0 for d in digests)
    # the change takes the scan's first non-hit counter; next_grind passes the last hit
    first_spare = min(set(range(1, counters[-1])) - set(counters))
    assert result.change_index.counter == first_spare
    assert state.current.next_grind == counters[-1] + 1


@pytest.mark.parametrize("mode", [Mode.ORDERED, Mode.PERMUTED])
def test_embed_attempts_follow_harmonic_law(km, mode):
    # one scan per transaction: ~2^m * H_n attempts, not n * 2^m
    cfg = ChannelConfig(n=5, m=4, mode=mode)
    state = make_state(km, cfg)
    rng = random.Random(14)
    attempts = []
    for _ in range(200):
        state.current.next_signal["MED"] = next_usable_counter(
            km.k, state.current.next_signal["MED"], cfg
        )
        start = state.current.next_grind
        [result] = embed(state.current, [rand_bits(rng, payload_bits_per_tx(cfg))], cfg, state.rng)
        attempts.append(max(r.index.counter for r in result.grind_records) - start + 1)
        state.current.next_signal["MED"] += 1
    law = 2**cfg.m * sum(1 / i for i in range(1, cfg.n + 1))
    mean = sum(attempts) / len(attempts)
    assert 0.7 * law < mean < 1.4 * law


def expected_scan_attempts(values, m):
    """Expected attempts of one scan for targets `values`: the scan ends
    when each value v needed c_v times has had c_v hits, at rate 2^-m per
    counter (Poisson approximation). With distinct values it is
    ~2^m * H_k for k targets."""
    needs = Counter(values).values()
    total, t = 0.0, 0
    while True:
        lam = t / 2**m
        done = math.prod(
            1 - math.exp(-lam) * sum(lam**i / math.factorial(i) for i in range(c))
            for c in needs
        )
        if done > 1 - 1e-9:
            return total
        total += 1 - done
        t += 1


@pytest.mark.parametrize("mode", [Mode.ORDERED, Mode.PERMUTED])
def test_group_attempts_follow_harmonic_law(km, mode):
    # one scan per group of 4 transactions: ~2^m * H_20 attempts, not
    # 4 * 2^m * H_5. At m = 4 the 20 chunk values over 16 must repeat, so
    # the law counts each value's repeats (~1.4 * 2^m * H_20 here).
    cfg = ChannelConfig(n=5, m=4, mode=mode)
    harmonic = 2**cfg.m * sum(1 / i for i in range(1, 21))
    assert 0.99 < expected_scan_attempts(range(20), cfg.m) / harmonic < 1.02
    state = make_state(km, cfg)
    rng = random.Random(15)
    attempts, law = [], []
    for _ in range(100):
        state.current.next_signal["MED"] = next_usable_counter(
            km.k, state.current.next_signal["MED"], cfg
        )
        start = state.current.next_grind
        payloads = [rand_bits(rng, payload_bits_per_tx(cfg)) for _ in range(4)]
        results = embed(state.current, payloads, cfg, state.rng)
        assert len(results) == group_size(cfg) == 4
        digests = [r.address.digest for t in results for r in t.grind_records]
        counters = [r.index.counter for t in results for r in t.grind_records]
        attempts.append(max(counters) - start + 1)
        law.append(expected_scan_attempts(
            [backend.select_bits(d, cfg.selector) for d in digests], cfg.m))
        state.current.next_signal["MED"] = results[-1].counter + 1
    assert 0.7 * sum(law) < sum(attempts) < 1.4 * sum(law)
    assert sum(attempts) / len(attempts) < 4 * 2**cfg.m * sum(1 / i for i in range(1, 6)) / 1.5


# ---------------------------------------------------------------------------
# slot tags

def test_masked_slot_tags_deterministic(km):
    for counter in range(1, 40):
        tags = masked_slot_tags(km.k, counter, 5, 3)
        assert all(0 <= t < 8 for t in tags)
        assert tags == masked_slot_tags(km.k, counter, 5, 3)
    streams = {tuple(masked_slot_tags(km.k, c, 5, 3)) for c in range(1, 40)}
    assert len(streams) > 1


def test_counter_usability(km):
    cfg = ChannelConfig(n=5, m=6, mode=Mode.PERMUTED)
    usable = sum(
        med_counter_usable(km.k, c, cfg) for c in range(1, 2001)
    )
    # distinct-tag probability is 8*7*6*5*4/8^5 ~ 0.205
    assert 0.14 < usable / 2000 < 0.28
    c = next_usable_counter(km.k, 1, cfg)
    assert med_counter_usable(km.k, c, cfg)
    assert all(not med_counter_usable(km.k, x, cfg) for x in range(1, c))
    # ORDERED mode uses every counter
    assert med_counter_usable(km.k, 1, ChannelConfig(n=5, m=6, mode=Mode.ORDERED))


# ---------------------------------------------------------------------------
# embed / extract

def test_embed_ordered_spec_example(km):
    # n=2, m=1, payload bits "10": first output LSB 1, second LSB 0
    cfg = ChannelConfig(n=2, m=1, mode=Mode.ORDERED)
    state = make_state(km, cfg)
    [result] = embed(state.current, [[1, 0]], cfg, state.rng)
    lsb = [o.field[-1] & 1 for o in result.stego_outputs]
    assert lsb == [1, 0]


@pytest.mark.parametrize("mode,n,m", [
    (Mode.ORDERED, 3, 4),
    (Mode.ORDERED, 2, 1),
    (Mode.PERMUTED, 4, 6),
    (Mode.PERMUTED, 3, 3),
])
def test_embed_extract_roundtrip(km, mode, n, m):
    cfg = ChannelConfig(n=n, m=m, mode=mode)
    state = make_state(km, cfg, seed=5 if mode is Mode.PERMUTED else 4)
    rng = random.Random(77)
    cap = payload_bits_per_tx(cfg)
    for trial in range(12):
        payload = rand_bits(rng, cap)
        state.current.next_signal["MED"] = next_usable_counter(
            km.k, state.current.next_signal["MED"], cfg
        )
        [result] = embed(state.current, [payload], cfg, state.rng)
        tx = result.transaction()
        assert extract(tx, km, cfg, result.counter) == payload
        state.current.next_signal["MED"] += 1


def test_embed_outputs_rederive(km, permuted_cfg):
    state = make_state(km, permuted_cfg)
    rng = random.Random(6)
    be = backend.get()
    payload = rand_bits(rng, payload_bits_per_tx(permuted_cfg))
    state.current.next_signal["MED"] = next_usable_counter(
        km.k, 1, permuted_cfg
    )
    [result] = embed(state.current, [payload], permuted_cfg, state.rng)
    for out, rec in zip(result.stego_outputs, result.grind_records):
        assert out.field == rec.address.digest
        assert be.derive_digest(km.k, DOMAIN_GRIND, rec.index.counter, km.gy) == out.field
    # change re-derives too
    assert (
        be.derive_digest(km.k, DOMAIN_GRIND, result.change_index.counter, km.gy)
        == result.change_output.field
    )


def test_embed_validates_payload(km, ordered_cfg):
    state = make_state(km, ordered_cfg)
    with pytest.raises(ValidationError):
        embed(state.current, [[1, 0]], ordered_cfg, state.rng)  # wrong length
    with pytest.raises(ValidationError):
        embed(state.current, [[2] * payload_bits_per_tx(ordered_cfg)], ordered_cfg, state.rng)


def test_extract_wrong_key_tag_corruption(km, permuted_cfg):
    state = make_state(km, permuted_cfg)
    rng = random.Random(8)
    corrupted = 0
    trials = 20
    for trial in range(trials):
        payload = rand_bits(rng, payload_bits_per_tx(permuted_cfg))
        state.current.next_signal["MED"] = next_usable_counter(
            km.k, state.current.next_signal["MED"], permuted_cfg
        )
        [result] = embed(state.current, [payload], permuted_cfg, state.rng)
        tx = result.transaction()
        wrong = KeyMaterial.generate(random.Random(1000 + trial))
        try:
            extract(tx, wrong, permuted_cfg, result.counter)
            corrupted += 0
        except (TagCorruption, PermutationMismatch):
            corrupted += 1
        state.current.next_signal["MED"] += 1
    # 1 - n! * 2^(-t*n) = 1 - 24/256 ~ 0.906 per trial for n=4, t=2
    assert corrupted >= trials * 2 // 3


def test_extract_structural_errors(km, ordered_cfg):
    state = make_state(km, ordered_cfg)
    rng = random.Random(10)
    payload = rand_bits(rng, payload_bits_per_tx(ordered_cfg))
    [result] = embed(state.current, [payload], ordered_cfg, state.rng)
    tx = result.transaction()
    with pytest.raises(TagCorruption):  # wrong output count
        short = StegoTransaction(tx.inputs, tx.outputs[:-2], tx.fee)
        extract(short, km, ordered_cfg, result.counter)
    dup = StegoTransaction(
        tx.inputs,
        (tx.outputs[0], tx.outputs[0], *tx.outputs[2:]),
        tx.fee,
    )
    with pytest.raises(PermutationMismatch):
        extract(dup, km, ordered_cfg, result.counter)


def test_extract_ignores_amounts(km, ordered_cfg):
    state = make_state(km, ordered_cfg)
    rng = random.Random(11)
    payload = rand_bits(rng, payload_bits_per_tx(ordered_cfg))
    [result] = embed(state.current, [payload], ordered_cfg, state.rng)
    tx = result.transaction()
    bumped = StegoTransaction(
        tx.inputs,
        tuple(TxOutput(o.field, o.amount + 5, o.kind) for o in tx.outputs),
        tx.fee,
    )
    assert extract(bumped, km, ordered_cfg, result.counter) == payload


def test_permuted_grind_counters_monotone(km, permuted_cfg):
    state = make_state(km, permuted_cfg)
    rng = random.Random(12)
    last = 0
    for _ in range(3):
        payload = rand_bits(rng, payload_bits_per_tx(permuted_cfg))
        state.current.next_signal["MED"] = next_usable_counter(
            km.k, state.current.next_signal["MED"], permuted_cfg
        )
        [result] = embed(state.current, [payload], permuted_cfg, state.rng)
        counters = sorted(r.index.counter for r in result.grind_records)
        assert counters[0] > last
        last = max(max(counters), result.change_index.counter)
        state.current.next_signal["MED"] += 1


def test_embed_unusable_counter_rejected(km):
    cfg = ChannelConfig(n=4, m=6, mode=Mode.PERMUTED)
    unusable = 1
    while med_counter_usable(km.k, unusable, cfg):
        unusable += 1
    state = make_state(km, cfg)
    state.current.next_signal["MED"] = unusable
    with pytest.raises(ValidationError):
        embed(state.current, [[0] * payload_bits_per_tx(cfg)], cfg, state.rng)
