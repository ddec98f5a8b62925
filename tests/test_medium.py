import math
import random
from collections import Counter

import pytest

from chainsteg import backend, medium
from chainsteg.bitio import int_to_bits
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
    capacity,
    effective_capacity,
    embed,
    expected_rank_bits,
    extract,
    grind,
    group_size,
    split_payloads,
)
from chainsteg.session import SessionState


def make_state(km, cfg, seed=3):
    return SessionState(km, cfg, seed=seed)


def rand_bits(rng, count):
    return [rng.getrandbits(1) for _ in range(count)]


def next_payloads(state, cfg, rng, count=1):
    """Random payloads for the generation's next `count` MED transactions,
    each cut by split_payloads for its own signal counter."""
    gen = state.current
    return [
        split_payloads(gen.km.k, cfg, gen.next_signal["MED"] + i,
                       rand_bits(rng, max(cfg.n * cfg.m, 1)), rng)[0]
        for i in range(count)
    ]


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
    ChannelConfig(n=4, m=0, mode=Mode.PERMUTED)  # the pure order channel
    with pytest.raises(ValidationError):
        ChannelConfig(n=4, m=4, bit_selector=(0, 1, 2))  # wrong length
    with pytest.raises(ValidationError):
        ChannelConfig(n=4, m=3, bit_selector=(0, 1, 1))
    with pytest.raises(ValidationError):
        ChannelConfig(n=4, m=3, bit_selector=(0, 1, 160))
    assert ChannelConfig(n=4, m=3).selector == (2, 1, 0)


def test_capacity_report():
    cap = effective_capacity(ChannelConfig(n=5, m=15))
    assert abs(cap.paper - 81.9069) < 1e-3
    assert cap.ordered == 75
    assert 75 < cap.permuted < 75.001  # ties among 5 chunks of 15 bits are rare
    cap48 = effective_capacity(ChannelConfig(n=4, m=8))
    assert abs(cap48.paper - (32 + math.log2(24))) < 1e-9
    assert cap48.ordered == 32
    # one pair ties with probability ~6/256, and carries floor(log2 2!) = 1 bit
    assert 32 < cap48.permuted < 32.03
    # m = 0: every chunk ties, so the order alone carries floor(log2 n!) bits
    assert capacity(5, 0).permuted == 6 and capacity(20, 0).permuted == 61
    # n = 2: the two chunks tie with probability 2^-m, for 1 bit
    assert all(expected_rank_bits(2, m) == 2.0**-m for m in range(12))
    # PERMUTED never carries less than ORDERED
    assert all(capacity(n, m).permuted >= n * m for n in range(2, 21) for m in range(7))


def test_expected_rank_bits_is_exact():
    """The partition sum equals a count over every chunk sequence."""
    for n, m in [(3, 2), (4, 2), (5, 1), (3, 3)]:
        total = 0
        for seq in range(2 ** (n * m)):
            values = [(seq >> (m * i)) & ((1 << m) - 1) for i in range(n)]
            counts = Counter(values).values()
            total += math.prod(map(math.factorial, counts)).bit_length() - 1
        assert expected_rank_bits(n, m) == pytest.approx(total / 2 ** (n * m), abs=1e-12)


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
        embed(state.current, [[1] * cfg.n * cfg.m], cfg, state.rng)
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
    # a payload equal to its keystream makes every chunk zero: the one scan
    # must still give each its own counter and digest
    cfg = ChannelConfig(n=4, m=2)
    state = make_state(km, cfg)
    payload = int_to_bits(medium._keystream(km.k, 1, 8), 8)
    [result] = embed(state.current, [payload], cfg, state.rng)
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
        start = state.current.next_grind
        [result] = embed(state.current, next_payloads(state, cfg, rng), cfg, state.rng)
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
        start = state.current.next_grind
        payloads = next_payloads(state, cfg, rng, 4)
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
# embed / extract

def test_embed_ordered_spec_example(km):
    # n=2, m=1, payload bits "10": the output LSBs are those bits XOR the
    # first two keystream bits of MED counter 1
    cfg = ChannelConfig(n=2, m=1, mode=Mode.ORDERED)
    state = make_state(km, cfg)
    [result] = embed(state.current, [[1, 0]], cfg, state.rng)
    lsb = [o.field[-1] & 1 for o in result.stego_outputs]
    stream = medium._keystream(km.k, 1, 2)
    assert lsb == [1 ^ (stream >> 1), stream & 1]


@pytest.mark.parametrize("mode,n,m", [
    (Mode.ORDERED, 3, 4),
    (Mode.ORDERED, 2, 1),
    (Mode.PERMUTED, 4, 6),
    (Mode.PERMUTED, 3, 3),
    (Mode.PERMUTED, 8, 2),  # 8 chunks over 4 values: ties in every transaction
    (Mode.PERMUTED, 5, 0),  # one value: the order alone, floor(log2 5!) = 6 bits
])
def test_embed_extract_roundtrip(km, mode, n, m):
    cfg = ChannelConfig(n=n, m=m, mode=mode)
    state = make_state(km, cfg, seed=5 if mode is Mode.PERMUTED else 4)
    rng = random.Random(77)
    sizes = []
    for trial in range(12):
        [payload] = next_payloads(state, cfg, rng)
        [result] = embed(state.current, [payload], cfg, state.rng)
        tx = result.transaction()
        assert extract(tx, km, cfg, result.counter) == payload
        sizes.append(len(payload))
        state.current.next_signal["MED"] += 1
    if mode is Mode.PERMUTED and n > 2**m:
        assert min(sizes) > n * m  # every transaction has a tie
    if m == 0:
        assert sizes == [6] * 12


def test_split_payloads_cuts_each_counter_its_own_size(km):
    cfg = ChannelConfig(n=8, m=2, mode=Mode.PERMUTED)
    rng = random.Random(3)
    bits = rand_bits(rng, 500)
    payloads = split_payloads(km.k, cfg, 7, bits, rng)
    assert sum(map(len, payloads[:-1])) < len(bits) <= sum(map(len, payloads))
    assert [b for p in payloads for b in p][: len(bits)] == bits
    assert len({len(p) for p in payloads}) > 1
    state = make_state(km, cfg)
    state.current.next_signal["MED"] = 7
    embed(state.current, payloads[:2], cfg, state.rng)  # each fits its counter
    with pytest.raises(ValidationError):
        embed(state.current, payloads[1:3], cfg, state.rng)  # one counter off
    with pytest.raises(ValidationError):
        split_payloads(km.k, ChannelConfig(n=4, m=0), 1, [1], rng)  # carries nothing


def test_embed_outputs_rederive(km, permuted_cfg):
    state = make_state(km, permuted_cfg)
    rng = random.Random(6)
    be = backend.get()
    [result] = embed(state.current, next_payloads(state, permuted_cfg, rng),
                     permuted_cfg, state.rng)
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
        embed(state.current, [[2] * ordered_cfg.n * ordered_cfg.m], ordered_cfg, state.rng)


def test_extract_wrong_key_does_not_return_payload(km):
    rng = random.Random(8)
    agree = total = 0
    for mode in Mode:
        cfg = ChannelConfig(n=4, m=6, mode=mode)
        state = make_state(km, cfg)
        for trial in range(10):
            [payload] = next_payloads(state, cfg, rng)
            [result] = embed(state.current, [payload], cfg, state.rng)
            tx = result.transaction()
            wrong = KeyMaterial.generate(random.Random(1000 + trial))
            got = extract(tx, wrong, cfg, result.counter)
            assert got != payload and extract(tx, km, cfg, result.counter) == payload
            agree += sum(a == b for a, b in zip(got, payload))
            total += len(payload)
            state.current.next_signal["MED"] += 1
    # the wrong keystream leaves each bit right about half the time
    assert 0.4 < agree / total < 0.6


def test_extract_rejects_tie_rank_past_its_bits(km):
    # m = 0, n = 3: 3! = 6 orders carry 2 bits, so ranks 4 and 5 never occur
    cfg = ChannelConfig(n=3, m=0, mode=Mode.PERMUTED)
    state = make_state(km, cfg)
    [result] = embed(state.current, [[1, 1]], cfg, state.rng)
    tx = result.transaction()
    stego = sorted(tx.outputs[:3], key=lambda o: o.field, reverse=True)  # rank 5
    with pytest.raises(PermutationMismatch):
        extract(StegoTransaction(tx.inputs, (*stego, tx.outputs[3]), tx.fee), km, cfg, 1)


def test_no_message_bits_in_the_clear(km):
    # all-zero message bits: without the keystream every chunk would be 0
    cfg = ChannelConfig(n=5, m=8, mode=Mode.ORDERED)
    state = make_state(km, cfg)
    [result] = embed(state.current, [[0] * 40], cfg, state.rng)
    values = [backend.select_bits(o.field, cfg.selector) for o in result.stego_outputs]
    assert values == list(medium._keystream(km.k, 1, 40).to_bytes(5, "big"))


def test_extract_structural_errors(km, ordered_cfg):
    state = make_state(km, ordered_cfg)
    rng = random.Random(10)
    payload = rand_bits(rng, ordered_cfg.n * ordered_cfg.m)
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
    payload = rand_bits(rng, ordered_cfg.n * ordered_cfg.m)
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
        [result] = embed(state.current, next_payloads(state, permuted_cfg, rng),
                         permuted_cfg, state.rng)
        counters = sorted(r.index.counter for r in result.grind_records)
        assert counters[0] > last
        last = max(max(counters), result.change_index.counter)
        state.current.next_signal["MED"] += 1
