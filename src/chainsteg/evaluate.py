"""The paper's evaluation: the grinding effort of the medium channel (the
2^m law), the capacity of each mode, and what a steganalyzer sees, as A/B
statistics of stego against decoy traffic. The stego transactions are
labelled from the keys alone, as a receiver finds them, so the statistics
need no record of what was sent. Wall-clock numbers are reported, never
asserted; they are hardware-bound."""

from __future__ import annotations

import math
import random
import time
from dataclasses import dataclass

from . import backend, stats
from .errors import InsufficientSample, ValidationError
from .hdw import Channel, KeyMaterial
from .ledger import Ledger
from .medium import ChannelConfig, Chunk, capacity, grind
from .session import SessionState

# significance level of every test in the steganalysis suite
ALPHA = 0.01


def bench_grind(m_values, runs: int, seed: int = 0, backend_name: str | None = None) -> dict:
    """Mean grinding attempts per m over `runs` random targets each, on the
    named backend, or on the active one (`backend.get()`) when None.

    Returns {"backend", "rows", "ratios"}: one row dict per m, and the ratio
    of each row's mean attempts to the previous row's."""
    if runs < 1:
        raise ValidationError("runs must be >= 1")
    prev = backend.get()
    be = prev if backend_name is None else backend.set_backend(backend_name)
    try:
        rng = random.Random(seed)
        km = KeyMaterial.generate(rng)
        rows = []
        for m in m_values:
            cfg = ChannelConfig(n=2, m=m, grind_cap=2 ** (m + 12))
            attempts = []
            start = 1
            t0 = time.perf_counter()
            for _ in range(runs):
                target = Chunk(bits=rng.randrange(2**m) if m else 0)
                result = grind(km, target, cfg, start)
                attempts.append(result.attempts)
                start = result.index.counter + 1
            wall = time.perf_counter() - t0
            total = sum(attempts)
            mean = total / runs
            var = sum((a - mean) ** 2 for a in attempts) / max(runs - 1, 1)
            rows.append({
                "m": m,
                "runs": runs,
                "mean_attempts": mean,
                "expected": float(2**m),
                "std_error": math.sqrt(var / runs),
                "wall_per_attempt_us": wall / total * 1e6,
                "est_seconds_per_address": wall / runs,
            })
        ratios = [cur["mean_attempts"] / prev_row["mean_attempts"]
                  for prev_row, cur in zip(rows, rows[1:])]
        return {"backend": be.name, "rows": rows, "ratios": ratios}
    finally:
        backend.set_backend(prev.name)


def bench_text(reports: list[dict]) -> str:
    """CSV-like text of `bench_grind` reports, and the wall-clock speedup of
    the second backend over the first when there are two."""
    lines = []
    for report in reports:
        rows = report["rows"]
        lines.append(f"grinding effort ({report['backend']} backend)")
        lines.append("m,runs,mean_attempts,expected_2^m,std_error,"
                     "wall_us_per_attempt,est_s_per_address")
        for r in rows:
            lines.append(
                f"{r['m']},{r['runs']},{r['mean_attempts']:.2f},{r['expected']:.0f},"
                f"{r['std_error']:.2f},{r['wall_per_attempt_us']:.2f},"
                f"{r['est_seconds_per_address']:.4f}"
            )
        for prev, cur, ratio in zip(rows, rows[1:], report["ratios"]):
            step = cur["m"] - prev["m"]
            lines.append(
                f"ratio m={prev['m']}->m={cur['m']}: {ratio:.2f} (2^{step} = {2 ** step})"
            )
    if len(reports) == 2:
        first, second = reports
        speedup = (first["rows"][-1]["wall_per_attempt_us"]
                   / second["rows"][-1]["wall_per_attempt_us"])
        lines.append(f"backend speedup ({second['backend']} vs {first['backend']}): "
                     f"{speedup:.1f}x")
    return "\n".join(lines)


def capacity_table(n_range, m_range) -> str:
    """CSV capacity grid: the paper's formula, then the bits per transaction
    of each mode, PERMUTED as a mean over uniform chunk values (see
    medium.capacity)."""
    lines = ["n,m,paper_bits,ordered_bits,permuted_bits"]
    for n in n_range:
        for m in m_range:
            cap = capacity(n, m)
            lines.append(f"{n},{m},{cap.paper:.4f},{cap.ordered},{cap.permuted:.4f}")
    return "\n".join(lines)


# the A/B p-values of a StatSuiteReport, in the order `to_text` prints them
_AB_FIELDS = ("med_ab_chi_p", "med_ab_monobit_p", "high_ab_chi_p", "high_ab_monobit_p")


@dataclass
class StatSuiteReport:
    med_ab_chi_p: float | None
    med_ab_monobit_p: float | None
    high_ab_chi_p: float | None
    high_ab_monobit_p: float | None
    chunk_values: int
    chunk_bins: int
    # None with fewer than 10 chunk values (two bins of 5)
    chunk_uniform_p: float | None

    def chunk_flagged(self) -> bool:
        return self.chunk_uniform_p is not None and self.chunk_uniform_p < ALPHA

    def passed(self) -> bool:
        values = [getattr(self, name) for name in _AB_FIELDS]
        if all(v is None for v in values):
            raise InsufficientSample("no A/B comparison possible")
        return all(v is None or v >= ALPHA for v in values) and not self.chunk_flagged()

    def to_text(self) -> str:
        def fmt(v):
            return "n/a" if v is None else f"{v:.4f}"

        lines = ["indistinguishability suite (A/B stego vs decoy)"]
        lines += [f"{name}={fmt(getattr(self, name))}" for name in _AB_FIELDS]
        lines.append(
            f"chunk_uniform_test values={self.chunk_values} bins={self.chunk_bins} "
            f"p={fmt(self.chunk_uniform_p)} flagged={self.chunk_flagged()}"
        )
        lines.append(f"verdict={'pass' if self.passed() else 'FAIL'} at alpha={ALPHA}")
        return "\n".join(lines)


def _ab_p(fields: bytes, decoys: bytes) -> tuple[float | None, float | None]:
    """Two-sample chi-square and monobit p-values of fields against decoys;
    None for both when either side holds less than 1 kB."""
    if len(fields) < 1024 or len(decoys) < 1024:
        return None, None
    return stats.two_sample_bytes_p(fields, decoys), stats.two_sample_monobit_p(fields, decoys)


def stat_suite(ledger: Ledger, state: SessionState, min_sample: int = 100) -> StatSuiteReport:
    """A/B statistics of the digests and fields of the session's stego
    transactions against the other non-coinbase transactions on the chain,
    the decoys, and a keyless chi-square of the MED transactions' selected
    chunk values against uniform.

    The stego transactions are labelled from the keys, as a receive finds
    them: per generation and channel, the signal address of every counter
    below its next_signal is derived and looked up among the chain's input
    addresses. So a sender and a receiver that has scanned the chain label
    the same transactions. Each MED transaction is read under the config it
    was sent with: its generation's config at its MED counter."""
    index = ledger.input_index(0)
    be = backend.get()
    stego = {}  # txid -> a MED transaction's config, None for a HIGH one
    for gen in state.generations:
        for channel in Channel:
            for counter in range(1, gen.next_signal[channel.name]):
                txs = index.get(be.derive_digest(gen.km.k, channel.value, counter, gen.km.gy))
                if txs:
                    stego[txs[0].txid] = gen.cfg_at(counter) if channel is Channel.MED else None
    med_txs, high_txs, decoys = [], [], []
    for block in ledger.blocks:
        for tx in block.transactions[1:]:
            if tx.txid not in stego:
                decoys.append(tx)
            elif stego[tx.txid] is None:
                high_txs.append(tx)
            else:
                med_txs.append((tx, stego[tx.txid]))
    n_stego_txs = len(med_txs) + len(high_txs)
    if n_stego_txs < min_sample or len(decoys) < min_sample:
        raise InsufficientSample(
            f"need >= {min_sample} stego and decoy transactions, "
            f"got {n_stego_txs} and {len(decoys)}"
        )
    decoy_blob = b"".join(o.field for tx in decoys for o in tx.outputs)
    med_fields = [(o.field, cfg) for tx, cfg in med_txs for o in tx.outputs[: cfg.n]]
    med_p = _ab_p(b"".join(field for field, _ in med_fields), decoy_blob)
    high_p = _ab_p(b"".join(o.field for tx in high_txs for o in tx.outputs[:-1]), decoy_blob)
    # what an observer without the key reads: the selected chunk values,
    # binned by their top b bits so that each of the 2^b bins expects >= 5;
    # b is at most the narrowest chunk's m
    b = min([cfg.m for _, cfg in med_fields] + [(len(med_fields) // 5).bit_length() - 1])
    return StatSuiteReport(
        *med_p,
        *high_p,
        chunk_values=len(med_fields),
        chunk_bins=2**b if b > 0 else 0,
        chunk_uniform_p=(
            stats.uniform_chi_p(
                [backend.select_bits(field, cfg.selector) >> (cfg.m - b)
                 for field, cfg in med_fields], 2**b
            ) if b > 0 else None
        ),
    )
