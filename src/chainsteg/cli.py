"""Command-line surface and evaluation harness.

Subcommands: keygen, send, scan, extract, mine, capacity, bench, stats,
export. Global flags --chain/--session/--seed/--config. Exit codes:
0 success, 2 validation error (including a missing, unreadable or malformed
chain, session, key, config or input file), 3 extraction or authentication
failure. Errors print one "error: ..." line, never a traceback.

The bench command reproduces the grinding-effort experiment (mean attempts
per embedded-bit count, the 2^m law) and can compare the compiled kernel
against the pure-Python backend. Wall-clock numbers are reported, never
asserted; they are hardware-bound.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import os
import sys
import time
from dataclasses import dataclass, field

from . import backend, stats
from .errors import (
    AuthError,
    ChainstegError,
    InsufficientSample,
    TagCorruption,
    ValidationError,
)
from .hdw import Channel, KeyMaterial, read_key_file, write_key_file
from .ledger import Ledger, NoiseProfile
from .medium import ChannelConfig, Chunk, Mode, effective_capacity, grind
from .session import SessionState


# ---------------------------------------------------------------------------
# Evaluation operations (usable as a library, exercised by the CLI)

@dataclass
class BenchRow:
    m: int
    runs: int
    mean_attempts: float
    expected: float  # 2^m
    std_error: float
    wall_per_attempt_us: float
    est_seconds_per_address: float


@dataclass
class BenchReport:
    backend_name: str
    rows: list[BenchRow] = field(default_factory=list)

    def ratios(self) -> list[float]:
        out = []
        for prev, cur in zip(self.rows, self.rows[1:]):
            out.append(cur.mean_attempts / prev.mean_attempts)
        return out

    def to_text(self) -> str:
        lines = [
            f"grinding effort ({self.backend_name} backend)",
            "m,runs,mean_attempts,expected_2^m,std_error,wall_us_per_attempt,est_s_per_address",
        ]
        for r in self.rows:
            lines.append(
                f"{r.m},{r.runs},{r.mean_attempts:.2f},{r.expected:.0f},"
                f"{r.std_error:.2f},{r.wall_per_attempt_us:.2f},"
                f"{r.est_seconds_per_address:.4f}"
            )
        for (prev, cur), ratio in zip(zip(self.rows, self.rows[1:]), self.ratios()):
            lines.append(
                f"ratio m={prev.m}->m={cur.m}: {ratio:.2f} "
                f"(2^{cur.m - prev.m} = {2 ** (cur.m - prev.m)})"
            )
        return "\n".join(lines)

    def to_json(self) -> dict:
        return {
            "backend": self.backend_name,
            "rows": [vars(r) for r in self.rows],
            "ratios": self.ratios(),
        }


def bench_grind(m_values, runs: int, seed: int = 0, backend_name: str = "auto") -> BenchReport:
    """Mean grinding attempts per m over `runs` random targets each."""
    import random

    if runs < 1:
        raise ValidationError("runs must be >= 1")
    prev = backend.get()
    be = backend.set_backend(backend_name)
    try:
        rng = random.Random(seed)
        km = KeyMaterial.generate(rng)
        report = BenchReport(backend_name=be.name)
        for m in m_values:
            cfg = ChannelConfig(n=2, m=m, grind_cap=2 ** (m + 12))
            attempts = []
            start = 1
            t0 = time.perf_counter()
            for _ in range(runs):
                target = Chunk(bits=rng.randrange(2**m) if m else 0, slot=0)
                result = grind(km, target, cfg, start)
                attempts.append(result.attempts)
                start = result.index.counter + 1
            wall = time.perf_counter() - t0
            total = sum(attempts)
            mean = total / runs
            var = sum((a - mean) ** 2 for a in attempts) / max(runs - 1, 1)
            report.rows.append(
                BenchRow(
                    m=m,
                    runs=runs,
                    mean_attempts=mean,
                    expected=float(2**m),
                    std_error=math.sqrt(var / runs),
                    wall_per_attempt_us=wall / total * 1e6,
                    est_seconds_per_address=wall / runs,
                )
            )
        return report
    finally:
        backend.set_backend(prev.name)


def capacity_table(n_range, m_range) -> str:
    """CSV capacity grid: the real-valued formula column plus the two
    implementable per-mode capacities."""
    lines = ["n,m,paper_bits,ordered_bits,permuted_bits"]
    for n in n_range:
        for m in m_range:
            paper = n * m + math.log2(math.factorial(n))
            ordered = n * m
            t = (n - 1).bit_length()
            if n >= 2 and m > t:
                cap = effective_capacity(ChannelConfig(n=n, m=m))
                permuted = str(cap.permuted)
            else:
                permuted = ""
            lines.append(f"{n},{m},{paper:.4f},{ordered},{permuted}")
    return "\n".join(lines)


@dataclass
class StatSuiteReport:
    med_ab_chi_p: float | None
    med_ab_monobit_p: float | None
    high_ab_chi_p: float | None
    high_ab_monobit_p: float | None
    tag_hits: int
    tag_trials: int
    tag_null_rate: float
    # None without trials, and at a null rate of 1 (n a power of two), where
    # every tag set is {0..n-1} and the test cannot flag anything
    tag_excess_p: float | None

    def tag_flagged(self, alpha: float = 0.01) -> bool:
        return self.tag_excess_p is not None and self.tag_excess_p < alpha

    def passed(self, alpha: float = 0.01) -> bool:
        values = [
            self.med_ab_chi_p,
            self.med_ab_monobit_p,
            self.high_ab_chi_p,
            self.high_ab_monobit_p,
        ]
        if all(v is None for v in values):
            raise InsufficientSample("no A/B comparison possible")
        ok = all(v is None or v >= alpha for v in values)
        return ok and not self.tag_flagged(alpha)

    def to_text(self, alpha: float = 0.01) -> str:
        def fmt(v):
            return "n/a" if v is None else f"{v:.4f}"

        lines = ["indistinguishability suite (A/B stego vs decoy)"]
        lines.append(f"med_ab_chi_p={fmt(self.med_ab_chi_p)}")
        lines.append(f"med_ab_monobit_p={fmt(self.med_ab_monobit_p)}")
        lines.append(f"high_ab_chi_p={fmt(self.high_ab_chi_p)}")
        lines.append(f"high_ab_monobit_p={fmt(self.high_ab_monobit_p)}")
        lines.append(
            f"tag_permutation_test hits={self.tag_hits}/{self.tag_trials} "
            f"null_rate={self.tag_null_rate:.5f} excess_p={fmt(self.tag_excess_p)} "
            f"flagged={self.tag_flagged(alpha)}"
        )
        lines.append(f"verdict={'pass' if self.passed(alpha) else 'FAIL'} at alpha={alpha}")
        return "\n".join(lines)


def observed_tag_set(tx, cfg: ChannelConfig) -> set[int] | None:
    """Top tag bits of the selected chunk per output; no key required."""
    if len(tx.outputs) < cfg.n:
        return None
    t = cfg.tag_bits
    sel = cfg.selector
    tags = set()
    for out in tx.outputs[: cfg.n]:
        chunk = backend.select_bits(out.field, sel)
        tags.add(chunk >> (cfg.m - t))
    return tags


def stat_suite(
    ledger: Ledger,
    stego_txids: set[bytes],
    channels: dict[bytes, str],
    cfg: ChannelConfig,
    min_sample: int = 100,
) -> StatSuiteReport:
    """A/B statistics of stego digests/fields against decoy traffic."""
    med_digests: list[bytes] = []
    high_fields: list[bytes] = []
    decoy_digests: list[bytes] = []
    tag_hits = 0
    tag_trials = 0
    n_stego_txs = 0
    for block in ledger.blocks:
        for tx in block.transactions[1:]:
            if tx.txid in stego_txids:
                n_stego_txs += 1
                chan = channels.get(tx.txid, "MED")
                if chan == "MED":
                    med_digests.extend(o.field for o in tx.outputs[: cfg.n])
                    if cfg.mode is Mode.PERMUTED:
                        tags = observed_tag_set(tx, cfg)
                        if tags is not None:
                            tag_trials += 1
                            if tags == set(range(cfg.n)):
                                tag_hits += 1
                else:
                    high_fields.extend(o.field for o in tx.outputs[:-1])
            else:
                decoy_digests.extend(o.field for o in tx.outputs)
    n_decoys = sum(
        1
        for block in ledger.blocks
        for tx in block.transactions[1:]
        if tx.txid not in stego_txids
    )
    if n_stego_txs < min_sample or n_decoys < min_sample:
        raise InsufficientSample(
            f"need >= {min_sample} stego and decoy transactions, "
            f"got {n_stego_txs} and {n_decoys}"
        )
    decoy_blob = b"".join(decoy_digests)
    med_blob = b"".join(med_digests)
    high_blob = b"".join(high_fields)
    med_ok = len(med_blob) >= 1024 and len(decoy_blob) >= 1024
    high_ok = len(high_blob) >= 1024 and len(decoy_blob) >= 1024
    t = cfg.tag_bits
    null_rate = 1.0 / math.comb(2**t, cfg.n) if cfg.n <= 2**t else 0.0
    report = StatSuiteReport(
        med_ab_chi_p=stats.two_sample_bytes_p(med_blob, decoy_blob) if med_ok else None,
        med_ab_monobit_p=stats.two_sample_monobit_p(med_blob, decoy_blob) if med_ok else None,
        high_ab_chi_p=stats.two_sample_bytes_p(high_blob, decoy_blob) if high_ok else None,
        high_ab_monobit_p=stats.two_sample_monobit_p(high_blob, decoy_blob) if high_ok else None,
        tag_hits=tag_hits,
        tag_trials=tag_trials,
        tag_null_rate=null_rate,
        tag_excess_p=(
            stats.binomial_excess_p(tag_hits, tag_trials, null_rate)
            if tag_trials and null_rate < 1 else None
        ),
    )
    return report


# ---------------------------------------------------------------------------
# Config files: UTF-8 "key = value" lines, one per ChannelConfig field; "#"
# starts a comment. A value is an integer (0x... allowed), a comma list of
# integers (a one-element list is written "5,"), none, or a word
# (case-insensitive), and reads as that entry of ChannelConfig.to_dict().

def _config_value(text: str):
    word = text.lower()
    if word == "none":
        return None
    if "," in text:
        return [int(v, 0) for v in text.split(",") if v.strip()]
    try:
        return int(text, 0)
    except ValueError:
        return word


def load_config(path) -> ChannelConfig:
    """Parse a config file; a malformed one raises ValidationError."""
    with open(path, "rb") as fh:
        raw = fh.read()
    names = {f.name for f in dataclasses.fields(ChannelConfig)}
    values = {}
    try:
        for line in raw.decode().splitlines():
            line = line.split("#", 1)[0].strip()
            if not line:
                continue
            key, sep, value = (part.strip() for part in line.partition("="))
            if not sep:
                raise ValidationError(f"expected 'key = value', got {line!r}")
            if key not in names:
                raise ValidationError(f"unknown config key {key!r}")
            values[key] = _config_value(value)
    except ValueError as exc:  # UnicodeDecodeError is a ValueError
        raise ValidationError(f"malformed config file: {exc}") from exc
    return ChannelConfig.from_dict(values)


# ---------------------------------------------------------------------------
# CLI plumbing

def _parse_range(text: str) -> list[int]:
    if ".." in text:
        lo, hi = text.split("..", 1)
        return list(range(int(lo), int(hi) + 1))
    return [int(v) for v in text.split(",")]


def _load_session(args, create_ok: bool = False) -> SessionState:
    if args.session and os.path.exists(args.session):
        return SessionState.load(args.session)
    if not create_ok:
        raise ValidationError("session file missing; run keygen and send first")
    if not args.key:
        raise ValidationError("--key required to start a new session")
    km = read_key_file(args.key)
    cfg = load_config(args.config) if args.config else ChannelConfig()
    return SessionState(km, cfg, seed=args.seed or 0)


def _save_session(args, state: SessionState) -> None:
    if args.session:
        state.save(args.session)


def _load_ledger(args, state: SessionState | None = None, create_ok: bool = False) -> Ledger:
    if args.chain and os.path.exists(args.chain):
        return Ledger.load(args.chain)
    if not create_ok:
        raise ValidationError("chain file missing")
    if state is not None:
        return state.genesis_ledger()
    return Ledger.create()


def _save_ledger(args, ledger: Ledger) -> None:
    if args.chain:
        ledger.save(args.chain)


def cmd_keygen(args) -> int:
    import random

    rng = random.Random(args.seed) if args.seed is not None else None
    km = KeyMaterial.generate(rng)
    write_key_file(args.out, km, include_private=True)
    if args.public_out:
        write_key_file(args.public_out, km.public_only(), include_private=False)
    print(f"wrote key material to {args.out}")
    return 0


def cmd_send(args) -> int:
    state = _load_session(args, create_ok=True)
    fresh_chain = not (args.chain and os.path.exists(args.chain))
    ledger = _load_ledger(args, state=state, create_ok=True)
    if fresh_chain and not state.wallet:
        raise ValidationError("new chain created but session wallet is empty")
    with open(args.infile, "rb") as fh:
        message = fh.read()
    channel = Channel.HIGH if args.channel == "high" else Channel.MED
    confirm = None
    if args.confirm_each:
        confirm = lambda: ledger.mine_block(  # noqa: E731
            NoiseProfile(rate=args.decoys), seed=args.seed or 0
        )
    txids = state.send_message(ledger, message, channel, confirm=confirm)
    for txid in txids:
        print(txid.hex())
    _save_ledger(args, ledger)
    _save_session(args, state)
    return 0


def cmd_scan(args) -> int:
    state = _load_session(args, create_ok=True)
    ledger = _load_ledger(args)
    before_quarantine = len(state.quarantine)
    messages = state.detect_and_receive(ledger)
    for chan, data in messages:
        print(f"{chan} message: {len(data)} bytes")
    new_bad = state.quarantine[before_quarantine:]
    for txid, err in new_bad:
        print(f"quarantined {txid}: {err}")
    print(f"cursor at height {state.cursor}; inbox holds {len(state.inbox)} message(s)")
    _save_session(args, state)
    return 3 if new_bad else 0


def cmd_extract(args) -> int:
    state = _load_session(args, create_ok=True)
    ledger = _load_ledger(args)
    before_quarantine = len(state.quarantine)
    state.detect_and_receive(ledger)
    messages = state.drain_inbox()
    new_bad = state.quarantine[before_quarantine:]
    for i, (chan, data) in enumerate(messages):
        path = args.out if i == 0 else f"{args.out}.{i}"
        with open(path, "wb") as fh:
            fh.write(data)
        print(f"{chan} message ({len(data)} bytes) -> {path}")
    if not messages:
        print("no complete messages")
    _save_session(args, state)
    return 3 if new_bad else 0


def cmd_mine(args) -> int:
    ledger = _load_ledger(args, create_ok=True)
    profile = NoiseProfile(rate=args.decoys)
    block = ledger.mine_block(profile, seed=args.mine_seed if args.mine_seed is not None else (args.seed or 0))
    print(f"mined block {block.height} hash={block.block_hash.hex()} txs={len(block.transactions)}")
    _save_ledger(args, ledger)
    return 0


def cmd_capacity(args) -> int:
    print(capacity_table(_parse_range(args.n), _parse_range(args.m)))
    return 0


def cmd_bench(args) -> int:
    m_values = [int(v) for v in args.m.split(",")]
    names = ["pure", "ext"] if args.backend == "both" else [args.backend]
    reports = []
    for name in names:
        if name == "ext" and "ext" not in backend.available():
            print("compiled kernel unavailable; skipping ext", file=sys.stderr)
            continue
        reports.append(bench_grind(m_values, args.runs, seed=args.seed or 0,
                                   backend_name=name))
    if args.json:
        print(json.dumps([r.to_json() for r in reports], indent=2))
    else:
        for r in reports:
            print(r.to_text())
    if len(reports) == 2:
        speedup = (
            reports[0].rows[-1].wall_per_attempt_us
            / reports[1].rows[-1].wall_per_attempt_us
        )
        print(f"backend speedup ({reports[1].backend_name} vs {reports[0].backend_name}): "
              f"{speedup:.1f}x")
    return 0


def cmd_stats(args) -> int:
    state = _load_session(args)
    ledger = _load_ledger(args)
    stego = {bytes.fromhex(e["txid"]) for e in state.embed_log}
    channels = {bytes.fromhex(e["txid"]): e["channel"] for e in state.embed_log}
    report = stat_suite(ledger, stego, channels, state.cfg, min_sample=args.min_sample)
    print(report.to_text())
    return 0


def cmd_export(args) -> int:
    ledger = _load_ledger(args)
    print(ledger.export_text(), end="")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="chainsteg",
        description="blockchain steganography over a simulated ledger",
    )
    parser.add_argument("--chain", help="chain file")
    parser.add_argument("--session", help="session state file")
    parser.add_argument("--seed", type=int, help="deterministic seed")
    parser.add_argument("--config", help="channel config file (key = value lines)")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("keygen", help="generate key material")
    p.add_argument("--out", required=True)
    p.add_argument("--public-out")
    p.set_defaults(func=cmd_keygen)

    p = sub.add_parser("send", help="embed and submit a message")
    p.add_argument("--channel", choices=("high", "med"), required=True)
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--key", help="key file (for a fresh session)")
    p.add_argument("--confirm-each", action="store_true",
                   help="mine a block after every stego transaction")
    p.add_argument("--decoys", type=float, default=0.0,
                   help="decoy rate when --confirm-each mines")
    p.set_defaults(func=cmd_send)

    p = sub.add_parser("scan", help="detect and buffer incoming messages")
    p.add_argument("--key", help="key file (for a fresh session)")
    p.set_defaults(func=cmd_scan)

    p = sub.add_parser("extract", help="write received messages to a file")
    p.add_argument("--out", required=True)
    p.add_argument("--key", help="key file (for a fresh session)")
    p.set_defaults(func=cmd_extract)

    p = sub.add_parser("mine", help="assemble a block from the mempool")
    p.add_argument("--decoys", type=float, default=0.0, help="decoy tx rate")
    p.add_argument("--seed", dest="mine_seed", type=int, help="mining seed")
    p.set_defaults(func=cmd_mine)

    p = sub.add_parser("capacity", help="capacity table over (n, m)")
    p.add_argument("--n", required=True, help="range A..B or comma list")
    p.add_argument("--m", required=True, help="range C..D or comma list")
    p.set_defaults(func=cmd_capacity)

    p = sub.add_parser("bench", help="grinding effort benchmark")
    p.add_argument("--m", required=True, help="comma list of m values")
    p.add_argument("--runs", type=int, required=True)
    p.add_argument("--backend", choices=("auto", "pure", "ext", "both"),
                   default="auto")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_bench)

    p = sub.add_parser("stats", help="indistinguishability statistics")
    p.add_argument("--min-sample", type=int, default=100)
    p.set_defaults(func=cmd_stats)

    p = sub.add_parser("export", help="human-readable chain dump")
    p.set_defaults(func=cmd_export)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ValidationError, InsufficientSample) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (AuthError, TagCorruption) as exc:
        print(f"extraction error: {exc}", file=sys.stderr)
        return 3
    except (ChainstegError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
