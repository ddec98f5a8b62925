"""Command-line surface.

Subcommands: keygen, send, scan, extract, mine, capacity, bench, stats,
export. Global flags --chain/--session/--seed/--config. Exit codes:
0 success, 2 validation error (including a missing, unreadable or malformed
chain, session, key, config or input file, and a malformed argument),
3 extraction or authentication failure. Errors print one "error: ..." line,
never a traceback. The capacity, bench and stats subcommands print the
reports of the `evaluate` module.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import sys

from . import backend, evaluate
from .errors import (
    AuthError,
    ChainstegError,
    InsufficientSample,
    TagCorruption,
    ValidationError,
)
from .hdw import Channel, KeyMaterial, read_key_file, write_key_file
from .ledger import Ledger, NoiseProfile
from .medium import ChannelConfig
from .session import SessionState


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

def int_range(text: str) -> list[int]:
    """argparse type of --n and --m: "A..B" (inclusive) or a comma list of
    integers. A ValueError makes argparse exit 2 with a usage error."""
    if ".." in text:
        lo, hi = text.split("..", 1)
        values = list(range(int(lo), int(hi) + 1))
        if not values:
            raise ValueError(f"empty range {text!r}")
        return values
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
    ledger = _load_ledger(args, state=state, create_ok=True)
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


def _receive(args) -> tuple[SessionState, list, list]:
    """Run the receiver over the chain; returns the session, the messages it
    completed and what it quarantined."""
    state = _load_session(args, create_ok=True)
    ledger = _load_ledger(args)
    before_quarantine = len(state.quarantine)
    messages = state.detect_and_receive(ledger)
    return state, messages, state.quarantine[before_quarantine:]


def cmd_scan(args) -> int:
    state, messages, new_bad = _receive(args)
    for chan, data in messages:
        print(f"{chan} message: {len(data)} bytes")
    for txid, err in new_bad:
        print(f"quarantined {txid}: {err}")
    print(f"cursor at height {state.cursor}; inbox holds {len(state.inbox)} message(s)")
    _save_session(args, state)
    return 3 if new_bad else 0


def cmd_extract(args) -> int:
    state, _, new_bad = _receive(args)
    messages = state.drain_inbox()
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
    print(evaluate.capacity_table(args.n, args.m))
    return 0


def cmd_bench(args) -> int:
    names = ["pure", "ext"] if args.backend == "both" else [args.backend]
    reports = []
    for name in names:
        if name == "ext" and "ext" not in backend.available():
            print("compiled kernel unavailable; skipping ext", file=sys.stderr)
            continue
        reports.append(evaluate.bench_grind(args.m, args.runs, seed=args.seed or 0,
                                            backend_name=name))
    if args.json:
        print(json.dumps(reports, indent=2))
    elif reports:
        print(evaluate.bench_text(reports))
    return 0


def cmd_stats(args) -> int:
    state = _load_session(args)
    report = evaluate.stat_suite(_load_ledger(args), state, min_sample=args.min_sample)
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
    p.add_argument("--n", type=int_range, required=True, help="range A..B or comma list")
    p.add_argument("--m", type=int_range, required=True, help="range C..D or comma list")
    p.set_defaults(func=cmd_capacity)

    p = sub.add_parser("bench", help="grinding effort benchmark")
    p.add_argument("--m", type=int_range, required=True,
                   help="m values: range C..D or comma list")
    p.add_argument("--runs", type=int, required=True)
    p.add_argument("--backend", choices=("auto", "pure", "ext", "both"),
                   help="default: the active backend (CHAINSTEG_BACKEND, else auto)")
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
