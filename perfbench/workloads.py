"""The two seeded workloads: set-up, one episode, and the correctness gate.

Load model: closed loop, one thread, one process. Sender, miner and
receiver take turns and each step waits for the previous one, the way the
single-writer SessionState is used. An episode is a fixed, seeded amount of
work, so its counts and final tip hash repeat exactly; run.py repeats whole
episodes (each after a fresh set-up) while its time allows.

`cs` is a namespace of freshly imported chainsteg modules (see run.py); the
program sees only the keys, messages and seeds generated here.
"""

from __future__ import annotations

import copy
import io
import random
import sys
import time
import traceback
from collections import Counter
from contextlib import redirect_stdout
from dataclasses import dataclass, field
from pathlib import Path

_perf = time.perf_counter

# Catch-up receivers have scanned only the set-up chain; each catch-up is one
# detect_and_receive (in reload, one `scan` invocation) over every block
# since its last call. CATCHUP = (receivers, blocks between catch-ups).
#
# med_grind: MED sends in PERMUTED mode. m=6 (not the paper-scale 12) keeps
# a 4-byte message at 3 transactions of ~320 pure-backend attempts each. An
# episode is 100 distinct messages (~45 s on the pure backend), so a run's
# per-message median rests on ~1,500 grinds and averages host speed over the
# whole run. One lagging receiver catches up every 5 blocks, which spreads
# its samples over the episode.
MED_N, MED_M, MED_MESSAGES, MED_BYTES, MED_DECOYS = 5, 6, 100, 4, 5.0
MED_CATCHUP = (1, 5)
# reload: the CLI's persisted flow on a ~0.5 MB chain; one lagging receiver
# session scans every 8 cycles.
RELOAD_PREMINE, RELOAD_CYCLES, RELOAD_BYTES, RELOAD_DECOYS = 140, 40, 64, 20.0
RELOAD_CATCHUP = (1, 8)


class Steps:
    """Times each workload step; with a tracer, also opens its root span."""

    def __init__(self, tracer=None):
        self.tracer = tracer
        self.samples: dict[str, list[float]] = {}
        self.raised = 0

    def run(self, kind: str, fn, *args):
        t0 = _perf()
        try:
            if self.tracer is None:
                result = fn(*args)
            else:
                with self.tracer.span("step." + kind):
                    result = fn(*args)
        except Exception:  # one failed operation must not end the run
            traceback.print_exc(file=sys.stderr)
            self.raised += 1
            return None
        self.samples.setdefault(kind, []).append(_perf() - t0)
        return result


@dataclass
class Episode:
    """What one episode did, for metrics and the correctness gate."""

    steps: Steps
    attempted: int
    sent: list = field(default_factory=list)  # (channel, bytes) accepted
    bits: int = 0
    catchup_blocks: int = 0
    received: dict = field(default_factory=dict)  # receiver name -> messages
    quarantines: int = 0
    tip: str = ""
    chain_bytes: int = 0
    session_bytes: int = 0
    problems: list = field(default_factory=list)

    def failures(self) -> int:
        """Messages not delivered byte-identical exactly once (per
        receiver), plus quarantines, plus operations that raised."""
        bad = self.quarantines + self.steps.raised
        want = Counter(self.sent)
        for got in self.received.values():
            have = Counter(got)
            bad += sum((want - have).values()) + sum((have - want).values())
        return bad


# ---------------------------------------------------------------------------
# med_grind: in memory


def _sessions(cs, rng, cfg):
    km = cs.KeyMaterial.generate(rng)
    sender = cs.SessionState(km, cfg, seed=rng.randrange(2**32))
    ledger = sender.genesis_ledger()
    receiver = cs.SessionState(km.public_only(), cfg, seed=rng.randrange(2**32))
    return sender, ledger, receiver


def _scanned(receiver, ledger, catchups: int) -> dict:
    """The incremental and the catch-up receivers, each after one scan of
    the set-up chain."""
    receiver.detect_and_receive(ledger)
    names = ["incremental"] + [f"catchup{i}" for i in range(catchups)]
    return {name: copy.deepcopy(receiver) for name in names}


def setup_med_grind(cs, seed: int, workdir: Path) -> dict:
    rng = random.Random(seed)
    cfg = cs.ChannelConfig(n=MED_N, m=MED_M, mode=cs.Mode.PERMUTED)
    sender, ledger, receiver = _sessions(cs, rng, cfg)
    return dict(
        sender=sender, ledger=ledger,
        receivers=_scanned(receiver, ledger, MED_CATCHUP[0]),
        messages=[rng.randbytes(MED_BYTES) for _ in range(MED_MESSAGES)],
        mine_seed=rng.randrange(2**16),
    )


def run_med_grind(cs, st: dict, steps: Steps, workdir: Path) -> Episode:
    ep = Episode(steps, len(st["messages"]))
    sender, ledger = st["sender"], st["ledger"]
    receivers = st["receivers"]
    profile = cs.NoiseProfile(rate=MED_DECOYS)
    ep.received = {name: [] for name in receivers}
    for i, msg in enumerate(st["messages"]):
        if steps.run("send", sender.send_message, ledger, msg, cs.Channel.MED) is not None:
            ep.sent.append(("MED", msg))
            ep.bits += 8 * len(msg)
        steps.run("mine", ledger.mine_block, profile, st["mine_seed"])
        ep.received["incremental"] += steps.run(
            "recv", receivers["incremental"].detect_and_receive, ledger) or []
        if (i + 1) % MED_CATCHUP[1] == 0:
            for name, rx in receivers.items():
                if name != "incremental":
                    ep.catchup_blocks = ledger.tip_height + 1 - rx.cursor
                    ep.received[name] += steps.run(
                        "catchup", rx.detect_and_receive, ledger) or []
    ep.quarantines = sum(len(rx.quarantine) for rx in receivers.values())
    _gate_ledger(cs, ledger, workdir / "chain.bin", ep)
    _gate_session(cs, sender, workdir / "sender.session", ep)
    return ep


# ---------------------------------------------------------------------------
# reload: chainsteg.cli.main in-process on chain and session files


def setup_reload(cs, seed: int, workdir: Path) -> dict:
    rng = random.Random(seed)
    files = {name: str(workdir / name) for name in ("chain.bin", "sender.session", "message.bin")}
    sender, ledger, receiver = _sessions(cs, rng, cs.ChannelConfig())
    mine_seed = rng.randrange(2**16)
    for _ in range(RELOAD_PREMINE):
        ledger.mine_block(cs.NoiseProfile(rate=RELOAD_DECOYS), seed=mine_seed)
    ledger.save(files["chain.bin"])
    sender.save(files["sender.session"])
    sessions = {}
    for name, rx in _scanned(receiver, ledger, RELOAD_CATCHUP[0]).items():
        sessions[name] = str(workdir / f"{name}.session")
        rx.save(sessions[name])
    return dict(
        files=files, sessions=sessions, mine_seed=mine_seed,
        messages=[rng.randbytes(RELOAD_BYTES) for _ in range(RELOAD_CYCLES)],
    )


def _cli(cs, *argv: str) -> str:
    out = io.StringIO()
    with redirect_stdout(out):
        code = cs.cli.main(list(argv))
    if code != 0:
        raise RuntimeError(f"chainsteg {argv[-1] if argv else ''} exited {code}")
    return out.getvalue()


def run_reload(cs, st: dict, steps: Steps, workdir: Path) -> Episode:
    ep = Episode(steps, len(st["messages"]))
    f = st["files"]
    chain = ("--chain", f["chain.bin"])
    send = (*chain, "--session", f["sender.session"], "send", "--channel", "high",
            "--in", f["message.bin"])
    mine = (*chain, "mine", "--decoys", str(RELOAD_DECOYS), "--seed", str(st["mine_seed"]))
    sessions = st["sessions"]
    ep.catchup_blocks = RELOAD_CATCHUP[1]

    def scan(kind, name):
        return steps.run(kind, _cli, cs, *chain, "--session", sessions[name], "scan")

    for i, msg in enumerate(st["messages"]):
        Path(f["message.bin"]).write_bytes(msg)
        if steps.run("send", _cli, cs, *send) is not None:
            ep.sent.append(("HIGH", msg))
            ep.bits += 8 * len(msg)
        steps.run("mine", _cli, cs, *mine)
        scan("recv", "incremental")
        if (i + 1) % RELOAD_CATCHUP[1] == 0:
            for name in sessions:
                if name != "incremental":
                    scan("catchup", name)
    ledger = cs.Ledger.load(f["chain.bin"])
    for name in sessions:
        rx = cs.SessionState.load(sessions[name])
        ep.received[name] = rx.inbox
        ep.quarantines += len(rx.quarantine)
    _gate_ledger(cs, ledger, Path(f["chain.bin"]), ep, saved=True)
    ep.session_bytes = Path(f["sender.session"]).stat().st_size
    return ep


# ---------------------------------------------------------------------------
# Correctness gate shared by all workloads


def _gate_ledger(cs, ledger, path: Path, ep: Episode, saved: bool = False) -> None:
    if ledger.total_supply() != ledger.utxo_total():
        ep.problems.append("total_supply != utxo_total")
    if not saved:
        ledger.save(path)
    reloaded = cs.Ledger.load(path)
    ep.tip = ledger.blocks[-1].block_hash.hex()
    if reloaded.blocks[-1].block_hash.hex() != ep.tip:
        ep.problems.append("reloaded chain has another tip")
    ep.chain_bytes = path.stat().st_size


def _gate_session(cs, state, path: Path, ep: Episode) -> None:
    state.save(path)
    reloaded = cs.SessionState.load(path)
    if (reloaded.wallet_balance(), reloaded.key_gen) != (state.wallet_balance(), state.key_gen):
        ep.problems.append("session did not round-trip")
    ep.session_bytes = path.stat().st_size


WORKLOADS = {
    "med_grind": (setup_med_grind, run_med_grind),
    "reload": (setup_reload, run_reload),
}
