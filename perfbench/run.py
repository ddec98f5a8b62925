"""chainsteg benchmark: two seeded closed-loop workloads.

    python3 perfbench/run.py --workload {med_grind,reload} \
        --seed N --seconds S --trace {0,1}

Run from the root of a source tree. The backend is built first, untimed, in
a throwaway copy of src/ under .bench_build/ (removed on exit); the workloads
then run against that copy. Each episode follows a fresh set-up that
re-imports the package, and episodes repeat while --seconds allow (always at
least one). The last line of stdout is one JSON object: end-to-end metrics
with --trace 0, per-layer metrics from in-memory spans with --trace 1.
See perfbench/README.md for the metrics and why each workload exists.
"""

import sys

sys.dont_write_bytecode = True  # leave no __pycache__ in the source tree

import argparse  # noqa: E402
import gc  # noqa: E402
import importlib  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import os  # noqa: E402
import random  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import signal  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402
from types import SimpleNamespace  # noqa: E402

import spans  # noqa: E402
from workloads import WORKLOADS, Steps  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
MIN_SETUPS = 5
_perf = time.perf_counter


# ---------------------------------------------------------------------------
# Backend build (untimed) and fresh imports


def build_backend(workdir: Path) -> dict:
    """Copy the sources and run the tree's own extension build there."""
    shutil.copytree(ROOT / "src", workdir / "src",
                    ignore=shutil.ignore_patterns("__pycache__", "*.so", "*.pyd"))
    for name in ("setup.py", "pyproject.toml"):
        shutil.copy2(ROOT / name, workdir / name)
    proc = subprocess.run(
        [sys.executable, "setup.py", "build_ext", "--inplace"],
        cwd=workdir, capture_output=True, text=True, timeout=600,
    )
    if proc.returncode != 0:
        sys.stderr.write(proc.stdout[-2000:] + proc.stderr[-2000:])
    extensions = sorted(
        p.name for p in (workdir / "src").rglob("*") if p.suffix in (".so", ".pyd")
    )
    return {"build_exit": proc.returncode, "extensions": extensions}


def fresh_import(with_cli: bool) -> SimpleNamespace:
    """Import chainsteg anew, so every set-up pays import and G-table
    warm-up. Compiled extensions stay loaded: they cannot be re-initialised."""
    for name in [n for n in sys.modules if n.split(".")[0] == "chainsteg"]:
        if not str(getattr(sys.modules[name], "__file__", "")).endswith((".so", ".pyd")):
            del sys.modules[name]
    cs = importlib.import_module("chainsteg")
    subs = ["backend", "ec", "hashes", "high", "ledger", "medium", "session"]
    ns = SimpleNamespace(**{n: getattr(cs, n) for n in cs.__all__})
    for sub in subs + (["cli"] if with_cli else []):
        setattr(ns, sub, importlib.import_module(f"chainsteg.{sub}"))
    return ns


# ---------------------------------------------------------------------------
# Statistics


def tail(samples: list[float]) -> tuple[float, int]:
    """Highest whole percentile with at least ten samples beyond it
    (nearest rank); returns (value, percentile)."""
    n = len(samples)
    if n < 11:
        return max(samples), 100
    p = min(99, (100 * (n - 10)) // n)
    return sorted(samples)[math.ceil(p * n / 100) - 1], p


def mean_over(episodes, fn) -> float:
    """Episodes are identical work, so they differ only by how fast the
    machine ran at the time. On a shared VM host speed drifts over seconds to
    minutes; a mean blends the speeds by their share of the run, where a
    median of a few episodes would jump from one speed to another."""
    return statistics.fmean(fn(ep) for ep in episodes)


def end_to_end(episodes, setups: list[float]) -> tuple[dict, list[str]]:
    def p50(kind):
        return lambda ep: statistics.median(ep.steps.samples[kind]) * 1e3

    def tail_ms(kind):
        return lambda ep: tail(ep.steps.samples[kind])[0] * 1e3

    metrics = {
        "setup_s": (statistics.median(setups), "s"),
        "send_ms_p50": (mean_over(episodes, p50("send")), "ms"),
        "send_ms_tail": (mean_over(episodes, tail_ms("send")), "ms"),
        "send_bits_per_s": (mean_over(
            episodes, lambda ep: ep.bits / sum(ep.steps.samples["send"])), "1/s"),
        "mine_ms_p50": (mean_over(episodes, p50("mine")), "ms"),
        "recv_ms_p50": (mean_over(episodes, p50("recv")), "ms"),
        "recv_ms_tail": (mean_over(episodes, tail_ms("recv")), "ms"),
        "catchup_blocks_per_s": (mean_over(episodes, lambda ep: ep.catchup_blocks
                                           / statistics.fmean(ep.steps.samples["catchup"])),
                                 "1/s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }
    notes = []
    for kind in ("send", "recv"):
        samples = episodes[0].steps.samples[kind]
        notes.append(f"{kind}_ms_tail is p{tail(samples)[1]} of {len(samples)} samples per episode")
    return metrics, notes


def _mean(values) -> float:
    values = list(values)
    return sum(values) / len(values) if values else 0.0


def per_layer(tr: spans.Tracer, episodes, micro: dict, built: bool) -> dict:
    sel = tr.select

    def mean_time(name, scale, *roots, self_time=False):
        return _mean(s.self_time if self_time else s.duration for s in sel(name, *roots)) * scale

    def ratio(num, den):
        return num / den if den else 0.0

    grinds, embeds = sel("backend.grind_scan"), sel("medium.embed")
    attempts = sum(s.attrs.get("attempts", 0) for s in grinds)  # absent if it raised
    recv_derives = len(sel("backend.derive_digest", "step.recv"))
    recv_matches = len(sel("medium.extract", "step.recv")) + len(
        sel("high.feed_transaction", "step.recv"))
    mines, loads = sel("ledger.mine_block"), sel("ledger.load")
    n_recv = len(sel("session.detect_and_receive", "step.recv"))
    in_steps = [s for s in tr.spans if s.root.name.startswith("step.")]
    n_steps = sum(s.parent is None for s in in_steps)
    out = {
        "backend.grind_us_per_attempt": (ratio(sum(s.duration for s in grinds), attempts) * 1e6, "us"),
        "backend.attempts_per_tx": (ratio(attempts, len(embeds)), "count"),
        "backend.derive_us": (mean_time("backend.derive_digest", 1e6), "us"),
        "backend.derives_per_recv": (ratio(recv_derives, n_recv), "count"),
        "medium.embed_ms": (mean_time("medium.embed", 1e3, self_time=True), "ms"),
        "medium.grind_calls_per_tx": (ratio(len(sel("medium.grind")), len(embeds)), "count"),
        "medium.extract_us": (mean_time("medium.extract", 1e6), "us"),
        "high.frame_us": (mean_time("high.frame_message", 1e6), "us"),
        "high.feed_us": (mean_time("high.feed_transaction", 1e6), "us"),
        "high.fields_per_tx": (_mean(s.attrs["fields"] for s in sel("high.feed_transaction")), "count"),
        "ledger.submit_us": (mean_time("ledger.submit", 1e6), "us"),
        "ledger.rejects": (sum(s.attrs.get("raised") == "Rejected"
                               for s in sel("ledger.submit")), "count"),
        "ledger.mine_ms": (mean_time("ledger.mine_block", 1e3), "ms"),
        "ledger.txs_per_block": (_mean(s.attrs["txs"] for s in mines if "txs" in s.attrs), "count"),
        "ledger.decoys_per_block": (_mean(s.attrs["decoys"] for s in mines if "decoys" in s.attrs), "count"),
        "ledger.verify_us": (mean_time("ledger.verify", 1e6), "us"),
        "ledger.load_ms": (mean_time("ledger.load", 1e3), "ms"),
        "ledger.load_mb_per_s": (ratio(sum(s.attrs["bytes"] for s in loads),
                                       sum(s.duration for s in loads)) / 1e6, "MB/s"),
        "ledger.save_ms": (mean_time("ledger.save", 1e3), "ms"),
        "ledger.chain_mb": (episodes[-1].chain_bytes / 1e6, "MB"),
        "session.send_self_ms": (mean_time("session.send_message", 1e3, self_time=True), "ms"),
        "session.recv_self_ms": (mean_time("session.detect_and_receive", 1e3, "step.recv",
                                           self_time=True), "ms"),
        "session.match_ratio": (ratio(recv_matches, recv_derives), "ratio"),
        "session.quarantines": (sum(ep.quarantines for ep in episodes), "count"),
        "session.load_ms": (mean_time("session.load", 1e3), "ms"),
        "session.save_ms": (mean_time("session.save", 1e3), "ms"),
        "session.file_kb": (episodes[-1].session_bytes / 1e3, "kB"),
        "cli.self_ms": (mean_time("cli.main", 1e3, self_time=True), "ms"),
        "trace.spans_per_step": (ratio(len(in_steps), n_steps), "count"),
        **{f"trace.{kind}_ms_p50": (mean_over(episodes, lambda ep, kind=kind: statistics.median(
            ep.steps.samples[kind]) * 1e3), "ms") for kind in ("send", "mine", "recv")},
        "build.extension": (int(built), "count"),
    }
    out.update(micro)
    return out


# ---------------------------------------------------------------------------
# Layer micro rows: fixed loops over each module's public calls, on every
# backend present, in a fresh untraced import


def _time_per_call(fn, args_list, scale) -> float:
    t0 = _perf()
    for args in args_list:
        fn(*args)
    return (_perf() - t0) / len(args_list) * scale


def micro_rows(cs, seed: int) -> dict:
    rng = random.Random(seed)
    ec, hashes, backend = cs.ec, cs.hashes, cs.backend
    km = cs.KeyMaterial.generate(rng)
    scalars = [(rng.randrange(1, ec.Q),) for _ in range(100)]
    points = [ec.mult_g(s) for (s,) in scalars[:20]]
    pairs = [(points[i % 20], points[(i * 7 + 3) % 20]) for i in range(2000)]
    blobs = [(rng.randbytes(33),) for _ in range(5000)]
    rows = {
        "ec.mult_g_us": (_time_per_call(ec.mult_g, scalars, 1e6), "us"),
        "ec.point_add_us": (_time_per_call(ec.point_add, pairs, 1e6), "us"),
        "hashes.hash160_us": (_time_per_call(hashes.hash160, blobs, 1e6), "us"),
        "hashes.sha256d_us": (_time_per_call(hashes.sha256d, blobs, 1e6), "us"),
    }
    selector = tuple(range(24))  # 24 bits: a hit within the budget is rare
    for name, budget in (("pure", 256), ("ext", 8192)):
        grind_us = derive_us = 0.0
        if name in backend.available():
            be = backend.set_backend(name)
            t0 = _perf()
            hit = be.grind_scan(km.k, 3, km.gy, 1, budget, selector, rng.randrange(2**24))
            grind_us = (_perf() - t0) / (hit[1] if hit else budget) * 1e6
            derive_us = _time_per_call(
                be.derive_digest, [(km.k, 2, c, km.gy) for c in range(1, 65)], 1e6)
        rows[f"backend.{name}_grind_us_per_attempt"] = (grind_us, "us")
        rows[f"backend.{name}_derive_us"] = (derive_us, "us")
    backend.set_backend("auto")
    kernel = getattr(backend, "_kernel", None)
    bench = getattr(kernel, "_microbench", None)
    timings = bench(200_000) if bench is not None else {}
    for key in ("fe_mul_ns", "jpt_add_ns", "fe_inv_ns", "sha256_ns", "ripemd_ns"):
        rows[f"kernel.{key}"] = (float(timings.get(key, 0.0)), "ns")
    return rows


# ---------------------------------------------------------------------------


def run(workload: str, seed: int, seconds: float, traced: bool, workdir: Path):
    setup_fn, episode_fn = WORKLOADS[workload]
    with_cli = workload == "reload"
    tr = spans.Tracer() if traced else None
    setups, episodes = [], []
    started = _perf()
    while not episodes or (
        _perf() - started + (_perf() - started) / len(episodes) <= seconds
    ):
        epdir = workdir / f"episode{len(episodes)}"
        epdir.mkdir()
        t0 = _perf()
        cs = fresh_import(with_cli)
        state = setup_fn(cs, seed, epdir)
        setups.append(_perf() - t0)
        if tr is not None:
            spans.install(tr, cs)
        # The cyclic collector is paused during the episode, as timeit does:
        # a full collection walks everything the benchmark keeps alive
        # (samples, spans), which the program should not pay for. Reference
        # counting still frees memory as it goes.
        gc.collect()
        gc.disable()
        try:
            episodes.append(episode_fn(cs, state, Steps(tr), epdir))
        finally:
            gc.enable()
        shutil.rmtree(epdir)
    backend_name = cs.backend.get().name
    while len(setups) < MIN_SETUPS:
        epdir = workdir / f"setup{len(setups)}"
        epdir.mkdir()
        t0 = _perf()
        setup_fn(fresh_import(with_cli), seed, epdir)
        setups.append(_perf() - t0)
        shutil.rmtree(epdir)
    return setups, episodes, tr, backend_name


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # A terminated run still removes its build copy (the finally below).
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))

    missing = [p for p in ("setup.py", "src/chainsteg/__init__.py") if not (ROOT / p).is_file()]
    if missing:
        print(f"error: not a chainsteg source tree, missing {missing}", file=sys.stderr)
        return 2

    build_dir = ROOT / ".bench_build"
    workdir = build_dir / f"perfbench-{os.getpid()}"
    shutil.rmtree(workdir, ignore_errors=True)  # left by a killed run
    workdir.mkdir(parents=True)
    try:
        build = build_backend(workdir)
        sys.path.insert(0, str(workdir / "src"))
        setups, episodes, tr, backend_name = run(
            args.workload, args.seed, args.seconds, bool(args.trace), workdir)
        micro = micro_rows(fresh_import(False), args.seed) if tr is not None else None
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        if build_dir.is_dir() and not any(build_dir.iterdir()):
            build_dir.rmdir()

    tips = {ep.tip for ep in episodes}
    problems = sorted({p for ep in episodes for p in ep.problems})
    if len(tips) != 1:
        problems.append("episodes of one seed ended on different tips")
    failed = sum(ep.failures() for ep in episodes)
    attempted = sum(ep.attempted for ep in episodes)
    correct = failed == 0 and not problems

    print(f"workload={args.workload} seed={args.seed} backend={backend_name} "
          f"build_exit={build['build_exit']} extensions={build['extensions'] or 'none'}")
    print(f"episodes={len(episodes)} setups={len(setups)} tip={sorted(tips)[0]}")
    for p in problems:
        print(f"gate failed: {p}")
    if args.trace:
        metrics = per_layer(tr, episodes, micro, bool(build["extensions"]))
    else:
        metrics, notes = end_to_end(episodes, setups)
        for note in notes:
            print(note)
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
