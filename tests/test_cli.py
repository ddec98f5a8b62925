import dataclasses
import json
import os
import random
import re
import subprocess
import sys
from pathlib import Path

import chainfile
import pytest

from chainsteg import Channel, ChannelConfig, KeyMaterial, Mode, NoiseProfile, backend, medium
from chainsteg.cli import load_config, main
from chainsteg.evaluate import bench_grind, stat_suite
from chainsteg.errors import InsufficientSample, ValidationError
from chainsteg.ledger import Ledger
from chainsteg.session import SessionState


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def small_config(tmp_path):
    """A channel config with cheap grinding (2^6 attempts per address)."""
    path = tmp_path / "small.cfg"
    path.write_text("n = 3\nm = 6\n")
    return str(path)


def test_full_pipeline(tmp_path, capsys):
    key = tmp_path / "key.txt"
    chain = tmp_path / "chain.bin"
    sender = tmp_path / "sender.bin"
    receiver = tmp_path / "receiver.bin"
    msg = tmp_path / "msg.bin"
    got = tmp_path / "got.bin"
    msg.write_bytes(b"cli end to end payload")
    cfg = small_config(tmp_path)

    code, _, _ = run(capsys, "--seed", "5", "keygen", "--out", str(key))
    assert code == 0
    code, out, _ = run(
        capsys, "--chain", str(chain), "--session", str(sender), "--seed", "5",
        "--config", cfg,
        "send", "--channel", "med", "--in", str(msg), "--key", str(key),
    )
    assert code == 0 and out.strip()
    code, out, _ = run(capsys, "--chain", str(chain), "mine", "--decoys", "4",
                       "--seed", "7")
    assert code == 0 and "mined block 1" in out
    code, out, _ = run(
        capsys, "--chain", str(chain), "--session", str(receiver), "--seed", "1",
        "--config", cfg, "scan", "--key", str(key),
    )
    assert code == 0 and "MED message: 22 bytes" in out
    code, out, _ = run(
        capsys, "--chain", str(chain), "--session", str(receiver),
        "extract", "--out", str(got),
    )
    assert code == 0
    assert got.read_bytes() == msg.read_bytes()
    # export works on the resulting chain
    code, out, _ = run(capsys, "--chain", str(chain), "export")
    assert code == 0 and "block 1" in out


def test_high_channel_via_cli(tmp_path, capsys):
    key = tmp_path / "key.txt"
    chain = tmp_path / "chain.bin"
    msg = tmp_path / "msg.bin"
    got = tmp_path / "got.bin"
    msg.write_bytes(bytes(range(256)))
    run(capsys, "--seed", "9", "keygen", "--out", str(key))
    code, _, _ = run(
        capsys, "--chain", str(chain), "--session", str(tmp_path / "s.bin"),
        "--seed", "9", "send", "--channel", "high", "--in", str(msg),
        "--key", str(key),
    )
    assert code == 0
    run(capsys, "--chain", str(chain), "mine", "--decoys", "2", "--seed", "3")
    code, _, _ = run(
        capsys, "--chain", str(chain), "--session", str(tmp_path / "r.bin"),
        "--seed", "2", "extract", "--out", str(got), "--key", str(key),
    )
    assert code == 0
    assert got.read_bytes() == msg.read_bytes()


def test_confirm_each_mines_between(tmp_path, capsys):
    key = tmp_path / "key.txt"
    chain = tmp_path / "chain.bin"
    msg = tmp_path / "msg.bin"
    msg.write_bytes(b"multi block confirm gated sending")
    run(capsys, "--seed", "4", "keygen", "--out", str(key))
    code, out, _ = run(
        capsys, "--chain", str(chain), "--session", str(tmp_path / "s.bin"),
        "--seed", "4", "--config", small_config(tmp_path),
        "send", "--channel", "med", "--in", str(msg),
        "--key", str(key), "--confirm-each",
    )
    assert code == 0
    n_txids = len(out.strip().splitlines())
    code, out, _ = run(capsys, "--chain", str(chain), "export")
    heights = [line for line in out.splitlines() if line.startswith("block ")]
    assert len(heights) == n_txids + 1  # genesis + one block per stego tx


def test_missing_chain_is_validation_error(tmp_path, capsys):
    code, _, err = run(capsys, "--chain", str(tmp_path / "none.bin"), "export")
    assert code == 2 and "error" in err


def test_truncated_sidecar_exits_2(tmp_path, capsys):
    key = tmp_path / "key.txt"
    chain = tmp_path / "chain.bin"
    msg = tmp_path / "msg.bin"
    msg.write_bytes(b"pending")
    run(capsys, "--seed", "6", "keygen", "--out", str(key))
    run(capsys, "--chain", str(chain), "--session", str(tmp_path / "s.bin"),
        "--seed", "6", "send", "--channel", "high", "--in", str(msg), "--key", str(key))
    sidecar = tmp_path / "chain.bin.mempool"
    raw = sidecar.read_bytes()
    for cut in (3, len(raw) // 2):
        sidecar.write_bytes(raw[:cut])
        code, _, err = run(capsys, "--chain", str(chain), "export")
        assert code == 2 and "error" in err


def test_chain_spending_unknown_output_exits_2(tmp_path, capsys):
    chain = tmp_path / "bad.bin"
    ledger = Ledger.create()
    ledger.save(chain)
    chainfile.append_block(chain, ledger, chainfile.spend((b"\x07" * 32, 0)))
    code, _, err = run(capsys, "--chain", str(chain), "mine")
    assert code == 2 and "spends unknown or spent output" in err
    assert "Traceback" not in err


def test_chain_creating_value_exits_2(tmp_path, capsys):
    chain = tmp_path / "bad.bin"
    ledger = Ledger.create(genesis_allocations=[(b"\xaa" * 20, 10**9)])
    ledger.save(chain)
    allocation = (ledger.blocks[0].transactions[0].txid, 1)
    chainfile.append_block(chain, ledger, chainfile.spend(allocation, amount=10**12))
    code, _, err = run(capsys, "--chain", str(chain), "mine")
    assert code == 2 and "does not balance" in err
    assert "Traceback" not in err


def send_files(tmp_path, capsys):
    """A key file, a small config file and a message file for `send`."""
    paths = {"--key": tmp_path / "key.txt", "--config": tmp_path / "small.cfg",
             "--in": tmp_path / "msg.bin"}
    run(capsys, "--seed", "8", "keygen", "--out", str(paths["--key"]))
    paths["--config"].write_text("n = 3\nm = 6\n")
    paths["--in"].write_bytes(b"message")
    return paths


def run_send(capsys, tmp_path, paths):
    return run(
        capsys, "--chain", str(tmp_path / "c.bin"), "--session", str(tmp_path / "s.bin"),
        "--config", str(paths["--config"]), "send", "--channel", "high",
        "--in", str(paths["--in"]), "--key", str(paths["--key"]),
    )


@pytest.mark.parametrize("flag,corrupt", [
    ("--key", lambda raw: re.sub(rb"(?m)^y: \w+", b"y: zz", raw)),
    ("--key", lambda raw: raw + b"\xff\n"),
    ("--config", lambda raw: raw + b"\xff\n"),
    ("--config", lambda raw: b"n = five\n"),
    ("--config", lambda raw: b"mode = sideways\n"),
    ("--config", lambda raw: b"bit_selector = 1,x\n"),
    ("--config", lambda raw: raw + b"grind_cap = 99999999999999999999\n"),
], ids=["key-bad-y", "key-not-utf8", "config-not-utf8", "config-n-five",
        "config-mode-sideways", "config-selector-1-x", "config-grind-cap-over-u64"])
def test_malformed_key_or_config_exits_2(tmp_path, capsys, flag, corrupt):
    paths = send_files(tmp_path, capsys)
    paths[flag].write_bytes(corrupt(paths[flag].read_bytes()))
    code, _, err = run_send(capsys, tmp_path, paths)
    assert code == 2 and err.startswith("error:") and "Traceback" not in err


@pytest.mark.parametrize("flag", ["--in", "--key", "--config"])
def test_missing_file_exits_2(tmp_path, capsys, flag):
    paths = send_files(tmp_path, capsys)
    paths[flag] = tmp_path / "absent"
    code, _, err = run_send(capsys, tmp_path, paths)
    assert code == 2 and err.startswith("error:")


def test_unseeded_cli_sessions_draw_other_amounts(tmp_path, capsys):
    # without --seed each new session seeds itself: two keys, two sends
    amounts = []
    for run_dir in ("a", "b"):
        d = tmp_path / run_dir
        d.mkdir()
        run(capsys, "keygen", "--out", str(d / "key.txt"))
        (d / "msg.bin").write_bytes(b"the same message")
        code, out, _ = run(capsys, "--chain", str(d / "c.bin"), "--session", str(d / "s.bin"),
                           "send", "--channel", "high", "--in", str(d / "msg.bin"),
                           "--key", str(d / "key.txt"))
        assert code == 0
        [txid] = out.split()
        amounts.append([o.amount for tx in Ledger.load(d / "c.bin").mempool
                        if tx.txid.hex() == txid for o in tx.outputs])
    assert amounts[0] and amounts[0] != amounts[1]


def test_missing_session_for_stats(tmp_path, capsys):
    code, _, err = run(capsys, "--chain", str(tmp_path / "c.bin"),
                       "--session", str(tmp_path / "s.bin"), "stats")
    assert code == 2


def test_capacity_output(capsys):
    code, out, _ = run(capsys, "capacity", "--n", "5", "--m", "15")
    assert code == 0
    line = out.strip().splitlines()[1]
    n, m, paper, ordered, permuted = line.split(",")
    # PERMUTED: 75 chunk bits, plus 0.0003 expected tie-rank bits
    assert (n, m, ordered, permuted) == ("5", "15", "75", "75.0003")
    assert abs(float(paper) - 81.9) < 0.05
    code, out, _ = run(capsys, "capacity", "--n", "1..3", "--m", "2..4")
    rows = out.strip().splitlines()
    assert len(rows) == 1 + 3 * 3
    # n=1 shows paper == m exactly (log2 1! = 0)
    row = next(r for r in rows if r.startswith("1,3,"))
    assert float(row.split(",")[2]) == 3.0
    # n=2, m=2: the two chunks tie with probability 1/4, for one more bit
    assert "2,2,5.0000,4,4.2500" in rows


def test_capacity_deterministic(capsys):
    _, out1, _ = run(capsys, "capacity", "--n", "2..8", "--m", "1..16")
    _, out2, _ = run(capsys, "capacity", "--n", "2..8", "--m", "1..16")
    assert out1 == out2


def test_bench_cli(capsys):
    code, out, _ = run(capsys, "--seed", "3", "bench", "--m", "2,4",
                       "--runs", "30", "--json")
    assert code == 0
    data = json.loads(out)
    rows = data[0]["rows"]
    assert [r["m"] for r in rows] == [2, 4]
    assert all(r["mean_attempts"] > 0 for r in rows)
    # deterministic attempt counts under the same seed
    code, out2, _ = run(capsys, "--seed", "3", "bench", "--m", "2,4",
                        "--runs", "30", "--json")
    rows2 = json.loads(out2)[0]["rows"]
    assert [r["mean_attempts"] for r in rows] == [r["mean_attempts"] for r in rows2]


@pytest.mark.parametrize("name", backend.available())
def test_bench_honours_backend_env(name):
    """Without --backend, bench runs on the backend CHAINSTEG_BACKEND names."""
    src = Path(backend.__file__).resolve().parents[1]
    env = dict(os.environ, CHAINSTEG_BACKEND=name,
               PYTHONPATH=os.pathsep.join(filter(None, [str(src), os.environ.get("PYTHONPATH")])))
    proc = subprocess.run(
        [sys.executable, "-c", "import sys; from chainsteg.cli import main; sys.exit(main())",
         "--seed", "3", "bench", "--m", "1", "--runs", "3", "--json"],
        env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert [report["backend"] for report in json.loads(proc.stdout)] == [name]


@pytest.mark.parametrize("argv", [
    ["capacity", "--n", "1..x", "--m", "2"],
    ["capacity", "--n", "3", "--m", "2,,3"],
    ["bench", "--m", "2,x", "--runs", "3"],
    ["capacity", "--n", "5..3", "--m", "2"],
], ids=["n-1..x", "m-2,,3", "bench-m-2,x", "n-5..3"])
def test_malformed_range_exits_2(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    err = capsys.readouterr().err
    assert exc.value.code == 2
    assert "invalid int_range value" in err and "Traceback" not in err


def test_config_file(tmp_path):
    path = tmp_path / "cfg.txt"
    path.write_text(
        "n = 4\nm = 6\nmode = permuted\nmax_fields_per_tx = 8\n"
        "# comment line\ngrind_cap = none\n"
    )
    cfg = load_config(path)
    assert cfg.n == 4 and cfg.m == 6 and cfg.mode is Mode.PERMUTED
    assert cfg.max_fields_per_tx == 8 and cfg.grind_cap is None
    path.write_text(f"grind_cap = {2**64 - 1}\n")  # the kernel's u64 budget
    assert load_config(path).grind_cap == 2**64 - 1
    bad = tmp_path / "bad.txt"
    # address_version, debug_unmasked_tags and high_kind were fields once;
    # they are unknown now
    for line in ("wibble = 3", "address_version = 0", "debug_unmasked_tags = false",
                 "high_kind = 0", "n 3", f"grind_cap = {2**64}"):
        bad.write_text(line + "\n")
        with pytest.raises(ValidationError):
            load_config(bad)


def test_every_config_field_round_trips(tmp_path):
    # one non-default value per field: a field added later fails here until
    # both the dict form and the key = value loader carry it
    values = dict(n=7, m=9, mode=Mode.PERMUTED, bit_selector=tuple(range(159, 150, -1)),
                  grind_cap=4096, max_fields_per_tx=3)
    assert set(values) == {f.name for f in dataclasses.fields(ChannelConfig)}
    cfg = ChannelConfig(**values)
    assert all(getattr(cfg, name) != getattr(ChannelConfig(), name) for name in values)
    assert ChannelConfig.from_dict(json.loads(json.dumps(cfg.to_dict()))) == cfg

    def text(value):
        return ",".join(map(str, value)) if isinstance(value, list) else str(value).lower()

    path = tmp_path / "all.cfg"
    path.write_text("".join(f"{key} = {text(v)}\n" for key, v in cfg.to_dict().items()))
    assert load_config(path) == cfg


def test_bench_grind_library():
    report = bench_grind([1], runs=60, seed=5)
    row = report["rows"][0]
    # geometric with p=1/2: mean ~2
    assert 1.4 < row["mean_attempts"] < 2.8
    assert row["expected"] == 2.0


def test_stat_suite_insufficient():
    km = KeyMaterial.generate(random.Random(0))
    state = SessionState(km, ChannelConfig(n=3, m=4), seed=1)
    ledger = state.genesis_ledger()
    with pytest.raises(InsufficientSample):
        stat_suite(ledger, state)


def small_permuted_chain(km, messages=None):
    """30 blocks of a seeded n=3, m=4 PERMUTED session: a MED send in each
    block (`messages[i]`, or 4 random bytes), a HIGH send in every third,
    and decoys at rate 4."""
    cfg = ChannelConfig(n=3, m=4, mode=Mode.PERMUTED)
    state = SessionState(km, cfg, seed=55)
    ledger = state.genesis_ledger()
    rng = random.Random(66)
    for i in range(30):
        message = rng.randbytes(4) if messages is None else messages[i]
        state.send_message(ledger, message, Channel.MED)
        if i % 3 == 0:
            state.send_message(ledger, rng.randbytes(80), Channel.HIGH)
        ledger.mine_block(NoiseProfile(rate=4.0), seed=i)
    return state, ledger


def test_stat_suite_reads_each_med_tx_under_its_config(km):
    """Across a switch from n = 3, m = 4 to n = 5, m = 3, stat_suite takes n
    chunk values from each MED transaction under the config it was sent
    with, and bins them at the narrower m."""
    state = SessionState(km, ChannelConfig(n=3, m=4, mode=Mode.PERMUTED), seed=56)
    ledger = state.genesis_ledger()
    rng = random.Random(67)
    sent = {3: 0, 5: 0}
    for i in range(24):
        if i == 12:
            state.switch_config(ledger, ChannelConfig(n=5, m=3, mode=Mode.PERMUTED))
        sent[state.cfg.n] += len(state.send_message(ledger, rng.randbytes(4), Channel.MED))
        ledger.mine_block(NoiseProfile(rate=4.0), seed=i)
    report = stat_suite(ledger, state, min_sample=20)
    assert sent[3] and sent[5]
    assert report.chunk_values == 3 * sent[3] + 5 * sent[5]
    assert report.chunk_bins == 8
    assert not report.chunk_flagged()
    # a receiver learns the switch from the chain, and labels the same way
    receiver = SessionState(km.public_only(), ChannelConfig(n=3, m=4, mode=Mode.PERMUTED))
    receiver.detect_and_receive(ledger)
    assert stat_suite(ledger, receiver, min_sample=20) == report


def test_stat_suite_labels_a_receivers_chain_as_the_senders(km):
    """The stego transactions are found from the keys, so a receiver that
    has scanned the chain gets the sender's report, also across a key
    rotation."""
    state, ledger = small_permuted_chain(km)
    rng = random.Random(68)
    state.rotate_keys(ledger)
    for i in range(5):
        state.send_message(ledger, rng.randbytes(4), Channel.MED)
        state.send_message(ledger, rng.randbytes(40), Channel.HIGH)
        ledger.mine_block(NoiseProfile(rate=4.0), seed=30 + i)
    receiver = SessionState(km.public_only(), ChannelConfig(n=3, m=4, mode=Mode.PERMUTED))
    receiver.detect_and_receive(ledger)
    assert receiver.key_gen == 1 and not receiver.quarantine
    report = stat_suite(ledger, state, min_sample=30)
    assert report.chunk_values > 3 * 120
    assert stat_suite(ledger, receiver, min_sample=30) == report


def test_stat_suite_small_chain(km):
    state, ledger = small_permuted_chain(km)
    report = stat_suite(ledger, state, min_sample=30)
    assert report.med_ab_chi_p is not None
    assert report.high_ab_chi_p is not None
    assert report.chunk_values == 3 * 120 and report.chunk_bins == 16
    assert not report.chunk_flagged()
    assert report.passed()


ASCII_MESSAGES = [b"meet at the north gate %02d" % i for i in range(30)]


@pytest.mark.parametrize("keystream", [True, False], ids=["whitened", "clear"])
def test_chunk_uniform_row_flags_clear_ascii(km, monkeypatch, keystream):
    """The keyless chi-square of the selected chunk values flags ASCII text
    written in the clear (a zero keystream), and passes the same ASCII
    messages sent as they are."""
    if not keystream:
        monkeypatch.setattr(medium, "_keystream", lambda k, counter, nbits: 0)
    state, ledger = small_permuted_chain(km, ASCII_MESSAGES)
    report = stat_suite(ledger, state, min_sample=30)
    assert report.chunk_bins == 16
    assert report.chunk_flagged() is not keystream
    assert report.passed() is keystream


def test_evaluation_output_is_pinned(km, tmp_path, capsys):
    """The whole `stats` text and the `bench --json` rows, wall-clock fields
    aside, on fixed seeds; the same on both backends."""
    state, ledger = small_permuted_chain(km)
    ledger.save(tmp_path / "c.bin")
    state.save(tmp_path / "s.bin")
    code, out, _ = run(capsys, "--chain", str(tmp_path / "c.bin"),
                       "--session", str(tmp_path / "s.bin"), "stats", "--min-sample", "30")
    assert code == 0
    assert out == (
        "indistinguishability suite (A/B stego vs decoy)\n"
        "med_ab_chi_p=0.0897\n"
        "med_ab_monobit_p=0.2784\n"
        "high_ab_chi_p=0.1282\n"
        "high_ab_monobit_p=0.7748\n"
        "chunk_uniform_test values=360 bins=16 p=0.7819 flagged=False\n"
        "verdict=pass at alpha=0.01\n"
    )
    code, out, _ = run(capsys, "--seed", "3", "bench", "--m", "0,2,4", "--runs", "30", "--json")
    assert code == 0
    [report] = json.loads(out)
    for row in report["rows"]:
        del row["wall_per_attempt_us"], row["est_seconds_per_address"]
    assert report["rows"] == [
        {"m": 0, "runs": 30, "mean_attempts": 1.0, "expected": 1.0, "std_error": 0.0},
        {"m": 2, "runs": 30, "mean_attempts": 3.7333333333333334, "expected": 4.0,
         "std_error": 0.4840759257758113},
        {"m": 4, "runs": 30, "mean_attempts": 13.266666666666667, "expected": 16.0,
         "std_error": 2.753444377265921},
    ]
    assert report["ratios"] == [3.7333333333333334, 3.553571428571429]


_USAGE = ("usage: chainsteg [-h] [--chain CHAIN] [--session SESSION] [--seed SEED]\n"
          "                 [--config CONFIG]\n"
          "                 {keygen,send,scan,extract,mine,capacity,bench,stats,export}\n"
          "                 ...\n")
_SEND_USAGE = ("usage: chainsteg send [-h] --channel {high,med} --in INFILE [--key KEY]\n"
               "                      [--confirm-each] [--decoys DECOYS]\n")
_HELP = (_USAGE + "\n"
         "blockchain steganography over a simulated ledger\n"
         "\n"
         "positional arguments:\n"
         "  {keygen,send,scan,extract,mine,capacity,bench,stats,export}\n"
         "    keygen              generate key material\n"
         "    send                embed and submit a message\n"
         "    scan                detect and buffer incoming messages\n"
         "    extract             write received messages to a file\n"
         "    mine                assemble a block from the mempool\n"
         "    capacity            capacity table over (n, m)\n"
         "    bench               grinding effort benchmark\n"
         "    stats               indistinguishability statistics\n"
         "    export              human-readable chain dump\n"
         "\n"
         "options:\n"
         "  -h, --help            show this help message and exit\n"
         "  --chain CHAIN         chain file\n"
         "  --session SESSION     session state file\n"
         "  --seed SEED           deterministic seed\n"
         "  --config CONFIG       channel config file (key = value lines)\n")
_SEND_HELP = (_SEND_USAGE + "\n"
              "options:\n"
              "  -h, --help            show this help message and exit\n"
              "  --channel {high,med}\n"
              "  --in INFILE\n"
              "  --key KEY             key file (for a fresh session)\n"
              "  --confirm-each        mine a block after every stego transaction\n"
              "  --decoys DECOYS       decoy rate when --confirm-each mines\n")


@pytest.mark.parametrize("argv, code, out, err", [
    ([], 2, "", _USAGE + "chainsteg: error: the following arguments are required: command\n"),
    (["--help"], 0, _HELP, ""),
    (["send", "--help"], 0, _SEND_HELP, ""),
    (["frobnicate"], 2, "", _USAGE + "chainsteg: error: argument command: invalid choice: "
     "'frobnicate' (choose from 'keygen', 'send', 'scan', 'extract', 'mine', 'capacity', "
     "'bench', 'stats', 'export')\n"),
    (["send", "--in", "msg.bin"], 2, "",
     _SEND_USAGE + "chainsteg send: error: the following arguments are required: --channel\n"),
    (["capacity", "--n", "5..3", "--m", "4"], 2, "",
     "usage: chainsteg capacity [-h] --n N --m M\n"
     "chainsteg capacity: error: argument --n: invalid int_range value: '5..3'\n"),
], ids=["no subcommand", "help", "send help", "unknown subcommand", "missing channel",
        "bad range"])
def test_parser_messages_are_pinned(monkeypatch, capsys, argv, code, out, err):
    """A subcommand's parser is made only when it is dispatched to, and the
    help, usage and error texts and the exit codes read as they did when
    every subcommand's parser was built up front (80 columns)."""
    monkeypatch.setenv("COLUMNS", "80")
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert (exc.value.code, *capsys.readouterr()) == (code, out, err)
