"""The benchmark's own harness runs on this tree: one traced reload episode,
the CLI's persisted send, mine and scan flow, in a subprocess."""

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

_EPISODE = """
import json, sys
from pathlib import Path
root, workdir = Path(sys.argv[1]), Path(sys.argv[2])
sys.path[:0] = [str(root / "perfbench"), str(root / "src")]
import run, spans, workloads
ns = run.fresh_import(True)
tracer = spans.Tracer()
spans.install(tracer, ns)
st = workloads.setup_reload(ns, 5, workdir)
ep = workloads.run_reload(ns, st, workloads.Steps(tracer), workdir)
print(json.dumps({
    "problems": ep.problems,
    "failures": ep.failures(),
    "messages": len(st["messages"]),
    "sent": [[ch, msg.hex()] for ch, msg in ep.sent],
    "received": {name: [[ch, msg.hex()] for ch, msg in got]
                 for name, got in ep.received.items()},
}))
"""


def test_reload_episode_runs_in_the_benchmark_harness(tmp_path):
    # The benchmark wraps functions by name and its reload steps load and
    # save the session file, so a renamed function or a session that does
    # not round-trip through the CLI fails here. -B: no bytecode in the tree.
    proc = subprocess.run(
        [sys.executable, "-B", "-c", _EPISODE, str(ROOT), str(tmp_path)],
        capture_output=True, text=True, timeout=600,
    )
    assert proc.returncode == 0, proc.stderr[-4000:]
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result["problems"] == [] and result["failures"] == 0, proc.stderr[-4000:]
    assert len(result["sent"]) == result["messages"] > 0
    assert result["received"] and all(
        got == result["sent"] for got in result["received"].values())
