"""In-memory spans around the public functions of each chainsteg module.

A span is (name, start, end, parent, attrs). The benchmark opens one root
span per workload step (``step.send``, ``step.mine``, ``step.recv``,
``step.catchup``); wrappers installed on module and class attributes open
child spans, so a layer's self time is its duration minus its children's.
Nothing is written to disk: the spans live until the run prints its metrics.
"""

from __future__ import annotations

import functools
import os
import time
from contextlib import contextmanager

_perf = time.perf_counter


class Span:
    __slots__ = ("name", "start", "end", "parent", "root", "attrs", "child_time")

    def __init__(self, name, parent):
        self.name = name
        self.parent = parent
        self.root = parent.root if parent is not None else self
        self.attrs = {}
        self.child_time = 0.0
        self.start = self.end = 0.0

    @property
    def duration(self) -> float:
        return self.end - self.start

    @property
    def self_time(self) -> float:
        return self.duration - self.child_time


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self._stack: list[Span] = []

    def _open(self, name) -> Span:
        span = Span(name, self._stack[-1] if self._stack else None)
        self._stack.append(span)
        self.spans.append(span)
        span.start = _perf()
        return span

    def _close(self, span: Span) -> None:
        span.end = _perf()
        self._stack.pop()
        if span.parent is not None:
            span.parent.child_time += span.duration

    @contextmanager
    def span(self, name):
        span = self._open(name)
        try:
            yield span
        finally:
            self._close(span)

    def wrap(self, owner, attr: str, name: str, before=None, after=None) -> None:
        """Replace owner.attr by a traced wrapper.

        ``before(span, args)`` runs before the call, ``after(span, args,
        result)`` after it returns; both may set span.attrs. A raised
        exception is recorded as attrs["raised"] and re-raised.
        """
        raw = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        is_classmethod = isinstance(raw, classmethod)
        target = getattr(owner, attr)

        @functools.wraps(target)
        def traced(*args, **kwargs):
            span = self._open(name)
            try:
                if before is not None:
                    before(span, args)
                result = target(*args, **kwargs)
                if after is not None:
                    after(span, args, result)
                return result
            except BaseException as exc:
                span.attrs["raised"] = type(exc).__name__
                raise
            finally:
                self._close(span)

        setattr(owner, attr, staticmethod(traced) if is_classmethod else traced)

    def select(self, name: str, *roots: str) -> list[Span]:
        """Spans called `name` inside a workload step; only inside the
        steps named in `roots` when any are given."""
        return [
            s for s in self.spans
            if s.name == name and s.root.name.startswith("step.")
            and (not roots or s.root.name in roots)
        ]


def install(tracer: Tracer, cs) -> None:
    """Wrap the module-boundary calls of the chainsteg package `cs` (a
    namespace holding the imported submodules)."""
    backend, medium, high, ledger, session = (
        cs.backend, cs.medium, cs.high, cs.ledger, cs.session
    )

    def attempts(span, args, result):
        span.attrs["attempts"] = result[1] if result is not None else args[5]

    backends = [backend.PureBackend]
    if getattr(backend, "ExtBackend", None) is not None:
        backends.append(backend.ExtBackend)
    for cls in backends:
        tracer.wrap(cls, "grind_scan", "backend.grind_scan", after=attempts)
        tracer.wrap(cls, "derive_digest", "backend.derive_digest")

    tracer.wrap(medium, "embed", "medium.embed")
    tracer.wrap(medium, "grind", "medium.grind")
    tracer.wrap(medium, "extract", "medium.extract")

    def fields_fed(span, args):
        span.attrs["fields"] = len(args[1].outputs) - 1

    tracer.wrap(high, "frame_message", "high.frame_message")
    tracer.wrap(high.Reassembler, "feed_transaction", "high.feed_transaction",
                before=fields_fed)

    Ledger = ledger.Ledger

    def mempool_size(span, args):
        span.attrs["real"] = len(args[0].mempool)

    def block_made(span, args, block):
        span.attrs["txs"] = len(block.transactions) - 1
        span.attrs["decoys"] = len(block.transactions) - 1 - span.attrs["real"]

    def chain_bytes(span, args):
        span.attrs["bytes"] = os.path.getsize(args[0])

    tracer.wrap(Ledger, "submit", "ledger.submit")
    tracer.wrap(Ledger, "mine_block", "ledger.mine_block",
                before=mempool_size, after=block_made)
    tracer.wrap(Ledger, "load", "ledger.load", before=chain_bytes)
    tracer.wrap(Ledger, "save", "ledger.save")
    tracer.wrap(ledger.Block, "verify", "ledger.verify")

    State = session.SessionState
    tracer.wrap(State, "send_message", "session.send_message")
    tracer.wrap(State, "detect_and_receive", "session.detect_and_receive")
    tracer.wrap(State, "load", "session.load")
    tracer.wrap(State, "save", "session.save")

    if getattr(cs, "cli", None) is not None:
        tracer.wrap(cs.cli, "main", "cli.main")
