"""Backend selection: compiled kernel when importable, pure Python otherwise.

Both backends implement the same two calls used on hot paths. The
observable contract is identical: grind_scan gives each target the smallest
matching counter not taken by an earlier target, so results never depend on
which backend ran.
"""

from __future__ import annotations

import hashlib
import os

from . import ec
from .hashes import hash160

_DIGEST_BATCH = 64
MAX_TARGETS = 20  # one target per output of a MED transaction (n <= 20)


def select_bits(digest: bytes, positions: tuple[int, ...]) -> int:
    """Build a chunk value from digest bits; positions are LSB-indexed into
    the 160-bit integer, first position becomes the chunk's MSB."""
    value = int.from_bytes(digest, "big")
    out = 0
    for pos in positions:
        out = (out << 1) | ((value >> pos) & 1)
    return out


class PureBackend:
    name = "pure"

    @staticmethod
    def _points(k: bytes, tag: int, start: int, count: int, gy):
        jac = []
        for counter in range(start, start + count):
            msg = k + bytes([tag]) + counter.to_bytes(8, "big")
            h = int.from_bytes(hashlib.sha256(msg).digest(), "big") % ec.Q
            jac.append(ec._jac_add_affine(ec.mult_g_jacobian(h), gy))
        return ec.jac_batch_to_affine(jac)

    def derive_digest(self, k: bytes, tag: int, counter: int, gy):
        pt = self._points(k, tag, counter, 1, gy)[0]
        return None if pt is None else hash160(ec.compress(pt))

    def grind_scan(self, k, tag, gy, start, max_attempts, positions, *targets):
        """One scan of counters start, start + 1, ... that fills every target.

        A usable counter whose digest carries a value on `positions` goes to
        the first still-open target with that value, so equal targets get
        distinct counters. Returns ((counter, digest) per target, attempts),
        where attempts is the offset of the last hit + 1, or None when
        `max_attempts` counters leave a target open."""
        m = len(positions)
        if any(not 0 <= pos < 160 for pos in positions):
            raise ValueError(f"bit positions must be in [0, 160), got {positions}")
        if not 1 <= len(targets) <= MAX_TARGETS:
            raise ValueError(f"{len(targets)} targets, expected 1 to {MAX_TARGETS}")
        if any(not 0 <= t < 1 << m for t in targets):
            raise ValueError(f"targets must be in [0, 2^{m}), got {targets}")
        open_slots: dict[int, list[int]] = {}
        for slot, value in enumerate(targets):
            open_slots.setdefault(value, []).append(slot)
        hits = [None] * len(targets)
        n_open = len(targets)
        batch = _DIGEST_BATCH if m >= 6 else max(8, 1 << m)
        done = 0
        while done < max_attempts:
            count = min(batch, max_attempts - done)
            pts = self._points(k, tag, start + done, count, gy)
            for i, pt in enumerate(pts):
                if pt is None:
                    continue  # degenerate index, skip
                digest = hash160(ec.compress(pt))
                slots = open_slots.get(select_bits(digest, positions))
                if slots:
                    hits[slots.pop(0)] = (start + done + i, digest)
                    n_open -= 1
                    if not n_open:
                        return tuple(hits), done + i + 1
            done += count
        return None


_pure = PureBackend()
_ext = None
try:
    from . import _kernel  # noqa: F401

    class ExtBackend:
        name = "ext"

        def derive_digest(self, k, tag, counter, gy):
            return _kernel.derive_digest(k, tag, counter, gy[0], gy[1])

        def grind_scan(self, k, tag, gy, start, max_attempts, positions, *targets):
            return _kernel.grind_scan(
                k, tag, gy[0], gy[1], start, max_attempts, positions, targets
            )

    _ext = ExtBackend()
except ImportError:
    pass

_active = None


def available() -> list[str]:
    return ["pure"] + (["ext"] if _ext is not None else [])


def get():
    global _active
    if _active is None:
        choice = os.environ.get("CHAINSTEG_BACKEND", "auto")
        set_backend(choice)
    return _active


def set_backend(name: str):
    global _active
    if name == "auto":
        _active = _ext if _ext is not None else _pure
    elif name == "pure":
        _active = _pure
    elif name == "ext":
        if _ext is None:
            raise RuntimeError("compiled kernel not available")
        _active = _ext
    else:
        raise ValueError(f"unknown backend {name!r}")
    return _active
