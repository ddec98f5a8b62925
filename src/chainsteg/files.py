"""Whole-file replacement for the state files (session, key, mempool
sidecar), and for a chain file that a ledger writes whole: one it has not
saved to before. Saves to the same chain file append."""

from __future__ import annotations

import os
import tempfile


def write_atomic(path, data: bytes) -> None:
    """Replace the file at `path` by `data`.

    The bytes go to a temporary file in the same directory, which is then
    renamed over `path` with os.replace, so a reader sees the old file or
    the new one and never a partial write; if anything fails, the old file
    is left as it was and the temporary file is removed. There is no fsync:
    after a power loss the rename may be lost, so the write is atomic but
    not durable. The new file has mode 0600 (tempfile.mkstemp).
    """
    directory = os.path.dirname(os.path.abspath(path))
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=os.path.basename(path) + ".",
                               suffix=".tmp")
    try:
        with os.fdopen(fd, "wb") as fh:
            fh.write(data)
        os.replace(tmp, path)
    except BaseException:
        os.unlink(tmp)
        raise
