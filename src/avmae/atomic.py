"""Atomic file writes: a reader finds the old file or the whole new one.

The bytes go to a temporary file in the target's directory, which is
flushed to disk and then renamed over the target with ``os.replace``; the
directory is flushed after the rename, so a crash cannot lose it. If a
write fails, the temporary file is removed and the target is untouched.
"""

from __future__ import annotations

import os
import secrets
from pathlib import Path


def write_atomic(path, chunks) -> None:
    """Write the byte strings ``chunks``, in order, as the file ``path``."""
    path = Path(path)
    tmp = path.with_name(f".{path.name}.{os.getpid()}.{secrets.token_hex(4)}.tmp")
    try:
        with open(tmp, "xb") as fh:
            for chunk in chunks:
                fh.write(chunk)
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise
    fd = os.open(path.parent, os.O_RDONLY)
    try:
        os.fsync(fd)
    finally:
        os.close(fd)
