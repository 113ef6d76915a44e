"""Atomic file replacement, shared by every writer of output files:
``write_staged`` writes a command's outputs, one or several, each through
a temporary file, and replaces none before all are written."""

import contextlib
import os

__all__ = ["write_staged"]


def write_staged(outputs):
    """Write each ``(path, data)`` pair of ``outputs`` (data as bytes) to a
    temporary file in its path's directory, and only once every write has
    succeeded ``os.replace`` each path in order. A failed write leaves
    every path as it was and no temporary file behind. New files get the
    permissions a plain ``open(path, "w")`` would give them. An OSError
    names the path being written or replaced, never a temporary file.

    Each replacement is atomic, so a reader sees a whole old file or a
    whole new one, but the set is not: between two ``os.replace`` calls the
    earlier paths are new and the later ones old, and a replacement that
    fails there (the directory removed or made read-only in that window)
    or a kill leaves the set split that way. The window is a few system
    calls long; all data is written before it opens."""
    staged = []  # (temporary file, path) per file written so far
    path = None
    try:
        for path, data in outputs:
            path = os.fspath(path)
            directory, name = os.path.split(path)
            tmp = os.path.join(directory, f".{name}.{os.urandom(8).hex()}.tmp")
            fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
            staged.append((tmp, path))
            with os.fdopen(fd, "wb") as fh:
                fh.write(data)
        for tmp, path in staged:
            os.replace(tmp, path)
    except BaseException as exc:
        for tmp, _ in staged:
            with contextlib.suppress(FileNotFoundError):
                os.unlink(tmp)
        if isinstance(exc, OSError):
            raise OSError(exc.errno, exc.strerror, path) from exc
        raise
