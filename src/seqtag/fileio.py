"""Atomic file replacement, shared by every writer of output files."""

import contextlib
import os

__all__ = ["write_atomic"]


def write_atomic(path, data):
    """Write ``data`` (bytes) to ``path`` through a temporary file in the
    same directory and ``os.replace``, so a reader sees the old file or the
    new one, never a torn one. A failed write leaves the old file as it was
    and no temporary file behind. The new file gets the permissions a plain
    ``open(path, "w")`` would give it. An OSError names ``path``, not the
    temporary file."""
    path = os.fspath(path)
    directory, name = os.path.split(path)
    tmp = os.path.join(directory, f".{name}.{os.urandom(8).hex()}.tmp")
    try:
        fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
        try:
            with os.fdopen(fd, "wb") as fh:
                fh.write(data)
            os.replace(tmp, path)
        except BaseException:
            with contextlib.suppress(FileNotFoundError):
                os.unlink(tmp)
            raise
    except OSError as exc:
        raise OSError(exc.errno, exc.strerror, path) from exc
