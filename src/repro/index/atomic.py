"""Crash-safe file writes: temp file + fsync + atomic rename.

Every on-disk writer (snapshot, v2 binary, manifest, live sidecar) funnels
through :func:`atomic_write`, so a process killed mid-write can never
leave a half-written file under the destination name: the bytes go to
``<path>.tmp``, are fsynced, and only then renamed over ``<path>`` with
``os.replace`` — which is atomic on POSIX and on Windows.  Readers see
either the complete old file or the complete new one, never a torn
middle; a crash leaves at worst a stale ``.tmp`` beside the target.
"""

from __future__ import annotations

import os
from contextlib import contextmanager
from typing import IO, Iterator

#: Suffix of the in-flight temporary (same directory as the target, so
#: the final rename never crosses a filesystem boundary).
TMP_SUFFIX = ".tmp"


def _fsync_directory(path: str) -> None:
    """Best-effort fsync of ``path``'s directory (rename durability)."""
    directory = os.path.dirname(os.path.abspath(path))
    try:
        fd = os.open(directory, os.O_RDONLY)
    except OSError:
        return
    try:
        os.fsync(fd)
    except OSError:
        pass
    finally:
        os.close(fd)


@contextmanager
def atomic_write(path: str, mode: str = "wb", **open_kwargs) -> Iterator[IO]:
    """Open ``<path>.tmp`` for writing; publish atomically on success.

    On a clean exit from the ``with`` block the temp file is flushed,
    fsynced, and renamed over ``path`` (plus a best-effort directory
    fsync so the rename itself survives power loss).  On any exception
    the temp file is deleted and the destination is left untouched.
    """
    if "r" in mode or "a" in mode or "+" in mode:
        raise ValueError(f"atomic_write needs a write mode, got {mode!r}")
    tmp = path + TMP_SUFFIX
    handle = open(tmp, mode, **open_kwargs)
    try:
        yield handle
        handle.flush()
        os.fsync(handle.fileno())
    except BaseException:
        handle.close()
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise
    handle.close()
    os.replace(tmp, path)
    _fsync_directory(path)
