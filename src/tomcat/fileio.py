"""Whole-file writes that never leave a partial file at the target path."""

from __future__ import annotations

import os
import uuid
from collections.abc import Iterator
from contextlib import contextmanager
from pathlib import Path


@contextmanager
def atomic_path(path: str | Path) -> Iterator[Path]:
    """A temporary path in path's directory for the caller to write, renamed
    over path when the block ends and removed when it fails, so a failure
    part-way leaves any previous file at path intact."""
    path = Path(path)
    tmp = path.with_name(f".{path.name}.{uuid.uuid4().hex}.tmp")
    try:
        yield tmp
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def write_atomic(path: str | Path, *parts) -> None:
    """Write the parts, each bytes or any C-contiguous buffer such as a numpy
    array, one after another to a temporary file in path's directory, flush
    it to disk, then rename it over path (see atomic_path). No part is
    copied."""
    with atomic_path(path) as tmp:
        fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
        try:
            for part in parts:
                view = memoryview(part).cast("B")
                while view:
                    view = view[os.write(fd, view):]
            os.fsync(fd)
        finally:
            os.close(fd)
