"""Whole-file writes that never leave a partial file at the target path."""

from __future__ import annotations

import os
import uuid
from pathlib import Path


def write_atomic(path: str | Path, data: bytes) -> None:
    """Write data to a temporary file in path's directory, flush it to disk,
    then rename it over path.

    A failure part-way leaves any previous file at path intact and removes
    the temporary file.
    """
    path = Path(path)
    tmp = path.with_name(f".{path.name}.{uuid.uuid4().hex}.tmp")
    fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
    try:
        try:
            view = memoryview(data)
            while view:
                view = view[os.write(fd, view):]
            os.fsync(fd)
        finally:
            os.close(fd)
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise
