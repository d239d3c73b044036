"""Whole-file writes that never leave a partial file at the target path."""

from __future__ import annotations

import os
import uuid
from pathlib import Path


def write_atomic(path: str | Path, *parts) -> None:
    """Write the parts, each bytes or any C-contiguous buffer such as a numpy
    array, one after another to a temporary file in path's directory, flush
    it to disk, then rename it over path. No part is copied. A failure
    part-way removes the temporary file and leaves any previous file at
    path intact."""
    path = Path(path)
    tmp = path.with_name(f".{path.name}.{uuid.uuid4().hex}.tmp")
    try:
        fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
        try:
            for part in parts:
                view = memoryview(part).cast("B")
                while view:
                    view = view[os.write(fd, view):]
            os.fsync(fd)
        finally:
            os.close(fd)
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise
