"""Atomic file writes: temp file + ``os.replace`` in the target dir.

Every artefact this package persists (run manifests, cell-cache
entries, trace sinks, benchmark tables, HPC trace CSVs) goes through
these helpers so a killed run never leaves a truncated file behind —
readers either see the old complete content or the new complete
content, nothing in between.
"""

import json
import os
import tempfile


def atomic_write_text(path, text, encoding="utf-8"):
    """Write *text* to *path* atomically; returns the byte count."""
    path = os.fspath(path)
    directory = os.path.dirname(path) or "."
    data = text.encode(encoding)
    fd, tmp_path = tempfile.mkstemp(
        dir=directory, prefix=os.path.basename(path) + ".", suffix=".tmp"
    )
    try:
        with os.fdopen(fd, "wb") as handle:
            handle.write(data)
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(tmp_path, path)
    except BaseException:
        try:
            os.unlink(tmp_path)
        except OSError:
            pass
        raise
    return len(data)


def atomic_write_json(path, obj, **dumps_kwargs):
    """Serialise *obj* as JSON and write it atomically."""
    dumps_kwargs.setdefault("indent", 1)
    dumps_kwargs.setdefault("sort_keys", True)
    return atomic_write_text(path, json.dumps(obj, **dumps_kwargs) + "\n")

