"""Atomic file writes: temp file + ``os.replace`` in the target dir.

Every artefact this package persists (cell-cache entries, benchmark
tables, HPC trace CSVs) goes through these helpers so a killed run never
leaves a truncated file behind — readers either see the old complete
content or the new complete content, nothing in between.
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


def append_jsonl(path, obj):
    """Append one JSON object as a single line to an append-only file.

    The record is serialised first and written with one ``os.write`` on
    an ``O_APPEND`` descriptor, so concurrent appenders interleave at
    line granularity and a killed writer can leave at most one torn
    *final* line — which :func:`read_jsonl_tolerant` skips.  The
    bench-history ledger relies on it.  Returns the byte count written.
    """
    path = os.fspath(path)
    line = json.dumps(obj, sort_keys=True,
                      separators=(",", ":")) + "\n"
    data = line.encode("utf-8")
    fd = os.open(path, os.O_WRONLY | os.O_CREAT | os.O_APPEND, 0o644)
    try:
        os.write(fd, data)
        os.fsync(fd)
    finally:
        os.close(fd)
    return len(data)


def read_jsonl_tolerant(path):
    """Read a JSONL file, skipping blank and torn (unparseable) lines.

    Appenders using :func:`append_jsonl` can only tear the final line,
    but readers tolerate damage anywhere — an observability file must
    never take the tooling down with it.  Returns a list of objects.
    """
    records = []
    try:
        with open(path, "r", encoding="utf-8") as handle:
            for line in handle:
                line = line.strip()
                if not line:
                    continue
                try:
                    records.append(json.loads(line))
                except ValueError:
                    continue
    except FileNotFoundError:
        return []
    return records
