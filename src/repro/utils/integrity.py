"""Cheap integrity primitives for on-disk data.

CRC-32 is not cryptographic — it guards against truncation, bit rot and
stale/partial writes of the fleet's memory-mapped ambient spills, which is
exactly the failure family the fault model injects.  :func:`write_json`
is the one way the package writes a JSON document that a reader may open
while it is being replaced.
"""

from __future__ import annotations

import json
import os
import uuid
import zlib


def crc32_bytes(data):
    """CRC-32 of a bytes-like object (campaign checkpoint payloads)."""
    return zlib.crc32(bytes(data)) & 0xFFFFFFFF


def crc32_file(path):
    """CRC-32 of a file's contents, streamed in 1 MiB chunks."""
    crc = 0
    with open(path, "rb") as fh:
        while True:
            chunk = fh.read(1 << 20)
            if not chunk:
                break
            crc = zlib.crc32(chunk, crc)
    return crc & 0xFFFFFFFF


def write_json(path, payload):
    """Write ``payload`` to ``path`` as JSON, atomically; returns the path.

    The document has indent 2, sorted keys and a trailing newline.  It is
    staged in a temp file in the destination directory and
    ``os.replace``\\ d into place, so a reader (a dashboard polling a live
    snapshot, a resumed campaign) sees the old document or the whole new
    one, never a half-written one.  Missing directories are created.
    """
    directory = os.path.dirname(path) or "."
    os.makedirs(directory, exist_ok=True)
    # A fresh name beside the target, created as ``open(path, "w")`` would
    # create it (0o666 less the umask), not owner-only as ``mkstemp`` does.
    name = f".{os.path.basename(path)}.{uuid.uuid4().hex}.tmp"
    tmp = os.path.join(directory, name)
    fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
    try:
        with os.fdopen(fd, "w") as fh:
            json.dump(payload, fh, indent=2, sort_keys=True)
            fh.write("\n")
        os.replace(tmp, path)
    finally:
        if os.path.exists(tmp):
            os.unlink(tmp)
    return path
