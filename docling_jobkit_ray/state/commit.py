"""The one staged-commit protocol: every writer in the package stages its
output and publishes it with one ``os.replace``, so readers see the old
state or the whole new one, never a partial write.

Crash contract (``tests/test_commit_protocol.py`` raises at each step for
every writer): a crash before the marker, or after it but before the
publish, leaves only a staging dir — the next run discards it (ingest
instead publishes one that carries its marker).  Only markers are fsynced;
partitions whose commit point is an external manifest (checkpoint) pass no
marker and pay no extra I/O.
"""

from __future__ import annotations

import os
import shutil
import uuid
from contextlib import contextmanager
from dataclasses import dataclass


@dataclass
class Staged:
    """The staging dir yielded by :func:`staged_dir`.  ``marker_text`` is
    the body written to the marker on commit (set it inside the block when
    it depends on what was written)."""

    path: str
    marker_text: str = ""


def write_synced(path: str, data) -> None:
    """Write ``data`` (a str, or any bytes-like object) to ``path`` and
    fsync it before returning."""
    with open(path, "w" if isinstance(data, str) else "wb") as f:
        f.write(data)
        f.flush()
        os.fsync(f.fileno())


def publish(src: str, dst: str, replace: bool = False) -> None:
    """Move a finished staging dir or temp file to its final name — the
    commit point.  ``replace`` first removes an existing ``dst`` dir (a
    directory cannot be renamed over a non-empty one)."""
    if replace and os.path.isdir(dst):
        shutil.rmtree(dst)
    os.replace(src, dst)


@contextmanager
def staged_dir(
    final: str, marker: str | None = None, replace: bool = False, *, staging: str | None = None
):
    """Build the directory ``final`` in ``staging`` (default
    ``<final>.staging``) and publish it on a clean exit.

    ``marker`` names the completeness file written (and fsynced) into the
    staging dir just before the publish; ``replace`` lets the publish
    overwrite an existing ``final``.  ``staging`` exists for writers whose
    staging names readers already know: checkpoint partitions stage in a
    hidden ``.tmp-<key>`` so ``part-*`` globs never match one, and ingest
    replays find ``.staging-<id>``."""
    staging = staging or final.rstrip("/") + ".staging"
    shutil.rmtree(staging, ignore_errors=True)
    os.makedirs(staging)
    st = Staged(staging)
    yield st
    if marker is not None:
        write_synced(os.path.join(staging, marker), st.marker_text)
    publish(staging, final, replace)


def read_marker(final: str, marker: str) -> str | None:
    """The marker body of a committed ``final``, or None before its commit."""
    try:
        with open(os.path.join(final, marker)) as f:
            return f.read()
    except FileNotFoundError:
        return None


def committed_versions(root: str, marker: str) -> list[int]:
    """N of every ``<root>/v<N>`` carrying its marker, ascending — the
    versions a reader may open (a ``v<N>.staging`` never qualifies)."""
    if not os.path.isdir(root):
        return []
    return sorted(
        int(d[1:])
        for d in os.listdir(root)
        if d[:1] == "v" and d[1:].isdigit() and os.path.exists(os.path.join(root, d, marker))
    )


def atomic_write(path: str, data) -> None:
    """Replace the file ``path`` with ``data`` atomically and durably.  The
    temp name is unique, so concurrent writers never share one."""
    d, base = os.path.split(path)
    tmp = os.path.join(d, f".{base}.{uuid.uuid4().hex[:8]}.tmp")
    write_synced(tmp, data)
    publish(tmp, path)
