"""Build and load the C extraction kernel, ``_htmlkernel.c``.

The kernel compiles at first import with the system ``gcc`` into
``__nativecache__/`` beside this file.  The file name carries a hash of the
source, the flags and the interpreter, so an edit or another Python rebuilds
it, and every later import (each Ray worker's included) is one ``dlopen``.
A file lock serialises concurrent first imports, and the finished ``.so`` is
installed with :func:`state.commit.publish`, so no process loads a
half-written file.  Any failure returns None, and ``extract_html`` runs the
Python path.  A missing compiler or ``Python.h`` does so quietly; any other
failure (a read-only tree, a compile error, a load error) also warns, since
it costs the kernel's speed-up where a build was expected to work.
"""

from __future__ import annotations

import fcntl
import glob
import hashlib
import importlib.util
import os
import shutil
import subprocess
import sys
import sysconfig
import warnings

from ..state.commit import publish

SOURCE = os.path.join(os.path.dirname(os.path.abspath(__file__)), "_htmlkernel.c")
CACHE = os.path.join(os.path.dirname(SOURCE), "__nativecache__")
CFLAGS = ("-O2", "-shared", "-fPIC")


def build_command(output: str, *extra_flags: str) -> list[str] | None:
    """The gcc command compiling the kernel to ``output``; None when gcc or
    ``Python.h`` is missing."""
    gcc = shutil.which("gcc")
    include = sysconfig.get_paths()["include"]
    if gcc is None or not os.path.exists(os.path.join(include, "Python.h")):
        return None
    return [gcc, *CFLAGS, *extra_flags, f"-I{include}", SOURCE, "-o", output]


def _build() -> str | None:
    """-> the path of the built kernel, compiling it if needed; None when
    it needs building and gcc or Python.h is missing."""
    with open(SOURCE, "rb") as f:
        source = f.read()
    suffix = sysconfig.get_config_var("EXT_SUFFIX") or ".so"
    key = hashlib.sha256(
        b"\0".join([source, " ".join(CFLAGS).encode(), sys.version.encode(), suffix.encode()])
    ).hexdigest()[:16]
    path = os.path.join(CACHE, f"_htmlkernel-{key}{suffix}")
    if os.path.exists(path):
        return path
    tmp = f"{path}.{os.getpid()}.tmp"
    cmd = build_command(tmp)
    if cmd is None:
        return None
    os.makedirs(CACHE, exist_ok=True)
    with open(os.path.join(CACHE, ".lock"), "a") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        if not os.path.exists(path):  # another process may have built it
            try:
                subprocess.run(cmd, check=True, capture_output=True, text=True, timeout=300)
                publish(tmp, path)
            finally:
                if os.path.exists(tmp):
                    os.remove(tmp)
            # earlier builds for this interpreter are dead weight now
            for stale in glob.glob(os.path.join(CACHE, f"_htmlkernel-*{suffix}")):
                if stale != path:
                    os.remove(stale)
    return path


def load():
    """The kernel module, or None when it cannot be built or loaded (with a
    RuntimeWarning unless gcc or Python.h is missing)."""
    try:
        path = _build()
        if path is None:
            return None
        spec = importlib.util.spec_from_file_location(f"{__package__}._htmlkernel", path)
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
        return module
    except Exception as exc:
        detail = exc.stderr if isinstance(exc, subprocess.CalledProcessError) else exc
        warnings.warn(
            f"the C extraction kernel did not build or load; extract_html runs the "
            f"Python path: {detail}",
            RuntimeWarning,
            stacklevel=2,
        )
        return None
