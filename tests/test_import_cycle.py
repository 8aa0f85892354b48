"""The query modules import without a cycle.

``relational`` is imported by ``behavior``, ``tpch_supp`` and ``warehouse``
at module top, so it must never import them back.  A Ray worker imports
whichever module defines the UDF it unpickles first, so each of the three
must also import cleanly on its own.  Each check runs in a fresh
interpreter: ``sys.modules`` in the test process is already warm.
"""

from __future__ import annotations

import subprocess
import sys

import pytest

_PIPELINES = "docling_jobkit_ray.pipelines"
_DEPENDENTS = ("behavior", "tpch_supp", "warehouse")


def _python(code: str) -> str:
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, timeout=120
    )
    assert proc.returncode == 0, proc.stderr[-2000:]
    return proc.stdout.strip()


def test_relational_imports_none_of_its_dependents():
    loaded = _python(
        "import sys\n"
        f"import {_PIPELINES}.relational\n"
        f"print(sorted(m for m in {_DEPENDENTS!r} if '{_PIPELINES}.' + m in sys.modules))"
    )
    assert loaded == "[]"


@pytest.mark.parametrize("name", _DEPENDENTS)
def test_dependent_imports_first(name):
    assert _python(f"import {_PIPELINES}.{name} as m; print(m.__name__)") == (
        f"{_PIPELINES}.{name}"
    )
