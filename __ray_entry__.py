"""Driver contract for the graft builder (Ray Data target).

``entry()`` runs the flagship extraction pipeline on a deterministic
synthetic pages corpus derived from sf0.001 scale; ``queries()`` exposes one
callable per implemented operator and ``oracle_sql()`` gives the
DuckDB-checkable subset.  Both read the ordered table in
``docling_jobkit_ray/queries.py``.

Ray is initialised by the driver BEFORE this module is imported: nothing
here calls ``ray.init()`` / ``ray.shutdown()``.
"""

from __future__ import annotations

from typing import Any

from docling_jobkit_ray.queries import corpus_for, oracle_sql, queries

__all__ = ["entry", "oracle_sql", "queries"]


def entry() -> Any:
    """Flagship pipeline on the sf0.001-scale corpus: fused read+extract
    tasks -> extracted dataset (combined output schema).  mode="fused" is
    the headline plan (BASELINE.md: ~2x the chained read->map plan)."""
    from docling_jobkit_ray.pipelines.extract import extract_pipeline

    return extract_pipeline(corpus_for("/root/testdata/sf0.001"), mode="fused")
