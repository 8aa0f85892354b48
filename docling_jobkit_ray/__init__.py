"""docling_jobkit_ray — a Ray-Data-native document extraction engine.

Brand-new implementation of docling-jobkit's data-processing capabilities
(reference: docling-project/docling-jobkit v3.1.0) re-expressed as
``ray.data.Dataset`` pipelines: map_batches over zero-copy Arrow batches,
actor pools for stateful stages, groupby/sort for the wide steps, streaming
execution with backpressure, per-partition checkpointed output.

Public surface:

- :mod:`docling_jobkit_ray.extract` — pure deterministic extraction library
  (HTML boilerplate strip, binary layout parse, error taxonomy).  The oracle.
- :mod:`docling_jobkit_ray.pipelines.extract` — the flagship pipeline
  (fused / sliced plans, dead-letter view).
- :mod:`docling_jobkit_ray.state.checkpoint` — resumable shard-by-shard runs
  with manifest lineage + counters.
- :mod:`docling_jobkit_ray.stages` — extraction / slice-fanout / chunking /
  multimodal actor-pool stages.
- :mod:`docling_jobkit_ray.functions` — dedup (exact, MinHash-LSH, SimHash,
  embedding), similarity search (brute-force / IVF ANN), text analysis
  (lang-id, quality, tokens, fingerprints).
- :mod:`docling_jobkit_ray.pipelines.relational` — filter / project /
  broadcast-join / grouped-aggregate / window / top-k query surface.
- :mod:`docling_jobkit_ray.queries` — the ordered table of every
  registered query with its DuckDB oracle SQL (``queries()`` /
  ``oracle_sql()``; ``python -m docling_jobkit_ray.cli query --list``).

Sessions are owned by the caller (bench.py, tests' conftest, or the
driver).  The one ``ray.init()`` in this package starts a default session
when none is running (``sources.pages.shard_groups`` needs the CPU count),
as Ray Data's own read calls do.
"""

__version__ = "0.1.0"
