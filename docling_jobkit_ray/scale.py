"""Scale-adaptive sizing for per-key shuffles.

The bucketed operators (sessionize, as-of join, minhash pair emission,
bucketed_join, grouped top-k) group on ``key % n_buckets`` so one vectorized
pass runs per bucket instead of one Python call per key (CLAUDE.md bucketize
rule).  A FIXED bucket count is a 100x-scale hazard: each bucket group
materializes ~rows/n_buckets rows in one worker's heap, so the count must
grow with the input.  These helpers derive the count from the input size —
estimated from Parquet footers (metadata only, no data read) — rounded to a
power of two, with a floor that keeps the small-scale per-group call count
low (too MANY buckets is as bad as too few: 4096 vs 256 doubled minhash wall
time at 5k docs).

This module only sizes the key space; the per-key fold itself is written
with ``exchange.bucket_exchange``: ``exchange.py`` is the only module that
calls ``map_groups``, and ``tests/test_exchange.py`` guards it.

Replaces the reference's static worker/queue sizing knobs
(``orchestrators/ray/config.py``) with data-derived partitioning.
"""

from __future__ import annotations

import glob
import os


def estimate_table_rows(path: str) -> int:
    """Row-count estimate from Parquet footers only (cheap at any scale:
    one footer read per file, no column data).  ``path`` may be a file, a
    directory of parquet files, or a glob — local or any fsspec URI
    (``s3://...``): a remote corpus must NOT silently estimate as 0 rows,
    or every scale-derived bucket count degrades to the minimum floor
    exactly where it matters most."""
    import pyarrow.parquet as pq

    if "://" in path:
        import fsspec

        fs, rpath = fsspec.core.url_to_fs(path)
        if fs.isdir(rpath):
            files = sorted(f for f in fs.find(rpath) if f.endswith(".parquet"))
        elif fs.isfile(rpath):
            files = [rpath]
        else:
            files = sorted(fs.glob(rpath))
        total = 0
        for f in files:
            with fs.open(f, "rb") as fh:
                total += pq.ParquetFile(fh).metadata.num_rows
        return total
    if os.path.isdir(path):
        files = sorted(glob.glob(os.path.join(path, "**", "*.parquet"), recursive=True))
    elif os.path.isfile(path):
        files = [path]
    else:
        files = sorted(glob.glob(path))
    total = 0
    for f in files:
        total += pq.ParquetFile(f).metadata.num_rows
    return total


def estimate_rows(sf_dir: str, name: str) -> int:
    """Footer row count for one driver testdata table."""
    return estimate_table_rows(f"{sf_dir}/{name}.parquet")


def bucket_count(
    est_rows: int,
    *,
    target_rows_per_bucket: int = 250_000,
    min_buckets: int = 64,
    max_buckets: int = 1 << 20,
) -> int:
    """Power-of-two bucket count such that one bucket group holds about
    ``target_rows_per_bucket`` rows.

    - floor ``min_buckets`` keeps enough spread for parallelism at small
      scale without a per-tiny-key Python call;
    - ceiling ``max_buckets`` bounds the groupby key cardinality;
    - power of two so callers can bucket with a single ``bit_wise_and``.
    """
    if target_rows_per_bucket <= 0:
        raise ValueError("target_rows_per_bucket must be positive")
    need = max(1, (max(est_rows, 0) + target_rows_per_bucket - 1) // target_rows_per_bucket)
    n = max(min_buckets, need)
    # round up to a power of two
    p = 1
    while p < n:
        p <<= 1
    return min(max_buckets, p)
