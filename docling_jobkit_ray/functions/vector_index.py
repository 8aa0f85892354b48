"""Persisted IVF vector index: the SEMANTIC counterpart of the sharded
Bloom exact-dedup index (``functions/bloom.py``) and the MinHash-LSH
near-dup index (``functions/minhash_index.py``) — together the three
incremental-membership artifacts a standing 100 TB ingest loop maintains.

Artifact layout (same discipline as the other two):

    out_dir/cell=N/*.parquet      rows: (vec_id, embedding) of cell N
    out_dir/_meta.json            pins centroids + params (a probe can
                                  never silently use mismatched geometry)

Scale shape:
* centroids train on a BOUNDED hash-stripe sample (never the corpus);
* the build is one assignment map (matmul + argmax per batch) and one
  hive-partitioned write — embeddings cross the exchange once;
* a probe reads ONLY the ``n_probe`` cell partitions nearest each query
  (partition pruning: at 10^12 vectors the index has thousands of cell
  dirs; a probe touches a handful), then runs the exact-cosine partial
  top-k combiner inside them;
* appends are immutable per-increment files inside the existing cell
  dirs — centroids are FROZEN at build time (standard IVF practice:
  re-train + rebuild when drift matters), so an append is a pure
  assignment map, no rewrite of existing bytes.

The reference has no vector story (its dedup stops at content hashes,
``docling_jobkit/convert/results.py``); this is the retrieval/dedup
infrastructure a training-data platform runs next to it.
"""

from __future__ import annotations

import glob
import json
import os

import numpy as np
import pyarrow as pa
import ray.data

from ._arrow import list_column_to_matrix

__all__ = [
    "build_ivf_index",
    "append_ivf_index",
    "probe_ivf_index",
]

_META_NAME = "_meta.json"


def _normalize(m: np.ndarray) -> np.ndarray:
    norms = np.linalg.norm(m, axis=1, keepdims=True)
    norms[norms == 0] = 1.0
    return m / norms


def _train_centroids(
    ds: ray.data.Dataset, n_cells: int, *, seed: int, iters: int, sample_cap: int
) -> np.ndarray:
    """Deterministic k-means on a bounded sample of ``ds`` (hash-stripe
    sampling needs a table path; for a bare Dataset the bound is a
    ``limit`` over a streamed read — callers with clustered inputs should
    pre-shuffle or pass more cap)."""
    sample = ds.limit(sample_cap).to_pandas()
    x = _normalize(np.vstack(sample["embedding"].to_numpy()).astype(np.float32))
    rng = np.random.RandomState(seed)
    centroids = x[rng.choice(len(x), min(n_cells, len(x)), replace=False)].copy()
    for _ in range(iters):
        assign = np.argmax(x @ centroids.T, axis=1)
        for c in range(len(centroids)):
            members = x[assign == c]
            if len(members):
                centroids[c] = members.mean(axis=0)
        centroids = _normalize(centroids)
    return centroids


def _assigner(centroids: np.ndarray):
    def fn(batch: pa.Table) -> pa.Table:
        vecs = _normalize(list_column_to_matrix(batch.column("embedding")))
        cell = np.argmax(vecs @ centroids.T, axis=1).astype(np.int64)
        return pa.table(
            {
                "cell": pa.array(cell),
                "vec_id": batch["vec_id"],
                "embedding": batch["embedding"],
            }
        )

    return fn


def build_ivf_index(
    ds: ray.data.Dataset,
    out_dir: str,
    *,
    n_cells: int = 16,
    seed: int = 17,
    iters: int = 8,
    sample_cap: int = 100_000,
) -> dict:
    """Materialize the IVF index for a (vec_id, embedding) dataset."""
    centroids = _train_centroids(
        ds, n_cells, seed=seed, iters=iters, sample_cap=sample_cap
    )
    assigned = ds.map_batches(
        _assigner(centroids), batch_format="pyarrow", zero_copy_batch=True
    )
    assigned.write_parquet(out_dir, partition_cols=["cell"])
    meta = {
        "n_cells": int(len(centroids)),
        "dim": int(centroids.shape[1]),
        "seed": seed,
        "centroids": centroids.astype(float).tolist(),
    }
    with open(os.path.join(out_dir, _META_NAME), "w") as f:
        json.dump(meta, f)
    return {"n_cells": meta["n_cells"], "dim": meta["dim"], "path": out_dir}


def _load_meta(out_dir: str) -> tuple[np.ndarray, dict]:
    with open(os.path.join(out_dir, _META_NAME)) as f:
        meta = json.load(f)
    return np.asarray(meta["centroids"], dtype=np.float32), meta


def append_ivf_index(out_dir: str, new_ds: ray.data.Dataset) -> dict:
    """Assign new vectors to the FROZEN centroids and append them as new
    immutable files inside the existing cell partitions (Ray's
    write_parquet generates unique file names — existing bytes are never
    rewritten)."""
    centroids, meta = _load_meta(out_dir)
    assigned = new_ds.map_batches(
        _assigner(centroids), batch_format="pyarrow", zero_copy_batch=True
    )
    assigned.write_parquet(out_dir, partition_cols=["cell"])
    return {"n_cells": meta["n_cells"], "path": out_dir}


def probe_ivf_index(
    out_dir: str,
    queries: np.ndarray,
    query_ids: list[int],
    *,
    k: int = 5,
    n_probe: int = 4,
) -> ray.data.Dataset:
    """Top-k cosine neighbors per query, reading ONLY the probed cell
    partitions.  Returns (query_id, rank, vec_id, cosine) sorted by
    (query_id, rank); recall < 1 by IVF design — ``n_probe = n_cells``
    makes it exact (pytest pins that equivalence against brute force)."""
    from .similarity import _merge_topk

    centroids, meta = _load_meta(out_dir)
    q = _normalize(np.asarray(queries, dtype=np.float32))
    probe_cells = np.argsort(-(q @ centroids.T), axis=1)[:, :n_probe]
    cells = sorted(set(probe_cells.ravel().tolist()))
    files = [
        f
        for c in cells
        for f in sorted(glob.glob(os.path.join(out_dir, f"cell={c}", "*.parquet")))
    ]
    empty = pa.table(
        {
            "query_id": pa.array([], pa.int64()),
            "rank": pa.array([], pa.int64()),
            "vec_id": pa.array([], pa.int64()),
            "cosine": pa.array([], pa.float64()),
        }
    )
    if not files:
        return ray.data.from_arrow(empty)

    cell_of_file = {}  # hive partition value recovered from the path
    for f in files:
        cell_of_file[f] = int(os.path.basename(os.path.dirname(f)).split("=")[1])

    qids = np.asarray(query_ids, dtype=np.int64)

    def local_topk(batch: pa.Table) -> pa.Table:
        # `cell` rides the hive partition column on read
        vecs = _normalize(list_column_to_matrix(batch.column("embedding")))
        vec_ids = batch.column("vec_id").to_numpy(zero_copy_only=False)
        cells_col = batch.column("cell").to_numpy(zero_copy_only=False).astype(np.int64)
        out_q, out_v, out_s = [], [], []
        sims = vecs @ q.T  # (n, nq)
        for qi in range(len(qids)):
            mask = np.isin(cells_col, probe_cells[qi])
            if not mask.any():
                continue
            s = sims[mask, qi]
            ids = vec_ids[mask]
            kk = min(k, len(ids))
            top = np.argpartition(-s, kk - 1)[:kk]
            out_q.extend([qids[qi]] * kk)
            out_v.extend(ids[top].tolist())
            out_s.extend(s[top].astype(np.float64).tolist())
        return pa.table(
            {
                "query_id": pa.array(out_q, pa.int64()),
                "vec_id": pa.array(out_v, pa.int64()),
                "cosine": pa.array(out_s, pa.float64()),
            }
        )

    partials = ray.data.read_parquet(files).map_batches(
        local_topk, batch_format="pyarrow", zero_copy_batch=True
    )

    return (
        _merge_topk(partials, k)
        .select_columns(["query_id", "rank", "vec_id", "cosine"])
        .sort(["query_id", "rank"])
    )
