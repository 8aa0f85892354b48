"""Training-shard materialization: the last mile of the data pipeline.

``make_training_shards`` turns the curated documents table into what a
trainer actually mounts: ``n_shards`` hive-partitioned parquet directories
of token-budget-packed sequences, written once, resumably.

    documents ──epoch-hash shard assignment──► groupby(shard)
              ──per-shard FFD packing (functions/packing.py)──►
              staged write + _SUCCESS ──rename──► out_dir/shard=K/...

Design points (the 100 TB argument):

* **Shard assignment is a deterministic epoch-salted hash** — no global
  shuffle order materializes anywhere; epoch N+1 re-mixes by changing the
  salt, not by re-shuffling bytes.  The full-period Lehmer multiplier
  keeps the map exact in int64 and free of the small-multiplier prefix
  bias (CLAUDE.md).
* **Packing is shard-local** (one exchange fold call per shard): bins
  never span shards, so shards are independently readable training units
  and the stage is embarrassingly parallel.  ``n_shards`` derives from the
  input row estimate (``scale.bucket_count``) so one shard always fits a
  worker.
* **The write is the ingest/checkpoint staging pattern**: stage ->
  ``_SUCCESS`` -> atomic rename; a replay of a committed epoch returns
  immediately, a torn staging dir is discarded wholesale.

Reference parity: replaces the reference's results-processor parquet
chunking (``docling_jobkit/convert/results_processor.py``) with a
trainer-facing packed layout; the FFD kernel and its bound live in
``functions/packing.py``.
"""

from __future__ import annotations

import os

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import ray.data

from ..exchange import bucket_exchange
from ..sources.pages import read_table
from ..state.commit import read_marker, staged_dir
from .ingest import _count_parquet_rows

__all__ = ["make_training_shards", "training_shards"]

_M = 2**31 - 1  # Mersenne prime modulus
_A = 630360016  # full-period Lehmer multiplier (exact in int64 both engines)
_TOKEN_RE = r"[^\s]+"


def _shard_of(doc_ids: pa.ChunkedArray | pa.Array, epoch: int, n_shards: int) -> pa.Array:
    x = np.asarray(
        doc_ids.combine_chunks() if isinstance(doc_ids, pa.ChunkedArray) else doc_ids,
        dtype=np.int64,
    )
    h = (((x % _M) + np.int64(epoch)) % _M * np.int64(_A)) % np.int64(_M)
    return pa.array(h % np.int64(n_shards))


def _input_fingerprint(sf_dir: str) -> str:
    """Footer row count + size + mtime of the input table — metadata-only,
    changes whenever the corpus is regenerated in place."""
    import pyarrow.parquet as pq

    p = os.path.join(sf_dir, "documents.parquet")
    st = os.stat(p)
    rows = pq.ParquetFile(p).metadata.num_rows
    return f"{rows}:{st.st_size}:{st.st_mtime_ns}"


def make_training_shards(
    sf_dir: str,
    out_dir: str,
    *,
    budget_tokens: int = 512,
    n_shards: int | None = None,
    epoch: int = 0,
) -> dict:
    """Materialize packed training shards for one epoch; returns a manifest.

    Output rows: ``(shard, doc_id, n_tokens, pack_id, pack_tokens)`` under
    ``out_dir/shard=K/``; ``pack_id`` is the minimum doc_id of the bin
    (bins never span shards, so it is globally unique).  Idempotent: an
    already-committed ``out_dir`` returns immediately."""
    from ..functions.packing import pack_batch
    from ..scale import bucket_count, estimate_rows

    # Input fingerprint guards the _SUCCESS short-circuit: a regenerated
    # corpus at the same path must NOT silently reuse stale shards
    # (CLAUDE.md /tmp-cache rule — keys bump when inputs change).
    fingerprint = _input_fingerprint(sf_dir)
    # A stale out_dir (input changed under the same path) is rebuilt below;
    # the publish replaces it, so readers keep the old shards until then.
    if read_marker(out_dir, "_SUCCESS") == fingerprint:
        return {
            "out_dir": out_dir,
            "n_docs": _count_parquet_rows(out_dir),
            "n_shards": None,
            "already_committed": True,
        }

    if n_shards is None:
        n_shards = bucket_count(estimate_rows(sf_dir, "documents"), min_buckets=8)

    ds = read_table(sf_dir, "documents", columns=["doc_id", "text"])

    out_schema = pa.schema(
        [
            ("shard", pa.int64()),
            ("doc_id", pa.int64()),
            ("n_tokens", pa.int64()),
            ("pack_id", pa.int64()),
            ("pack_tokens", pa.int64()),
        ]
    )

    def assign(batch: pa.Table) -> pa.Table:
        return pa.table(
            {
                "shard": _shard_of(batch["doc_id"], epoch, n_shards),
                "doc_id": pc.cast(batch["doc_id"], pa.int64()),
                "n_tokens": pc.cast(
                    pc.count_substring_regex(batch["text"], pattern=_TOKEN_RE),
                    pa.int64(),
                ),
            }
        )

    in_schema = pa.schema(
        [("shard", pa.int64()), ("doc_id", pa.int64()), ("n_tokens", pa.int64())]
    )

    def pack_shard(group: pa.Table) -> pa.Table:
        doc_ids = group["doc_id"].to_numpy(zero_copy_only=False)
        tokens = group["n_tokens"].to_numpy(zero_copy_only=False)
        bin_of, bin_tot = pack_batch(doc_ids, tokens, budget_tokens)
        n_bins = int(bin_of.max()) + 1 if len(bin_of) else 0
        bin_min = np.full(n_bins, np.iinfo(np.int64).max, dtype=np.int64)
        np.minimum.at(bin_min, bin_of, doc_ids)
        return pa.table(
            {
                "shard": group["shard"],
                "doc_id": pa.array(doc_ids),
                "n_tokens": pa.array(tokens),
                "pack_id": pa.array(bin_min[bin_of]),
                "pack_tokens": pa.array(bin_tot),
            }
        )

    packed = bucket_exchange(
        ds,
        pack_shard,
        key="shard",
        schema=in_schema,
        out_schema=out_schema,
        emit=assign,
    )

    with staged_dir(out_dir, marker="_SUCCESS", replace=True) as st:
        st.marker_text = fingerprint
        packed.write_parquet(st.path, partition_cols=["shard"])
        # count from the staged footers (zero data reads; counting the lazy
        # `packed` would re-execute the whole pack)
        n_docs = _count_parquet_rows(st.path)
    return {
        "out_dir": out_dir,
        "n_docs": n_docs,
        "n_shards": n_shards,
        "already_committed": False,
    }


def training_shards(sf_dir: str, *, budget_tokens: int = 512) -> ray.data.Dataset:
    """Driver query surface: build (or reuse) the epoch-0 shards for
    ``sf_dir`` under /tmp and return per-shard stats — one row per shard
    with exact integer document/sequence/token counts.  Rows-only (the FFD
    bin assignment is not SQL-expressible); invariants are pytest-pinned in
    tests/test_training_shards.py."""
    from ray.data.aggregate import Max, Sum

    tag = os.path.basename(os.path.normpath(sf_dir)) or "sf"
    out_dir = f"/tmp/djr_shards_{tag}_b{budget_tokens}_e0"
    make_training_shards(sf_dir, out_dir, budget_tokens=budget_tokens, epoch=0)
    back = ray.data.read_parquet(out_dir)

    def partial(batch: pa.Table) -> pa.Table:
        # per-(shard) partials: docs + tokens additive; sequences counted
        # once per pack via the pack's min-doc row (doc_id == pack_id)
        is_head = pc.cast(pc.equal(batch["doc_id"], batch["pack_id"]), pa.int64())
        return (
            pa.table(
                {
                    "shard": pc.cast(batch["shard"], pa.int64()),
                    "n_docs": pa.array(np.ones(batch.num_rows, dtype=np.int64)),
                    "n_sequences": is_head,
                    "sum_tokens": pc.cast(batch["n_tokens"], pa.int64()),
                    "max_pack_tokens": pc.cast(batch["pack_tokens"], pa.int64()),
                }
            )
            .group_by("shard")
            .aggregate(
                [
                    ("n_docs", "sum"),
                    ("n_sequences", "sum"),
                    ("sum_tokens", "sum"),
                    ("max_pack_tokens", "max"),
                ]
            )
            .rename_columns(
                ["shard", "n_docs", "n_sequences", "sum_tokens", "max_pack_tokens"]
            )
        )

    return (
        back.map_batches(partial, batch_format="pyarrow", zero_copy_batch=True)
        .groupby("shard")
        .aggregate(
            Sum("n_docs", alias_name="n_docs"),
            Sum("n_sequences", alias_name="n_sequences"),
            Sum("sum_tokens", alias_name="sum_tokens"),
            Max("max_pack_tokens", alias_name="max_pack_tokens"),
        )
        .sort("shard")
    )
