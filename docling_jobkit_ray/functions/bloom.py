"""Sharded Bloom-filter index for INCREMENTAL exact dedup: dedup a new
shard of documents against an already-ingested corpus without rescanning
or re-shuffling the old corpus.

The batch dedup operators (``dedup_exact``, ``functions/dedup.py``) answer
"dedup this corpus against itself"; a continuously-ingesting 100 TB
pipeline also needs "is this NEW document already in the corpus?".  The
answer structure is a Bloom filter over content hashes, sharded by the top
bits of the hash so that:

* no single node ever holds the whole filter (10^12 keys x 16 bits = 2 TB
  of filter — a fatal driver/broadcast object at scale; one shard is a few
  MB),
* building is ONE groupby(shard) over (shard, key) rows — the text column
  never rides the shuffle,
* probing co-shuffles the new shard's (shard, key) rows WITH the bloom
  rows (the same tagged-union trick as q3's agg+join fold) so each group
  holds exactly one bloom plus its keys — blooms never touch the driver,
* the index is a plain Dataset of (shard, m_bits, k_hashes, bloom bytes):
  ``write_parquet`` it once and every later ingest reads it back — the
  resumable-artifact story.

Bloom guarantees tested: NO false negatives (a seen key always probes
seen), false-positive rate within theory for the configured bits/key
(~0.04% at 16 bits, k=11; Kirsch-Mitzenmacher double hashing).
"""

from __future__ import annotations

import hashlib

import numpy as np
import pandas as pd
import pyarrow as pa
import ray.data

from ..exchange import bucket_exchange
from ..sources.pages import read_table

__all__ = [
    "content_keys",
    "build_bloom_index",
    "build_bloom_index_from_dataset",
    "mark_seen",
    "filter_unseen",
    "update_bloom_index",
]

# double-hashing mix constants (splitmix64 finalizer multipliers)
_C1 = np.uint64(0xBF58476D1CE4E5B9)
_C2 = np.uint64(0x94D049BB133111EB)


def content_keys(texts: list[str]) -> np.ndarray:
    """uint64 content key per text: first 8 bytes of sha256 — the same
    content identity ``dedup_exact`` groups on (``dedup.py:42``), folded
    to 64 bits.  Collision expectation at 10^12 docs: ~3% of one pair."""
    return np.fromiter(
        (
            int.from_bytes(hashlib.sha256(t.encode("utf-8")).digest()[:8], "big")
            for t in texts
        ),
        dtype=np.uint64,
        count=len(texts),
    )


def _mix(keys: np.ndarray, c: np.uint64) -> np.ndarray:
    with np.errstate(over="ignore"):
        h = keys * c
        h ^= h >> np.uint64(31)
        return h


def _positions(keys: np.ndarray, k_hashes: int, m_bits: int) -> np.ndarray:
    """(n, k) bit positions via double hashing: pos_i = (h1 + i*h2) % m."""
    h1 = _mix(keys, _C1)
    h2 = _mix(keys, _C2) | np.uint64(1)  # odd so strides cover the table
    i = np.arange(k_hashes, dtype=np.uint64)
    with np.errstate(over="ignore"):
        return ((h1[:, None] + i[None, :] * h2[:, None]) % np.uint64(m_bits)).astype(
            np.int64
        )


# one row per shard of a built index
_INDEX_SCHEMA = pa.schema(
    [
        ("shard", pa.int64()),
        ("n_shards", pa.int64()),
        ("m_bits", pa.int64()),
        ("k_hashes", pa.int64()),
        ("n_keys", pa.int64()),
        ("bloom", pa.binary()),
    ]
)


def _shard_of(keys: np.ndarray, n_shards: int) -> np.ndarray:
    # top bits (so routing is independent of the in-shard positions),
    # keeping AT LEAST n_shards distinct values before the modulo: a
    # 64-bit_length shift covers [0, 2^ceil(log2 n)) >= n_shards — the
    # previous +1 halved the range and left the top shards of any
    # non-power-of-two count permanently empty
    return (keys >> np.uint64(64 - int(n_shards).bit_length())).astype(np.int64) % n_shards


def _index_shards(sf_dir: str, n_shards: int | None, target_keys_per_shard: int = 4_000_000) -> int:
    if n_shards is not None:
        return n_shards
    from ..scale import bucket_count, estimate_rows

    # one shard's bloom at 16 bits/key and 4M keys is ~8 MB — a small
    # object-store block, far below any worker heap concern
    return bucket_count(
        estimate_rows(sf_dir, "documents"),
        target_rows_per_bucket=target_keys_per_shard,
        min_buckets=16,
    )


def build_bloom_index(
    sf_dir: str,
    *,
    bits_per_key: int = 16,
    n_shards: int | None = None,
) -> ray.data.Dataset:
    """Bloom index over the documents table: one row per shard,
    ``(shard, n_shards, m_bits, k_hashes, n_keys, bloom)``.

    The shuffle carries (shard, key) — 16 B/row regardless of document
    size.  Each shard group sizes its own bloom from its actual key count
    (never an estimate), so skewed shards stay at the configured
    false-positive rate."""
    return build_bloom_index_from_dataset(
        read_table(sf_dir, "documents", columns=["doc_id", "text"]),
        bits_per_key=bits_per_key,
        n_shards=_index_shards(sf_dir, n_shards),
    )


def build_bloom_index_from_dataset(
    ds: ray.data.Dataset,
    *,
    bits_per_key: int = 16,
    n_shards: int = 16,
    text_column: str = "text",
) -> ray.data.Dataset:
    """Bloom index over any Dataset with a text column (see
    :func:`build_bloom_index`); pass ``n_shards`` sized to the corpus
    (~4M keys/shard) since a bare Dataset has no free row estimate."""
    k_hashes = max(1, round(0.693 * bits_per_key))

    def to_keys(batch: pa.Table) -> pa.Table:
        keys = content_keys(batch[text_column].to_pylist())
        return pa.table(
            {
                "shard": pa.array(_shard_of(keys, n_shards)),
                "key": pa.array(keys.view(np.int64)),  # store as int64 bits
            }
        )

    def build_shard(group: pd.DataFrame) -> pd.DataFrame:
        keys = group["key"].to_numpy(np.int64).view(np.uint64)
        keys = np.unique(keys)
        m_bits = max(64, int(len(keys) * bits_per_key))
        bloom = np.zeros((m_bits + 7) // 8, dtype=np.uint8)
        pos = _positions(keys, k_hashes, m_bits)
        np.bitwise_or.at(bloom, pos >> 3, np.uint8(1) << (pos & 7).astype(np.uint8))
        return pd.DataFrame(
            {
                "shard": [int(group["shard"].iloc[0])],
                # n_shards rides every row: the probe side MUST route new
                # keys with the builder's exact shard count (recovering it
                # from max-shard-id misroutes when trailing shards are
                # empty -> false negatives)
                "n_shards": [n_shards],
                "m_bits": [m_bits],
                "k_hashes": [k_hashes],
                "n_keys": [len(keys)],
                "bloom": [bloom.tobytes()],
            }
        )

    return bucket_exchange(
        ds,
        build_shard,
        key="shard",
        schema=pa.schema([("shard", pa.int64()), ("key", pa.int64())]),
        out_schema=_INDEX_SCHEMA,
        emit=to_keys,
        batch_format="pandas",
    )


def mark_seen(
    new_ds: ray.data.Dataset,
    bloom_index: ray.data.Dataset,
    *,
    text_column: str = "text",
    id_column: str = "doc_id",
) -> ray.data.Dataset:
    """(doc_id, probably_seen) for every row of ``new_ds`` against the
    index: False = DEFINITELY not in the indexed corpus (bloom guarantee),
    True = present up to the configured false-positive rate.

    One tagged-union shuffle: bloom rows and the new shard's (shard, key)
    rows meet in the same groupby(shard) group, so the membership test is
    one vectorized bit-gather per group and no bloom bytes ever reach the
    driver."""
    superset = pa.schema(
        [
            ("shard", pa.int64()),
            ("kind", pa.int8()),  # 0 = bloom row, 1 = new-doc row
            ("m_bits", pa.int64()),
            ("k_hashes", pa.int64()),
            ("bloom", pa.binary()),
            ("doc_id", pa.int64()),
            ("key", pa.int64()),
        ]
    )

    # an index is a reused artifact: pin it in the object store so the
    # count/max probes and the union below don't re-execute its build
    # (branching a lazy Dataset re-runs the parent — CLAUDE.md)
    bloom_index = bloom_index.materialize()
    head = bloom_index.take(1)
    if not head:
        raise ValueError("empty bloom index")
    n_shards = int(head[0]["n_shards"])

    def widen_bloom(batch: pa.Table) -> pa.Table:
        n = batch.num_rows
        return pa.table(
            {
                "shard": batch["shard"].cast(pa.int64()),
                "kind": pa.array([0] * n, pa.int8()),
                "m_bits": batch["m_bits"].cast(pa.int64()),
                "k_hashes": batch["k_hashes"].cast(pa.int64()),
                "bloom": batch["bloom"].cast(pa.binary()),
                "doc_id": pa.nulls(n, pa.int64()),
                "key": pa.nulls(n, pa.int64()),
            },
            schema=superset,
        )

    def widen_new(batch: pa.Table) -> pa.Table:
        keys = content_keys(batch[text_column].to_pylist())
        n = batch.num_rows
        return pa.table(
            {
                "shard": pa.array(_shard_of(keys, n_shards)),
                "kind": pa.array([1] * n, pa.int8()),
                "m_bits": pa.nulls(n, pa.int64()),
                "k_hashes": pa.nulls(n, pa.int64()),
                "bloom": pa.nulls(n, pa.binary()),
                "doc_id": batch[id_column].cast(pa.int64()),
                "key": pa.array(keys.view(np.int64)),
            },
            schema=superset,
        )

    tagged = bloom_index.map_batches(
        widen_bloom, batch_format="pyarrow", zero_copy_batch=True
    ).union(new_ds.map_batches(widen_new, batch_format="pyarrow", zero_copy_batch=True))

    out_schema = pa.schema([("doc_id", pa.int64()), ("probably_seen", pa.bool_())])

    def probe(group: pa.Table) -> pa.Table:
        # ARROW group, and int64 keys stay int64: a pandas group would
        # coerce the nullable key column to float64 and silently destroy
        # keys above 2^53 (measured: 199/200 false negatives before this
        # was arrow-native)
        import pyarrow.compute as pc

        rows = group.filter(pc.equal(group["kind"], pa.scalar(1, pa.int8())))
        if rows.num_rows == 0:
            return out_schema.empty_table()
        blooms = group.filter(pc.equal(group["kind"], pa.scalar(0, pa.int8())))
        doc_ids = rows["doc_id"].to_numpy(zero_copy_only=False).astype(np.int64)
        if blooms.num_rows == 0:
            # no indexed keys hashed to this shard: definitely unseen
            return pa.table(
                {
                    "doc_id": pa.array(doc_ids),
                    "probably_seen": pa.array(np.zeros(len(doc_ids), bool)),
                }
            )
        bloom = np.frombuffer(blooms["bloom"][0].as_py(), dtype=np.uint8)
        m_bits = int(blooms["m_bits"][0].as_py())
        k_hashes = int(blooms["k_hashes"][0].as_py())
        keys = rows["key"].to_numpy(zero_copy_only=False).astype(np.int64).view(np.uint64)
        pos = _positions(keys, k_hashes, m_bits)
        bits = (bloom[pos >> 3] >> (pos & 7).astype(np.uint8)) & 1
        return pa.table(
            {
                "doc_id": pa.array(doc_ids),
                "probably_seen": pa.array(bits.all(axis=1)),
            }
        )

    return bucket_exchange(
        tagged, probe, key="shard", schema=superset, out_schema=out_schema
    )


def filter_unseen(
    new_ds: ray.data.Dataset,
    bloom_index: ray.data.Dataset,
    *,
    text_column: str = "text",
    id_column: str = "doc_id",
) -> ray.data.Dataset:
    """The rows of ``new_ds`` that are definitely NOT in the indexed
    corpus (bloom false positives drop a few genuinely-new docs — the
    standard ingest trade: at 16 bits/key that is ~4 in 10,000).

    The verdict shuffle carries ids+keys only; the kept documents are
    materialized by a bucketed semi join of the new shard against the
    unseen-id set (ALL of ``new_ds``'s columns survive — texts cross the
    exchange once, same cost model as ``dedup_exact_docs``)."""
    from ..pipelines.joins import bucketed_join

    # new_ds is consumed twice (verdicts + join left side) and branching a
    # lazy Dataset re-executes its whole upstream (CLAUDE.md); pin it once
    new_ds = new_ds.materialize()
    est_new = new_ds.count()  # metadata count on a materialized dataset
    # full row schema of the materialized input (free — no execution)
    schema = new_ds.schema().base_schema

    verdicts = mark_seen(
        new_ds, bloom_index, text_column=text_column, id_column=id_column
    )
    unseen = verdicts.filter(expr="probably_seen == False").select_columns(["doc_id"])
    return bucketed_join(
        new_ds,
        unseen.map_batches(
            lambda b: b.rename_columns(["unseen_id"]),
            batch_format="pyarrow",
            zero_copy_batch=True,
        ),
        on=id_column,
        right_on="unseen_id",
        left_schema=schema,
        right_schema=pa.schema([("unseen_id", pa.int64())]),
        join_type="left semi",
        est_rows=est_new,  # derive bucket count from the new shard's size
    )


def update_bloom_index(
    bloom_index: ray.data.Dataset,
    new_ds: ray.data.Dataset,
    *,
    text_column: str = "text",
    bits_per_key: int = 16,
) -> ray.data.Dataset:
    """Merge a newly-ingested shard's content keys into the index — the
    post-commit step of the ingest loop (probe with :func:`mark_seen`,
    extract+write the survivors, THEN fold their keys in).

    Same tagged-union shuffle as the probe: each shard group ORs its new
    keys' bits into the existing bloom in one vectorized pass.  Blooms are
    fixed-size, so folding in more keys RAISES the false-positive rate
    (never creates false negatives); each output row carries ``saturated``
    = the effective bits/key fell below half the design point — rebuild
    that shard from the corpus at the next convenient scan.  A shard that
    receives keys but had no bloom row (the original build saw none of its
    range) gets a fresh bloom sized at ``bits_per_key``."""
    bloom_index = bloom_index.materialize()
    head = bloom_index.take(1)
    if not head:
        raise ValueError("empty bloom index")
    n_shards = int(head[0]["n_shards"])
    k_default = max(1, round(0.693 * bits_per_key))

    superset = pa.schema(
        [
            ("shard", pa.int64()),
            ("kind", pa.int8()),
            ("n_shards", pa.int64()),
            ("m_bits", pa.int64()),
            ("k_hashes", pa.int64()),
            ("n_keys", pa.int64()),
            ("bloom", pa.binary()),
            ("key", pa.int64()),
        ]
    )

    def widen_bloom(batch: pa.Table) -> pa.Table:
        n = batch.num_rows
        return pa.table(
            {
                "shard": batch["shard"].cast(pa.int64()),
                "kind": pa.array([0] * n, pa.int8()),
                "n_shards": batch["n_shards"].cast(pa.int64()),
                "m_bits": batch["m_bits"].cast(pa.int64()),
                "k_hashes": batch["k_hashes"].cast(pa.int64()),
                "n_keys": batch["n_keys"].cast(pa.int64()),
                "bloom": batch["bloom"].cast(pa.binary()),
                "key": pa.nulls(n, pa.int64()),
            },
            schema=superset,
        )

    def widen_new(batch: pa.Table) -> pa.Table:
        keys = content_keys(batch[text_column].to_pylist())
        n = batch.num_rows
        return pa.table(
            {
                "shard": pa.array(_shard_of(keys, n_shards)),
                "kind": pa.array([1] * n, pa.int8()),
                "n_shards": pa.nulls(n, pa.int64()),
                "m_bits": pa.nulls(n, pa.int64()),
                "k_hashes": pa.nulls(n, pa.int64()),
                "n_keys": pa.nulls(n, pa.int64()),
                "bloom": pa.nulls(n, pa.binary()),
                "key": pa.array(keys.view(np.int64)),
            },
            schema=superset,
        )

    tagged = bloom_index.map_batches(
        widen_bloom, batch_format="pyarrow", zero_copy_batch=True
    ).union(new_ds.map_batches(widen_new, batch_format="pyarrow", zero_copy_batch=True))

    def fold(group: pa.Table) -> pa.Table:
        import pyarrow.compute as pc

        shard = int(group["shard"][0].as_py())
        blooms = group.filter(pc.equal(group["kind"], pa.scalar(0, pa.int8())))
        rows = group.filter(pc.equal(group["kind"], pa.scalar(1, pa.int8())))
        new_keys = (
            np.unique(rows["key"].to_numpy(zero_copy_only=False).astype(np.int64).view(np.uint64))
            if rows.num_rows
            else np.empty(0, np.uint64)
        )
        if blooms.num_rows:
            bloom = np.frombuffer(blooms["bloom"][0].as_py(), dtype=np.uint8).copy()
            m_bits = int(blooms["m_bits"][0].as_py())
            k_hashes = int(blooms["k_hashes"][0].as_py())
            # count only keys NOT already probing present, so replayed /
            # overlapping updates don't inflate n_keys and falsely trip
            # the saturation flag (FPs undercount slightly — acceptable,
            # the flag is advisory)
            if len(new_keys):
                pos0 = _positions(new_keys, k_hashes, m_bits)
                present = (
                    (bloom[pos0 >> 3] >> (pos0 & 7).astype(np.uint8)) & 1
                ).all(axis=1)
                n_genuinely_new = int((~present).sum())
            else:
                n_genuinely_new = 0
            n_keys = int(blooms["n_keys"][0].as_py()) + n_genuinely_new
        else:
            m_bits = max(64, int(len(new_keys) * bits_per_key))
            k_hashes = k_default
            bloom = np.zeros((m_bits + 7) // 8, dtype=np.uint8)
            n_keys = len(new_keys)
        if len(new_keys):
            pos = _positions(new_keys, k_hashes, m_bits)
            np.bitwise_or.at(bloom, pos >> 3, np.uint8(1) << (pos & 7).astype(np.uint8))
        # design point is m_bits/n_keys_at_build bits per key; flag when the
        # EFFECTIVE rate fell below half of bits_per_key
        saturated = n_keys > 0 and (m_bits / n_keys) < (bits_per_key / 2)
        return pa.table(
            {
                "shard": pa.array([shard], pa.int64()),
                "n_shards": pa.array([n_shards], pa.int64()),
                "m_bits": pa.array([m_bits], pa.int64()),
                "k_hashes": pa.array([k_hashes], pa.int64()),
                "n_keys": pa.array([n_keys], pa.int64()),
                "bloom": pa.array([bloom.tobytes()], pa.binary()),
                "saturated": pa.array([saturated], pa.bool_()),
            }
        )

    return bucket_exchange(
        tagged,
        fold,
        key="shard",
        schema=superset,
        out_schema=_INDEX_SCHEMA.append(pa.field("saturated", pa.bool_())),
    )
