"""Persisted character-TRIGRAM substring index — the ``LIKE '%pattern%'``
accelerator (pg_trgm's plan shape), completing the index family alongside
bloom / minhash-LSH / IVF / inverted / zonemap / bitmap.

Contract: text normalizes to ``trim(lower ... [^a-z]+ -> ' ')`` (the repo's
ASCII SQL-portable form), so a trigram is 3 BYTES == 3 codepoints and
encodes losslessly as an int64 ``b0*65536 + b1*256 + b2`` — postings are
keyed by integer codes, never strings (string-keyed shuffles sort every key,
CLAUDE.md).

Scale shape:
* build: per-batch DISTINCT (doc, code) pairs from one numpy sliding-window
  pass over the flat UTF-8 buffer (no Python per doc), ONE code-bucketed
  exchange, posting-list fold, hive-partitioned parquet + ``_meta.json``
  pinning ``n_buckets`` (an index answers queries with the params it was
  BUILT with).
* search: the pattern's trigrams prune to their hash partitions; only the
  RAREST ``max_probe_grams`` posting lists intersect (the common-trigram
  lists are the big ones and add no selectivity); the bounded candidate set
  broadcasts into one verification scan that re-checks the actual substring
  (trigram hits are necessary, not sufficient).

Reference parity: the reference has no substring index; this extends its
conversion surface the same way the other index artifacts do
(SURVEY.md §2.9/§2.11 adjacency).
"""

from __future__ import annotations

import glob
import json
import os

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import ray.data

from ..exchange import bucket_exchange
from ..sources.pages import read_table

_META = "_meta.json"


def _normalize(texts) -> pa.Array:
    s = pc.utf8_lower(texts)
    s = pc.replace_substring_regex(s, pattern="[^a-z]+", replacement=" ")
    return pc.utf8_trim_whitespace(s)


NORMALIZE_SQL_EXPR = "trim(regexp_replace(lower(text), '[^a-z]+', ' ', 'g'))"


def _doc_code_pairs(norm: pa.Array, doc_ids: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Distinct (doc_id, trigram code) pairs from one flat-buffer pass."""
    arr = norm.combine_chunks() if isinstance(norm, pa.ChunkedArray) else norm
    if len(arr) == 0:
        return np.array([], np.int64), np.array([], np.int64)
    offsets = np.frombuffer(arr.buffers()[1], np.int32, len(arr) + 1, arr.offset * 4)
    data = np.frombuffer(arr.buffers()[2], np.uint8)
    lens = (offsets[1:] - offsets[:-1]).astype(np.int64)
    total = int(offsets[-1] - offsets[0])
    if total < 3:
        return np.array([], np.int64), np.array([], np.int64)
    b = data[offsets[0] : offsets[-1]].astype(np.int64)
    # byte-position -> doc index; a window is valid when it never crosses
    # a doc boundary (positions p where doc_of[p] == doc_of[p+2])
    doc_of = np.repeat(np.arange(len(arr), dtype=np.int64), lens)
    codes = b[:-2] * 65536 + b[1:-1] * 256 + b[2:]
    valid = doc_of[:-2] == doc_of[2:]
    codes = codes[valid]
    docs = doc_ids[doc_of[:-2][valid]]
    # distinct (doc, code) within the batch: codes < 2^24, so one combined
    # int64 key holds both exactly
    key = docs * (1 << 24) + codes
    uk = np.unique(key)
    return uk >> 24, uk & ((1 << 24) - 1)


def build_trigram_index(
    docs: ray.data.Dataset, out_dir: str, *, n_buckets: int = 64
) -> dict:
    """Materialize ``out_dir/bucket=N/*.parquet`` rows
    (code, df, postings list<int64> ascending) + ``_meta.json``."""
    pair_schema = pa.schema(
        [("bucket", pa.int64()), ("code", pa.int64()), ("doc_id", pa.int64())]
    )
    out_schema = pa.schema(
        [
            ("bucket", pa.int64()),
            ("code", pa.int64()),
            ("df", pa.int64()),
            ("postings", pa.list_(pa.int64())),
        ]
    )

    def pairs(batch: pa.Table) -> pa.Table:
        docs_np, codes = _doc_code_pairs(
            _normalize(batch["text"]),
            pc.cast(batch["doc_id"], pa.int64()).to_numpy(zero_copy_only=False),
        )
        return pa.table(
            {
                "bucket": pa.array(codes % n_buckets, pa.int64()),
                "code": pa.array(codes, pa.int64()),
                "doc_id": pa.array(docs_np, pa.int64()),
            }
        )

    def fold(group: pa.Table) -> pa.Table:
        g = (
            group.select(pair_schema.names)
            .cast(pair_schema)
            .group_by(["bucket", "code", "doc_id"])
            .aggregate([])  # batch-local distinct is not global distinct
            .sort_by([("code", "ascending"), ("doc_id", "ascending")])
        )
        agg = g.group_by("code", use_threads=False).aggregate(
            [("doc_id", "list"), ("doc_id", "count")]
        )
        t = agg.rename_columns(["code", "postings", "df"])
        n = t.num_rows
        return pa.table(
            {
                "bucket": pa.array([group["bucket"][0].as_py()] * n, pa.int64()),
                "code": t["code"],
                "df": pc.cast(t["df"], pa.int64()),
                "postings": t["postings"],
            }
        )

    bucket_exchange(
        docs, fold, schema=pair_schema, out_schema=out_schema, emit=pairs
    ).write_parquet(
        out_dir, partition_cols=["bucket"]
    )
    with open(os.path.join(out_dir, _META), "w") as f:
        json.dump({"n_buckets": n_buckets, "kind": "trigram", "version": 1}, f)
    return {"n_buckets": n_buckets, "path": out_dir}


def _pattern_codes(pattern: str) -> list[int]:
    b = pattern.encode("ascii")
    if len(b) < 3:
        raise ValueError("trigram search needs a pattern of >= 3 normalized chars")
    return sorted({b[i] * 65536 + b[i + 1] * 256 + b[i + 2] for i in range(len(b) - 2)})


def search_trigram_index(
    out_dir: str,
    docs: ray.data.Dataset,
    pattern: str,
    *,
    max_probe_grams: int = 4,
) -> ray.data.Dataset:
    """Candidate generation from the artifact + exact verification scan.
    Returns (doc_id, n_hits) for documents whose NORMALIZED text contains
    ``pattern`` (itself already in normalized form)."""
    with open(os.path.join(out_dir, _META)) as f:
        meta = json.load(f)
    n_buckets = int(meta["n_buckets"])

    codes = _pattern_codes(pattern)
    buckets = sorted({c % n_buckets for c in codes})
    files = [
        f
        for b in buckets
        for f in sorted(glob.glob(os.path.join(out_dir, f"bucket={b}", "*.parquet")))
    ]
    want = pa.array(codes, pa.int64())
    rows = (
        ray.data.read_parquet(files, columns=["code", "df", "postings"])
        .map_batches(
            lambda b: b.filter(pc.is_in(b["code"], value_set=want)),
            batch_format="pyarrow",
            zero_copy_batch=True,
        )
        .to_pandas()  # bounded: <= len(codes) rows
    )
    # appends add NEW posting rows per code (never rewrite) — merge the
    # per-code rows (union postings, summed df) before rarest-k selection
    merged: dict[int, np.ndarray] = {}
    if rows.empty:
        rows = rows.reindex(columns=["code", "df", "postings"])
    for code, grp in rows.groupby("code"):
        lists = [np.asarray(lst, np.int64) for lst in grp["postings"]]
        merged[int(code)] = (
            lists[0] if len(lists) == 1 else np.unique(np.concatenate(lists))
        )
    if len(merged) < len(codes):
        cand = np.array([], np.int64)  # a trigram absent => no match anywhere
    else:
        probe = sorted(merged.values(), key=len)[:max_probe_grams]
        cand = probe[0]
        for arr in probe[1:]:
            cand = np.intersect1d(cand, arr, assume_unique=True)

    cand_arr = pa.array(cand, pa.int64())
    out_schema = pa.schema([("doc_id", pa.int64()), ("n_hits", pa.int64())])
    if len(cand) == 0:
        # empty candidate set: skip the verification scan entirely AND keep
        # the declared schema (an all-empty Dataset otherwise surfaces
        # column-less — map UDFs never see zero-row blocks, CLAUDE.md)
        return ray.data.from_arrow(out_schema.empty_table())

    def verify(batch: pa.Table) -> pa.Table:
        if batch.num_rows == 0 or batch.num_columns == 0:
            return out_schema.empty_table()
        keep = batch.filter(pc.is_in(pc.cast(batch["doc_id"], pa.int64()), value_set=cand_arr))
        if keep.num_rows == 0:
            return out_schema.empty_table()
        norm = _normalize(keep["text"])
        hits = pc.cast(pc.count_substring(norm, pattern=pattern), pa.int64())
        t = pa.table(
            {"doc_id": pc.cast(keep["doc_id"], pa.int64()), "n_hits": hits}
        )
        return t.filter(pc.greater(t["n_hits"], pa.scalar(0, pa.int64())))

    def pin(batch: pa.Table) -> pa.Table:
        if batch.num_rows == 0 or batch.num_columns == 0:
            return out_schema.empty_table()
        return batch.select(out_schema.names).cast(out_schema)

    return (
        docs.map_batches(verify, batch_format="pyarrow", zero_copy_batch=True)
        .sort("doc_id")
        .map_batches(pin, batch_format="pyarrow")
    )


_DEFAULT_PATTERN = "data table"


def substring_search_indexed(sf_dir: str, *, pattern: str = _DEFAULT_PATTERN):
    """Build the trigram index over the corpus and answer one substring
    query THROUGH it — the driver-checkable round trip whose oracle is the
    plain LIKE scan (index candidates are verified, so indexed == scan by
    construction; the SQL hash proves it)."""
    import tempfile

    docs = read_table(sf_dir, "documents", columns=["doc_id", "text"])
    with tempfile.TemporaryDirectory() as tmp:
        out = os.path.join(tmp, "trigram_index")
        build_trigram_index(docs, out)
        df = search_trigram_index(out, docs, pattern).to_pandas()
    if df.empty:
        # Dataset.to_pandas drops columns on an all-empty result (even a
        # typed from_arrow one) — rebuild the declared frame
        import pandas as pd

        df = pd.DataFrame(
            {
                "doc_id": pd.Series([], dtype="int64"),
                "n_hits": pd.Series([], dtype="int64"),
            }
        )
    return df


def substring_search_indexed_sql(pattern: str = _DEFAULT_PATTERN) -> str:
    return f"""
WITH n AS (
  SELECT doc_id, {NORMALIZE_SQL_EXPR} AS norm FROM documents)
SELECT doc_id, CAST(len(regexp_extract_all(norm, '{pattern}')) AS BIGINT) AS n_hits
FROM n WHERE norm LIKE '%{pattern}%'
ORDER BY doc_id
"""


def append_trigram_index(out_dir: str, new_docs: ray.data.Dataset) -> dict:
    """Incrementally add documents to a persisted trigram index — the
    substring-search member of the incremental-index family (bloom /
    minhash / IVF / trigram share the protocol): bucket count comes FROM
    the existing ``_meta.json`` (an append can never drift the partition
    hash), and the new posting rows land in the same ``bucket=N``
    partitions as extra files (never rewrites — a crashed append leaves
    the prior index readable).  The search path merges per-code rows, so
    old + new postings answer queries uniformly; re-running a crashed
    append merely duplicates doc ids inside a union, which the merge
    dedups."""
    meta_path = os.path.join(out_dir, _META)
    if not os.path.exists(meta_path):
        raise FileNotFoundError(f"no {_META} in {out_dir} — build_trigram_index first")
    with open(meta_path) as f:
        meta = json.load(f)
    n_buckets = int(meta["n_buckets"])

    pair_schema = pa.schema(
        [("bucket", pa.int64()), ("code", pa.int64()), ("doc_id", pa.int64())]
    )
    out_schema = pa.schema(
        [
            ("bucket", pa.int64()),
            ("code", pa.int64()),
            ("df", pa.int64()),
            ("postings", pa.list_(pa.int64())),
        ]
    )

    def pairs(batch: pa.Table) -> pa.Table:
        docs_np, codes = _doc_code_pairs(
            _normalize(batch["text"]),
            pc.cast(batch["doc_id"], pa.int64()).to_numpy(zero_copy_only=False),
        )
        return pa.table(
            {
                "bucket": pa.array(codes % n_buckets, pa.int64()),
                "code": pa.array(codes, pa.int64()),
                "doc_id": pa.array(docs_np, pa.int64()),
            }
        )

    def fold(group: pa.Table) -> pa.Table:
        g = (
            group.select(pair_schema.names)
            .cast(pair_schema)
            .group_by(["bucket", "code", "doc_id"])
            .aggregate([])
            .sort_by([("code", "ascending"), ("doc_id", "ascending")])
        )
        agg = g.group_by("code", use_threads=False).aggregate(
            [("doc_id", "list"), ("doc_id", "count")]
        )
        t = agg.rename_columns(["code", "postings", "df"])
        n = t.num_rows
        return pa.table(
            {
                "bucket": pa.array([group["bucket"][0].as_py()] * n, pa.int64()),
                "code": t["code"],
                "df": pc.cast(t["df"], pa.int64()),
                "postings": t["postings"],
            }
        )

    bucket_exchange(
        new_docs, fold, schema=pair_schema, out_schema=out_schema, emit=pairs
    ).write_parquet(
        out_dir, partition_cols=["bucket"]
    )
    return dict(meta, path=out_dir)
