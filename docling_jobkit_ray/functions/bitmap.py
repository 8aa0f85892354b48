"""Distributed bitmap index over low-cardinality columns.

The classic warehouse bitmap index (Oracle/Druid-style): for every
``column=value`` attribute, a bitmap over the key domain with bit ``k`` set
iff key ``k`` has that attribute.  Conjunctive / disjunctive / negated
predicates are answered by word-wise ``AND`` / ``OR`` / ``AND NOT`` over
the bitmaps — no scan of the base table.

Layout: bitmaps are chunked into 64-bit WORDS (``word = key // 64``,
``bit = key % 64``) and the artifact is hive-partitioned by
``bucket = word % n_buckets`` — an attribute's bitmap never materializes
in one place, and a query touches only the attr rows its predicate names
(column-filter pushdown on ``attr``).  Word rows are ~n_keys/64 per attr
(a 10^10-key corpus is ~1.2 GB per attribute before partitioning), and the
per-bucket query algebra is vectorized int64 bit-ops.

This completes the index family alongside the sharded Bloom (exact dedup),
the minhash-LSH band index (near-dup), the IVF cell index (vectors), the
inverted index (terms) and the zonemap (ranges).

Reference parity: the reference (docling-jobkit) has no index layer; the
artifact protocol (staged write + ``_meta.json``) follows this repo's
minhash_index/vector_index conventions.
"""

from __future__ import annotations

import json
import os

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet as pq
import ray.data

from ..exchange import bucket_exchange
from ..state.commit import atomic_write

_WORD = 64


def _or_fold(attr: np.ndarray, word: np.ndarray, bits: np.ndarray):
    """Vectorized OR-fold of (attr, word) duplicate rows: lexsort +
    ``np.bitwise_or.reduceat`` — never a Python call per group."""
    order = np.lexsort((word, attr))
    attr, word, bits = attr[order], word[order], bits[order]
    new = np.r_[True, (attr[1:] != attr[:-1]) | (word[1:] != word[:-1])]
    starts = np.flatnonzero(new)
    return attr[starts], word[starts], np.bitwise_or.reduceat(bits, starts)


def build_bitmap_index(
    ds: ray.data.Dataset,
    out_dir: str,
    *,
    key: str = "doc_id",
    columns: tuple[str, ...] = ("lang", "source"),
    n_buckets: int = 64,
    _filename: str = "part.parquet",
) -> dict:
    """Build the bitmap index artifact: one row per (attr, word) with the
    OR of all set bits, hive-partitioned by ``word % n_buckets``.

    Per-batch partials OR locally (at most one row per (attr, word) leaves
    a batch), ONE word-bucketed exchange folds them, and the artifact is
    written per bucket — the build is a pre-aggregated all-to-all over
    rows 64x smaller than the input keys."""
    # the 64-bit word crosses the exchange as TWO 32-bit halves: Ray's
    # shuffle can round-trip blocks through pandas and coerce int64 to
    # float64 at wide splits (CLAUDE.md 2^53 hazard) — a full word loses
    # its low bits (measured: low ~11 bits zeroed at the 8x-block tier),
    # while each half is < 2^32 and survives float64 exactly
    part_schema = pa.schema(
        [
            ("attr", pa.string()),
            ("word", pa.int64()),
            ("bits_lo", pa.int64()),
            ("bits_hi", pa.int64()),
            ("bucket", pa.int64()),
        ]
    )

    def partial(batch: pa.Table) -> pa.Table:
        k = pc.cast(batch[key], pa.int64()).to_numpy(zero_copy_only=False)
        word = k // _WORD
        bit = (np.int64(1) << (k % _WORD)).astype(np.int64)
        frames = []
        for col in columns:
            vals = batch[col].to_pandas().astype(str)
            attrs = (col + "=" + vals).to_numpy()
            frames.append((attrs, word, bit))
        attr = np.concatenate([f[0] for f in frames])
        w = np.concatenate([f[1] for f in frames])
        b = np.concatenate([f[2] for f in frames])
        # local category codes keep the lexsort on ints
        codes, uniq = pd.factorize(attr)
        a_c, w_c, b_c = _or_fold(codes.astype(np.int64), w, b)
        return pa.table(
            {
                "attr": pa.array(uniq.take(a_c), pa.string()),
                "word": pa.array(w_c, pa.int64()),
                "bits_lo": pa.array(b_c & 0xFFFFFFFF, pa.int64()),
                "bits_hi": pa.array((b_c >> 32) & 0xFFFFFFFF, pa.int64()),
                "bucket": pa.array(w_c % n_buckets, pa.int64()),
            }
        )

    out_schema = pa.schema(
        [("attr", pa.string()), ("word", pa.int64()), ("bits", pa.int64())]
    )

    def fold(group: pa.Table) -> pa.Table:
        attr = group["attr"].to_pandas().to_numpy()
        codes, uniq = pd.factorize(attr)
        lo = group["bits_lo"].to_numpy(zero_copy_only=False)
        hi = group["bits_hi"].to_numpy(zero_copy_only=False)
        a_c, w_c, b_c = _or_fold(
            codes.astype(np.int64),
            group["word"].to_numpy(zero_copy_only=False),
            (hi << 32) | lo,  # reassemble the word (wrap == bit pattern)
        )
        t = pa.table(
            {
                "attr": pa.array(uniq.take(a_c), pa.string()),
                "word": pa.array(w_c, pa.int64()),
                "bits": pa.array(b_c, pa.int64()),
            }
        )
        bucket = int(group["bucket"][0].as_py())
        os.makedirs(f"{out_dir}/bucket={bucket}", exist_ok=True)
        pq.write_table(t, f"{out_dir}/bucket={bucket}/{_filename}")
        return pa.table(
            {
                "attr": t["attr"],
                "word": t["word"],
                "bits": t["bits"],
            }
        )

    os.makedirs(out_dir, exist_ok=True)
    built = (
        bucket_exchange(
            ds, fold, schema=part_schema, out_schema=out_schema, emit=partial
        )
    )
    n_rows = built.count()  # drives the build; rows == index size
    meta = {
        "key": key,
        "columns": list(columns),
        "n_buckets": n_buckets,
        "n_rows": n_rows,
        "increments": 0,
    }
    if _filename == "part.parquet":  # increments leave the base meta alone
        with open(f"{out_dir}/_meta.json", "w") as f:
            json.dump(meta, f)
    return meta


def append_bitmap_index(ds: ray.data.Dataset, index_dir: str) -> dict:
    """Incrementally absorb new rows into an existing bitmap index —
    the parameters (key column, indexed columns, bucket grid) are FROZEN
    by ``_meta.json`` (same discipline as append_minhash_index /
    append_ivf_index: an increment built under different params would
    silently answer queries wrong, so a missing meta refuses).

    The increment writes its own ``part-inc{N}.parquet`` per bucket —
    readers OR duplicate (attr, word) rows across files, so the append
    never rewrites existing data (safe alongside concurrent readers)."""
    meta_path = f"{index_dir}/_meta.json"
    if not os.path.exists(meta_path):
        raise FileNotFoundError(
            f"append_bitmap_index: no _meta.json under {index_dir} — "
            "refusing to append with unpinned parameters"
        )
    meta = json.load(open(meta_path))
    inc = int(meta.get("increments", 0)) + 1
    sub = build_bitmap_index(
        ds,
        index_dir,
        key=meta["key"],
        columns=tuple(meta["columns"]),
        n_buckets=int(meta["n_buckets"]),
        _filename=f"part-inc{inc}.parquet",
    )
    meta["increments"] = inc
    meta["n_rows"] = int(meta["n_rows"]) + int(sub["n_rows"])
    with open(meta_path, "w") as f:
        json.dump(meta, f)
    return meta


def _read_index(index_dir: str, attrs: list[str]) -> ray.data.Dataset:
    ds = ray.data.read_parquet(index_dir)
    wanted = pa.array(attrs, pa.string())
    return ds.map_batches(
        lambda b: b.filter(pc.is_in(b["attr"], value_set=wanted))
        if b.num_rows
        else b,
        batch_format="pyarrow",
        zero_copy_batch=True,
    )


# the (attr, word) rows of an index as they cross the bucket exchange: the
# 64-bit word split into float64-exact halves (2^53 hazard)
_WIRE_SCHEMA = pa.schema(
    [
        ("attr", pa.string()),
        ("word", pa.int64()),
        ("bits_lo", pa.int64()),
        ("bits_hi", pa.int64()),
        ("bucket", pa.int64()),
    ]
)


def bitmap_query_keys(
    index_dir: str,
    *,
    require: list[list[str]],
    exclude: list[str] | None = None,
) -> ray.data.Dataset:
    """Answer ``AND(OR(require group 1), OR(group 2), ...) AND NOT any
    exclude`` from the bitmaps alone — the base table is never read.

    Only the named attrs' rows leave storage; each bucket's algebra is a
    word-aligned pandas pivot + int64 bit-ops; set bits decode to keys via
    ``np.unpackbits`` on the word array."""
    exclude = exclude or []
    attrs = sorted({a for g in require for a in g} | set(exclude))
    if not require or not attrs:
        raise ValueError("bitmap_query_keys needs at least one require group")

    out_schema = pa.schema([("key", pa.int64())])

    def per_bucket(group: pd.DataFrame) -> pd.DataFrame:
        # OR-fold duplicate (attr, word) rows first: increments write their
        # own files, so a word's bits can arrive split across several rows
        codes, uniq = pd.factorize(group["attr"].to_numpy())
        lo = group["bits_lo"].to_numpy(np.int64)
        hi = group["bits_hi"].to_numpy(np.int64)
        a_c, w_c, b_c = _or_fold(
            codes.astype(np.int64),
            group["word"].to_numpy(np.int64),
            (hi << 32) | lo,
        )
        # NEVER pivot bits through pandas: pivot_table fills absent
        # (word, attr) cells with NaN, which silently coerces the whole
        # bits column to float64 and shreds the low bits of any word above
        # 2^53 (measured: 6 keys vanished from one word at the 8x-block
        # tier).  Dense per-attr arrays via numpy scatter keep int64.
        attr_names = uniq.take(a_c)
        words = np.unique(w_c)

        def col(a: str) -> np.ndarray:
            sel = attr_names == a
            arr = np.zeros(len(words), np.int64)
            arr[np.searchsorted(words, w_c[sel])] = b_c[sel]
            return arr

        acc = None
        for gattrs in require:
            g = np.zeros(len(words), np.int64)
            for a in gattrs:
                g |= col(a)
            acc = g if acc is None else (acc & g)
        for a in exclude:
            acc &= ~col(a)
        nz = acc != 0
        words, acc = words[nz], acc[nz]
        if not len(words):
            return pd.DataFrame({"key": pd.Series([], dtype="int64")})
        u8 = acc.astype("<u8").view(np.uint8).reshape(-1, 8)
        bits = np.unpackbits(u8, axis=1, bitorder="little")  # (n_words, 64)
        w_idx, b_idx = np.nonzero(bits)
        return pd.DataFrame({"key": words[w_idx] * _WORD + b_idx})

    def add_bucket(b: pa.Table) -> pa.Table:
        # re-derive the bucket column (hive partition may or may not be
        # materialized as a column depending on the reader), and split the
        # word into float64-exact halves for the exchange (2^53 hazard)
        bits = b["bits"].to_numpy(zero_copy_only=False)
        cols = {
            "attr": b["attr"],
            "word": b["word"],
            "bits_lo": pa.array(bits & 0xFFFFFFFF, pa.int64()),
            "bits_hi": pa.array((bits >> 32) & 0xFFFFFFFF, pa.int64()),
        }
        if "bucket" in b.column_names:
            cols["bucket"] = b["bucket"]
        else:
            meta = json.load(open(f"{index_dir}/_meta.json"))
            cols["bucket"] = pa.array(
                b["word"].to_numpy(zero_copy_only=False) % meta["n_buckets"],
                pa.int64(),
            )
        return pa.table(cols)

    return (
        bucket_exchange(
            _read_index(index_dir, attrs),
            per_bucket,
            schema=_WIRE_SCHEMA,
            out_schema=out_schema,
            emit=add_bucket,
            batch_format="pandas",
        )
        .map_batches(
            lambda b: b.select(["key"]).cast(out_schema)
            if b.num_rows
            else out_schema.empty_table(),
            batch_format="pyarrow",
        )
        .sort("key")
    )


def bitmap_index_stats(index_dir: str) -> ray.data.Dataset:
    """Per-attr popcount over the artifact: the number of keys each bitmap
    holds — checkable against the base table in SQL, pinning artifact
    content == corpus content (same discipline as search_postings).

    Duplicate (attr, word) rows (increment files) must OR before the
    popcount — a naive per-file popcount would double-count a word whose
    bits arrive split — so the counting runs per word-bucket group."""
    from ray.data.aggregate import Sum

    meta = json.load(open(f"{index_dir}/_meta.json"))
    n_buckets = int(meta["n_buckets"])
    part_schema = pa.schema([("attr", pa.string()), ("n_keys", pa.int64())])

    def add_bucket(b: pa.Table) -> pa.Table:
        bits = b["bits"].to_numpy(zero_copy_only=False)
        cols = {
            "attr": b["attr"],
            "word": b["word"],
            "bits_lo": pa.array(bits & 0xFFFFFFFF, pa.int64()),
            "bits_hi": pa.array((bits >> 32) & 0xFFFFFFFF, pa.int64()),
        }
        if "bucket" in b.column_names:
            cols["bucket"] = b["bucket"]
        else:
            cols["bucket"] = pa.array(
                b["word"].to_numpy(zero_copy_only=False) % n_buckets, pa.int64()
            )
        return pa.table(cols)

    def fold(group: pd.DataFrame) -> pd.DataFrame:
        codes, uniq = pd.factorize(group["attr"].to_numpy())
        lo = group["bits_lo"].to_numpy(np.int64)
        hi = group["bits_hi"].to_numpy(np.int64)
        a_c, _w_c, b_c = _or_fold(
            codes.astype(np.int64),
            group["word"].to_numpy(np.int64),
            (hi << 32) | lo,
        )
        u8 = b_c.astype("<u8").view(np.uint8).reshape(-1, 8)
        pop = np.unpackbits(u8, axis=1, bitorder="little").sum(axis=1).astype(np.int64)
        out = pd.DataFrame({"attr": uniq.take(a_c), "n_keys": pop})
        return out.groupby("attr", as_index=False)["n_keys"].sum()

    return (
        bucket_exchange(
            ray.data.read_parquet(index_dir),
            fold,
            schema=_WIRE_SCHEMA,
            out_schema=part_schema,
            emit=add_bucket,
            batch_format="pandas",
        )
        .map_batches(
            lambda b: b.select(["attr", "n_keys"]).cast(part_schema)
            if b.num_rows
            else part_schema.empty_table(),
            batch_format="pyarrow",
        )
        .groupby("attr")
        .aggregate(Sum("n_keys", alias_name="n_keys"))
        .sort("attr")
    )


def compact_bitmap_index(index_dir: str) -> dict:
    """Fold each bucket's increment files back into ONE ``part.parquet``
    (the bitmap counterpart of ingest.compact_increments).  Safe alongside
    concurrent readers WITHOUT a commit marker because the read algebra is
    idempotent: readers OR-fold duplicate (attr, word) rows, so the window
    where both the new compacted file and the old increments are visible
    double-ORs identical bits — a no-op.  Order: write the compacted file
    via ``state.commit.atomic_write``, THEN unlink the absorbed files (a row is
    never visible-missing).

    Each bucket compacts in its own Ray task — the fold is the same
    ``_or_fold`` reduceat kernel, bounded by that bucket's index rows."""
    import glob

    meta_path = f"{index_dir}/_meta.json"
    meta = json.load(open(meta_path))
    dirs = sorted(glob.glob(f"{index_dir}/bucket=*"))

    def compact_one(batch: pa.Table) -> pa.Table:
        out_rows = []
        for d in batch["dir"].to_pylist():
            files = sorted(glob.glob(f"{d}/part*.parquet"))
            if len(files) <= 1:
                out_rows.append(0)
                continue
            t = pa.concat_tables([pq.read_table(f) for f in files])
            codes, uniq = pd.factorize(t["attr"].to_pandas().to_numpy())
            a_c, w_c, b_c = _or_fold(
                codes.astype(np.int64),
                t["word"].to_numpy(zero_copy_only=False),
                t["bits"].to_numpy(zero_copy_only=False),
            )
            folded = pa.table(
                {
                    "attr": pa.array(uniq.take(a_c), pa.string()),
                    "word": pa.array(w_c, pa.int64()),
                    "bits": pa.array(b_c, pa.int64()),
                }
            )
            buf = pa.BufferOutputStream()
            pq.write_table(folded, buf)
            atomic_write(f"{d}/part.parquet", buf.getvalue())
            for f in files:
                if os.path.basename(f) != "part.parquet":
                    os.unlink(f)
            out_rows.append(len(files) - 1)
        return pa.table({"absorbed": pa.array(out_rows, pa.int64())})

    # bounded: one row per index partition directory
    absorbed = sum(
        r["absorbed"]
        for r in ray.data.from_items([{"dir": d} for d in dirs])
        .map_batches(compact_one, batch_format="pyarrow")
        .take_all()
    )
    meta["increments"] = 0
    meta["compactions"] = int(meta.get("compactions", 0)) + 1
    with open(meta_path, "w") as f:
        json.dump(meta, f)
    return {"buckets": len(dirs), "files_absorbed": int(absorbed), **meta}
