"""Positional inverted index: the 8th member of the persisted-index family
(bloom / minhash / IVF / inverted / zonemap / bitmap / trigram / positional).

The plain inverted index (``functions/index.py``) answers boolean and BM25
queries; ``phrase_search`` answers exact-adjacency queries but must SCAN the
corpus.  A positional index is how Lucene/ES answer phrase and proximity
queries **from the artifact alone**: postings carry token positions, so a
phrase match is a pure position intersection — no document text is ever
re-read at query time.  Extends the reference's conversion surface
(reference stops at per-document convert; SURVEY.md §2.10 scalar functions
are the nearest analogue) with the retrieval artifact built next.

Tokenizer contract: ASCII ``[a-z]+`` runs over lowercased text, positions
are 0-based ordinals in the per-document token stream — byte-identical to
``phrase_search`` / ``top_terms`` / DuckDB ``regexp_extract_all(lower(text),
'[a-z]+')``, so the indexed query's oracle is the scan-based SQL.

Scale shape:
* build: EVERY token rides ONE (bucket, term, doc_id, pos) exchange — the
  inherent cost of a positional index (Lucene pays the same); terms are
  hash-bucketed with a scale-derived count and the per-bucket fold is one
  vectorized sort + list-agg (no Python call per term);
* artifact: hive-partitioned ``bucket=N`` parquet + ``_meta.json`` pinning
  ``n_buckets`` (the family's append protocol: appends add files to the
  same partitions, never rewrite);
* query: reads ONLY the partitions the phrase's terms hash to (partition
  pruning), then ONE doc-hash exchange co-locates the m term-position rows
  of each candidate doc; the in-bucket intersection is a single
  ``np.unique`` over (doc, start)-keys — ``count == m`` iff every phrase
  slot matches.
"""

from __future__ import annotations

import glob
import json
import os

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc
import ray.data

from ..exchange import bucket_exchange
from ..sources.pages import read_table

__all__ = [
    "build_positional_index",
    "append_positional_index",
    "search_phrase_index",
    "phrase_search_indexed",
    "phrase_search_indexed_sql",
    "proximity_search_indexed",
    "proximity_search_indexed_sql",
]

_META = "_meta.json"

_PAIR_SCHEMA = pa.schema(
    [
        ("bucket", pa.int64()),
        ("term", pa.string()),
        ("doc_id", pa.int64()),
        ("pos", pa.int64()),
    ]
)
_OUT_SCHEMA = pa.schema(
    [
        ("bucket", pa.int64()),
        ("term", pa.string()),
        ("doc_id", pa.int64()),
        ("tf", pa.int64()),
        ("positions", pa.list_(pa.int64())),
    ]
)


def _term_bucket(terms, n_buckets: int) -> np.ndarray:
    obj = np.asarray(terms, dtype=object)
    return (pd.util.hash_array(obj) & np.uint64(n_buckets - 1)).astype(np.int64)


def _token_positions(batch: pa.Table) -> tuple[pa.Array, np.ndarray, np.ndarray]:
    """Flat (term, doc_id, pos) arrays for one batch — all-Arrow tokenize,
    positions are 0-based ordinals in each doc's nonempty token stream."""
    lower = pc.utf8_lower(batch["text"])
    words = pc.split_pattern_regex(lower, pattern="[^a-z]+")
    flat = pc.list_flatten(words).combine_chunks()
    lens = pc.list_value_length(words).to_numpy(zero_copy_only=False)
    doc_idx = np.repeat(np.arange(len(lens), dtype=np.int64), lens)
    nonempty = pc.not_equal(flat, "").to_numpy(zero_copy_only=False)
    flat = flat.filter(pa.array(nonempty))
    d = doc_idx[nonempty]
    # per-doc cumcount over the contiguous doc segments
    if len(d):
        starts = np.r_[0, np.flatnonzero(d[1:] != d[:-1]) + 1]
        seg_len = np.diff(np.r_[starts, len(d)])
        pos = np.arange(len(d), dtype=np.int64) - np.repeat(starts, seg_len)
    else:
        pos = np.empty(0, np.int64)
    doc_ids = pc.cast(batch["doc_id"], pa.int64()).to_numpy(zero_copy_only=False)[d]
    return flat, doc_ids, pos


def build_positional_index(
    sf_dir: str, out_dir: str, *, n_buckets: int | None = None
) -> dict:
    """Materialize ``out_dir/bucket=N/*.parquet`` rows
    (term, doc_id, tf, positions list<int64> ascending) + ``_meta.json``."""
    from ..scale import bucket_count, estimate_rows

    if n_buckets is None:
        # every token becomes one exchange row (~180/doc on this corpus)
        n_buckets = bucket_count(estimate_rows(sf_dir, "documents") * 180, min_buckets=64)

    def pairs(batch: pa.Table) -> pa.Table:
        terms, doc_ids, pos = _token_positions(batch)
        return pa.table(
            {
                "bucket": pa.array(
                    _term_bucket(terms.to_numpy(zero_copy_only=False), n_buckets)
                ),
                "term": terms,
                "doc_id": pa.array(doc_ids, pa.int64()),
                "pos": pa.array(pos, pa.int64()),
            }
        )

    def fold(group: pa.Table) -> pa.Table:
        g = (
            group.select(_PAIR_SCHEMA.names)
            .cast(_PAIR_SCHEMA)
            .sort_by(
                [
                    ("term", "ascending"),
                    ("doc_id", "ascending"),
                    ("pos", "ascending"),
                ]
            )
        )
        agg = g.group_by(["term", "doc_id"], use_threads=False).aggregate(
            [("pos", "list"), ("pos", "count")]
        )
        t = agg.rename_columns(["term", "doc_id", "positions", "tf"])
        n = t.num_rows
        return pa.table(
            {
                "bucket": pa.array([group["bucket"][0].as_py()] * n, pa.int64()),
                "term": t["term"],
                "doc_id": pc.cast(t["doc_id"], pa.int64()),
                "tf": pc.cast(t["tf"], pa.int64()),
                "positions": t["positions"],
            }
        )

    docs = read_table(sf_dir, "documents", columns=["doc_id", "text"])
    bucket_exchange(
        docs, fold, schema=_PAIR_SCHEMA, out_schema=_OUT_SCHEMA, emit=pairs
    ).write_parquet(
        out_dir, partition_cols=["bucket"]
    )
    with open(os.path.join(out_dir, _META), "w") as f:
        json.dump(
            {"n_buckets": n_buckets, "kind": "positional", "version": 1}, f
        )
    return {"n_buckets": n_buckets, "path": out_dir}


def append_positional_index(out_dir: str, new_docs: ray.data.Dataset) -> dict:
    """Incrementally add documents: new (term, doc, positions) rows land in
    the SAME ``bucket=N`` partitions as extra files (``n_buckets`` comes
    from the existing ``_meta.json`` so the partition hash can never
    drift); the search path merges per-(term, doc) rows, so a re-run of a
    crashed append only duplicates rows a union dedups."""
    meta_path = os.path.join(out_dir, _META)
    if not os.path.exists(meta_path):
        raise FileNotFoundError(
            f"no {_META} in {out_dir} — build_positional_index first"
        )
    with open(meta_path) as f:
        n_buckets = int(json.load(f)["n_buckets"])

    def pairs(batch: pa.Table) -> pa.Table:
        terms, doc_ids, pos = _token_positions(batch)
        return pa.table(
            {
                "bucket": pa.array(
                    _term_bucket(terms.to_numpy(zero_copy_only=False), n_buckets)
                ),
                "term": terms,
                "doc_id": pa.array(doc_ids, pa.int64()),
                "pos": pa.array(pos, pa.int64()),
            }
        )

    def fold(group: pa.Table) -> pa.Table:
        g = (
            group.select(_PAIR_SCHEMA.names)
            .cast(_PAIR_SCHEMA)
            .sort_by(
                [
                    ("term", "ascending"),
                    ("doc_id", "ascending"),
                    ("pos", "ascending"),
                ]
            )
        )
        agg = g.group_by(["term", "doc_id"], use_threads=False).aggregate(
            [("pos", "list"), ("pos", "count")]
        )
        t = agg.rename_columns(["term", "doc_id", "positions", "tf"])
        n = t.num_rows
        return pa.table(
            {
                "bucket": pa.array([group["bucket"][0].as_py()] * n, pa.int64()),
                "term": t["term"],
                "doc_id": pc.cast(t["doc_id"], pa.int64()),
                "tf": pc.cast(t["tf"], pa.int64()),
                "positions": t["positions"],
            }
        )

    bucket_exchange(
        new_docs, fold, schema=_PAIR_SCHEMA, out_schema=_OUT_SCHEMA, emit=pairs
    ).write_parquet(
        out_dir, partition_cols=["bucket"]
    )
    return {"n_buckets": n_buckets, "path": out_dir}


def _pruned_term_rows(out_dir: str, terms: list[str]):
    """Pruned artifact read: only the partitions the terms hash to, only
    the rows whose term is in the query.  Returns (Dataset | None,
    scale-derived doc-bucket count from the pruned partitions' footers)."""
    from ..scale import bucket_count, estimate_table_rows

    with open(os.path.join(out_dir, _META)) as f:
        n_buckets = int(json.load(f)["n_buckets"])
    uniq = sorted(set(terms))
    buckets = sorted(set(int(b) for b in _term_bucket(uniq, n_buckets)))
    files = [
        f
        for b in buckets
        for f in sorted(glob.glob(os.path.join(out_dir, f"bucket={b}", "*.parquet")))
    ]
    if not files:
        return None, 64
    n_q = bucket_count(sum(estimate_table_rows(f) for f in files), min_buckets=64)
    want = pa.array(uniq, pa.string())

    def prune(b: pa.Table) -> pa.Table:
        t = b.filter(pc.is_in(b["term"], value_set=want))
        return t.append_column(
            "dbucket",
            pc.bit_wise_and(
                pc.cast(t["doc_id"], pa.int64()), pa.scalar(n_q - 1, pa.int64())
            ),
        )

    ds = ray.data.read_parquet(
        files, columns=["term", "doc_id", "positions"]
    ).map_batches(prune, batch_format="pyarrow", zero_copy_batch=True)
    return ds, n_q


_MATCH_SCHEMA = pa.schema([("doc_id", pa.int64()), ("n_matches", pa.int64())])
_ROW_SCHEMA = pa.schema(
    [
        ("term", pa.string()),
        ("doc_id", pa.int64()),
        ("positions", pa.list_(pa.int64())),
        ("dbucket", pa.int64()),
    ]
)


def _flat_slot_rows(g: pa.Table, phrase: list[str], *, shift: bool = True):
    """Flatten one doc-bucket's (term, doc, positions) rows to deduped
    (doc, slot, start) triples — appended duplicate rows collapse here.
    ``shift`` subtracts the slot offset (phrase semantics: start = pos - i,
    negatives cut); proximity wants the raw positions instead."""
    lens = pc.list_value_length(g["positions"]).to_numpy(zero_copy_only=False)
    fpos = pc.list_flatten(g["positions"]).to_numpy(zero_copy_only=False)
    row_idx = np.repeat(np.arange(g.num_rows, dtype=np.int64), lens)
    fdoc = pc.cast(g["doc_id"], pa.int64()).to_numpy(zero_copy_only=False)[row_idx]
    terms_np = g["term"].to_numpy(zero_copy_only=False)[row_idx]
    docs_all, slots_all, starts_all = [], [], []
    for i, t in enumerate(phrase):
        mask = terms_np == t
        st = fpos[mask] - i if shift else fpos[mask]
        ok = st >= 0
        docs_all.append(fdoc[mask][ok])
        starts_all.append(st[ok])
        slots_all.append(np.full(int(ok.sum()), i, np.int64))
    d = np.concatenate(docs_all) if docs_all else np.empty(0, np.int64)
    s = np.concatenate(starts_all) if starts_all else np.empty(0, np.int64)
    sl = np.concatenate(slots_all) if slots_all else np.empty(0, np.int64)
    if len(d) == 0:
        return d, sl, s
    # dedup appended duplicates: (doc, slot, start) unique.  Positions are
    # bounded by per-doc token counts (< 2^36) and m < 16, so the packed
    # key stays inside int64 for any doc id density a bucket can hold.
    uniq_docs, dense = np.unique(d, return_inverse=True)
    key = (dense.astype(np.int64) << 44) | (sl << 40) | s
    kk = np.unique(key)
    dense_k = (kk >> 44).astype(np.int64)
    return uniq_docs[dense_k], (kk >> 40) & 0xF, kk & ((1 << 40) - 1)


def search_phrase_index(out_dir: str, phrase: list[str]) -> ray.data.Dataset:
    """Exact m-word phrase match from the artifact alone: docs where
    ``phrase[i]`` sits at position ``p + i`` for every i, with the count of
    start positions p.  Returns (doc_id, n_matches>0) sorted by doc_id.

    Scale shape: the pruned posting rows go through ONE doc-hash exchange
    (bucket count derived from the pruned partitions' footers), so every
    doc's m term rows co-locate and the in-bucket intersection is a single
    vectorized pass — explode each slot's positions, shift by the slot
    offset (``start = pos - i``), and a (doc, start) key matches iff all m
    slots produced it (``np.unique`` counts == m).  Nothing
    df-proportional ever reaches the driver."""
    m = len(phrase)
    if m >= 16:
        raise ValueError("phrase slots pack into 4 bits — m must be < 16")
    ds, _ = _pruned_term_rows(out_dir, list(phrase)) if m else (None, 0)
    if ds is None:
        return ray.data.from_arrow(_MATCH_SCHEMA.empty_table())
    ph = list(phrase)

    def fold(group: pa.Table) -> pa.Table:
        d, _sl, s = _flat_slot_rows(group, ph)
        if len(d) == 0:
            return _MATCH_SCHEMA.empty_table()
        uniq_docs, dense = np.unique(d, return_inverse=True)
        key = (dense.astype(np.int64) << 40) | s
        kk, counts = np.unique(key, return_counts=True)
        hit = counts == m
        if not hit.any():
            return _MATCH_SCHEMA.empty_table()
        hit_docs = uniq_docs[(kk[hit] >> 40).astype(np.int64)]
        out_docs, n_matches = np.unique(hit_docs, return_counts=True)
        return pa.table(
            {
                "doc_id": pa.array(out_docs, pa.int64()),
                "n_matches": pa.array(n_matches.astype(np.int64), pa.int64()),
            }
        )

    return bucket_exchange(
        ds, fold, key="dbucket", schema=_ROW_SCHEMA, out_schema=_MATCH_SCHEMA
    ).sort("doc_id")


_PHRASE3_DEFAULT = ("big", "order", "scan")  # non-vacuous at every driver scale


def phrase_search_indexed(
    sf_dir: str, *, phrase: tuple[str, ...] | None = None
) -> pd.DataFrame:
    """Build the positional index over the corpus and answer one phrase
    query THROUGH it — the driver-checkable round trip whose oracle is the
    scan-based adjacency SQL (the artifact carries the positions, so
    indexed == scan iff build + intersection are exact; the hash proves
    it).  Default is a THREE-word phrase: the m>2 case the batch-local
    ``phrase_search`` kernel does not cover."""
    import tempfile

    ph = list(phrase or _PHRASE3_DEFAULT)
    with tempfile.TemporaryDirectory() as tmp:
        out = os.path.join(tmp, "positional_index")
        build_positional_index(sf_dir, out)
        # consume INSIDE the tempdir scope: the Dataset reads lazily
        df = search_phrase_index(out, ph).to_pandas()
    df = df.sort_values("doc_id").reset_index(drop=True) if not df.empty else df
    if df.empty:
        df = pd.DataFrame(
            {
                "doc_id": pd.Series([], dtype="int64"),
                "n_matches": pd.Series([], dtype="int64"),
            }
        )
    return df


def phrase_search_indexed_sql(phrase: tuple[str, ...] | None = None) -> str:
    ph = list(phrase or _PHRASE3_DEFAULT)
    m = len(ph)
    conds = " AND ".join(f"w[i + {i}] = '{t}'" for i, t in enumerate(ph))
    return f"""
WITH words AS (SELECT doc_id, regexp_extract_all(lower(text), '[a-z]+') AS w
               FROM documents),
starts AS (SELECT doc_id
           FROM words, unnest(range(1, len(w) - {m - 2})) AS t(i)
           WHERE {conds})
SELECT doc_id, count(*) AS n_matches
FROM starts GROUP BY doc_id
ORDER BY doc_id
"""


_PROX_DEFAULT = ("table", "hash")
_PROX_WINDOW = 3


def proximity_search_indexed(
    sf_dir: str,
    *,
    terms: tuple[str, str] = _PROX_DEFAULT,
    window: int = _PROX_WINDOW,
) -> pd.DataFrame:
    """NEAR/w proximity query from the same artifact: per doc, the number
    of (p1, p2) position pairs with ``0 < |p1 - p2| <= window`` — the
    other query class a positional index exists for (Lucene SpanNear).
    Pair counting is two ``np.searchsorted`` probes per doc against the
    sorted position arrays (never a quadratic expansion)."""
    import tempfile

    t1, t2 = terms
    prox_schema = pa.schema([("doc_id", pa.int64()), ("n_pairs", pa.int64())])

    def fold(group: pa.Table) -> pa.Table:
        # deduped (doc, slot, pos) triples with slot 0 = t1, slot 1 = t2
        d, sl, p = _flat_slot_rows(group, [t1, t2], shift=False)
        if len(d) == 0:
            return prox_schema.empty_table()
        docs_out, counts_out = [], []
        order = np.lexsort((p, sl, d))
        d, sl, p = d[order], sl[order], p[order]
        # per-doc segment bounds on the (doc, slot)-sorted triples
        for doc in np.unique(d):
            seg = d == doc
            p1 = p[seg & (sl == 0)]
            p2 = p[seg & (sl == 1)]
            if len(p1) == 0 or len(p2) == 0:
                continue
            lo = np.searchsorted(p2, p1 - window, side="left")
            hi = np.searchsorted(p2, p1 + window, side="right")
            n = int((hi - lo).sum())
            if t1 == t2:
                n -= len(p1)  # remove the p1 == p2 self-pairs
            else:
                n -= int(np.isin(p1, p2).sum())  # distinct terms never share p
            if n > 0:
                docs_out.append(int(doc))
                counts_out.append(n)
        return pa.table(
            {
                "doc_id": pa.array(docs_out, pa.int64()),
                "n_pairs": pa.array(counts_out, pa.int64()),
            }
        )

    with tempfile.TemporaryDirectory() as tmp:
        out = os.path.join(tmp, "positional_index")
        build_positional_index(sf_dir, out)
        ds, _ = _pruned_term_rows(out, [t1, t2])
        if ds is None:
            df = pd.DataFrame()
        else:
            df = (
                bucket_exchange(
                    ds, fold, key="dbucket", schema=_ROW_SCHEMA, out_schema=prox_schema
                )
                .sort("doc_id")
                .to_pandas()
            )
    if df.empty:
        df = pd.DataFrame(
            {
                "doc_id": pd.Series([], dtype="int64"),
                "n_pairs": pd.Series([], dtype="int64"),
            }
        )
    return df


def proximity_search_indexed_sql(
    terms: tuple[str, str] = _PROX_DEFAULT, window: int = _PROX_WINDOW
) -> str:
    t1, t2 = terms
    return f"""
WITH words AS (SELECT doc_id, regexp_extract_all(lower(text), '[a-z]+') AS w
               FROM documents),
p1 AS (SELECT doc_id, i AS p FROM words, unnest(range(1, len(w) + 1)) AS t(i)
       WHERE w[i] = '{t1}'),
p2 AS (SELECT doc_id, i AS p FROM words, unnest(range(1, len(w) + 1)) AS t(i)
       WHERE w[i] = '{t2}')
SELECT p1.doc_id, count(*) AS n_pairs
FROM p1 JOIN p2 ON p2.doc_id = p1.doc_id
WHERE abs(p1.p - p2.p) BETWEEN 1 AND {window}
GROUP BY p1.doc_id
ORDER BY p1.doc_id
"""
