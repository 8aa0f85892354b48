"""Distributed inverted-index build: documents -> term posting lists.

The classic wide text operator a 100 TB corpus pipeline runs for retrieval /
analysis: tokenize every document, shuffle DISTINCT (term, doc) pairs once,
and materialize per-term posting lists as a partitioned parquet artifact.
Extends the reference's per-document conversion surface (the reference
stops at conversion; SURVEY.md §2.10's scalar functions are the nearest
analogue) with the corpus-level index a retrieval stack builds next.

Scale discipline:
* tokenization + batch-local distinct are one Arrow pass (no Python loop);
* the ONLY exchange carries (int64 bucket, term, doc_id) distinct pairs —
  text never rides the shuffle;
* terms are hash-bucketed (``pd.util.hash_array``, deterministic
  cross-process) with a scale-derived bucket count, so one group stays
  bounded and the per-group fold is vectorized (never a Python call per
  term — CLAUDE.md bucketize rule);
* the artifact is hive-partitioned by bucket: lookups read ONLY the
  partitions their terms hash to (partition pruning at the read), and a
  failed build can re-run per partition.

Tokenization matches ``textstats.top_terms`` exactly (lowercase ``[a-z]+``
runs), so the DuckDB oracle is one regexp_extract_all away.
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc
import ray.data

from ..exchange import bucket_exchange
from ..sources.pages import read_table

__all__ = [
    "term_doc_pairs",
    "build_inverted_index",
    "lookup_postings",
    "inverted_index_stats",
    "search_corpus",
    "search_corpus_sql",
    "search_postings",
    "INVERTED_INDEX_STATS_SQL",
]

_TOKEN_PATTERN = r"[^a-z]+"  # split-on-complement == extract [a-z]+ runs


def _term_bucket(terms, n_buckets: int) -> np.ndarray:
    """Deterministic cross-process bucket of each term string."""
    obj = np.asarray(terms, dtype=object)
    return (pd.util.hash_array(obj) & np.uint64(n_buckets - 1)).astype(np.int64)


def term_doc_pairs(batch: pa.Table, *, n_buckets: int) -> pa.Table:
    """Batch-local DISTINCT (bucket, term, doc_id) pairs, all in Arrow."""
    lower = pc.utf8_lower(batch["text"])
    words = pc.split_pattern_regex(lower, pattern=_TOKEN_PATTERN)
    flat = pc.list_flatten(words)
    lens = pc.list_value_length(words).to_numpy(zero_copy_only=False)
    doc_idx = np.repeat(np.arange(len(lens), dtype=np.int64), lens)
    doc_ids = batch["doc_id"].to_numpy()[doc_idx]
    t = pa.table({"term": flat, "doc_id": pa.array(doc_ids, pa.int64())})
    t = t.filter(pc.not_equal(t["term"], ""))
    pairs = t.group_by(["term", "doc_id"]).aggregate([])  # batch-local distinct
    terms = pairs["term"].combine_chunks() if isinstance(
        pairs["term"], pa.ChunkedArray
    ) else pairs["term"]
    return pa.table(
        {
            "bucket": pa.array(
                _term_bucket(terms.to_numpy(zero_copy_only=False), n_buckets)
            ),
            "term": terms,
            "doc_id": pairs["doc_id"],
        }
    )


def _pairs_dataset(sf_dir: str) -> tuple[ray.data.Dataset, int]:
    from ..scale import bucket_count, estimate_rows

    # ~120 distinct terms/doc ride the shuffle
    n_buckets = bucket_count(estimate_rows(sf_dir, "documents") * 120, min_buckets=64)
    ds = read_table(sf_dir, "documents", columns=["doc_id", "text"])
    pairs = ds.map_batches(
        lambda b: term_doc_pairs(b, n_buckets=n_buckets),
        batch_format="pyarrow",
        zero_copy_batch=True,
    )
    return pairs, n_buckets


_PAIRS_SCHEMA = pa.schema(
    [("bucket", pa.int64()), ("term", pa.string()), ("doc_id", pa.int64())]
)
_POSTINGS_SCHEMA = pa.schema(
    [
        ("bucket", pa.int64()),
        ("term", pa.string()),
        ("df", pa.int64()),
        ("postings", pa.list_(pa.int64())),
    ]
)


def _fold_postings(
    group: pa.Table, min_df: int = 1, max_df: int | None = None
) -> pa.Table:
    """One bucket's (bucket, term, doc_id) rows -> one row per term with its
    df and ascending posting list, keeping min_df <= df <= max_df.
    Batch-local distinct is NOT global distinct (a term's postings span
    batches): re-distinct, then fold to sorted posting lists in ONE
    vectorized pass over the sorted bucket."""
    g = (
        group.group_by(["bucket", "term", "doc_id"])
        .aggregate([])
        .sort_by([("term", "ascending"), ("doc_id", "ascending")])
    )
    agg = g.group_by("term", use_threads=False).aggregate(
        [("doc_id", "list"), ("doc_id", "count")]
    )
    t = agg.rename_columns(["term", "postings", "df"])
    if max_df is not None:
        t = t.filter(
            pc.and_(
                pc.greater_equal(t["df"], pa.scalar(min_df, pa.int64())),
                pc.less_equal(t["df"], pa.scalar(max_df, pa.int64())),
            )
        )
    n = t.num_rows
    return pa.table(
        {
            "bucket": pa.array([group["bucket"][0].as_py()] * n, pa.int64()),
            "term": t["term"],
            "df": pc.cast(t["df"], pa.int64()),
            "postings": t["postings"],
        }
    )


def build_inverted_index(
    sf_dir: str,
    out_dir: str,
    *,
    min_df: int = 1,
    max_df_ratio: float = 1.0,
) -> dict:
    """Materialize the index: hive-partitioned parquet
    ``out_dir/bucket=N/...`` with rows (term, df, postings: list<int64>,
    postings sorted ascending).  ``min_df``/``max_df_ratio`` prune the
    singleton tail / stopword head (the Zipf ends that dominate index size
    but carry no retrieval value)."""
    from ..scale import estimate_rows

    n_docs = max(1, estimate_rows(sf_dir, "documents"))
    max_df = int(max_df_ratio * n_docs)
    pairs, n_buckets = _pairs_dataset(sf_dir)

    def fold(group: pa.Table) -> pa.Table:
        return _fold_postings(group, min_df, max_df)

    index = bucket_exchange(
        pairs, fold, schema=_PAIRS_SCHEMA, out_schema=_POSTINGS_SCHEMA
    )
    index.write_parquet(out_dir, partition_cols=["bucket"])
    import json as _json
    import os as _os

    with open(_os.path.join(out_dir, "_meta.json"), "w") as f:
        _json.dump(
            {
                "n_buckets": n_buckets,
                "min_df": min_df,
                "max_df_ratio": max_df_ratio,
                "kind": "inverted",
                "version": 1,
            },
            f,
        )
    return {"n_buckets": n_buckets, "n_docs": n_docs, "path": out_dir}


def lookup_postings(out_dir: str, terms: list[str], *, n_buckets: int) -> pa.Table:
    """Read ONLY the partitions the query terms hash to (partition pruning:
    at 100 TB the index has thousands of bucket dirs; a lookup touches
    len(terms) of them)."""
    import glob
    import os

    buckets = sorted(set(_term_bucket(terms, n_buckets).tolist()))
    files = [
        f
        for b in buckets
        for f in sorted(
            glob.glob(os.path.join(out_dir, f"bucket={b}", "*.parquet"))
        )
    ]
    if not files:
        return pa.table(
            {"term": pa.array([], pa.string()), "df": pa.array([], pa.int64()),
             "postings": pa.array([], pa.list_(pa.int64()))}
        )
    ds = ray.data.read_parquet(files, columns=["term", "df", "postings"])
    want = pa.array(sorted(set(terms)), pa.string())
    hit = ds.map_batches(
        lambda b: b.filter(pc.is_in(b["term"], value_set=want)),
        batch_format="pyarrow",
        zero_copy_batch=True,
    )
    out = pa.Table.from_pandas(
        hit.to_pandas(), preserve_index=False
    )  # bounded: <= len(terms) rows per index generation
    if out.num_rows == 0:
        return out
    # appends add NEW posting rows per term (never rewrite) — merge the
    # per-term rows (union postings, df = |union|) so old + new answer
    # queries uniformly, and a re-run of a crashed append stays idempotent
    df = out.to_pandas()
    if df["term"].duplicated().any():
        merged_t, merged_p = [], []
        for term, grp in df.groupby("term", sort=True):
            lists = [np.asarray(lst, np.int64) for lst in grp["postings"]]
            u = lists[0] if len(lists) == 1 else np.unique(np.concatenate(lists))
            merged_t.append(term)
            merged_p.append(u.tolist())
        return pa.table(
            {
                "term": pa.array(merged_t, pa.string()),
                "df": pa.array([len(p) for p in merged_p], pa.int64()),
                "postings": pa.array(merged_p, pa.list_(pa.int64())),
            }
        )
    return out.sort_by("term")


def inverted_index_stats(
    sf_dir: str, *, min_df: int = 2, k: int = 200
) -> ray.data.Dataset:
    """SQL-checkable summary of the same shuffle: per-term df + postings
    aggregates (sum/min/max doc_id), top-``k`` by df.  Exercises the exact
    exchange the index build uses, in a driver-hashable flat schema."""
    from ray.data.aggregate import Count, Max, Min, Sum

    pairs, _ = _pairs_dataset(sf_dir)

    _PD_SCHEMA = pa.schema([("term", pa.string()), ("doc_id", pa.int64())])

    _STATS_SCHEMA = pa.schema(
        [
            ("term", pa.string()),
            ("df", pa.int64()),
            ("postings_sum", pa.int64()),
            ("doc_min", pa.int64()),
            ("doc_max", pa.int64()),
        ]
    )

    def dedup_fold(group: pa.Table) -> pa.Table:
        g = group.group_by(["term", "doc_id"]).aggregate([])
        agg = g.group_by("term").aggregate(
            [("doc_id", "count"), ("doc_id", "sum"), ("doc_id", "min"), ("doc_id", "max")]
        )
        t = agg.rename_columns(["term", "df", "postings_sum", "doc_min", "doc_max"])
        return pa.table(
            {
                "term": t["term"],
                "df": pc.cast(t["df"], pa.int64()),
                "postings_sum": pc.cast(t["postings_sum"], pa.int64()),
                "doc_min": t["doc_min"],
                "doc_max": t["doc_max"],
            }
        )

    return (
        bucket_exchange(pairs, dedup_fold, schema=_PD_SCHEMA, out_schema=_STATS_SCHEMA)
        .map_batches(
            lambda b: b.filter(pc.greater_equal(b["df"], pa.scalar(min_df, pa.int64()))),
            batch_format="pyarrow",
            zero_copy_batch=True,
        )
        .sort(["df", "term"], descending=[True, False])
        .limit(k)
    )


INVERTED_INDEX_STATS_SQL = """
WITH pairs AS (
  SELECT DISTINCT doc_id, term FROM (
    SELECT doc_id, unnest(regexp_extract_all(lower(text), '[a-z]+')) AS term
    FROM documents
  ) WHERE term <> ''
)
SELECT term, count(*) AS df, CAST(sum(doc_id) AS BIGINT) AS postings_sum,
       min(doc_id) AS doc_min, max(doc_id) AS doc_max
FROM pairs
GROUP BY term
HAVING count(*) >= 2
ORDER BY df DESC, term
LIMIT 200
"""


# ---------------------------------------------------------------------------
# ranked boolean-OR retrieval (corpus-direct + artifact-backed)
# ---------------------------------------------------------------------------

def search_corpus(
    sf_dir: str, terms: list[str], *, k: int = 20
) -> ray.data.Dataset:
    """Ranked multi-term search with an EXACT-INTEGER score: documents
    matching any query term, ordered by (#distinct query terms present
    DESC, sum of the matched terms' document frequencies ASC — the doc
    matching RARER terms wins ties, the hash-stable stand-in for an idf
    weight — then doc_id).

    Plan shape: the query-term filter is pushed into the tokenize pass, so
    the materialized pair list holds only matching (term, doc_id) rows —
    bounded by the query terms' total df, never the corpus.  A document
    lives in one row, so its pairs stay within one block and the per-doc
    fold is batch-local; the per-term df fold is a tiny groupby
    (cardinality = len(terms)).  Two consumptions of the SAME pinned pair
    list — no second corpus scan."""
    want = pa.array(sorted({t.lower() for t in terms}), pa.string())

    ds = read_table(sf_dir, "documents", columns=["doc_id", "text"])

    def matching_pairs(batch: pa.Table) -> pa.Table:
        lower = pc.utf8_lower(batch["text"])
        words = pc.split_pattern_regex(lower, pattern=_TOKEN_PATTERN)
        flat = pc.list_flatten(words)
        lens = pc.list_value_length(words).to_numpy(zero_copy_only=False)
        doc_idx = np.repeat(np.arange(len(lens), dtype=np.int64), lens)
        doc_ids = batch["doc_id"].to_numpy()[doc_idx]
        t = pa.table({"term": flat, "doc_id": pa.array(doc_ids, pa.int64())})
        t = t.filter(pc.is_in(t["term"], value_set=want))  # filter BEFORE distinct
        return t.group_by(["term", "doc_id"]).aggregate([])

    pairs = ds.map_batches(
        matching_pairs, batch_format="pyarrow", zero_copy_batch=True
    ).materialize()  # bounded by the query terms' total df

    df_rows = pairs.groupby("term").count().take_all()  # bounded: <= len(terms) rows
    df_terms = pa.array([r["term"] for r in df_rows], pa.string())
    df_counts = np.array([r["count()"] for r in df_rows], dtype=np.int64)

    _OUT = pa.schema(
        [("doc_id", pa.int64()), ("n_hits", pa.int64()), ("sum_df", pa.int64())]
    )

    def per_doc(batch: pa.Table) -> pa.Table:
        if batch.num_rows == 0 or batch.num_columns == 0:
            return _OUT.empty_table()
        idx = pc.index_in(batch["term"], value_set=df_terms).to_numpy(
            zero_copy_only=False
        )
        dfs = df_counts[idx.astype(np.int64)]
        agg = (
            pa.table(
                {
                    "doc_id": pc.cast(batch["doc_id"], pa.int64()),
                    "hit": pa.array(np.ones(batch.num_rows, np.int64())),
                    "df": pa.array(dfs),
                }
            )
            .group_by("doc_id")
            .aggregate([("hit", "sum"), ("df", "sum")])
            .rename_columns(["doc_id", "n_hits", "sum_df"])
        )
        return agg.cast(_OUT)

    return (
        pairs.map_batches(per_doc, batch_format="pyarrow", zero_copy_batch=True)
        .sort(["n_hits", "sum_df", "doc_id"], descending=[True, False, False])
        .limit(k)
    )


def search_corpus_sql(terms: list[str], k: int = 20) -> str:
    lits = ", ".join(f"'{t.lower()}'" for t in sorted({t.lower() for t in terms}))
    return f"""
WITH tok AS (
  SELECT doc_id, unnest(regexp_extract_all(lower(text), '[a-z]+')) AS w
  FROM documents
),
td AS (SELECT DISTINCT doc_id, w FROM tok WHERE w IN ({lits})),
df AS (SELECT w, count(*) AS df FROM td GROUP BY w)
SELECT td.doc_id, count(*) AS n_hits, CAST(sum(df.df) AS BIGINT) AS sum_df
FROM td JOIN df USING (w)
GROUP BY td.doc_id
ORDER BY n_hits DESC, sum_df ASC, doc_id ASC
LIMIT {k}
"""


def search_postings(
    out_dir: str, terms: list[str], *, n_buckets: int, k: int = 20
) -> pa.Table:
    """The SAME ranking served from the materialized index artifact: read
    only the partitions the query terms hash to, explode their posting
    lists, score identically.  Unit-tested equal to :func:`search_corpus`
    (the index path must never change the answer)."""
    hits = lookup_postings(out_dir, [t.lower() for t in terms], n_buckets=n_buckets)
    if hits.num_rows == 0:
        return pa.table(
            {
                "doc_id": pa.array([], pa.int64()),
                "n_hits": pa.array([], pa.int64()),
                "sum_df": pa.array([], pa.int64()),
            }
        )
    exploded = (
        pa.table(
            {
                "doc_id": pc.list_flatten(hits["postings"]),
                "df": pc.list_parent_indices(hits["postings"]),
            }
        )
    )
    dfs = pc.take(hits["df"], exploded["df"])
    scored = (
        pa.table(
            {
                "doc_id": pc.cast(exploded["doc_id"], pa.int64()),
                "hit": pa.array(np.ones(exploded.num_rows, np.int64())),
                "df": pc.cast(dfs, pa.int64()),
            }
        )
        .group_by("doc_id")
        .aggregate([("hit", "sum"), ("df", "sum")])
        .rename_columns(["doc_id", "n_hits", "sum_df"])
    )
    ordered = scored.sort_by(
        [("n_hits", "descending"), ("sum_df", "ascending"), ("doc_id", "ascending")]
    )
    return ordered.slice(0, k)


# ---------------------------------------------------------------------------
# BM25 ranked retrieval (Robertson & Sparck Jones / Okapi — public literature)
# ---------------------------------------------------------------------------

_BM25_K1 = 1.2
_BM25_B = 0.75


def bm25_search(sf_dir: str, terms: list[str], *, k: int = 20) -> ray.data.Dataset:
    """Okapi BM25 ranking over the corpus for a fixed query-term list —
    the tf/idf/length-normalized upgrade of ``search_corpus``'s ordinal
    score, kept hash-exact by the quantize-once rule: each (doc, term)
    contribution

        idf(t) * tf * (k1+1) / (tf + k1*(1 - b + b * dl * N / total_tokens))

    with idf(t) = ln(1 + (N - df + 0.5)/(df + 0.5)) is ONE float expression
    evaluated in the identical operation order on both engines, quantized
    to the 1e-6 grid per (doc, term); a document's score is then an exact
    integer sum (the PMI/DSIR discipline — see CLAUDE.md's quantized-log
    note).

    Scale shape: pass A folds the global constants (N, total token count,
    per-term df) from per-batch partials — bounded by len(terms)+2 rows;
    pass B scores each batch embarrassingly parallel (tf via one
    ``pc.count_substring_regex`` per term? no — via index_in over the
    token stream, dl from the same stream) with the constants riding the
    UDF closure; only (doc_id, score) rows reach the final top-k sort."""
    from ray.data.aggregate import Sum

    want = sorted({t.lower() for t in terms})
    want_arr = pa.array(want, pa.string())
    from .dsir import _tokens

    ds = read_table(sf_dir, "documents", columns=["doc_id", "text"])

    stat_schema = pa.schema(
        [("kind", pa.int64()), ("key", pa.int64()), ("n", pa.int64())]
    )

    def stats_partial(batch: pa.Table) -> pa.Table:
        # kind 0/key 0: doc count; kind 1/key 0: token count;
        # kind 2/key i: df of term i (distinct docs containing it)
        if batch.num_rows == 0 or batch.num_columns == 0:
            return stat_schema.empty_table()
        flat, doc_idx, _lens = _tokens(batch["text"])
        idx = pc.index_in(flat, value_set=want_arr)
        hit = idx.is_valid().to_numpy(zero_copy_only=False)
        ti = idx.drop_null().to_numpy(zero_copy_only=False)
        di = doc_idx[hit]
        # distinct (doc, term) pairs in this batch
        pair = np.unique(di * len(want) + ti)
        df_part = np.bincount(pair % len(want), minlength=len(want))
        kinds = np.concatenate(
            [[0, 1], np.full(len(want), 2, np.int64)]
        )
        keys = np.concatenate([[0, 0], np.arange(len(want), dtype=np.int64)])
        ns = np.concatenate(
            [[batch.num_rows, len(flat)], df_part.astype(np.int64)]
        )
        return pa.table(
            {
                "kind": pa.array(kinds, pa.int64()),
                "key": pa.array(keys, pa.int64()),
                "n": pa.array(ns, pa.int64()),
            }
        )

    folded = (
        ds.map_batches(stats_partial, batch_format="pyarrow", zero_copy_batch=True)
        .groupby(["kind", "key"])
        .aggregate(Sum("n", alias_name="n"))
        .take_all()  # bounded: len(terms) + 2 rows
    )
    n_docs = tot_tokens = 0
    df = np.zeros(len(want), np.int64)
    for r in folded:
        if r["kind"] == 0:
            n_docs = int(r["n"])
        elif r["kind"] == 1:
            tot_tokens = int(r["n"])
        else:
            df[r["key"]] = int(r["n"])
    idf = np.log(1.0 + (n_docs - df + 0.5) / (df + 0.5))

    out_schema = pa.schema([("doc_id", pa.int64()), ("score_e6", pa.int64())])

    def score_batch(batch: pa.Table) -> pa.Table:
        if batch.num_rows == 0 or batch.num_columns == 0:
            return out_schema.empty_table()
        flat, doc_idx, lens = _tokens(batch["text"])
        dl = np.bincount(doc_idx, minlength=batch.num_rows).astype(np.int64)
        idx = pc.index_in(flat, value_set=want_arr)
        hit = idx.is_valid().to_numpy(zero_copy_only=False)
        ti = idx.drop_null().to_numpy(zero_copy_only=False)
        di = doc_idx[hit]
        pair = di * len(want) + ti
        tf_flat = np.bincount(pair, minlength=batch.num_rows * len(want))
        tf = tf_flat.reshape(batch.num_rows, len(want)).astype(np.float64)
        # one canonical float expression, mirrored token-for-token in SQL
        denom = tf + _BM25_K1 * (
            (1.0 - _BM25_B)
            + _BM25_B * (dl[:, None].astype(np.float64) * float(n_docs)) / float(tot_tokens)
        )
        contrib = idf[None, :] * (tf * (_BM25_K1 + 1.0)) / denom
        contrib_e6 = np.where(tf > 0, np.round(contrib * 1e6), 0.0).astype(np.int64)
        score = contrib_e6.sum(axis=1)
        keep = score > 0
        return pa.table(
            {
                "doc_id": pc.cast(batch["doc_id"], pa.int64()).filter(pa.array(keep)),
                "score_e6": pa.array(score[keep], pa.int64()),
            }
        )

    return (
        ds.map_batches(score_batch, batch_format="pyarrow", zero_copy_batch=True)
        .sort(["score_e6", "doc_id"], descending=[True, False])
        .limit(k)
    )


def bm25_search_sql(terms: list[str], k: int = 20) -> str:
    want = sorted({t.lower() for t in terms})
    lits = ", ".join(f"'{t}'" for t in want)
    return f"""
WITH tok AS (
  SELECT doc_id, unnest(regexp_extract_all(lower(text), '[a-z]+')) AS w
  FROM documents
),
consts AS (
  SELECT (SELECT count(*) FROM documents) AS n_docs,
         (SELECT count(*) FROM tok) AS tot
),
dl AS (SELECT doc_id, count(*) AS dl FROM tok GROUP BY doc_id),
dfs AS (
  SELECT w, count(DISTINCT doc_id) AS df FROM tok
  WHERE w IN ({lits}) GROUP BY w
),
tfs AS (
  SELECT doc_id, w, count(*) AS tf FROM tok
  WHERE w IN ({lits}) GROUP BY doc_id, w
),
contrib AS (
  SELECT t.doc_id,
         CAST(round(
           ln(1.0 + (consts.n_docs - dfs.df + 0.5) / (dfs.df + 0.5))
           * (t.tf * {_BM25_K1 + 1.0})
           / (t.tf + {_BM25_K1} * ((1.0 - {_BM25_B})
              + {_BM25_B} * (dl.dl * CAST(consts.n_docs AS DOUBLE))
                / CAST(consts.tot AS DOUBLE)))
           * 1000000) AS BIGINT) AS c_e6
  FROM tfs t
  JOIN dfs ON dfs.w = t.w
  JOIN dl ON dl.doc_id = t.doc_id
  CROSS JOIN consts
)
SELECT doc_id, CAST(sum(c_e6) AS BIGINT) AS score_e6
FROM contrib GROUP BY doc_id
ORDER BY score_e6 DESC, doc_id
LIMIT {k}
"""


# ---------------------------------------------------------------------------
# positional phrase search (exact adjacency, no index required)
# ---------------------------------------------------------------------------

_PHRASE_DEFAULT = ("table", "hash")


def phrase_search(
    sf_dir: str, *, phrase: tuple[str, str] = _PHRASE_DEFAULT
) -> ray.data.Dataset:
    """Exact two-word phrase search: per document, the number of positions
    where ``phrase[0]`` is immediately followed by ``phrase[1]`` in the
    ASCII ``[a-z]+`` token stream (the repo's SQL-portable tokenizer
    contract) — the positional upgrade of the boolean-OR ``search_corpus``
    family.

    A document's tokens live in its own row, so adjacency is BATCH-LOCAL:
    this is a pure vectorized map (no exchange at any scale).  The kernel
    never materializes a Python string: tokens stay in Arrow, the match is
    a shifted AND over the flattened non-empty token mask
    (``is_t1[i] & is_t2[i+1] & same_doc``), and counts land per doc with
    one ``np.bincount``.
    """
    from ..sources.pages import read_table

    t1, t2 = phrase
    out_schema = pa.schema([("doc_id", pa.int64()), ("n_matches", pa.int64())])

    def match(batch: pa.Table) -> pa.Table:
        if batch.num_rows == 0 or batch.num_columns == 0:
            return out_schema.empty_table()
        lower = pc.utf8_lower(batch["text"])
        words = pc.split_pattern_regex(lower, pattern="[^a-z]+")
        flat = pc.list_flatten(words).combine_chunks()
        lens = pc.list_value_length(words).to_numpy(zero_copy_only=False)
        doc_idx = np.repeat(np.arange(len(lens), dtype=np.int64), lens)
        nonempty = pc.not_equal(flat, "").to_numpy(zero_copy_only=False)
        is_a = pc.equal(flat, t1).to_numpy(zero_copy_only=False)[nonempty]
        is_b = pc.equal(flat, t2).to_numpy(zero_copy_only=False)[nonempty]
        d = doc_idx[nonempty]
        if len(d) < 2:
            return out_schema.empty_table()
        hit = is_a[:-1] & is_b[1:] & (d[:-1] == d[1:])
        counts = np.bincount(d[:-1][hit], minlength=len(lens)).astype(np.int64)
        keep = counts > 0
        return pa.table(
            {
                "doc_id": pc.cast(batch["doc_id"], pa.int64())
                .to_numpy(zero_copy_only=False)[keep],
                "n_matches": counts[keep],
            }
        )

    return (
        read_table(sf_dir, "documents", columns=["doc_id", "text"])
        .map_batches(match, batch_format="pyarrow", zero_copy_batch=True)
        .sort("doc_id")
    )


def phrase_search_sql(phrase: tuple[str, str] = _PHRASE_DEFAULT) -> str:
    t1, t2 = phrase
    return f"""
WITH words AS (SELECT doc_id, regexp_extract_all(lower(text), '[a-z]+') AS w
               FROM documents),
adj AS (SELECT doc_id, w[i] AS a, w[i + 1] AS b
        FROM words, unnest(range(1, len(w))) AS t(i))
SELECT doc_id, count(*) AS n_matches
FROM adj WHERE a = '{t1}' AND b = '{t2}'
GROUP BY doc_id
ORDER BY doc_id
"""


# ---------------------------------------------------------------------------
# reciprocal-rank fusion — hybrid retrieval over two ranking systems
# ---------------------------------------------------------------------------

_RRF_K = 60


def rrf_hybrid_search(
    sf_dir: str, terms: list[str], *, k: int = 20, k_each: int = 20
) -> pa.Table:
    """Hybrid retrieval via Reciprocal Rank Fusion (Cormack et al. 2009):
    fuse the BM25 ranking and the boolean-OR ordinal ranking of the same
    query, score(d) = sum over systems of 1/(60 + rank_d) — the standard
    RAG trick that beats either ranker alone without score calibration.

    Integer contract: each system contributes ``1000000 // (60 + rank)``
    (floor division — round() is hazardous cross-engine), ranks are
    1-based row_numbers over each system's own deterministic total order
    (BM25: score DESC, doc_id; boolean: n_hits DESC, sum_df ASC, doc_id),
    absent docs contribute rank 0 / score 0.

    Scale shape: both input rankings are top-``k_each`` bounded BEFORE the
    fusion, so the driver-side fuse touches at most ``2 * k_each`` rows at
    any corpus size — the distributed work is entirely inside the two
    rankers (one corpus scan each).
    """
    bm = bm25_search(sf_dir, terms, k=k_each).take_all()  # bounded: k_each
    sc = search_corpus(sf_dir, terms, k=k_each).take_all()  # bounded: k_each

    bm_rank = {int(r["doc_id"]): i + 1 for i, r in enumerate(bm)}
    sc_rank = {int(r["doc_id"]): i + 1 for i, r in enumerate(sc)}
    fused = []
    for doc_id in set(bm_rank) | set(sc_rank):
        rb = bm_rank.get(doc_id, 0)
        rs = sc_rank.get(doc_id, 0)
        score = (1_000_000 // (_RRF_K + rb) if rb else 0) + (
            1_000_000 // (_RRF_K + rs) if rs else 0
        )
        fused.append((doc_id, rb, rs, score))
    fused.sort(key=lambda t: (-t[3], t[0]))
    fused = fused[:k]
    return pa.table(
        {
            "doc_id": pa.array([t[0] for t in fused], pa.int64()),
            "bm25_rank": pa.array([t[1] for t in fused], pa.int64()),
            "bool_rank": pa.array([t[2] for t in fused], pa.int64()),
            "rrf_score": pa.array([t[3] for t in fused], pa.int64()),
        }
    )


def rrf_hybrid_search_sql(terms: list[str], k: int = 20, k_each: int = 20) -> str:
    bm = bm25_search_sql(terms, k=k_each)
    sc = search_corpus_sql(terms, k=k_each)
    return f"""
WITH bm AS ({bm}),
bmr AS (SELECT doc_id,
               row_number() OVER (ORDER BY score_e6 DESC, doc_id) AS r
        FROM bm),
sc AS ({sc}),
scr AS (SELECT doc_id,
               row_number() OVER (ORDER BY n_hits DESC, sum_df ASC, doc_id) AS r
        FROM sc)
SELECT COALESCE(b.doc_id, s.doc_id) AS doc_id,
       CAST(COALESCE(b.r, 0) AS BIGINT) AS bm25_rank,
       CAST(COALESCE(s.r, 0) AS BIGINT) AS bool_rank,
       CAST(COALESCE(1000000 // ({_RRF_K} + b.r), 0)
          + COALESCE(1000000 // ({_RRF_K} + s.r), 0) AS BIGINT) AS rrf_score
FROM bmr b FULL OUTER JOIN scr s ON b.doc_id = s.doc_id
ORDER BY rrf_score DESC, doc_id
LIMIT {k}
"""


# ---------------------------------------------------------------------------
# MMR diversified re-rank — greedy maximal marginal relevance over top-k
# ---------------------------------------------------------------------------

_MMR_REL_W = 7
_MMR_DIV_W = 3


def mmr_rerank_search(
    sf_dir: str, terms: list[str], *, k: int = 10, k_cand: int = 20
) -> pa.Table:
    """Diversified search results via Maximal Marginal Relevance
    (Carbonell & Goldstein 1998): greedily pick the candidate maximizing
    ``7 * rel - 3 * max_sim_to_already_picked`` — the re-rank every RAG
    retriever runs so the context window isn't k copies of one page.

    Exact-integer contract: rel is BM25's quantized ``score_e6``;
    similarity between candidates is Jaccard ppm over their DISTINCT
    word sets (``|A∩B| * 1e6 // |A∪B|`` — floor division, counts exact
    in both engines); the MMR objective is a pure integer expression
    with NO division (integer weights 7/3), so negative scores carry no
    floor-vs-truncate hazard.  Ties break by doc_id.  The oracle runs
    the identical greedy as a recursive CTE with a LATERAL argmax and a
    list-accumulated selected set.

    Scale shape: candidates are top-``k_cand`` bounded BEFORE any
    pairwise work, so the similarity matrix is ``k_cand^2`` and the
    driver pull is bounded by ``k_cand x per-doc distinct words`` —
    independent of corpus size; the distributed work is the BM25 scan
    plus one candidate-filtered tokenize pass.
    """
    from .dsir import _tokens

    cand = bm25_search(sf_dir, terms, k=k_cand).take_all()  # bounded: k_cand
    if not cand:
        return pa.table(
            {
                "rank": pa.array([], pa.int64()),
                "doc_id": pa.array([], pa.int64()),
                "rel_e6": pa.array([], pa.int64()),
                "mmr_score": pa.array([], pa.int64()),
            }
        )
    rel = {int(r["doc_id"]): int(r["score_e6"]) for r in cand}
    # deterministic candidate order: (rel DESC, doc_id ASC)
    cand_ids = sorted(rel, key=lambda d: (-rel[d], d))
    id_set = pa.array(cand_ids, pa.int64())

    ds = read_table(sf_dir, "documents", columns=["doc_id", "text"])
    pair_schema = pa.schema([("doc_id", pa.int64()), ("w", pa.string())])

    def cand_words(batch: pa.Table) -> pa.Table:
        if batch.num_rows == 0 or batch.num_columns == 0:
            return pair_schema.empty_table()
        hit = pc.is_in(pc.cast(batch["doc_id"], pa.int64()), value_set=id_set)
        batch = batch.filter(hit)
        if batch.num_rows == 0:
            return pair_schema.empty_table()
        flat, doc_idx, _ = _tokens(batch["text"].combine_chunks())
        if len(flat) == 0:
            return pair_schema.empty_table()
        doc_ids = pc.cast(batch["doc_id"], pa.int64()).combine_chunks()
        t = pa.table(
            {"doc_id": doc_ids.take(pa.array(doc_idx, pa.int64())), "w": flat}
        )
        return t.group_by(["doc_id", "w"]).aggregate([])

    # bounded: k_cand docs x their distinct words — corpus-size-independent
    rows = (
        ds.map_batches(cand_words, batch_format="pyarrow", zero_copy_batch=True)
        .take_all()
    )
    words: dict[int, set[str]] = {d: set() for d in cand_ids}
    for r in rows:
        words[int(r["doc_id"])].add(r["w"])

    def sim_ppm(a: int, b: int) -> int:
        ix = len(words[a] & words[b])
        un = len(words[a] | words[b])
        return ix * 1_000_000 // un if un else 0

    picked: list[tuple[int, int, int]] = []  # (rank, doc_id, mmr)
    sel: list[int] = []
    remaining = list(cand_ids)
    while remaining and len(picked) < k:
        best = None
        for c in remaining:
            maxsim = max((sim_ppm(c, s) for s in sel), default=0)
            mmr = _MMR_REL_W * rel[c] - _MMR_DIV_W * maxsim
            if best is None or (mmr, -c) > (best[1], -best[0]):
                best = (c, mmr)
        picked.append((len(picked) + 1, best[0], best[1]))
        sel.append(best[0])
        remaining.remove(best[0])
    return pa.table(
        {
            "rank": pa.array([p[0] for p in picked], pa.int64()),
            "doc_id": pa.array([p[1] for p in picked], pa.int64()),
            "rel_e6": pa.array([rel[p[1]] for p in picked], pa.int64()),
            "mmr_score": pa.array([p[2] for p in picked], pa.int64()),
        }
    )


def mmr_rerank_search_sql(terms: list[str], k: int = 10, k_cand: int = 20) -> str:
    bm = bm25_search_sql(terms, k=k_cand)
    return f"""
WITH RECURSIVE bm AS ({bm}),
w AS (SELECT DISTINCT doc_id,
             unnest(regexp_extract_all(lower(text), '[a-z]+')) AS w
      FROM documents WHERE doc_id IN (SELECT doc_id FROM bm)),
wc AS (SELECT doc_id, count(*) AS nw FROM w GROUP BY doc_id),
inter AS (SELECT x.doc_id AS a, y.doc_id AS b, count(*) AS ix
          FROM w x JOIN w y ON x.w = y.w AND x.doc_id <> y.doc_id
          GROUP BY a, b),
sim AS (SELECT a, b,
               CAST(ix * 1000000 // (ca.nw + cb.nw - ix) AS BIGINT) AS s
        FROM inter
        JOIN wc ca ON ca.doc_id = inter.a
        JOIN wc cb ON cb.doc_id = inter.b),
seed AS (SELECT doc_id, score_e6,
                row_number() OVER (ORDER BY score_e6 DESC, doc_id) AS rn
         FROM bm),
pick AS (
  SELECT 1 AS step, doc_id, score_e6,
         CAST({_MMR_REL_W} * score_e6 AS BIGINT) AS mmr, [doc_id] AS sel
  FROM seed WHERE rn = 1
  UNION ALL
  SELECT p.step + 1, q.doc_id, q.score_e6, q.mmr, list_append(p.sel, q.doc_id)
  FROM pick p, LATERAL (
    SELECT r.doc_id, r.score_e6,
           {_MMR_REL_W} * r.score_e6
           - {_MMR_DIV_W} * COALESCE((SELECT max(s.s) FROM sim s
                                      WHERE s.a = r.doc_id
                                        AND list_contains(p.sel, s.b)), 0) AS mmr
    FROM seed r WHERE NOT list_contains(p.sel, r.doc_id)
    ORDER BY mmr DESC, r.doc_id LIMIT 1
  ) q
  WHERE p.step < {k}
)
SELECT step AS rank, doc_id, CAST(score_e6 AS BIGINT) AS rel_e6,
       CAST(mmr AS BIGINT) AS mmr_score
FROM pick ORDER BY rank
"""


# ---------------------------------------------------------------------------
# NDCG@k evaluation of the BM25 ranking (graded-relevance IR metric)
# ---------------------------------------------------------------------------

_NDCG_TERMS = ("table", "spark", "window")
_NDCG_K = 10
# rank-discount weights computed ONCE in Python and embedded as integer
# literals in BOTH engines — no cross-engine float ever evaluated
_NDCG_W = [round(1e9 / np.log2(i + 1)) for i in range(1, _NDCG_K + 1)]


def search_ndcg_report(
    sf_dir: str, terms: list[str] | None = None, *, k: int = _NDCG_K
) -> pa.Table:
    """NDCG@k of the BM25 ranking against a deterministic graded-relevance
    proxy (a document's gain = its total query-term frequency): the
    standard IR evaluation loop — rank with the scorer, judge with the
    labels, discount by log2(rank+1) — closed over this repo's own
    retrieval stack so ranking-quality regressions surface as a number.

    Exactness: gains are exact int64 term frequencies; the rank-discount
    weights are PRE-COMPUTED integer literals shared by both engines (no
    float is ever evaluated at query time); DCG/IDCG are exact integer
    dot products and ndcg_ppm floor-divides once.

    Plan shape: the BM25 pass (two bounded folds, see bm25_search) gives
    the top-k ranking; ONE per-doc gains fold (pruned to gain>0 docs)
    gives DCG's gains by broadcast lookup and IDCG's ideal head by a
    bounded top-k sort.
    """
    from ray.data.aggregate import Sum

    want = sorted({t.lower() for t in (terms or list(_NDCG_TERMS))})
    want_arr = pa.array(want, pa.string())
    ranked = bm25_search(sf_dir, want, k=k).take_all()  # bounded: k rows
    ranked_ids = [int(r["doc_id"]) for r in ranked]

    ds = read_table(sf_dir, "documents", columns=["doc_id", "text"])

    gain_schema = pa.schema([("doc_id", pa.int64()), ("gain", pa.int64())])

    def gains(batch: pa.Table) -> pa.Table:
        if batch.num_rows == 0 or batch.num_columns == 0:
            return gain_schema.empty_table()
        lower = pc.utf8_lower(batch["text"])
        words = pc.split_pattern_regex(lower, pattern="[^a-z]+")
        flat = pc.list_flatten(words)
        lens = pc.list_value_length(words).to_numpy(zero_copy_only=False)
        doc_idx = np.repeat(np.arange(len(lens), dtype=np.int64), lens)
        hit = pc.is_in(flat, value_set=want_arr).to_numpy(zero_copy_only=False)
        g = np.bincount(doc_idx, weights=hit, minlength=len(lens)).astype(np.int64)
        keep = g > 0
        return pa.table(
            {
                "doc_id": pc.cast(batch["doc_id"], pa.int64()).filter(pa.array(keep)),
                "gain": pa.array(g[keep], pa.int64()),
            }
        )

    # bounded: the ideal head, max(k, len(ranked_ids)) + k rows
    gain_rows = (
        ds.map_batches(gains, batch_format="pyarrow", zero_copy_batch=True)
        .groupby("doc_id")
        .aggregate(Sum(on="gain", alias_name="gain"))
        .sort(["gain", "doc_id"], descending=[True, False])
        .limit(max(k, len(ranked_ids)) + k)  # ideal head + lookup margin
        .take_all()
    )
    # NOTE: the top-(2k) bounded pull covers the ideal head; gains for the
    # BM25-ranked docs are re-derived exactly below via a filtered fold
    gain_of_top = {int(r["doc_id"]): int(r["gain"]) for r in gain_rows}

    # gains for ranked docs not inside the ideal head: one pruned fold
    missing = [d for d in ranked_ids if d not in gain_of_top]
    if missing:
        miss_arr = pa.array(missing, pa.int64())

        def only_missing(batch: pa.Table) -> pa.Table:
            if batch.num_rows == 0 or batch.num_columns == 0:
                return gain_schema.empty_table()
            return batch.filter(pc.is_in(batch["doc_id"], value_set=miss_arr))

        # bounded: <= len(missing) rows, the ranked docs outside the ideal head
        more = (
            ds.map_batches(gains, batch_format="pyarrow", zero_copy_batch=True)
            .map_batches(only_missing, batch_format="pyarrow")
            .groupby("doc_id")
            .aggregate(Sum(on="gain", alias_name="gain"))
            .take_all()
        )
        gain_of_top.update({int(r["doc_id"]): int(r["gain"]) for r in more})

    dcg = sum(
        gain_of_top.get(d, 0) * _NDCG_W[i] for i, d in enumerate(ranked_ids[:k])
    )
    ideal = sorted(
        gain_of_top.items(), key=lambda kv: (-kv[1], kv[0])
    )[:k]
    idcg = sum(g * _NDCG_W[i] for i, (_, g) in enumerate(ideal))
    return pa.table(
        {
            "k": pa.array([k], pa.int64()),
            "dcg_q": pa.array([dcg], pa.int64()),
            "idcg_q": pa.array([idcg], pa.int64()),
            "ndcg_ppm": pa.array([dcg * 1_000_000 // idcg if idcg else 0], pa.int64()),
        }
    )


def search_ndcg_report_sql(terms: list[str] | None = None, k: int = _NDCG_K) -> str:
    want = sorted({t.lower() for t in (terms or list(_NDCG_TERMS))})
    lits = ", ".join(f"'{t}'" for t in want)
    w_rows = ", ".join(f"({i + 1}, {w})" for i, w in enumerate(_NDCG_W[:k]))
    bm25 = bm25_search_sql(want, k=k).strip().rstrip()
    return f"""
WITH ranked AS (
  SELECT doc_id, row_number() OVER (ORDER BY score_e6 DESC, doc_id) AS r
  FROM ({bm25})
),
wts(r, w) AS (VALUES {w_rows}),
g AS (
  SELECT doc_id, count(*) AS gain FROM (
    SELECT doc_id, unnest(regexp_extract_all(lower(text), '[a-z]+')) AS w
    FROM documents) WHERE w IN ({lits}) GROUP BY doc_id),
dcg AS (
  SELECT coalesce(sum(coalesce(g.gain, 0) * wts.w), 0) AS v
  FROM ranked JOIN wts USING (r) LEFT JOIN g USING (doc_id)),
ideal AS (
  SELECT gain, row_number() OVER (ORDER BY gain DESC, doc_id) AS r
  FROM g QUALIFY r <= {k}),
idcg AS (SELECT coalesce(sum(ideal.gain * wts.w), 0) AS v
         FROM ideal JOIN wts USING (r))
SELECT CAST({k} AS BIGINT) AS k,
       CAST(dcg.v AS BIGINT) AS dcg_q,
       CAST(idcg.v AS BIGINT) AS idcg_q,
       CAST(CASE WHEN idcg.v > 0 THEN dcg.v * 1000000 // idcg.v ELSE 0 END
            AS BIGINT) AS ndcg_ppm
FROM dcg, idcg
"""


# ---------------------------------------------------------------------------
# rank-biased overlap between the classifier ranking and the length ranking
# ---------------------------------------------------------------------------

_RBO_DEPTH = 50
_RBO_P_NUM = 9  # p = 0.9 encoded as a rational so weights derive exactly
# per-depth weights (1-p)*p^(d-1), pre-quantized to 1e9 in Python and
# embedded as literals in BOTH engines — no query-time float
_RBO_W = [round(1e9 * 0.1 * 0.9 ** (d - 1)) for d in range(1, _RBO_DEPTH + 1)]


def ranking_overlap_rbo(sf_dir: str, *, depth: int = _RBO_DEPTH) -> pa.Table:
    """Rank-biased overlap (Webber et al. 2010) between the learned
    quality-classifier ranking and the raw document-LENGTH ranking, to
    depth 50 — the top-weighted rank-correlation that answers "is the
    classifier just reranking by length?" without requiring the two lists
    to cover the same items (Kendall/Spearman cannot handle that).

    Exactness: both rankings are deterministic int orders ((score DESC,
    doc_id) / (n_chars DESC, doc_id)); overlap X_d at every depth is an
    exact integer; the geometric weights are PRE-COMPUTED integer
    literals, and each depth's term floor-divides (w_d * X_d) // d once.

    Plan shape: two bounded top-``depth`` folds (classifier logits are an
    embarrassingly-parallel map; the length ranking reads one column);
    the 50x50 overlap walk happens on the driver.
    """
    from .webtext import classifier_quality_scores

    # bounded: limit(depth) rows
    a_rows = (
        classifier_quality_scores(sf_dir)
        .sort(["logit_e6", "doc_id"], descending=[True, False])
        .limit(depth)
        .take_all()
    )
    # bounded: limit(depth) rows
    b_rows = (
        read_table(sf_dir, "documents", columns=["doc_id", "n_chars"])
        .sort(["n_chars", "doc_id"], descending=[True, False])
        .limit(depth)
        .take_all()
    )
    a_ids = [int(r["doc_id"]) for r in a_rows]
    b_ids = [int(r["doc_id"]) for r in b_rows]
    rbo_q = 0
    overlap_at = {}
    for d in range(1, depth + 1):
        x_d = len(set(a_ids[:d]) & set(b_ids[:d]))
        overlap_at[d] = x_d
        rbo_q += _RBO_W[d - 1] * x_d // d
    return pa.table(
        {
            "depth": pa.array([depth], pa.int64()),
            "overlap_at_10": pa.array([overlap_at.get(10, 0)], pa.int64()),
            "overlap_at_depth": pa.array([overlap_at[depth]], pa.int64()),
            "rbo_q": pa.array([rbo_q], pa.int64()),
        }
    )


def ranking_overlap_rbo_sql(depth: int = _RBO_DEPTH) -> str:
    from .webtext import CLASSIFIER_QUALITY_SCORES_SQL

    w_rows = ", ".join(f"({d}, {w})" for d, w in enumerate(_RBO_W[:depth], start=1))
    cls = CLASSIFIER_QUALITY_SCORES_SQL.strip()
    return f"""
WITH a AS (
  SELECT doc_id, row_number() OVER (ORDER BY logit_e6 DESC, doc_id) AS r
  FROM ({cls}) QUALIFY r <= {depth}),
b AS (
  SELECT doc_id, row_number() OVER (ORDER BY n_chars DESC, doc_id) AS r
  FROM documents QUALIFY r <= {depth}),
ab AS (
  SELECT a.r AS ra, b.r AS rb FROM a JOIN b USING (doc_id)),
wts(d, w) AS (VALUES {w_rows}),
x AS (
  SELECT wts.d, wts.w,
         (SELECT count(*) FROM ab WHERE ab.ra <= wts.d AND ab.rb <= wts.d) AS x_d
  FROM wts)
SELECT CAST({depth} AS BIGINT) AS depth,
       (SELECT CAST(x_d AS BIGINT) FROM x WHERE d = 10) AS overlap_at_10,
       (SELECT CAST(x_d AS BIGINT) FROM x WHERE d = {depth}) AS overlap_at_depth,
       CAST((SELECT sum(w * x_d // d) FROM x) AS BIGINT) AS rbo_q
"""


# ---------------------------------------------------------------------------
# percolation / reverse search: route documents to stored queries
# ---------------------------------------------------------------------------

_PERCOLATOR_TERM_SETS: tuple[tuple[str, ...], ...] = (
    ("table", "scan"),
    ("spark", "window"),
    ("hash", "join"),
    ("merge", "sort", "stream"),
)


def percolate_routes(
    sf_dir: str, queries: tuple[tuple[str, ...], ...] = _PERCOLATOR_TERM_SETS
) -> ray.data.Dataset:
    """Percolation (reverse search, the Elasticsearch percolator shape):
    the QUERIES are stored and every incoming document routes to the
    queries it satisfies (here: conjunctive term sets — the doc must
    contain ALL of a query's terms).  This is the alerting/routing fan-out
    a streaming ingest runs per document — the transpose of retrieval,
    which no forward search query expresses.

    Plan shape: a pure map — the stored queries broadcast via closure
    (a saved-search table is small by definition); per batch, ONE token
    pass builds the per-doc membership bits for the union of all query
    terms, then each query is an AND over its term bits.  No exchange.
    Output: (doc_id, query_id) pairs, one per match.
    """
    all_terms = sorted({t for q in queries for t in q})
    term_idx = {t: i for i, t in enumerate(all_terms)}
    q_masks = [
        sum(1 << term_idx[t] for t in q) for q in queries
    ]
    want_arr = pa.array(all_terms, pa.string())

    ds = read_table(sf_dir, "documents", columns=["doc_id", "text"])

    out_schema = pa.schema([("doc_id", pa.int64()), ("query_id", pa.int64())])

    def route(batch: pa.Table) -> pa.Table:
        if batch.num_rows == 0 or batch.num_columns == 0:
            return out_schema.empty_table()
        lower = pc.utf8_lower(batch["text"])
        words = pc.split_pattern_regex(lower, pattern="[^a-z]+")
        flat = pc.list_flatten(words)
        lens = pc.list_value_length(words).to_numpy(zero_copy_only=False)
        doc_idx = np.repeat(np.arange(len(lens), dtype=np.int64), lens)
        # index_in yields null for misses — fill to -1 before numpy
        pos = pc.fill_null(pc.index_in(flat, value_set=want_arr), -1).to_numpy(
            zero_copy_only=False
        )
        hit = pos >= 0
        masks = np.zeros(len(lens), np.int64)
        np.bitwise_or.at(masks, doc_idx[hit], np.int64(1) << pos[hit])
        doc_ids = pc.cast(batch["doc_id"], pa.int64()).to_numpy(zero_copy_only=False)
        out_d, out_q = [], []
        for qid, qm in enumerate(q_masks):
            m = (masks & qm) == qm
            out_d.append(doc_ids[m])
            out_q.append(np.full(int(m.sum()), qid, np.int64))
        return pa.table(
            {
                "doc_id": pa.array(np.concatenate(out_d), pa.int64()),
                "query_id": pa.array(np.concatenate(out_q), pa.int64()),
            }
        )

    return ds.map_batches(route, batch_format="pyarrow", zero_copy_batch=True).sort(
        ["doc_id", "query_id"]
    )


def percolate_routes_sql(
    queries: tuple[tuple[str, ...], ...] = _PERCOLATOR_TERM_SETS
) -> str:
    # DuckDB list literal: build VALUES of (query_id, terms LIST)
    vals = ", ".join(
        "({}, [{}])".format(qid, ", ".join(f"'{t}'" for t in sorted(set(q))))
        for qid, q in enumerate(queries)
    )
    return f"""
WITH q(query_id, terms) AS (VALUES {vals}),
tok AS (
  SELECT doc_id, list(DISTINCT w) AS words FROM (
    SELECT doc_id, unnest(regexp_extract_all(lower(text), '[a-z]+')) AS w
    FROM documents) GROUP BY doc_id)
SELECT tok.doc_id, CAST(q.query_id AS BIGINT) AS query_id
FROM tok CROSS JOIN q
WHERE list_has_all(tok.words, q.terms)
ORDER BY doc_id, query_id
"""


# ---------------------------------------------------------------------------
# more-like-this: TF-IDF similarity retrieval seeded by a CORPUS DOCUMENT
# (the "find documents like this one" query — bm25_search's sibling where
# the query is a document's own term vector, not a user term list)
# ---------------------------------------------------------------------------


def more_like_this_tfidf(
    sf_dir: str, *, query_doc_id: int = 0, k: int = 20
) -> ray.data.Dataset:
    """Top-k documents most similar to ``query_doc_id`` by unnormalized
    TF-IDF dot product (the Lucene MoreLikeThis shape):

        score(d) = sum over t in q of  tf_d(t) * tf_q(t) * idf_e3(t)^2
        idf_e3(t) = round(ln(N / df(t)) * 1000)

    idf is quantized ONCE per term at the 1e-3 grid — coarse enough that
    idf_e3^2 * tf products stay far inside int64 even at corpus N ~ 1e9
    (ln(1e9)*1e3 ~ 2.1e4, squared 4.3e8), so per-doc scores are exact
    integer sums on both engines; common-to-every-doc terms get idf 0 and
    drop out.

    Scale shape (the bm25 two-pass recipe): pass 0 pulls the ONE query
    document's term vector (bounded, broadcast); pass A folds per-term df
    + the corpus doc count from per-batch partials (bounded by the query
    vocabulary); pass B scores each batch embarrassingly parallel —
    documents never split across batches, so per-doc scores are complete
    batch-locally and only per-batch top-k candidate rows reach the final
    sort."""
    from ray.data.aggregate import Sum

    from .dsir import _tokens

    ds = read_table(sf_dir, "documents", columns=["doc_id", "text"])

    # pass 0: the query document's term vector (ONE row crosses)
    def pick_query(batch: pa.Table) -> pa.Table:
        if batch.num_rows == 0 or batch.num_columns == 0:
            return pa.schema([("text", pa.string())]).empty_table()
        hit = batch.filter(pc.equal(batch["doc_id"], pa.scalar(query_doc_id, pa.int64())))
        return pa.table({"text": hit["text"]})

    # bounded: the query document's row only
    qrows = ds.map_batches(
        pick_query, batch_format="pyarrow", zero_copy_batch=True
    ).take_all()
    if not qrows:
        raise ValueError(f"query_doc_id {query_doc_id} not found in documents")
    qflat, _qidx, _ = _tokens(pa.array([qrows[0]["text"]], pa.string()))
    qwords, qtf = np.unique(
        np.asarray(qflat.to_pylist(), dtype=object), return_counts=True
    )
    want_arr = pa.array([str(w) for w in qwords], pa.string())
    n_terms = len(qwords)

    stat_schema = pa.schema([("key", pa.int64()), ("n", pa.int64())])

    def stats_partial(batch: pa.Table) -> pa.Table:
        # key -1: doc count; key i >= 0: df partial of query term i
        if batch.num_rows == 0 or batch.num_columns == 0:
            return stat_schema.empty_table()
        flat, doc_idx, _ = _tokens(batch["text"])
        idx = pc.index_in(flat, value_set=want_arr)
        hit = idx.is_valid().to_numpy(zero_copy_only=False)
        ti = idx.drop_null().to_numpy(zero_copy_only=False)
        di = doc_idx[hit]
        pair = np.unique(di * n_terms + ti)  # distinct (doc, term) in batch
        df_part = np.bincount(pair % n_terms, minlength=n_terms).astype(np.int64)
        keys = np.concatenate([[-1], np.arange(n_terms, dtype=np.int64)])
        ns = np.concatenate([[batch.num_rows], df_part])
        return pa.table({"key": pa.array(keys, pa.int64()), "n": pa.array(ns, pa.int64())})

    folded = (
        ds.map_batches(stats_partial, batch_format="pyarrow", zero_copy_batch=True)
        .groupby("key")
        .aggregate(Sum("n", alias_name="n"))
        .take_all()  # bounded: query vocabulary + 1 rows
    )
    n_docs = 0
    df = np.zeros(n_terms, np.int64)
    for r in folded:
        if r["key"] == -1:
            n_docs = int(r["n"])
        else:
            df[r["key"]] = int(r["n"])
    safe_df = np.maximum(df, 1)
    idf_e3 = np.round(np.log(np.float64(n_docs) / safe_df) * 1000.0).astype(np.int64)
    w = qtf.astype(np.int64) * idf_e3 * idf_e3  # per-term weight, exact int

    cand_schema = pa.schema([("doc_id", pa.int64()), ("score", pa.int64())])

    def score_batch(batch: pa.Table, ww=w) -> pa.Table:
        if batch.num_rows == 0 or batch.num_columns == 0:
            return cand_schema.empty_table()
        flat, doc_idx, _ = _tokens(batch["text"])
        idx = pc.index_in(flat, value_set=want_arr)
        hit = idx.is_valid().to_numpy(zero_copy_only=False)
        ti = idx.drop_null().to_numpy(zero_copy_only=False)
        di = doc_idx[hit]
        scores = np.zeros(batch.num_rows, np.int64)
        np.add.at(scores, di, ww[ti])  # sum tf_d(t)*w(t): each token adds w
        ids = batch["doc_id"].to_numpy(zero_copy_only=False).astype(np.int64)
        keep = (scores > 0) & (ids != query_doc_id)
        if not keep.any():
            return cand_schema.empty_table()
        s, d = scores[keep], ids[keep]
        top = np.lexsort((d, -s))[: k]  # per-batch candidate top-k
        return pa.table(
            {"doc_id": pa.array(d[top], pa.int64()), "score": pa.array(s[top], pa.int64())}
        )

    cands = (
        ds.map_batches(score_batch, batch_format="pyarrow", zero_copy_batch=True)
        .sort(["score", "doc_id"], descending=[True, False])
        .limit(k)
        .take_all()  # bounded: k rows
    )
    return ray.data.from_arrow(
        pa.table(
            {
                "rank": pa.array(np.arange(1, len(cands) + 1, dtype=np.int64)),
                "doc_id": pa.array([int(r["doc_id"]) for r in cands], pa.int64()),
                "score": pa.array([int(r["score"]) for r in cands], pa.int64()),
            }
        )
    )


def more_like_this_tfidf_sql(query_doc_id: int = 0, k: int = 20) -> str:
    return f"""
WITH qt AS (
  SELECT word, count(*) AS tfq FROM (
    SELECT unnest(regexp_split_to_array(lower(text), '[^a-z]+')) AS word
    FROM documents WHERE doc_id = {query_doc_id}
  ) WHERE word != '' GROUP BY word
),
nn AS (SELECT count(*) AS n FROM documents),
toks AS (
  SELECT doc_id, unnest(regexp_split_to_array(lower(text), '[^a-z]+')) AS word
  FROM documents
),
tf AS (
  SELECT doc_id, word, count(*) AS tfd FROM toks
  WHERE word IN (SELECT word FROM qt) GROUP BY doc_id, word
),
df AS (SELECT word, count(*) AS df FROM tf GROUP BY word),
w AS (
  SELECT qt.word,
         qt.tfq * CAST(round(ln(CAST(nn.n AS DOUBLE) / df.df) * 1000) AS BIGINT)
                * CAST(round(ln(CAST(nn.n AS DOUBLE) / df.df) * 1000) AS BIGINT)
           AS w
  FROM qt JOIN df USING (word), nn
),
sc AS (
  SELECT tf.doc_id, CAST(sum(tf.tfd * w.w) AS BIGINT) AS score
  FROM tf JOIN w USING (word)
  WHERE tf.doc_id != {query_doc_id}
  GROUP BY tf.doc_id HAVING sum(tf.tfd * w.w) > 0
),
r AS (
  SELECT doc_id, score,
         row_number() OVER (ORDER BY score DESC, doc_id) AS rank
  FROM sc
)
SELECT rank, doc_id, score FROM r WHERE rank <= {k} ORDER BY rank
"""


# ---------------------------------------------------------------------------
# query expansion — data-driven term expansion composed with ranked search
# ---------------------------------------------------------------------------

_EXPAND_SEED = "vector"
_EXPAND_N = 2


def query_expansion_search(
    sf_dir: str, *, seed: str = _EXPAND_SEED, n_expand: int = _EXPAND_N, k: int = 20
) -> ray.data.Dataset:
    """Pseudo-relevance-style query expansion composed END-TO-END with
    ranked retrieval: the seed term's top-``n_expand`` adjacency
    collocates (most-frequent [a-z]+ bigram partners, ties to the
    lexicographically smaller word) join the query, and the expanded term
    set runs through ``search_corpus``'s exact-integer ranking.  The whole
    composition — expansion mined FROM the corpus, then searched AGAINST
    it — is one SQL statement for the oracle, so the hash certifies both
    stages and the handoff.

    Plan shape: pass 1 folds (partner, count) partials whose rows are
    pre-filtered to bigrams containing the seed (bounded by the seed's
    own adjacency degree, never the corpus bigram domain); the top-k pull
    is n_expand rows; pass 2 is the search_corpus plan verbatim."""
    from ray.data.aggregate import Sum

    seed = seed.lower()
    part_schema = pa.schema([("p", pa.string()), ("n", pa.int64())])

    def partner_partial(batch: pa.Table) -> pa.Table:
        if batch.num_rows == 0 or batch.num_columns == 0:
            return part_schema.empty_table()
        lower = pc.utf8_lower(batch["text"])
        words = pc.split_pattern_regex(lower, pattern=_TOKEN_PATTERN)
        flat = pc.list_flatten(words).combine_chunks()
        lens = pc.list_value_length(words).to_numpy(zero_copy_only=False)
        doc_idx = np.repeat(np.arange(len(lens), dtype=np.int64), lens)
        nonempty = pc.not_equal(flat, "").to_numpy(zero_copy_only=False)
        toks = flat.filter(pa.array(nonempty))
        d = doc_idx[nonempty]
        if len(d) < 2:
            return part_schema.empty_table()
        is_seed = pc.equal(toks, seed).to_numpy(zero_copy_only=False)
        same = d[:-1] == d[1:]
        tarr = toks.to_numpy(zero_copy_only=False)
        # partner = the other side of every adjacent pair containing seed
        left = same & is_seed[:-1]   # (seed, x): partner x = right word
        right = same & is_seed[1:]   # (x, seed): partner x = left word
        partners = np.concatenate([tarr[1:][left], tarr[:-1][right]])
        if len(partners) == 0:
            return part_schema.empty_table()
        uniq, cnt = np.unique(partners, return_counts=True)
        return pa.table(
            {"p": pa.array(uniq.tolist(), pa.string()),
             "n": pa.array(cnt.astype(np.int64))}
        )

    top = (
        read_table(sf_dir, "documents", columns=["doc_id", "text"])
        .map_batches(partner_partial, batch_format="pyarrow", zero_copy_batch=True)
        .groupby("p")
        .aggregate(Sum("n", alias_name="n"))
        .to_pandas()  # bounded: the seed's adjacency vocabulary
    )
    top = top[top["p"] != seed]
    top = top.sort_values(["n", "p"], ascending=[False, True]).head(n_expand)
    terms = sorted({seed, *top["p"].tolist()})
    return search_corpus(sf_dir, terms, k=k)


def query_expansion_search_sql(
    seed: str = _EXPAND_SEED, n_expand: int = _EXPAND_N, k: int = 20
) -> str:
    seed = seed.lower()
    return f"""
WITH wrds AS (SELECT doc_id, regexp_extract_all(lower(text), '[a-z]+') AS w
              FROM documents),
adj AS (SELECT w[i] AS a, w[i + 1] AS b
        FROM wrds, unnest(range(1, len(w))) AS t(i)),
pp AS (SELECT CASE WHEN a = '{seed}' THEN b ELSE a END AS p, count(*) AS n
       FROM adj WHERE a = '{seed}' OR b = '{seed}' GROUP BY 1),
topn AS (
  SELECT '{seed}' AS w
  UNION
  SELECT p FROM (SELECT p FROM pp WHERE p <> '{seed}'
                 ORDER BY n DESC, p LIMIT {n_expand})),
tok AS (SELECT doc_id, unnest(regexp_extract_all(lower(text), '[a-z]+')) AS w
        FROM documents),
td AS (SELECT DISTINCT doc_id, w FROM tok WHERE w IN (SELECT w FROM topn)),
df AS (SELECT w, count(*) AS df FROM td GROUP BY w)
SELECT td.doc_id, count(*) AS n_hits, CAST(sum(df.df) AS BIGINT) AS sum_df
FROM td JOIN df USING (w)
GROUP BY td.doc_id
ORDER BY n_hits DESC, sum_df ASC, doc_id ASC
LIMIT {k}
"""


def append_inverted_index(out_dir: str, new_docs: ray.data.Dataset) -> dict:
    """Incrementally add documents to a persisted inverted index — the
    boolean-retrieval member of the incremental-index family (bloom /
    minhash / IVF / trigram / positional / inverted share the protocol):
    ``n_buckets`` comes from the existing ``_meta.json`` (the partition
    hash can never drift), new posting rows land in the same ``bucket=N``
    partitions as extra files (never rewrites), and the lookup path
    merges per-term rows so old + new postings answer uniformly.

    Only UNPRUNED indexes accept appends: a min_df/max_df-pruned build
    drops terms per-generation, so append==rebuild would silently break
    for terms crossing the threshold only in the union — refuse instead."""
    import json as _json
    import os as _os

    meta_path = _os.path.join(out_dir, "_meta.json")
    if not _os.path.exists(meta_path):
        raise FileNotFoundError(
            f"no _meta.json in {out_dir} — build_inverted_index first"
        )
    with open(meta_path) as f:
        meta = _json.load(f)
    if meta.get("min_df", 1) != 1 or meta.get("max_df_ratio", 1.0) != 1.0:
        raise ValueError(
            "append_inverted_index: only unpruned indexes (min_df=1, "
            "max_df_ratio=1.0) can be appended — per-generation pruning "
            "diverges from a rebuild"
        )
    n_buckets = int(meta["n_buckets"])

    bucket_exchange(
        new_docs,
        _fold_postings,
        schema=_PAIRS_SCHEMA,
        out_schema=_POSTINGS_SCHEMA,
        emit=lambda b: term_doc_pairs(b, n_buckets=n_buckets),
    ).write_parquet(out_dir, partition_cols=["bucket"])
    return {"n_buckets": n_buckets, "path": out_dir}
