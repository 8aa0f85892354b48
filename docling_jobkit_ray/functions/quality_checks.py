"""Distributed data-quality constraint checker — the dbt-test / Deequ
surface: declarative constraints over the warehouse verified at scan
scale, reported as one tiny (constraint, n_checked, n_violations) table.

Constraint shapes and their distributed plans:

* row predicates (not-null / range / derived-column consistency): a pure
  counting ``map_batches`` — no exchange at all;
* FK into a SMALL dimension (customer): the dimension's key set broadcasts
  via the UDF closure, violations counted per batch;
* FK between two FACT tables (lineitem -> orders): one tagged-union
  key-bucketed co-shuffle, per-bucket presence fold — keys and row counts
  only, never payloads;
* key uniqueness (documents.doc_id): per-batch (key, n) partials, one
  groupby, violations = sum(n - 1) over duplicated keys (counts every
  extra row, matching the SQL definition).

All counts are exact int64; the synthetic corpus satisfies every
constraint, so the hash check verifies the n_checked plumbing while the
planted-violation unit tests exercise the violation paths.
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc
import ray.data

from ..exchange import bucket_exchange
from ..sources.pages import read_table


def _count_rows(ds: ray.data.Dataset, pred_violations) -> tuple[int, int]:
    """(n_checked, n_violations) from a per-batch predicate counter."""
    from ray.data.aggregate import Sum

    schema = pa.schema([("n", pa.int64()), ("bad", pa.int64())])

    def partial(batch: pa.Table) -> pa.Table:
        if batch.num_rows == 0 or batch.num_columns == 0:
            return schema.empty_table()
        bad = pred_violations(batch)
        return pa.table(
            {
                "n": pa.array([batch.num_rows], pa.int64()),
                "bad": pa.array([int(bad)], pa.int64()),
            }
        )

    agg = ds.map_batches(partial, batch_format="pyarrow", zero_copy_batch=True).aggregate(
        Sum("n"), Sum("bad")
    )
    return int(agg["sum(n)"] or 0), int(agg["sum(bad)"] or 0)


def data_quality_report(sf_dir: str) -> pa.Table:
    """Six constraints over the sf tables; output sorted by constraint
    name.  See module docstring for the per-shape plans."""
    from ray.data.aggregate import Sum

    from ..scale import bucket_count, estimate_rows

    results: dict[str, tuple[int, int]] = {}

    # --- row predicates (pure map) ---
    docs = read_table(sf_dir, "documents", columns=["text", "n_chars"])
    results["docs_nchars_consistent"] = _count_rows(
        docs,
        lambda b: pc.sum(
            pc.cast(
                pc.not_equal(
                    pc.cast(b["n_chars"], pa.int64()),
                    pc.cast(pc.utf8_length(b["text"]), pa.int64()),
                ),
                pa.int64(),
            )
        ).as_py()
        or 0,
    )
    events_v = read_table(sf_dir, "events", columns=["value"])
    results["events_value_nonneg"] = _count_rows(
        events_v,
        lambda b: pc.sum(
            pc.cast(pc.less(b["value"], pa.scalar(0.0)), pa.int64())
        ).as_py()
        or 0,
    )

    # --- FK into a small broadcast dimension ---
    import pyarrow.parquet as pq

    cust_keys = pa.array(
        np.unique(
            pq.read_table(
                f"{sf_dir}/customer.parquet", columns=["c_custkey"]
            )["c_custkey"].to_numpy()
        ).astype(np.int64),
        pa.int64(),
    )
    for name, table, col in (
        ("fk_orders_customer", "orders", "o_custkey"),
        ("fk_events_customer", "events", "user_id"),
    ):
        ds = read_table(sf_dir, table, columns=[col])
        results[name] = _count_rows(
            ds,
            lambda b, c=col: pc.sum(
                pc.cast(
                    pc.invert(
                        pc.is_in(pc.cast(b[c], pa.int64()), value_set=cust_keys)
                    ),
                    pa.int64(),
                )
            ).as_py()
            or 0,
        )

    # --- key uniqueness (one groupby over per-batch partials) ---
    dk = read_table(sf_dir, "documents", columns=["doc_id"])

    def key_partial(batch: pa.Table) -> pa.Table:
        if batch.num_rows == 0 or batch.num_columns == 0:
            return pa.schema([("k", pa.int64()), ("n", pa.int64())]).empty_table()
        return (
            pa.table({"k": pc.cast(batch["doc_id"], pa.int64())})
            .group_by("k")
            .aggregate([([], "count_all")])
            .rename_columns(["k", "n"])
        )

    kc = (
        dk.map_batches(key_partial, batch_format="pyarrow", zero_copy_batch=True)
        .groupby("k")
        .aggregate(Sum("n", alias_name="n"))
    )

    def dup_partial(batch: pa.Table) -> pa.Table:
        if batch.num_rows == 0 or batch.num_columns == 0:
            return pa.schema([("n", pa.int64()), ("bad", pa.int64())]).empty_table()
        n = pc.sum(batch["n"]).as_py() or 0
        bad = pc.sum(
            pc.subtract(batch["n"], pa.scalar(1, pa.int64()))
        ).as_py() or 0
        return pa.table(
            {"n": pa.array([n], pa.int64()), "bad": pa.array([int(bad)], pa.int64())}
        )

    agg = kc.map_batches(dup_partial, batch_format="pyarrow", zero_copy_batch=True).aggregate(
        Sum("n"), Sum("bad")
    )
    results["unique_doc_id"] = (int(agg["sum(n)"] or 0), int(agg["sum(bad)"] or 0))

    # --- fact-to-fact FK via ONE tagged-union bucketed co-shuffle ---
    n_b = bucket_count(estimate_rows(sf_dir, "lineitem"), min_buckets=64)
    mask = pa.scalar(n_b - 1, pa.int64())
    union_schema = pa.schema(
        [("k", pa.int64()), ("side", pa.int64()), ("n", pa.int64()), ("bucket", pa.int64())]
    )

    def side_emit(col: str, side: int):
        def fn(batch: pa.Table) -> pa.Table:
            if batch.num_rows == 0 or batch.num_columns == 0:
                return union_schema.empty_table()
            t = (
                pa.table({"k": pc.cast(batch[col], pa.int64())})
                .group_by("k")
                .aggregate([([], "count_all")])
                .rename_columns(["k", "n"])
            )
            t = t.append_column(
                "side", pa.nulls(t.num_rows, pa.int64()).fill_null(side)
            )
            return pa.table(
                {
                    "k": t["k"],
                    "side": t["side"],
                    "n": t["n"],
                    "bucket": pc.bit_wise_and(t["k"], mask),
                }
            )

        return fn

    li = read_table(sf_dir, "lineitem", columns=["l_orderkey"]).map_batches(
        side_emit("l_orderkey", 0), batch_format="pyarrow", zero_copy_batch=True
    )
    okeys = read_table(sf_dir, "orders", columns=["o_orderkey"]).map_batches(
        side_emit("o_orderkey", 1), batch_format="pyarrow", zero_copy_batch=True
    )

    count_schema = pa.schema([("n", pa.int64()), ("bad", pa.int64())])

    def orphan_fold(group: pa.Table) -> pa.Table:
        df = group.to_pandas()
        per = df.pivot_table(index="k", columns="side", values="n", aggfunc="sum").fillna(0)
        li_n = per[0] if 0 in per.columns else pd.Series(0, index=per.index)
        has_order = (per[1] if 1 in per.columns else pd.Series(0, index=per.index)) > 0
        checked = int(li_n.sum())
        bad = int(li_n[~has_order].sum())
        return pa.table(
            {"n": pa.array([checked], pa.int64()), "bad": pa.array([bad], pa.int64())}
        )

    agg = (
        bucket_exchange(
            li.union(okeys), orphan_fold, schema=union_schema, out_schema=count_schema
        )
        .aggregate(Sum("n"), Sum("bad"))
    )
    results["fk_lineitem_orders"] = (int(agg["sum(n)"] or 0), int(agg["sum(bad)"] or 0))

    names = sorted(results)
    return pa.table(
        {
            "check_name": pa.array(names, pa.string()),
            "n_checked": pa.array([results[n][0] for n in names], pa.int64()),
            "n_violations": pa.array([results[n][1] for n in names], pa.int64()),
        }
    )


DATA_QUALITY_REPORT_SQL = """
SELECT * FROM (
  SELECT 'docs_nchars_consistent' AS check_name,
         (SELECT count(*) FROM documents) AS n_checked,
         (SELECT count(*) FROM documents WHERE n_chars <> length(text)) AS n_violations
  UNION ALL
  SELECT 'events_value_nonneg',
         (SELECT count(*) FROM events),
         (SELECT count(*) FROM events WHERE value < 0)
  UNION ALL
  SELECT 'fk_events_customer',
         (SELECT count(*) FROM events),
         (SELECT count(*) FROM events e
          WHERE NOT EXISTS (SELECT 1 FROM customer c WHERE c.c_custkey = e.user_id))
  UNION ALL
  SELECT 'fk_lineitem_orders',
         (SELECT count(*) FROM lineitem),
         (SELECT count(*) FROM lineitem l
          WHERE NOT EXISTS (SELECT 1 FROM orders o WHERE o.o_orderkey = l.l_orderkey))
  UNION ALL
  SELECT 'fk_orders_customer',
         (SELECT count(*) FROM orders),
         (SELECT count(*) FROM orders o
          WHERE NOT EXISTS (SELECT 1 FROM customer c WHERE c.c_custkey = o.o_custkey))
  UNION ALL
  SELECT 'unique_doc_id',
         (SELECT count(*) FROM documents),
         (SELECT count(*) - count(DISTINCT doc_id) FROM documents)
)
ORDER BY check_name
"""


# ---------------------------------------------------------------------------
# k-anonymity audit (privacy-risk surface of the quality family)
# ---------------------------------------------------------------------------

_KANON_K = 5
_KANON_LEN_BUCKET = 256


def k_anonymity_report(
    sf_dir: str, *, k: int = _KANON_K, len_bucket: int = _KANON_LEN_BUCKET
) -> ray.data.Dataset:
    """k-anonymity audit over quasi-identifiers: documents grouped by
    (lang, source, n_chars // 256) — the release-audit question "which
    attribute combinations are rare enough to re-identify?".  One row per
    equivalence class with its exact size and an ``at_risk = size < k``
    flag (reporting every class, not just violators, keeps the result
    non-vacuous at any corpus scale — a 10x corpus legitimately clears a
    fixed k, and an all-filtered Dataset would surface as zero blocks
    with no schema).

    Plan shape: per-batch partial counts collapse every batch to at most
    one row per equivalence class BEFORE the exchange, so the string-keyed
    groupby (hazardous at high key cardinality, CLAUDE.md) only ever
    shuffles ``blocks x |classes|`` partial rows — the class domain is the
    product of small attribute domains, not the corpus.  A vectorized
    ``size < k`` filter finishes.
    """
    from ray.data.aggregate import Sum

    out_schema = pa.schema(
        [
            ("lang", pa.string()),
            ("source", pa.string()),
            ("len_bucket", pa.int64()),
            ("class_size", pa.int64()),
            ("at_risk", pa.int64()),
        ]
    )

    ds = read_table(sf_dir, "documents", columns=["lang", "source", "n_chars"])

    def partial(batch: pa.Table) -> pa.Table:
        if batch.num_rows == 0 or batch.num_columns == 0:
            return pa.schema(
                [
                    ("lang", pa.string()),
                    ("source", pa.string()),
                    ("len_bucket", pa.int64()),
                    ("n", pa.int64()),
                ]
            ).empty_table()
        lb = pc.divide(
            pc.cast(batch["n_chars"], pa.int64()),
            pa.scalar(len_bucket, pa.int64()),
        )  # nonnegative: floor == trunc
        t = pa.table(
            {
                "lang": batch["lang"],
                "source": batch["source"],
                "len_bucket": pc.cast(lb, pa.int64()),
                "n": pa.array([1] * batch.num_rows, pa.int64()),
            }
        )
        folded = t.group_by(["lang", "source", "len_bucket"]).aggregate(
            [("n", "sum")]
        )
        return folded.rename_columns(["lang", "source", "len_bucket", "n"])

    def finish(batch: pa.Table) -> pa.Table:
        if batch.num_rows == 0 or batch.num_columns == 0:
            return out_schema.empty_table()
        size = pc.cast(batch["n"], pa.int64())
        return pa.table(
            {
                "lang": batch["lang"],
                "source": batch["source"],
                "len_bucket": pc.cast(batch["len_bucket"], pa.int64()),
                "class_size": size,
                "at_risk": pc.cast(
                    pc.less(size, pa.scalar(k, pa.int64())), pa.int64()
                ),
            }
        )

    def pin_schema(batch: pa.Table) -> pa.Table:
        # a legitimately-empty result (every class >= k) can come out of
        # the sort as column-less blocks (CLAUDE.md empty-block hazard) —
        # re-pin the declared schema so consumers always see the columns
        if batch.num_rows == 0 or batch.num_columns == 0:
            return out_schema.empty_table()
        return batch.select(out_schema.names).cast(out_schema)

    return (
        ds.map_batches(partial, batch_format="pyarrow", zero_copy_batch=True)
        .groupby(["lang", "source", "len_bucket"])
        .aggregate(Sum(on="n", alias_name="n"))
        .map_batches(finish, batch_format="pyarrow")
        .sort(["lang", "source", "len_bucket"])
        .map_batches(pin_schema, batch_format="pyarrow")
    )


def k_anonymity_report_sql(
    k: int = _KANON_K, len_bucket: int = _KANON_LEN_BUCKET
) -> str:
    return f"""
SELECT lang, source,
       n_chars // {len_bucket} AS len_bucket,
       count(*) AS class_size,
       CAST(count(*) < {k} AS BIGINT) AS at_risk
FROM documents
GROUP BY lang, source, len_bucket
ORDER BY lang, source, len_bucket
"""


# ---------------------------------------------------------------------------
# l-diversity audit — the sensitive-attribute sibling of k-anonymity
# ---------------------------------------------------------------------------

_LDIV_L = 3


def l_diversity_report(
    sf_dir: str, *, l_threshold: int = _LDIV_L, len_bucket: int = _KANON_LEN_BUCKET
) -> ray.data.Dataset:
    """l-diversity audit: for every quasi-identifier class
    (lang, n_chars // 256), how many DISTINCT values of the sensitive
    attribute (source) appear?  A class that k-anonymity clears can still
    leak — if all its members share one source, membership reveals the
    source exactly.  One row per class with its size, distinct-sensitive
    count, and ``at_risk = distinct < l`` (every class reported, not just
    violators — the all-filtered empty-Dataset schema hazard).

    Plan shape: per-batch fold collapses to at most one row per
    (class x source) triple BEFORE the exchange; ONE groupby sums the
    triples; the surviving table is bounded by the attribute-domain
    product (|langs| x |len buckets| x |sources|), never the corpus, so
    the class-level rollup finishes on a single block via repartition(1)
    (map->map fusion never coalesces — the exchange is required).
    """
    from ray.data.aggregate import Sum

    from ..sources.pages import read_table

    out_schema = pa.schema(
        [
            ("lang", pa.string()),
            ("len_bucket", pa.int64()),
            ("class_size", pa.int64()),
            ("n_sources", pa.int64()),
            ("at_risk", pa.int64()),
        ]
    )
    part_schema = pa.schema(
        [
            ("lang", pa.string()),
            ("len_bucket", pa.int64()),
            ("source", pa.string()),
            ("n", pa.int64()),
        ]
    )

    ds = read_table(sf_dir, "documents", columns=["lang", "source", "n_chars"])

    def partial(batch: pa.Table) -> pa.Table:
        if batch.num_rows == 0 or batch.num_columns == 0:
            return part_schema.empty_table()
        lb = pc.divide(
            pc.cast(batch["n_chars"], pa.int64()),
            pa.scalar(len_bucket, pa.int64()),
        )  # nonnegative: floor == trunc
        t = pa.table(
            {
                "lang": batch["lang"],
                "len_bucket": pc.cast(lb, pa.int64()),
                "source": batch["source"],
            }
        )
        folded = (
            t.group_by(["lang", "len_bucket", "source"])
            .aggregate([([], "count_all")])
            .rename_columns(["lang", "len_bucket", "source", "n"])
        )
        return folded.select(part_schema.names).cast(part_schema)

    def finish(batch: pa.Table) -> pa.Table:
        if batch.num_rows == 0 or batch.num_columns == 0:
            return out_schema.empty_table()
        batch = batch.select(part_schema.names).cast(part_schema)
        rolled = (
            batch.group_by(["lang", "len_bucket"])
            .aggregate([("n", "sum"), ([], "count_all")])
            .rename_columns(["lang", "len_bucket", "class_size", "n_sources"])
        )
        size = pc.cast(rolled["class_size"], pa.int64())
        nsrc = pc.cast(rolled["n_sources"], pa.int64())
        out = pa.table(
            {
                "lang": rolled["lang"],
                "len_bucket": pc.cast(rolled["len_bucket"], pa.int64()),
                "class_size": size,
                "n_sources": nsrc,
                "at_risk": pc.cast(
                    pc.less(nsrc, pa.scalar(l_threshold, pa.int64())), pa.int64()
                ),
            }
        )
        return out

    return (
        ds.map_batches(partial, batch_format="pyarrow", zero_copy_batch=True)
        .groupby(["lang", "len_bucket", "source"])
        .aggregate(Sum(on="n", alias_name="n"))
        .repartition(1)
        .map_batches(finish, batch_format="pyarrow")
        .sort(["lang", "len_bucket"])
    )


def l_diversity_report_sql(
    l_threshold: int = _LDIV_L, len_bucket: int = _KANON_LEN_BUCKET
) -> str:
    return f"""
SELECT lang, n_chars // {len_bucket} AS len_bucket,
       count(*) AS class_size,
       count(DISTINCT source) AS n_sources,
       CAST(count(DISTINCT source) < {l_threshold} AS BIGINT) AS at_risk
FROM documents
GROUP BY lang, len_bucket
ORDER BY lang, len_bucket
"""


# ---------------------------------------------------------------------------
# t-closeness audit — the distributional member of the privacy triad
# ---------------------------------------------------------------------------

_TCLOSE_T_PPM = 400_000  # classes whose EMD from the global mix exceeds 0.4


def t_closeness_report(
    sf_dir: str,
    *,
    t_ppm: int = _TCLOSE_T_PPM,
    len_bucket: int = _KANON_LEN_BUCKET,
) -> ray.data.Dataset:
    """t-closeness audit (Li, Li & Venkatasubramanian 2007), completing the
    k-anonymity / l-diversity privacy triad: for every quasi-identifier
    class (lang, n_chars // 256), the Earth Mover's Distance between the
    class's sensitive-attribute (source) distribution and the GLOBAL
    source distribution.  An l-diverse class can still leak — if 95% of
    its members share one source while the corpus is uniform, membership
    shifts an adversary's posterior massively; t-closeness bounds that
    shift.  For a categorical sensitive attribute under the uniform ground
    metric, EMD = total-variation distance = 0.5 * sum_i |v_i - s_i|.

    Exactness: with class counts c_i (n = sum c_i) and global counts g_i
    (N = sum g_i), 0.5 * sum|c_i/n - g_i/N| = sum|c_i*N - g_i*n| / (2*n*N)
    — an exact rational quantized ONCE per class by floor division to ppm
    (all terms non-negative, so floor == truncate in both engines).
    ``c_i*N*1e6`` overflows int64 at warehouse scale, so the bounded
    finish runs in PYTHON INTS; the oracle mirrors in HUGEINT.  Absent
    (class, source) combinations contribute |0 - g_i*n| — the grid join,
    NOT the observed rows, defines the sum (same discipline as the
    chi-square grid).

    Plan shape: identical to ``l_diversity_report`` — the per-batch fold
    collapses each batch to at most one row per (class x source) triple
    before the exchange; the folded table is bounded by the
    attribute-domain product, so the EMD finish runs on ONE block after
    ``repartition(1)`` (the exchange is required: map->map fusion never
    coalesces blocks).
    """
    from ray.data.aggregate import Sum

    from ..sources.pages import read_table

    out_schema = pa.schema(
        [
            ("lang", pa.string()),
            ("len_bucket", pa.int64()),
            ("class_size", pa.int64()),
            ("emd_ppm", pa.int64()),
            ("at_risk", pa.int64()),
        ]
    )
    part_schema = pa.schema(
        [
            ("lang", pa.string()),
            ("len_bucket", pa.int64()),
            ("source", pa.string()),
            ("n", pa.int64()),
        ]
    )

    ds = read_table(sf_dir, "documents", columns=["lang", "source", "n_chars"])

    def partial(batch: pa.Table) -> pa.Table:
        if batch.num_rows == 0 or batch.num_columns == 0:
            return part_schema.empty_table()
        lb = pc.divide(
            pc.cast(batch["n_chars"], pa.int64()),
            pa.scalar(len_bucket, pa.int64()),
        )  # nonnegative: floor == trunc
        t = pa.table(
            {
                "lang": batch["lang"],
                "len_bucket": pc.cast(lb, pa.int64()),
                "source": batch["source"],
            }
        )
        folded = (
            t.group_by(["lang", "len_bucket", "source"])
            .aggregate([([], "count_all")])
            .rename_columns(["lang", "len_bucket", "source", "n"])
        )
        return folded.select(part_schema.names).cast(part_schema)

    def finish(batch: pa.Table) -> pa.Table:
        if batch.num_rows == 0 or batch.num_columns == 0:
            return out_schema.empty_table()
        batch = batch.select(part_schema.names).cast(part_schema)
        langs = batch["lang"].to_pylist()
        lbs = batch["len_bucket"].to_pylist()
        srcs = batch["source"].to_pylist()
        ns = batch["n"].to_pylist()
        g_tot: dict = {}
        cls: dict = {}
        for l, b, s, n in zip(langs, lbs, srcs, ns):
            g_tot[s] = g_tot.get(s, 0) + int(n)
            cls.setdefault((l, int(b)), {})[s] = int(n)
        n_global = sum(g_tot.values())
        out = {"lang": [], "len_bucket": [], "class_size": [], "emd_ppm": [], "at_risk": []}
        for (l, b) in sorted(cls):
            counts = cls[(l, b)]
            n_cls = sum(counts.values())
            num = sum(
                abs(counts.get(s, 0) * n_global - g * n_cls)
                for s, g in g_tot.items()
            )
            emd = num * 1_000_000 // (2 * n_cls * n_global)
            out["lang"].append(l)
            out["len_bucket"].append(b)
            out["class_size"].append(n_cls)
            out["emd_ppm"].append(emd)
            out["at_risk"].append(int(emd > t_ppm))
        return pa.table(
            {
                "lang": pa.array(out["lang"], pa.string()),
                "len_bucket": pa.array(out["len_bucket"], pa.int64()),
                "class_size": pa.array(out["class_size"], pa.int64()),
                "emd_ppm": pa.array(out["emd_ppm"], pa.int64()),
                "at_risk": pa.array(out["at_risk"], pa.int64()),
            }
        )

    return (
        ds.map_batches(partial, batch_format="pyarrow", zero_copy_batch=True)
        .groupby(["lang", "len_bucket", "source"])
        .aggregate(Sum(on="n", alias_name="n"))
        .repartition(1)
        .map_batches(finish, batch_format="pyarrow")
        .sort(["lang", "len_bucket"])
    )


def t_closeness_report_sql(
    t_ppm: int = _TCLOSE_T_PPM, len_bucket: int = _KANON_LEN_BUCKET
) -> str:
    return f"""
WITH obs AS (
  SELECT lang, n_chars // {len_bucket} AS len_bucket, source, count(*) AS c
  FROM documents GROUP BY 1, 2, 3),
g AS (SELECT source, sum(c) AS gn FROM obs GROUP BY source),
tot AS (SELECT sum(gn) AS n FROM g),
cls AS (SELECT lang, len_bucket, sum(c) AS nc FROM obs GROUP BY 1, 2),
grid AS (
  SELECT cls.lang, cls.len_bucket, cls.nc, g.gn, tot.n,
         coalesce(obs.c, 0) AS c
  FROM cls CROSS JOIN g CROSS JOIN tot
  LEFT JOIN obs ON obs.lang = cls.lang AND obs.len_bucket = cls.len_bucket
              AND obs.source = g.source)
SELECT lang, len_bucket, CAST(nc AS BIGINT) AS class_size,
       CAST(sum(abs(CAST(c AS HUGEINT) * n - CAST(gn AS HUGEINT) * nc))
            * 1000000 // (2 * CAST(nc AS HUGEINT) * n) AS BIGINT) AS emd_ppm,
       CAST(sum(abs(CAST(c AS HUGEINT) * n - CAST(gn AS HUGEINT) * nc))
            * 1000000 // (2 * CAST(nc AS HUGEINT) * n) > {t_ppm} AS BIGINT)
         AS at_risk
FROM grid GROUP BY lang, len_bucket, nc, n
ORDER BY lang, len_bucket
"""


# ---------------------------------------------------------------------------
# shuffle-key skew report (operational pre-flight for per-key exchanges)
# ---------------------------------------------------------------------------

_SKEW_BUCKETS = 64


def key_skew_report(sf_dir: str, *, n_buckets: int = _SKEW_BUCKETS) -> pa.Table:
    """Shuffle-key skew pre-flight: hash the orders custkey domain into
    ``n_buckets`` partitions and report the load distribution — max,
    min, and the max-to-mean ratio in ppm.  This is the question every
    per-key exchange in this repo implicitly bets on ("will one bucket
    get 10x the rows?"), surfaced as a cheap diagnostic a user runs
    BEFORE picking a partition key for a 100 TB job.

    Exactness: pure integer counting; skew_ppm = max * n_buckets * 1e6 //
    total (exact rational, all positive).  Bucket = custkey % n_buckets
    (modulo, not bit-and, so the expression is portable SQL).

    Plan shape: ONE bounded groupby-sum fold (n_buckets rows).
    """
    from ray.data.aggregate import Sum

    from ..sources.pages import read_table

    ds = read_table(sf_dir, "orders", columns=["o_custkey"])

    part_schema = pa.schema([("bucket", pa.int64()), ("c", pa.int64())])

    def partial(batch: pa.Table) -> pa.Table:
        if batch.num_rows == 0 or batch.num_columns == 0:
            return part_schema.empty_table()
        b = pc.cast(
            pc.bit_wise_and(
                pc.cast(batch["o_custkey"], pa.int64()),
                pa.scalar(n_buckets - 1, pa.int64()),
            )
            if (n_buckets & (n_buckets - 1)) == 0
            else pc.subtract(
                pc.cast(batch["o_custkey"], pa.int64()),
                pc.multiply(
                    pc.divide(
                        pc.cast(batch["o_custkey"], pa.int64()),
                        pa.scalar(n_buckets, pa.int64()),
                    ),
                    pa.scalar(n_buckets, pa.int64()),
                ),
            ),
            pa.int64(),
        )
        return (
            pa.table({"bucket": b})
            .group_by("bucket")
            .aggregate([([], "count_all")])
            .rename_columns(["bucket", "c"])
        )

    rows = (
        ds.map_batches(partial, batch_format="pyarrow", zero_copy_batch=True)
        .groupby("bucket")
        .aggregate(Sum(on="c", alias_name="c"))
        .take_all()  # bounded: n_buckets rows
    )
    counts = {int(r["bucket"]): int(r["c"]) for r in rows}
    total = sum(counts.values())
    mx = max(counts.values()) if counts else 0
    mn = min(counts.values()) if counts else 0
    return pa.table(
        {
            "n_buckets": pa.array([n_buckets], pa.int64()),
            "n_nonempty": pa.array([len(counts)], pa.int64()),
            "total_rows": pa.array([total], pa.int64()),
            "max_rows": pa.array([mx], pa.int64()),
            "min_rows": pa.array([mn], pa.int64()),
            "skew_ppm": pa.array(
                [mx * n_buckets * 1_000_000 // total if total else 0], pa.int64()
            ),
        }
    )


def key_skew_report_sql(n_buckets: int = _SKEW_BUCKETS) -> str:
    return f"""
WITH b AS (
  SELECT o_custkey % {n_buckets} AS bucket, count(*) AS c
  FROM orders GROUP BY 1)
SELECT CAST({n_buckets} AS BIGINT) AS n_buckets,
       count(*) AS n_nonempty,
       CAST(sum(c) AS BIGINT) AS total_rows,
       CAST(max(c) AS BIGINT) AS max_rows,
       CAST(min(c) AS BIGINT) AS min_rows,
       CAST(max(c) * {n_buckets} * 1000000 // sum(c) AS BIGINT) AS skew_ppm
FROM b
"""


# ---------------------------------------------------------------------------
# k-anonymity generalization ladder (Samarati) — how coarse must we go?
# ---------------------------------------------------------------------------

_KGEN_BASE = 64  # finest length-bucket width
_KGEN_LEVELS = 9  # widths 64 << 0 .. 64 << 8


def k_anonymize_generalize(
    sf_dir: str, *, k: int = 10, levels: int = _KGEN_LEVELS
) -> pa.Table:
    """The decision table behind k-anonymity REPAIR (Samarati's
    generalization ladder): for each generalization level L of the numeric
    quasi-identifier (length bucket width = 64 * 2^L; lang/source stay),
    the class count, smallest class, violating-class count and rows at
    risk — and a ``chosen`` flag on the MINIMAL level that satisfies
    k-anonymity.  Beyond the length ladder the lattice continues the way
    Samarati's does: level ``levels`` suppresses length entirely
    (classes = lang x source), ``levels+1`` also suppresses source,
    ``levels+2`` suppresses everything (one class = the corpus), so a
    satisfying level always exists once the corpus itself has >= k rows.

    Exactness trick: widths are a geometric ladder over the finest width,
    so every level derives from the LEVEL-0 class histogram by integer
    shifts (``(n // 64) >> L == n // (64 << L)`` — floor-of-floor
    composition); ONE exchange of per-batch class partials feeds all
    levels, and the finish runs on the bounded class table (|langs| x
    |sources| x max_chars/64 rows, never the corpus)."""
    from ray.data.aggregate import Sum

    part_schema = pa.schema(
        [
            ("lang", pa.string()),
            ("source", pa.string()),
            ("b0", pa.int64()),
            ("n", pa.int64()),
        ]
    )

    def partial(batch: pa.Table) -> pa.Table:
        if batch.num_rows == 0 or batch.num_columns == 0:
            return part_schema.empty_table()
        b0 = pc.divide(
            pc.cast(batch["n_chars"], pa.int64()), pa.scalar(_KGEN_BASE, pa.int64())
        )
        t = pa.table(
            {
                "lang": batch["lang"],
                "source": batch["source"],
                "b0": pc.cast(b0, pa.int64()),
                "n": pa.array(np.ones(batch.num_rows, np.int64)),
            }
        )
        return (
            t.group_by(["lang", "source", "b0"])
            .aggregate([("n", "sum")])
            .rename_columns(["lang", "source", "b0", "n"])
        )

    classes = (
        read_table(sf_dir, "documents", columns=["lang", "source", "n_chars"])
        .map_batches(partial, batch_format="pyarrow", zero_copy_batch=True)
        .groupby(["lang", "source", "b0"])
        .aggregate(Sum("n", alias_name="n"))
        .take_all()  # bounded: the finest class domain, not the corpus
    )
    ls = np.array(
        [f"{r['lang']}\x00{r['source']}" for r in classes], dtype=object
    )
    _, code = np.unique(ls, return_inverse=True)
    b0 = np.array([int(r["b0"]) for r in classes], np.int64)
    n = np.array([int(r["n"]) for r in classes], np.int64)

    lang_only = np.array([str(r["lang"]) for r in classes], dtype=object)
    _, lcode = np.unique(lang_only, return_inverse=True)

    rows = {
        "level": [], "width": [], "n_classes": [], "min_class_size": [],
        "n_violating": [], "rows_at_risk": [],
    }

    def add_level(lv: int, width: int, key: np.ndarray) -> None:
        kk, inv = np.unique(key, return_inverse=True)
        cn = np.zeros(len(kk), np.int64)
        np.add.at(cn, inv, n)
        viol = cn < k
        rows["level"].append(lv)
        rows["width"].append(width)
        rows["n_classes"].append(len(kk))
        rows["min_class_size"].append(int(cn.min()) if len(cn) else 0)
        rows["n_violating"].append(int(viol.sum()))
        rows["rows_at_risk"].append(int(cn[viol].sum()))

    for lv in range(levels):
        add_level(lv, _KGEN_BASE << lv, code.astype(np.int64) * (1 << 40) + (b0 >> lv))
    # lattice tail: suppress length, then source, then everything
    add_level(levels, 0, code.astype(np.int64))
    add_level(levels + 1, 0, lcode.astype(np.int64))
    add_level(levels + 2, 0, np.zeros(len(n), np.int64))
    ok = [lv for lv, v in zip(rows["level"], rows["n_violating"]) if v == 0]
    chosen = min(ok) if ok else -1
    return pa.table(
        {
            "level": pa.array(rows["level"], pa.int64()),
            "width": pa.array(rows["width"], pa.int64()),
            "n_classes": pa.array(rows["n_classes"], pa.int64()),
            "min_class_size": pa.array(rows["min_class_size"], pa.int64()),
            "n_violating": pa.array(rows["n_violating"], pa.int64()),
            "rows_at_risk": pa.array(rows["rows_at_risk"], pa.int64()),
            "chosen": pa.array(
                [int(lv == chosen) for lv in rows["level"]], pa.int64()
            ),
        }
    )


def k_anonymize_generalize_sql(k: int = 10, levels: int = _KGEN_LEVELS) -> str:
    return f"""
WITH c0 AS (
  SELECT lang, source, n_chars // {_KGEN_BASE} AS b0, count(*) AS n
  FROM documents GROUP BY 1, 2, 3),
lv AS (SELECT unnest(generate_series(0, {levels - 1})) AS l),
cl AS (
  SELECT lv.l, c0.lang, c0.source, c0.b0 >> lv.l AS b, sum(c0.n) AS cn
  FROM c0 CROSS JOIN lv GROUP BY 1, 2, 3, 4),
tail AS (
  SELECT {levels} AS l, lang, source, 0 AS b, sum(n) AS cn
  FROM c0 GROUP BY 2, 3
  UNION ALL
  SELECT {levels + 1}, lang, '*', 0, sum(n) FROM c0 GROUP BY 2
  UNION ALL
  SELECT {levels + 2}, '*', '*', 0, sum(n) FROM c0),
allcl AS (SELECT l, cn FROM cl UNION ALL SELECT l, cn FROM tail),
agg AS (
  SELECT l AS level,
         CASE WHEN l < {levels} THEN {_KGEN_BASE} * (1 << l) ELSE 0 END AS width,
         count(*) AS n_classes, min(cn) AS min_class_size,
         sum(CASE WHEN cn < {k} THEN 1 ELSE 0 END) AS n_violating,
         sum(CASE WHEN cn < {k} THEN cn ELSE 0 END) AS rows_at_risk
  FROM allcl GROUP BY l),
ch AS (SELECT min(level) AS lmin FROM agg WHERE n_violating = 0)
SELECT level, CAST(width AS BIGINT) AS width,
       CAST(n_classes AS BIGINT) AS n_classes,
       CAST(min_class_size AS BIGINT) AS min_class_size,
       CAST(n_violating AS BIGINT) AS n_violating,
       CAST(rows_at_risk AS BIGINT) AS rows_at_risk,
       CAST(level = coalesce((SELECT lmin FROM ch), -1) AS BIGINT) AS chosen
FROM agg ORDER BY level
"""
