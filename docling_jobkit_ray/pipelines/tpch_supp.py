"""Supplementary TPC-H plan shapes over the driver testdata tables.

Round-4 widening of the relational surface (SURVEY.md §2.6-2.8): eleven more
TPC-H-derived queries, each exercising a distributed plan shape the existing
set does not cover:

- q2  : argmin-per-group over a derived distinct-pair set (min-balance
        supplier per part; partsupp is absent, so supplying pairs are
        derived from lineitem — the standard adaptation).
- q7  : two-sided dimension tagging + fact-fact bucketed join + cross-pair
        filter (volume shipping between two REGIONS; the driver's synthetic
        supplier table is too small at sf0.001 for nation-level pairs).
- q8  : market-share ratio — two conditional sums through one join exchange.
- q9  : multi-dimension broadcast tag + (nation, year) grouped profit.
- q11 : global-fraction threshold (scalar subquery over the same aggregate).
- q15 : global-max threshold (top supplier; ties all kept).
- q16 : count-DISTINCT-suppliers per part attribute triple, via a
        supplier-bucketed exchange where per-bucket distinct IS global.
- q17 : correlated per-group average threshold (small-quantity revenue).
- q19 : disjunctive multi-branch predicate join (OR of three conjunctions).
- q20 : nested per-group aggregate threshold (suppliers shipping > 2x their
        fair share of a part; partsupp availqty absent).
- q21 : EXISTS + NOT EXISTS against the same fact (sole returning supplier
        on multi-supplier finalized orders; "late" adapted to returnflag).

Money arithmetic follows the repo rule (CLAUDE.md): per-row quantize to
int64 cents, exact integer sums, descale once at the end — mirrored verbatim
in each oracle so cross-engine float accumulation order cannot skew sums.

Reference parity: the reference (docling-jobkit) has no relational engine;
these queries document the Ray-Data-native shapes a user would otherwise
express in an external warehouse (SURVEY.md §2.6-2.8 mapping).
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import ray.data

from ..exchange import bucket_exchange
from ..sources.pages import read_table
from .relational import _broadcast_table, _lookup, _pin_timestamp_us, _ts, _widen


def _cents(col) -> pa.ChunkedArray:
    """Exact int64 cents of a currency double column."""
    return pc.cast(pc.round(pc.multiply(col, pa.scalar(100.0))), pa.int64())


def _rev_c4(price, disc) -> pa.ChunkedArray:
    """price * (1 - discount) in exact 1e-4 currency units (cents x cents)."""
    return pc.multiply(
        _cents(price), pc.subtract(pa.scalar(100, pa.int64()), _cents(disc))
    )


def _region_suppkeys(sf_dir: str, r_name: str) -> pa.Array:
    """Supplier keys whose nation sits in ``r_name`` (broadcast small side).

    Scale note: this ships O(|suppliers in region|) int64 keys in the UDF
    closure — the same filtered-dimension broadcast bound q3 uses for
    BUILDING custkeys.  At TPC-H scale supplier is the smallest sf-scaled
    table (1/1000 of lineitem rows); the is_in probe stays vectorized.
    """
    nation = _broadcast_table(sf_dir, "nation", ["n_nationkey", "n_regionkey"])
    region = _broadcast_table(sf_dir, "region", ["r_regionkey", "r_name"])
    rkey = region.filter(pc.equal(region["r_name"], r_name))["r_regionkey"]
    nkeys = nation.filter(pc.is_in(nation["n_regionkey"], value_set=rkey.combine_chunks()))[
        "n_nationkey"
    ].combine_chunks()
    sup = _broadcast_table(sf_dir, "supplier", ["s_suppkey", "s_nationkey"])
    return sup.filter(pc.is_in(sup["s_nationkey"], value_set=nkeys))[
        "s_suppkey"
    ].combine_chunks()


def _region_custkeys(sf_dir: str, r_name: str) -> pa.Array:
    nation = _broadcast_table(sf_dir, "nation", ["n_nationkey", "n_regionkey"])
    region = _broadcast_table(sf_dir, "region", ["r_regionkey", "r_name"])
    rkey = region.filter(pc.equal(region["r_name"], r_name))["r_regionkey"]
    nkeys = nation.filter(pc.is_in(nation["n_regionkey"], value_set=rkey.combine_chunks()))[
        "n_nationkey"
    ].combine_chunks()
    cust = _broadcast_table(sf_dir, "customer", ["c_custkey", "c_nationkey"])
    return cust.filter(
        pc.is_in(pc.cast(cust["c_nationkey"], pa.int32()), value_set=pc.cast(nkeys, pa.int32()))
    )["c_custkey"].combine_chunks()


def _lineitem_buckets(sf_dir: str, *, min_buckets: int = 64) -> int:
    from ..scale import bucket_count, estimate_rows

    return bucket_count(estimate_rows(sf_dir, "lineitem"), min_buckets=min_buckets)


def _order_buckets(sf_dir: str, *, min_buckets: int = 64) -> int:
    from ..scale import bucket_count, estimate_rows

    return bucket_count(estimate_rows(sf_dir, "orders"), min_buckets=min_buckets)


def _batch_distinct_pairs(batch: pa.Table) -> pa.Table:
    """Per-batch DISTINCT (l_partkey, l_suppkey) — the partial step of a
    distributed pair-dedup (combiner before the shuffle)."""
    return (
        batch.select(["l_partkey", "l_suppkey"])
        .group_by(["l_partkey", "l_suppkey"])
        .aggregate([])
    )


# ---------------------------------------------------------------------------
# q7: volume shipping between two regions (two-sided tag + bucketed join)
# ---------------------------------------------------------------------------

def q7_volume_shipping(sf_dir: str) -> ray.data.Dataset:
    """TPC-H Q7 shape, region-adapted: revenue shipped between ASIA and
    EUROPE (both directions kept separate) per ship year.

    Plan: both dimension sides collapse to broadcast key sets (supplier ->
    region, customer -> region); lineitem pre-aggregates (orderkey,
    supp_code, year) partials inside map_batches; ONE bucketed all-to-all
    joins partials with the region-tagged filtered orders and emits
    per-bucket partial sums; a trivial final groupby folds buckets.
    """
    asia_supp = _region_suppkeys(sf_dir, "ASIA")
    eu_supp = _region_suppkeys(sf_dir, "EUROPE")
    asia_cust = _region_custkeys(sf_dir, "ASIA")
    eu_cust = _region_custkeys(sf_dir, "EUROPE")
    lo, hi = _ts("1996-01-01"), _ts("1998-01-01")

    n_buckets = _order_buckets(sf_dir)
    mask = pa.scalar(n_buckets - 1, pa.int64())

    def li_partial(batch: pa.Table) -> pa.Table:
        f = batch.filter(
            pc.and_(
                pc.greater_equal(batch["l_shipdate"], lo),
                pc.less(batch["l_shipdate"], hi),
            )
        )
        in_asia = pc.is_in(f["l_suppkey"], value_set=asia_supp)
        in_eu = pc.is_in(f["l_suppkey"], value_set=eu_supp)
        f = f.filter(pc.or_(in_asia, in_eu))
        code = pc.if_else(
            pc.is_in(f["l_suppkey"], value_set=eu_supp),
            pa.scalar(1, pa.int64()),
            pa.scalar(0, pa.int64()),
        )
        t = pa.table(
            {
                "key": f["l_orderkey"],
                "supp_code": code,
                "l_year": pc.year(f["l_shipdate"]),
                "rev_c4": _rev_c4(f["l_extendedprice"], f["l_discount"]),
            }
        )
        g = (
            t.group_by(["key", "supp_code", "l_year"])
            .aggregate([("rev_c4", "sum")])
            .rename_columns(["key", "supp_code", "l_year", "rev_c4"])
        )
        return _widen(
            {
                "key": g["key"],
                "supp_code": g["supp_code"],
                "l_year": g["l_year"],
                "rev_c4": g["rev_c4"],
            },
            superset,
            0,
            "key",
            mask,
        )

    def ord_side(batch: pa.Table) -> pa.Table:
        in_asia = pc.is_in(batch["o_custkey"], value_set=asia_cust)
        in_eu = pc.is_in(batch["o_custkey"], value_set=eu_cust)
        f = batch.filter(pc.or_(in_asia, in_eu))
        code = pc.if_else(
            pc.is_in(f["o_custkey"], value_set=eu_cust),
            pa.scalar(1, pa.int64()),
            pa.scalar(0, pa.int64()),
        )
        return _widen(
            {"key": f["o_orderkey"], "cust_code": code}, superset, 1, "key", mask
        )

    superset = pa.schema(
        [
            ("key", pa.int64()),
            ("supp_code", pa.int64()),
            ("l_year", pa.int64()),
            ("rev_c4", pa.int64()),
            ("cust_code", pa.int64()),
            ("side", pa.int8()),
            ("bucket", pa.int64()),
        ]
    )

    li = read_table(
        sf_dir,
        "lineitem",
        columns=["l_orderkey", "l_suppkey", "l_extendedprice", "l_discount", "l_shipdate"],
    ).map_batches(li_partial, batch_format="pyarrow", zero_copy_batch=True)
    orders = read_table(sf_dir, "orders", columns=["o_orderkey", "o_custkey"]).map_batches(
        ord_side, batch_format="pyarrow", zero_copy_batch=True
    )

    out_schema = pa.schema(
        [
            ("supp_code", pa.int64()),
            ("cust_code", pa.int64()),
            ("l_year", pa.int64()),
            ("rev_c4", pa.int64()),
        ]
    )

    def join_bucket(group: pa.Table) -> pa.Table:
        li_part = group.filter(pc.equal(group["side"], 0)).select(
            ["key", "supp_code", "l_year", "rev_c4"]
        )
        ord_part = group.filter(pc.equal(group["side"], 1)).select(["key", "cust_code"])
        if li_part.num_rows == 0 or ord_part.num_rows == 0:
            return out_schema.empty_table()
        j = li_part.join(ord_part, keys=["key"], join_type="inner")
        j = j.filter(pc.not_equal(j["supp_code"], j["cust_code"]))
        return (
            j.group_by(["supp_code", "cust_code", "l_year"])
            .aggregate([("rev_c4", "sum")])
            .rename_columns(["supp_code", "cust_code", "l_year", "rev_c4"])
        )

    from ray.data.aggregate import Sum

    names = pa.array(["ASIA", "EUROPE"])

    def finish(batch: pa.Table) -> pa.Table:
        return pa.table(
            {
                "supp_region": pc.take(names, batch["supp_code"]),
                "cust_region": pc.take(names, batch["cust_code"]),
                "l_year": batch["l_year"],
                "revenue": pc.divide(
                    pc.cast(batch["rev_c4"], pa.float64()), pa.scalar(10000.0)
                ),
            }
        )

    return (
        bucket_exchange(
            li.union(orders), join_bucket, schema=superset, out_schema=out_schema
        )
        .groupby(["supp_code", "cust_code", "l_year"])
        .aggregate(Sum("rev_c4", alias_name="rev_c4"))
        .map_batches(finish, batch_format="pyarrow", zero_copy_batch=True)
        .sort(["supp_region", "cust_region", "l_year"])
    )


Q7_SQL = """
SELECT sr.r_name AS supp_region, cr.r_name AS cust_region,
       CAST(year(l_shipdate) AS BIGINT) AS l_year,
       sum(CAST(round(l_extendedprice*100) AS BIGINT)
           * (100 - CAST(round(l_discount*100) AS BIGINT))) / 10000.0 AS revenue
FROM lineitem
JOIN supplier ON l_suppkey = s_suppkey
JOIN nation sn ON s_nationkey = sn.n_nationkey
JOIN region sr ON sn.n_regionkey = sr.r_regionkey
JOIN orders ON l_orderkey = o_orderkey
JOIN customer ON o_custkey = c_custkey
JOIN nation cn ON c_nationkey = cn.n_nationkey
JOIN region cr ON cn.n_regionkey = cr.r_regionkey
WHERE l_shipdate >= TIMESTAMP '1996-01-01' AND l_shipdate < TIMESTAMP '1998-01-01'
  AND ((sr.r_name = 'ASIA' AND cr.r_name = 'EUROPE')
    OR (sr.r_name = 'EUROPE' AND cr.r_name = 'ASIA'))
GROUP BY supp_region, cust_region, l_year
ORDER BY supp_region, cust_region, l_year
"""


# ---------------------------------------------------------------------------
# q8: market share (two conditional sums through one join exchange)
# ---------------------------------------------------------------------------

def q8_market_share(sf_dir: str) -> ray.data.Dataset:
    """TPC-H Q8 shape: NATION_3's share of ECONOMY-part revenue sold to
    EUROPE customers, per order year.  The numerator/denominator ride the
    SAME bucketed exchange as (nat_c4, tot_c4) partial pairs; the share is
    one exact int64/int64 division per year at the very end."""
    part = _broadcast_table(sf_dir, "part", ["p_partkey", "p_type"])
    econ_keys = part.filter(pc.equal(part["p_type"], "ECONOMY"))[
        "p_partkey"
    ].combine_chunks()
    eu_cust = _region_custkeys(sf_dir, "EUROPE")
    nation = _broadcast_table(sf_dir, "nation", ["n_nationkey", "n_name"])
    n3 = nation.filter(pc.equal(nation["n_name"], "NATION_3"))["n_nationkey"]
    sup = _broadcast_table(sf_dir, "supplier", ["s_suppkey", "s_nationkey"])
    n3_supp = sup.filter(
        pc.is_in(sup["s_nationkey"], value_set=n3.combine_chunks())
    )["s_suppkey"].combine_chunks()
    lo, hi = _ts("1996-01-01"), _ts("1998-01-01")

    n_buckets = _order_buckets(sf_dir)
    mask = pa.scalar(n_buckets - 1, pa.int64())

    def li_partial(batch: pa.Table) -> pa.Table:
        f = batch.filter(pc.is_in(batch["l_partkey"], value_set=econ_keys))
        rev = _rev_c4(f["l_extendedprice"], f["l_discount"])
        nat = pc.if_else(
            pc.is_in(f["l_suppkey"], value_set=n3_supp), rev, pa.scalar(0, pa.int64())
        )
        t = pa.table({"key": f["l_orderkey"], "nat_c4": nat, "tot_c4": rev})
        g = (
            t.group_by("key")
            .aggregate([("nat_c4", "sum"), ("tot_c4", "sum")])
            .rename_columns(["key", "nat_c4", "tot_c4"])
        )
        return _widen(
            {"key": g["key"], "nat_c4": g["nat_c4"], "tot_c4": g["tot_c4"]},
            superset,
            0,
            "key",
            mask,
        )

    def ord_side(batch: pa.Table) -> pa.Table:
        f = batch.filter(
            pc.and_(
                pc.and_(
                    pc.greater_equal(batch["o_orderdate"], lo),
                    pc.less(batch["o_orderdate"], hi),
                ),
                pc.is_in(batch["o_custkey"], value_set=eu_cust),
            )
        )
        return _widen(
            {"key": f["o_orderkey"], "o_year": pc.year(f["o_orderdate"])},
            superset,
            1,
            "key",
            mask,
        )

    superset = pa.schema(
        [
            ("key", pa.int64()),
            ("nat_c4", pa.int64()),
            ("tot_c4", pa.int64()),
            ("o_year", pa.int64()),
            ("side", pa.int8()),
            ("bucket", pa.int64()),
        ]
    )

    li = read_table(
        sf_dir,
        "lineitem",
        columns=["l_orderkey", "l_partkey", "l_suppkey", "l_extendedprice", "l_discount"],
    ).map_batches(li_partial, batch_format="pyarrow", zero_copy_batch=True)
    orders = read_table(
        sf_dir, "orders", columns=["o_orderkey", "o_custkey", "o_orderdate"]
    ).map_batches(ord_side, batch_format="pyarrow", zero_copy_batch=True)

    out_schema = pa.schema(
        [("o_year", pa.int64()), ("nat_c4", pa.int64()), ("tot_c4", pa.int64())]
    )

    def join_bucket(group: pa.Table) -> pa.Table:
        li_part = group.filter(pc.equal(group["side"], 0)).select(
            ["key", "nat_c4", "tot_c4"]
        )
        ord_part = group.filter(pc.equal(group["side"], 1)).select(["key", "o_year"])
        if li_part.num_rows == 0 or ord_part.num_rows == 0:
            return out_schema.empty_table()
        j = li_part.join(ord_part, keys=["key"], join_type="inner")
        return (
            j.group_by("o_year")
            .aggregate([("nat_c4", "sum"), ("tot_c4", "sum")])
            .rename_columns(["o_year", "nat_c4", "tot_c4"])
        )

    from ray.data.aggregate import Sum

    def finish(batch: pa.Table) -> pa.Table:
        return pa.table(
            {
                "o_year": batch["o_year"],
                "mkt_share": pc.divide(
                    pc.cast(batch["nat_c4"], pa.float64()),
                    pc.cast(batch["tot_c4"], pa.float64()),
                ),
            }
        )

    return (
        bucket_exchange(
            li.union(orders), join_bucket, schema=superset, out_schema=out_schema
        )
        .groupby("o_year")
        .aggregate(Sum("nat_c4", alias_name="nat_c4"), Sum("tot_c4", alias_name="tot_c4"))
        .map_batches(finish, batch_format="pyarrow", zero_copy_batch=True)
        .sort("o_year")
    )


Q8_SQL = """
SELECT CAST(year(o_orderdate) AS BIGINT) AS o_year,
       CAST(sum(CASE WHEN sn.n_name = 'NATION_3'
                     THEN CAST(round(l_extendedprice*100) AS BIGINT)
                          * (100 - CAST(round(l_discount*100) AS BIGINT))
                     ELSE 0 END) AS DOUBLE)
       / CAST(sum(CAST(round(l_extendedprice*100) AS BIGINT)
                  * (100 - CAST(round(l_discount*100) AS BIGINT))) AS DOUBLE)
       AS mkt_share
FROM lineitem
JOIN part ON l_partkey = p_partkey
JOIN supplier ON l_suppkey = s_suppkey
JOIN nation sn ON s_nationkey = sn.n_nationkey
JOIN orders ON l_orderkey = o_orderkey
JOIN customer ON o_custkey = c_custkey
JOIN nation cn ON c_nationkey = cn.n_nationkey
JOIN region cr ON cn.n_regionkey = cr.r_regionkey
WHERE p_type = 'ECONOMY' AND cr.r_name = 'EUROPE'
  AND o_orderdate >= TIMESTAMP '1996-01-01' AND o_orderdate < TIMESTAMP '1998-01-01'
GROUP BY o_year
ORDER BY o_year
"""


# ---------------------------------------------------------------------------
# q9: product-type profit by (supplier nation, ship year) — broadcast tags
# ---------------------------------------------------------------------------

def q9_product_profit(sf_dir: str) -> ray.data.Dataset:
    """TPC-H Q9 shape (adapted: no partsupp table, so profit is discounted
    revenue, and the year is the ship year — both documented deviations).
    Pure broadcast plan: part-name filter keys + supplier->nation map ride
    the closure; lineitem folds to (nationkey, year) partials per batch, a
    tiny final groupby, then nation names attach via one lookup."""
    part = _broadcast_table(sf_dir, "part", ["p_partkey", "p_name"])
    widget_keys = part.filter(
        pc.match_substring(part["p_name"], "widget")
    )["p_partkey"].combine_chunks()
    sup = _broadcast_table(sf_dir, "supplier", ["s_suppkey", "s_nationkey"])
    nation = _broadcast_table(sf_dir, "nation", ["n_nationkey", "n_name"])
    supp_nation = _lookup(sup["s_suppkey"], pc.cast(sup["s_nationkey"], pa.int64()))
    nation_name = _lookup(pc.cast(nation["n_nationkey"], pa.int64()), nation["n_name"])

    def partial(batch: pa.Table) -> pa.Table:
        f = batch.filter(pc.is_in(batch["l_partkey"], value_set=widget_keys))
        t = pa.table(
            {
                "nationkey": supp_nation(f["l_suppkey"]),
                "l_year": pc.year(f["l_shipdate"]),
                "profit_c4": _rev_c4(f["l_extendedprice"], f["l_discount"]),
            }
        )
        return (
            t.group_by(["nationkey", "l_year"])
            .aggregate([("profit_c4", "sum")])
            .rename_columns(["nationkey", "l_year", "profit_c4"])
        )

    from ray.data.aggregate import Sum

    def finish(batch: pa.Table) -> pa.Table:
        return pa.table(
            {
                "nation": nation_name(batch["nationkey"]),
                "l_year": batch["l_year"],
                "profit": pc.divide(
                    pc.cast(batch["profit_c4"], pa.float64()), pa.scalar(10000.0)
                ),
            }
        )

    return (
        read_table(
            sf_dir,
            "lineitem",
            columns=["l_partkey", "l_suppkey", "l_extendedprice", "l_discount", "l_shipdate"],
        )
        .map_batches(partial, batch_format="pyarrow", zero_copy_batch=True)
        .groupby(["nationkey", "l_year"])
        .aggregate(Sum("profit_c4", alias_name="profit_c4"))
        .map_batches(finish, batch_format="pyarrow", zero_copy_batch=True)
        .sort(["nation", "l_year"], descending=[False, True])
    )


Q9_SQL = """
SELECT n_name AS nation, CAST(year(l_shipdate) AS BIGINT) AS l_year,
       sum(CAST(round(l_extendedprice*100) AS BIGINT)
           * (100 - CAST(round(l_discount*100) AS BIGINT))) / 10000.0 AS profit
FROM lineitem
JOIN supplier ON l_suppkey = s_suppkey
JOIN nation ON s_nationkey = n_nationkey
JOIN part ON l_partkey = p_partkey
WHERE p_name LIKE '%widget%'
GROUP BY 1, 2
ORDER BY 1, 2 DESC
"""


# ---------------------------------------------------------------------------
# q11: important parts (global-fraction threshold scalar subquery)
# ---------------------------------------------------------------------------

def q11_important_parts(sf_dir: str) -> ray.data.Dataset:
    """TPC-H Q11 shape (adapted: value = extended-price cents shipped by
    EUROPE suppliers; partsupp is absent).  Keep parts whose value exceeds
    1.2x the mean per-part value — a scale-free threshold (the standard
    FRACTION/SF constant would go degenerate on the driver tables), compared
    in exact integers (5*n*value_c > 6*total_c) on both engines.  The
    per-part aggregate is O(|part|) — genuinely small relative to lineitem
    at every TPC-H scale — so it is materialized ONCE and reused for the
    count, the total and the filter (branching an unmaterialized Dataset
    would re-run the lineitem pass twice)."""
    eu_supp = _region_suppkeys(sf_dir, "EUROPE")

    def partial(batch: pa.Table) -> pa.Table:
        f = batch.filter(pc.is_in(batch["l_suppkey"], value_set=eu_supp))
        t = pa.table({"l_partkey": f["l_partkey"], "value_c": _cents(f["l_extendedprice"])})
        return (
            t.group_by("l_partkey")
            .aggregate([("value_c", "sum")])
            .rename_columns(["l_partkey", "value_c"])
        )

    from ray.data.aggregate import Sum

    vals = (
        read_table(sf_dir, "lineitem", columns=["l_partkey", "l_suppkey", "l_extendedprice"])
        .map_batches(partial, batch_format="pyarrow", zero_copy_batch=True)
        .groupby("l_partkey")
        .aggregate(Sum("value_c", alias_name="value_c"))
        .materialize()
    )
    total_c = vals.aggregate(Sum("value_c", alias_name="value_c"))["value_c"] or 0
    n_parts = vals.count()
    thr = pa.scalar(6 * int(total_c), pa.int64())
    lhs_mult = pa.scalar(5 * n_parts, pa.int64())

    def keep(batch: pa.Table) -> pa.Table:
        f = batch.filter(
            pc.greater(pc.multiply(batch["value_c"], lhs_mult), thr)
        )
        return pa.table(
            {
                "l_partkey": f["l_partkey"],
                "value": pc.divide(pc.cast(f["value_c"], pa.float64()), pa.scalar(100.0)),
            }
        )

    return vals.map_batches(keep, batch_format="pyarrow", zero_copy_batch=True).sort(
        ["value", "l_partkey"], descending=[True, False]
    )


Q11_SQL = """
WITH vals AS (
  SELECT l_partkey, CAST(sum(CAST(round(l_extendedprice*100) AS BIGINT)) AS BIGINT) AS value_c
  FROM lineitem
  JOIN supplier ON l_suppkey = s_suppkey
  JOIN nation ON s_nationkey = n_nationkey
  JOIN region ON n_regionkey = r_regionkey
  WHERE r_name = 'EUROPE'
  GROUP BY l_partkey
)
SELECT l_partkey, value_c / 100.0 AS value
FROM vals
WHERE 5 * (SELECT count(*) FROM vals) * value_c
      > 6 * (SELECT CAST(sum(value_c) AS BIGINT) FROM vals)
ORDER BY value DESC, l_partkey
"""


# ---------------------------------------------------------------------------
# q15: top supplier (global-max threshold; ties all kept)
# ---------------------------------------------------------------------------

def q15_top_supplier(sf_dir: str) -> ray.data.Dataset:
    """TPC-H Q15 shape: revenue per supplier over one quarter, keep the
    max-revenue supplier(s).  The per-supplier aggregate is O(|supplier|)
    (the smallest sf-scaled table) — materialized once, max computed over
    it, filter-equal reuses it without re-running the lineitem pass."""
    lo, hi = _ts("1997-01-01"), _ts("1997-04-01")
    sup = _broadcast_table(sf_dir, "supplier", ["s_suppkey", "s_name"])
    sup_name = _lookup(sup["s_suppkey"], sup["s_name"])

    def partial(batch: pa.Table) -> pa.Table:
        f = batch.filter(
            pc.and_(
                pc.greater_equal(batch["l_shipdate"], lo),
                pc.less(batch["l_shipdate"], hi),
            )
        )
        t = pa.table(
            {
                "s_suppkey": f["l_suppkey"],
                "total_c4": _rev_c4(f["l_extendedprice"], f["l_discount"]),
            }
        )
        return (
            t.group_by("s_suppkey")
            .aggregate([("total_c4", "sum")])
            .rename_columns(["s_suppkey", "total_c4"])
        )

    from ray.data.aggregate import Max, Sum

    rev = (
        read_table(
            sf_dir,
            "lineitem",
            columns=["l_suppkey", "l_extendedprice", "l_discount", "l_shipdate"],
        )
        .map_batches(partial, batch_format="pyarrow", zero_copy_batch=True)
        .groupby("s_suppkey")
        .aggregate(Sum("total_c4", alias_name="total_c4"))
        .materialize()
    )
    best = rev.aggregate(Max("total_c4", alias_name="total_c4"))["total_c4"]
    best_s = pa.scalar(int(best), pa.int64())

    def keep(batch: pa.Table) -> pa.Table:
        f = batch.filter(pc.equal(batch["total_c4"], best_s))
        return pa.table(
            {
                "s_suppkey": f["s_suppkey"],
                "s_name": sup_name(f["s_suppkey"]),
                "total_revenue": pc.divide(
                    pc.cast(f["total_c4"], pa.float64()), pa.scalar(10000.0)
                ),
            }
        )

    return rev.map_batches(keep, batch_format="pyarrow", zero_copy_batch=True).sort(
        "s_suppkey"
    )


Q15_SQL = """
WITH rev AS (
  SELECT l_suppkey AS s_suppkey,
         CAST(sum(CAST(round(l_extendedprice*100) AS BIGINT)
                  * (100 - CAST(round(l_discount*100) AS BIGINT))) AS BIGINT) AS total_c4
  FROM lineitem
  WHERE l_shipdate >= TIMESTAMP '1997-01-01' AND l_shipdate < TIMESTAMP '1997-04-01'
  GROUP BY l_suppkey
)
SELECT s_suppkey, s_name, total_c4 / 10000.0 AS total_revenue
FROM rev JOIN supplier USING (s_suppkey)
WHERE total_c4 = (SELECT max(total_c4) FROM rev)
ORDER BY s_suppkey
"""


# ---------------------------------------------------------------------------
# q16: distinct suppliers per part-attribute triple (supplier-bucketed)
# ---------------------------------------------------------------------------

def q16_supplier_part_counts(sf_dir: str, *, n_buckets: int | None = None) -> ray.data.Dataset:
    """TPC-H Q16 shape (supplying pairs derived from lineitem): count
    DISTINCT suppliers per (p_brand, p_type, p_size) for non-excluded parts.

    The exchange buckets by SUPPKEY: a (brand, type, size, suppkey) combo
    lands in exactly one bucket, so per-bucket distinct IS globally distinct
    and each bucket emits additive (triple, count) partials — one all-to-all
    plus a trivial final groupby, never a global pair table."""
    part = _broadcast_table(sf_dir, "part", ["p_partkey", "p_brand", "p_type", "p_size"])
    keep = pc.and_(
        pc.not_equal(part["p_brand"], "Brand#5"),
        pc.and_(
            pc.not_equal(part["p_type"], "PROMO"),
            pc.is_in(
                part["p_size"],
                value_set=pa.array([1, 4, 9, 16, 25, 36, 49], pa.int32()),
            ),
        ),
    )
    kept = part.filter(keep)
    kept_keys = kept["p_partkey"].combine_chunks()
    brand_of = _lookup(kept["p_partkey"], kept["p_brand"])
    type_of = _lookup(kept["p_partkey"], kept["p_type"])
    size_of = _lookup(kept["p_partkey"], pc.cast(kept["p_size"], pa.int64()))

    if n_buckets is None:
        n_buckets = _lineitem_buckets(sf_dir)
    mask = pa.scalar(n_buckets - 1, pa.int64())

    def pair_partial(batch: pa.Table) -> pa.Table:
        f = batch.filter(pc.is_in(batch["l_partkey"], value_set=kept_keys))
        pairs = _batch_distinct_pairs(f)
        return pairs.append_column(
            "bucket", pc.bit_wise_and(pairs["l_suppkey"], mask)
        )

    schema = pa.schema(
        [
            ("l_partkey", pa.int64()),
            ("l_suppkey", pa.int64()),
            ("bucket", pa.int64()),
        ]
    )

    out_schema = pa.schema(
        [
            ("p_brand", pa.string()),
            ("p_type", pa.string()),
            ("p_size", pa.int64()),
            ("supplier_cnt", pa.int64()),
        ]
    )

    def count_bucket(group: pa.Table) -> pa.Table:
        pairs = (
            group.select(["l_partkey", "l_suppkey"])
            .group_by(["l_partkey", "l_suppkey"])
            .aggregate([])
        )
        combos = (
            pa.table(
                {
                    "p_brand": brand_of(pairs["l_partkey"]),
                    "p_type": type_of(pairs["l_partkey"]),
                    "p_size": size_of(pairs["l_partkey"]),
                    "l_suppkey": pairs["l_suppkey"],
                }
            )
            .group_by(["p_brand", "p_type", "p_size", "l_suppkey"])
            .aggregate([])
        )
        return (
            combos.group_by(["p_brand", "p_type", "p_size"])
            .aggregate([("l_suppkey", "count")])
            .rename_columns(["p_brand", "p_type", "p_size", "supplier_cnt"])
        )

    from ray.data.aggregate import Sum

    return (
        bucket_exchange(
            read_table(sf_dir, "lineitem", columns=["l_partkey", "l_suppkey"]),
            count_bucket,
            schema=schema,
            out_schema=out_schema,
            emit=pair_partial,
        )
        .groupby(["p_brand", "p_type", "p_size"])
        .aggregate(Sum("supplier_cnt", alias_name="supplier_cnt"))
        .sort(
            ["supplier_cnt", "p_brand", "p_type", "p_size"],
            descending=[True, False, False, False],
        )
    )


Q16_SQL = """
WITH pairs AS (SELECT DISTINCT l_partkey, l_suppkey FROM lineitem)
SELECT p_brand, p_type, CAST(p_size AS BIGINT) AS p_size,
       count(DISTINCT l_suppkey) AS supplier_cnt
FROM pairs JOIN part ON l_partkey = p_partkey
WHERE p_brand <> 'Brand#5' AND p_type <> 'PROMO'
  AND p_size IN (1, 4, 9, 16, 25, 36, 49)
GROUP BY p_brand, p_type, p_size
ORDER BY supplier_cnt DESC, p_brand, p_type, p_size
"""


# ---------------------------------------------------------------------------
# q17: small-quantity revenue (correlated per-group average threshold)
# ---------------------------------------------------------------------------

def q17_small_qty_revenue(sf_dir: str) -> pa.Table:
    """TPC-H Q17 shape: revenue of lineitems whose quantity is below 20% of
    the per-part average, for one brand.  Pass 1 computes the per-part
    average distributedly (O(|brand's parts|) result, collected and
    broadcast); pass 2 re-scans lineitem with the threshold lookup.  The
    deliberate second scan reads two pruned columns — cheaper than caching
    pass-1's input (CLAUDE.md: branching re-executes the parent)."""
    part = _broadcast_table(sf_dir, "part", ["p_partkey", "p_brand"])
    brand_keys = part.filter(pc.equal(part["p_brand"], "Brand#13"))[
        "p_partkey"
    ].combine_chunks()

    def avg_partial(batch: pa.Table) -> pa.Table:
        f = batch.filter(pc.is_in(batch["l_partkey"], value_set=brand_keys))
        t = pa.table(
            {
                "l_partkey": f["l_partkey"],
                "qty_c": _cents(f["l_quantity"]),
                "n": pa.array(np.ones(f.num_rows, dtype=np.int64)),
            }
        )
        return (
            t.group_by("l_partkey")
            .aggregate([("qty_c", "sum"), ("n", "sum")])
            .rename_columns(["l_partkey", "qty_c", "n"])
        )

    from ray.data.aggregate import Sum

    stats = (
        read_table(sf_dir, "lineitem", columns=["l_partkey", "l_quantity"])
        .map_batches(avg_partial, batch_format="pyarrow", zero_copy_batch=True)
        .groupby("l_partkey")
        .aggregate(Sum("qty_c", alias_name="qty_c"), Sum("n", alias_name="n"))
        .take_all()  # bounded: O(|parts of one brand|) rows, a dimension slice
    )
    keys = pa.array([r["l_partkey"] for r in stats], pa.int64())
    # mirror the oracle's float op order exactly: 0.2 * ((sum/100.0) / n)
    thr = pa.array(
        [0.2 * ((r["qty_c"] / 100.0) / r["n"]) for r in stats], pa.float64()
    )
    thr_of = _lookup(keys, thr)

    def rev_partial(batch: pa.Table) -> pa.Table:
        f = batch.filter(pc.is_in(batch["l_partkey"], value_set=keys))
        f = f.filter(pc.less(f["l_quantity"], thr_of(f["l_partkey"])))
        s = pc.sum(_cents(f["l_extendedprice"])).as_py() or 0
        return pa.table({"rev_c": pa.array([s], pa.int64())})

    out = (
        read_table(sf_dir, "lineitem", columns=["l_partkey", "l_quantity", "l_extendedprice"])
        .map_batches(rev_partial, batch_format="pyarrow", zero_copy_batch=True)
        .aggregate(Sum("rev_c", alias_name="rev_c"))
    )
    return pa.table(
        {"avg_yearly": pa.array([(out["rev_c"] or 0) / 700.0], pa.float64())}
    )


Q17_SQL = """
WITH keyavg AS (
  SELECT l_partkey,
         0.2 * ((sum(CAST(round(l_quantity*100) AS BIGINT)) / 100.0) / count(*)) AS thr
  FROM lineitem JOIN part ON l_partkey = p_partkey
  WHERE p_brand = 'Brand#13'
  GROUP BY l_partkey
)
SELECT coalesce(sum(CAST(round(l_extendedprice*100) AS BIGINT)), 0) / 700.0 AS avg_yearly
FROM lineitem JOIN keyavg USING (l_partkey)
WHERE l_quantity < thr
"""


# ---------------------------------------------------------------------------
# q19: disjunctive multi-branch predicate join
# ---------------------------------------------------------------------------

def q19_disjunctive_revenue(sf_dir: str) -> pa.Table:
    """TPC-H Q19 shape: revenue under an OR of three (brand, size-range,
    quantity-range) conjunctions.  Part attributes ride the closure as two
    lookup arrays; the whole predicate is one vectorized boolean expression
    per batch — no join materializes."""
    part = _broadcast_table(sf_dir, "part", ["p_partkey", "p_brand", "p_size"])
    brand_of = _lookup(part["p_partkey"], part["p_brand"])
    size_of = _lookup(part["p_partkey"], pc.cast(part["p_size"], pa.int64()))
    branches = [
        ("Brand#12", 1, 5, 1.0, 11.0),
        ("Brand#23", 1, 10, 10.0, 20.0),
        ("Brand#34", 1, 15, 20.0, 30.0),
    ]

    def partial(batch: pa.Table) -> pa.Table:
        brand = brand_of(batch["l_partkey"])
        size = size_of(batch["l_partkey"])
        qty = batch["l_quantity"]
        keep = None
        for b, s_lo, s_hi, q_lo, q_hi in branches:
            m = pc.and_(
                pc.and_(
                    pc.equal(brand, b),
                    pc.and_(
                        pc.greater_equal(size, pa.scalar(s_lo, pa.int64())),
                        pc.less_equal(size, pa.scalar(s_hi, pa.int64())),
                    ),
                ),
                pc.and_(
                    pc.greater_equal(qty, pa.scalar(q_lo)),
                    pc.less_equal(qty, pa.scalar(q_hi)),
                ),
            )
            keep = m if keep is None else pc.or_(keep, m)
        f = batch.filter(keep)
        s = pc.sum(_rev_c4(f["l_extendedprice"], f["l_discount"])).as_py() or 0
        return pa.table({"rev_c4": pa.array([s], pa.int64())})

    from ray.data.aggregate import Sum

    out = (
        read_table(
            sf_dir, "lineitem", columns=["l_partkey", "l_quantity", "l_extendedprice", "l_discount"]
        )
        .map_batches(partial, batch_format="pyarrow", zero_copy_batch=True)
        .aggregate(Sum("rev_c4", alias_name="rev_c4"))
    )
    return pa.table(
        {"revenue": pa.array([(out["rev_c4"] or 0) / 10000.0], pa.float64())}
    )


Q19_SQL = """
SELECT coalesce(sum(CAST(round(l_extendedprice*100) AS BIGINT)
                    * (100 - CAST(round(l_discount*100) AS BIGINT))), 0) / 10000.0
       AS revenue
FROM lineitem JOIN part ON l_partkey = p_partkey
WHERE (p_brand = 'Brand#12' AND p_size BETWEEN 1 AND 5
       AND l_quantity >= 1 AND l_quantity <= 11)
   OR (p_brand = 'Brand#23' AND p_size BETWEEN 1 AND 10
       AND l_quantity >= 10 AND l_quantity <= 20)
   OR (p_brand = 'Brand#34' AND p_size BETWEEN 1 AND 15
       AND l_quantity >= 20 AND l_quantity <= 30)
"""


# ---------------------------------------------------------------------------
# q2: min-balance supplier per part (argmin over derived pair set)
# ---------------------------------------------------------------------------

def q2_min_balance_supplier(sf_dir: str, *, n_buckets: int | None = None) -> ray.data.Dataset:
    """TPC-H Q2 shape (adapted: supplying pairs derive from lineitem, the
    minimized cost is the supplier's account balance): for each STANDARD
    part of size <= 10, the EUROPE supplier with the minimum balance
    (ties broken by suppkey).

    Buckets by PARTKEY so the per-bucket argmin is the global argmin; the
    argmin itself is a vectorized sort + first-occurrence mask, never a
    Python loop per part."""
    part = _broadcast_table(sf_dir, "part", ["p_partkey", "p_name", "p_type", "p_size"])
    keep = pc.and_(
        pc.equal(part["p_type"], "STANDARD"),
        pc.less_equal(part["p_size"], pa.scalar(10, pa.int32())),
    )
    kept = part.filter(keep)
    kept_keys = kept["p_partkey"].combine_chunks()
    pname_of = _lookup(kept["p_partkey"], kept["p_name"])

    eu_supp = _region_suppkeys(sf_dir, "EUROPE")
    sup = _broadcast_table(sf_dir, "supplier", ["s_suppkey", "s_name", "s_acctbal"])
    bal_of = _lookup(sup["s_suppkey"], sup["s_acctbal"])
    sname_of = _lookup(sup["s_suppkey"], sup["s_name"])

    if n_buckets is None:
        n_buckets = _lineitem_buckets(sf_dir)
    mask = pa.scalar(n_buckets - 1, pa.int64())

    def pair_partial(batch: pa.Table) -> pa.Table:
        f = batch.filter(
            pc.and_(
                pc.is_in(batch["l_partkey"], value_set=kept_keys),
                pc.is_in(batch["l_suppkey"], value_set=eu_supp),
            )
        )
        pairs = _batch_distinct_pairs(f)
        return pairs.append_column(
            "bucket", pc.bit_wise_and(pairs["l_partkey"], mask)
        )

    schema = pa.schema(
        [
            ("l_partkey", pa.int64()),
            ("l_suppkey", pa.int64()),
            ("bucket", pa.int64()),
        ]
    )

    out_schema = pa.schema(
        [
            ("p_partkey", pa.int64()),
            ("s_suppkey", pa.int64()),
            ("s_acctbal", pa.float64()),
        ]
    )

    def argmin_bucket(group: pa.Table) -> pa.Table:
        pairs = (
            group.select(["l_partkey", "l_suppkey"])
            .group_by(["l_partkey", "l_suppkey"])
            .aggregate([])
        )
        t = pa.table(
            {
                "p_partkey": pairs["l_partkey"],
                "s_suppkey": pairs["l_suppkey"],
                "s_acctbal": bal_of(pairs["l_suppkey"]),
            }
        ).sort_by(
            [
                ("p_partkey", "ascending"),
                ("s_acctbal", "ascending"),
                ("s_suppkey", "ascending"),
            ]
        )
        keys = t["p_partkey"].combine_chunks().to_numpy(zero_copy_only=False)
        first = np.ones(len(keys), dtype=bool)
        first[1:] = keys[1:] != keys[:-1]
        return t.filter(pa.array(first))

    def finish(batch: pa.Table) -> pa.Table:
        return pa.table(
            {
                "p_partkey": batch["p_partkey"],
                "p_name": pname_of(batch["p_partkey"]),
                "s_suppkey": batch["s_suppkey"],
                "s_name": sname_of(batch["s_suppkey"]),
                "s_acctbal": batch["s_acctbal"],
            }
        )

    return (
        bucket_exchange(
            read_table(sf_dir, "lineitem", columns=["l_partkey", "l_suppkey"]),
            argmin_bucket,
            schema=schema,
            out_schema=out_schema,
            emit=pair_partial,
        )
        .map_batches(finish, batch_format="pyarrow", zero_copy_batch=True)
        .sort(["s_acctbal", "p_partkey"], descending=[True, False])
    )


Q2_SQL = """
WITH pairs AS (SELECT DISTINCT l_partkey, l_suppkey FROM lineitem),
eu AS (
  SELECT s_suppkey, s_name, s_acctbal
  FROM supplier
  JOIN nation ON s_nationkey = n_nationkey
  JOIN region ON n_regionkey = r_regionkey
  WHERE r_name = 'EUROPE'
)
SELECT p_partkey, p_name, s_suppkey, s_name, s_acctbal
FROM pairs
JOIN part ON l_partkey = p_partkey
JOIN eu ON l_suppkey = s_suppkey
WHERE p_type = 'STANDARD' AND p_size <= 10
QUALIFY row_number() OVER (PARTITION BY p_partkey ORDER BY s_acctbal, s_suppkey) = 1
ORDER BY s_acctbal DESC, p_partkey
"""


# ---------------------------------------------------------------------------
# q20: over-supplying suppliers (nested per-group aggregate threshold)
# ---------------------------------------------------------------------------

def q20_excess_suppliers(sf_dir: str, *, n_buckets: int | None = None) -> ray.data.Dataset:
    """TPC-H Q20 shape (adapted: no partsupp availqty, so the nested
    threshold compares a supplier's shipped quantity of a part against the
    part's per-supplier average): suppliers that shipped more than 2x their
    fair share of some widget part during 1997.

    The (part, supplier, qty) partials bucket by PARTKEY so each bucket sees
    every supplier of its parts — the per-part total and supplier count are
    exact within the bucket; qualifying suppliers dedup globally via a tiny
    suppkey groupby.  Exact integers throughout: q * ns > 2 * t."""
    part = _broadcast_table(sf_dir, "part", ["p_partkey", "p_name"])
    widget_keys = part.filter(
        pc.match_substring(part["p_name"], "widget")
    )["p_partkey"].combine_chunks()
    lo, hi = _ts("1997-01-01"), _ts("1998-01-01")

    if n_buckets is None:
        n_buckets = _lineitem_buckets(sf_dir)
    mask = pa.scalar(n_buckets - 1, pa.int64())

    def qty_partial(batch: pa.Table) -> pa.Table:
        f = batch.filter(
            pc.and_(
                pc.is_in(batch["l_partkey"], value_set=widget_keys),
                pc.and_(
                    pc.greater_equal(batch["l_shipdate"], lo),
                    pc.less(batch["l_shipdate"], hi),
                ),
            )
        )
        g = (
            pa.table(
                {
                    "l_partkey": f["l_partkey"],
                    "l_suppkey": f["l_suppkey"],
                    "qty_c": _cents(f["l_quantity"]),
                }
            )
            .group_by(["l_partkey", "l_suppkey"])
            .aggregate([("qty_c", "sum")])
            .rename_columns(["l_partkey", "l_suppkey", "qty_c"])
        )
        return g.append_column("bucket", pc.bit_wise_and(g["l_partkey"], mask))

    schema = pa.schema(
        [
            ("l_partkey", pa.int64()),
            ("l_suppkey", pa.int64()),
            ("qty_c", pa.int64()),
            ("bucket", pa.int64()),
        ]
    )

    out_schema = pa.schema([("s_suppkey", pa.int64())])

    def excess_bucket(group: pa.Table) -> pa.Table:
        ps = (
            group.select(["l_partkey", "l_suppkey", "qty_c"])
            .group_by(["l_partkey", "l_suppkey"])
            .aggregate([("qty_c", "sum")])
            .rename_columns(["l_partkey", "l_suppkey", "qty_c"])
        )
        pt = (
            ps.group_by("l_partkey")
            .aggregate([("qty_c", "sum"), ([], "count_all")])
            .rename_columns(["l_partkey", "t", "ns"])
        )
        j = ps.join(pt, keys=["l_partkey"], join_type="inner")
        keep = pc.greater(
            pc.multiply(j["qty_c"], j["ns"]),
            pc.multiply(pa.scalar(2, pa.int64()), j["t"]),
        )
        hits = j.filter(keep)
        return (
            pa.table({"s_suppkey": hits["l_suppkey"]})
            .group_by("s_suppkey")
            .aggregate([])
        )

    sup = _broadcast_table(sf_dir, "supplier", ["s_suppkey", "s_name"])
    sname_of = _lookup(sup["s_suppkey"], sup["s_name"])

    def finish(batch: pa.Table) -> pa.Table:
        return pa.table(
            {
                "s_suppkey": batch["s_suppkey"],
                "s_name": sname_of(batch["s_suppkey"]),
            }
        )

    from ray.data.aggregate import Count

    return (
        bucket_exchange(
            read_table(
                sf_dir,
                "lineitem",
                columns=["l_partkey", "l_suppkey", "l_quantity", "l_shipdate"],
            ),
            excess_bucket,
            schema=schema,
            out_schema=out_schema,
            emit=qty_partial,
        )
        .groupby("s_suppkey")
        .aggregate(Count(alias_name="_n"))
        .drop_columns(["_n"])
        .map_batches(finish, batch_format="pyarrow", zero_copy_batch=True)
        .sort("s_suppkey")
    )


Q20_SQL = """
WITH ps AS (
  SELECT l_partkey, l_suppkey,
         CAST(sum(CAST(round(l_quantity*100) AS BIGINT)) AS BIGINT) AS qty_c
  FROM lineitem JOIN part ON l_partkey = p_partkey
  WHERE p_name LIKE '%widget%'
    AND l_shipdate >= TIMESTAMP '1997-01-01' AND l_shipdate < TIMESTAMP '1998-01-01'
  GROUP BY l_partkey, l_suppkey
),
pt AS (
  SELECT l_partkey, CAST(sum(qty_c) AS BIGINT) AS t,
         CAST(count(*) AS BIGINT) AS ns
  FROM ps GROUP BY l_partkey
)
SELECT DISTINCT s_suppkey, s_name
FROM ps JOIN pt USING (l_partkey) JOIN supplier ON l_suppkey = s_suppkey
WHERE qty_c * ns > 2 * t
ORDER BY s_suppkey
"""


# ---------------------------------------------------------------------------
# q21: suppliers who kept orders waiting (EXISTS + NOT EXISTS, same table)
# ---------------------------------------------------------------------------

def q21_waiting_suppliers(sf_dir: str) -> ray.data.Dataset:
    """TPC-H Q21 shape (adapted: "late" = the supplier had a RETURNED line,
    since commit/receipt dates are absent): per supplier, count finalized
    ('F') orders where this supplier returned, at least one OTHER supplier
    is on the order (EXISTS), and NO other supplier returned (NOT EXISTS).

    Lineitem folds to (orderkey, suppkey, returned) partials per batch; the
    'F' order keys ride the same orderkey exchange; each bucket re-folds the
    per-(order, supplier) max, derives per-order supplier/returner counts,
    and emits additive (suppkey, numwait) partials."""
    n_buckets = _order_buckets(sf_dir)
    mask = pa.scalar(n_buckets - 1, pa.int64())

    def li_partial(batch: pa.Table) -> pa.Table:
        ret = pc.cast(pc.equal(batch["l_returnflag"], "R"), pa.int64())
        g = (
            pa.table(
                {
                    "key": batch["l_orderkey"],
                    "s_suppkey": batch["l_suppkey"],
                    "ret": ret,
                }
            )
            .group_by(["key", "s_suppkey"])
            .aggregate([("ret", "max")])
            .rename_columns(["key", "s_suppkey", "ret"])
        )
        return _widen(
            {"key": g["key"], "s_suppkey": g["s_suppkey"], "ret": g["ret"]},
            superset,
            0,
            "key",
            mask,
        )

    def ord_side(batch: pa.Table) -> pa.Table:
        f = batch.filter(pc.equal(batch["o_orderstatus"], "F"))
        return _widen({"key": f["o_orderkey"]}, superset, 1, "key", mask)

    superset = pa.schema(
        [
            ("key", pa.int64()),
            ("s_suppkey", pa.int64()),
            ("ret", pa.int64()),
            ("side", pa.int8()),
            ("bucket", pa.int64()),
        ]
    )

    out_schema = pa.schema([("s_suppkey", pa.int64()), ("numwait", pa.int64())])

    def wait_bucket(group: pa.Table) -> pa.Table:
        f_keys = group.filter(pc.equal(group["side"], 1))["key"].combine_chunks()
        li = group.filter(pc.equal(group["side"], 0))
        if li.num_rows == 0 or len(f_keys) == 0:
            return out_schema.empty_table()
        li = li.filter(pc.is_in(li["key"], value_set=f_keys))
        osl = (
            li.select(["key", "s_suppkey", "ret"])
            .group_by(["key", "s_suppkey"])
            .aggregate([("ret", "max")])
            .rename_columns(["key", "s_suppkey", "ret"])
        )
        per_order = (
            osl.group_by("key")
            .aggregate([([], "count_all"), ("ret", "sum")])
            .rename_columns(["key", "ns", "nr"])
        )
        j = osl.join(per_order, keys=["key"], join_type="inner")
        keep = pc.and_(
            pc.equal(j["ret"], pa.scalar(1, pa.int64())),
            pc.and_(
                pc.greater(j["ns"], pa.scalar(1, pa.int64())),
                pc.equal(j["nr"], pa.scalar(1, pa.int64())),
            ),
        )
        hits = j.filter(keep)
        return (
            pa.table({"s_suppkey": hits["s_suppkey"]})
            .group_by("s_suppkey")
            .aggregate([([], "count_all")])
            .rename_columns(["s_suppkey", "numwait"])
        )

    sup = _broadcast_table(sf_dir, "supplier", ["s_suppkey", "s_name"])
    sname_of = _lookup(sup["s_suppkey"], sup["s_name"])

    def finish(batch: pa.Table) -> pa.Table:
        return pa.table(
            {
                "s_suppkey": batch["s_suppkey"],
                "s_name": sname_of(batch["s_suppkey"]),
                "numwait": batch["numwait"],
            }
        )

    from ray.data.aggregate import Sum

    li = read_table(
        sf_dir, "lineitem", columns=["l_orderkey", "l_suppkey", "l_returnflag"]
    ).map_batches(li_partial, batch_format="pyarrow", zero_copy_batch=True)
    orders = read_table(sf_dir, "orders", columns=["o_orderkey", "o_orderstatus"]).map_batches(
        ord_side, batch_format="pyarrow", zero_copy_batch=True
    )

    return (
        bucket_exchange(
            li.union(orders), wait_bucket, schema=superset, out_schema=out_schema
        )
        .groupby("s_suppkey")
        .aggregate(Sum("numwait", alias_name="numwait"))
        .map_batches(finish, batch_format="pyarrow", zero_copy_batch=True)
        .sort(["numwait", "s_suppkey"], descending=[True, False])
    )


Q21_SQL = """
WITH osl AS (
  SELECT l_orderkey, l_suppkey,
         max(CASE WHEN l_returnflag = 'R' THEN 1 ELSE 0 END) AS ret
  FROM lineitem
  GROUP BY l_orderkey, l_suppkey
),
ord AS (
  SELECT l_orderkey, CAST(count(*) AS BIGINT) AS ns, CAST(sum(ret) AS BIGINT) AS nr
  FROM osl GROUP BY l_orderkey
)
SELECT osl.l_suppkey AS s_suppkey, s_name, CAST(count(*) AS BIGINT) AS numwait
FROM osl
JOIN ord USING (l_orderkey)
JOIN orders ON l_orderkey = o_orderkey AND o_orderstatus = 'F'
JOIN supplier ON osl.l_suppkey = s_suppkey
WHERE ret = 1 AND ns > 1 AND nr = 1
GROUP BY osl.l_suppkey, s_name
ORDER BY numwait DESC, s_suppkey
"""


# ---------------------------------------------------------------------------
# SCD Type 2: customer order-status history as validity intervals
# ---------------------------------------------------------------------------

_SCD2_SENTINEL = "9999-12-31"


def scd2_customer_status(sf_dir: str) -> ray.data.Dataset:
    """Slowly-changing-dimension (Type 2) build: per customer, consecutive
    runs of equal order status (ordered by o_orderdate, o_orderkey)
    collapsed to versioned validity intervals [valid_from, valid_to) —
    valid_to is the NEXT run's start, the open current run gets the
    {sentinel} sentinel.  The gaps-and-islands + LEAD window shape, i.e.
    how a warehouse derives a dimension history from an event log.

    Plan: ONE customer-bucketed exchange (timestamps ride as exact int64
    us); each bucket sorts once by (custkey, date_us, orderkey) and derives
    run breaks / run ids / versions / next-run starts with vectorized
    pandas shifts and cumsums — no Python loop, no window re-shuffle per
    analytic function.  A run never spans buckets (bucket = f(custkey)).
    """
    import pandas as pd

    n_buckets = _order_buckets(sf_dir)
    mask = pa.scalar(n_buckets - 1, pa.int64())
    ds = read_table(
        sf_dir,
        "orders",
        columns=["o_custkey", "o_orderdate", "o_orderstatus", "o_orderkey"],
    )

    union_schema = pa.schema(
        [
            ("o_custkey", pa.int64()),
            ("date_us", pa.int64()),
            ("o_orderstatus", pa.string()),
            ("o_orderkey", pa.int64()),
            ("bucket", pa.int64()),
        ]
    )

    def emit(batch: pa.Table) -> pa.Table:
        t = pa.table(
            {
                "o_custkey": pc.cast(batch["o_custkey"], pa.int64()),
                "date_us": pc.cast(
                    pc.cast(batch["o_orderdate"], pa.timestamp("us")), pa.int64()
                ),
                "o_orderstatus": batch["o_orderstatus"],
                "o_orderkey": pc.cast(batch["o_orderkey"], pa.int64()),
            }
        )
        return t.append_column("bucket", pc.bit_wise_and(t["o_custkey"], mask))

    out_schema = pa.schema(
        [
            ("o_custkey", pa.int64()),
            ("version", pa.int64()),
            ("o_orderstatus", pa.string()),
            ("valid_from", pa.timestamp("us")),
            ("valid_to", pa.timestamp("us")),
            ("n_orders", pa.int64()),
        ]
    )
    sentinel_us = int(
        pa.scalar(_SCD2_SENTINEL).cast(pa.timestamp("us")).cast(pa.int64()).as_py()
    )

    def runs_bucket(group: pa.Table) -> pa.Table:
        df = (
            group.to_pandas()
            .sort_values(["o_custkey", "date_us", "o_orderkey"], kind="stable")
            .reset_index(drop=True)
        )
        new_cust = df["o_custkey"].ne(df["o_custkey"].shift())
        brk = new_cust | df["o_orderstatus"].ne(df["o_orderstatus"].shift())
        df["gid"] = brk.cumsum()
        runs = (
            df.groupby("gid", as_index=False)
            .agg(
                o_custkey=("o_custkey", "first"),
                o_orderstatus=("o_orderstatus", "first"),
                from_us=("date_us", "first"),
                n_orders=("date_us", "size"),
            )
            .sort_values("gid", kind="stable")
        )
        runs["version"] = runs.groupby("o_custkey").cumcount() + 1
        nxt = runs["from_us"].shift(-1)
        same = runs["o_custkey"].eq(runs["o_custkey"].shift(-1))
        to_us = nxt.where(same, other=float(sentinel_us)).astype("int64")
        return pa.table(
            {
                "o_custkey": pa.array(runs["o_custkey"].to_numpy(), pa.int64()),
                "version": pa.array(
                    runs["version"].to_numpy().astype(np.int64), pa.int64()
                ),
                "o_orderstatus": pa.array(runs["o_orderstatus"], pa.string()),
                "valid_from": pc.cast(
                    pa.array(runs["from_us"].to_numpy(), pa.int64()),
                    pa.timestamp("us"),
                ),
                "valid_to": pc.cast(
                    pa.array(to_us.to_numpy(), pa.int64()), pa.timestamp("us")
                ),
                "n_orders": pa.array(
                    runs["n_orders"].to_numpy().astype(np.int64), pa.int64()
                ),
            }
        )

    return (
        bucket_exchange(
            ds, runs_bucket, schema=union_schema, out_schema=out_schema, emit=emit
        )
        .map_batches(
            _pin_timestamp_us(["valid_from", "valid_to"]),
            batch_format="pyarrow",
        )
        .sort(["o_custkey", "version"])
    )


SCD2_SQL = f"""
WITH seq AS (
  SELECT o_custkey, o_orderstatus, o_orderdate, o_orderkey,
         row_number() OVER w AS rn,
         CASE WHEN lag(o_orderstatus) OVER w IS DISTINCT FROM o_orderstatus
              THEN 1 ELSE 0 END AS brk
  FROM orders
  WINDOW w AS (PARTITION BY o_custkey ORDER BY o_orderdate, o_orderkey)
),
runs AS (
  SELECT *, sum(brk) OVER (PARTITION BY o_custkey ORDER BY rn) AS run_id
  FROM seq
),
agg AS (
  SELECT o_custkey, run_id,
         min(o_orderstatus) AS o_orderstatus,
         min(o_orderdate) AS valid_from,
         count(*) AS n_orders
  FROM runs GROUP BY o_custkey, run_id
)
SELECT o_custkey, CAST(run_id AS BIGINT) AS version, o_orderstatus, valid_from,
       coalesce(lead(valid_from) OVER (PARTITION BY o_custkey ORDER BY run_id),
                TIMESTAMP '{_SCD2_SENTINEL}') AS valid_to,
       CAST(n_orders AS BIGINT) AS n_orders
FROM agg ORDER BY o_custkey, version
"""

scd2_customer_status.__doc__ = scd2_customer_status.__doc__.format(
    sentinel=_SCD2_SENTINEL
)


# ---------------------------------------------------------------------------
# diversified top-k: global ranking under a per-group quota
# ---------------------------------------------------------------------------

def top_orders_diversified(
    sf_dir: str, *, k: int = 20, per_cust: int = 3
) -> ray.data.Dataset:
    """Global top-``k`` orders by price with AT MOST ``per_cust`` per
    customer — the diversified-ranking shape (search results, feed
    ranking): a plain top-k would let one whale customer fill the page.

    Plan: per-customer quota enforced inside ONE customer-bucketed
    exchange (sort + cumcount per bucket, fully vectorized), then the
    small survivor stream (<= per_cust x customers rows) feeds the global
    sort/limit.  Ties break by orderkey on both engines."""
    import pandas as pd

    n_buckets = _order_buckets(sf_dir)
    mask = pa.scalar(n_buckets - 1, pa.int64())
    ds = read_table(
        sf_dir, "orders", columns=["o_orderkey", "o_custkey", "o_totalprice"]
    )

    def emit(batch: pa.Table) -> pa.Table:
        t = pa.table(
            {
                "o_orderkey": pc.cast(batch["o_orderkey"], pa.int64()),
                "o_custkey": pc.cast(batch["o_custkey"], pa.int64()),
                "o_totalprice": pc.cast(batch["o_totalprice"], pa.float64()),
            }
        )
        return t.append_column("bucket", pc.bit_wise_and(t["o_custkey"], mask))

    out_schema = pa.schema(
        [
            ("o_orderkey", pa.int64()),
            ("o_custkey", pa.int64()),
            ("o_totalprice", pa.float64()),
        ]
    )

    def quota_bucket(group: pa.Table) -> pa.Table:
        df = (
            group.to_pandas()
            .sort_values(
                ["o_custkey", "o_totalprice", "o_orderkey"],
                ascending=[True, False, True],
                kind="stable",
            )
        )
        kept = df[df.groupby("o_custkey").cumcount() < per_cust]
        return pa.Table.from_pandas(kept, schema=out_schema, preserve_index=False)

    return (
        bucket_exchange(
            ds,
            quota_bucket,
            schema=out_schema.append(pa.field("bucket", pa.int64())),
            out_schema=out_schema,
            emit=emit,
        )
        .sort(["o_totalprice", "o_orderkey"], descending=[True, False])
        .limit(k)
    )


TOP_ORDERS_DIVERSIFIED_SQL = """
WITH r AS (
  SELECT o_orderkey, o_custkey, o_totalprice,
         row_number() OVER (PARTITION BY o_custkey
                            ORDER BY o_totalprice DESC, o_orderkey) AS rn
  FROM orders
)
SELECT o_orderkey, o_custkey, o_totalprice
FROM r WHERE rn <= 3
ORDER BY o_totalprice DESC, o_orderkey
LIMIT 20
"""


# ---------------------------------------------------------------------------
# month-over-month growth: window over an aggregate
# ---------------------------------------------------------------------------

def revenue_mom_growth(sf_dir: str) -> pa.Table:
    """Monthly revenue with month-over-month growth in ppm — the
    LAG-over-aggregate shape.  Months fold from per-batch partials (exact
    int64 cents); the window runs on the driver over the bounded monthly
    series.  growth_ppm uses TRUNCATING integer division (DuckDB ``//``)
    because declines are negative; the first month drops (no prior)."""
    from ray.data.aggregate import Sum

    from ..functions.stats_tests import _trunc_div

    ds = read_table(sf_dir, "orders", columns=["o_orderdate", "o_totalprice"])

    part_schema = pa.schema([("month_us", pa.int64()), ("cents", pa.int64())])

    def partial(batch: pa.Table) -> pa.Table:
        if batch.num_rows == 0 or batch.num_columns == 0:
            return part_schema.empty_table()
        month = pc.cast(
            pc.floor_temporal(
                pc.cast(batch["o_orderdate"], pa.timestamp("us")), unit="month"
            ),
            pa.int64(),
        )
        cents = pc.cast(
            pc.round(pc.multiply(batch["o_totalprice"], pa.scalar(100.0))), pa.int64()
        )
        return (
            pa.table({"month_us": month, "cents": cents})
            .group_by("month_us")
            .aggregate([("cents", "sum")])
            .rename_columns(["month_us", "cents"])
        )

    rows = sorted(
        (
            ds.map_batches(partial, batch_format="pyarrow", zero_copy_batch=True)
            .groupby("month_us")
            .aggregate(Sum("cents", alias_name="cents"))
            .take_all()  # bounded by the order-date month span
        ),
        key=lambda r: r["month_us"],
    )
    out = {"month": [], "revenue": [], "growth_ppm": []}
    prev = None
    for r in rows:
        cents = int(r["cents"])
        if prev is not None:
            out["month"].append(int(r["month_us"]))
            out["revenue"].append(cents / 100.0)
            out["growth_ppm"].append(_trunc_div((cents - prev) * 1_000_000, prev))
        prev = cents
    return pa.table(
        {
            "month": pc.cast(pa.array(out["month"], pa.int64()), pa.timestamp("us")),
            "revenue": pa.array(out["revenue"], pa.float64()),
            "growth_ppm": pa.array(out["growth_ppm"], pa.int64()),
        }
    )


REVENUE_MOM_GROWTH_SQL = """
WITH m AS (
  SELECT date_trunc('month', o_orderdate) AS month,
         sum(CAST(round(o_totalprice * 100) AS BIGINT)) AS cents
  FROM orders GROUP BY 1
),
w AS (
  SELECT month, cents, lag(cents) OVER (ORDER BY month) AS prev FROM m
)
SELECT month, cents / 100.0 AS revenue,
       CAST((cents - prev) * 1000000 // prev AS BIGINT) AS growth_ppm
FROM w WHERE prev IS NOT NULL
ORDER BY month
"""
