"""Warehouse-maintenance and temporal-dimension shapes over the TPC-H-ish
tables — four operators a lakehouse engine runs that the relational /
behavior surface does not yet cover:

- ``lineitem_status_pit``       : SCD2 point-in-time dimension join — each
  lineitem (a fact at ``l_shipdate``) attached to the customer-status
  version valid WHEN IT SHIPPED.  Ship dates lag order dates by months, so
  ~63% of items ship under a different status version than they were
  ordered under (measured at sf0.001) — the join is genuinely temporal.
- ``revenue_time_rollup``       : multi-grain time rollup (day/month/year)
  off ONE day-grain partial exchange — GROUPING SETS on the time axis
  (the dimension-axis ROLLUP lives in ``revenue_rollup``).
- ``events_time_weighted_value``: per-user time-weighted average of
  ``value`` (each event's value held until the user's next event) — the
  TWAP / time-in-state integral, LEAD-duration weighting.
- ``orders_content_checksum``   : order-invariant per-group content
  checksum (mod-p polynomial row hash + commutative mod-p sum) — the
  cross-engine migration audit: two engines holding the same rows produce
  the same checksum regardless of partitioning or row order.  This is how
  you verify a 100 TB copy without sorting either side.

Exactness contract: money rides as int64 cents (1e-4 units for
price*(1-discount)); durations as whole int64 seconds (microsecond floor
division — NOT round()); checksums entirely in mod-p int64 arithmetic
(p = 2^31 - 1, products bounded < 2^63); the only floats are final
divisions of exact integers, mirrored op-for-op in the oracle SQL.

Reference parity: the reference (docling-jobkit) has no warehouse surface;
these document the Ray-Data-native shapes of standard lakehouse queries
(SURVEY.md §2.6/§2.7 extensions).
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc
import ray.data

from ..exchange import bucket_exchange
from ..functions.stats_tests import _trunc_div
from ..sources.pages import read_table
from .relational import (
    _CDC_INSERT_OFF,
    _pin_timestamp_us,
    _user_bucket_adder,
    _user_buckets,
    _widen,
)
from .tpch_supp import _cents

_P = 2_147_483_647  # 2^31 - 1 (Mersenne prime): the mod-p checksum domain
_US_PER_DAY = 86_400_000_000


def _order_buckets(sf_dir: str, *, min_buckets: int = 64) -> int:
    from ..scale import bucket_count, estimate_rows

    return bucket_count(estimate_rows(sf_dir, "orders"), min_buckets=min_buckets)


# ---------------------------------------------------------------------------
# SCD2 point-in-time join: fact at ship date -> status version then valid
# ---------------------------------------------------------------------------


def lineitem_status_pit(sf_dir: str) -> ray.data.Dataset:
    """Revenue / quantity / item counts grouped by the customer's order
    status AS OF EACH ITEM'S SHIP DATE — the SCD2 point-in-time dimension
    join (Kimball's "type 2 lookup"), the temporal-join shape every
    warehouse needs once a dimension is versioned.

    Plan: TWO bucketed exchanges, both key-hash bounded.
      1. orderkey bucket: lineitem partials (pre-aggregated to
         (orderkey, ship_day) with item counts / qty cents / revenue 1e-4
         units) join the (orderkey -> custkey) map — the FK resolve.
      2. custkey bucket: the resolved facts co-shuffle with the raw orders
         rows (tagged union, ONE all-to-all); each bucket derives the SCD2
         runs with vectorized pandas shifts (same gaps-and-islands kernel
         as ``scd2_customer_status``), dedups same-day run starts to the
         LATEST version (an interval [d, d) is empty — an event at d
         belongs to the later run), and lands every fact in its interval
         with ONE ``pandas.merge_asof(by=custkey)``.
    Per-bucket partial sums fold through a 3-row final groupby; no driver
    materialization is data-proportional.
    """
    n_buckets = _order_buckets(sf_dir)
    mask = pa.scalar(n_buckets - 1, pa.int64())

    # ---- exchange 1: resolve o_custkey onto lineitem facts ----
    ex1 = pa.schema(
        [
            ("key", pa.int64()),
            ("ship_us", pa.int64()),
            ("n_items", pa.int64()),
            ("qty_c", pa.int64()),
            ("rev_c4", pa.int64()),
            ("o_custkey", pa.int64()),
            ("side", pa.int8()),
            ("bucket", pa.int64()),
        ]
    )

    def li_partial(batch: pa.Table) -> pa.Table:
        if batch.num_rows == 0 or batch.num_columns == 0:
            return ex1.empty_table()
        t = pa.table(
            {
                "key": batch["l_orderkey"],
                "ship_us": pc.cast(
                    pc.cast(batch["l_shipdate"], pa.timestamp("us")), pa.int64()
                ),
                "qty_c": _cents(batch["l_quantity"]),
                "rev_c4": pc.multiply(
                    _cents(batch["l_extendedprice"]),
                    pc.subtract(
                        pa.scalar(100, pa.int64()), _cents(batch["l_discount"])
                    ),
                ),
            }
        )
        g = (
            t.group_by(["key", "ship_us"])
            .aggregate([("qty_c", "sum"), ("rev_c4", "sum"), ("key", "count")])
            .rename_columns(["key", "ship_us", "qty_c", "rev_c4", "n_items"])
        )
        return _widen(
            {
                "key": g["key"],
                "ship_us": g["ship_us"],
                "n_items": g["n_items"],
                "qty_c": g["qty_c"],
                "rev_c4": g["rev_c4"],
            },
            ex1,
            0,
            "key",
            mask,
        )

    def ord_map(batch: pa.Table) -> pa.Table:
        if batch.num_rows == 0 or batch.num_columns == 0:
            return ex1.empty_table()
        return _widen(
            {"key": batch["o_orderkey"], "o_custkey": batch["o_custkey"]},
            ex1,
            1,
            "key",
            mask,
        )

    # exchange-2 tagged union: resolved facts (side=1) + raw dim rows (side=0)
    ex2 = pa.schema(
        [
            ("cust", pa.int64()),
            ("ship_us", pa.int64()),
            ("n_items", pa.int64()),
            ("qty_c", pa.int64()),
            ("rev_c4", pa.int64()),
            ("date_us", pa.int64()),
            ("status", pa.string()),
            ("okey", pa.int64()),
            ("side", pa.int8()),
            ("bucket", pa.int64()),
        ]
    )

    def resolve_bucket(group: pa.Table) -> pa.Table:
        facts = group.filter(pc.equal(group["side"], 0)).select(
            ["key", "ship_us", "n_items", "qty_c", "rev_c4"]
        )
        omap = group.filter(pc.equal(group["side"], 1)).select(["key", "o_custkey"])
        if facts.num_rows == 0 or omap.num_rows == 0:
            return ex2.empty_table()
        j = facts.join(omap, keys=["key"], join_type="inner")
        return _widen(
            {
                "cust": j["o_custkey"],
                "ship_us": j["ship_us"],
                "n_items": j["n_items"],
                "qty_c": j["qty_c"],
                "rev_c4": j["rev_c4"],
            },
            ex2,
            1,
            "cust",
            mask,
        )

    def dim_side(batch: pa.Table) -> pa.Table:
        if batch.num_rows == 0 or batch.num_columns == 0:
            return ex2.empty_table()
        date = pc.cast(pc.cast(batch["o_orderdate"], pa.timestamp("us")), pa.int64())
        return _widen(
            {
                "cust": batch["o_custkey"],
                "date_us": date,
                "status": batch["o_orderstatus"],
                "okey": batch["o_orderkey"],
            },
            ex2,
            0,
            "cust",
            mask,
        )

    part_schema = pa.schema(
        [
            ("status_at_ship", pa.string()),
            ("n_items", pa.int64()),
            ("qty_c", pa.int64()),
            ("rev_c4", pa.int64()),
        ]
    )

    def pit_bucket(group: pa.Table) -> pa.Table:
        dim = group.filter(pc.equal(group["side"], 0))
        facts = group.filter(pc.equal(group["side"], 1))
        if dim.num_rows == 0 or facts.num_rows == 0:
            return part_schema.empty_table()
        d = (
            dim.select(["cust", "date_us", "status", "okey"])
            .to_pandas()
            .sort_values(["cust", "date_us", "okey"], kind="stable")
            .reset_index(drop=True)
        )
        new_cust = d["cust"].ne(d["cust"].shift())
        brk = new_cust | d["status"].ne(d["status"].shift())
        d["gid"] = brk.cumsum()
        runs = (
            d.groupby("gid", as_index=False)
            .agg(cust=("cust", "first"), status=("status", "first"), from_us=("date_us", "first"))
            .sort_values("gid", kind="stable")
        )
        # same-day run starts: [d, d) is empty -> the LATER version wins
        runs = runs.drop_duplicates(["cust", "from_us"], keep="last")
        f = (
            facts.select(["cust", "ship_us", "n_items", "qty_c", "rev_c4"])
            .to_pandas()
            .sort_values("ship_us", kind="stable")
        )
        m = pd.merge_asof(
            f,
            runs[["cust", "from_us", "status"]].sort_values("from_us", kind="stable"),
            left_on="ship_us",
            right_on="from_us",
            by="cust",
            direction="backward",
        ).dropna(subset=["status"])
        agg = m.groupby("status", as_index=False).agg(
            n_items=("n_items", "sum"), qty_c=("qty_c", "sum"), rev_c4=("rev_c4", "sum")
        )
        return pa.table(
            {
                "status_at_ship": pa.array(agg["status"], pa.string()),
                "n_items": pa.array(agg["n_items"].to_numpy(np.int64), pa.int64()),
                "qty_c": pa.array(agg["qty_c"].to_numpy(np.int64), pa.int64()),
                "rev_c4": pa.array(agg["rev_c4"].to_numpy(np.int64), pa.int64()),
            }
        )

    from ray.data.aggregate import Sum

    def finish(batch: pa.Table) -> pa.Table:
        return pa.table(
            {
                "status_at_ship": batch["status_at_ship"],
                "n_items": batch["n_items"],
                "sum_qty": pc.divide(
                    pc.cast(batch["qty_c"], pa.float64()), pa.scalar(100.0)
                ),
                "revenue": pc.divide(
                    pc.cast(batch["rev_c4"], pa.float64()), pa.scalar(10000.0)
                ),
            }
        )

    li = read_table(
        sf_dir,
        "lineitem",
        columns=["l_orderkey", "l_shipdate", "l_quantity", "l_extendedprice", "l_discount"],
    ).map_batches(li_partial, batch_format="pyarrow", zero_copy_batch=True)
    omap = read_table(sf_dir, "orders", columns=["o_orderkey", "o_custkey"]).map_batches(
        ord_map, batch_format="pyarrow", zero_copy_batch=True
    )
    facts = bucket_exchange(li.union(omap), resolve_bucket, schema=ex1, out_schema=ex2)
    dim = read_table(
        sf_dir, "orders", columns=["o_custkey", "o_orderdate", "o_orderstatus", "o_orderkey"]
    ).map_batches(dim_side, batch_format="pyarrow", zero_copy_batch=True)
    return (
        bucket_exchange(
            facts.union(dim), pit_bucket, schema=ex2, out_schema=part_schema
        )
        .groupby("status_at_ship")
        .aggregate(
            Sum("n_items", alias_name="n_items"),
            Sum("qty_c", alias_name="qty_c"),
            Sum("rev_c4", alias_name="rev_c4"),
        )
        .map_batches(finish, batch_format="pyarrow", zero_copy_batch=True)
        .sort("status_at_ship")
    )


LINEITEM_STATUS_PIT_SQL = """
WITH seq AS (
  SELECT o_custkey, o_orderstatus, o_orderdate, o_orderkey,
         CASE WHEN lag(o_orderstatus) OVER w IS DISTINCT FROM o_orderstatus
              THEN 1 ELSE 0 END AS brk
  FROM orders
  WINDOW w AS (PARTITION BY o_custkey ORDER BY o_orderdate, o_orderkey)
),
runs AS (
  SELECT *, sum(brk) OVER (PARTITION BY o_custkey
                           ORDER BY o_orderdate, o_orderkey
                           ROWS UNBOUNDED PRECEDING) AS run_id
  FROM seq
),
dim0 AS (
  SELECT o_custkey, run_id, min(o_orderstatus) AS status,
         min(o_orderdate) AS valid_from
  FROM runs GROUP BY o_custkey, run_id
),
dim AS (
  SELECT * FROM dim0
  QUALIFY row_number() OVER (PARTITION BY o_custkey, valid_from
                             ORDER BY run_id DESC) = 1
),
fact AS (
  SELECT o_custkey, l_shipdate,
         CAST(round(l_quantity*100) AS BIGINT) AS qty_c,
         CAST(round(l_extendedprice*100) AS BIGINT)
           * (100 - CAST(round(l_discount*100) AS BIGINT)) AS rev_c4
  FROM lineitem JOIN orders ON l_orderkey = o_orderkey
)
SELECT d.status AS status_at_ship,
       CAST(count(*) AS BIGINT) AS n_items,
       CAST(sum(f.qty_c) AS BIGINT) / 100.0 AS sum_qty,
       CAST(sum(f.rev_c4) AS BIGINT) / 10000.0 AS revenue
FROM fact f
ASOF JOIN dim d ON f.o_custkey = d.o_custkey AND f.l_shipdate >= d.valid_from
GROUP BY status_at_ship
ORDER BY status_at_ship
"""


# ---------------------------------------------------------------------------
# multi-grain time rollup (GROUPING SETS on the time axis)
# ---------------------------------------------------------------------------


def revenue_time_rollup(sf_dir: str) -> pa.Table:
    """Order counts and revenue at THREE time grains (day / month / year)
    from ONE day-grain exchange: per-batch partials pre-aggregate to the
    day, a single groupby folds them, and the month/year grains derive
    from the day rows on the driver — the day-grain result is bounded by
    the CALENDAR domain (~2.4k distinct days for a 7-year corpus at any
    scale factor), not by the data, so the driver finish is safe at 100x.
    """
    from ray.data.aggregate import Sum

    ds = read_table(sf_dir, "orders", columns=["o_orderdate", "o_totalprice"])

    def partial(batch: pa.Table) -> pa.Table:
        if batch.num_rows == 0 or batch.num_columns == 0:
            return pa.schema(
                [("day_us", pa.int64()), ("cents", pa.int64()), ("n", pa.int64())]
            ).empty_table()
        date_us = pc.cast(pc.cast(batch["o_orderdate"], pa.timestamp("us")), pa.int64())
        day_us = pc.multiply(
            pc.divide(date_us, pa.scalar(_US_PER_DAY, pa.int64())),
            pa.scalar(_US_PER_DAY, pa.int64()),
        )
        t = pa.table({"day_us": day_us, "cents": _cents(batch["o_totalprice"])})
        return (
            t.group_by("day_us")
            .aggregate([("cents", "sum"), ("cents", "count")])
            .rename_columns(["day_us", "cents", "n"])
        )

    days = (
        ds.map_batches(partial, batch_format="pyarrow", zero_copy_batch=True)
        .groupby("day_us")
        .aggregate(Sum("cents", alias_name="cents"), Sum("n", alias_name="n"))
        .take_all()
    )  # bounded by the calendar domain, not the row count
    df = pd.DataFrame(days).sort_values("day_us").reset_index(drop=True)
    day_ts = df["day_us"].to_numpy(np.int64).astype("datetime64[us]")
    frames = []
    for grain, trunc in (("day", "D"), ("month", "M"), ("year", "Y")):
        start = day_ts.astype(f"datetime64[{trunc}]").astype("datetime64[us]")
        g = (
            pd.DataFrame(
                {
                    "period_start": start.astype(np.int64),
                    "n_orders": df["n"].to_numpy(np.int64),
                    "cents": df["cents"].to_numpy(np.int64),
                }
            )
            .groupby("period_start", as_index=False)
            .sum()
        )
        g.insert(0, "grain", grain)
        frames.append(g)
    out = pd.concat(frames, ignore_index=True).sort_values(
        ["grain", "period_start"], kind="stable"
    )
    return pa.table(
        {
            "grain": pa.array(out["grain"], pa.string()),
            "period_start": pc.cast(
                pa.array(out["period_start"].to_numpy(np.int64), pa.int64()),
                pa.timestamp("us"),
            ),
            "n_orders": pa.array(out["n_orders"].to_numpy(np.int64), pa.int64()),
            "revenue": pa.array(
                out["cents"].to_numpy(np.int64).astype(np.float64) / 100.0,
                pa.float64(),
            ),
        }
    )


REVENUE_TIME_ROLLUP_SQL = """
WITH g AS (
  SELECT date_trunc('day', o_orderdate) AS d,
         date_trunc('month', o_orderdate) AS m,
         date_trunc('year', o_orderdate) AS y,
         CAST(round(o_totalprice*100) AS BIGINT) AS cents
  FROM orders
)
SELECT CASE WHEN GROUPING(d) = 0 THEN 'day'
            WHEN GROUPING(m) = 0 THEN 'month'
            ELSE 'year' END AS grain,
       CAST(coalesce(d, m, y) AS TIMESTAMP) AS period_start,
       CAST(count(*) AS BIGINT) AS n_orders,
       CAST(sum(cents) AS BIGINT) / 100.0 AS revenue
FROM g GROUP BY GROUPING SETS ((d), (m), (y))
ORDER BY grain, period_start
"""


# ---------------------------------------------------------------------------
# per-user time-weighted average value (TWAP / time-in-state integral)
# ---------------------------------------------------------------------------


def events_time_weighted_value(
    sf_dir: str, *, n_buckets: int | None = None
) -> ray.data.Dataset:
    """Per-user TIME-WEIGHTED average of ``value``: each event's value
    holds until the user's next event, weighted by that duration in whole
    seconds — the TWAP / time-in-state integral (how metric systems
    average a gauge, vs the row-weighted mean in events_user_stats).

    Exactness: value quantized to int64 cents per row; durations are
    exact int64 seconds (us floor-div, positive); the weighted sum is an
    int64*int64 product sum.  The ONLY float is the final
    num/den/100.0 — two IEEE ops in the same order in both engines.
    Users never span buckets, so the per-bucket fold emits final rows
    directly (no second exchange)."""
    ds = read_table(sf_dir, "events", columns=["user_id", "ts", "event_id", "value"])
    add_bucket = _user_bucket_adder(_user_buckets(sf_dir, n_buckets))

    out_schema = pa.schema(
        [
            ("user_id", pa.int64()),
            ("n_intervals", pa.int64()),
            ("total_dur_s", pa.int64()),
            ("twav", pa.float64()),
        ]
    )

    wire_schema = pa.schema(
        [(c, pa.int64()) for c in ("user_id", "ts_us", "event_id", "cents", "bucket")]
    )

    def emit(batch: pa.Table) -> pa.Table:
        t = pa.table(
            {
                "user_id": batch["user_id"],
                "ts_us": pc.cast(pc.cast(batch["ts"], pa.timestamp("us")), pa.int64()),
                "event_id": batch["event_id"],
                "cents": _cents(batch["value"]),
            }
        )
        return add_bucket(t)

    def per_bucket(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values(["user_id", "ts_us", "event_id"]).reset_index(drop=True)
        user = g["user_id"].to_numpy(np.int64)
        ts = g["ts_us"].to_numpy(np.int64)
        cents = g["cents"].to_numpy(np.int64)
        same = np.r_[user[:-1] == user[1:], False]
        dur_s = np.zeros(len(g), dtype=np.int64)
        dur_s[same] = (ts[1:][same[:-1]] - ts[:-1][same[:-1]]) // 1_000_000
        d = pd.DataFrame(
            {
                "user_id": user[same],
                "dur_s": dur_s[same],
                "num": cents[same] * dur_s[same],
            }
        )
        agg = d.groupby("user_id", as_index=False).agg(
            n_intervals=("dur_s", "size"),
            total_dur_s=("dur_s", "sum"),
            num=("num", "sum"),
        )
        agg = agg[agg["total_dur_s"] > 0]
        twav = (
            agg["num"].to_numpy(np.int64).astype(np.float64)
            / agg["total_dur_s"].to_numpy(np.int64).astype(np.float64)
            / 100.0
        )
        return pd.DataFrame(
            {
                "user_id": agg["user_id"].astype("int64"),
                "n_intervals": agg["n_intervals"].astype("int64"),
                "total_dur_s": agg["total_dur_s"].astype("int64"),
                "twav": twav,
            }
        )

    return (
        bucket_exchange(
            ds,
            per_bucket,
            schema=wire_schema,
            out_schema=out_schema,
            emit=emit,
            batch_format="pandas",
        )
        .map_batches(
            lambda b: b.select(out_schema.names).cast(out_schema)
            if b.num_rows
            else out_schema.empty_table(),
            batch_format="pyarrow",
        )
        .sort("user_id")
    )


EVENTS_TWAV_SQL = """
WITH seq AS (
  SELECT user_id, CAST(round(value*100) AS BIGINT) AS cents,
         (epoch_us(lead(ts) OVER (PARTITION BY user_id ORDER BY ts, event_id))
          - epoch_us(ts)) // 1000000 AS dur_s
  FROM events
),
agg AS (
  SELECT user_id,
         CAST(count(*) AS BIGINT) AS n_intervals,
         CAST(sum(dur_s) AS BIGINT) AS total_dur_s,
         CAST(sum(cents * dur_s) AS BIGINT) AS num
  FROM seq WHERE dur_s IS NOT NULL
  GROUP BY user_id HAVING sum(dur_s) > 0
)
SELECT user_id, n_intervals, total_dur_s,
       CAST(num AS DOUBLE) / CAST(total_dur_s AS DOUBLE) / 100.0 AS twav
FROM agg ORDER BY user_id
"""


# ---------------------------------------------------------------------------
# order-invariant content checksum (cross-engine migration audit)
# ---------------------------------------------------------------------------

_CK_A1 = 1_103_515_245
_CK_A2 = 69_069
_CK_A3 = 1_013_904_223
_CK_A4 = 214_013
_CK_MIX = 630_360_016
_CK_C = 999_979


def orders_content_checksum(sf_dir: str) -> ray.data.Dataset:
    """Per-status row count + ORDER-INVARIANT content checksum over the
    orders table: each row hashes to a mod-p polynomial of its key columns
    (p = 2^31 - 1), and the group checksum is the commutative mod-p SUM of
    row hashes — identical no matter how either engine partitions or
    orders the rows.  This is the audit a migration runs to prove two
    copies of a 100 TB table hold the same content without sorting
    either side.

    Overflow discipline (both engines): every per-row term is bounded by
    (p-1) * A_i with sum(A_i) < 2^32, so the pre-mod polynomial stays
    under 2^63; per-batch partial sums of already-reduced hashes (< p)
    stay exact through the final int64 fold; congruence makes
    mod-per-batch-then-sum equal sum-then-mod."""
    from ray.data.aggregate import Sum

    part_schema = pa.schema(
        [("o_orderstatus", pa.string()), ("rh_sum", pa.int64()), ("n_rows", pa.int64())]
    )

    def partial(batch: pa.Table) -> pa.Table:
        if batch.num_rows == 0 or batch.num_columns == 0:
            return part_schema.empty_table()
        okey = batch["o_orderkey"].to_numpy().astype(np.int64)
        ck = batch["o_custkey"].to_numpy().astype(np.int64)
        cents = _cents(batch["o_totalprice"]).to_numpy().astype(np.int64)
        date_us = pc.cast(
            pc.cast(batch["o_orderdate"], pa.timestamp("us")), pa.int64()
        ).to_numpy()
        day = date_us // _US_PER_DAY
        inner = (
            (okey % _P) * _CK_A1
            + (ck % _P) * _CK_A2
            + (cents % _P) * _CK_A3
            + (day % _P) * _CK_A4
        )
        rh = ((inner % _P) * _CK_MIX + _CK_C) % _P
        t = pa.table(
            {"o_orderstatus": batch["o_orderstatus"], "rh": pa.array(rh, pa.int64())}
        )
        g = (
            t.group_by("o_orderstatus")
            .aggregate([("rh", "sum"), ("rh", "count")])
            .rename_columns(["o_orderstatus", "rh_sum", "n_rows"])
        )
        # reduce the partial mod p so downstream sums of partials stay exact
        return g.set_column(1, "rh_sum", pa.array(g["rh_sum"].to_numpy() % _P, pa.int64()))

    def finish(batch: pa.Table) -> pa.Table:
        return pa.table(
            {
                "o_orderstatus": batch["o_orderstatus"],
                "n_rows": batch["n_rows"],
                "checksum": pa.array(
                    batch["rh_sum"].to_numpy() % _P, pa.int64()
                ),
            }
        )

    return (
        read_table(
            sf_dir,
            "orders",
            columns=[
                "o_orderkey",
                "o_custkey",
                "o_totalprice",
                "o_orderdate",
                "o_orderstatus",
            ],
        )
        .map_batches(partial, batch_format="pyarrow", zero_copy_batch=True)
        .groupby("o_orderstatus")
        .aggregate(Sum("rh_sum", alias_name="rh_sum"), Sum("n_rows", alias_name="n_rows"))
        .map_batches(finish, batch_format="pyarrow", zero_copy_batch=True)
        .sort("o_orderstatus")
    )


ORDERS_CONTENT_CHECKSUM_SQL = f"""
WITH h AS (
  SELECT o_orderstatus,
         ((((o_orderkey % {_P}) * {_CK_A1}
            + (o_custkey % {_P}) * {_CK_A2}
            + (CAST(round(o_totalprice*100) AS BIGINT) % {_P}) * {_CK_A3}
            + ((epoch_us(o_orderdate) // {_US_PER_DAY}) % {_P}) * {_CK_A4}
           ) % {_P}) * {_CK_MIX} + {_CK_C}) % {_P} AS rh
  FROM orders
)
SELECT o_orderstatus,
       CAST(count(*) AS BIGINT) AS n_rows,
       CAST(CAST(sum(rh) AS HUGEINT) % {_P} AS BIGINT) AS checksum
FROM h GROUP BY o_orderstatus ORDER BY o_orderstatus
"""


# ---------------------------------------------------------------------------
# Benford first-digit audit (statistical data-quality / fraud screen)
# ---------------------------------------------------------------------------

# floor(log10(1 + 1/d) * 1e6) — the Benford expectation, embedded as exact
# integer ppm constants so BOTH engines compare against identical literals
_BENFORD_PPM = {
    1: 301029, 2: 176091, 3: 124938, 4: 96910, 5: 79181,
    6: 66946, 7: 57991, 8: 51152, 9: 45757,
}


def benford_digit_audit(sf_dir: str) -> ray.data.Dataset:
    """First-significant-digit distribution of order totals vs the Benford
    expectation — the statistical audit screens run on financial columns.

    The leading digit is derived in EXACT integer arithmetic: cents > 0 is
    floor-divided by 10 until one digit remains (18 vectorized halvings
    bound any int64) — never float log10, whose boundary values
    (log10(1000) = 2.9999...) misclassify.  The oracle takes the first
    character of the integer's decimal string — a different exact route to
    the same digit.  Shares are floor-divided ppm (round() is the
    documented cross-engine hazard)."""
    from ray.data.aggregate import Sum

    part_schema = pa.schema([("digit", pa.int64()), ("n", pa.int64())])

    def partial(batch: pa.Table) -> pa.Table:
        if batch.num_rows == 0 or batch.num_columns == 0:
            return part_schema.empty_table()
        d = _cents(batch["o_totalprice"]).to_numpy().astype(np.int64)
        for _ in range(18):  # int64 max has 19 digits
            d = np.where(d >= 10, d // 10, d)
        t = pa.table({"digit": pa.array(d, pa.int64())})
        g = (
            t.group_by("digit")
            .aggregate([("digit", "count")])
            .rename_columns(["digit", "n"])
        )
        return g

    digits = pa.array(sorted(_BENFORD_PPM), pa.int64())
    benford = pa.array([_BENFORD_PPM[k] for k in sorted(_BENFORD_PPM)], pa.int64())

    def finish(t: pa.Table) -> pa.Table:
        total = int(pc.sum(t["n"]).as_py())
        n = t["n"].to_numpy().astype(np.int64)
        share = n * 1_000_000 // total
        exp = (
            pc.take(benford, pc.index_in(t["digit"], value_set=digits))
            .to_numpy(zero_copy_only=False)
            .astype(np.int64)
        )
        return pa.table(
            {
                "digit": t["digit"],
                "n": t["n"],
                "share_ppm": pa.array(share, pa.int64()),
                "benford_ppm": pa.array(exp, pa.int64()),
                "dev_ppm": pa.array(np.abs(share - exp), pa.int64()),
            }
        )

    return (
        read_table(sf_dir, "orders", columns=["o_totalprice"])
        .map_batches(partial, batch_format="pyarrow", zero_copy_batch=True)
        .groupby("digit")
        .aggregate(Sum("n", alias_name="n"))
        # the share needs the GLOBAL total: coalesce the <=9 digit rows into
        # ONE block first (map->map fusion hands finish one upstream block
        # per task — the documented no-coalesce pitfall — so without the
        # repartition each digit would normalize by its own count)
        .repartition(1)
        .map_batches(finish, batch_format="pyarrow", batch_size=None)
        .sort("digit")
    )


BENFORD_DIGIT_AUDIT_SQL = f"""
WITH c AS (
  SELECT CAST(substr(CAST(CAST(round(o_totalprice*100) AS BIGINT) AS VARCHAR), 1, 1)
              AS BIGINT) AS digit
  FROM orders
),
counts AS (
  SELECT digit, CAST(count(*) AS BIGINT) AS n FROM c GROUP BY digit
),
benford(digit, benford_ppm) AS (
  VALUES {", ".join(f"({d}, {p})" for d, p in sorted(_BENFORD_PPM.items()))}
)
SELECT counts.digit, counts.n,
       CAST(counts.n * 1000000 // (SELECT sum(n) FROM counts) AS BIGINT)
         AS share_ppm,
       CAST(benford_ppm AS BIGINT) AS benford_ppm,
       CAST(abs(counts.n * 1000000 // (SELECT sum(n) FROM counts)
                - benford_ppm) AS BIGINT) AS dev_ppm
FROM counts JOIN benford USING (digit)
ORDER BY digit
"""


# ---------------------------------------------------------------------------
# checksum segment diff (the rsync-style locator over two table versions)
# ---------------------------------------------------------------------------

_DIFF_NB = 256  # fixed segment grid: the locator's output granularity is a
# protocol constant (like an rsync block size), NOT scale-derived — the
# output is <= 256 rows at any data size and each segment's checksum folds
# from per-batch partials, so no segment ever materializes its rows.


def orders_checksum_diff(sf_dir: str, *, n_buckets: int | None = None) -> ray.data.Dataset:
    """Locate WHERE two table versions differ without shipping rows: both
    sides fold to (segment, mod-p checksum, count) and only segments whose
    checksums disagree are reported — the rsync / segment-tree protocol a
    replication system runs before fetching data, and the locator read
    that pairs with ``orders_cdc_diff`` (which ships the differing rows).

    Version B derives from base A in the same scan with SPARSE mutations
    (delete ``k%97==5``, reprice ``k%101==7``, insert ``k%103==11`` at
    ``k+10^12``) so most of the 256 segments genuinely match — the audit
    proves equality for them from the checksums alone."""
    from ray.data.aggregate import Sum

    ds = read_table(sf_dir, "orders", columns=["o_orderkey", "o_totalprice"])

    part_schema = pa.schema(
        [
            ("bucket", pa.int64()),
            ("rh_a", pa.int64()),
            ("n_a", pa.int64()),
            ("rh_b", pa.int64()),
            ("n_b", pa.int64()),
        ]
    )

    def _rh(k: np.ndarray, cents: np.ndarray) -> np.ndarray:
        inner = (k % _P) * _CK_A1 + (cents % _P) * _CK_A3
        return ((inner % _P) * _CK_MIX + _CK_C) % _P

    def partial(batch: pa.Table) -> pa.Table:
        if batch.num_rows == 0 or batch.num_columns == 0:
            return part_schema.empty_table()
        k = pc.cast(batch["o_orderkey"], pa.int64()).to_numpy(zero_copy_only=False)
        cents = _cents(batch["o_totalprice"]).to_numpy().astype(np.int64)
        # side A = base; side B = delete / reprice / insert
        keep = k % 97 != 5
        kb = k[keep]
        cb = np.where(kb % 101 == 7, cents[keep] + 100_000, cents[keep])
        ins = k % 103 == 11
        kb = np.concatenate([kb, k[ins] + _CDC_INSERT_OFF])
        cb = np.concatenate([cb, cents[ins]])

        def fold(keys: np.ndarray, vals: np.ndarray) -> pd.DataFrame:
            df = pd.DataFrame({"bucket": keys % _DIFF_NB, "rh": _rh(keys, vals)})
            g = df.groupby("bucket", as_index=False).agg(rh=("rh", "sum"), n=("rh", "size"))
            g["rh"] %= _P
            return g

        a, b = fold(k, cents), fold(kb, cb)
        m = a.merge(b, on="bucket", how="outer", suffixes=("_a", "_b")).fillna(0)
        return pa.table(
            {
                "bucket": pa.array(m["bucket"].to_numpy(np.int64), pa.int64()),
                "rh_a": pa.array(m["rh_a"].to_numpy(np.int64), pa.int64()),
                "n_a": pa.array(m["n_a"].to_numpy(np.int64), pa.int64()),
                "rh_b": pa.array(m["rh_b"].to_numpy(np.int64), pa.int64()),
                "n_b": pa.array(m["n_b"].to_numpy(np.int64), pa.int64()),
            }
        )

    out_schema = pa.schema(
        [
            ("bucket", pa.int64()),
            ("n_base", pa.int64()),
            ("n_new", pa.int64()),
            ("checksum_base", pa.int64()),
            ("checksum_new", pa.int64()),
        ]
    )

    def finish(batch: pa.Table) -> pa.Table:
        if batch.num_rows == 0 or batch.num_columns == 0:
            return out_schema.empty_table()
        ca = batch["rh_a"].to_numpy() % _P
        cb = batch["rh_b"].to_numpy() % _P
        na = batch["n_a"].to_numpy()
        nb = batch["n_b"].to_numpy()
        differ = (ca != cb) | (na != nb)
        return pa.table(
            {
                "bucket": batch["bucket"].filter(pa.array(differ)),
                "n_base": pa.array(na[differ], pa.int64()),
                "n_new": pa.array(nb[differ], pa.int64()),
                "checksum_base": pa.array(ca[differ], pa.int64()),
                "checksum_new": pa.array(cb[differ], pa.int64()),
            }
        )

    return (
        ds.map_batches(partial, batch_format="pyarrow", zero_copy_batch=True)
        .groupby("bucket")
        .aggregate(
            Sum("rh_a", alias_name="rh_a"),
            Sum("n_a", alias_name="n_a"),
            Sum("rh_b", alias_name="rh_b"),
            Sum("n_b", alias_name="n_b"),
        )
        .map_batches(finish, batch_format="pyarrow", zero_copy_batch=True)
        .sort("bucket")
    )


_CK_EXPR = (
    f"((((k % {_P}) * {_CK_A1} + (cents % {_P}) * {_CK_A3}) % {_P})"
    f" * {_CK_MIX} + {_CK_C}) % {_P}"
)

ORDERS_CHECKSUM_DIFF_SQL = f"""
WITH base AS (
  SELECT o_orderkey AS k, CAST(round(o_totalprice*100) AS BIGINT) AS cents
  FROM orders
),
newv AS (
  SELECT k, CASE WHEN k % 101 = 7 THEN cents + 100000 ELSE cents END AS cents
  FROM base WHERE k % 97 != 5
  UNION ALL
  SELECT k + {_CDC_INSERT_OFF} AS k, cents FROM base WHERE k % 103 = 11
),
ha AS (
  SELECT k % {_DIFF_NB} AS bucket,
         CAST(CAST(sum({_CK_EXPR}) AS HUGEINT) % {_P} AS BIGINT) AS checksum_base,
         CAST(count(*) AS BIGINT) AS n_base
  FROM base GROUP BY bucket
),
hb AS (
  SELECT k % {_DIFF_NB} AS bucket,
         CAST(CAST(sum({_CK_EXPR}) AS HUGEINT) % {_P} AS BIGINT) AS checksum_new,
         CAST(count(*) AS BIGINT) AS n_new
  FROM newv GROUP BY bucket
)
SELECT coalesce(ha.bucket, hb.bucket) AS bucket,
       coalesce(n_base, 0) AS n_base,
       coalesce(n_new, 0) AS n_new,
       coalesce(checksum_base, 0) AS checksum_base,
       coalesce(checksum_new, 0) AS checksum_new
FROM ha FULL JOIN hb ON ha.bucket = hb.bucket
WHERE checksum_base IS DISTINCT FROM checksum_new
   OR n_base IS DISTINCT FROM n_new
ORDER BY bucket
"""


# ---------------------------------------------------------------------------
# daily OHLC resample (arg-extreme fold: first/last by time + min/max)
# ---------------------------------------------------------------------------


def events_ohlc_daily(sf_dir: str) -> ray.data.Dataset:
    """Daily OHLC (open / high / low / close) of the event value — the
    time-series resample every metrics/finance stack runs: per day, the
    value of the FIRST event, the extremes, and the value of the LAST
    event, ordered by (ts, event_id) so timestamp ties are deterministic.

    Plan: per-batch partials carry ONE candidate row per (batch, day) for
    each arg-extreme — (first_key, open) and (last_key, close) — plus the
    plain min/max/count; the per-day fold picks the lexicographic
    min/max of the candidate keys.  Arg-extremes are associative, so the
    fold sees n_blocks rows per day, never the day's events; day
    cardinality is calendar-bounded, so the final groupby is tiny."""
    part_schema = pa.schema(
        [
            ("day_us", pa.int64()),
            ("first_ts", pa.int64()),
            ("first_eid", pa.int64()),
            ("open_c", pa.int64()),
            ("last_ts", pa.int64()),
            ("last_eid", pa.int64()),
            ("close_c", pa.int64()),
            ("lo_c", pa.int64()),
            ("hi_c", pa.int64()),
            ("n", pa.int64()),
        ]
    )

    def partial(batch: pa.Table) -> pa.Table:
        ts = pc.cast(pc.cast(batch["ts"], pa.timestamp("us")), pa.int64()).to_numpy()
        eid = batch["event_id"].to_numpy().astype(np.int64)
        cents = _cents(batch["value"]).to_numpy().astype(np.int64)
        day = ts // _US_PER_DAY * _US_PER_DAY
        df = pd.DataFrame({"day_us": day, "ts": ts, "eid": eid, "c": cents})
        df = df.sort_values(["day_us", "ts", "eid"], kind="stable")
        g = df.groupby("day_us", as_index=False).agg(
            first_ts=("ts", "first"),
            first_eid=("eid", "first"),
            open_c=("c", "first"),
            last_ts=("ts", "last"),
            last_eid=("eid", "last"),
            close_c=("c", "last"),
            lo_c=("c", "min"),
            hi_c=("c", "max"),
            n=("c", "size"),
        )
        return pa.Table.from_pandas(g, schema=part_schema, preserve_index=False)

    out_schema = pa.schema(
        [
            ("day", pa.timestamp("us")),
            ("open", pa.float64()),
            ("high", pa.float64()),
            ("low", pa.float64()),
            ("close", pa.float64()),
            ("n_events", pa.int64()),
        ]
    )

    def fold(group: pa.Table) -> pa.Table:
        g = group.to_pandas()
        g = g.sort_values(["first_ts", "first_eid"], kind="stable")
        day = int(g["day_us"].iloc[0])
        open_c = int(g["open_c"].iloc[0])
        g2 = g.sort_values(["last_ts", "last_eid"], kind="stable")
        close_c = int(g2["close_c"].iloc[-1])
        return pa.table(
            {
                "day": pc.cast(pa.array([day], pa.int64()), pa.timestamp("us")),
                "open": pa.array([open_c / 100.0], pa.float64()),
                "high": pa.array([int(g["hi_c"].max()) / 100.0], pa.float64()),
                "low": pa.array([int(g["lo_c"].min()) / 100.0], pa.float64()),
                "close": pa.array([close_c / 100.0], pa.float64()),
                "n_events": pa.array([int(g["n"].sum())], pa.int64()),
            }
        )

    return (
        bucket_exchange(
            read_table(sf_dir, "events", columns=["ts", "event_id", "value"]),
            fold,
            key="day_us",
            schema=part_schema,
            out_schema=out_schema,
            emit=partial,
        )
        .map_batches(_pin_timestamp_us(["day"]), batch_format="pyarrow")
        .sort("day")
    )


EVENTS_OHLC_DAILY_SQL = """
WITH e AS (
  SELECT date_trunc('day', ts) AS day, ts, event_id,
         CAST(round(value*100) AS BIGINT) AS cents
  FROM events
),
w AS (
  SELECT day, cents,
         row_number() OVER (PARTITION BY day ORDER BY ts, event_id) AS rn_a,
         row_number() OVER (PARTITION BY day ORDER BY ts DESC, event_id DESC)
           AS rn_d
  FROM e
)
SELECT CAST(day AS TIMESTAMP) AS day,
       CAST(max(CASE WHEN rn_a = 1 THEN cents END) AS BIGINT) / 100.0 AS open,
       CAST(max(cents) AS BIGINT) / 100.0 AS high,
       CAST(min(cents) AS BIGINT) / 100.0 AS low,
       CAST(max(CASE WHEN rn_d = 1 THEN cents END) AS BIGINT) / 100.0 AS close,
       CAST(count(*) AS BIGINT) AS n_events
FROM w GROUP BY day ORDER BY day
"""


# ---------------------------------------------------------------------------
# columnar encoding stats (storage-engine introspection: dict/RLE advisor)
# ---------------------------------------------------------------------------


def events_encoding_stats(sf_dir: str) -> pa.Table:
    """Per-column encoding statistics over the events table: row count,
    exact distinct count, and the exact RUN count in event_id order — the
    numbers a columnar writer uses to pick dictionary vs RLE vs plain
    encoding (n_runs << n favors RLE; n_distinct << n favors dictionary).

    Distinct counts ride ONE (col, value)-pair exchange for the int
    columns (value domain-bounded: cents and user ids) and a tiny string
    groupby for event_type.  Run counts fold from per-block boundary
    partials: each block reports (first/last event_id, first/last value,
    runs inside), the driver stitches the <= n_blocks partials in
    event_id order and subtracts boundary merges — the blocks of a
    row-sorted parquet file are disjoint event_id ranges (asserted), so
    the stitch is exact without a sort exchange."""
    from ray.data.aggregate import Count

    cols = ["event_type", "user_id", "cents"]

    ds = read_table(sf_dir, "events", columns=["event_id", "event_type", "user_id", "value"])

    # ---- distinct counts: ints through one pair exchange, strings tiny ----
    pair_schema = pa.schema([("col_id", pa.int64()), ("val", pa.int64())])

    def int_pairs(batch: pa.Table) -> pa.Table:
        if batch.num_rows == 0 or batch.num_columns == 0:
            return pair_schema.empty_table()
        uid = np.unique(batch["user_id"].to_numpy(zero_copy_only=False))
        cents = np.unique(_cents(batch["value"]).to_numpy())
        return pa.table(
            {
                "col_id": pa.array(
                    np.r_[np.full(len(uid), 1), np.full(len(cents), 2)], pa.int64()
                ),
                "val": pa.array(np.r_[uid, cents], pa.int64()),
            }
        )

    def _pair_key(b: pa.Table) -> pa.Table:
        return b.append_column(
            "pk",
            pc.add(
                pc.multiply(b["col_id"], pa.scalar(1 << 48, pa.int64())), b["val"]
            ),
        )

    pair_counts = (
        ds.map_batches(int_pairs, batch_format="pyarrow", zero_copy_batch=True)
        .map_batches(_pair_key, batch_format="pyarrow", zero_copy_batch=True)
        .groupby("pk")
        .aggregate(Count(alias_name="n"))
        .map_batches(
            lambda b: pa.table(
                {
                    "col_id": pc.divide(b["pk"], pa.scalar(1 << 48, pa.int64())),
                    "one": pa.array(np.ones(b.num_rows, np.int64), pa.int64()),
                }
            )
            if b.num_rows
            else pa.schema([("col_id", pa.int64()), ("one", pa.int64())]).empty_table(),
            batch_format="pyarrow",
        )
        .groupby("col_id")
        .sum("one")
        .to_pandas()
    )  # <= 2 rows
    nd_int = dict(zip(pair_counts["col_id"], pair_counts["sum(one)"]))
    nd_type = (
        ds.map_batches(
            lambda b: pa.table({"event_type": b["event_type"]})
            .group_by("event_type")
            .aggregate([]),
            batch_format="pyarrow",
            zero_copy_batch=True,
        )
        .groupby("event_type")
        .count()
        .count()
    )  # distinct-of-distinct: the count of distinct type strings

    # ---- run counts: per-block boundary partials, driver stitch ----
    part_schema = pa.schema(
        [
            ("first_eid", pa.int64()),
            ("last_eid", pa.int64()),
            ("n", pa.int64()),
            *[(f"runs_{c}", pa.int64()) for c in cols],
            *[(f"first_{c}", pa.string()) for c in cols],
            *[(f"last_{c}", pa.string()) for c in cols],
        ]
    )

    def run_partial(batch: pa.Table) -> pa.Table:
        if batch.num_rows == 0 or batch.num_columns == 0:
            return part_schema.empty_table()
        eid = batch["event_id"].to_numpy().astype(np.int64)
        order = np.argsort(eid, kind="stable")
        vals = {
            "event_type": batch["event_type"].to_pandas().to_numpy()[order],
            "user_id": batch["user_id"].to_numpy(zero_copy_only=False)[order],
            "cents": _cents(batch["value"]).to_numpy()[order],
        }
        row = {
            "first_eid": [int(eid[order][0])],
            "last_eid": [int(eid[order][-1])],
            "n": [len(eid)],
        }
        for c in cols:
            v = vals[c]
            row[f"runs_{c}"] = [int(1 + np.count_nonzero(v[1:] != v[:-1]))]
            row[f"first_{c}"] = [str(v[0])]
            row[f"last_{c}"] = [str(v[-1])]
        return pa.Table.from_pydict(row, schema=part_schema)

    parts = (
        ds.map_batches(run_partial, batch_format="pyarrow", zero_copy_batch=True)
        .to_pandas()
        .sort_values("first_eid")
        .reset_index(drop=True)
    )  # one row per block — bounded by block count, not rows
    # blocks of a row-sorted file are disjoint event_id ranges
    assert (
        parts["first_eid"].iloc[1:].to_numpy() > parts["last_eid"].iloc[:-1].to_numpy()
    ).all(), "events blocks overlap in event_id: runs need range-partitioned input"
    n_total = int(parts["n"].sum())
    out = {"column": [], "n": [], "n_distinct": [], "n_runs": []}
    nd = {
        "event_type": int(nd_type),
        "user_id": int(nd_int.get(1, 0)),
        "cents": int(nd_int.get(2, 0)),
    }
    for c in cols:
        runs = int(parts[f"runs_{c}"].sum())
        merges = int(
            (
                parts[f"first_{c}"].iloc[1:].to_numpy()
                == parts[f"last_{c}"].iloc[:-1].to_numpy()
            ).sum()
        )
        out["column"].append(c)
        out["n"].append(n_total)
        out["n_distinct"].append(nd[c])
        out["n_runs"].append(runs - merges)
    return pa.table(
        {
            "column": pa.array(out["column"], pa.string()),
            "n": pa.array(out["n"], pa.int64()),
            "n_distinct": pa.array(out["n_distinct"], pa.int64()),
            "n_runs": pa.array(out["n_runs"], pa.int64()),
        }
    ).sort_by("column")


EVENTS_ENCODING_STATS_SQL = """
WITH o AS (
  SELECT event_id, event_type, user_id,
         CAST(round(value*100) AS BIGINT) AS cents
  FROM events
),
flags AS (
  SELECT CASE WHEN event_type IS DISTINCT FROM lag(event_type) OVER w
              THEN 1 ELSE 0 END AS f_type,
         CASE WHEN user_id IS DISTINCT FROM lag(user_id) OVER w
              THEN 1 ELSE 0 END AS f_user,
         CASE WHEN cents IS DISTINCT FROM lag(cents) OVER w
              THEN 1 ELSE 0 END AS f_cents
  FROM o WINDOW w AS (ORDER BY event_id)
)
SELECT 'cents' AS "column", CAST((SELECT count(*) FROM o) AS BIGINT) AS n,
       CAST((SELECT count(DISTINCT cents) FROM o) AS BIGINT) AS n_distinct,
       CAST(sum(f_cents) AS BIGINT) AS n_runs FROM flags
UNION ALL
SELECT 'event_type', CAST((SELECT count(*) FROM o) AS BIGINT),
       CAST((SELECT count(DISTINCT event_type) FROM o) AS BIGINT),
       CAST(sum(f_type) AS BIGINT) FROM flags
UNION ALL
SELECT 'user_id', CAST((SELECT count(*) FROM o) AS BIGINT),
       CAST((SELECT count(DISTINCT user_id) FROM o) AS BIGINT),
       CAST(sum(f_user) AS BIGINT) FROM flags
ORDER BY "column"
"""


# ---------------------------------------------------------------------------
# join cardinality estimation audit (optimizer statistics quality)
# ---------------------------------------------------------------------------

_JCE_NB = 64  # histogram granularity: a protocol constant like _DIFF_NB


def join_cardinality_estimate(sf_dir: str) -> ray.data.Dataset:
    """Optimizer-statistics audit: per key-histogram bucket, the ESTIMATED
    join cardinality of ``events.user_id = orders.o_custkey`` (product of
    the bucket counts — what an optimizer computes from two histograms)
    next to the EXACT cardinality (sum over keys of count products).  The
    ratio is the estimation error a planner would eat at that bucket
    granularity — the statistics-quality report behind join reordering.

    Both sides fold to (bucket, key, count) partials in their scans; ONE
    bucketed exchange computes both numbers per bucket (the exact number
    needs the per-key alignment, done with a vectorized merge inside the
    bucket).  Output is <= 64 rows at any scale."""
    from ray.data.aggregate import Sum

    part_schema = pa.schema(
        [
            ("bucket", pa.int64()),
            ("key", pa.int64()),
            ("n_e", pa.int64()),
            ("n_o", pa.int64()),
        ]
    )

    def ev_partial(batch: pa.Table) -> pa.Table:
        if batch.num_rows == 0 or batch.num_columns == 0:
            return part_schema.empty_table()
        t = pa.table({"key": pc.cast(batch["user_id"], pa.int64())})
        g = t.group_by("key").aggregate([("key", "count")]).rename_columns(["key", "n_e"])
        n = g.num_rows
        return pa.table(
            {
                "bucket": pa.array(g["key"].to_numpy() % _JCE_NB, pa.int64()),
                "key": g["key"],
                "n_e": g["n_e"],
                "n_o": pa.array(np.zeros(n, np.int64), pa.int64()),
            }
        )

    def ord_partial(batch: pa.Table) -> pa.Table:
        if batch.num_rows == 0 or batch.num_columns == 0:
            return part_schema.empty_table()
        t = pa.table({"key": pc.cast(batch["o_custkey"], pa.int64())})
        g = t.group_by("key").aggregate([("key", "count")]).rename_columns(["key", "n_o"])
        n = g.num_rows
        return pa.table(
            {
                "bucket": pa.array(g["key"].to_numpy() % _JCE_NB, pa.int64()),
                "key": g["key"],
                "n_e": pa.array(np.zeros(n, np.int64), pa.int64()),
                "n_o": g["n_o"],
            }
        )

    out_schema = pa.schema(
        [
            ("bucket", pa.int64()),
            ("n_events", pa.int64()),
            ("n_orders", pa.int64()),
            ("est_rows", pa.int64()),
            ("actual_rows", pa.int64()),
        ]
    )

    def fold(group: pa.Table) -> pa.Table:
        df = (
            group.to_pandas()
            .groupby("key", as_index=False)
            .agg(n_e=("n_e", "sum"), n_o=("n_o", "sum"))
        )
        ne, no = int(df["n_e"].sum()), int(df["n_o"].sum())
        actual = int((df["n_e"].to_numpy(np.int64) * df["n_o"].to_numpy(np.int64)).sum())
        b = int(group["bucket"][0].as_py())
        return pa.table(
            {
                "bucket": pa.array([b], pa.int64()),
                "n_events": pa.array([ne], pa.int64()),
                "n_orders": pa.array([no], pa.int64()),
                "est_rows": pa.array([ne * no], pa.int64()),
                "actual_rows": pa.array([actual], pa.int64()),
            }
        )

    ev = read_table(sf_dir, "events", columns=["user_id"]).map_batches(
        ev_partial, batch_format="pyarrow", zero_copy_batch=True
    )
    orders = read_table(sf_dir, "orders", columns=["o_custkey"]).map_batches(
        ord_partial, batch_format="pyarrow", zero_copy_batch=True
    )
    return (
        bucket_exchange(
            ev.union(orders), fold, schema=part_schema, out_schema=out_schema
        )
        .sort("bucket")
    )


JOIN_CARDINALITY_ESTIMATE_SQL = f"""
WITH e AS (
  SELECT user_id % {_JCE_NB} AS bucket, user_id AS key, count(*) AS n_e
  FROM events GROUP BY 1, 2
),
o AS (
  SELECT o_custkey % {_JCE_NB} AS bucket, o_custkey AS key, count(*) AS n_o
  FROM orders GROUP BY 1, 2
),
k AS (
  SELECT coalesce(e.bucket, o.bucket) AS bucket,
         coalesce(e.n_e, 0) AS n_e, coalesce(o.n_o, 0) AS n_o
  FROM e FULL JOIN o ON e.bucket = o.bucket AND e.key = o.key
)
SELECT bucket,
       CAST(sum(n_e) AS BIGINT) AS n_events,
       CAST(sum(n_o) AS BIGINT) AS n_orders,
       CAST(sum(n_e) * sum(n_o) AS BIGINT) AS est_rows,
       CAST(sum(n_e * n_o) AS BIGINT) AS actual_rows
FROM k GROUP BY bucket ORDER BY bucket
"""


# ---------------------------------------------------------------------------
# order-to-ship latency quantiles (grouped percentiles over a join)
# ---------------------------------------------------------------------------


def order_ship_latency_quantiles(sf_dir: str) -> pa.Table:
    """Fulfillment-latency profile: exact p25/p50/p90 of DAYS between order
    date and line-item ship date, per order priority — the operational SLA
    metric, and the grouped-percentile shape applied to a DERIVED measure
    that only exists after a join.

    Plan: ONE orderkey-bucketed tagged co-shuffle joins lineitem ship dates
    to order (date, priority) and immediately folds to a (priority,
    latency_day) HISTOGRAM partial inside the bucket — latency has a tiny
    value domain (whole days, bounded by the business cycle), so the
    histogram path applies (same design as doc_length_percentiles_by_lang)
    and the driver walks one cumulative histogram per priority class.
    Latency is an exact integer: microsecond difference floor-divided by
    a day (round() is the documented cross-engine hazard)."""
    from ray.data.aggregate import Sum

    n_buckets = _order_buckets(sf_dir)
    mask = pa.scalar(n_buckets - 1, pa.int64())

    union_schema = pa.schema(
        [
            ("key", pa.int64()),
            ("ship_us", pa.int64()),
            ("date_us", pa.int64()),
            ("grp", pa.string()),
            ("side", pa.int8()),
            ("bucket", pa.int64()),
        ]
    )

    def li_side(batch: pa.Table) -> pa.Table:
        if batch.num_rows == 0 or batch.num_columns == 0:
            return union_schema.empty_table()
        ship = pc.cast(pc.cast(batch["l_shipdate"], pa.timestamp("us")), pa.int64())
        return _widen(
            {"key": batch["l_orderkey"], "ship_us": ship}, union_schema, 0, "key", mask
        )

    def ord_side(batch: pa.Table) -> pa.Table:
        if batch.num_rows == 0 or batch.num_columns == 0:
            return union_schema.empty_table()
        date = pc.cast(pc.cast(batch["o_orderdate"], pa.timestamp("us")), pa.int64())
        return _widen(
            {
                "key": batch["o_orderkey"],
                "date_us": date,
                "grp": batch["o_orderpriority"],
            },
            union_schema,
            1,
            "key",
            mask,
        )

    hist_schema = pa.schema(
        [("grp", pa.string()), ("lat_days", pa.int64()), ("n", pa.int64())]
    )

    def join_bucket(group: pa.Table) -> pa.Table:
        li = group.filter(pc.equal(group["side"], 0)).select(["key", "ship_us"])
        orders = group.filter(pc.equal(group["side"], 1)).select(
            ["key", "date_us", "grp"]
        )
        if li.num_rows == 0 or orders.num_rows == 0:
            return hist_schema.empty_table()
        j = li.join(orders, keys=["key"], join_type="inner")
        lat = pc.divide(
            pc.subtract(j["ship_us"], j["date_us"]),
            pa.scalar(_US_PER_DAY, pa.int64()),
        )
        return (
            pa.table({"grp": j["grp"], "lat_days": lat})
            .group_by(["grp", "lat_days"])
            .aggregate([([], "count_all")])
            .rename_columns(["grp", "lat_days", "n"])
        )

    import math

    li = read_table(sf_dir, "lineitem", columns=["l_orderkey", "l_shipdate"]).map_batches(
        li_side, batch_format="pyarrow", zero_copy_batch=True
    )
    orders = read_table(
        sf_dir, "orders", columns=["o_orderkey", "o_orderdate", "o_orderpriority"]
    ).map_batches(ord_side, batch_format="pyarrow", zero_copy_batch=True)
    hist = (
        bucket_exchange(
            li.union(orders), join_bucket, schema=union_schema, out_schema=hist_schema
        )
        .groupby(["grp", "lat_days"])
        .aggregate(Sum("n", alias_name="n"))
        .sort(["grp", "lat_days"])
        .to_pandas()  # one row per (priority, distinct whole-day latency)
    )
    rows = []
    for grp, g in hist.groupby("grp", sort=True):
        total = int(g["n"].sum())
        cum = g["n"].cumsum()
        row = {"grp": grp, "n_items": total}
        for q, name in ((0.25, "p25_days"), (0.5, "p50_days"), (0.9, "p90_days")):
            rank = math.ceil(q * total)
            row[name] = int(g["lat_days"][(cum >= rank).idxmax()])
        rows.append(row)
    return pa.table(
        {
            "o_orderpriority": pa.array([r["grp"] for r in rows], pa.string()),
            "n_items": pa.array([r["n_items"] for r in rows], pa.int64()),
            "p25_days": pa.array([r["p25_days"] for r in rows], pa.int64()),
            "p50_days": pa.array([r["p50_days"] for r in rows], pa.int64()),
            "p90_days": pa.array([r["p90_days"] for r in rows], pa.int64()),
        }
    )


ORDER_SHIP_LATENCY_SQL = f"""
WITH f AS (
  SELECT o_orderpriority,
         (epoch_us(l_shipdate) - epoch_us(o_orderdate)) // {_US_PER_DAY} AS lat
  FROM lineitem JOIN orders ON l_orderkey = o_orderkey
)
SELECT o_orderpriority,
       CAST(count(*) AS BIGINT) AS n_items,
       CAST(quantile_disc(lat, 0.25) AS BIGINT) AS p25_days,
       CAST(quantile_disc(lat, 0.5) AS BIGINT) AS p50_days,
       CAST(quantile_disc(lat, 0.9) AS BIGINT) AS p90_days
FROM f GROUP BY o_orderpriority ORDER BY o_orderpriority
"""


# ---------------------------------------------------------------------------
# month-of-year seasonal index
# ---------------------------------------------------------------------------


def orders_seasonality_index(sf_dir: str) -> pa.Table:
    """Classical seasonal index: each calendar month's revenue share vs a
    flat year — seasonal_ppm = 12 * rev_month * 1e6 // rev_total (1e6 =
    perfectly in-line, >1e6 = peak month).  One month-of-year groupby of
    int64-cent partials; the 12-row finish runs in PYTHON INTS (the
    numerator overflows int64 at corpus scale; the oracle's HUGEINT does
    the same floor division)."""
    from ray.data.aggregate import Sum

    part_schema = pa.schema(
        [("month", pa.int64()), ("cents", pa.int64()), ("n", pa.int64())]
    )

    def partial(batch: pa.Table) -> pa.Table:
        if batch.num_rows == 0 or batch.num_columns == 0:
            return part_schema.empty_table()
        t = pa.table(
            {
                "month": pc.cast(pc.month(batch["o_orderdate"]), pa.int64()),
                "cents": _cents(batch["o_totalprice"]),
            }
        )
        return (
            t.group_by("month")
            .aggregate([("cents", "sum"), ("cents", "count")])
            .rename_columns(["month", "cents", "n"])
        )

    rows = (
        read_table(sf_dir, "orders", columns=["o_orderdate", "o_totalprice"])
        .map_batches(partial, batch_format="pyarrow", zero_copy_batch=True)
        .groupby("month")
        .aggregate(Sum("cents", alias_name="cents"), Sum("n", alias_name="n"))
        .to_pandas()
        .sort_values("month")
    )  # <= 12 rows
    total = int(rows["cents"].sum())
    idx = [
        12 * int(c) * 1_000_000 // total for c in rows["cents"]
    ]  # Python ints: 12 * cents * 1e6 exceeds int64 at scale
    return pa.table(
        {
            "month": pa.array(rows["month"].to_numpy(np.int64), pa.int64()),
            "n_orders": pa.array(rows["n"].to_numpy(np.int64), pa.int64()),
            "revenue": pa.array(
                rows["cents"].to_numpy(np.int64).astype(np.float64) / 100.0,
                pa.float64(),
            ),
            "seasonal_ppm": pa.array(idx, pa.int64()),
        }
    )


ORDERS_SEASONALITY_SQL = """
WITH m AS (
  SELECT CAST(month(o_orderdate) AS BIGINT) AS month,
         CAST(round(o_totalprice*100) AS BIGINT) AS cents
  FROM orders
),
agg AS (
  SELECT month, CAST(count(*) AS BIGINT) AS n_orders,
         CAST(sum(cents) AS BIGINT) AS c
  FROM m GROUP BY month
)
SELECT month, n_orders, c / 100.0 AS revenue,
       CAST(12 * CAST(c AS HUGEINT) * 1000000
            // (SELECT sum(c) FROM agg) AS BIGINT) AS seasonal_ppm
FROM agg ORDER BY month
"""


# ---------------------------------------------------------------------------
# GDPR erasure: subject purge across tables with a verifiable report
# ---------------------------------------------------------------------------

_GDPR_MOD = 13
_GDPR_RES = 3


def gdpr_erasure_report(sf_dir: str) -> pa.Table:
    """Right-to-be-forgotten propagation with PROOF: purge every table
    keyed by a deletion-subject list and report, per table, the row count
    before, the rows removed, and the order-invariant content CHECKSUM of
    the survivors — the artifact a compliance audit stores (re-running the
    checksum later proves the purge held).

    The subject list (here the deterministic rule ``key % 13 == 3``, in a
    real system the explicit request list) is broadcast-small; each table
    is ONE scan folding (n_before, n_removed, mod-p checksum partial) —
    nothing data-proportional leaves the workers, and no table is
    rewritten to compute the report (the purge itself composes with
    write_parquet on the filtered datasets)."""
    from ray.data.aggregate import Sum

    specs = [
        # (table, key column, value column for the checksum)
        ("customer", "c_custkey", "c_acctbal"),
        ("events", "user_id", "value"),
        ("orders", "o_custkey", "o_orderkey"),
    ]
    part_schema = pa.schema(
        [
            ("tbl", pa.string()),
            ("n_before", pa.int64()),
            ("n_removed", pa.int64()),
            ("rh_sum", pa.int64()),
        ]
    )

    def make_partial(tbl: str, key: str, val: str):
        def partial(batch: pa.Table) -> pa.Table:
            if batch.num_rows == 0 or batch.num_columns == 0:
                return part_schema.empty_table()
            k = pc.cast(batch[key], pa.int64()).to_numpy(zero_copy_only=False)
            if val in ("c_acctbal", "value"):
                v = _cents(batch[val]).to_numpy().astype(np.int64)
            else:
                v = pc.cast(batch[val], pa.int64()).to_numpy(zero_copy_only=False)
            erase = k % _GDPR_MOD == _GDPR_RES
            keep_k, keep_v = k[~erase], v[~erase]
            inner = (keep_k % _P) * _CK_A1 + (keep_v % _P) * _CK_A3
            rh = ((inner % _P) * _CK_MIX + _CK_C) % _P
            return pa.table(
                {
                    "tbl": pa.array([tbl], pa.string()),
                    "n_before": pa.array([len(k)], pa.int64()),
                    "n_removed": pa.array([int(erase.sum())], pa.int64()),
                    "rh_sum": pa.array([int(rh.sum() % _P)], pa.int64()),
                }
            )

        return partial

    cols = {
        "customer": ["c_custkey", "c_acctbal"],
        "events": ["user_id", "value"],
        "orders": ["o_custkey", "o_orderkey"],
    }
    parts = None
    for tbl, key, val in specs:
        p = read_table(sf_dir, tbl, columns=cols[tbl]).map_batches(
            make_partial(tbl, key, val), batch_format="pyarrow", zero_copy_batch=True
        )
        parts = p if parts is None else parts.union(p)
    agg = (
        parts.groupby("tbl")
        .aggregate(
            Sum("n_before", alias_name="n_before"),
            Sum("n_removed", alias_name="n_removed"),
            Sum("rh_sum", alias_name="rh_sum"),
        )
        .to_pandas()
        .sort_values("tbl")
        .reset_index(drop=True)
    )
    return pa.table(
        {
            "tbl": pa.array(agg["tbl"], pa.string()),
            "n_before": pa.array(agg["n_before"].to_numpy(np.int64), pa.int64()),
            "n_removed": pa.array(agg["n_removed"].to_numpy(np.int64), pa.int64()),
            "checksum_after": pa.array(
                agg["rh_sum"].to_numpy(np.int64) % _P, pa.int64()
            ),
        }
    )


def _gdpr_table_sql(tbl: str, key: str, val_expr: str) -> str:
    return f"""
SELECT '{tbl}' AS tbl,
       CAST(count(*) AS BIGINT) AS n_before,
       CAST(count(*) FILTER (WHERE {key} % {_GDPR_MOD} = {_GDPR_RES}) AS BIGINT)
         AS n_removed,
       CAST(CAST(coalesce(sum(
           ((({key} % {_P}) * {_CK_A1} + ({val_expr} % {_P}) * {_CK_A3})
            % {_P} * {_CK_MIX} + {_CK_C}) % {_P})
           FILTER (WHERE {key} % {_GDPR_MOD} != {_GDPR_RES}), 0) AS HUGEINT)
         % {_P} AS BIGINT) AS checksum_after
FROM {tbl}"""


GDPR_ERASURE_SQL = (
    _gdpr_table_sql("customer", "c_custkey", "CAST(round(c_acctbal*100) AS BIGINT)")
    + "\nUNION ALL"
    + _gdpr_table_sql("events", "user_id", "CAST(round(value*100) AS BIGINT)")
    + "\nUNION ALL"
    + _gdpr_table_sql("orders", "o_custkey", "o_orderkey")
    + "\nORDER BY tbl"
)


# ---------------------------------------------------------------------------
# grouped OLS trend: per-customer spend slope (cents per day)
# ---------------------------------------------------------------------------

_TREND_MIN_ORDERS = 5


def customer_spend_trend(
    sf_dir: str, *, min_orders: int = _TREND_MIN_ORDERS
) -> ray.data.Dataset:
    """Per-customer ordinary-least-squares spend trend: the slope (in 1e-6
    cents per day) of ``o_totalprice`` against the order's day index, for
    customers with at least ``min_orders`` orders — the grouped-regression
    shape (SQL ``regr_slope(y, x) ... GROUP BY key``) that segments
    growing vs declining accounts.

    Exactness: the five sufficient statistics (n, Σx, Σy, Σxy, Σx²) are
    exact int64 partials per batch (x = whole days since epoch, y = cents),
    folded through ONE groupby-sum exchange; the closed-form slope
    ``(nΣxy − ΣxΣy)·1e6 / (nΣx² − Σx²)`` is finished per customer in
    PYTHON INTS (the numerator·1e6 overflows int64; oracle mirrors in
    HUGEINT — same discipline as the seasonality index).  The division
    truncates toward zero in BOTH engines (DuckDB ``//`` truncates;
    ``_trunc_div`` mirrors it for negative slopes).  Customers whose
    orders all share one day (zero variance) are excluded exactly as the
    oracle's ``den > 0`` predicate excludes them.
    """
    from ray.data.aggregate import Sum

    ds = read_table(sf_dir, "orders", columns=["o_custkey", "o_orderdate", "o_totalprice"])

    part_schema = pa.schema(
        [
            ("custkey", pa.int64()),
            ("n", pa.int64()),
            ("sx", pa.int64()),
            ("sy", pa.int64()),
            ("sxy", pa.int64()),
            ("sxx", pa.int64()),
        ]
    )

    def partial(batch: pa.Table) -> pa.Table:
        if batch.num_rows == 0 or batch.num_columns == 0:
            return part_schema.empty_table()
        date_us = pc.cast(pc.cast(batch["o_orderdate"], pa.timestamp("us")), pa.int64())
        x = (date_us.to_numpy(zero_copy_only=False) // _US_PER_DAY).astype(np.int64)
        y = _cents(batch["o_totalprice"]).to_numpy(zero_copy_only=False)
        t = pa.table(
            {
                "custkey": pc.cast(batch["o_custkey"], pa.int64()),
                "one": pa.array(np.ones(len(x), np.int64), pa.int64()),
                "sx": pa.array(x, pa.int64()),
                "sy": pa.array(y, pa.int64()),
                "sxy": pa.array(x * y, pa.int64()),
                "sxx": pa.array(x * x, pa.int64()),
            }
        )
        return (
            t.group_by("custkey")
            .aggregate(
                [("one", "sum"), ("sx", "sum"), ("sy", "sum"),
                 ("sxy", "sum"), ("sxx", "sum")]
            )
            .rename_columns(part_schema.names)
        )

    out_schema = pa.schema(
        [("custkey", pa.int64()), ("n_orders", pa.int64()), ("slope_e6", pa.int64())]
    )

    def finish(batch: pa.Table) -> pa.Table:
        if batch.num_rows == 0 or batch.num_columns == 0:
            return out_schema.empty_table()
        n = pc.cast(batch["sum(n)"], pa.int64()).to_pylist()
        sx = pc.cast(batch["sum(sx)"], pa.int64()).to_pylist()
        sy = pc.cast(batch["sum(sy)"], pa.int64()).to_pylist()
        sxy = pc.cast(batch["sum(sxy)"], pa.int64()).to_pylist()
        sxx = pc.cast(batch["sum(sxx)"], pa.int64()).to_pylist()
        ck = pc.cast(batch["custkey"], pa.int64()).to_pylist()
        keys, ns, slopes = [], [], []
        for c, ni, xs, ys, xys, xxs in zip(ck, n, sx, sy, sxy, sxx):
            if ni < min_orders:
                continue
            num = ni * xys - xs * ys  # Python ints: overflow-free
            den = ni * xxs - xs * xs
            if den <= 0:
                continue
            keys.append(c)
            ns.append(ni)
            slopes.append(_trunc_div(num * 1_000_000, den))
        return pa.table(
            {
                "custkey": pa.array(keys, pa.int64()),
                "n_orders": pa.array(ns, pa.int64()),
                "slope_e6": pa.array(slopes, pa.int64()),
            }
        )

    return (
        ds.map_batches(partial, batch_format="pyarrow", zero_copy_batch=True)
        .groupby("custkey")
        .aggregate(
            Sum(on="n", alias_name="sum(n)"),
            Sum(on="sx", alias_name="sum(sx)"),
            Sum(on="sy", alias_name="sum(sy)"),
            Sum(on="sxy", alias_name="sum(sxy)"),
            Sum(on="sxx", alias_name="sum(sxx)"),
        )
        .map_batches(finish, batch_format="pyarrow")
        .sort("custkey")
    )


CUSTOMER_SPEND_TREND_SQL = f"""
WITH p AS (
  SELECT o_custkey,
         count(*) AS n,
         sum(epoch_us(o_orderdate) // {_US_PER_DAY}) AS sx,
         sum(CAST(round(o_totalprice * 100) AS BIGINT)) AS sy,
         sum((epoch_us(o_orderdate) // {_US_PER_DAY})
             * CAST(round(o_totalprice * 100) AS BIGINT)) AS sxy,
         sum((epoch_us(o_orderdate) // {_US_PER_DAY})
             * (epoch_us(o_orderdate) // {_US_PER_DAY})) AS sxx
  FROM orders GROUP BY o_custkey
  HAVING count(*) >= {_TREND_MIN_ORDERS}),
q AS (
  SELECT o_custkey AS custkey, n,
         CAST(n AS HUGEINT) * sxy - CAST(sx AS HUGEINT) * sy AS num,
         CAST(n AS HUGEINT) * sxx - CAST(sx AS HUGEINT) * sx AS den
  FROM p)
SELECT custkey, CAST(n AS BIGINT) AS n_orders,
       CAST(num * 1000000 // den AS BIGINT) AS slope_e6
FROM q WHERE den > 0 ORDER BY custkey
"""


# ---------------------------------------------------------------------------
# m-estimate target encoding: supplier nation -> smoothed mean revenue
# ---------------------------------------------------------------------------

_TENC_M = 10


def nation_target_encoding(sf_dir: str, *, m: int = _TENC_M) -> pa.Table:
    """m-estimate target encoding of the supplier-nation categorical:
    each nation encodes as the smoothed mean lineitem revenue
    ``(S_g + m·μ) / (n_g + m)`` where μ is the global mean — the
    leakage-safe categorical feature a downstream demand model consumes
    (Micci-Barreca 2001).

    Exactness: revenue rides as int64 1e-4 units (price × (1 − disc)
    cents×cents); the smoothed mean is the exact rational
    ``(S_g·N + m·S) / ((n_g + m)·N)`` quantized ONCE per nation by
    floor division to ppm of a 1e-4 unit (all terms positive → floor =
    truncate in both engines).  ``S_g·N·1e6`` overflows int64, so the
    25-row finish runs in PYTHON INTS; the oracle mirrors in HUGEINT.

    Scale shape: the supplier→nation map is a broadcast dim (closure
    capture, shipped once per stage); lineitem collapses to per-nation
    partials inside every batch, so the exchange carries ≤|nations| rows
    per block; the finish is driver-side on ≤25 rows.
    """
    from ray.data.aggregate import Sum

    # bounded: supplier dimension (10k rows per scale-factor unit)
    sup = read_table(sf_dir, "supplier", columns=["s_suppkey", "s_nationkey"]).take_all()
    skeys = np.array([r["s_suppkey"] for r in sup], np.int64)
    snat = np.array([r["s_nationkey"] for r in sup], np.int64)
    order = np.argsort(skeys)
    skeys, snat = skeys[order], snat[order]

    li = read_table(
        sf_dir, "lineitem", columns=["l_suppkey", "l_extendedprice", "l_discount"]
    )

    part_schema = pa.schema(
        [("nationkey", pa.int64()), ("rev", pa.int64()), ("n", pa.int64())]
    )

    def partial(batch: pa.Table) -> pa.Table:
        if batch.num_rows == 0 or batch.num_columns == 0:
            return part_schema.empty_table()
        sk = pc.cast(batch["l_suppkey"], pa.int64()).to_numpy(zero_copy_only=False)
        nat = snat[np.searchsorted(skeys, sk)]
        rev = _cents(batch["l_extendedprice"]).to_numpy(zero_copy_only=False) * (
            100 - _cents(batch["l_discount"]).to_numpy(zero_copy_only=False)
        )
        t = pa.table(
            {
                "nationkey": pa.array(nat, pa.int64()),
                "rev": pa.array(rev, pa.int64()),
                "n": pa.array(np.ones(len(nat), np.int64), pa.int64()),
            }
        )
        return (
            t.group_by("nationkey")
            .aggregate([("rev", "sum"), ("n", "sum")])
            .rename_columns(part_schema.names)
        )

    rows = (
        li.map_batches(partial, batch_format="pyarrow", zero_copy_batch=True)
        .groupby("nationkey")
        .aggregate(Sum(on="rev", alias_name="rev"), Sum(on="n", alias_name="n"))
        .take_all()  # bounded: one row per nation
    )
    total_s = sum(int(r["rev"]) for r in rows)
    total_n = sum(int(r["n"]) for r in rows)
    rows.sort(key=lambda r: int(r["nationkey"]))
    nk, ng, sg, enc = [], [], [], []
    for r in rows:
        n_g, s_g = int(r["n"]), int(r["rev"])
        nk.append(int(r["nationkey"]))
        ng.append(n_g)
        sg.append(s_g)
        enc.append((s_g * total_n + m * total_s) * 1_000_000 // ((n_g + m) * total_n))
    return pa.table(
        {
            "nationkey": pa.array(nk, pa.int64()),
            "n_li": pa.array(ng, pa.int64()),
            "sum_rev": pa.array(sg, pa.int64()),
            "enc_ppm": pa.array(enc, pa.int64()),
        }
    )


NATION_TARGET_ENCODING_SQL = f"""
WITH li AS (
  SELECT s.s_nationkey AS nationkey,
         CAST(round(l_extendedprice * 100) AS BIGINT)
           * (100 - CAST(round(l_discount * 100) AS BIGINT)) AS rev
  FROM lineitem JOIN supplier s ON s.s_suppkey = l_suppkey),
g AS (SELECT nationkey, sum(rev) AS s_g, count(*) AS n_g
      FROM li GROUP BY nationkey),
tot AS (SELECT sum(s_g) AS s, sum(n_g) AS n FROM g)
SELECT g.nationkey, CAST(g.n_g AS BIGINT) AS n_li,
       CAST(g.s_g AS BIGINT) AS sum_rev,
       CAST((CAST(g.s_g AS HUGEINT) * tot.n + {_TENC_M} * CAST(tot.s AS HUGEINT))
            * 1000000 // ((g.n_g + {_TENC_M}) * CAST(tot.n AS HUGEINT)) AS BIGINT)
         AS enc_ppm
FROM g, tot ORDER BY g.nationkey
"""


# ---------------------------------------------------------------------------
# ABC / Pareto inventory classification of parts by revenue
# ---------------------------------------------------------------------------


def parts_abc_classification(sf_dir: str) -> pa.Table:
    """ABC (Pareto) classification of parts by lineitem revenue: class A =
    the head parts that together cover the first 80% of cumulative
    revenue, B up to 95%, C the tail — the inventory-prioritization
    rollup every warehouse planner runs, and the shape (global cumulative
    share over a ranked dimension) the decile bucketizer cannot express.

    Exactness: revenue rides as int64 1e-4 units (price x (1-disc)
    cents x cents); parts rank by (revenue DESC, partkey ASC) — the
    tiebreak ORDER matters because it decides which of two equal-revenue
    parts crosses the 80% boundary first, so both engines pin it; class
    predicates are pure integer comparisons (cum*5 <= 4*total for A,
    cum*20 <= 19*total for B) and cum_ppm floor-divides once per part
    (all terms positive).  ``cum * 1e6`` overflows int64 at scale, so the
    per-part finish runs in PYTHON INTS (oracle in HUGEINT).

    Plan shape: ONE partkey groupby-sum fold (per-batch Arrow partials
    first) — the folded table is bounded by the part DIMENSION, never
    lineitem; the ranked cumulative finish is a driver pass over those
    dimension rows.
    """
    from ray.data.aggregate import Sum

    li = read_table(
        sf_dir, "lineitem", columns=["l_partkey", "l_extendedprice", "l_discount"]
    )

    part_schema = pa.schema([("partkey", pa.int64()), ("rev", pa.int64())])

    def partial(batch: pa.Table) -> pa.Table:
        if batch.num_rows == 0 or batch.num_columns == 0:
            return part_schema.empty_table()
        rev = _cents(batch["l_extendedprice"]).to_numpy(zero_copy_only=False) * (
            100 - _cents(batch["l_discount"]).to_numpy(zero_copy_only=False)
        )
        t = pa.table(
            {
                "partkey": pc.cast(batch["l_partkey"], pa.int64()),
                "rev": pa.array(rev, pa.int64()),
            }
        )
        return (
            t.group_by("partkey").aggregate([("rev", "sum")]).rename_columns(part_schema.names)
        )

    rows = (
        li.map_batches(partial, batch_format="pyarrow", zero_copy_batch=True)
        .groupby("partkey")
        .aggregate(Sum(on="rev", alias_name="rev"))
        .take_all()  # bounded: one row per part (a dimension)
    )
    rows.sort(key=lambda r: (-int(r["rev"]), int(r["partkey"])))
    total = sum(int(r["rev"]) for r in rows)
    out = {"partkey": [], "rev": [], "cum_ppm": [], "abc_class": []}
    cum = 0
    for r in rows:
        cum += int(r["rev"])
        out["partkey"].append(int(r["partkey"]))
        out["rev"].append(int(r["rev"]))
        out["cum_ppm"].append(cum * 1_000_000 // total)
        out["abc_class"].append(
            "A" if cum * 5 <= 4 * total else ("B" if cum * 20 <= 19 * total else "C")
        )
    return pa.table(
        {
            "partkey": pa.array(out["partkey"], pa.int64()),
            "rev": pa.array(out["rev"], pa.int64()),
            "cum_ppm": pa.array(out["cum_ppm"], pa.int64()),
            "abc_class": pa.array(out["abc_class"], pa.string()),
        }
    )


PARTS_ABC_SQL = """
WITH p AS (
  SELECT l_partkey AS partkey,
         sum(CAST(round(l_extendedprice * 100) AS BIGINT)
             * (100 - CAST(round(l_discount * 100) AS BIGINT))) AS rev
  FROM lineitem GROUP BY 1),
c AS (
  SELECT partkey, rev,
         sum(rev) OVER (ORDER BY rev DESC, partkey
                        ROWS UNBOUNDED PRECEDING) AS cum,
         sum(rev) OVER () AS total
  FROM p)
SELECT partkey, CAST(rev AS BIGINT) AS rev,
       CAST(CAST(cum AS HUGEINT) * 1000000 // total AS BIGINT) AS cum_ppm,
       CASE WHEN CAST(cum AS HUGEINT) * 5 <= 4 * CAST(total AS HUGEINT) THEN 'A'
            WHEN CAST(cum AS HUGEINT) * 20 <= 19 * CAST(total AS HUGEINT) THEN 'B'
            ELSE 'C' END AS abc_class
FROM c ORDER BY rev DESC, partkey
"""


# ---------------------------------------------------------------------------
# Theil T inequality index of customer revenue, per nation
# ---------------------------------------------------------------------------


def theil_index_by_nation(sf_dir: str) -> pa.Table:
    """Theil T inequality index of per-customer revenue within each
    nation: T = sum_i (x_i/mu) ln(x_i/mu) / n = [sum x_i*ln(x_i)] / S -
    ln(S/n) — the decomposable inequality measure (unlike Gini it splits
    exactly into within/between components) a curator uses alongside
    ``revenue_gini_by_nation``.

    Exactness: per-customer cents fold first; each customer's ln(x_i)
    quantizes ONCE to the 1e-6 grid (quantized-log discipline), so
    sum(x_i * lnx_e6_i) is an exact integer; the nation term subtracts
    ``round(ln(S/n)*1e6)`` — the double division S/n and its ln are
    evaluated identically by numpy and DuckDB (one expression, one
    round).  The big dot product overflows int64 at scale: PYTHON INTS /
    HUGEINT.

    Plan shape: custkey exchange folds per-customer cents; a pure
    vectorized second map quantizes the logs and pre-folds per-NATION
    partials (nationkey via the broadcast customer dim) inside every
    batch, so the final exchange carries <=25 rows per block.
    """
    from ray.data.aggregate import Sum

    # bounded: customer dimension (150k rows per scale-factor unit)
    cust = read_table(sf_dir, "customer", columns=["c_custkey", "c_nationkey"]).take_all()
    ckeys = np.array([r["c_custkey"] for r in cust], np.int64)
    cnat = np.array([r["c_nationkey"] for r in cust], np.int64)
    order = np.argsort(ckeys)
    ckeys, cnat = ckeys[order], cnat[order]

    orders = read_table(sf_dir, "orders", columns=["o_custkey", "o_totalprice"])

    cust_schema = pa.schema([("custkey", pa.int64()), ("cents", pa.int64())])

    def cust_partial(batch: pa.Table) -> pa.Table:
        if batch.num_rows == 0 or batch.num_columns == 0:
            return cust_schema.empty_table()
        t = pa.table(
            {
                "custkey": pc.cast(batch["o_custkey"], pa.int64()),
                "cents": _cents(batch["o_totalprice"]),
            }
        )
        return (
            t.group_by("custkey").aggregate([("cents", "sum")]).rename_columns(cust_schema.names)
        )

    nat_schema = pa.schema(
        [
            ("nationkey", pa.int64()),
            ("n", pa.int64()),
            ("s", pa.int64()),
            ("sxl", pa.int64()),
        ]
    )

    def nation_partial(batch: pa.Table) -> pa.Table:
        if batch.num_rows == 0 or batch.num_columns == 0:
            return nat_schema.empty_table()
        ck = pc.cast(batch["custkey"], pa.int64()).to_numpy(zero_copy_only=False)
        x = pc.cast(batch["cents"], pa.int64()).to_numpy(zero_copy_only=False)
        nat = cnat[np.searchsorted(ckeys, ck)]
        lnx_e6 = np.round(np.log(x.astype(np.float64)) * 1e6).astype(np.int64)
        t = pa.table(
            {
                "nationkey": pa.array(nat, pa.int64()),
                "n": pa.array(np.ones(len(x), np.int64), pa.int64()),
                "s": pa.array(x, pa.int64()),
                "sxl": pa.array(x * lnx_e6, pa.int64()),
            }
        )
        return (
            t.group_by("nationkey")
            .aggregate([("n", "sum"), ("s", "sum"), ("sxl", "sum")])
            .rename_columns(nat_schema.names)
        )

    rows = (
        orders.map_batches(cust_partial, batch_format="pyarrow", zero_copy_batch=True)
        .groupby("custkey")
        .aggregate(Sum(on="cents", alias_name="cents"))
        .map_batches(nation_partial, batch_format="pyarrow")
        .groupby("nationkey")
        .aggregate(
            Sum(on="n", alias_name="n"),
            Sum(on="s", alias_name="s"),
            Sum(on="sxl", alias_name="sxl"),
        )
        .take_all()  # bounded: one row per nation
    )
    rows.sort(key=lambda r: int(r["nationkey"]))
    import math

    out = {"nationkey": [], "n_cust": [], "sum_cents": [], "theil_e6": []}
    for r in rows:
        n, s, sxl = int(r["n"]), int(r["s"]), int(r["sxl"])
        out["nationkey"].append(int(r["nationkey"]))
        out["n_cust"].append(n)
        out["sum_cents"].append(s)
        out["theil_e6"].append(sxl // s - round(math.log(s / n) * 1e6))
    return pa.table(
        {
            "nationkey": pa.array(out["nationkey"], pa.int64()),
            "n_cust": pa.array(out["n_cust"], pa.int64()),
            "sum_cents": pa.array(out["sum_cents"], pa.int64()),
            "theil_e6": pa.array(out["theil_e6"], pa.int64()),
        }
    )


THEIL_INDEX_SQL = """
WITH cu AS (
  SELECT o_custkey AS custkey,
         sum(CAST(round(o_totalprice * 100) AS BIGINT)) AS x
  FROM orders GROUP BY 1),
q AS (
  SELECT c.c_nationkey AS nationkey, cu.x,
         CAST(round(ln(CAST(cu.x AS DOUBLE)) * 1000000) AS BIGINT) AS lnx
  FROM cu JOIN customer c ON c.c_custkey = cu.custkey),
g AS (
  SELECT nationkey, count(*) AS n, sum(x) AS s,
         sum(CAST(x AS HUGEINT) * lnx) AS sxl
  FROM q GROUP BY nationkey)
SELECT nationkey, CAST(n AS BIGINT) AS n_cust, CAST(s AS BIGINT) AS sum_cents,
       CAST(sxl // s
            - CAST(round(ln(CAST(s AS DOUBLE) / n) * 1000000) AS BIGINT)
            AS BIGINT) AS theil_e6
FROM g ORDER BY nationkey
"""


# ---------------------------------------------------------------------------
# customer LTV cohort triangle (revenue by first-order month x age)
# ---------------------------------------------------------------------------


def customer_ltv_triangle(sf_dir: str, *, n_buckets: int | None = None) -> ray.data.Dataset:
    """Customer-LTV cohort triangle: revenue and order counts by (cohort
    month = month of the customer's FIRST order) x (age in months since
    that cohort month) — the finance-side lifetime-value matrix that the
    event-side ``cohort_retention`` (weekly active counts) does not
    cover.

    Exactness: month index = year*12 + month (pure integer calendar
    arithmetic, identical in DuckDB); revenue in int64 cents.

    Plan shape: ONE custkey-bucketed exchange co-locates each customer's
    orders; the in-bucket kernel computes first-month per customer with a
    vectorized sort + segment-min and pre-folds (cohort, age) partials on
    a combined int64 key (cohort*2^20 + age — the ONE-key rule for
    exchange outputs feeding Ray aggregates); the global fold is
    bounded by the calendar grid (months x ages), never the order count.
    """
    from ray.data.aggregate import Sum

    from ..scale import bucket_count, estimate_rows

    est = estimate_rows(sf_dir, "orders")
    n_b = n_buckets or bucket_count(est)
    mask = pa.scalar(n_b - 1, pa.int64())

    orders = read_table(sf_dir, "orders", columns=["o_custkey", "o_orderdate", "o_totalprice"])

    row_schema = pa.schema(
        [
            ("bucket", pa.int64()),
            ("custkey", pa.int64()),
            ("m", pa.int64()),
            ("cents", pa.int64()),
        ]
    )
    pair_schema = pa.schema([("key", pa.int64()), ("cents", pa.int64()), ("n", pa.int64())])
    out_schema = pa.schema(
        [
            ("cohort_month", pa.int64()),
            ("age_months", pa.int64()),
            ("revenue_cents", pa.int64()),
            ("n_orders", pa.int64()),
        ]
    )

    def rows_partial(batch: pa.Table) -> pa.Table:
        ts = pc.cast(batch["o_orderdate"], pa.timestamp("us"))
        m = pc.add(
            pc.multiply(pc.cast(pc.year(ts), pa.int64()), pa.scalar(12, pa.int64())),
            pc.cast(pc.month(ts), pa.int64()),
        )
        ck = pc.cast(batch["o_custkey"], pa.int64())
        return pa.table(
            {
                "bucket": pc.bit_wise_and(ck, mask),
                "custkey": ck,
                "m": m,
                "cents": _cents(batch["o_totalprice"]),
            }
        )

    def fold_bucket(group: pa.Table) -> pa.Table:
        ck = np.asarray(group["custkey"], np.int64)
        m = np.asarray(group["m"], np.int64)
        cents = np.asarray(group["cents"], np.int64)
        order = np.lexsort((m, ck))
        ck, m, cents = ck[order], m[order], cents[order]
        new_seg = np.concatenate([[True], ck[1:] != ck[:-1]])
        seg_start = np.maximum.accumulate(np.where(new_seg, np.arange(len(ck)), 0))
        cohort = m[seg_start]  # first (min) month per customer run
        key = (cohort << 20) + (m - cohort)
        order2 = np.argsort(key, kind="stable")
        key, cents = key[order2], cents[order2]
        uk, start = np.unique(key, return_index=True)
        csum = np.add.reduceat(cents, start)
        cnt = np.diff(np.concatenate([start, [len(key)]]))
        return pa.table(
            {
                "key": pa.array(uk, pa.int64()),
                "cents": pa.array(csum, pa.int64()),
                "n": pa.array(cnt.astype(np.int64), pa.int64()),
            }
        )

    def decode(batch: pa.Table) -> pa.Table:
        if batch.num_rows == 0 or batch.num_columns == 0:
            return out_schema.empty_table()
        key = pc.cast(batch["key"], pa.int64()).to_numpy(zero_copy_only=False)
        return pa.table(
            {
                "cohort_month": pa.array(key >> 20, pa.int64()),
                "age_months": pa.array(key & ((1 << 20) - 1), pa.int64()),
                "revenue_cents": pc.cast(batch["cents"], pa.int64()),
                "n_orders": pc.cast(batch["n"], pa.int64()),
            }
        )

    return (
        bucket_exchange(
            orders,
            fold_bucket,
            schema=row_schema,
            out_schema=pair_schema,
            emit=rows_partial,
        )
        .groupby("key")
        .aggregate(Sum(on="cents", alias_name="cents"), Sum(on="n", alias_name="n"))
        .map_batches(decode, batch_format="pyarrow")
        .sort(["cohort_month", "age_months"])
    )


CUSTOMER_LTV_TRIANGLE_SQL = """
WITH o AS (
  SELECT o_custkey,
         year(o_orderdate) * 12 + month(o_orderdate) AS m,
         CAST(round(o_totalprice * 100) AS BIGINT) AS cents
  FROM orders),
f AS (SELECT o_custkey, min(m) AS cm FROM o GROUP BY 1)
SELECT f.cm AS cohort_month, o.m - f.cm AS age_months,
       CAST(sum(o.cents) AS BIGINT) AS revenue_cents,
       count(*) AS n_orders
FROM o JOIN f USING (o_custkey)
GROUP BY 1, 2 ORDER BY 1, 2
"""


# ---------------------------------------------------------------------------
# hierarchical ratio-to-parent: nation revenue share of region and of global
# ---------------------------------------------------------------------------


def revenue_share_of_parent(sf_dir: str) -> pa.Table:
    """Hierarchical share-of-parent rollup: each nation's order revenue as
    a share of its REGION's revenue and of the GLOBAL total — the
    two-level ratio-to-parent window (share of parent, not share of
    report) that dashboards layer over any dimension hierarchy.

    Exactness: revenue folds in int64 cents; each share is the exact
    rational ``rev*1e6 // parent_rev`` quantized once (all positive).
    ``rev*1e6`` overflows int64 at warehouse scale: the 25-row finish
    runs in PYTHON INTS, the oracle in HUGEINT.

    Plan shape: the customer->nation hop is a broadcast dim lookup inside
    every batch (searchsorted over the sorted customer keys — shipped
    once per stage via closure capture); ONE nation groupby-sum fold
    (<=25 rows) and a driver finish with the region dim joined from the
    broadcast nation table.
    """
    from ray.data.aggregate import Sum

    # bounded: customer dimension (150k rows per scale-factor unit)
    cust = read_table(sf_dir, "customer", columns=["c_custkey", "c_nationkey"]).take_all()
    ckeys = np.array([r["c_custkey"] for r in cust], np.int64)
    cnat = np.array([r["c_nationkey"] for r in cust], np.int64)
    order = np.argsort(ckeys)
    ckeys, cnat = ckeys[order], cnat[order]
    # bounded: nation dimension (25 rows)
    nat = read_table(sf_dir, "nation", columns=["n_nationkey", "n_regionkey"]).take_all()
    region_of = {int(r["n_nationkey"]): int(r["n_regionkey"]) for r in nat}

    orders = read_table(sf_dir, "orders", columns=["o_custkey", "o_totalprice"])

    part_schema = pa.schema([("nationkey", pa.int64()), ("rev", pa.int64())])

    def partial(batch: pa.Table) -> pa.Table:
        if batch.num_rows == 0 or batch.num_columns == 0:
            return part_schema.empty_table()
        ck = pc.cast(batch["o_custkey"], pa.int64()).to_numpy(zero_copy_only=False)
        t = pa.table(
            {
                "nationkey": pa.array(cnat[np.searchsorted(ckeys, ck)], pa.int64()),
                "rev": _cents(batch["o_totalprice"]),
            }
        )
        return (
            t.group_by("nationkey").aggregate([("rev", "sum")]).rename_columns(part_schema.names)
        )

    rows = (
        orders.map_batches(partial, batch_format="pyarrow", zero_copy_batch=True)
        .groupby("nationkey")
        .aggregate(Sum(on="rev", alias_name="rev"))
        .take_all()  # bounded: one row per nation
    )
    rev_of = {int(r["nationkey"]): int(r["rev"]) for r in rows}
    reg_rev: dict = {}
    for nk, rev in rev_of.items():
        rk = region_of[nk]
        reg_rev[rk] = reg_rev.get(rk, 0) + rev
    total = sum(rev_of.values())
    out = {"nationkey": [], "regionkey": [], "rev_cents": [], "share_region_ppm": [], "share_global_ppm": []}
    for nk in sorted(rev_of):
        rev, rk = rev_of[nk], region_of[nk]
        out["nationkey"].append(nk)
        out["regionkey"].append(rk)
        out["rev_cents"].append(rev)
        out["share_region_ppm"].append(rev * 1_000_000 // reg_rev[rk])
        out["share_global_ppm"].append(rev * 1_000_000 // total)
    return pa.table(
        {
            "nationkey": pa.array(out["nationkey"], pa.int64()),
            "regionkey": pa.array(out["regionkey"], pa.int64()),
            "rev_cents": pa.array(out["rev_cents"], pa.int64()),
            "share_region_ppm": pa.array(out["share_region_ppm"], pa.int64()),
            "share_global_ppm": pa.array(out["share_global_ppm"], pa.int64()),
        }
    )


REVENUE_SHARE_OF_PARENT_SQL = """
WITH n AS (
  SELECT c.c_nationkey AS nationkey,
         sum(CAST(round(o_totalprice * 100) AS BIGINT)) AS rev
  FROM orders JOIN customer c ON c.c_custkey = o_custkey
  GROUP BY 1),
j AS (
  SELECT n.nationkey, CAST(nt.n_regionkey AS BIGINT) AS regionkey, n.rev
  FROM n JOIN nation nt ON nt.n_nationkey = n.nationkey)
SELECT nationkey, regionkey, CAST(rev AS BIGINT) AS rev_cents,
       CAST(CAST(rev AS HUGEINT) * 1000000
            // sum(rev) OVER (PARTITION BY regionkey) AS BIGINT)
         AS share_region_ppm,
       CAST(CAST(rev AS HUGEINT) * 1000000 // sum(rev) OVER () AS BIGINT)
         AS share_global_ppm
FROM j ORDER BY nationkey
"""


# ---------------------------------------------------------------------------
# inter-purchase regularity: CV^2 of order gaps per customer
# ---------------------------------------------------------------------------


def customer_order_regularity(
    sf_dir: str, *, min_orders: int = 3, n_buckets: int | None = None
) -> ray.data.Dataset:
    """Inter-purchase regularity segmentation: per customer (>= 3 orders),
    the squared coefficient of variation of the day gaps between
    consecutive orders — CV^2 ~ 0 is a metronome subscriber, ~1e6 ppm is
    Poisson-random, far above is bursty — the regularity axis RFM misses.

    Exactness: gaps come from the customer's DATE-sorted order days, so
    the gap MULTISET is invariant under same-day tie order (ties give
    0-gaps wherever they land); with n gaps summing to S (= last-first)
    and sum of squares G, CV^2 = var_pop/mean^2 = (n*G - S^2)/S^2, an
    exact rational quantized once to ppm; ``mean_gap_e3 = S*1000 // n``
    likewise (all terms non-negative).  Customers whose orders all share
    one day (S = 0) are excluded, mirrored by the oracle's HAVING.

    Plan shape: ONE custkey-bucketed exchange co-locates each customer's
    order days; the in-bucket kernel is one lexsort + segment diff
    (vectorized, no Python per customer); per-customer outputs are
    dimension-bounded.
    """
    from ..scale import bucket_count, estimate_rows

    est = estimate_rows(sf_dir, "orders")
    n_b = n_buckets or bucket_count(est)
    mask = pa.scalar(n_b - 1, pa.int64())

    orders = read_table(sf_dir, "orders", columns=["o_custkey", "o_orderdate"])

    row_schema = pa.schema(
        [("bucket", pa.int64()), ("custkey", pa.int64()), ("day", pa.int64())]
    )
    out_schema = pa.schema(
        [
            ("custkey", pa.int64()),
            ("n_orders", pa.int64()),
            ("span_days", pa.int64()),
            ("mean_gap_e3", pa.int64()),
            ("cv2_ppm", pa.int64()),
        ]
    )

    def rows_partial(batch: pa.Table) -> pa.Table:
        date_us = pc.cast(pc.cast(batch["o_orderdate"], pa.timestamp("us")), pa.int64())
        ck = pc.cast(batch["o_custkey"], pa.int64())
        return pa.table(
            {
                "bucket": pc.bit_wise_and(ck, mask),
                "custkey": ck,
                "day": pc.divide(date_us, pa.scalar(_US_PER_DAY, pa.int64())),
            }
        )

    def fold_bucket(group: pa.Table) -> pa.Table:
        ck = np.asarray(group["custkey"], np.int64)
        day = np.asarray(group["day"], np.int64)
        order = np.lexsort((day, ck))
        ck, day = ck[order], day[order]
        new_seg = np.concatenate([[True], ck[1:] != ck[:-1]])
        gaps = np.diff(day)
        gap_ok = ~new_seg[1:]  # a diff is a gap only within one customer
        seg_id = np.cumsum(new_seg) - 1
        n_cust = int(seg_id[-1]) + 1 if len(seg_id) else 0
        n_orders = np.bincount(seg_id, minlength=n_cust)
        g = np.where(gap_ok, gaps, 0)
        # int64 accumulation via add.at — bincount weights are float64 and
        # drift past 2^53 (CLAUDE.md)
        s_per = np.zeros(n_cust, np.int64)
        np.add.at(s_per, seg_id[1:], g)
        gg_per = np.zeros(n_cust, np.int64)
        np.add.at(gg_per, seg_id[1:], g * g)
        keys = ck[new_seg]
        keep = (n_orders >= min_orders) & (s_per > 0)
        keys, n_o, s, gg = keys[keep], n_orders[keep], s_per[keep], gg_per[keep]
        n_g = n_o - 1
        # Python ints for the ppm numerators (n*G*1e6 overflows int64 at
        # warehouse-scale gap magnitudes)
        mean_e3 = [int(a) * 1000 // int(b) for a, b in zip(s, n_g)]
        cv2 = [
            (int(n) * int(G) - int(S) * int(S)) * 1_000_000 // (int(S) * int(S))
            for n, G, S in zip(n_g, gg, s)
        ]
        return pa.table(
            {
                "custkey": pa.array(keys, pa.int64()),
                "n_orders": pa.array(n_o.astype(np.int64), pa.int64()),
                "span_days": pa.array(s, pa.int64()),
                "mean_gap_e3": pa.array(mean_e3, pa.int64()),
                "cv2_ppm": pa.array(cv2, pa.int64()),
            }
        )

    return (
        bucket_exchange(
            orders,
            fold_bucket,
            schema=row_schema,
            out_schema=out_schema,
            emit=rows_partial,
        )
        .sort("custkey")
    )


CUSTOMER_ORDER_REGULARITY_SQL = f"""
WITH o AS (
  SELECT o_custkey AS ck,
         epoch_us(CAST(o_orderdate AS TIMESTAMP)) // {_US_PER_DAY} AS day
  FROM orders),
g AS (
  SELECT ck, day - lag(day) OVER (PARTITION BY ck ORDER BY day) AS gap
  FROM o),
a AS (
  SELECT ck, count(*) AS n_orders, count(gap) AS n_gaps,
         sum(gap) AS s, sum(gap * gap) AS gg
  FROM g GROUP BY ck
  HAVING count(*) >= 3 AND sum(gap) > 0)
SELECT ck AS custkey, CAST(n_orders AS BIGINT) AS n_orders,
       CAST(s AS BIGINT) AS span_days,
       CAST(s * 1000 // n_gaps AS BIGINT) AS mean_gap_e3,
       CAST((CAST(n_gaps AS HUGEINT) * gg - CAST(s AS HUGEINT) * s) * 1000000
            // (CAST(s AS HUGEINT) * s) AS BIGINT) AS cv2_ppm
FROM a ORDER BY custkey
"""


# ---------------------------------------------------------------------------
# relational division: customers who ordered ALL of the top brands
# ---------------------------------------------------------------------------

def _or_by_key(keys: np.ndarray, bits: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Bitwise-OR ``bits`` per distinct key -> (sorted unique keys, masks)."""
    ukeys, inv = np.unique(keys, return_inverse=True)
    masks = np.zeros(len(ukeys), np.int64)
    np.bitwise_or.at(masks, inv, bits)
    return ukeys, masks


_DIVISION_TOP_BRANDS = 5


def customers_with_all_brands(
    sf_dir: str, *, n_brands: int = _DIVISION_TOP_BRANDS
) -> ray.data.Dataset:
    """Relational DIVISION — the classic "FOR ALL" join shape none of the
    22 TPC-H queries exercises: customers whose order history covers ALL
    of the top-``n_brands`` brands (by distinct-order count, ties by
    brand name).  The suppliers-who-stock-every-color query of the
    textbooks, with a data-derived divisor set so it stays non-vacuous
    at every corpus scale (brands are a bounded domain; per-part
    divisors thin out as the catalog grows).

    Plan shape: pass 1 folds per-brand distinct-order counts (combiner:
    per-batch distinct (order, brand) pairs through the broadcast
    part->brand dim) and takes the bounded top-k divisor; pass 2
    BROADCASTS the k brands as presence bits and pre-ORs them per order
    inside each lineitem batch.  An orderkey-bucketed tagged union
    co-shuffles those partials with the (o_orderkey, o_custkey) rows, so
    each bucket resolves the customer (the exchange-1 recipe of
    ``lineitem_status_pit``); ONE custkey-bucketed exchange then ORs the
    bits per customer (Ray's aggregate set has no bit-or) and keeps
    mask == full.  The count(DISTINCT)==k trick as a bit fold — no fact
    table reaches the driver.  At 100 TB the part->brand hop becomes a
    bucketed join (pipelines/joins.py).
    """
    from ray.data.aggregate import Sum

    # broadcast part -> brand dim
    # bounded: part dimension (200k rows per scale-factor unit)
    part = read_table(sf_dir, "part", columns=["p_partkey", "p_brand"]).take_all()
    pkeys = np.array([r["p_partkey"] for r in part], np.int64)
    brands_all = sorted({r["p_brand"] for r in part})
    brand_idx = {b: i for i, b in enumerate(brands_all)}
    pbrand = np.array([brand_idx[r["p_brand"]] for r in part], np.int64)
    porder = np.argsort(pkeys)
    pkeys, pbrand = pkeys[porder], pbrand[porder]

    li = read_table(sf_dir, "lineitem", columns=["l_orderkey", "l_partkey"])

    bc_schema = pa.schema([("brand", pa.int64()), ("n", pa.int64())])

    def brand_counts(batch: pa.Table) -> pa.Table:
        if batch.num_rows == 0 or batch.num_columns == 0:
            return bc_schema.empty_table()
        pk = pc.cast(batch["l_partkey"], pa.int64()).to_numpy(zero_copy_only=False)
        t = (
            pa.table(
                {
                    "okey": pc.cast(batch["l_orderkey"], pa.int64()),
                    "brand": pa.array(pbrand[np.searchsorted(pkeys, pk)], pa.int64()),
                }
            )
            .group_by(["okey", "brand"])
            .aggregate([])
        )
        return (
            t.group_by("brand")
            .aggregate([([], "count_all")])
            .rename_columns(["brand", "n"])
        )

    top = (
        li.map_batches(brand_counts, batch_format="pyarrow", zero_copy_batch=True)
        .groupby("brand")
        .aggregate(Sum(on="n", alias_name="n"))
        .take_all()  # bounded: one row per brand (a small domain)
    )
    top.sort(key=lambda r: (-int(r["n"]), brands_all[int(r["brand"])]))
    divisor_idx = np.array(
        sorted(int(r["brand"]) for r in top[:n_brands]), np.int64
    )
    full_mask = (1 << len(divisor_idx)) - 1
    bit_of_brand = np.full(len(brands_all), -1, np.int64)
    for bit, bi in enumerate(divisor_idx):
        bit_of_brand[bi] = bit

    # exchange 1 (orderkey bucket): per-batch brand bits pre-ORed per
    # order co-shuffle with the (orderkey, custkey) rows; each bucket
    # resolves the custkey and pre-ORs per customer
    n_ob = _order_buckets(sf_dir)
    omask = pa.scalar(n_ob - 1, pa.int64())
    ex1 = pa.schema(
        [
            ("key", pa.int64()),
            ("bits", pa.int64()),
            ("custkey", pa.int64()),
            ("side", pa.int8()),
            ("bucket", pa.int64()),
        ]
    )
    bit_schema = pa.schema([("custkey", pa.int64()), ("bits", pa.int64())])
    out_schema = pa.schema([("custkey", pa.int64()), ("n_brands", pa.int64())])

    def li_bits(batch: pa.Table) -> pa.Table:
        if batch.num_rows == 0 or batch.num_columns == 0:
            return ex1.empty_table()
        pk = pc.cast(batch["l_partkey"], pa.int64()).to_numpy(zero_copy_only=False)
        bit = bit_of_brand[pbrand[np.searchsorted(pkeys, pk)]]
        hit = bit >= 0
        ok = pc.cast(batch["l_orderkey"], pa.int64()).to_numpy(zero_copy_only=False)
        keys, masks = _or_by_key(ok[hit], np.int64(1) << bit[hit])
        cols = {"key": pa.array(keys, pa.int64()), "bits": pa.array(masks, pa.int64())}
        return _widen(cols, ex1, 0, "key", omask)

    def ord_map(batch: pa.Table) -> pa.Table:
        if batch.num_rows == 0 or batch.num_columns == 0:
            return ex1.empty_table()
        cols = {
            "key": pc.cast(batch["o_orderkey"], pa.int64()),
            "custkey": pc.cast(batch["o_custkey"], pa.int64()),
        }
        return _widen(cols, ex1, 1, "key", omask)

    def resolve_bucket(group: pa.Table) -> pa.Table:
        facts = group.filter(pc.equal(group["side"], 0)).select(["key", "bits"])
        omap = group.filter(pc.equal(group["side"], 1)).select(["key", "custkey"])
        if facts.num_rows == 0 or omap.num_rows == 0:
            return bit_schema.empty_table()
        j = facts.join(omap, keys=["key"], join_type="inner")
        keys, masks = _or_by_key(
            np.asarray(j["custkey"], np.int64), np.asarray(j["bits"], np.int64)
        )
        return pa.table(
            {"custkey": pa.array(keys, pa.int64()), "bits": pa.array(masks, pa.int64())}
        )

    # exchange 2: the global bit-OR needs a custkey-bucketed exchange
    # (Ray's aggregate set has no bit-or)
    n_b = 64
    bmask = pa.scalar(n_b - 1, pa.int64())

    def add_bucket(batch: pa.Table) -> pa.Table:
        return batch.append_column(
            "bucket", pc.bit_wise_and(batch["custkey"], bmask)
        )

    def or_bucket(group: pa.Table) -> pa.Table:
        keys, masks = _or_by_key(
            np.asarray(group["custkey"], np.int64), np.asarray(group["bits"], np.int64)
        )
        keep = masks == full_mask
        return pa.table(
            {
                "custkey": pa.array(keys[keep], pa.int64()),
                "n_brands": pa.array(
                    np.full(int(keep.sum()), len(divisor_idx), np.int64), pa.int64()
                ),
            }
        )

    def pin_schema(batch: pa.Table) -> pa.Table:
        # a legitimately-empty result surfaces as column-less blocks
        # (CLAUDE.md hazard) — re-pin the declared schema
        if batch.num_rows == 0 or batch.num_columns == 0:
            return out_schema.empty_table()
        return batch.select(out_schema.names).cast(out_schema)

    orders = read_table(sf_dir, "orders", columns=["o_orderkey", "o_custkey"])
    per_cust = bucket_exchange(
        li.map_batches(li_bits, batch_format="pyarrow", zero_copy_batch=True).union(
            orders.map_batches(ord_map, batch_format="pyarrow", zero_copy_batch=True)
        ),
        resolve_bucket,
        schema=ex1,
        out_schema=bit_schema,
    )
    return (
        bucket_exchange(
            per_cust,
            or_bucket,
            schema=bit_schema.append(pa.field("bucket", pa.int64())),
            out_schema=out_schema,
            emit=add_bucket,
        )
        .sort("custkey")
        .map_batches(pin_schema, batch_format="pyarrow")
    )


CUSTOMERS_WITH_ALL_BRANDS_SQL = f"""
WITH bc AS (
  SELECT p.p_brand AS b, count(DISTINCT l.l_orderkey) AS n
  FROM lineitem l JOIN part p ON p.p_partkey = l.l_partkey
  GROUP BY 1),
top AS (SELECT b FROM bc ORDER BY n DESC, b LIMIT {_DIVISION_TOP_BRANDS}),
hits AS (
  SELECT DISTINCT o.o_custkey AS custkey, p.p_brand AS b
  FROM lineitem l
  JOIN part p ON p.p_partkey = l.l_partkey
  JOIN orders o ON o.o_orderkey = l.l_orderkey
  JOIN top t ON t.b = p.p_brand)
SELECT custkey, count(*) AS n_brands
FROM hits GROUP BY custkey
HAVING count(*) = {_DIVISION_TOP_BRANDS}
ORDER BY custkey
"""


# ---------------------------------------------------------------------------
# functional-dependency profiling over the orders/customer columns
# ---------------------------------------------------------------------------

_FD_CANDIDATES = (
    ("orders", "o_custkey", "o_orderpriority"),
    ("orders", "o_orderdate", "o_orderstatus"),
    ("customer", "c_custkey", "c_mktsegment"),
    ("customer", "c_nationkey", "c_mktsegment"),
    ("lineitem", "l_orderkey", "l_returnflag"),
)


def functional_dependency_report(sf_dir: str) -> pa.Table:
    """Functional-dependency profiling (the schema-discovery pass of data
    profilers like Metanome): for each candidate A -> B over the TPC-H
    columns, does A determine B?  Reports distinct-A, distinct-(A,B) and
    the violation count (A values mapping to >1 B) — FD holds iff
    violations = 0.

    Plan shape: per candidate, ONE pass of per-batch DISTINCT (a, b)
    pairs folded by a single groupby (the shuffle carries per-batch
    distinct pairs, never raw rows); the per-A rollup of the bounded
    distinct-pair table finishes the count.  Candidates are a fixed
    bounded list, so the loop over them is a driver loop over bounded
    plans, not over data.
    """
    from ray.data.aggregate import Count, Sum

    out = {"dep": [], "n_distinct_a": [], "n_distinct_ab": [], "n_violating_a": [], "fd_holds": []}
    for table, a_col, b_col in _FD_CANDIDATES:
        ds = read_table(sf_dir, table, columns=[a_col, b_col])

        pair_schema = pa.schema([("a", pa.string()), ("b", pa.string())])

        def pairs(batch: pa.Table, a_col=a_col, b_col=b_col) -> pa.Table:
            if batch.num_rows == 0 or batch.num_columns == 0:
                return pair_schema.empty_table()
            return (
                pa.table(
                    {
                        "a": pc.cast(batch[a_col], pa.string()),
                        "b": pc.cast(batch[b_col], pa.string()),
                    }
                )
                .group_by(["a", "b"])
                .aggregate([])
            )

        sum_schema = pa.schema(
            [("n_a", pa.int64()), ("n_ab", pa.int64()), ("viol", pa.int64())]
        )

        def summarize(batch: pa.Table) -> pa.Table:
            # per-block partial over the per-A distinct-B counts, so the
            # driver pulls one row per BLOCK, never one per distinct A
            if batch.num_rows == 0 or batch.num_columns == 0:
                return sum_schema.empty_table()
            nb = pc.cast(batch["count()"], pa.int64()).to_numpy(zero_copy_only=False)
            return pa.table(
                {
                    "n_a": pa.array([len(nb)], pa.int64()),
                    "n_ab": pa.array([int(nb.sum())], pa.int64()),
                    "viol": pa.array([int((nb > 1).sum())], pa.int64()),
                }
            )

        parts = (
            ds.map_batches(pairs, batch_format="pyarrow", zero_copy_batch=True)
            .groupby(["a", "b"])
            .aggregate(Count())
            .groupby("a")
            .aggregate(Count())
            .map_batches(summarize, batch_format="pyarrow")
            .take_all()  # bounded: one row per block
        )
        n_a = sum(int(r["n_a"]) for r in parts)
        n_ab = sum(int(r["n_ab"]) for r in parts)
        viol = sum(int(r["viol"]) for r in parts)
        out["dep"].append(f"{table}.{a_col}->{b_col}")
        out["n_distinct_a"].append(n_a)
        out["n_distinct_ab"].append(n_ab)
        out["n_violating_a"].append(viol)
        out["fd_holds"].append(int(viol == 0))
    order = sorted(range(len(out["dep"])), key=lambda i: out["dep"][i])
    for k in out:
        out[k] = [out[k][i] for i in order]  # oracle orders by dep
    return pa.table(
        {
            "dep": pa.array(out["dep"], pa.string()),
            "n_distinct_a": pa.array(out["n_distinct_a"], pa.int64()),
            "n_distinct_ab": pa.array(out["n_distinct_ab"], pa.int64()),
            "n_violating_a": pa.array(out["n_violating_a"], pa.int64()),
            "fd_holds": pa.array(out["fd_holds"], pa.int64()),
        }
    )


def _fd_candidate_sql(table: str, a: str, b: str) -> str:
    return f"""
SELECT '{table}.{a}->{b}' AS dep,
       count(*) AS n_distinct_a,
       CAST(sum(nb) AS BIGINT) AS n_distinct_ab,
       CAST(sum(CASE WHEN nb > 1 THEN 1 ELSE 0 END) AS BIGINT) AS n_violating_a,
       CAST(CAST(sum(CASE WHEN nb > 1 THEN 1 ELSE 0 END) AS BIGINT) = 0 AS BIGINT)
         AS fd_holds
FROM (SELECT CAST({a} AS VARCHAR) AS a, count(DISTINCT CAST({b} AS VARCHAR)) AS nb
      FROM {table} GROUP BY 1)"""


FUNCTIONAL_DEPENDENCY_SQL = (
    "SELECT * FROM (\n"
    + "\nUNION ALL\n".join(
        _fd_candidate_sql(t, a, b) for t, a, b in _FD_CANDIDATES
    )
    + "\n) ORDER BY dep"
)


# ---------------------------------------------------------------------------
# order value-band transition matrix (upgrade/downgrade flows)
# ---------------------------------------------------------------------------

_BAND_CENTS = 10_000_000  # $100k bands
_BAND_MAX = 3


def order_band_transitions(
    sf_dir: str, *, n_buckets: int | None = None
) -> ray.data.Dataset:
    """Value-band transition matrix over each customer's CONSECUTIVE
    orders: band(order i) -> band(order i+1) counts, where band =
    min(cents // $100k, 3) — the upgrade/downgrade flow ("do customers
    step up after a big order?") that the Markov transition shape
    (events_transitions) expresses for order VALUES instead of event
    types.

    Determinism: the within-customer sequence orders by
    (o_orderdate, o_orderkey) — the unique-key tiebreak both engines pin
    (CLAUDE.md's duplicate-timestamp hazard).

    Plan shape: ONE custkey-bucketed exchange; in-bucket lexsort +
    adjacent-pair emission on a combined int64 key (from*4 + to),
    pre-folded per bucket; global fold is <=16 rows.
    """
    from ray.data.aggregate import Sum

    from ..scale import bucket_count, estimate_rows

    est = estimate_rows(sf_dir, "orders")
    n_b = n_buckets or bucket_count(est)
    mask = pa.scalar(n_b - 1, pa.int64())

    orders = read_table(
        sf_dir, "orders", columns=["o_custkey", "o_orderkey", "o_orderdate", "o_totalprice"]
    )

    row_schema = pa.schema(
        [
            ("bucket", pa.int64()),
            ("custkey", pa.int64()),
            ("okey", pa.int64()),
            ("day", pa.int64()),
            ("band", pa.int64()),
        ]
    )
    pair_schema = pa.schema([("key", pa.int64()), ("n", pa.int64())])
    out_schema = pa.schema(
        [("band_from", pa.int64()), ("band_to", pa.int64()), ("n", pa.int64())]
    )

    def rows_partial(batch: pa.Table) -> pa.Table:
        ck = pc.cast(batch["o_custkey"], pa.int64())
        date_us = pc.cast(pc.cast(batch["o_orderdate"], pa.timestamp("us")), pa.int64())
        cents = _cents(batch["o_totalprice"]).to_numpy(zero_copy_only=False)
        band = np.minimum(cents // _BAND_CENTS, _BAND_MAX)
        return pa.table(
            {
                "bucket": pc.bit_wise_and(ck, mask),
                "custkey": ck,
                "okey": pc.cast(batch["o_orderkey"], pa.int64()),
                "day": pc.divide(date_us, pa.scalar(_US_PER_DAY, pa.int64())),
                "band": pa.array(band, pa.int64()),
            }
        )

    def fold_bucket(group: pa.Table) -> pa.Table:
        ck = np.asarray(group["custkey"], np.int64)
        ok = np.asarray(group["okey"], np.int64)
        day = np.asarray(group["day"], np.int64)
        band = np.asarray(group["band"], np.int64)
        order = np.lexsort((ok, day, ck))
        ck, band = ck[order], band[order]
        same = ck[1:] == ck[:-1]
        key = band[:-1][same] * 4 + band[1:][same]
        uk, cnt = np.unique(key, return_counts=True)
        return pa.table(
            {"key": pa.array(uk, pa.int64()), "n": pa.array(cnt.astype(np.int64), pa.int64())}
        )

    def decode(batch: pa.Table) -> pa.Table:
        if batch.num_rows == 0 or batch.num_columns == 0:
            return out_schema.empty_table()
        key = pc.cast(batch["key"], pa.int64()).to_numpy(zero_copy_only=False)
        return pa.table(
            {
                "band_from": pa.array(key // 4, pa.int64()),
                "band_to": pa.array(key % 4, pa.int64()),
                "n": pc.cast(batch["n"], pa.int64()),
            }
        )

    return (
        bucket_exchange(
            orders,
            fold_bucket,
            schema=row_schema,
            out_schema=pair_schema,
            emit=rows_partial,
        )
        .groupby("key")
        .aggregate(Sum(on="n", alias_name="n"))
        .map_batches(decode, batch_format="pyarrow")
        .sort(["band_from", "band_to"])
    )


ORDER_BAND_TRANSITIONS_SQL = f"""
WITH o AS (
  SELECT o_custkey AS ck, o_orderkey AS okey,
         epoch_us(CAST(o_orderdate AS TIMESTAMP)) // {_US_PER_DAY} AS day,
         least(CAST(round(o_totalprice * 100) AS BIGINT) // {_BAND_CENTS},
               {_BAND_MAX}) AS band
  FROM orders),
t AS (
  SELECT ck, band,
         lag(band) OVER (PARTITION BY ck ORDER BY day, okey) AS prev
  FROM o)
SELECT prev AS band_from, band AS band_to, count(*) AS n
FROM t WHERE prev IS NOT NULL
GROUP BY 1, 2 ORDER BY 1, 2
"""


# ---------------------------------------------------------------------------
# PPS systematic sample: probability-proportional-to-size order sample
# ---------------------------------------------------------------------------

_PPS_K = 500


def pps_sample_orders(
    sf_dir: str, *, k: int = _PPS_K, n_buckets: int = 64
) -> ray.data.Dataset:
    """Probability-proportional-to-size SYSTEMATIC sample of orders: lay
    the orders end-to-end on the cumulative-cents line (in o_orderkey
    order), drop k equally-spaced sampling points at the interval
    midpoints, and keep every order whose cents-interval contains a
    point (``n_hits`` counts points, so a whale order can be hit
    multiple times — the Horvitz-Thompson weight).  The estimator family
    (audit sampling, monetary-unit sampling in finance) the uniform
    samplers cannot express: selection probability proportional to
    revenue.

    Exactness: target i sits at t_i = (total*(2i+1)) // (2k); the number
    of targets below x is a closed-form integer expression guarded so
    every floor division sees a POSITIVE numerator (Python floor ==
    DuckDB truncate there); hits per order = cnt_lt(hi) - cnt_lt(lo) on
    exact int64 prefix sums.

    Plan shape: pass 1 folds per-RANGE-bucket cents totals (bucket =
    orderkey // stride is MONOTONE, so bucket order == key order); the
    driver turns <=n_buckets totals into exclusive prefix offsets and
    broadcasts them; pass 2 is the same bucketed exchange where each
    bucket sorts its orders, adds its offset, and applies the vectorized
    hit-count formula.  No global sort, no driver data pull.
    """
    from ray.data.aggregate import Max, Sum

    orders = read_table(sf_dir, "orders", columns=["o_orderkey", "o_totalprice"])

    # stride from the max key (footer-cheap aggregate)
    mx = orders.aggregate(Max("o_orderkey"))["max(o_orderkey)"]
    stride = int(mx) // n_buckets + 1

    tot_schema = pa.schema([("bucket", pa.int64()), ("cents", pa.int64())])

    def tot_partial(batch: pa.Table) -> pa.Table:
        if batch.num_rows == 0 or batch.num_columns == 0:
            return tot_schema.empty_table()
        t = pa.table(
            {
                "bucket": pc.divide(
                    pc.cast(batch["o_orderkey"], pa.int64()),
                    pa.scalar(stride, pa.int64()),
                ),
                "cents": _cents(batch["o_totalprice"]),
            }
        )
        return (
            t.group_by("bucket").aggregate([("cents", "sum")]).rename_columns(tot_schema.names)
        )

    tots = (
        orders.map_batches(tot_partial, batch_format="pyarrow", zero_copy_batch=True)
        .groupby("bucket")
        .aggregate(Sum(on="cents", alias_name="cents"))
        .take_all()  # bounded: n_buckets rows
    )
    tots.sort(key=lambda r: int(r["bucket"]))
    offsets: dict[int, int] = {}
    run = 0
    for r in tots:
        offsets[int(r["bucket"])] = run
        run += int(r["cents"])
    total = run
    kk = k

    def cnt_lt(x: np.ndarray) -> np.ndarray:
        # number of midpoint targets strictly below x (element-wise);
        # guarded so every floor sees a positive numerator
        inner = ((2 * kk * x - 1) // total - 1) // 2 + 1
        return np.where((x <= 0) | (2 * kk * x <= total), 0, np.minimum(kk, inner))

    row_schema = pa.schema(
        [("bucket", pa.int64()), ("okey", pa.int64()), ("cents", pa.int64())]
    )
    out_schema = pa.schema(
        [("orderkey", pa.int64()), ("cents", pa.int64()), ("n_hits", pa.int64())]
    )

    def rows_partial(batch: pa.Table) -> pa.Table:
        ok = pc.cast(batch["o_orderkey"], pa.int64())
        return pa.table(
            {
                "bucket": pc.divide(ok, pa.scalar(stride, pa.int64())),
                "okey": ok,
                "cents": _cents(batch["o_totalprice"]),
            }
        )

    def select_bucket(group: pa.Table) -> pa.Table:
        ok = np.asarray(group["okey"], np.int64)
        cents = np.asarray(group["cents"], np.int64)
        order = np.argsort(ok, kind="stable")
        ok, cents = ok[order], cents[order]
        off = offsets[int(group["bucket"][0].as_py())]
        hi = off + np.cumsum(cents)
        lo = hi - cents
        hits = cnt_lt(hi) - cnt_lt(lo)
        keep = hits > 0
        return pa.table(
            {
                "orderkey": pa.array(ok[keep], pa.int64()),
                "cents": pa.array(cents[keep], pa.int64()),
                "n_hits": pa.array(hits[keep].astype(np.int64), pa.int64()),
            }
        )

    return (
        bucket_exchange(
            orders,
            select_bucket,
            schema=row_schema,
            out_schema=out_schema,
            emit=rows_partial,
        )
        .sort("orderkey")
    )


PPS_SAMPLE_ORDERS_SQL = f"""
WITH o AS (
  SELECT o_orderkey AS okey,
         CAST(round(o_totalprice * 100) AS BIGINT) AS cents
  FROM orders),
c AS (
  SELECT okey, cents,
         sum(cents) OVER (ORDER BY okey ROWS UNBOUNDED PRECEDING) AS cum_hi,
         sum(cents) OVER () AS total
  FROM o),
s AS (SELECT okey, cents, cum_hi - cents AS cum_lo, cum_hi, total FROM c),
f AS (
  SELECT okey, cents,
         (CASE WHEN 2 * {_PPS_K} * cum_hi <= total THEN 0
               ELSE least({_PPS_K},
                          ((2 * {_PPS_K} * CAST(cum_hi AS HUGEINT) - 1) // total
                           - 1) // 2 + 1) END)
       - (CASE WHEN cum_lo <= 0 OR 2 * {_PPS_K} * cum_lo <= total THEN 0
               ELSE least({_PPS_K},
                          ((2 * {_PPS_K} * CAST(cum_lo AS HUGEINT) - 1) // total
                           - 1) // 2 + 1) END) AS n_hits
  FROM s)
SELECT okey AS orderkey, cents, CAST(n_hits AS BIGINT) AS n_hits
FROM f WHERE n_hits > 0 ORDER BY orderkey
"""


# ---------------------------------------------------------------------------
# Lorenz-curve deciles of per-customer revenue (concentration profile)
# ---------------------------------------------------------------------------


def revenue_lorenz_deciles(sf_dir: str) -> pa.Table:
    """Lorenz-curve decile table of per-customer revenue: customers sorted
    ascending by spend, split into 10 equal-count deciles, each with its
    revenue mass and the CUMULATIVE share — the concentration profile
    ("the top decile is 38% of revenue") that the scalar Gini
    (revenue_gini_by_nation) summarizes but cannot show.

    Exactness: decile of the rank-r customer (0-based, ties broken by
    custkey) is ``r * 10 // n`` — a pure integer expression; revenue
    folds in int64 cents; cum_share_ppm floor-divides once per decile.
    ``cum * 1e6`` overflows int64 at scale: PYTHON INTS / HUGEINT.

    Plan shape: ONE custkey groupby-sum fold (customer-dimension-bounded),
    driver rank/cumulate finish over those dimension rows.
    """
    from ray.data.aggregate import Sum

    orders = read_table(sf_dir, "orders", columns=["o_custkey", "o_totalprice"])

    part_schema = pa.schema([("custkey", pa.int64()), ("cents", pa.int64())])

    def partial(batch: pa.Table) -> pa.Table:
        if batch.num_rows == 0 or batch.num_columns == 0:
            return part_schema.empty_table()
        t = pa.table(
            {
                "custkey": pc.cast(batch["o_custkey"], pa.int64()),
                "cents": _cents(batch["o_totalprice"]),
            }
        )
        return (
            t.group_by("custkey").aggregate([("cents", "sum")]).rename_columns(part_schema.names)
        )

    rows = (
        orders.map_batches(partial, batch_format="pyarrow", zero_copy_batch=True)
        .groupby("custkey")
        .aggregate(Sum(on="cents", alias_name="cents"))
        .take_all()  # bounded: one row per customer (a dimension)
    )
    rows.sort(key=lambda r: (int(r["cents"]), int(r["custkey"])))
    n = len(rows)
    total = sum(int(r["cents"]) for r in rows)
    dec_rev = [0] * 10
    dec_n = [0] * 10
    for r_idx, r in enumerate(rows):
        d = r_idx * 10 // n
        dec_rev[d] += int(r["cents"])
        dec_n[d] += 1
    out = {"decile": [], "n_cust": [], "rev_cents": [], "cum_share_ppm": []}
    cum = 0
    for d in range(10):
        cum += dec_rev[d]
        out["decile"].append(d)
        out["n_cust"].append(dec_n[d])
        out["rev_cents"].append(dec_rev[d])
        out["cum_share_ppm"].append(cum * 1_000_000 // total)
    return pa.table(
        {
            "decile": pa.array(out["decile"], pa.int64()),
            "n_cust": pa.array(out["n_cust"], pa.int64()),
            "rev_cents": pa.array(out["rev_cents"], pa.int64()),
            "cum_share_ppm": pa.array(out["cum_share_ppm"], pa.int64()),
        }
    )


REVENUE_LORENZ_DECILES_SQL = """
WITH cu AS (
  SELECT o_custkey AS custkey,
         sum(CAST(round(o_totalprice * 100) AS BIGINT)) AS cents
  FROM orders GROUP BY 1),
r AS (
  SELECT cents,
         (row_number() OVER (ORDER BY cents, custkey) - 1) AS rk,
         count(*) OVER () AS n, sum(cents) OVER () AS total
  FROM cu),
d AS (
  SELECT rk * 10 // n AS decile, count(*) AS n_cust,
         sum(cents) AS rev_cents, max(total) AS total
  FROM r GROUP BY 1)
SELECT decile, CAST(n_cust AS BIGINT) AS n_cust,
       CAST(rev_cents AS BIGINT) AS rev_cents,
       CAST(CAST(sum(rev_cents) OVER (ORDER BY decile ROWS UNBOUNDED PRECEDING)
                 AS HUGEINT) * 1000000 // total AS BIGINT) AS cum_share_ppm
FROM d ORDER BY decile
"""


# ---------------------------------------------------------------------------
# key-sequence gap audit (islands over the orderkey domain)
# ---------------------------------------------------------------------------


def orderkey_gap_audit(sf_dir: str, *, n_buckets: int = 64) -> pa.Table:
    """Key-sequence completeness audit over the orderkey domain: how many
    keys exist, the domain span, how many gap RUNS interrupt it and how
    many keys are missing in total — the ingestion-loss / CDC-hole check
    a warehouse runs after every backfill (TPC-H itself ships with a
    deliberately gappy orderkey domain, so the result is non-trivial at
    every scale).

    Exactness: pure integer islands arithmetic.  Distributed gap
    counting never ships the keys to the driver: RANGE buckets
    (bucket = key // stride is monotone) fold per-bucket (n, min, max,
    internal gap runs, internal missing) partials; the driver stitches
    <=n_buckets summaries, adding the BOUNDARY gap between consecutive
    non-empty buckets (prev.max -> next.min).

    Oracle: LAG over the distinct-key sequence.
    """
    from ray.data.aggregate import Max, Sum

    orders = read_table(sf_dir, "orders", columns=["o_orderkey"])
    mx = int(orders.aggregate(Max("o_orderkey"))["max(o_orderkey)"])
    stride = mx // n_buckets + 1

    part_schema = pa.schema(
        [
            ("bucket", pa.int64()),
            ("okey", pa.int64()),
        ]
    )
    sum_schema = pa.schema(
        [
            ("bucket", pa.int64()),
            ("n", pa.int64()),
            ("kmin", pa.int64()),
            ("kmax", pa.int64()),
            ("runs", pa.int64()),
            ("miss", pa.int64()),
        ]
    )

    def rows_partial(batch: pa.Table) -> pa.Table:
        ok = pc.cast(batch["o_orderkey"], pa.int64())
        return pa.table(
            {"bucket": pc.divide(ok, pa.scalar(stride, pa.int64())), "okey": ok}
        )

    def fold_bucket(group: pa.Table) -> pa.Table:
        ok = np.unique(np.asarray(group["okey"], np.int64))
        gaps = np.diff(ok) - 1
        return pa.table(
            {
                "bucket": pa.array([int(group["bucket"][0].as_py())], pa.int64()),
                "n": pa.array([len(ok)], pa.int64()),
                "kmin": pa.array([int(ok[0])], pa.int64()),
                "kmax": pa.array([int(ok[-1])], pa.int64()),
                "runs": pa.array([int((gaps > 0).sum())], pa.int64()),
                "miss": pa.array([int(gaps.sum())], pa.int64()),
            }
        )

    parts = (
        bucket_exchange(
            orders,
            fold_bucket,
            schema=part_schema,
            out_schema=sum_schema,
            emit=rows_partial,
        )
        .take_all()  # bounded: one summary row per range bucket
    )
    parts.sort(key=lambda r: int(r["bucket"]))
    n_keys = sum(int(r["n"]) for r in parts)
    runs = sum(int(r["runs"]) for r in parts)
    miss = sum(int(r["miss"]) for r in parts)
    for prev, nxt in zip(parts, parts[1:]):
        boundary = int(nxt["kmin"]) - int(prev["kmax"]) - 1
        if boundary > 0:
            runs += 1
            miss += boundary
    return pa.table(
        {
            "n_keys": pa.array([n_keys], pa.int64()),
            "min_key": pa.array([int(parts[0]["kmin"]) if parts else 0], pa.int64()),
            "max_key": pa.array([int(parts[-1]["kmax"]) if parts else 0], pa.int64()),
            "n_gap_runs": pa.array([runs], pa.int64()),
            "n_missing": pa.array([miss], pa.int64()),
        }
    )


ORDERKEY_GAP_AUDIT_SQL = """
WITH k AS (SELECT DISTINCT o_orderkey AS okey FROM orders),
g AS (
  SELECT okey, okey - lag(okey) OVER (ORDER BY okey) - 1 AS gap
  FROM k)
SELECT (SELECT count(*) FROM k) AS n_keys,
       (SELECT min(okey) FROM k) AS min_key,
       (SELECT max(okey) FROM k) AS max_key,
       CAST(coalesce(sum(CASE WHEN gap > 0 THEN 1 ELSE 0 END), 0) AS BIGINT)
         AS n_gap_runs,
       CAST(coalesce(sum(CASE WHEN gap > 0 THEN gap ELSE 0 END), 0) AS BIGINT)
         AS n_missing
FROM g
"""


# ---------------------------------------------------------------------------
# time-decayed customer value (integer-exact half-life weighting)
# ---------------------------------------------------------------------------

_DECAY_HALFLIFE_DAYS = 180


def decayed_customer_value(
    sf_dir: str, *, halflife_days: int = _DECAY_HALFLIFE_DAYS
) -> ray.data.Dataset:
    """Recency-weighted customer value: every order contributes its cents
    HALVED once per elapsed half-life (age measured back from the
    corpus's max order date) — the exponential-decay LTV signal scoring
    recent spend above ancient spend, kept EXACT by decaying in whole
    half-life steps (``cents >> (age_days // H)``): a bit shift is the
    one exponential both engines compute identically, where a float
    ``pow(0.5, age/H)`` would be hash-hazardous.

    Plan shape: a tiny Max fold pins the anchor date; then per-batch
    vectorized shift + ONE custkey groupby-sum (customer-dim-bounded).
    Shifts clamp at 62 (the value is 0 long before that).
    """
    from ray.data.aggregate import Max, Sum

    orders = read_table(sf_dir, "orders", columns=["o_custkey", "o_orderdate", "o_totalprice"])
    mx = orders.aggregate(Max("o_orderdate"))["max(o_orderdate)"]
    import pandas as pd

    anchor_day = int(pd.Timestamp(mx).value // 1000) // _US_PER_DAY

    part_schema = pa.schema([("custkey", pa.int64()), ("decayed", pa.int64())])

    def partial(batch: pa.Table) -> pa.Table:
        if batch.num_rows == 0 or batch.num_columns == 0:
            return part_schema.empty_table()
        date_us = pc.cast(pc.cast(batch["o_orderdate"], pa.timestamp("us")), pa.int64())
        day = date_us.to_numpy(zero_copy_only=False) // _US_PER_DAY
        k = np.minimum((anchor_day - day) // halflife_days, 62)
        cents = _cents(batch["o_totalprice"]).to_numpy(zero_copy_only=False)
        t = pa.table(
            {
                "custkey": pc.cast(batch["o_custkey"], pa.int64()),
                "decayed": pa.array(cents >> k, pa.int64()),
            }
        )
        return (
            t.group_by("custkey").aggregate([("decayed", "sum")]).rename_columns(part_schema.names)
        )

    return (
        orders.map_batches(partial, batch_format="pyarrow", zero_copy_batch=True)
        .groupby("custkey")
        .aggregate(Sum(on="decayed", alias_name="decayed_cents"))
        .sort("custkey")
    )


DECAYED_CUSTOMER_VALUE_SQL = f"""
WITH a AS (
  SELECT epoch_us(CAST(max(o_orderdate) AS TIMESTAMP)) // {_US_PER_DAY} AS anchor
  FROM orders),
o AS (
  SELECT o_custkey AS custkey,
         CAST(round(o_totalprice * 100) AS BIGINT) AS cents,
         least((a.anchor - epoch_us(CAST(o_orderdate AS TIMESTAMP))
                // {_US_PER_DAY}) // {_DECAY_HALFLIFE_DAYS}, 62) AS k
  FROM orders, a)
SELECT custkey,
       CAST(sum(cents // (1::BIGINT << k)) AS BIGINT) AS decayed_cents
FROM o GROUP BY custkey ORDER BY custkey
"""


# ---------------------------------------------------------------------------
# maximum drawdown of the daily-revenue series
# ---------------------------------------------------------------------------


def revenue_max_drawdown(sf_dir: str) -> pa.Table:
    """Maximum drawdown of daily order revenue: the deepest fall from a
    running peak across the day series — the risk-profile statistic
    (finance's peak-to-trough) a revenue monitor pairs with the trend
    tests; exact integers throughout.

    Plan shape: the bounded day-grain fold shared with the Mann-Kendall /
    runs tests, then a vectorized running-max pass on the driver over
    the k daily points.
    """
    from ray.data.aggregate import Sum

    ds = read_table(sf_dir, "orders", columns=["o_orderdate", "o_totalprice"])

    part_schema = pa.schema([("day", pa.int64()), ("rev", pa.int64())])

    def partial(batch: pa.Table) -> pa.Table:
        if batch.num_rows == 0 or batch.num_columns == 0:
            return part_schema.empty_table()
        date_us = pc.cast(pc.cast(batch["o_orderdate"], pa.timestamp("us")), pa.int64())
        t = pa.table(
            {
                "day": pc.divide(date_us, pa.scalar(_US_PER_DAY, pa.int64())),
                "rev": _cents(batch["o_totalprice"]),
            }
        )
        return (
            t.group_by("day").aggregate([("rev", "sum")]).rename_columns(["day", "rev"])
        )

    rows = (
        ds.map_batches(partial, batch_format="pyarrow", zero_copy_batch=True)
        .groupby("day")
        .aggregate(Sum(on="rev", alias_name="rev"))
        .take_all()  # bounded: one row per calendar day
    )
    rows.sort(key=lambda r: int(r["day"]))
    rev = np.array([int(r["rev"]) for r in rows], np.int64)
    runmax = np.maximum.accumulate(rev)
    dd = runmax - rev
    i = int(np.argmax(dd)) if len(dd) else 0
    return pa.table(
        {
            "n_days": pa.array([len(rev)], pa.int64()),
            "peak_cents": pa.array([int(runmax[i]) if len(rev) else 0], pa.int64()),
            "trough_cents": pa.array([int(rev[i]) if len(rev) else 0], pa.int64()),
            "max_drawdown_cents": pa.array([int(dd[i]) if len(rev) else 0], pa.int64()),
        }
    )


REVENUE_MAX_DRAWDOWN_SQL = f"""
WITH d AS (
  SELECT epoch_us(CAST(o_orderdate AS TIMESTAMP)) // {_US_PER_DAY} AS day,
         sum(CAST(round(o_totalprice * 100) AS BIGINT)) AS rev
  FROM orders GROUP BY 1),
r AS (
  SELECT day, rev,
         max(rev) OVER (ORDER BY day ROWS UNBOUNDED PRECEDING) AS runmax
  FROM d),
w AS (
  SELECT day, rev, runmax, runmax - rev AS dd,
         row_number() OVER (ORDER BY runmax - rev DESC, day) AS rk
  FROM r)
SELECT (SELECT count(*) FROM d) AS n_days,
       CAST(runmax AS BIGINT) AS peak_cents,
       CAST(rev AS BIGINT) AS trough_cents,
       CAST(dd AS BIGINT) AS max_drawdown_cents
FROM w WHERE rk = 1
"""


# ---------------------------------------------------------------------------
# Holt double-exponential forecast of daily revenue (integer-exact)
# ---------------------------------------------------------------------------


def holt_revenue_forecast(sf_dir: str) -> pa.Table:
    """Holt linear (double-exponential) smoothing over the daily-revenue
    series with alpha = beta = 1/4, kept EXACT cross-engine by
    integer-truncating every step (the events_ewma discipline, plus a
    trend term):

        l_1 = y_1,  b_1 = 0
        l_t = trunc((y_t + 3*(l_{t-1} + b_{t-1})) / 4)
        b_t = trunc(((l_t - l_{t-1}) + 3*b_{t-1}) / 4)

    and the one-step-ahead forecast is l_t + b_t.  The trend can go
    NEGATIVE, so the division must truncate toward zero in both engines
    (DuckDB ``//`` truncates; ``_trunc_div`` mirrors) — a floor here
    would silently diverge on every declining stretch.

    Plan shape: ONE bounded day-grain fold (the Mann-Kendall fold), then
    the inherently-sequential recursion runs on the driver over the
    calendar-bounded day series; the oracle is the equivalent recursive
    CTE (depth = day count — calendar-bounded at any corpus scale).
    """
    from ray.data.aggregate import Sum

    ds = read_table(sf_dir, "orders", columns=["o_orderdate", "o_totalprice"])

    part_schema = pa.schema([("day", pa.int64()), ("rev", pa.int64())])

    def partial(batch: pa.Table) -> pa.Table:
        if batch.num_rows == 0 or batch.num_columns == 0:
            return part_schema.empty_table()
        date_us = pc.cast(pc.cast(batch["o_orderdate"], pa.timestamp("us")), pa.int64())
        t = pa.table(
            {
                "day": pc.divide(date_us, pa.scalar(_US_PER_DAY, pa.int64())),
                "rev": _cents(batch["o_totalprice"]),
            }
        )
        return (
            t.group_by("day").aggregate([("rev", "sum")]).rename_columns(["day", "rev"])
        )

    rows = (
        ds.map_batches(partial, batch_format="pyarrow", zero_copy_batch=True)
        .groupby("day")
        .aggregate(Sum(on="rev", alias_name="rev"))
        .take_all()  # bounded: one row per calendar day
    )
    rows.sort(key=lambda r: int(r["day"]))
    out = {"day": [], "rev": [], "level": [], "trend": [], "forecast_next": []}
    level = trend = 0
    for i, r in enumerate(rows):
        day, rev = int(r["day"]), int(r["rev"])
        if i == 0:
            level, trend = rev, 0
        else:
            prev = level
            level = _trunc_div(rev + 3 * (level + trend), 4)
            trend = _trunc_div((level - prev) + 3 * trend, 4)
        out["day"].append(day)
        out["rev"].append(rev)
        out["level"].append(level)
        out["trend"].append(trend)
        out["forecast_next"].append(level + trend)
    return pa.table(
        {
            "day": pa.array(out["day"], pa.int64()),
            "rev": pa.array(out["rev"], pa.int64()),
            "level": pa.array(out["level"], pa.int64()),
            "trend": pa.array(out["trend"], pa.int64()),
            "forecast_next": pa.array(out["forecast_next"], pa.int64()),
        }
    )


HOLT_REVENUE_FORECAST_SQL = f"""
WITH RECURSIVE d AS (
  SELECT epoch_us(CAST(o_orderdate AS TIMESTAMP)) // {_US_PER_DAY} AS day,
         CAST(sum(CAST(round(o_totalprice * 100) AS BIGINT)) AS BIGINT) AS rev
  FROM orders GROUP BY 1),
s AS (SELECT day, rev, row_number() OVER (ORDER BY day) AS seq FROM d),
h AS (
  SELECT day, rev, seq, rev AS level, CAST(0 AS BIGINT) AS trend
  FROM s WHERE seq = 1
  UNION ALL
  SELECT s.day, s.rev, s.seq,
         (s.rev + 3 * (h.level + h.trend)) // 4,
         (((s.rev + 3 * (h.level + h.trend)) // 4 - h.level) + 3 * h.trend) // 4
  FROM s JOIN h ON s.seq = h.seq + 1)
SELECT day, CAST(rev AS BIGINT) AS rev, CAST(level AS BIGINT) AS level,
       CAST(trend AS BIGINT) AS trend,
       CAST(level + trend AS BIGINT) AS forecast_next
FROM h ORDER BY day
"""


# ---------------------------------------------------------------------------
# whale dependence: share of each customer's total in their top-2 orders
# ---------------------------------------------------------------------------


def customer_top2_share(sf_dir: str, *, n_buckets: int | None = None) -> ray.data.Dataset:
    """Whale-order dependence per customer: the share of lifetime revenue
    concentrated in the customer's TWO largest orders — the grouped
    top-k SUM window (sum over rank <= 2, not the top-k rows themselves)
    that flags accounts whose value is one-off spikes rather than a
    run rate.

    Exactness: the top-2 SUM is a multiset statistic, invariant under
    equal-value tie order; share_ppm floor-divides once per customer
    (all positive).

    Plan shape: ONE custkey-bucketed exchange; in-bucket lexsort
    (custkey, cents desc) + segment-rank mask — vectorized, no Python
    per customer.
    """
    from ..scale import bucket_count, estimate_rows

    est = estimate_rows(sf_dir, "orders")
    n_b = n_buckets or bucket_count(est)
    mask = pa.scalar(n_b - 1, pa.int64())

    orders = read_table(sf_dir, "orders", columns=["o_custkey", "o_totalprice"])

    row_schema = pa.schema(
        [("bucket", pa.int64()), ("custkey", pa.int64()), ("cents", pa.int64())]
    )
    out_schema = pa.schema(
        [
            ("custkey", pa.int64()),
            ("n_orders", pa.int64()),
            ("total_cents", pa.int64()),
            ("top2_cents", pa.int64()),
            ("top2_share_ppm", pa.int64()),
        ]
    )

    def rows_partial(batch: pa.Table) -> pa.Table:
        ck = pc.cast(batch["o_custkey"], pa.int64())
        return pa.table(
            {
                "bucket": pc.bit_wise_and(ck, mask),
                "custkey": ck,
                "cents": _cents(batch["o_totalprice"]),
            }
        )

    def fold_bucket(group: pa.Table) -> pa.Table:
        ck = np.asarray(group["custkey"], np.int64)
        cents = np.asarray(group["cents"], np.int64)
        order = np.lexsort((-cents, ck))
        ck, cents = ck[order], cents[order]
        new_seg = np.concatenate([[True], ck[1:] != ck[:-1]])
        seg_id = np.cumsum(new_seg) - 1
        seg_start = np.maximum.accumulate(np.where(new_seg, np.arange(len(ck)), 0))
        rank = np.arange(len(ck)) - seg_start
        n_cust = int(seg_id[-1]) + 1 if len(seg_id) else 0
        n_orders = np.bincount(seg_id, minlength=n_cust).astype(np.int64)
        # int64 accumulation via add.at — bincount weights are float64 and
        # drift past 2^53 (CLAUDE.md)
        total = np.zeros(n_cust, np.int64)
        np.add.at(total, seg_id, cents)
        top2 = np.zeros(n_cust, np.int64)
        np.add.at(top2, seg_id[rank < 2], cents[rank < 2])
        keys = ck[new_seg]
        share = top2 * 1_000_000 // total
        return pa.table(
            {
                "custkey": pa.array(keys, pa.int64()),
                "n_orders": pa.array(n_orders, pa.int64()),
                "total_cents": pa.array(total, pa.int64()),
                "top2_cents": pa.array(top2, pa.int64()),
                "top2_share_ppm": pa.array(share, pa.int64()),
            }
        )

    return (
        bucket_exchange(
            orders,
            fold_bucket,
            schema=row_schema,
            out_schema=out_schema,
            emit=rows_partial,
        )
        .sort("custkey")
    )


CUSTOMER_TOP2_SHARE_SQL = """
WITH o AS (
  SELECT o_custkey AS custkey,
         CAST(round(o_totalprice * 100) AS BIGINT) AS cents
  FROM orders),
r AS (
  SELECT custkey, cents,
         row_number() OVER (PARTITION BY custkey ORDER BY cents DESC) AS rk
  FROM o)
SELECT custkey, count(*) AS n_orders,
       CAST(sum(cents) AS BIGINT) AS total_cents,
       CAST(sum(cents) FILTER (WHERE rk <= 2) AS BIGINT) AS top2_cents,
       CAST(sum(cents) FILTER (WHERE rk <= 2) * 1000000 // sum(cents)
            AS BIGINT) AS top2_share_ppm
FROM r GROUP BY custkey ORDER BY custkey
"""


# ---------------------------------------------------------------------------
# clamped running balance (inventory scan): the canonical NON-associative
# prefix scan — balance floors at zero, so no prefix-sum trick applies
# ---------------------------------------------------------------------------


def inventory_balance_by_type(sf_dir: str) -> pa.Table:
    """Daily clamped running balance per event type: even event_ids are
    receipts (+cents), odd are issues (-cents); the balance starts at 0
    and is floored at 0 every day —

        bal_0 = 0 ;  bal_i = max(0, bal_{i-1} + net_i)

    the inventory / cash-register scan.  Clamping makes the scan
    genuinely NON-associative (no segment-sum decomposition exists), so
    the scale plan is the bounded-domain driver finish: per-batch
    (type, day, net) integer partials -> one day-keyed fold (day
    cardinality is calendar-bounded, types are a small enum; the scan
    input is <= types x days rows at ANY corpus size) -> a pure-Python
    int scan per type.  The oracle runs the identical recurrence as a
    recursive CTE over the per-type day rank."""
    from ray.data.aggregate import Sum

    ds = read_table(sf_dir, "events", columns=["ts", "event_id", "event_type", "value"])

    part_schema = pa.schema(
        [("day", pa.int64()), ("event_type", pa.string()), ("net", pa.int64())]
    )

    def partial(batch: pa.Table) -> pa.Table:
        ts_us = pc.cast(pc.cast(batch["ts"], pa.timestamp("us")), pa.int64())
        day = pc.divide(ts_us, pa.scalar(_US_PER_DAY, pa.int64()))
        cents = pc.cast(_cents(batch["value"]), pa.int64())
        signed = pc.if_else(
            pc.equal(pc.bit_wise_and(batch["event_id"], 1), 0),
            cents,
            pc.negate_checked(cents),
        )
        t = pa.table({"day": day, "event_type": batch["event_type"], "net": signed})
        return (
            t.group_by(["day", "event_type"])
            .aggregate([("net", "sum")])
            .rename_columns(["day", "event_type", "net"])
        )

    def day_fold(group: pa.Table) -> pa.Table:
        # partials for one day from many blocks: sum per type (strings are
        # group PAYLOAD here, never a Ray groupby key)
        return (
            group.group_by(["day", "event_type"])
            .aggregate([("net", "sum")])
            .rename_columns(["day", "event_type", "net"])
        )

    rows = (
        bucket_exchange(
            ds,
            day_fold,
            key="day",
            schema=part_schema,
            out_schema=part_schema,
            emit=partial,
        )
        .take_all()  # bounded: <= n_event_types x n_calendar_days rows
    )
    rows.sort(key=lambda r: (r["event_type"], int(r["day"])))
    out_type: list[str] = []
    out_day: list[int] = []
    out_net: list[int] = []
    out_bal: list[int] = []
    bal = 0
    prev = None
    for r in rows:
        if r["event_type"] != prev:
            bal = 0
            prev = r["event_type"]
        bal = max(0, bal + int(r["net"]))  # exact Python ints
        out_type.append(r["event_type"])
        out_day.append(int(r["day"]))
        out_net.append(int(r["net"]))
        out_bal.append(bal)
    return pa.table(
        {
            "event_type": pa.array(out_type, pa.string()),
            "day_idx": pa.array(out_day, pa.int64()),
            "net_cents": pa.array(out_net, pa.int64()),
            "balance_cents": pa.array(out_bal, pa.int64()),
        }
    )


INVENTORY_BALANCE_SQL = """
WITH RECURSIVE
d AS (
  SELECT event_type,
         datediff('day', DATE '1970-01-01', CAST(ts AS DATE)) AS day_idx,
         sum(CASE WHEN event_id % 2 = 0
                  THEN CAST(round(value * 100) AS BIGINT)
                  ELSE -CAST(round(value * 100) AS BIGINT) END) AS net,
         row_number() OVER (PARTITION BY event_type
                            ORDER BY CAST(ts AS DATE)) AS rn
  FROM events GROUP BY event_type, CAST(ts AS DATE)
),
b(event_type, rn, day_idx, net, bal) AS (
  SELECT event_type, rn, day_idx, net, greatest(0, net)
  FROM d WHERE rn = 1
  UNION ALL
  SELECT d.event_type, d.rn, d.day_idx, d.net, greatest(0, b.bal + d.net)
  FROM b JOIN d ON d.event_type = b.event_type AND d.rn = b.rn + 1
)
SELECT event_type, CAST(day_idx AS BIGINT) AS day_idx,
       CAST(net AS BIGINT) AS net_cents,
       CAST(bal AS BIGINT) AS balance_cents
FROM b ORDER BY event_type, day_idx
"""
