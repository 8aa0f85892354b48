"""User-behavior analytics over the events table.

Round-4 widening of the windowed/sequential surface (SURVEY.md §2.11): two
product-analytics operators the existing set (sessionize, sliding window,
rolling sum, funnel) does not cover:

- ``events_intervals``  : per-user inter-event gap profile (the LAG window
  family) — count, active span, max gap, mean gap.
- ``cohort_retention``  : weekly cohort retention matrix — users grouped by
  first-activity week, counted per week offset (two-level distinct +
  per-user min through ONE user-bucketed exchange).

All interval arithmetic is exact int64 microseconds (timestamps cast to
their us unit); the only float is a final mean = span/(n-1) division of two
exact integers, identical on both engines.

Reference parity: the reference (docling-jobkit) has no analytics engine;
these document the Ray-Data-native shapes of the standard product-analytics
queries (SURVEY.md §2.11 mapping).
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc
import ray.data

from ..exchange import bucket_exchange
from ..sources.pages import read_table
from .relational import (
    _per_user_exchange,
    _pin_timestamp_us,
    _user_bucket_adder,
    _user_buckets,
)

_WEEK_US = 7 * 24 * 3600 * 1_000_000


# ---------------------------------------------------------------------------
# per-user inter-event gaps (the LAG window family)
# ---------------------------------------------------------------------------

def events_intervals(sf_dir: str, *, n_buckets: int | None = None) -> ray.data.Dataset:
    """Per-user inter-event timing profile: event count, active span
    (max ts - min ts), maximum gap between consecutive events, and the mean
    gap — for users with at least two events.

    Plan shape: ONE user-bucketed exchange (bucket count derived from the
    events row count); each bucket sorts once by (user_id, ts) and computes
    every per-user statistic with vectorized pandas group ops — never a
    Python call per user.  The mean gap needs no ordering at all
    (sum of consecutive gaps == span), so only max_gap pays for the sort.
    """
    out_schema = pa.schema(
        [(c, pa.int64()) for c in ("user_id", "n_events", "span_us", "max_gap_us")]
        + [("mean_gap_us", pa.float64())]
    )

    def per_bucket(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values(["user_id", "ts"]).reset_index(drop=True)
        t = g["ts"].astype("int64")  # exact microseconds
        same = g["user_id"].eq(g["user_id"].shift())
        gap = t.diff().where(same)
        stats = (
            pd.DataFrame({"user_id": g["user_id"], "t": t, "gap": gap})
            .groupby("user_id", sort=True)
            .agg(
                n_events=("t", "size"),
                t_min=("t", "min"),
                t_max=("t", "max"),
                max_gap_us=("gap", "max"),
            )
            .reset_index()
        )
        stats = stats[stats["n_events"] >= 2]
        out = pd.DataFrame(
            {
                "user_id": stats["user_id"].astype("int64"),
                "n_events": stats["n_events"].astype("int64"),
                "span_us": (stats["t_max"] - stats["t_min"]).astype("int64"),
                "max_gap_us": stats["max_gap_us"].astype("int64"),
            }
        )
        out["mean_gap_us"] = out["span_us"] / (out["n_events"] - 1)
        return out

    return _per_user_exchange(
        sf_dir, n_buckets, ["user_id", "ts"], per_bucket, out_schema
    ).sort("user_id")


EVENTS_INTERVALS_SQL = """
WITH s AS (
  SELECT user_id, count(*) AS n_events,
         epoch_us(max(ts)) - epoch_us(min(ts)) AS span_us
  FROM events GROUP BY user_id HAVING count(*) >= 2
),
gaps AS (
  SELECT user_id,
         epoch_us(ts) - lag(epoch_us(ts)) OVER (PARTITION BY user_id ORDER BY ts)
           AS gap
  FROM events
),
mg AS (SELECT user_id, max(gap) AS max_gap_us FROM gaps WHERE gap IS NOT NULL
       GROUP BY user_id)
SELECT s.user_id, n_events, span_us, max_gap_us,
       CAST(span_us AS DOUBLE) / (n_events - 1) AS mean_gap_us
FROM s JOIN mg ON s.user_id = mg.user_id
ORDER BY s.user_id
"""


# ---------------------------------------------------------------------------
# weekly cohort retention (two-level distinct + per-user min, one exchange)
# ---------------------------------------------------------------------------

def cohort_retention(sf_dir: str, *, n_buckets: int | None = None) -> ray.data.Dataset:
    """Weekly cohort retention matrix: each user's cohort is the epoch-week
    of their FIRST event; ``n_users`` counts distinct users of that cohort
    active again at each week offset (offset 0 = the cohort week itself).

    Plan shape: per-batch DISTINCT (user, week) pairs (the combiner), one
    user-bucketed exchange; within a bucket the per-user min-week and the
    (cohort, offset) distinct-user counts are both bucket-local (a user
    lives in exactly one bucket), so buckets emit additive partial counts
    and the final groupby folds a tiny (weeks x offsets) matrix.  Weeks are
    exact integer floor-divisions of the microsecond timestamp — identical
    in DuckDB (``epoch_us(ts) // 604800000000``)."""
    ds = read_table(sf_dir, "events", columns=["user_id", "ts"])
    add_bucket = _user_bucket_adder(_user_buckets(sf_dir, n_buckets))

    pair_schema = pa.schema(
        [("user_id", pa.int64()), ("week", pa.int64()), ("bucket", pa.int64())]
    )

    def pair_partial(batch: pa.Table) -> pa.Table:
        week = pc.divide(
            pc.cast(batch["ts"], pa.int64()), pa.scalar(_WEEK_US, pa.int64())
        )
        pairs = (
            pa.table({"user_id": batch["user_id"], "week": week})
            .group_by(["user_id", "week"])
            .aggregate([])
        )
        return add_bucket(pairs)

    def count_bucket(group: pa.Table) -> pa.Table:
        pairs = (
            group.select(["user_id", "week"]).group_by(["user_id", "week"]).aggregate([])
        )
        first = (
            pairs.group_by("user_id")
            .aggregate([("week", "min")])
            .rename_columns(["user_id", "cohort_week"])
        )
        fu = first["user_id"].combine_chunks()
        fc = first["cohort_week"].combine_chunks()
        cohort = pc.take(fc, pc.index_in(pairs["user_id"], value_set=fu))
        offs = pc.subtract(pairs["week"], cohort)
        return (
            pa.table(
                {
                    "cohort_week": cohort,
                    "week_offset": offs,
                    "n_users": pa.array(np.ones(pairs.num_rows, dtype=np.int64)),
                }
            )
            .group_by(["cohort_week", "week_offset"])
            .aggregate([("n_users", "sum")])
            .rename_columns(["cohort_week", "week_offset", "n_users"])
        )

    from ray.data.aggregate import Sum

    out_schema = pa.schema(
        [(c, pa.int64()) for c in ("cohort_week", "week_offset", "n_users")]
    )
    return (
        bucket_exchange(
            ds,
            count_bucket,
            schema=pair_schema,
            out_schema=out_schema,
            emit=pair_partial,
        )
        .groupby(["cohort_week", "week_offset"])
        .aggregate(Sum("n_users", alias_name="n_users"))
        .sort(["cohort_week", "week_offset"])
    )


COHORT_RETENTION_SQL = f"""
WITH uw AS (
  SELECT DISTINCT user_id, epoch_us(ts) // {_WEEK_US} AS week FROM events
),
c AS (SELECT user_id, min(week) AS cohort_week FROM uw GROUP BY user_id)
SELECT cohort_week, week - cohort_week AS week_offset, count(*) AS n_users
FROM uw JOIN c ON uw.user_id = c.user_id
GROUP BY cohort_week, week_offset
ORDER BY cohort_week, week_offset
"""


# ---------------------------------------------------------------------------
# event-type transition matrix (the behavioral Markov-chain counts)
# ---------------------------------------------------------------------------

def events_transitions(sf_dir: str, *, n_buckets: int | None = None) -> ray.data.Dataset:
    """Markov transition counts over each user's ordered event sequence:
    how often event type A is followed by event type B — the behavioral
    sibling of ``bigram_fluency_scores`` (funnel asks "did the ordered
    pattern complete", this asks "what does the chain look like").

    Ordering is (ts, event_id) — the event_id tiebreak makes simultaneous
    events deterministic on BOTH engines (a bare LAG ... ORDER BY ts would
    be engine-dependent under timestamp ties).  ONE user-bucketed exchange;
    per-bucket pair counting is a vectorized sort + shift; the per-bucket
    (from, to, n) partials are additive, so the final fold is a tiny
    groupby over |event types|^2 rows."""
    columns = ["user_id", "ts", "event_id", "event_type"]
    out_schema = pa.schema(
        [
            ("from_type", pa.string()),
            ("to_type", pa.string()),
            ("n_transitions", pa.int64()),
        ]
    )

    def per_bucket(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values(["user_id", "ts", "event_id"]).reset_index(drop=True)
        same = g["user_id"].eq(g["user_id"].shift())
        prev = g["event_type"].shift().where(same)
        pairs = pd.DataFrame({"from_type": prev, "to_type": g["event_type"]}).dropna(
            subset=["from_type"]
        )
        out = (
            pairs.groupby(["from_type", "to_type"], sort=True)
            .size()
            .rename("n_transitions")
            .reset_index()
        )
        out["n_transitions"] = out["n_transitions"].astype("int64")
        return out

    from ray.data.aggregate import Sum

    return (
        _per_user_exchange(sf_dir, n_buckets, columns, per_bucket, out_schema)
        .groupby(["from_type", "to_type"])
        .aggregate(Sum("n_transitions", alias_name="n_transitions"))
        .sort(["from_type", "to_type"])
    )


EVENTS_TRANSITIONS_SQL = """
WITH seq AS (
  SELECT user_id, event_type,
         lag(event_type) OVER (PARTITION BY user_id ORDER BY ts, event_id)
           AS prev_type
  FROM events
)
SELECT prev_type AS from_type, event_type AS to_type,
       CAST(count(*) AS BIGINT) AS n_transitions
FROM seq
WHERE prev_type IS NOT NULL
GROUP BY 1, 2
ORDER BY 1, 2
"""


# ---------------------------------------------------------------------------
# ordered grouped string aggregation (the LISTAGG / string_agg shape)
# ---------------------------------------------------------------------------

def user_event_paths(sf_dir: str, *, n_buckets: int | None = None) -> ray.data.Dataset:
    """Each user's full ordered event-type path as one '->'-joined string —
    the ordered grouped string-aggregation shape (LISTAGG / string_agg
    WITHIN GROUP), the path-analysis input ``events_transitions`` summarizes
    pairwise.

    Ordering is (ts, event_id) — same deterministic tiebreak as
    ``events_transitions``.  ONE user-bucketed exchange; within a bucket the
    concatenation is a single pandas sort + groupby-agg (a user lives in
    exactly one bucket, so per-bucket paths are complete, never partial
    strings needing a merge).  Path length is bounded by events-per-user —
    the natural per-key bound of event data, not corpus size."""
    columns = ["user_id", "ts", "event_id", "event_type"]
    out_schema = pa.schema(
        [("user_id", pa.int64()), ("path", pa.string()), ("n_events", pa.int64())]
    )

    def per_bucket(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values(["user_id", "ts", "event_id"]).reset_index(drop=True)
        out = (
            g.groupby("user_id", sort=True)
            .agg(
                path=("event_type", "->".join),
                n_events=("event_type", "size"),
            )
            .reset_index()
        )
        out["user_id"] = out["user_id"].astype("int64")
        out["n_events"] = out["n_events"].astype("int64")
        return out

    return _per_user_exchange(
        sf_dir, n_buckets, columns, per_bucket, out_schema
    ).sort("user_id")


USER_EVENT_PATHS_SQL = """
SELECT user_id,
       string_agg(event_type, '->' ORDER BY ts, event_id) AS path,
       CAST(count(*) AS BIGINT) AS n_events
FROM events
GROUP BY user_id
ORDER BY user_id
"""


# ---------------------------------------------------------------------------
# conditional-reset running count (rows since the last marker event)
# ---------------------------------------------------------------------------

def events_since_purchase(sf_dir: str, *, n_buckets: int | None = None) -> ray.data.Dataset:
    """For every event, how many events its user has produced since their
    most recent 'purchase' (the purchase itself = 0; events before the
    first purchase count from the user's first event) — the
    CONDITIONAL-RESET running count, the window shape where the frame
    restarts at a data-dependent marker rather than a fixed gap
    (sessionize) or partition edge.

    Ordering is (ts, event_id) — deterministic under timestamp ties, same
    tiebreak as events_transitions.  ONE user-bucketed exchange; within a
    bucket the reset-count is two vectorized passes: a per-user cumsum of
    the marker flags segments the stream, then position-within-segment is
    arange minus each segment start (the repeat/searchsorted trick) —
    never a Python loop over users or segments."""
    columns = ["user_id", "ts", "event_id", "event_type"]
    out_schema = pa.schema(
        [(c, pa.int64()) for c in ("event_id", "user_id", "events_since_purchase")]
    )

    def per_bucket(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values(["user_id", "ts", "event_id"]).reset_index(drop=True)
        marker = (g["event_type"] == "purchase").to_numpy()
        user = g["user_id"].to_numpy()
        # segment id = (user changes) OR (marker row starts a new segment)
        new_seg = np.r_[True, user[1:] != user[:-1]] | marker
        seg_start = np.flatnonzero(new_seg)
        seg_of = np.cumsum(new_seg) - 1
        since = np.arange(len(g), dtype=np.int64) - seg_start[seg_of]
        return pd.DataFrame(
            {
                "event_id": g["event_id"].astype("int64"),
                "user_id": g["user_id"].astype("int64"),
                "events_since_purchase": since,
            }
        )

    return _per_user_exchange(
        sf_dir, n_buckets, columns, per_bucket, out_schema
    ).sort("event_id")


EVENTS_SINCE_PURCHASE_SQL = """
WITH seg AS (
  SELECT event_id, user_id, ts,
         CAST(sum(CASE WHEN event_type = 'purchase' THEN 1 ELSE 0 END)
              OVER (PARTITION BY user_id ORDER BY ts, event_id
                    ROWS UNBOUNDED PRECEDING) AS BIGINT) AS grp
  FROM events
)
SELECT event_id, user_id,
       CAST(row_number() OVER (PARTITION BY user_id, grp ORDER BY ts, event_id)
            - 1 AS BIGINT) AS events_since_purchase
FROM seg
ORDER BY event_id
"""


# ---------------------------------------------------------------------------
# activity set operations (INTERSECT / EXCEPT as one full-outer status fold)
# ---------------------------------------------------------------------------

_HALF_SPLIT = "2024-01-16"


def user_activity_setops(sf_dir: str, *, n_buckets: int | None = None) -> ray.data.Dataset:
    """Set operations over user activity: users active in BOTH halves of
    the observation window (INTERSECT -> ``retained``), only the first
    (EXCEPT -> ``churned``), or only the second (reverse EXCEPT ->
    ``new``) — the full-outer-join plan shape, folded to presence bits.

    Plan: per-batch DISTINCT (user, half) pairs (half is a fixed timestamp
    threshold, engine-identical), one user-bucketed exchange, per-bucket
    presence-bit OR + one vectorized CASE.  No join ever materializes: the
    two sides ride the same exchange as a 0/1 column."""
    ds = read_table(sf_dir, "events", columns=["user_id", "ts"])
    add_bucket = _user_bucket_adder(_user_buckets(sf_dir, n_buckets))
    split = pa.scalar(
        pc.strptime(_HALF_SPLIT, format="%Y-%m-%d", unit="us").as_py(),
        pa.timestamp("us"),
    )

    pair_schema = pa.schema(
        [("user_id", pa.int64()), ("half", pa.int64()), ("bucket", pa.int64())]
    )

    def pair_partial(batch: pa.Table) -> pa.Table:
        half = pc.cast(pc.greater_equal(batch["ts"], split), pa.int64())
        pairs = (
            pa.table({"user_id": batch["user_id"], "half": half})
            .group_by(["user_id", "half"])
            .aggregate([])
        )
        return add_bucket(pairs)

    def status_bucket(group: pa.Table) -> pa.Table:
        per_user = (
            group.group_by("user_id")
            .aggregate([("half", "min"), ("half", "max")])
            .rename_columns(["user_id", "h_min", "h_max"])
        )
        both = pc.and_(
            pc.equal(per_user["h_min"], pa.scalar(0, pa.int64())),
            pc.equal(per_user["h_max"], pa.scalar(1, pa.int64())),
        )
        only_first = pc.equal(per_user["h_max"], pa.scalar(0, pa.int64()))
        status = pc.if_else(
            both,
            pa.scalar("retained"),
            pc.if_else(only_first, pa.scalar("churned"), pa.scalar("new")),
        )
        return pa.table({"user_id": per_user["user_id"], "status": status})

    out_schema = pa.schema([("user_id", pa.int64()), ("status", pa.string())])
    return bucket_exchange(
        ds, status_bucket, schema=pair_schema, out_schema=out_schema, emit=pair_partial
    ).sort("user_id")


USER_ACTIVITY_SETOPS_SQL = f"""
WITH h1 AS (SELECT DISTINCT user_id FROM events
            WHERE ts < TIMESTAMP '{_HALF_SPLIT}'),
h2 AS (SELECT DISTINCT user_id FROM events
       WHERE ts >= TIMESTAMP '{_HALF_SPLIT}')
SELECT coalesce(h1.user_id, h2.user_id) AS user_id,
       CASE WHEN h1.user_id IS NOT NULL AND h2.user_id IS NOT NULL
              THEN 'retained'
            WHEN h1.user_id IS NOT NULL THEN 'churned'
            ELSE 'new' END AS status
FROM h1 FULL OUTER JOIN h2 ON h1.user_id = h2.user_id
ORDER BY user_id
"""


# ---------------------------------------------------------------------------
# CUBE grouping sets (all four margins from one scan)
# ---------------------------------------------------------------------------

def events_cube_type_dow(sf_dir: str) -> pa.Table:
    """GROUP BY CUBE(event_type, iso-dow): detail rows plus BOTH one-way
    margins plus the grand total, from a SINGLE fact scan — the three
    margin levels re-aggregate the finest-grain result (types x 7 rows,
    tiny) on the driver, the ROLLUP recipe extended to the full cube.

    Sentinels 'ALL'/-1 replace grouping NULLs (COALESCE in the oracle);
    value sums in exact int64 cents so every margin agrees bitwise with
    its detail rows.  The day-of-week is ISO (Monday=1) on both engines
    (Arrow day_of_week+1 == DuckDB isodow)."""
    ds = read_table(sf_dir, "events", columns=["event_type", "ts", "value"])

    def partial(batch: pa.Table) -> pa.Table:
        t = pa.table(
            {
                "event_type": batch["event_type"],
                "dow": pc.add(pc.day_of_week(batch["ts"]), pa.scalar(1, pa.int64())),
                "value_c": pc.cast(
                    pc.round(pc.multiply(batch["value"], pa.scalar(100.0))), pa.int64()
                ),
            }
        )
        return (
            t.group_by(["event_type", "dow"])
            .aggregate([("value_c", "sum"), ([], "count_all")])
            .rename_columns(["event_type", "dow", "value_c", "n_events"])
        )

    from ray.data.aggregate import Sum

    fine = (
        ds.map_batches(partial, batch_format="pyarrow", zero_copy_batch=True)
        .groupby(["event_type", "dow"])
        .aggregate(Sum("value_c", alias_name="value_c"), Sum("n_events", alias_name="n_events"))
        .to_pandas()  # tiny: one row per (type, weekday)
    )
    by_type = (
        fine.groupby("event_type", as_index=False)[["value_c", "n_events"]]
        .sum()
        .assign(dow=-1)
    )
    by_dow = (
        fine.groupby("dow", as_index=False)[["value_c", "n_events"]]
        .sum()
        .assign(event_type="ALL")
    )
    grand = pd.DataFrame(
        {
            "event_type": ["ALL"],
            "dow": [-1],
            "value_c": [fine["value_c"].sum()],
            "n_events": [fine["n_events"].sum()],
        }
    )
    out = pd.concat([fine, by_type, by_dow, grand], ignore_index=True)
    out = out.sort_values(["event_type", "dow"]).reset_index(drop=True)
    return pa.table(
        {
            "event_type": pa.array(out["event_type"], pa.string()),
            "dow": pa.array(out["dow"].astype("int64"), pa.int64()),
            "sum_value": pa.array(out["value_c"].astype("int64") / 100.0, pa.float64()),
            "n_events": pa.array(out["n_events"].astype("int64"), pa.int64()),
        }
    )


EVENTS_CUBE_SQL = """
SELECT coalesce(event_type, 'ALL') AS event_type,
       CAST(coalesce(dow, -1) AS BIGINT) AS dow,
       sum(value_c) / 100.0 AS sum_value,
       CAST(count(*) AS BIGINT) AS n_events
FROM (
  SELECT event_type, isodow(ts) AS dow,
         CAST(round(value * 100) AS BIGINT) AS value_c
  FROM events
) t
GROUP BY CUBE(event_type, dow)
ORDER BY event_type, dow
"""


# ---------------------------------------------------------------------------
# temporal joins: AS-OF and band (range) — the two inequality-join shapes
# ---------------------------------------------------------------------------

_ASOF_LEFT_TYPE = "purchase"
_ASOF_RIGHT_TYPE = "click"
_BAND_US = 5 * 60 * 1_000_000  # +-5 minutes

_ASOF_UNION_SCHEMA = pa.schema(
    [
        ("user_id", pa.int64()),
        ("ts_us", pa.int64()),
        ("event_id", pa.int64()),
        ("role", pa.int64()),
        ("bucket", pa.int64()),
    ]
)


def _asof_exchange(sf_dir: str, n_buckets: int | None, fold, out_schema: pa.Schema):
    """Tagged-union exchange shared by the two temporal joins: purchase and
    click events ride ONE user-bucketed exchange as (user, int64-us ts,
    event_id, role) rows — timestamps travel as exact int64 microseconds so
    no pandas ns round-trip or shuffle unit degradation can touch them."""
    add_bucket = _user_bucket_adder(_user_buckets(sf_dir, n_buckets))
    ds = read_table(
        sf_dir, "events", columns=["event_id", "ts", "user_id", "event_type"]
    )

    def emit(batch: pa.Table) -> pa.Table:
        role = pc.case_when(
            pc.make_struct(
                pc.equal(batch["event_type"], pa.scalar(_ASOF_RIGHT_TYPE)),
                pc.equal(batch["event_type"], pa.scalar(_ASOF_LEFT_TYPE)),
            ),
            pa.scalar(0, pa.int64()),
            pa.scalar(1, pa.int64()),
        )
        t = pa.table(
            {
                "user_id": pc.cast(batch["user_id"], pa.int64()),
                "ts_us": pc.cast(
                    pc.cast(batch["ts"], pa.timestamp("us")), pa.int64()
                ),
                "event_id": pc.cast(batch["event_id"], pa.int64()),
                "role": role,
            }
        ).filter(pc.is_valid(role))
        return add_bucket(t)

    return bucket_exchange(
        ds, fold, schema=_ASOF_UNION_SCHEMA, out_schema=out_schema, emit=emit
    )


def _split_roles(group: pa.Table) -> tuple[pd.DataFrame, pd.DataFrame] | None:
    """Split a bucket group of the union schema into (clicks, purchases)
    pandas frames of exact int64 columns (the nullable-int64 pandas
    coercion hazard never arises: every column is int64 and non-null by
    construction)."""
    df = group.to_pandas()
    clicks = df[df["role"] == 0]
    purchases = df[df["role"] == 1]
    if purchases.empty:
        return None
    return clicks, purchases


def _temporal_out_table(
    purchases: pd.DataFrame, extra: dict[str, pa.Array]
) -> pa.Table:
    cols: dict[str, pa.Array] = {
        "event_id": pa.array(purchases["event_id"].to_numpy(), pa.int64()),
        "user_id": pa.array(purchases["user_id"].to_numpy(), pa.int64()),
        "ts": pc.cast(
            pa.array(purchases["ts_us"].to_numpy(), pa.int64()), pa.timestamp("us")
        ),
    }
    cols.update(extra)
    return pa.table(cols)


def events_asof_last_click(
    sf_dir: str, *, n_buckets: int | None = None
) -> ray.data.Dataset:
    """AS-OF join: each purchase event matched to the same user's most
    recent click at-or-before it — the event-to-state temporal join Ray
    Data has no native operator for.

    Plan shape: ONE user-bucketed tagged-union exchange (timestamps as
    int64 us); inside each bucket a single ``pandas.merge_asof(by=user_id,
    direction=backward)`` performs every user's as-of lookup vectorized.
    Click-side ties at the same (user, ts) are collapsed to max(event_id)
    BEFORE the asof so the matched row is deterministic — the oracle
    mirrors the collapse, keeping DuckDB's native ASOF JOIN (which picks an
    arbitrary tie row) hash-exact.  Purchases with no prior click drop
    (inner asof).  Output gap_us is an exact int64 microsecond difference.
    """
    out_schema = pa.schema(
        [
            ("event_id", pa.int64()),
            ("user_id", pa.int64()),
            ("ts", pa.timestamp("us")),
            ("click_ts", pa.timestamp("us")),
            ("click_event_id", pa.int64()),
            ("gap_us", pa.int64()),
        ]
    )

    def asof_bucket(group: pa.Table) -> pa.Table:
        parts = _split_roles(group)
        if parts is None:
            return out_schema.empty_table()
        clicks, purchases = parts
        if clicks.empty:
            return out_schema.empty_table()
        # deterministic tie collapse: one click row per (user, ts)
        clicks = (
            clicks.groupby(["user_id", "ts_us"], as_index=False)["event_id"]
            .max()
            .sort_values("ts_us", kind="stable")
        )
        purchases = purchases.sort_values("ts_us", kind="stable")
        m = pd.merge_asof(
            purchases,
            clicks.rename(
                columns={"ts_us": "click_ts_us", "event_id": "click_event_id"}
            ),
            left_on="ts_us",
            right_on="click_ts_us",
            by="user_id",
            direction="backward",
            allow_exact_matches=True,
        )
        m = m[m["click_event_id"].notna()]
        if m.empty:
            return out_schema.empty_table()
        click_us = m["click_ts_us"].to_numpy().astype(np.int64)
        return _temporal_out_table(
            m,
            {
                "click_ts": pc.cast(
                    pa.array(click_us, pa.int64()), pa.timestamp("us")
                ),
                "click_event_id": pa.array(
                    m["click_event_id"].to_numpy().astype(np.int64), pa.int64()
                ),
                "gap_us": pa.array(
                    m["ts_us"].to_numpy().astype(np.int64) - click_us, pa.int64()
                ),
            },
        )

    return (
        _asof_exchange(sf_dir, n_buckets, asof_bucket, out_schema)
        .map_batches(
            _pin_timestamp_us(["ts", "click_ts"]), batch_format="pyarrow"
        )
        .sort("event_id")
    )


EVENTS_ASOF_SQL = f"""
WITH clicks AS (
  SELECT user_id, ts, max(event_id) AS click_event_id
  FROM events WHERE event_type = '{_ASOF_RIGHT_TYPE}'
  GROUP BY user_id, ts
),
purchases AS (
  SELECT event_id, user_id, ts FROM events
  WHERE event_type = '{_ASOF_LEFT_TYPE}'
)
SELECT p.event_id, p.user_id, p.ts,
       c.ts AS click_ts, c.click_event_id,
       CAST(date_diff('microsecond', c.ts, p.ts) AS BIGINT) AS gap_us
FROM purchases p ASOF JOIN clicks c
  ON p.user_id = c.user_id AND p.ts >= c.ts
ORDER BY p.event_id
"""


def events_band_join(
    sf_dir: str, *, n_buckets: int | None = None, band_us: int = _BAND_US
) -> ray.data.Dataset:
    """Band (range) join: for every purchase event, the number of clicks by
    the same user within +-``band_us`` of it — the bounded-inequality join
    shape (|t1 - t2| <= delta), which would be a full per-user cross join
    in a naive plan.

    Plan shape: the same ONE user-bucketed tagged-union exchange; inside a
    bucket, clicks are sorted once on a dense-user combined integer key
    (user_index * padded_time_span + offset-shifted ts) and every
    purchase's window becomes TWO vectorized ``np.searchsorted`` probes —
    no per-user Python loop, no pair materialization.  The span padding
    (+2 * band + 2) guarantees a window never crosses a user boundary.
    Zero-click purchases are kept with n_clicks = 0 (left semantics)."""
    out_schema = pa.schema(
        [
            ("event_id", pa.int64()),
            ("user_id", pa.int64()),
            ("ts", pa.timestamp("us")),
            ("n_clicks_band", pa.int64()),
        ]
    )

    def band_bucket(group: pa.Table) -> pa.Table:
        parts = _split_roles(group)
        if parts is None:
            return out_schema.empty_table()
        clicks, purchases = parts
        if clicks.empty:
            counts = np.zeros(len(purchases), np.int64)
        else:
            all_ts = np.concatenate(
                [clicks["ts_us"].to_numpy(), purchases["ts_us"].to_numpy()]
            )
            t0 = int(all_ts.min())
            span = int(all_ts.max()) - t0 + 2 * band_us + 2
            users, inv = np.unique(
                np.concatenate(
                    [clicks["user_id"].to_numpy(), purchases["user_id"].to_numpy()]
                ),
                return_inverse=True,
            )
            if (len(users)) * span >= np.iinfo(np.int64).max // 2:
                raise ValueError(
                    "band join bucket too wide for the combined key — "
                    "raise n_buckets"
                )
            u_click = inv[: len(clicks)]
            u_pur = inv[len(clicks) :]
            ck = u_click * span + (clicks["ts_us"].to_numpy() - t0) + band_us + 1
            pk = u_pur * span + (purchases["ts_us"].to_numpy() - t0) + band_us + 1
            ck = np.sort(ck)
            counts = (
                np.searchsorted(ck, pk + band_us, side="right")
                - np.searchsorted(ck, pk - band_us, side="left")
            ).astype(np.int64)
        return _temporal_out_table(
            purchases, {"n_clicks_band": pa.array(counts, pa.int64())}
        )

    return (
        _asof_exchange(sf_dir, n_buckets, band_bucket, out_schema)
        .map_batches(_pin_timestamp_us(["ts"]), batch_format="pyarrow")
        .sort("event_id")
    )


EVENTS_BAND_JOIN_SQL = f"""
SELECT p.event_id, p.user_id, p.ts,
       CAST(count(c.event_id) AS BIGINT) AS n_clicks_band
FROM (SELECT event_id, user_id, ts FROM events
      WHERE event_type = '{_ASOF_LEFT_TYPE}') p
LEFT JOIN (SELECT event_id, user_id, ts FROM events
           WHERE event_type = '{_ASOF_RIGHT_TYPE}') c
  ON p.user_id = c.user_id
 AND c.ts >= p.ts - INTERVAL {_BAND_US} MICROSECONDS
 AND c.ts <= p.ts + INTERVAL {_BAND_US} MICROSECONDS
GROUP BY p.event_id, p.user_id, p.ts
ORDER BY p.event_id
"""


# ---------------------------------------------------------------------------
# time-series densification: per-user hourly grid with zero-filled gaps
# ---------------------------------------------------------------------------

_HOUR_US = 3600 * 1_000_000


def events_gapfill_hourly(
    sf_dir: str, *, n_buckets: int | None = None
) -> ray.data.Dataset:
    """Gap-filled per-user hourly activity: every hour from each user's
    first to last active hour (inclusive), with n_events = 0 for silent
    hours — the resample/densify reshape (rows are GENERATED, not just
    transformed) that feeds forecasting and uptime models.

    Plan: per-batch (user, hour) count partials, ONE user-bucketed
    exchange, then each bucket folds partials and EXPANDS to the grid with
    pure numpy (np.repeat of per-user start hours + a cumsum-reset arange
    for offsets); observed counts land on the grid by index arithmetic
    (start offset + hour delta), never a join.  Grid size is bounded by
    users x observation span, independent of the event count."""
    add_bucket = _user_bucket_adder(_user_buckets(sf_dir, n_buckets))
    ds = read_table(sf_dir, "events", columns=["user_id", "ts"])

    part_schema = pa.schema(
        [(c, pa.int64()) for c in ("user_id", "hour_us", "n", "bucket")]
    )

    def partial(batch: pa.Table) -> pa.Table:
        hour = pc.multiply(
            pc.divide(
                pc.cast(pc.cast(batch["ts"], pa.timestamp("us")), pa.int64()),
                pa.scalar(_HOUR_US, pa.int64()),
            ),
            pa.scalar(_HOUR_US, pa.int64()),
        )
        t = (
            pa.table(
                {
                    "user_id": pc.cast(batch["user_id"], pa.int64()),
                    "hour_us": hour,
                }
            )
            .group_by(["user_id", "hour_us"])
            .aggregate([([], "count_all")])
            .rename_columns(["user_id", "hour_us", "n"])
        )
        return add_bucket(t)

    out_schema = pa.schema(
        [
            ("user_id", pa.int64()),
            ("hour_ts", pa.timestamp("us")),
            ("n_events", pa.int64()),
        ]
    )

    def expand_bucket(group: pa.Table) -> pa.Table:
        t = (
            group.group_by(["user_id", "hour_us"])
            .aggregate([("n", "sum")])
            .rename_columns(["user_id", "hour_us", "n"])
        )
        order = pc.sort_indices(
            t, sort_keys=[("user_id", "ascending"), ("hour_us", "ascending")]
        )
        t = t.take(order)
        uid = t["user_id"].to_numpy()
        hour = t["hour_us"].to_numpy() // _HOUR_US  # hour index
        n = t["n"].to_numpy()
        starts_mask = np.empty(len(uid), np.bool_)
        starts_mask[0] = True
        np.not_equal(uid[1:], uid[:-1], out=starts_mask[1:])
        first = np.flatnonzero(starts_mask)  # first row of each user
        last = np.append(first[1:], len(uid)) - 1
        h0, h1 = hour[first], hour[last]
        widths = (h1 - h0 + 1).astype(np.int64)
        total = int(widths.sum())
        # vectorized per-user arange: global arange minus each segment's
        # cumulative start, plus that user's first hour
        seg_start = np.repeat(np.cumsum(widths) - widths, widths)
        grid_hour = np.arange(total, dtype=np.int64) - seg_start + np.repeat(h0, widths)
        grid_uid = np.repeat(uid[first], widths)
        counts = np.zeros(total, np.int64)
        # each observed (user, hour) lands at its user's segment offset
        seg_of_row = np.repeat(np.cumsum(widths) - widths, last - first + 1)
        counts[seg_of_row + (hour - np.repeat(h0, last - first + 1))] = n
        return pa.table(
            {
                "user_id": pa.array(grid_uid, pa.int64()),
                "hour_ts": pc.cast(
                    pa.array(grid_hour * _HOUR_US, pa.int64()), pa.timestamp("us")
                ),
                "n_events": pa.array(counts, pa.int64()),
            }
        )

    return (
        bucket_exchange(
            ds, expand_bucket, schema=part_schema, out_schema=out_schema, emit=partial
        )
        .map_batches(_pin_timestamp_us(["hour_ts"]), batch_format="pyarrow")
        .sort(["user_id", "hour_ts"])
    )


EVENTS_GAPFILL_SQL = """
WITH per AS (
  SELECT user_id, date_trunc('hour', ts) AS h FROM events
),
bounds AS (SELECT user_id, min(h) AS h0, max(h) AS h1 FROM per GROUP BY user_id),
grid AS (
  SELECT user_id, unnest(generate_series(h0, h1, INTERVAL 1 HOUR)) AS hour_ts
  FROM bounds
),
cnt AS (SELECT user_id, h AS hour_ts, count(*) AS n FROM per GROUP BY user_id, h)
SELECT g.user_id, g.hour_ts, CAST(coalesce(c.n, 0) AS BIGINT) AS n_events
FROM grid g LEFT JOIN cnt c ON g.user_id = c.user_id AND g.hour_ts = c.hour_ts
ORDER BY g.user_id, g.hour_ts
"""


# ---------------------------------------------------------------------------
# sequential pattern mining: most common 3-step event paths
# ---------------------------------------------------------------------------

def events_trigram_paths(
    sf_dir: str, *, top_k: int = 20, n_buckets: int | None = None
) -> ray.data.Dataset:
    """Most frequent 3-step event-type sequences across users (consecutive
    triples in each user's (ts, event_id)-ordered stream) — the sequential
    pattern-mining extension of the 2-step ``events_transitions`` matrix.

    Plan: ONE user-bucketed exchange; each bucket sorts once and forms
    triples with two vectorized shifts (triples never span users); triple
    counts fold per bucket before the tiny global (e1,e2,e3) aggregate
    (bounded by |event types|^3).  Deterministic top-k: count desc, then
    lexicographic triple."""
    tri_schema = pa.schema(
        [
            ("e1", pa.string()),
            ("e2", pa.string()),
            ("e3", pa.string()),
            ("n", pa.int64()),
        ]
    )

    def triples_bucket(group: pa.Table) -> pa.Table:
        df = (
            group.to_pandas()
            .sort_values(["user_id", "ts_us", "event_id"], kind="stable")
            .reset_index(drop=True)
        )
        same2 = df["user_id"].eq(df["user_id"].shift(-2))
        tri = pd.DataFrame(
            {
                "e1": df["event_type"],
                "e2": df["event_type"].shift(-1),
                "e3": df["event_type"].shift(-2),
            }
        )[same2]
        if tri.empty:
            return tri_schema.empty_table()
        counts = tri.groupby(["e1", "e2", "e3"], as_index=False).size()
        return pa.table(
            {
                "e1": pa.array(counts["e1"], pa.string()),
                "e2": pa.array(counts["e2"], pa.string()),
                "e3": pa.array(counts["e3"], pa.string()),
                "n": pa.array(counts["size"].to_numpy().astype(np.int64), pa.int64()),
            }
        )

    from ray.data.aggregate import Sum

    columns = ["user_id", "ts_us", "event_id", "event_type"]
    return (
        _per_user_exchange(
            sf_dir, n_buckets, columns, triples_bucket, tri_schema, "pyarrow"
        )
        .groupby(["e1", "e2", "e3"])
        .aggregate(Sum("n", alias_name="n"))
        .sort(["n", "e1", "e2", "e3"], descending=[True, False, False, False])
        .limit(top_k)
    )


EVENTS_TRIGRAM_PATHS_SQL = """
WITH seq AS (
  SELECT user_id, event_type AS e1,
         lead(event_type, 1) OVER w AS e2,
         lead(event_type, 2) OVER w AS e3
  FROM events
  WINDOW w AS (PARTITION BY user_id ORDER BY ts, event_id)
)
SELECT e1, e2, e3, CAST(count(*) AS BIGINT) AS n
FROM seq WHERE e3 IS NOT NULL
GROUP BY e1, e2, e3
ORDER BY n DESC, e1, e2, e3
LIMIT 20
"""


# ---------------------------------------------------------------------------
# debounce / throttle: stateful stream filter as a batch operator
# ---------------------------------------------------------------------------

_DEBOUNCE_US = 24 * 3600 * 1_000_000


def events_debounced(
    sf_dir: str, *, window_us: int = _DEBOUNCE_US, n_buckets: int | None = None
) -> ray.data.Dataset:
    """Debounce: keep an event only if the same (user, event_type) stream
    was silent for at least ``window_us`` before it — the stateful
    rate-limit/dedup filter a streaming engine runs with per-key state,
    expressed here as one bucketed batch pass (state never leaves the
    bucket because a key lives in exactly one bucket).

    Same-timestamp duplicates order by event_id, so the later one always
    sees a zero gap and drops — deterministic on both engines."""
    out_schema = pa.schema(
        [
            ("event_id", pa.int64()),
            ("user_id", pa.int64()),
            ("event_type", pa.string()),
            ("ts", pa.timestamp("us")),
        ]
    )

    def debounce_bucket(group: pa.Table) -> pa.Table:
        df = (
            group.to_pandas()
            .sort_values(["user_id", "event_type", "ts_us", "event_id"], kind="stable")
            .reset_index(drop=True)
        )
        same = df["user_id"].eq(df["user_id"].shift()) & df["event_type"].eq(
            df["event_type"].shift()
        )
        gap = df["ts_us"].diff()
        keep = (~same) | (gap > window_us)
        kept = df[keep]
        return pa.table(
            {
                "event_id": pa.array(kept["event_id"].to_numpy(), pa.int64()),
                "user_id": pa.array(kept["user_id"].to_numpy(), pa.int64()),
                "event_type": pa.array(kept["event_type"], pa.string()),
                "ts": pc.cast(
                    pa.array(kept["ts_us"].to_numpy(), pa.int64()), pa.timestamp("us")
                ),
            }
        )

    columns = ["event_id", "user_id", "event_type", "ts_us"]
    return (
        _per_user_exchange(
            sf_dir, n_buckets, columns, debounce_bucket, out_schema, "pyarrow"
        )
        .map_batches(_pin_timestamp_us(["ts"]), batch_format="pyarrow")
        .sort("event_id")
    )


EVENTS_DEBOUNCED_SQL = f"""
WITH g AS (
  SELECT event_id, user_id, event_type, ts,
         lag(ts) OVER (PARTITION BY user_id, event_type
                       ORDER BY ts, event_id) AS prev
  FROM events
)
SELECT event_id, user_id, event_type, ts
FROM g
WHERE prev IS NULL OR ts - prev > to_microseconds({_DEBOUNCE_US})
ORDER BY event_id
"""


# ---------------------------------------------------------------------------
# exact distinct users per hour (two single-int-key exchanges)
# ---------------------------------------------------------------------------

def events_hourly_uniques(sf_dir: str) -> ray.data.Dataset:
    """Per-hour EXACT distinct user count plus event count — the
    count-distinct-per-window shape, kept to single-int-key exchanges:
    per-batch distinct (hour, user) partials ride as ONE combined int64
    key (hour_index * 2^32 + user), fold once to global distinct pairs
    (carrying the event-count partial), then a second tiny fold by hour.
    A two-key groupby here measured pathological (CLAUDE.md)."""
    from ray.data.aggregate import Count, Sum

    ds = read_table(sf_dir, "events", columns=["user_id", "ts"])

    part_schema = pa.schema([("hu", pa.int64()), ("n", pa.int64())])

    def partial(batch: pa.Table) -> pa.Table:
        if batch.num_rows == 0 or batch.num_columns == 0:
            return part_schema.empty_table()
        hour_idx = pc.divide(
            pc.cast(pc.cast(batch["ts"], pa.timestamp("us")), pa.int64()),
            pa.scalar(_HOUR_US, pa.int64()),
        )
        hu = pc.add(
            pc.multiply(hour_idx, pa.scalar(2**32, pa.int64())),
            pc.cast(batch["user_id"], pa.int64()),
        )
        return (
            pa.table({"hu": hu})
            .group_by("hu")
            .aggregate([([], "count_all")])
            .rename_columns(["hu", "n"])
        )

    def to_hour(batch: pa.Table) -> pa.Table:
        if batch.num_rows == 0 or batch.num_columns == 0:
            return pa.schema(
                [("hour_idx", pa.int64()), ("one", pa.int64()), ("n", pa.int64())]
            ).empty_table()
        return pa.table(
            {
                "hour_idx": pc.divide(batch["hu"], pa.scalar(2**32, pa.int64())),
                "one": pa.nulls(batch.num_rows, pa.int64()).fill_null(1),
                "n": pc.cast(batch["n"], pa.int64()),
            }
        )

    def finish(batch: pa.Table) -> pa.Table:
        if batch.num_rows == 0 or batch.num_columns == 0:
            return pa.schema(
                [
                    ("hour_ts", pa.timestamp("us")),
                    ("n_users", pa.int64()),
                    ("n_events", pa.int64()),
                ]
            ).empty_table()
        return pa.table(
            {
                "hour_ts": pc.cast(
                    pc.multiply(batch["hour_idx"], pa.scalar(_HOUR_US, pa.int64())),
                    pa.timestamp("us"),
                ),
                "n_users": pc.cast(batch["n_users"], pa.int64()),
                "n_events": pc.cast(batch["n_events"], pa.int64()),
            }
        )

    return (
        ds.map_batches(partial, batch_format="pyarrow", zero_copy_batch=True)
        .groupby("hu")
        .aggregate(Sum("n", alias_name="n"))
        .map_batches(to_hour, batch_format="pyarrow", zero_copy_batch=True)
        .groupby("hour_idx")
        .aggregate(Sum("one", alias_name="n_users"), Sum("n", alias_name="n_events"))
        .map_batches(finish, batch_format="pyarrow", zero_copy_batch=True)
        .map_batches(_pin_timestamp_us(["hour_ts"]), batch_format="pyarrow")
        .sort("hour_ts")
    )


EVENTS_HOURLY_UNIQUES_SQL = """
SELECT date_trunc('hour', ts) AS hour_ts,
       CAST(count(DISTINCT user_id) AS BIGINT) AS n_users,
       CAST(count(*) AS BIGINT) AS n_events
FROM events GROUP BY 1 ORDER BY hour_ts
"""


# ---------------------------------------------------------------------------
# sequential change detection: integer-exact CUSUM over hourly volume
# ---------------------------------------------------------------------------

def events_cusum_alarm(sf_dir: str) -> pa.Table:
    """One-sided CUSUM over the hourly event-count series: S_t =
    max(0, S_{t-1} + (x_t - mean - slack)) accumulated over OBSERVED
    hours in order with the standard 10% drift allowance (slack = mean/10
    keeps an in-control reflected walk pinned near 0 instead of wandering
    up), alarming when the cumulative excess tops 2x the hourly mean — the
    sequential change-point monitor an ingest pipeline runs on its own
    volume.  Kept exact-integer by scaling through by 10k (k = hour
    count): S'_t = max(0, S'_{t-1} + 10*k*x_t - 11*total), alarm iff
    S'_t > 20 * total (Python big ints here, HUGEINT in the oracle).

    Scale shape: the distributed work is the hourly fold (per-batch
    partials, one exchange); the recurrence is inherently sequential and
    runs on the driver over the bounded hour series."""
    from ray.data.aggregate import Sum

    ds = read_table(sf_dir, "events", columns=["ts"])

    part_schema = pa.schema([("hour_us", pa.int64()), ("n", pa.int64())])

    def partial(batch: pa.Table) -> pa.Table:
        if batch.num_rows == 0 or batch.num_columns == 0:
            return part_schema.empty_table()
        hour = pc.multiply(
            pc.divide(
                pc.cast(pc.cast(batch["ts"], pa.timestamp("us")), pa.int64()),
                pa.scalar(_HOUR_US, pa.int64()),
            ),
            pa.scalar(_HOUR_US, pa.int64()),
        )
        return (
            pa.table({"hour_us": hour})
            .group_by("hour_us")
            .aggregate([([], "count_all")])
            .rename_columns(["hour_us", "n"])
        )

    rows = sorted(
        (
            ds.map_batches(partial, batch_format="pyarrow", zero_copy_batch=True)
            .groupby("hour_us")
            .aggregate(Sum("n", alias_name="n"))
            .take_all()  # bounded by the observation span in hours
        ),
        key=lambda r: r["hour_us"],
    )
    k = len(rows)
    total = sum(int(r["n"]) for r in rows)
    out = {"hour_ts": [], "n_events": [], "s_scaled": [], "alarm": []}
    s = 0
    for r in rows:
        n = int(r["n"])
        s = max(0, s + 10 * k * n - 11 * total)
        out["hour_ts"].append(int(r["hour_us"]))
        out["n_events"].append(n)
        out["s_scaled"].append(s)
        out["alarm"].append(1 if s > 20 * total else 0)
    return pa.table(
        {
            "hour_ts": pc.cast(
                pa.array(out["hour_ts"], pa.int64()), pa.timestamp("us")
            ),
            "n_events": pa.array(out["n_events"], pa.int64()),
            "s_scaled": pa.array(out["s_scaled"], pa.int64()),
            "alarm": pa.array(out["alarm"], pa.int64()),
        }
    )


EVENTS_CUSUM_SQL = """
WITH RECURSIVE
h AS (
  SELECT date_trunc('hour', ts) AS hour_ts, count(*) AS n
  FROM events GROUP BY 1
),
tot AS (SELECT sum(n) AS s, count(*) AS k FROM h),
seq AS (SELECT hour_ts, n, row_number() OVER (ORDER BY hour_ts) AS rn FROM h),
rec(rn, hour_ts, n, s_scaled) AS (
  SELECT rn, hour_ts, n,
         greatest(CAST(0 AS HUGEINT),
                  CAST(10 AS HUGEINT) * n * tot.k - 11 * tot.s)
  FROM seq, tot WHERE rn = 1
  UNION ALL
  SELECT seq.rn, seq.hour_ts, seq.n,
         greatest(CAST(0 AS HUGEINT),
                  rec.s_scaled + CAST(10 AS HUGEINT) * seq.n * tot.k - 11 * tot.s)
  FROM rec JOIN seq ON seq.rn = rec.rn + 1, tot
)
SELECT hour_ts, CAST(n AS BIGINT) AS n_events,
       CAST(s_scaled AS BIGINT) AS s_scaled,
       CAST(CAST(s_scaled > 20 * tot.s AS INTEGER) AS BIGINT) AS alarm
FROM rec, tot
ORDER BY hour_ts
"""


# ---------------------------------------------------------------------------
# multi-touch attribution (linear model, exact integer credit split)
# ---------------------------------------------------------------------------

_ATTR_WINDOW_US = 7 * 24 * 3600 * 1_000_000  # clicks within 7 days before

_ATTR_UNION_SCHEMA = pa.schema(
    [
        ("user_id", pa.int64()),
        ("ts_us", pa.int64()),
        ("event_id", pa.int64()),
        ("role", pa.int64()),
        ("cents", pa.int64()),
        ("bucket", pa.int64()),
    ]
)


def events_attribution(
    sf_dir: str, *, n_buckets: int | None = None, window_us: int = _ATTR_WINDOW_US
) -> ray.data.Dataset:
    """Linear multi-touch attribution: every purchase's value is split in
    EXACT integer cents across the user's clicks in the ``window_us``
    before it (inclusive of ties) — base share ``cents // k`` per click
    plus one remainder cent to each of the ``cents % k`` EARLIEST clicks
    (ordered by ts then event_id, the deterministic tiebreak).  Output is
    one row per credited click with the number of purchases it touched and
    its total credit — the marketing-attribution shape (and the revenue
    analogue of the funnel family).

    Plan shape: ONE user-bucketed tagged-union exchange (clicks and
    purchases ride together; purchase cents quantize per row BEFORE the
    shuffle).  Inside a bucket, clicks sort once on a dense-user combined
    integer key and each purchase's window becomes two vectorized
    ``np.searchsorted`` probes; the (click, purchase) pairs materialize
    only as numpy index arithmetic (segment expansion), never as a joined
    table, and fold to per-click totals before leaving the bucket.  A
    click's purchases all share its user, hence its bucket — per-click
    totals are complete locally and the finishing sort is the only other
    all-to-all.
    """
    add_bucket = _user_bucket_adder(_user_buckets(sf_dir, n_buckets))
    ds = read_table(
        sf_dir, "events", columns=["event_id", "ts", "user_id", "event_type", "value"]
    )

    def emit(batch: pa.Table) -> pa.Table:
        role = pc.case_when(
            pc.make_struct(
                pc.equal(batch["event_type"], pa.scalar("click")),
                pc.equal(batch["event_type"], pa.scalar("purchase")),
            ),
            pa.scalar(0, pa.int64()),
            pa.scalar(1, pa.int64()),
        )
        cents = pc.cast(
            pc.round(pc.multiply(batch["value"], pa.scalar(100.0))), pa.int64()
        )
        t = pa.table(
            {
                "user_id": pc.cast(batch["user_id"], pa.int64()),
                "ts_us": pc.cast(
                    pc.cast(batch["ts"], pa.timestamp("us")), pa.int64()
                ),
                "event_id": pc.cast(batch["event_id"], pa.int64()),
                "role": role,
                "cents": cents,
            }
        ).filter(pc.is_valid(role))
        return add_bucket(t)

    out_schema = pa.schema(
        [
            ("click_id", pa.int64()),
            ("user_id", pa.int64()),
            ("n_purchases", pa.int64()),
            ("credit_cents", pa.int64()),
        ]
    )

    def attribute_bucket(group: pa.Table) -> pa.Table:
        role = group["role"].to_numpy(zero_copy_only=False)
        user = group["user_id"].to_numpy(zero_copy_only=False)
        ts = group["ts_us"].to_numpy(zero_copy_only=False)
        eid = group["event_id"].to_numpy(zero_copy_only=False)
        cents_all = group["cents"].to_numpy(zero_copy_only=False)
        is_c = role == 0
        is_p = role == 1
        if not is_c.any() or not is_p.any():
            return out_schema.empty_table()
        t0 = int(ts.min())
        span = int(ts.max()) - t0 + window_us + 2
        users, inv = np.unique(user, return_inverse=True)
        if len(users) * span >= np.iinfo(np.int64).max // 2:
            raise ValueError(
                "attribution bucket too wide for the combined key — "
                "raise n_buckets"
            )
        key = inv * span + (ts - t0) + window_us + 1
        ck, c_eid, c_user = key[is_c], eid[is_c], user[is_c]
        # clicks sort by (combined key, event_id): window slices come out
        # in exactly the (ts, event_id) order the remainder rule needs
        order = np.lexsort((c_eid, ck))
        ck, c_eid, c_user = ck[order], c_eid[order], c_user[order]
        pk, p_cents = key[is_p], cents_all[is_p]
        lo = np.searchsorted(ck, pk - window_us, side="left")
        hi = np.searchsorted(ck, pk, side="right")
        k = (hi - lo).astype(np.int64)
        touched = k > 0
        lo, k, p_cents = lo[touched], k[touched], p_cents[touched]
        if len(k) == 0:
            return out_schema.empty_table()
        total = int(k.sum())
        offsets = np.cumsum(k) - k
        within = np.arange(total, dtype=np.int64) - np.repeat(offsets, k)
        idx = np.repeat(lo, k) + within
        credit = np.repeat(p_cents // k, k) + (within < np.repeat(p_cents % k, k))
        per_click = (
            pd.DataFrame(
                {
                    "click_id": c_eid[idx],
                    "user_id": c_user[idx],
                    "credit": credit,
                }
            )
            .groupby(["click_id", "user_id"], sort=False)
            .agg(n_purchases=("credit", "size"), credit_cents=("credit", "sum"))
            .reset_index()
        )
        return pa.table(
            {
                "click_id": pa.array(per_click["click_id"].to_numpy(), pa.int64()),
                "user_id": pa.array(per_click["user_id"].to_numpy(), pa.int64()),
                "n_purchases": pa.array(
                    per_click["n_purchases"].to_numpy(), pa.int64()
                ),
                "credit_cents": pa.array(
                    per_click["credit_cents"].to_numpy(), pa.int64()
                ),
            }
        )

    return (
        bucket_exchange(
            ds,
            attribute_bucket,
            schema=_ATTR_UNION_SCHEMA,
            out_schema=out_schema,
            emit=emit,
        )
        .sort("click_id")
    )


EVENTS_ATTRIBUTION_SQL = f"""
WITH c AS (SELECT event_id, user_id, ts FROM events WHERE event_type = 'click'),
p AS (SELECT event_id, user_id, ts,
             CAST(round(value * 100) AS BIGINT) AS cents
      FROM events WHERE event_type = 'purchase'),
pair AS (
  SELECT c.event_id AS click_id, c.user_id,
         p.cents,
         count(*) OVER (PARTITION BY p.event_id) AS k,
         row_number() OVER (PARTITION BY p.event_id
                            ORDER BY c.ts, c.event_id) AS r
  FROM c JOIN p
    ON c.user_id = p.user_id
   AND epoch_us(p.ts) - epoch_us(c.ts) BETWEEN 0 AND {_ATTR_WINDOW_US}
)
SELECT click_id, user_id,
       count(*) AS n_purchases,
       CAST(sum(cents // k + CASE WHEN r <= cents % k THEN 1 ELSE 0 END)
            AS BIGINT) AS credit_cents
FROM pair
GROUP BY click_id, user_id
ORDER BY click_id
"""


# ---------------------------------------------------------------------------
# Kaplan-Meier survival estimate (time to first big purchase)
# ---------------------------------------------------------------------------

_KM_VALUE_THR = 100.0  # "big purchase" — picked for a real censored mix
_KM_SENTINEL = 1 << 62
_HOUR_US_KM = 3600 * 1_000_000


def user_survival_km(sf_dir: str) -> pa.Table:
    """Kaplan-Meier survival curve for time-to-first-BIG-purchase: per
    user, the duration in whole hours from their first event to their
    first purchase with ``value >= 100`` (the event), censored at their
    last observed event if they never make one — the survival-analysis
    family (churn/conversion curves) next to cohort_retention.

    The estimator stays cross-engine hash-exact by the repo's
    quantized-log rule: each step's factor ``ln((n_i - d_i) / n_i)`` is
    quantized ONCE to an int64 at the 1e-6 grid, and the survival curve is
    the exact-integer running sum of those steps (the product form would
    be a float whose accumulation order differs between engines).

    Plan shape: per-batch partial (user, min-any-ts, max-any-ts,
    min-qualifying-purchase-ts) folds with the missing-purchase side
    carried as a +inf SENTINEL so every column is non-null int64 through
    the shuffle; one int-keyed groupby finishes the per-user triple; a
    second bounded groupby folds the duration histogram to K <= span-hours
    rows, and ONLY those K rows reach the driver for the suffix-sum risk
    sets and the cumulative quantized log (the score_drift_ks
    driver-finish pattern).  Terminal steps with ``n_at_risk == d`` (the
    survival-hits-zero plunge, only ever the last row) are excluded on
    both engines so the log stays finite.
    """
    from ray.data.aggregate import Max, Min, Sum

    thr = pa.scalar(_KM_VALUE_THR)

    ds = read_table(
        sf_dir, "events", columns=["user_id", "ts", "event_type", "value"]
    )

    part_schema = pa.schema(
        [
            ("user_id", pa.int64()),
            ("t0", pa.int64()),
            ("tl", pa.int64()),
            ("tp", pa.int64()),
        ]
    )

    def per_user_partial(batch: pa.Table) -> pa.Table:
        if batch.num_rows == 0 or batch.num_columns == 0:
            return part_schema.empty_table()
        ts = pc.cast(pc.cast(batch["ts"], pa.timestamp("us")), pa.int64())
        big = pc.and_(
            pc.equal(batch["event_type"], pa.scalar("purchase")),
            pc.greater_equal(batch["value"], thr),
        )
        tp = pc.if_else(big, ts, pa.scalar(_KM_SENTINEL, pa.int64()))
        t = pa.table(
            {
                "user_id": pc.cast(batch["user_id"], pa.int64()),
                "t0": ts,
                "tl": ts,
                "tp": tp,
            }
        )
        folded = t.group_by("user_id").aggregate(
            [("t0", "min"), ("tl", "max"), ("tp", "min")]
        )
        return folded.rename_columns(["user_id", "t0", "tl", "tp"])

    per_user = (
        ds.map_batches(per_user_partial, batch_format="pyarrow", zero_copy_batch=True)
        .groupby("user_id")
        .aggregate(
            Min(on="t0", alias_name="t0"),
            Max(on="tl", alias_name="tl"),
            Min(on="tp", alias_name="tp"),
        )
    )

    hist_schema = pa.schema(
        [("t_hours", pa.int64()), ("d", pa.int64()), ("c", pa.int64())]
    )

    def hist_partial(batch: pa.Table) -> pa.Table:
        if batch.num_rows == 0 or batch.num_columns == 0:
            return hist_schema.empty_table()
        observed = pc.not_equal(batch["tp"], pa.scalar(_KM_SENTINEL, pa.int64()))
        end = pc.if_else(observed, batch["tp"], batch["tl"])
        t_hours = pc.divide(
            pc.subtract(end, batch["t0"]), pa.scalar(_HOUR_US_KM, pa.int64())
        )  # nonnegative: floor == trunc
        t = pa.table(
            {
                "t_hours": pc.cast(t_hours, pa.int64()),
                "d": pc.cast(observed, pa.int64()),
                "c": pa.array([1] * batch.num_rows, pa.int64()),
            }
        )
        folded = t.group_by("t_hours").aggregate([("d", "sum"), ("c", "sum")])
        return folded.rename_columns(["t_hours", "d", "c"])

    hist = (
        per_user.map_batches(hist_partial, batch_format="pyarrow")
        .groupby("t_hours")
        .aggregate(Sum(on="d", alias_name="d"), Sum(on="c", alias_name="c"))
        .sort("t_hours")
    )

    # driver finish over K <= span-hours rows (bounded at any corpus size)
    rows = _collect_km(hist)
    return rows


def _collect_km(hist: ray.data.Dataset) -> pa.Table:
    import math

    t = hist.take_all()  # bounded: K <= span-hours rows at any corpus size
    t_hours = np.array([r["t_hours"] for r in t], np.int64)
    d = np.array([r["d"] for r in t], np.int64)
    c = np.array([r["c"] for r in t], np.int64)
    order = np.argsort(t_hours)
    t_hours, d, c = t_hours[order], d[order], c[order]
    n_at_risk = np.cumsum(c[::-1])[::-1]
    out_t, out_n, out_d, out_cum = [], [], [], []
    cum = 0
    for i in range(len(t_hours)):
        if d[i] == 0 or n_at_risk[i] == d[i]:
            continue
        step = int(
            np.round(
                math.log((int(n_at_risk[i]) - int(d[i])) / int(n_at_risk[i]))
                * 1_000_000
            )
        )
        cum += step
        out_t.append(int(t_hours[i]))
        out_n.append(int(n_at_risk[i]))
        out_d.append(int(d[i]))
        out_cum.append(cum)
    return pa.table(
        {
            "t_hours": pa.array(out_t, pa.int64()),
            "n_at_risk": pa.array(out_n, pa.int64()),
            "n_events": pa.array(out_d, pa.int64()),
            "cum_log_q": pa.array(out_cum, pa.int64()),
        }
    )


USER_SURVIVAL_KM_SQL = f"""
WITH u AS (
  SELECT user_id,
         min(epoch_us(ts)) AS t0,
         max(epoch_us(ts)) AS tl,
         min(CASE WHEN event_type = 'purchase' AND value >= {_KM_VALUE_THR}
                  THEN epoch_us(ts) END) AS tp
  FROM events GROUP BY user_id),
lif AS (
  SELECT CASE WHEN tp IS NOT NULL THEN (tp - t0) // {_HOUR_US_KM}
              ELSE (tl - t0) // {_HOUR_US_KM} END AS t_hours,
         CASE WHEN tp IS NOT NULL THEN 1 ELSE 0 END AS observed
  FROM u),
hist AS (
  SELECT t_hours, CAST(sum(observed) AS BIGINT) AS d, count(*) AS c
  FROM lif GROUP BY t_hours),
ev AS (
  SELECT t_hours, d,
         CAST(sum(c) OVER (ORDER BY t_hours DESC) AS BIGINT) AS n_at_risk
  FROM hist)
SELECT t_hours, n_at_risk, d AS n_events,
       CAST(sum(CAST(round(ln((n_at_risk - d) * 1.0 / n_at_risk) * 1000000)
                     AS BIGINT))
            OVER (ORDER BY t_hours) AS BIGINT) AS cum_log_q
FROM ev
WHERE d > 0 AND n_at_risk > d
ORDER BY t_hours
"""


# ---------------------------------------------------------------------------
# grouped entropy (behavioral diversity scoring)
# ---------------------------------------------------------------------------

def user_event_entropy(sf_dir: str, *, n_buckets: int | None = None) -> ray.data.Dataset:
    """Shannon entropy of each user's event-type distribution — the
    behavioral-diversity score (one number per user: 0 for a single-action
    bot, ln(k) for a uniform explorer), and the grouped-entropy shape the
    corpus-side quality family (repetition, rarity) does not cover.

    Hash-exact via the repo's quantized-log rule applied PER (user, type)
    COUNT: ``q(c) = round((c * ln c) * 1e6)`` quantizes once per count row,
    per-user sums stay exact integers, and
    ``H_q = round(ln(n_u) * 1e6) - sum(q) // n_u`` (floor division —
    everything nonnegative).

    Plan shape: per-batch (user, type) partial counts, ONE user-bucketed
    exchange, per-bucket pyarrow re-fold to exact global counts, then a
    vectorized bincount finish per user.  Types never broadcast; the
    exchange carries (user, type, partial-count) triples only.
    """
    add_bucket = _user_bucket_adder(_user_buckets(sf_dir, n_buckets))

    ds = read_table(sf_dir, "events", columns=["user_id", "event_type"])

    part_schema = pa.schema(
        [
            ("user_id", pa.int64()),
            ("event_type", pa.string()),
            ("n", pa.int64()),
            ("bucket", pa.int64()),
        ]
    )
    out_schema = pa.schema(
        [
            ("user_id", pa.int64()),
            ("n_events", pa.int64()),
            ("n_types", pa.int64()),
            ("entropy_q", pa.int64()),
        ]
    )

    def partial(batch: pa.Table) -> pa.Table:
        t = (
            pa.table(
                {
                    "user_id": pc.cast(batch["user_id"], pa.int64()),
                    "event_type": batch["event_type"],
                }
            )
            .group_by(["user_id", "event_type"])
            .aggregate([([], "count_all")])
            .rename_columns(["user_id", "event_type", "n"])
        )
        return add_bucket(t)

    def entropy_bucket(group: pa.Table) -> pa.Table:
        folded = (
            group.select(["user_id", "event_type", "n"])
            .group_by(["user_id", "event_type"])
            .aggregate([("n", "sum")])
        )
        user = folded["user_id"].to_numpy(zero_copy_only=False)
        c = folded["n_sum"].to_numpy(zero_copy_only=False).astype(np.int64)
        # mirror the oracle's expression shape exactly: (c * ln(c)) * 1e6
        q = np.round((c * np.log(c)) * 1_000_000.0).astype(np.int64)
        uids, inv = np.unique(user, return_inverse=True)
        # int64 accumulation (bincount's float64 weights path would lose
        # exactness once per-user sums pass 2^53)
        n_u = np.zeros(len(uids), np.int64)
        s_u = np.zeros(len(uids), np.int64)
        np.add.at(n_u, inv, c)
        np.add.at(s_u, inv, q)
        k_u = np.bincount(inv).astype(np.int64)
        h = np.round(np.log(n_u) * 1_000_000.0).astype(np.int64) - s_u // n_u
        return pa.table(
            {
                "user_id": pa.array(uids, pa.int64()),
                "n_events": pa.array(n_u, pa.int64()),
                "n_types": pa.array(k_u, pa.int64()),
                "entropy_q": pa.array(h, pa.int64()),
            }
        )

    return (
        bucket_exchange(
            ds, entropy_bucket, schema=part_schema, out_schema=out_schema, emit=partial
        )
        .sort("user_id")
    )


USER_EVENT_ENTROPY_SQL = """
WITH ct AS (SELECT user_id, event_type, count(*) AS c
            FROM events GROUP BY user_id, event_type),
u AS (SELECT user_id,
             CAST(sum(c) AS BIGINT) AS n_events,
             CAST(count(*) AS BIGINT) AS n_types,
             CAST(sum(CAST(round((c * ln(c)) * 1000000) AS BIGINT)) AS BIGINT)
               AS s
      FROM ct GROUP BY user_id)
SELECT user_id, n_events, n_types,
       CAST(round(ln(n_events) * 1000000) AS BIGINT) - s // n_events
         AS entropy_q
FROM u
ORDER BY user_id
"""


# ---------------------------------------------------------------------------
# expanding-window distinct (growth curve) + per-key quota enforcement
# ---------------------------------------------------------------------------

_DAY_US_B = 86_400_000_000
_HOUR_US_CUM = 3_600_000_000


def cumulative_unique_users(sf_dir: str) -> pa.Table:
    """Hourly growth curve: new users per hour (first-ever appearance)
    and the running cumulative distinct-user count — the expanding-window
    COUNT(DISTINCT) that windowed ``events_hourly_uniques`` does not
    cover.  Exact, because a running distinct IS the running sum of
    first appearances: one per-user min-hour fold, one bounded hour
    histogram, and a driver cumsum over <= span-hours rows.  (Hour
    granularity: the dense synthetic corpus onboards every user within
    a day or two, so a daily curve would be a near-single-row result.)
    """
    from ray.data.aggregate import Min, Sum

    ds = read_table(sf_dir, "events", columns=["user_id", "ts"])

    def partial(batch: pa.Table) -> pa.Table:
        if batch.num_rows == 0 or batch.num_columns == 0:
            return pa.schema(
                [("user_id", pa.int64()), ("hour", pa.int64())]
            ).empty_table()
        hour_col = pc.divide(
            pc.cast(pc.cast(batch["ts"], pa.timestamp("us")), pa.int64()),
            pa.scalar(_HOUR_US_CUM, pa.int64()),
        )
        t = pa.table(
            {"user_id": pc.cast(batch["user_id"], pa.int64()), "hour": hour_col}
        )
        folded = t.group_by("user_id").aggregate([("hour", "min")])
        return folded.rename_columns(["user_id", "hour"])

    def day_partial(batch: pa.Table) -> pa.Table:
        if batch.num_rows == 0 or batch.num_columns == 0:
            return pa.schema(
                [("hour", pa.int64()), ("n", pa.int64())]
            ).empty_table()
        t = pa.table(
            {
                "hour": pc.cast(batch["hour"], pa.int64()),
                "n": pa.array([1] * batch.num_rows, pa.int64()),
            }
        )
        return t.group_by("hour").aggregate([("n", "sum")]).rename_columns(["hour", "n"])

    hist = (
        ds.map_batches(partial, batch_format="pyarrow", zero_copy_batch=True)
        .groupby("user_id")
        .aggregate(Min(on="hour", alias_name="hour"))
        .map_batches(day_partial, batch_format="pyarrow")
        .groupby("hour")
        .aggregate(Sum(on="n", alias_name="n"))
        .take_all()  # bounded: <= span-hours rows at any corpus size
    )
    hours = np.array([r["hour"] for r in hist], np.int64)
    n = np.array([r["n"] for r in hist], np.int64)
    order = np.argsort(hours)
    hours, n = hours[order], n[order]
    return pa.table(
        {
            "hour": pa.array(hours, pa.int64()),
            "new_users": pa.array(n, pa.int64()),
            "cum_users": pa.array(np.cumsum(n), pa.int64()),
        }
    )


CUMULATIVE_UNIQUE_USERS_SQL = f"""
WITH f AS (SELECT user_id, min(epoch_us(ts) // {_HOUR_US_CUM}) AS hour
           FROM events GROUP BY user_id)
SELECT hour, count(*) AS new_users,
       CAST(sum(count(*)) OVER (ORDER BY hour) AS BIGINT) AS cum_users
FROM f GROUP BY hour ORDER BY hour
"""


def events_quota_filter(
    sf_dir: str, *, quota: int = 3, n_buckets: int | None = None
) -> ray.data.Dataset:
    """Per-key quota enforcement: keep only the FIRST ``quota`` events per
    (user, day), ordered by (ts, event_id) — the ingestion rate-cap /
    spam-throttle shape (a per-key windowed top-k that keeps rows, unlike
    ``events_debounced`` which suppresses by time gap).

    ONE user-bucketed exchange; per bucket a single lexsort over
    (user, day, ts, event_id) and a vectorized segment cumcount — no
    per-key Python call.  Output keeps the rank so consumers can see the
    quota position.
    """
    out_schema = pa.schema(
        [
            ("event_id", pa.int64()),
            ("user_id", pa.int64()),
            ("day", pa.int64()),
            ("rn", pa.int64()),
        ]
    )

    def quota_bucket(group: pa.Table) -> pa.Table:
        eid = group["event_id"].to_numpy(zero_copy_only=False)
        user = group["user_id"].to_numpy(zero_copy_only=False)
        ts = group["ts_us"].to_numpy(zero_copy_only=False)
        day = ts // _DAY_US_B
        order = np.lexsort((eid, ts, day, user))
        user, day, ts, eid = user[order], day[order], ts[order], eid[order]
        seg = np.ones(len(user), bool)
        seg[1:] = (user[1:] != user[:-1]) | (day[1:] != day[:-1])
        starts = np.flatnonzero(seg)
        rn = np.arange(len(user), dtype=np.int64) - np.repeat(
            starts, np.diff(np.append(starts, len(user)))
        ) + 1
        keep = rn <= quota
        return pa.table(
            {
                "event_id": pa.array(eid[keep], pa.int64()),
                "user_id": pa.array(user[keep], pa.int64()),
                "day": pa.array(day[keep], pa.int64()),
                "rn": pa.array(rn[keep], pa.int64()),
            }
        )

    columns = ["event_id", "user_id", "ts_us"]
    return _per_user_exchange(
        sf_dir, n_buckets, columns, quota_bucket, out_schema, "pyarrow"
    ).sort("event_id")


EVENTS_QUOTA_FILTER_SQL = f"""
WITH r AS (
  SELECT event_id, user_id,
         epoch_us(ts) // {_DAY_US_B} AS day,
         row_number() OVER (PARTITION BY user_id, epoch_us(ts) // {_DAY_US_B}
                            ORDER BY ts, event_id) AS rn
  FROM events)
SELECT event_id, user_id, day, rn
FROM r WHERE rn <= 3
ORDER BY event_id
"""


# ---------------------------------------------------------------------------
# sliding-window exact distinct: 7-day rolling active users
# ---------------------------------------------------------------------------
#
# For every day that has at least one event, the EXACT number of distinct
# users active in the trailing 7-day window [day-6, day].  The naive plan
# (a range self-join day x (user,day) then COUNT DISTINCT — what the oracle
# runs) shuffles every pair 7x; this plan never joins:
#
# - batch-local distinct (user, day) pairs, then ONE user-bucketed exchange
#   (a user's active days meet in one bucket);
# - per bucket, vectorized interval union per user: an active day d makes
#   the user "window-active" on days [d, d+6]; consecutive active days
#   <= 6 apart merge into one interval — emit (+1 at start, -1 at end+1)
#   boundary deltas.  A user with any number of events contributes at most
#   2 deltas per activity burst, so the exchange output is tiny;
# - the day spine (days with >= 1 event) rides the SAME fold on a disjoint
#   key (day*2+1 vs day*2 for deltas) — one groupby-sum carries both;
# - the driver finishes from K <= 2*(span-days) rows: prefix-sum the deltas
#   and read the running value at each spine day (bounded at any corpus
#   size — days are days).

_RAU_WINDOW_DAYS = 7

_RAU_DELTA_SCHEMA = pa.schema([("key", pa.int64()), ("n", pa.int64())])
_RAU_PAIR_SCHEMA = pa.schema(
    [("user_id", pa.int64()), ("day", pa.int64()), ("bucket", pa.int64())]
)


def rolling_active_users(
    sf_dir: str, *, window_days: int = _RAU_WINDOW_DAYS, n_buckets: int | None = None
) -> pa.Table:
    """(day, active_users_7d): exact trailing-``window_days`` distinct-user
    count for every day with at least one event, ordered by day (int64
    epoch-days — exact on both engines, no timestamp-unit pinning)."""
    from ray.data.aggregate import Sum

    add_bucket = _user_bucket_adder(_user_buckets(sf_dir, n_buckets))
    w = window_days

    ds = read_table(sf_dir, "events", columns=["user_id", "ts"])

    def pair_partial(batch: pa.Table) -> pa.Table:
        day = pc.divide(pc.cast(batch["ts"], pa.int64()), pa.scalar(_DAY_US_B, pa.int64()))
        t = (
            pa.table({"user_id": batch["user_id"], "day": day})
            .group_by(["user_id", "day"])
            .aggregate([])
        )
        return add_bucket(t)

    def delta_bucket(group: pa.Table) -> pa.Table:
        df = group.select(["user_id", "day"]).to_pandas().drop_duplicates()
        user = df["user_id"].to_numpy()
        day = df["day"].to_numpy()
        order = np.lexsort((day, user))
        user, day = user[order], day[order]
        # interval union per user: a new covered interval starts on a new
        # user or a gap > w-1 days (<= w-1 means the [d, d+w-1] covers join)
        new_run = np.ones(len(user), bool)
        if len(user) > 1:
            new_run[1:] = (user[1:] != user[:-1]) | (day[1:] - day[:-1] > w - 1)
        starts = day[new_run]
        # the run's end is the last active day before the next start (or the
        # final row); exclusive boundary = end_day + w
        end_idx = np.nonzero(new_run)[0] - 1
        ends_excl = np.concatenate([day[end_idx[1:]], day[-1:]]) + w
        # spine: distinct days in this bucket (deduped again in the fold)
        spine = np.unique(day)
        keys = np.concatenate([starts * 2, ends_excl * 2, spine * 2 + 1])
        ns = np.concatenate(
            [
                np.ones(len(starts), np.int64),
                -np.ones(len(ends_excl), np.int64),
                np.ones(len(spine), np.int64),
            ]
        )
        return pa.table({"key": pa.array(keys, pa.int64()), "n": pa.array(ns, pa.int64())})

    folded = (
        bucket_exchange(
            ds,
            delta_bucket,
            schema=_RAU_PAIR_SCHEMA,
            out_schema=_RAU_DELTA_SCHEMA,
            emit=pair_partial,
        )
        .groupby("key")
        .aggregate(Sum(on="n", alias_name="n"))
    )

    rows = folded.take_all()  # bounded: K <= 3 * span-days rows at any size
    keys = np.array([r["key"] for r in rows], np.int64)
    ns = np.array([r["n"] for r in rows], np.int64)
    is_delta = (keys & 1) == 0
    d_days = keys[is_delta] >> 1
    d_ns = ns[is_delta]
    order = np.argsort(d_days)
    d_days, d_ns = d_days[order], d_ns[order]
    running = np.cumsum(d_ns)
    spine = np.sort(keys[~is_delta] >> 1)
    # running coverage count at each spine day: last delta boundary <= day
    pos = np.searchsorted(d_days, spine, side="right") - 1
    active = np.where(pos >= 0, running[np.maximum(pos, 0)], 0)
    return pa.table(
        {
            "day": pa.array(spine, pa.int64()),
            "active_users_7d": pa.array(active, pa.int64()),
        }
    )


ROLLING_ACTIVE_USERS_SQL = f"""
WITH pairs AS (
  SELECT DISTINCT epoch_us(ts) // {_DAY_US_B} AS d, user_id FROM events),
days AS (SELECT DISTINCT d FROM pairs)
SELECT days.d AS day, count(DISTINCT p.user_id) AS active_users_7d
FROM days JOIN pairs p ON p.d BETWEEN days.d - {_RAU_WINDOW_DAYS - 1} AND days.d
GROUP BY days.d
ORDER BY day
"""


# ---------------------------------------------------------------------------
# interval sweep-line: peak concurrent sessions per hour
# ---------------------------------------------------------------------------

_HOUR_US_PC = 3600 * 1_000_000


def sessions_peak_concurrency(
    sf_dir: str, *, gap_minutes: int = 30, n_buckets: int | None = None
) -> pa.Table:
    """Peak number of concurrent user sessions per hour — the interval
    sweep-line operator (load curves, capacity planning): sessionize events
    per user (30-min gap rule, identical to events_sessionize), treat each
    session as the half-open interval ``[start, end + 1us)``, and report,
    for every hour that contains a session boundary, the maximum
    concurrency reached during that hour.

    Semantics contract (what makes the sweep cross-engine deterministic):
    concurrency is evaluated at DISTINCT microseconds after all boundary
    deltas at that microsecond apply (simultaneous start+end at one us is
    a net zero) — intra-tie orderings never exist on either engine.  An
    hour's peak also includes the carry-in concurrency at the hour start
    (a drop at the first boundary cannot hide the plateau before it).

    Plan shape: the user-bucketed sessionize exchange emits two delta rows
    per session (+1 at start, -1 at end+1us); an hour-keyed exchange folds
    each hour to THREE ints (net delta, max within-hour prefix, hour) via
    one vectorized reduceat pass; only those K hour rows reach the driver,
    which finishes with the exclusive prefix over hours (the
    score_drift_ks / cusum driver-finish pattern — K is bounded by the
    time span, not the data).  Peak_h = base_h + max(0, max_prefix_h).

    Oracle: the proven sessionize CTE -> delta UNION -> RANGE-framed
    running sum over distinct boundary microseconds -> per-hour max and
    max_by(c, t) last value -> lag carry-in.
    """
    gap = pd.Timedelta(minutes=gap_minutes)

    delta_schema = pa.schema(
        [("t", pa.int64()), ("d", pa.int64()), ("hour", pa.int64())]
    )

    def sessions_to_deltas(g: pd.DataFrame) -> pa.Table:
        g = g.sort_values(["user_id", "ts"]).reset_index(drop=True)
        prev_ts = g.groupby("user_id")["ts"].shift()
        new_session = ((g["ts"] - prev_ts) > gap).astype("int64")
        sid = new_session.groupby(g["user_id"]).cumsum()
        sess = (
            g.assign(session_id=sid)
            .groupby(["user_id", "session_id"], sort=False)
            .agg(s=("ts", "min"), e=("ts", "max"))
            .reset_index()
        )
        s_us = sess["s"].to_numpy(dtype="datetime64[us]").astype(np.int64)
        e_us = sess["e"].to_numpy(dtype="datetime64[us]").astype(np.int64) + 1
        t = np.concatenate([s_us, e_us])
        d = np.concatenate(
            [np.ones(len(s_us), np.int64), -np.ones(len(e_us), np.int64)]
        )
        return pa.table(
            {"t": t, "d": d, "hour": t // _HOUR_US_PC}, schema=delta_schema
        )

    hour_schema = pa.schema(
        [("hour", pa.int64()), ("net", pa.int64()), ("max_pref", pa.int64())]
    )

    def per_hour(group: pa.Table) -> pa.Table:
        t = group["t"].to_numpy(zero_copy_only=False)
        d = group["d"].to_numpy(zero_copy_only=False)
        order = np.argsort(t, kind="stable")
        t, d = t[order], d[order]
        ut, idx = np.unique(t, return_index=True)
        sums = np.add.reduceat(d, idx)
        pref = np.cumsum(sums)
        return pa.table(
            {
                "hour": pa.array([int(group["hour"][0].as_py())], pa.int64()),
                "net": pa.array([int(pref[-1])], pa.int64()),
                "max_pref": pa.array([int(pref.max())], pa.int64()),
            }
        )

    deltas = _per_user_exchange(
        sf_dir, n_buckets, ["user_id", "ts"], sessions_to_deltas, delta_schema
    )
    hours = bucket_exchange(
        deltas, per_hour, key="hour", schema=delta_schema, out_schema=hour_schema
    )

    # bounded: driver finish over K hour rows (K ~ time span in hours)
    rows = hours.take_all()
    rows.sort(key=lambda r: r["hour"])
    h = np.array([r["hour"] for r in rows], np.int64)
    net = np.array([r["net"] for r in rows], np.int64)
    maxp = np.array([r["max_pref"] for r in rows], np.int64)
    base = np.concatenate([[0], np.cumsum(net)[:-1]])
    peak = base + np.maximum(0, maxp)
    return pa.table(
        {
            "hour_ts": pa.array(h * _HOUR_US_PC, pa.int64()).cast(
                pa.timestamp("us")
            ),
            "peak_sessions": pa.array(peak, pa.int64()),
        }
    )


SESSIONS_PEAK_CONCURRENCY_SQL = """
WITH flagged AS (
  SELECT user_id, ts,
         CASE WHEN ts - lag(ts) OVER (PARTITION BY user_id ORDER BY ts)
                   > INTERVAL 30 MINUTE THEN 1 ELSE 0 END AS new_session
  FROM events
), numbered AS (
  SELECT user_id, ts,
         sum(new_session) OVER (PARTITION BY user_id ORDER BY ts
                                RANGE UNBOUNDED PRECEDING) AS session_id
  FROM flagged
), sessions AS (
  SELECT user_id, session_id, min(ts) AS s, max(ts) AS e
  FROM numbered GROUP BY user_id, session_id
), deltas AS (
  SELECT epoch_us(s) AS t, 1 AS d FROM sessions
  UNION ALL
  SELECT epoch_us(e) + 1 AS t, -1 AS d FROM sessions
), pts AS (
  SELECT t, sum(d) AS dd FROM deltas GROUP BY t
), run AS (
  SELECT t, t // 3600000000 AS hour,
         CAST(sum(dd) OVER (ORDER BY t RANGE UNBOUNDED PRECEDING) AS BIGINT)
           AS c
  FROM pts
), hourly AS (
  SELECT hour, max(c) AS peak_points, max_by(c, t) AS last_c
  FROM run GROUP BY hour
)
SELECT make_timestamp(hour * 3600000000) AS hour_ts,
       CAST(greatest(coalesce(lag(last_c) OVER (ORDER BY hour), 0),
                     peak_points) AS BIGINT) AS peak_sessions
FROM hourly
ORDER BY hour_ts
"""


# ---------------------------------------------------------------------------
# seasonal anomaly detection: hour-of-day median/MAD residuals
# ---------------------------------------------------------------------------

def hourly_seasonal_anomalies(sf_dir: str) -> ray.data.Dataset:
    """Seasonality-aware anomaly flags over the hourly event-volume series:
    each hour's count is compared to the MEDIAN count of its hour-of-day
    (the seasonal baseline a flat z-score/CUSUM misses — 3am traffic should
    not be judged against the 3pm mean), and flagged when the deviation
    exceeds 1.5x the hour-of-day MAD.

    Everything stays exact-integer by the doubled-order-statistic trick
    (customer_reorder_intervals): ``med2 = x[(m-1)//2] + x[m//2]`` is twice
    the median, ``dev2 = |2*n - med2|`` is twice the deviation, ``madq`` is
    med2 over dev2 (4x the MAD), and the flag rule ``2*dev2 > 3*madq`` is
    |n - med| > 1.5*MAD with every side an integer — no float ever forms,
    so the verdict is hash-exact cross-engine (ties included).

    Plan: per-batch Arrow hour-count partials -> one bounded
    ``groupby(hour)`` -> 24 hour-of-day groups, each a K/24-row vector
    (K = span hours, not data size), flagged in one numpy pass.
    """
    from ray.data.aggregate import Sum

    ds = read_table(sf_dir, "events", columns=["ts"])

    def partial(batch: pa.Table) -> pa.Table:
        if batch.num_rows == 0 or batch.num_columns == 0:
            return pa.schema([("hour", pa.int64()), ("n", pa.int64())]).empty_table()
        us = pc.cast(batch["ts"], pa.int64())
        hour = pc.divide(us, pa.scalar(_HOUR_US_PC, pa.int64()))
        t = pa.table({"hour": hour, "n": pa.array(np.ones(len(us), np.int64))})
        return (
            t.group_by("hour").aggregate([("n", "sum")]).rename_columns(["hour", "n"])
        )

    counts = (
        ds.map_batches(partial, batch_format="pyarrow", zero_copy_batch=True)
        .groupby("hour")
        .aggregate(Sum(on="n", alias_name="n"))
    )

    hod_schema = pa.schema([(c, pa.int64()) for c in ("hour", "n", "hod")])

    def add_hod(batch: pa.Table) -> pa.Table:
        hod = pc.subtract(
            batch["hour"],
            pc.multiply(
                pc.divide(batch["hour"], pa.scalar(24, pa.int64())),
                pa.scalar(24, pa.int64()),
            ),
        )
        return pa.table({"hour": batch["hour"], "n": batch["n"], "hod": hod})

    out_schema = pa.schema(
        [
            ("hour_ts", pa.timestamp("us")),
            ("hod", pa.int64()),
            ("n_events", pa.int64()),
            ("med2", pa.int64()),
            ("dev2", pa.int64()),
            ("anomaly", pa.int64()),
        ]
    )

    def per_hod(group: pa.Table) -> pa.Table:
        hour = group["hour"].to_numpy(zero_copy_only=False)
        n = group["n"].to_numpy(zero_copy_only=False)
        m = len(n)
        x = np.sort(n)
        med2 = int(x[(m - 1) // 2]) + int(x[m // 2])
        dev2 = np.abs(2 * n - med2)
        y = np.sort(dev2)
        madq = int(y[(m - 1) // 2]) + int(y[m // 2])
        anomaly = (2 * dev2 > 3 * madq).astype(np.int64)
        return pa.table(
            {
                "hour_ts": pa.array(hour * _HOUR_US_PC, pa.int64()).cast(
                    pa.timestamp("us")
                ),
                "hod": group["hod"],
                "n_events": group["n"],
                "med2": pa.array(np.full(m, med2, np.int64)),
                "dev2": pa.array(dev2.astype(np.int64)),
                "anomaly": pa.array(anomaly),
            }
        )

    return (
        bucket_exchange(
            counts,
            per_hod,
            key="hod",
            schema=hod_schema,
            out_schema=out_schema,
            emit=add_hod,
        )
        .sort("hour_ts")
    )


HOURLY_SEASONAL_ANOMALIES_SQL = """
WITH c AS (
  SELECT epoch_us(ts) // 3600000000 AS hour, count(*) AS n
  FROM events GROUP BY hour),
h AS (SELECT hour, hour % 24 AS hod, n FROM c),
r AS (SELECT hour, hod, n,
             row_number() OVER (PARTITION BY hod ORDER BY n, hour) AS rn,
             count(*) OVER (PARTITION BY hod) AS m
      FROM h),
m2 AS (SELECT hod,
              CAST(sum(CASE WHEN rn = (m + 1) // 2 THEN n ELSE 0 END)
                   + sum(CASE WHEN rn = m // 2 + 1 THEN n ELSE 0 END)
                   AS BIGINT) AS med2
       FROM r GROUP BY hod),
d AS (SELECT h.hour, h.hod, h.n, m2.med2,
             abs(2 * h.n - m2.med2) AS dev2
      FROM h JOIN m2 ON m2.hod = h.hod),
r2 AS (SELECT hour, hod, n, med2, dev2,
              row_number() OVER (PARTITION BY hod ORDER BY dev2, hour) AS rn,
              count(*) OVER (PARTITION BY hod) AS m
       FROM d),
mad AS (SELECT hod,
               CAST(sum(CASE WHEN rn = (m + 1) // 2 THEN dev2 ELSE 0 END)
                    + sum(CASE WHEN rn = m // 2 + 1 THEN dev2 ELSE 0 END)
                    AS BIGINT) AS madq
        FROM r2 GROUP BY hod)
SELECT make_timestamp(d.hour * 3600000000) AS hour_ts,
       d.hod,
       d.n AS n_events,
       d.med2,
       d.dev2,
       CASE WHEN 2 * d.dev2 > 3 * mad.madq THEN 1 ELSE 0 END AS anomaly
FROM d JOIN mad ON mad.hod = d.hod
ORDER BY hour_ts
"""


# ---------------------------------------------------------------------------
# Theil-Sen robust trend over the hourly series
# ---------------------------------------------------------------------------

def events_hourly_theilsen(sf_dir: str) -> pa.Table:
    """Theil-Sen robust trend of hourly event volume: the median of all
    pairwise slopes ``(y_j - y_i) / (x_j - x_i)`` over the hourly-count
    series — the outlier-proof counterpart to events_hourly_ols (a single
    traffic spike moves the OLS slope but not this one).

    Exactness: each pair's slope quantizes ONCE to ppm/hour by
    integer TRUNCATING division (numerators can be negative — DuckDB ``//``
    truncates toward zero while numpy floors, so the kernel mirrors
    truncation, the _trunc_div rule); the estimate is the exact med2 (sum
    of the two middle order statistics) over those ints.  The hourly
    aggregation is the distributed part; the pairwise finish runs on the
    K collected hour rows (K = time span in hours — the cusum/KS
    driver-finish pattern; K^2 is ~4e6 at a 2000-hour span, trivial for
    one numpy broadcast, and replication tiers multiply counts, not K).
    """
    from ray.data.aggregate import Sum

    ds = read_table(sf_dir, "events", columns=["ts"])

    def partial(batch: pa.Table) -> pa.Table:
        if batch.num_rows == 0 or batch.num_columns == 0:
            return pa.schema([("hour", pa.int64()), ("n", pa.int64())]).empty_table()
        us = pc.cast(batch["ts"], pa.int64())
        hour = pc.divide(us, pa.scalar(_HOUR_US_PC, pa.int64()))
        t = pa.table({"hour": hour, "n": pa.array(np.ones(len(us), np.int64))})
        return (
            t.group_by("hour").aggregate([("n", "sum")]).rename_columns(["hour", "n"])
        )

    counts = (
        ds.map_batches(partial, batch_format="pyarrow", zero_copy_batch=True)
        .groupby("hour")
        .aggregate(Sum(on="n", alias_name="n"))
    )
    # bounded: one row per hour of the event span
    rows = counts.take_all()
    rows.sort(key=lambda r: r["hour"])
    x = np.array([r["hour"] for r in rows], np.int64)
    y = np.array([r["n"] for r in rows], np.int64)
    k = len(x)
    iu, ju = np.triu_indices(k, 1)
    xd = x[ju] - x[iu]
    yd = (y[ju] - y[iu]) * 1_000_000
    s = np.sign(yd) * (np.abs(yd) // xd)  # truncating division (DuckDB //)
    s = np.sort(s)
    m = len(s)
    slope2 = int(s[(m - 1) // 2]) + int(s[m // 2])
    return pa.table(
        {
            "n_hours": pa.array([k], pa.int64()),
            "n_pairs": pa.array([m], pa.int64()),
            "slope2_ppm": pa.array([slope2], pa.int64()),
        }
    )


EVENTS_HOURLY_THEILSEN_SQL = """
WITH c AS (
  SELECT epoch_us(ts) // 3600000000 AS x, count(*) AS y
  FROM events GROUP BY x),
p AS (
  SELECT (b.y - a.y) * 1000000 // (b.x - a.x) AS s
  FROM c a JOIN c b ON b.x > a.x),
r AS (SELECT s, row_number() OVER (ORDER BY s) AS rn,
             count(*) OVER () AS m
      FROM p)
SELECT (SELECT count(*) FROM c) AS n_hours,
       CAST(max(m) AS BIGINT) AS n_pairs,
       CAST(sum(CASE WHEN rn = (m + 1) // 2 THEN s ELSE 0 END)
            + sum(CASE WHEN rn = m // 2 + 1 THEN s ELSE 0 END)
            AS BIGINT) AS slope2_ppm
FROM r
"""


# ---------------------------------------------------------------------------
# session-basket affinity (unordered co-presence lift, vs ordered transitions)
# ---------------------------------------------------------------------------


def session_type_affinity(
    sf_dir: str, *, gap_minutes: int = 30, n_buckets: int | None = None
) -> pa.Table:
    """Market-basket analysis over SESSIONS: for every unordered pair of
    event types, how much more often they co-occur in one session than
    independence predicts — lift_ppm = n_ab * N * 1e6 // (n_a * n_b).
    The co-presence complement of events_transitions (which is ordered
    adjacency): "users who log errors in a session also purchase in it".

    Sessions derive with the SAME 30-min-gap rule as events_sessionize
    (first tie row carries the flag); per bucket one vectorized pass gets
    distinct (session, type) rows, a session-key self-merge emits pair
    partials, and only |types|^2-bounded count rows leave the bucket.
    The lift arithmetic runs in PYTHON INTS driver-side over those few
    rows (n_ab * N * 1e6 overflows int64 at corpus scale; the oracle's
    HUGEINT does the same math)."""
    gap = pd.Timedelta(minutes=gap_minutes)
    part_schema = pa.schema(
        [
            ("kind", pa.int64()),
            ("a", pa.string()),
            ("b", pa.string()),
            ("n", pa.int64()),
        ]
    )

    def per_bucket(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values(["user_id", "ts"]).reset_index(drop=True)
        prev_ts = g.groupby("user_id")["ts"].shift()
        new_session = ((g["ts"] - prev_ts) > gap).astype("int64")
        g["session_id"] = new_session.groupby(g["user_id"]).cumsum()
        st = g[["user_id", "session_id", "event_type"]].drop_duplicates()
        # dense in-bucket session key for the self-merge
        st = st.reset_index(drop=True)
        st["skey"] = pd.factorize(
            st["user_id"].astype(str) + ":" + st["session_id"].astype(str)
        )[0]
        n_sessions = int(st["skey"].nunique())
        marg = st.groupby("event_type", as_index=False).agg(n=("skey", "size"))
        m = st[["skey", "event_type"]].merge(
            st[["skey", "event_type"]], on="skey", suffixes=("_a", "_b")
        )
        m = m[m["event_type_a"] < m["event_type_b"]]
        pairs = m.groupby(["event_type_a", "event_type_b"], as_index=False).agg(
            n=("skey", "size")
        )
        rows = [
            {"kind": 0, "a": r.event_type_a, "b": r.event_type_b, "n": int(r.n)}
            for r in pairs.itertuples()
        ]
        rows += [
            {"kind": 1, "a": r.event_type, "b": "", "n": int(r.n)}
            for r in marg.itertuples()
        ]
        rows.append({"kind": 2, "a": "", "b": "", "n": n_sessions})
        return pd.DataFrame(rows, columns=["kind", "a", "b", "n"])

    parts = _per_user_exchange(
        sf_dir, n_buckets, ["user_id", "ts", "event_type"], per_bucket, part_schema
    ).to_pandas()  # <= n_buckets * (|types|^2 + |types| + 1) tiny rows
    agg = parts.groupby(["kind", "a", "b"], as_index=False)["n"].sum()
    total = int(agg.loc[agg["kind"] == 2, "n"].sum())
    marg = {
        r.a: int(r.n) for r in agg[agg["kind"] == 1].itertuples()
    }
    out = {"type_a": [], "type_b": [], "n_ab": [], "n_a": [], "n_b": [], "lift_ppm": []}
    pair_rows = agg[agg["kind"] == 0].sort_values(["a", "b"])
    for r in pair_rows.itertuples():
        na, nb, nab = marg[r.a], marg[r.b], int(r.n)
        out["type_a"].append(r.a)
        out["type_b"].append(r.b)
        out["n_ab"].append(nab)
        out["n_a"].append(na)
        out["n_b"].append(nb)
        out["lift_ppm"].append(nab * total * 1_000_000 // (na * nb))  # Python ints
    return pa.table(
        {
            "type_a": pa.array(out["type_a"], pa.string()),
            "type_b": pa.array(out["type_b"], pa.string()),
            "n_ab": pa.array(out["n_ab"], pa.int64()),
            "n_a": pa.array(out["n_a"], pa.int64()),
            "n_b": pa.array(out["n_b"], pa.int64()),
            "lift_ppm": pa.array(out["lift_ppm"], pa.int64()),
        }
    )


SESSION_TYPE_AFFINITY_SQL = """
WITH flagged AS (
  SELECT user_id, ts, event_type,
         CASE WHEN ts - lag(ts) OVER (PARTITION BY user_id ORDER BY ts)
                   > INTERVAL 30 MINUTE THEN 1 ELSE 0 END AS new_session
  FROM events
),
numbered AS (
  SELECT user_id, event_type,
         CAST(sum(new_session) OVER (PARTITION BY user_id ORDER BY ts
                                     RANGE UNBOUNDED PRECEDING) AS BIGINT)
           AS session_id
  FROM flagged
),
st AS (SELECT DISTINCT user_id, session_id, event_type FROM numbered),
tot AS (SELECT count(*) AS n FROM (SELECT DISTINCT user_id, session_id FROM st)),
marg AS (SELECT event_type, count(*) AS n FROM st GROUP BY event_type),
pairs AS (
  SELECT a.event_type AS type_a, b.event_type AS type_b, count(*) AS n_ab
  FROM st a JOIN st b
    ON a.user_id = b.user_id AND a.session_id = b.session_id
   AND a.event_type < b.event_type
  GROUP BY 1, 2
)
SELECT type_a, type_b,
       CAST(n_ab AS BIGINT) AS n_ab,
       CAST(ma.n AS BIGINT) AS n_a,
       CAST(mb.n AS BIGINT) AS n_b,
       CAST(n_ab * (SELECT n FROM tot) * 1000000 // (ma.n * mb.n) AS BIGINT)
         AS lift_ppm
FROM pairs
JOIN marg ma ON ma.event_type = type_a
JOIN marg mb ON mb.event_type = type_b
ORDER BY type_a, type_b
"""


# ---------------------------------------------------------------------------
# lead-lag cross-correlation (which hourly series moves first)
# ---------------------------------------------------------------------------

_XCORR_HOUR_US = 3_600_000_000


def events_leadlag_xcorr(
    sf_dir: str, *, type_x: str = "error", type_y: str = "purchase", max_lag: int = 3
) -> pa.Table:
    """Lead-lag profile between two hourly count series: for each lag k in
    [-max_lag, +max_lag], the EXACT co-moment numerators of
    corr(x_t, y_{t+k}) — n*Σxy - ΣxΣy and the two variance numerators —
    over the hours where both series are defined.  Positive-k rows measure
    "x leads y" (does the error rate predict purchases k hours later?);
    the sign of xy_num is the direction.  Numerators stay EXACT int64
    (counts are small ints; products bounded by hours*count^2), so no
    float sqrt/divide ever happens — the consumer ranks lags by
    xy_num^2 / (xx_num*yy_num) without precision loss.

    Plan: ONE hourly groupby folds per-batch (hour, n_x, n_y) partials;
    the aligned-lag products run driver-side over the CALENDAR-bounded
    hour table (the same bound revenue_time_rollup uses)."""
    from ray.data.aggregate import Sum

    part_schema = pa.schema(
        [("hour_us", pa.int64()), ("n_x", pa.int64()), ("n_y", pa.int64())]
    )

    def partial(batch: pa.Table) -> pa.Table:
        if batch.num_rows == 0 or batch.num_columns == 0:
            return part_schema.empty_table()
        ts = pc.cast(pc.cast(batch["ts"], pa.timestamp("us")), pa.int64())
        hour = pc.multiply(
            pc.divide(ts, pa.scalar(_XCORR_HOUR_US, pa.int64())),
            pa.scalar(_XCORR_HOUR_US, pa.int64()),
        )
        et = batch["event_type"]
        t = pa.table(
            {
                "hour_us": hour,
                "n_x": pc.cast(pc.equal(et, type_x), pa.int64()),
                "n_y": pc.cast(pc.equal(et, type_y), pa.int64()),
            }
        )
        return (
            t.group_by("hour_us")
            .aggregate([("n_x", "sum"), ("n_y", "sum")])
            .rename_columns(["hour_us", "n_x", "n_y"])
        )

    hours = (
        read_table(sf_dir, "events", columns=["ts", "event_type"])
        .map_batches(partial, batch_format="pyarrow", zero_copy_batch=True)
        .groupby("hour_us")
        .aggregate(Sum("n_x", alias_name="n_x"), Sum("n_y", alias_name="n_y"))
        .to_pandas()
        .sort_values("hour_us")
        .reset_index(drop=True)
    )  # calendar-bounded
    # dense hour grid so lag alignment is positional (missing hours = 0)
    h = hours["hour_us"].to_numpy(np.int64)
    grid = np.arange(h[0], h[-1] + _XCORR_HOUR_US, _XCORR_HOUR_US, dtype=np.int64)
    x = np.zeros(len(grid), np.int64)
    y = np.zeros(len(grid), np.int64)
    pos = (h - h[0]) // _XCORR_HOUR_US
    x[pos] = hours["n_x"].to_numpy(np.int64)
    y[pos] = hours["n_y"].to_numpy(np.int64)
    out = {"lag": [], "n_hours": [], "xy_num": [], "xx_num": [], "yy_num": []}
    for k in range(-max_lag, max_lag + 1):
        if k >= 0:
            xa, ya = x[: len(x) - k or None], y[k:]
        else:
            xa, ya = x[-k:], y[: len(y) + k]
        n = int(len(xa))
        sx, sy = int(xa.sum()), int(ya.sum())
        sxy = int((xa * ya).sum())
        sxx = int((xa * xa).sum())
        syy = int((ya * ya).sum())
        out["lag"].append(k)
        out["n_hours"].append(n)
        out["xy_num"].append(n * sxy - sx * sy)
        out["xx_num"].append(n * sxx - sx * sx)
        out["yy_num"].append(n * syy - sy * sy)
    return pa.table(
        {
            "lag": pa.array(out["lag"], pa.int64()),
            "n_hours": pa.array(out["n_hours"], pa.int64()),
            "xy_num": pa.array(out["xy_num"], pa.int64()),
            "xx_num": pa.array(out["xx_num"], pa.int64()),
            "yy_num": pa.array(out["yy_num"], pa.int64()),
        }
    )


def events_leadlag_xcorr_sql(
    type_x: str = "error", type_y: str = "purchase", max_lag: int = 3
) -> str:
    """DuckDB oracle: densify the hour grid with generate_series, shift by
    each lag with a positional self-join, same exact-int numerators."""
    lags = ", ".join(str(k) for k in range(-max_lag, max_lag + 1))
    return f"""
WITH c AS (
  SELECT date_trunc('hour', ts) AS hour,
         CAST(count(*) FILTER (WHERE event_type = '{type_x}') AS BIGINT) AS n_x,
         CAST(count(*) FILTER (WHERE event_type = '{type_y}') AS BIGINT) AS n_y
  FROM events GROUP BY hour
),
grid AS (
  SELECT unnest(generate_series(
           (SELECT min(hour) FROM c), (SELECT max(hour) FROM c),
           INTERVAL 1 HOUR)) AS hour
),
d AS (
  SELECT g.hour,
         CAST(row_number() OVER (ORDER BY g.hour) - 1 AS BIGINT) AS i,
         coalesce(c.n_x, 0) AS n_x, coalesce(c.n_y, 0) AS n_y
  FROM grid g LEFT JOIN c ON c.hour = g.hour
),
l(lag) AS (SELECT unnest([{lags}])),
p AS (
  SELECT l.lag, a.n_x AS x, b.n_y AS y
  FROM l JOIN d a ON TRUE JOIN d b ON b.i = a.i + l.lag
)
SELECT lag,
       CAST(count(*) AS BIGINT) AS n_hours,
       CAST(count(*) * sum(x*y) - sum(x) * sum(y) AS BIGINT) AS xy_num,
       CAST(count(*) * sum(x*x) - sum(x) * sum(x) AS BIGINT) AS xx_num,
       CAST(count(*) * sum(y*y) - sum(y) * sum(y) AS BIGINT) AS yy_num
FROM p GROUP BY lag ORDER BY lag
"""


# ---------------------------------------------------------------------------
# offline changepoint detection (binary segmentation, exact integer contrast)
# ---------------------------------------------------------------------------


def events_changepoint(sf_dir: str, *, top_k: int = 5) -> pa.Table:
    """Offline changepoint scan over the hourly event-count series: for
    every split point s the between-segment contrast |n2*S1 - n1*S2| (the
    cross-multiplied mean difference — EXACT in int64, no division), and
    the ``top_k`` best splits ranked (contrast desc, hour asc) — binary
    segmentation's first step, the "when did behavior change" question.

    One hourly fold (same calendar-bounded pattern as the xcorr/rollup
    family); the split scan is two cumulative sums over the dense grid,
    driver-side."""
    from ray.data.aggregate import Sum

    part_schema = pa.schema([("hour_us", pa.int64()), ("n", pa.int64())])

    def partial(batch: pa.Table) -> pa.Table:
        if batch.num_rows == 0 or batch.num_columns == 0:
            return part_schema.empty_table()
        ts = pc.cast(pc.cast(batch["ts"], pa.timestamp("us")), pa.int64())
        hour = pc.multiply(
            pc.divide(ts, pa.scalar(_XCORR_HOUR_US, pa.int64())),
            pa.scalar(_XCORR_HOUR_US, pa.int64()),
        )
        return (
            pa.table({"hour_us": hour})
            .group_by("hour_us")
            .aggregate([([], "count_all")])
            .rename_columns(["hour_us", "n"])
        )

    hours = (
        read_table(sf_dir, "events", columns=["ts"])
        .map_batches(partial, batch_format="pyarrow", zero_copy_batch=True)
        .groupby("hour_us")
        .aggregate(Sum("n", alias_name="n"))
        .to_pandas()
        .sort_values("hour_us")
        .reset_index(drop=True)
    )
    h = hours["hour_us"].to_numpy(np.int64)
    grid = np.arange(h[0], h[-1] + _XCORR_HOUR_US, _XCORR_HOUR_US, dtype=np.int64)
    y = np.zeros(len(grid), np.int64)
    y[(h - h[0]) // _XCORR_HOUR_US] = hours["n"].to_numpy(np.int64)
    n = len(y)
    total = int(y.sum())
    cum = np.cumsum(y)
    s = np.arange(1, n, dtype=np.int64)  # split AFTER index s-1
    s1 = cum[:-1]
    n1, n2 = s, n - s
    contrast = np.abs(n2 * s1 - n1 * (total - s1))
    order = np.lexsort((grid[1:], -contrast))[:top_k]
    return pa.table(
        {
            "split_hour": pc.cast(
                pa.array(grid[1:][order], pa.int64()), pa.timestamp("us")
            ),
            "rank": pa.array(np.arange(1, len(order) + 1, dtype=np.int64), pa.int64()),
            "n_left": pa.array(n1[order], pa.int64()),
            "n_right": pa.array(n2[order], pa.int64()),
            "sum_left": pa.array(s1[order], pa.int64()),
            "sum_right": pa.array(total - s1[order], pa.int64()),
            "contrast": pa.array(contrast[order], pa.int64()),
        }
    ).sort_by("rank")


EVENTS_CHANGEPOINT_SQL = """
WITH c AS (
  SELECT date_trunc('hour', ts) AS hour, CAST(count(*) AS BIGINT) AS n
  FROM events GROUP BY hour
),
grid AS (
  SELECT unnest(generate_series(
           (SELECT min(hour) FROM c), (SELECT max(hour) FROM c),
           INTERVAL 1 HOUR)) AS hour
),
d AS (
  SELECT g.hour, coalesce(c.n, 0) AS n,
         CAST(row_number() OVER (ORDER BY g.hour) AS BIGINT) AS i
  FROM grid g LEFT JOIN c ON c.hour = g.hour
),
tot AS (SELECT CAST(count(*) AS BIGINT) AS n_hours, CAST(sum(n) AS BIGINT) AS total FROM d),
splits AS (
  SELECT d.hour AS split_hour, d.i - 1 AS n_left,
         (SELECT n_hours FROM tot) - (d.i - 1) AS n_right,
         CAST(sum(n) OVER (ORDER BY d.hour
              ROWS BETWEEN UNBOUNDED PRECEDING AND 1 PRECEDING) AS BIGINT)
           AS sum_left
  FROM d
  QUALIFY d.i > 1
),
scored AS (
  SELECT split_hour, n_left, n_right, sum_left,
         (SELECT total FROM tot) - sum_left AS sum_right,
         abs(n_right * sum_left - n_left * ((SELECT total FROM tot) - sum_left))
           AS contrast
  FROM splits
)
SELECT split_hour,
       CAST(row_number() OVER (ORDER BY contrast DESC, split_hour) AS BIGINT)
         AS rank,
       n_left, n_right, sum_left, sum_right, CAST(contrast AS BIGINT) AS contrast
FROM scored
QUALIFY rank <= 5
ORDER BY rank
"""


# ---------------------------------------------------------------------------
# value-RANGE window frame: max events in any trailing/leading time window
# ---------------------------------------------------------------------------

_BURST_WIN_US = 3_600_000_000  # 1 hour


def events_max_burst(sf_dir: str, *, n_buckets: int | None = None) -> ray.data.Dataset:
    """Per user, the maximum number of events inside ANY [t, t+1h] window
    anchored at an event — the rate-burst profile abuse/bot screens
    compute, and the VALUE-RANGE window frame mechanism (RANGE BETWEEN
    CURRENT ROW AND INTERVAL ... FOLLOWING), distinct from the row-count
    and session-gap window forms already covered.

    Tie-safe by construction: the frame is defined by VALUES, so the
    count is searchsorted(ts, t+win, right) - searchsorted(ts, t, left) —
    position-free under duplicate timestamps, exactly the peer-group
    semantics of the SQL RANGE frame.  One user-bucketed exchange; inside
    a bucket users concatenate onto a dense-uid combined key (the
    events_band_join trick) so BOTH probes are two vectorized
    searchsorted calls, never a per-user loop."""
    out_schema = pa.schema(
        [(c, pa.int64()) for c in ("user_id", "n_events", "max_burst")]
    )

    def per_bucket(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values(["user_id", "ts"]).reset_index(drop=True)
        ts = g["ts"].astype("int64").to_numpy()
        uid = pd.factorize(g["user_id"])[0].astype(np.int64)
        tmin = int(ts.min()) if len(ts) else 0
        span = int(ts.max()) - tmin + _BURST_WIN_US + 2 if len(ts) else 1
        key = uid * span + (ts - tmin)
        order = np.argsort(key, kind="stable")
        key = key[order]
        hi = np.searchsorted(key, key + _BURST_WIN_US, side="right")
        lo = np.searchsorted(key, key, side="left")
        burst = (hi - lo).astype(np.int64)
        out = pd.DataFrame(
            {"user_id": g["user_id"].to_numpy()[order], "burst": burst}
        )
        res = out.groupby("user_id", as_index=False).agg(
            n_events=("burst", "size"), max_burst=("burst", "max")
        )
        res["user_id"] = res["user_id"].astype("int64")
        return res

    return _per_user_exchange(
        sf_dir, n_buckets, ["user_id", "ts"], per_bucket, out_schema
    ).sort("user_id")


EVENTS_MAX_BURST_SQL = """
WITH w AS (
  SELECT user_id,
         CAST(count(*) OVER (PARTITION BY user_id ORDER BY ts
              RANGE BETWEEN CURRENT ROW AND to_microseconds(3600000000)
              FOLLOWING) AS BIGINT) AS burst
  FROM events
)
SELECT user_id, CAST(count(*) AS BIGINT) AS n_events,
       CAST(max(burst) AS BIGINT) AS max_burst
FROM w GROUP BY user_id ORDER BY user_id
"""


# ---------------------------------------------------------------------------
# point-in-time churn feature snapshot — leakage-safe label construction
# ---------------------------------------------------------------------------

_CHURN_CUTOFF_US = 1_705_795_200_000_000  # 2024-01-21 00:00:00 UTC in epoch us
_DAY_US = 86_400_000_000


def user_churn_features(sf_dir: str) -> ray.data.Dataset:
    """Point-in-time churn training snapshot: for every user active before
    the cutoff T (2024-01-21), trailing-window activity FEATURES computed
    strictly from ``ts < T`` and a LABEL computed strictly from
    ``T <= ts < T+7d`` — the leakage-safe construction every churn model
    needs (a feature that peeks past T poisons the model; keeping both
    sides of T in one pass makes the boundary auditable).

    Features: event counts in the trailing 7d / 14d windows, spend cents in
    the 14d window, recency in whole hours at T.  Label:
    ``churned = 1`` iff the user has NO event in [T, T+7d).

    Everything is associative: a per-batch arrow group_by collapses each
    batch to one partial row per user (sums + max-before-timestamp with a
    -1 sentinel), ONE user_id groupby folds partials, and a pure map
    finishes — no map_groups, no per-user Python call.  Cents quantize
    per row (exact int64 sums); recency floor-divides nonnegative micros.
    """
    from ray.data.aggregate import Max, Sum

    T = _CHURN_CUTOFF_US
    part_schema = pa.schema(
        [
            ("user_id", pa.int64()),
            ("n7", pa.int64()),
            ("n14", pa.int64()),
            ("cents14", pa.int64()),
            ("max_before_us", pa.int64()),
            ("n_after", pa.int64()),
        ]
    )
    out_schema = pa.schema(
        [
            ("user_id", pa.int64()),
            ("n_events_7d", pa.int64()),
            ("n_events_14d", pa.int64()),
            ("value_cents_14d", pa.int64()),
            ("recency_hours", pa.int64()),
            ("churned", pa.int64()),
        ]
    )

    ds = read_table(sf_dir, "events", columns=["ts", "user_id", "value"])

    def partial(batch: pa.Table) -> pa.Table:
        if batch.num_rows == 0 or batch.num_columns == 0:
            return part_schema.empty_table()
        us = pc.cast(batch["ts"], pa.int64())
        before = pc.less(us, pa.scalar(T, pa.int64()))
        in7 = pc.and_(before, pc.greater_equal(us, pa.scalar(T - 7 * _DAY_US)))
        in14 = pc.and_(before, pc.greater_equal(us, pa.scalar(T - 14 * _DAY_US)))
        after = pc.and_(
            pc.greater_equal(us, pa.scalar(T, pa.int64())),
            pc.less(us, pa.scalar(T + 7 * _DAY_US)),
        )
        cents = pc.cast(
            pc.round(pc.multiply(batch["value"], pa.scalar(100.0))), pa.int64()
        )
        zero = pa.scalar(0, pa.int64())
        t = pa.table(
            {
                "user_id": pc.cast(batch["user_id"], pa.int64()),
                "n7": pc.cast(in7, pa.int64()),
                "n14": pc.cast(in14, pa.int64()),
                "cents14": pc.if_else(in14, cents, zero),
                "max_before_us": pc.if_else(before, us, pa.scalar(-1, pa.int64())),
                "n_after": pc.cast(after, pa.int64()),
            }
        )
        folded = t.group_by("user_id").aggregate(
            [
                ("n7", "sum"),
                ("n14", "sum"),
                ("cents14", "sum"),
                ("max_before_us", "max"),
                ("n_after", "sum"),
            ]
        )
        folded = folded.rename_columns(part_schema.names)
        return folded.cast(part_schema)

    def finish(batch: pa.Table) -> pa.Table:
        if batch.num_rows == 0 or batch.num_columns == 0:
            return out_schema.empty_table()
        batch = batch.select(part_schema.names).cast(part_schema)
        batch = batch.filter(
            pc.greater_equal(batch["max_before_us"], pa.scalar(0, pa.int64()))
        )
        if batch.num_rows == 0:
            return out_schema.empty_table()
        recency = pc.divide(
            pc.subtract(pa.scalar(T, pa.int64()), batch["max_before_us"]),
            pa.scalar(3_600_000_000, pa.int64()),
        )  # nonnegative: floor == trunc
        return pa.table(
            {
                "user_id": batch["user_id"],
                "n_events_7d": batch["n7"],
                "n_events_14d": batch["n14"],
                "value_cents_14d": batch["cents14"],
                "recency_hours": recency,
                "churned": pc.cast(
                    pc.equal(batch["n_after"], pa.scalar(0, pa.int64())), pa.int64()
                ),
            }
        )

    return (
        ds.map_batches(partial, batch_format="pyarrow", zero_copy_batch=True)
        .groupby("user_id")
        .aggregate(
            Sum(on="n7", alias_name="n7"),
            Sum(on="n14", alias_name="n14"),
            Sum(on="cents14", alias_name="cents14"),
            Max(on="max_before_us", alias_name="max_before_us"),
            Sum(on="n_after", alias_name="n_after"),
        )
        .map_batches(finish, batch_format="pyarrow")
        .sort("user_id")
    )


USER_CHURN_FEATURES_SQL = """
WITH agg AS (
  SELECT user_id,
         sum(CASE WHEN ts >= TIMESTAMP '2024-01-14' AND ts < TIMESTAMP '2024-01-21'
                  THEN 1 ELSE 0 END) AS n_events_7d,
         sum(CASE WHEN ts >= TIMESTAMP '2024-01-07' AND ts < TIMESTAMP '2024-01-21'
                  THEN 1 ELSE 0 END) AS n_events_14d,
         sum(CASE WHEN ts >= TIMESTAMP '2024-01-07' AND ts < TIMESTAMP '2024-01-21'
                  THEN CAST(round(value * 100) AS BIGINT) ELSE 0 END) AS value_cents_14d,
         max(CASE WHEN ts < TIMESTAMP '2024-01-21' THEN ts END) AS last_before,
         sum(CASE WHEN ts >= TIMESTAMP '2024-01-21' AND ts < TIMESTAMP '2024-01-28'
                  THEN 1 ELSE 0 END) AS n_after
  FROM events GROUP BY user_id)
SELECT user_id,
       CAST(n_events_7d AS BIGINT) AS n_events_7d,
       CAST(n_events_14d AS BIGINT) AS n_events_14d,
       CAST(value_cents_14d AS BIGINT) AS value_cents_14d,
       CAST((epoch_us(TIMESTAMP '2024-01-21') - epoch_us(last_before))
            // 3600000000 AS BIGINT) AS recency_hours,
       CAST(n_after = 0 AS BIGINT) AS churned
FROM agg WHERE last_before IS NOT NULL ORDER BY user_id
"""


# ---------------------------------------------------------------------------
# integer EWMA — the per-key sequential-scan recurrence
# ---------------------------------------------------------------------------


def events_ewma(sf_dir: str, *, n_buckets: int | None = None) -> ray.data.Dataset:
    """Per-user exponentially-weighted moving average of event value, the
    stream-smoothing primitive (anomaly baselines, adaptive thresholds)
    with alpha = 1/8 kept EXACT cross-engine by integer flooring every
    step:  s_1 = c_1;  s_i = (c_i + 7 * s_{i-1}) // 8  over events ordered
    by (ts, event_id) — cents are nonnegative so floor == truncate in both
    engines, and the recurrence is bit-deterministic (no float drift to
    quantize away).

    Plan shape: the recurrence is inherently sequential PER KEY — no
    closed form survives the per-step floor — so parallelism comes from
    the user-bucket exchange (scale-derived count): one lexsort per
    bucket, then a per-user ufunc accumulate over Python ints (the only
    per-row Python in the repo's hot paths, documented as the price of an
    exact sequential scan; users per bucket bound the loop).  The oracle
    is the equivalent recursive CTE, whose iteration depth is the max
    per-user event count — scale-INVARIANT under real corpus growth
    (users grow with the corpus) but multiplied by the replication factor
    at the synthetic 10x-rows tier.
    """
    n_b = _user_buckets(sf_dir, n_buckets)
    mask = pa.scalar(n_b - 1, pa.int64())

    ds = read_table(sf_dir, "events", columns=["event_id", "ts", "user_id", "value"])

    wire_schema = pa.schema(
        [(c, pa.int64()) for c in ("bucket", "user_id", "ts_us", "event_id", "cents")]
    )

    def add_bucket(batch: pa.Table) -> pa.Table:
        uid = pc.cast(batch["user_id"], pa.int64())
        cents = pc.cast(
            pc.round(pc.multiply(batch["value"], pa.scalar(100.0))), pa.int64()
        )
        return pa.table(
            {
                "bucket": pc.bit_wise_and(uid, mask),
                "user_id": uid,
                "ts_us": pc.cast(batch["ts"], pa.int64()),
                "event_id": pc.cast(batch["event_id"], pa.int64()),
                "cents": cents,
            }
        )

    out_schema = pa.schema(
        [
            ("user_id", pa.int64()),
            ("event_id", pa.int64()),
            ("cents", pa.int64()),
            ("ewma_cents", pa.int64()),
        ]
    )

    def per_bucket(group: pa.Table) -> pa.Table:
        # frompyfunc objects don't pickle — build per group call (cheap
        # next to the scan it drives)
        _step = np.frompyfunc(lambda s, c: (c + 7 * s) // 8, 2, 1)
        uid = np.asarray(group["user_id"], dtype=np.int64)
        ts = np.asarray(group["ts_us"], dtype=np.int64)
        eid = np.asarray(group["event_id"], dtype=np.int64)
        cents = np.asarray(group["cents"], dtype=np.int64)
        order = np.lexsort((eid, ts, uid))
        uid, eid, cents = uid[order], eid[order], cents[order]
        ewma = np.empty(len(uid), dtype=object)
        starts = np.concatenate([[0], np.flatnonzero(uid[1:] != uid[:-1]) + 1, [len(uid)]])
        obj = cents.astype(object)
        for a, b in zip(starts[:-1], starts[1:]):
            ewma[a:b] = _step.accumulate(obj[a:b])
        return pa.table(
            {
                "user_id": pa.array(uid, pa.int64()),
                "event_id": pa.array(eid, pa.int64()),
                "cents": pa.array(cents, pa.int64()),
                "ewma_cents": pa.array(ewma.astype(np.int64), pa.int64()),
            }
        )

    return (
        bucket_exchange(
            ds, per_bucket, schema=wire_schema, out_schema=out_schema, emit=add_bucket
        )
        .sort(["user_id", "event_id"])
    )


EVENTS_EWMA_SQL = """
WITH RECURSIVE ev AS (
  SELECT user_id, event_id,
         CAST(round(value * 100) AS BIGINT) AS cents,
         row_number() OVER (PARTITION BY user_id ORDER BY ts, event_id) AS seq
  FROM events),
r AS (
  SELECT user_id, event_id, cents, seq, cents AS ewma_cents
  FROM ev WHERE seq = 1
  UNION ALL
  SELECT e.user_id, e.event_id, e.cents, e.seq,
         (e.cents + 7 * r.ewma_cents) // 8
  FROM ev e JOIN r ON e.user_id = r.user_id AND e.seq = r.seq + 1)
SELECT user_id, event_id, cents, ewma_cents
FROM r ORDER BY user_id, event_id
"""


# ---------------------------------------------------------------------------
# pairwise user-set Jaccard matrix across event types
# ---------------------------------------------------------------------------


def user_jaccard_matrix(sf_dir: str, *, n_buckets: int | None = None) -> pa.Table:
    """Pairwise Jaccard similarity of the USER SETS behind every event-type
    pair — the audience-overlap matrix ("are clickers the same people as
    purchasers?") that generalizes ``user_activity_setops`` from one
    INTERSECT/EXCEPT to all pairs at once.

    Exactness: the whole matrix derives from exact PRESENCE-MASK counts —
    each user folds to one bit mask (bit i = touched type i, types
    numbered alphabetically in both engines), mask counts are a <=2^T-row
    fold, and every pairwise |A|, |B|, |A AND B| is a sum over mask
    counts; jaccard_ppm floor-divides once per pair (all positive).

    Plan shape: per-batch DISTINCT (user, bit) pairs -> ONE user-bucketed
    exchange -> per-bucket per-user bit-OR + mask counting (each bucket
    emits <=2^T partial rows) -> a <=2^T global fold -> driver pairwise
    arithmetic.  Users never reach the driver; the type domain does.
    """
    from ray.data.aggregate import Sum

    # tiny pass: the alphabetical type -> bit mapping (bounded domain)
    tds = read_table(sf_dir, "events", columns=["event_type"])

    def ty_partial(batch: pa.Table) -> pa.Table:
        if batch.num_rows == 0 or batch.num_columns == 0:
            return pa.schema([("event_type", pa.string())]).empty_table()
        return batch.group_by("event_type").aggregate([])

    from ray.data.aggregate import Count

    types = sorted(
        {
            r["event_type"]
            for r in tds.map_batches(ty_partial, batch_format="pyarrow")
            .groupby("event_type")
            .aggregate(Count())  # bounded: distinct fold over the event-type domain
            .take_all()
        }
    )
    bit_of = {t: i for i, t in enumerate(types)}

    ds = read_table(sf_dir, "events", columns=["user_id", "event_type"])
    n_b = _user_buckets(sf_dir, n_buckets)
    bmask = pa.scalar(n_b - 1, pa.int64())

    pair_schema = pa.schema(
        [("user_id", pa.int64()), ("bit", pa.int64()), ("bucket", pa.int64())]
    )
    mask_schema = pa.schema([("mask", pa.int64()), ("c", pa.int64())])

    def pair_partial(batch: pa.Table) -> pa.Table:
        bits = pa.array(
            [bit_of[t] for t in batch["event_type"].to_pylist()], pa.int64()
        )
        t = (
            pa.table({"user_id": pc.cast(batch["user_id"], pa.int64()), "bit": bits})
            .group_by(["user_id", "bit"])
            .aggregate([])
        )
        return t.append_column("bucket", pc.bit_wise_and(t["user_id"], bmask))

    def mask_bucket(group: pa.Table) -> pa.Table:
        uid = np.asarray(group["user_id"], np.int64)
        bit = np.asarray(group["bit"], np.int64)
        order = np.argsort(uid, kind="stable")
        uid, bit = uid[order], bit[order]
        new_seg = np.concatenate([[True], uid[1:] != uid[:-1]])
        seg_id = np.cumsum(new_seg) - 1
        masks = np.zeros(seg_id[-1] + 1 if len(seg_id) else 0, np.int64)
        np.bitwise_or.at(masks, seg_id, np.int64(1) << bit)
        mk, mc = np.unique(masks, return_counts=True)
        return pa.table(
            {"mask": pa.array(mk, pa.int64()), "c": pa.array(mc.astype(np.int64), pa.int64())}
        )

    rows = (
        bucket_exchange(
            ds,
            mask_bucket,
            schema=pair_schema,
            out_schema=mask_schema,
            emit=pair_partial,
        )
        .groupby("mask")
        .aggregate(Sum(on="c", alias_name="c"))
        .take_all()  # bounded: <= 2^|types| mask rows
    )
    cnt = {int(r["mask"]): int(r["c"]) for r in rows}
    out = {"type_a": [], "type_b": [], "n_a": [], "n_b": [], "n_both": [], "jaccard_ppm": []}
    for i, ta in enumerate(types):
        for j in range(i + 1, len(types)):
            tb = types[j]
            ba, bb = 1 << i, 1 << j
            n_a = sum(c for m, c in cnt.items() if m & ba)
            n_b2 = sum(c for m, c in cnt.items() if m & bb)
            n_both = sum(c for m, c in cnt.items() if (m & ba) and (m & bb))
            union = n_a + n_b2 - n_both
            out["type_a"].append(ta)
            out["type_b"].append(tb)
            out["n_a"].append(n_a)
            out["n_b"].append(n_b2)
            out["n_both"].append(n_both)
            out["jaccard_ppm"].append(n_both * 1_000_000 // union if union else 0)
    return pa.table(
        {
            "type_a": pa.array(out["type_a"], pa.string()),
            "type_b": pa.array(out["type_b"], pa.string()),
            "n_a": pa.array(out["n_a"], pa.int64()),
            "n_b": pa.array(out["n_b"], pa.int64()),
            "n_both": pa.array(out["n_both"], pa.int64()),
            "jaccard_ppm": pa.array(out["jaccard_ppm"], pa.int64()),
        }
    )


USER_JACCARD_MATRIX_SQL = """
WITH ty AS (
  SELECT event_type, row_number() OVER (ORDER BY event_type) - 1 AS idx
  FROM (SELECT DISTINCT event_type FROM events)),
um AS (
  SELECT e.user_id, sum(DISTINCT (1::BIGINT << ty.idx)) AS mask
  FROM events e JOIN ty USING (event_type) GROUP BY e.user_id),
mc AS (SELECT mask, count(*) AS c FROM um GROUP BY mask),
pr AS (
  SELECT ta.event_type AS type_a, tb.event_type AS type_b,
         ta.idx AS ia, tb.idx AS ib
  FROM ty ta JOIN ty tb ON ta.event_type < tb.event_type),
ag AS (
  SELECT pr.type_a, pr.type_b,
         sum(CASE WHEN mc.mask & (1::BIGINT << pr.ia) > 0 THEN mc.c ELSE 0 END) AS n_a,
         sum(CASE WHEN mc.mask & (1::BIGINT << pr.ib) > 0 THEN mc.c ELSE 0 END) AS n_b,
         sum(CASE WHEN mc.mask & (1::BIGINT << pr.ia) > 0
                   AND mc.mask & (1::BIGINT << pr.ib) > 0 THEN mc.c ELSE 0 END) AS n_both
  FROM pr CROSS JOIN mc GROUP BY 1, 2)
SELECT type_a, type_b, CAST(n_a AS BIGINT) AS n_a, CAST(n_b AS BIGINT) AS n_b,
       CAST(n_both AS BIGINT) AS n_both,
       CAST(CASE WHEN n_a + n_b - n_both > 0
                 THEN n_both * 1000000 // (n_a + n_b - n_both)
                 ELSE 0 END AS BIGINT) AS jaccard_ppm
FROM ag ORDER BY type_a, type_b
"""


# ---------------------------------------------------------------------------
# Ruzicka (weighted Jaccard) similarity of hourly activity profiles
# ---------------------------------------------------------------------------


def hourly_profile_similarity(sf_dir: str) -> pa.Table:
    """Ruzicka similarity (weighted Jaccard, sum-min over sum-max) between
    the 24-hour activity profiles of every event-type pair — "do logins
    and clicks follow the same daily rhythm?".  Unlike correlation it
    never goes negative and weights hours by actual volume; it is the
    histogram-similarity measure of choice for traffic shapes.

    Exactness: pure integer — with hourly counts a_h, b_h:
    sum(max) = sum(a) + sum(b) - sum(min), so only the inner-join
    sum-of-minima and the two totals are needed; ruzicka_ppm
    floor-divides once per pair.

    Plan shape: ONE (event_type, hour) count fold (|types| x 24 rows),
    driver pairwise arithmetic.
    """
    from ray.data.aggregate import Sum

    ds = read_table(sf_dir, "events", columns=["event_type", "ts"])

    part_schema = pa.schema(
        [("event_type", pa.string()), ("hour", pa.int64()), ("c", pa.int64())]
    )

    def partial(batch: pa.Table) -> pa.Table:
        if batch.num_rows == 0 or batch.num_columns == 0:
            return part_schema.empty_table()
        t = pa.table(
            {
                "event_type": batch["event_type"],
                "hour": pc.cast(pc.hour(batch["ts"]), pa.int64()),
            }
        )
        return (
            t.group_by(["event_type", "hour"])
            .aggregate([([], "count_all")])
            .rename_columns(["event_type", "hour", "c"])
        )

    rows = (
        ds.map_batches(partial, batch_format="pyarrow", zero_copy_batch=True)
        .groupby(["event_type", "hour"])
        .aggregate(Sum("c", alias_name="c"))
        .take_all()  # bounded: |types| x 24
    )
    prof: dict[str, dict[int, int]] = {}
    for r in rows:
        prof.setdefault(r["event_type"], {})[int(r["hour"])] = int(r["c"])
    types = sorted(prof)
    out = {"type_a": [], "type_b": [], "sum_min": [], "sum_max": [], "ruzicka_ppm": []}
    for i, ta in enumerate(types):
        for tb in types[i + 1 :]:
            a, b = prof[ta], prof[tb]
            smin = sum(min(a[h], b[h]) for h in a.keys() & b.keys())
            smax = sum(a.values()) + sum(b.values()) - smin
            out["type_a"].append(ta)
            out["type_b"].append(tb)
            out["sum_min"].append(smin)
            out["sum_max"].append(smax)
            out["ruzicka_ppm"].append(smin * 1_000_000 // smax if smax else 0)
    return pa.table(
        {
            "type_a": pa.array(out["type_a"], pa.string()),
            "type_b": pa.array(out["type_b"], pa.string()),
            "sum_min": pa.array(out["sum_min"], pa.int64()),
            "sum_max": pa.array(out["sum_max"], pa.int64()),
            "ruzicka_ppm": pa.array(out["ruzicka_ppm"], pa.int64()),
        }
    )


HOURLY_PROFILE_SIMILARITY_SQL = """
WITH b AS (
  SELECT event_type, CAST(hour(ts) AS BIGINT) AS h, count(*) AS c
  FROM events GROUP BY 1, 2),
tot AS (SELECT event_type, sum(c) AS s FROM b GROUP BY 1),
mn AS (
  SELECT a.event_type AS type_a, b2.event_type AS type_b,
         sum(least(a.c, b2.c)) AS smin
  FROM b a JOIN b b2 ON a.h = b2.h AND a.event_type < b2.event_type
  GROUP BY 1, 2),
pr AS (
  SELECT ta.event_type AS type_a, tb.event_type AS type_b,
         coalesce(mn.smin, 0) AS smin, ta.s + tb.s - coalesce(mn.smin, 0) AS smax
  FROM tot ta JOIN tot tb ON ta.event_type < tb.event_type
  LEFT JOIN mn ON mn.type_a = ta.event_type AND mn.type_b = tb.event_type)
SELECT type_a, type_b, CAST(smin AS BIGINT) AS sum_min,
       CAST(smax AS BIGINT) AS sum_max,
       CAST(CASE WHEN smax > 0 THEN smin * 1000000 // smax ELSE 0 END AS BIGINT)
         AS ruzicka_ppm
FROM pr ORDER BY type_a, type_b
"""


# ---------------------------------------------------------------------------
# session entry->exit matrix (bow-tie pathing)
# ---------------------------------------------------------------------------

_ENTRY_EXIT_GAP_MIN = 30


def session_entry_exit_matrix(
    sf_dir: str, *, gap_minutes: int = _ENTRY_EXIT_GAP_MIN, n_buckets: int | None = None
) -> ray.data.Dataset:
    """Session bow-tie pathing: for every session (the same 30-minute-gap
    rule as ``events_sessionize``), which event type OPENED it and which
    CLOSED it — the (entry, exit) count matrix product analytics reads as
    "where do journeys start and where do they die".

    Determinism: within a user the scan orders by (ts, event_id) — the
    unique-key tiebreak (CLAUDE.md duplicate-timestamp hazard), so entry
    and exit rows are pinned even under tied timestamps, and the oracle's
    running-session-id window uses the same two-key ORDER.

    Plan shape: ONE user-bucketed exchange; in-bucket vectorized lexsort
    + gap flags + boundary picks (no Python per session); per-bucket
    (entry, exit) partials pre-fold, global fold is |types|^2 rows.
    """
    from ray.data.aggregate import Sum

    gap_us = gap_minutes * 60_000_000
    columns = ["user_id", "ts_us", "event_id", "event_type"]
    cell_schema = pa.schema(
        [("entry_type", pa.string()), ("exit_type", pa.string()), ("n", pa.int64())]
    )

    def fold_bucket(group: pa.Table) -> pa.Table:
        uid = np.asarray(group["user_id"], np.int64)
        ts = np.asarray(group["ts_us"], np.int64)
        eid = np.asarray(group["event_id"], np.int64)
        order = np.lexsort((eid, ts, uid))
        uid, ts = uid[order], ts[order]
        types = group["event_type"].take(pa.array(order))
        new_user = np.concatenate([[True], uid[1:] != uid[:-1]])
        gap_brk = np.concatenate([[True], (ts[1:] - ts[:-1]) > gap_us])
        start = new_user | gap_brk
        end = np.concatenate([start[1:], [True]])
        t = pa.table(
            {
                "entry_type": types.filter(pa.array(start)),
                "exit_type": types.filter(pa.array(end)),
            }
        )
        return (
            t.group_by(["entry_type", "exit_type"])
            .aggregate([([], "count_all")])
            .rename_columns(["entry_type", "exit_type", "n"])
        )

    return (
        _per_user_exchange(
            sf_dir, n_buckets, columns, fold_bucket, cell_schema, "pyarrow"
        )
        .groupby(["entry_type", "exit_type"])
        .aggregate(Sum(on="n", alias_name="n"))
        .sort(["entry_type", "exit_type"])
    )


SESSION_ENTRY_EXIT_SQL = f"""
WITH e AS (
  SELECT user_id, ts, event_id, event_type,
         CASE WHEN lag(ts) OVER w IS NULL
                OR epoch_us(ts) - epoch_us(lag(ts) OVER w)
                   > {_ENTRY_EXIT_GAP_MIN * 60_000_000} THEN 1 ELSE 0 END AS brk
  FROM events
  WINDOW w AS (PARTITION BY user_id ORDER BY ts, event_id)),
s AS (
  SELECT user_id, ts, event_id, event_type,
         sum(brk) OVER (PARTITION BY user_id ORDER BY ts, event_id
                        ROWS UNBOUNDED PRECEDING) AS sid
  FROM e),
b AS (
  SELECT user_id, sid,
         first(event_type ORDER BY ts, event_id) AS entry_type,
         last(event_type ORDER BY ts, event_id) AS exit_type
  FROM s GROUP BY user_id, sid)
SELECT entry_type, exit_type, count(*) AS n
FROM b GROUP BY 1, 2 ORDER BY 1, 2
"""


# ---------------------------------------------------------------------------
# deterministic A/B split + exact median uplift
# ---------------------------------------------------------------------------

_AB_LEHMER_A = 630360016
_AB_LEHMER_M = 2147483647


def ab_median_uplift(sf_dir: str) -> pa.Table:
    """Deterministic A/B arm assignment (full-period Lehmer hash of
    user_id — the repo's reshard-invariant sampling rule) plus the EXACT
    median event value per arm and the median uplift — the analysis
    skeleton of every holdout experiment, with the median (not the mean)
    so one whale cannot flip the read.

    Exactness: arm = Lehmer(user_id) % 2; per-arm medians use
    ``med2`` = the sum of the TWO middle order statistics (the same
    element twice when odd — customer_reorder_intervals trick), so no
    division ever happens; uplift_med2 = med2_b - med2_a is exact int64
    half-cent... (med2 is in DOUBLED cents).

    Plan shape: ONE (arm, cents) value-domain histogram fold (bounded by
    the price grid x 2), driver order-statistic finish.
    """
    from ray.data.aggregate import Sum

    ds = read_table(sf_dir, "events", columns=["user_id", "value"])

    part_schema = pa.schema(
        [("arm", pa.int64()), ("cents", pa.int64()), ("n", pa.int64())]
    )

    def partial(batch: pa.Table) -> pa.Table:
        if batch.num_rows == 0 or batch.num_columns == 0:
            return part_schema.empty_table()
        uid = pc.cast(batch["user_id"], pa.int64()).to_numpy(zero_copy_only=False)
        arm = (uid % _AB_LEHMER_M) * _AB_LEHMER_A % _AB_LEHMER_M % 2
        t = pa.table(
            {
                "arm": pa.array(arm.astype(np.int64), pa.int64()),
                "cents": pc.cast(
                    pc.round(pc.multiply(batch["value"], pa.scalar(100.0))), pa.int64()
                ),
            }
        )
        return (
            t.group_by(["arm", "cents"])
            .aggregate([([], "count_all")])
            .rename_columns(["arm", "cents", "n"])
        )

    rows = (
        ds.map_batches(partial, batch_format="pyarrow", zero_copy_batch=True)
        .groupby(["arm", "cents"])
        .aggregate(Sum("n", alias_name="n"))
        .take_all()  # bounded: 2 x |distinct cents| (the value grid)
    )
    hist: dict[int, dict[int, int]] = {0: {}, 1: {}}
    for r in rows:
        hist[int(r["arm"])][int(r["cents"])] = int(r["n"])

    def med2_of(vc: dict[int, int]) -> tuple[int, int]:
        vals = sorted(vc)
        cnt = np.array([vc[v] for v in vals], np.int64)
        cum = np.cumsum(cnt)
        n = int(cum[-1]) if len(cum) else 0
        if n == 0:
            return 0, 0
        lo = int(np.searchsorted(cum, (n - 1) // 2 + 1))
        hi = int(np.searchsorted(cum, n // 2 + 1))
        return n, vals[lo] + vals[hi]

    n_a, med2_a = med2_of(hist[0])
    n_b, med2_b = med2_of(hist[1])
    return pa.table(
        {
            "n_a": pa.array([n_a], pa.int64()),
            "n_b": pa.array([n_b], pa.int64()),
            "med2_a": pa.array([med2_a], pa.int64()),
            "med2_b": pa.array([med2_b], pa.int64()),
            "uplift_med2": pa.array([med2_b - med2_a], pa.int64()),
        }
    )


AB_MEDIAN_UPLIFT_SQL = f"""
WITH pts AS (
  SELECT (user_id % {_AB_LEHMER_M}) * {_AB_LEHMER_A} % {_AB_LEHMER_M} % 2 AS arm,
         CAST(round(value * 100) AS BIGINT) AS cents
  FROM events),
r AS (
  SELECT arm, cents,
         row_number() OVER (PARTITION BY arm ORDER BY cents) AS rk,
         count(*) OVER (PARTITION BY arm) AS n
  FROM pts),
m AS (
  SELECT arm, max(n) AS n,
         sum(cents) FILTER (WHERE rk = (n - 1) // 2 + 1) +
         sum(cents) FILTER (WHERE rk = n // 2 + 1) AS med2
  FROM r GROUP BY arm)
SELECT (SELECT CAST(n AS BIGINT) FROM m WHERE arm = 0) AS n_a,
       (SELECT CAST(n AS BIGINT) FROM m WHERE arm = 1) AS n_b,
       (SELECT CAST(med2 AS BIGINT) FROM m WHERE arm = 0) AS med2_a,
       (SELECT CAST(med2 AS BIGINT) FROM m WHERE arm = 1) AS med2_b,
       (SELECT CAST(med2 AS BIGINT) FROM m WHERE arm = 1)
     - (SELECT CAST(med2 AS BIGINT) FROM m WHERE arm = 0) AS uplift_med2
"""


# ---------------------------------------------------------------------------
# FORWARD as-of: each click's time-to-NEXT-purchase
# ---------------------------------------------------------------------------


def events_asof_next_purchase(
    sf_dir: str, *, n_buckets: int | None = None
) -> ray.data.Dataset:
    """FORWARD as-of join: each click matched to the same user's NEXT
    purchase strictly after it in the (ts, event_id) total order — the
    time-to-conversion lookup that the backward as-of
    (events_asof_last_click) cannot express, and the missing direction of
    the temporal-join family.

    Determinism: "next" means the first purchase in the (ts, event_id)
    order after the click's own position — tied timestamps resolve by the
    unique event id on BOTH sides, so no tie collapse is needed (unlike
    the backward asof, whose engine picks an arbitrary tie row).  Clicks
    with no later purchase drop (inner semantics).

    Plan shape: ONE user-bucketed tagged-union exchange; in-bucket
    vectorized reverse scan — sort by (user, ts, event_id), then a
    backward running-minimum of "position of the next purchase row"
    assigns every click its successor in O(n) with no Python per event.
    Output wait_us is an exact int64 difference.
    """
    ds = read_table(sf_dir, "events", columns=["event_id", "ts", "user_id", "event_type"])
    n_b = _user_buckets(sf_dir, n_buckets)
    bmask = pa.scalar(n_b - 1, pa.int64())

    row_schema = pa.schema(
        [
            ("bucket", pa.int64()),
            ("user_id", pa.int64()),
            ("ts_us", pa.int64()),
            ("event_id", pa.int64()),
            ("is_click", pa.int64()),
            ("is_purchase", pa.int64()),
        ]
    )
    out_schema = pa.schema(
        [
            ("event_id", pa.int64()),
            ("user_id", pa.int64()),
            ("purchase_event_id", pa.int64()),
            ("wait_us", pa.int64()),
        ]
    )

    def rows_partial(batch: pa.Table) -> pa.Table:
        et = batch["event_type"]
        is_c = pc.cast(pc.equal(et, "click"), pa.int64())
        is_p = pc.cast(pc.equal(et, "purchase"), pa.int64())
        keep = pc.or_(pc.equal(is_c, 1), pc.equal(is_p, 1))
        t = pa.table(
            {
                "user_id": pc.cast(batch["user_id"], pa.int64()),
                "ts_us": pc.cast(pc.cast(batch["ts"], pa.timestamp("us")), pa.int64()),
                "event_id": pc.cast(batch["event_id"], pa.int64()),
                "is_click": is_c,
                "is_purchase": is_p,
            }
        ).filter(keep)
        return t.append_column("bucket", pc.bit_wise_and(t["user_id"], bmask)).select(
            row_schema.names
        )

    def fold_bucket(group: pa.Table) -> pa.Table:
        uid = np.asarray(group["user_id"], np.int64)
        ts = np.asarray(group["ts_us"], np.int64)
        eid = np.asarray(group["event_id"], np.int64)
        is_c = np.asarray(group["is_click"], np.int64).astype(bool)
        is_p = np.asarray(group["is_purchase"], np.int64).astype(bool)
        order = np.lexsort((eid, ts, uid))
        uid, ts, eid = uid[order], ts[order], eid[order]
        is_c, is_p = is_c[order], is_p[order]
        n = len(uid)
        # backward pass: next-purchase ROW index after each position,
        # reset at user boundaries (sentinel n)
        idx = np.arange(n)
        cand = np.where(is_p, idx, n)
        # process per segment in one reversed accumulate: flip, mark
        # segment starts (flipped user boundaries), np.minimum.accumulate
        # with resets via a trick: offset each segment by a large stride
        seg_id = np.cumsum(np.concatenate([[True], uid[1:] != uid[:-1]])) - 1
        stride = np.int64(n + 1)
        keyed = cand + seg_id * stride  # still monotone-in-segment sentinel-safe
        rev_min = np.minimum.accumulate((keyed)[::-1])[::-1]
        nxt = rev_min - seg_id * stride
        valid = is_c & (nxt > idx) & (nxt < n)
        # strictly AFTER the click: a purchase at the same position never
        # coincides (a row is one event); nxt == idx only when the click IS
        # a purchase row, excluded by construction
        src = idx[valid]
        dst = nxt[valid]
        return pa.table(
            {
                "event_id": pa.array(eid[src], pa.int64()),
                "user_id": pa.array(uid[src], pa.int64()),
                "purchase_event_id": pa.array(eid[dst], pa.int64()),
                "wait_us": pa.array(ts[dst] - ts[src], pa.int64()),
            }
        )

    return (
        bucket_exchange(
            ds, fold_bucket, schema=row_schema, out_schema=out_schema, emit=rows_partial
        )
        .sort("event_id")
    )


EVENTS_ASOF_NEXT_PURCHASE_SQL = """
WITH e AS (
  SELECT event_id, user_id, ts, event_type
  FROM events WHERE event_type IN ('click', 'purchase')),
w AS (
  SELECT event_id, user_id, ts, event_type,
         min(CASE WHEN event_type = 'purchase'
                  THEN CAST(epoch_us(ts) AS HUGEINT) * 1000000000 + event_id END)
           OVER (PARTITION BY user_id ORDER BY ts, event_id
                 ROWS BETWEEN 1 FOLLOWING AND UNBOUNDED FOLLOWING) AS nxt
  FROM e)
SELECT event_id, user_id,
       CAST(nxt % 1000000000 AS BIGINT) AS purchase_event_id,
       CAST(nxt // 1000000000 - epoch_us(ts) AS BIGINT) AS wait_us
FROM w
WHERE event_type = 'click' AND nxt IS NOT NULL
ORDER BY event_id
"""


# ---------------------------------------------------------------------------
# conditional entropy of the event-type chain — how predictable is the NEXT
# action given the current one?  Completes the information-theory family:
# events_hourly_entropy (marginal), lang_source_mutual_info (two labels),
# this (Markov-1 conditional, off the events_transitions cells)
# ---------------------------------------------------------------------------


def events_transition_entropy(sf_dir: str) -> pa.Table:
    """Per-from-type conditional entropy H(next | from) over the
    (ts, event_id)-tiebroken transition cells: for each from-type with
    outgoing count N and cells n_i, cond_entropy_e6 =
    (sum_i round(n_i * ln(N / n_i) * 1e6)) // N — each cell quantizes ONCE
    (the DSIR/PMI discipline: the log argument is double(N)/double(n),
    identical IEEE op order both engines), the cell terms sum exactly, and
    ONE final floor division lands on the 1e-6-nat grid.  0 = a from-type
    that deterministically forces the next event (cron-like), ln(|types|)
    = anybody's guess.

    Plan shape: the whole computation is a driver finish over the
    |types|^2 bounded cells of :func:`events_transitions` — the exchange
    cost is that operator's one user-bucket pass."""
    cells = events_transitions(sf_dir).take_all()  # bounded: |types|^2 rows
    by_from: dict[str, list[int]] = {}
    for r in cells:
        by_from.setdefault(r["from_type"], []).append(int(r["n_transitions"]))
    out = {"from_type": [], "n_out": [], "cond_entropy_e6": []}
    for ft in sorted(by_from):
        ns = by_from[ft]
        total = sum(ns)
        terms = sum(
            int(np.round(float(n) * np.log(float(total) / float(n)) * 1e6))
            for n in ns
        )
        out["from_type"].append(ft)
        out["n_out"].append(total)
        out["cond_entropy_e6"].append(terms // total)
    return pa.table(
        {
            "from_type": pa.array(out["from_type"], pa.string()),
            "n_out": pa.array(out["n_out"], pa.int64()),
            "cond_entropy_e6": pa.array(out["cond_entropy_e6"], pa.int64()),
        }
    )


EVENTS_TRANSITION_ENTROPY_SQL = """
WITH seq AS (
  SELECT user_id, event_type,
         lag(event_type) OVER (PARTITION BY user_id ORDER BY ts, event_id)
           AS prev_type
  FROM events),
cells AS (
  SELECT prev_type AS from_type, event_type AS to_type, count(*) AS n
  FROM seq WHERE prev_type IS NOT NULL GROUP BY 1, 2),
tot AS (SELECT from_type, sum(n) AS total FROM cells GROUP BY 1),
terms AS (
  SELECT c.from_type,
         sum(CAST(round(CAST(c.n AS DOUBLE)
                        * ln(CAST(t.total AS DOUBLE) / CAST(c.n AS DOUBLE))
                        * 1000000) AS BIGINT)) AS s,
         max(t.total) AS total
  FROM cells c JOIN tot t ON t.from_type = c.from_type
  GROUP BY c.from_type)
SELECT from_type, CAST(total AS BIGINT) AS n_out,
       CAST(s // total AS BIGINT) AS cond_entropy_e6
FROM terms ORDER BY from_type
"""


# ---------------------------------------------------------------------------
# CUPED variance-reduced A/B uplift (Deng et al. 2013, public literature)
# ---------------------------------------------------------------------------

_US_PER_DAY_CUPED = 86_400_000_000


def ab_cuped_uplift(sf_dir: str) -> pa.Table:
    """CUPED-adjusted A/B uplift of per-user spend: the pre-period
    covariate (each user's spend BEFORE the calendar midpoint) absorbs
    between-user variance from the outcome (spend AFTER it) via
    ``y_adj = y - theta * x``, ``theta = cov(x, y) / var(x)`` pooled over
    all users — the industry-standard variance-reduction every
    experimentation platform applies before reading an uplift.

    Integer contract: spends fold in exact cents; the calendar midpoint
    is ``(min_day + max_day + 1) // 2`` (metadata-free, derived from the
    data); theta quantizes ONCE to 1e-6 (trunc division — cov can be
    negative); each arm's adjusted mean is ``(Sy * 1e6 - theta_e6 * Sx)
    trunc-div n`` so only that single quantization ever compounds.
    Output one row: (n_c, n_t, theta_e6, raw_uplift_e6, cuped_uplift_e6)
    in 1e-6-cent units.  An arm with no users gives NULL for its count and
    both uplifts, as in the SQL oracle.

    Plan shape: one user-bucket exchange folds per-user (x, y) pairs and
    collapses each bucket to per-arm moment partials (n, Sx, Sy, Sxx,
    Sxy) — five ints per arm per bucket; the driver finishes in PYTHON
    INTS (Sxx/Sxy overflow int64 at extreme scale — the HUGEINT-finish
    rule) and the SQL oracle mirrors in HUGEINT."""
    from ray.data.aggregate import Max, Min

    from ..scale import bucket_count, estimate_rows

    ds = read_table(sf_dir, "events", columns=["user_id", "ts", "value"])

    # pass 0: calendar bounds (metadata-cheap aggregate)
    def day_col(batch: pa.Table) -> pa.Table:
        if batch.num_rows == 0 or batch.num_columns == 0:
            return pa.schema([("day", pa.int64())]).empty_table()
        us = pc.cast(pc.cast(batch["ts"], pa.timestamp("us")), pa.int64())
        return pa.table(
            {"day": pc.divide(us, pa.scalar(_US_PER_DAY_CUPED, pa.int64()))}
        )

    bounds = (
        ds.map_batches(day_col, batch_format="pyarrow", zero_copy_batch=True)
        .aggregate(Min("day"), Max("day"))
    )
    mid = (int(bounds["min(day)"]) + int(bounds["max(day)"]) + 1) // 2

    nb = bucket_count(estimate_rows(sf_dir, "events"), min_buckets=32)
    _AB_M, _AB_A = _AB_LEHMER_M, _AB_LEHMER_A

    row_schema = pa.schema(
        [
            ("ubucket", pa.int64()),
            ("user_id", pa.int64()),
            ("x", pa.int64()),
            ("y", pa.int64()),
        ]
    )

    def user_partial(batch: pa.Table) -> pa.Table:
        uid = pc.cast(batch["user_id"], pa.int64()).to_numpy(zero_copy_only=False)
        us = pc.cast(pc.cast(batch["ts"], pa.timestamp("us")), pa.int64()).to_numpy(
            zero_copy_only=False
        )
        cents = (
            pc.cast(
                pc.round(pc.multiply(batch["value"], pa.scalar(100.0))), pa.int64()
            )
            .to_numpy(zero_copy_only=False)
        )
        pre = (us // _US_PER_DAY_CUPED) < mid
        uu, inv = np.unique(uid, return_inverse=True)
        x = np.zeros(len(uu), np.int64)
        y = np.zeros(len(uu), np.int64)
        np.add.at(x, inv[pre], cents[pre])
        np.add.at(y, inv[~pre], cents[~pre])
        return pa.table(
            {
                "ubucket": pa.array((uu % nb).astype(np.int64)),
                "user_id": pa.array(uu, pa.int64()),
                "x": pa.array(x),
                "y": pa.array(y),
            }
        )

    mom_schema = pa.schema(
        [
            ("arm", pa.int64()),
            ("n", pa.int64()),
            ("sx", pa.int64()),
            ("sy", pa.int64()),
            ("sxx", pa.int64()),
            ("sxy", pa.int64()),
        ]
    )

    def fold_bucket(g: pa.Table) -> pa.Table:
        uid = g["user_id"].to_numpy(zero_copy_only=False)
        x = g["x"].to_numpy(zero_copy_only=False)
        y = g["y"].to_numpy(zero_copy_only=False)
        # a user's partials may span blocks: re-fold per user in-bucket
        uu, inv = np.unique(uid, return_inverse=True)
        ux = np.zeros(len(uu), np.int64)
        uy = np.zeros(len(uu), np.int64)
        np.add.at(ux, inv, x)
        np.add.at(uy, inv, y)
        arm = (uu % _AB_M) * _AB_A % _AB_M % 2
        rows = {k: [] for k in mom_schema.names}
        for a in (0, 1):
            m = arm == a
            rows["arm"].append(a)
            rows["n"].append(int(m.sum()))
            rows["sx"].append(int(ux[m].sum()))
            rows["sy"].append(int(uy[m].sum()))
            rows["sxx"].append(int((ux[m] * ux[m]).sum()))
            rows["sxy"].append(int((ux[m] * uy[m]).sum()))
        return pa.table({k: pa.array(v, pa.int64()) for k, v in rows.items()})

    parts = (
        bucket_exchange(
            ds,
            fold_bucket,
            key="ubucket",
            schema=row_schema,
            out_schema=mom_schema,
            emit=user_partial,
        )
        .take_all()  # bounded: 2 rows per bucket
    )
    tot = {a: [0, 0, 0, 0, 0] for a in (0, 1)}  # n, sx, sy, sxx, sxy
    for r in parts:
        a = int(r["arm"])
        tot[a][0] += int(r["n"])
        tot[a][1] += int(r["sx"])
        tot[a][2] += int(r["sy"])
        tot[a][3] += int(r["sxx"])
        tot[a][4] += int(r["sxy"])
    n = tot[0][0] + tot[1][0]
    sx = tot[0][1] + tot[1][1]
    sy = tot[0][2] + tot[1][2]
    sxx = tot[0][3] + tot[1][3]
    sxy = tot[0][4] + tot[1][4]
    cov_num = n * sxy - sx * sy  # python ints: never overflow
    var_num = n * sxx - sx * sx
    theta_e6 = (
        0
        if var_num == 0
        else (abs(cov_num) * 1_000_000 // abs(var_num))
        * (1 if (cov_num >= 0) == (var_num >= 0) else -1)
    )

    def _tdiv(a: int, b: int) -> int:
        q = abs(a) // abs(b)
        return q if (a >= 0) == (b >= 0) else -q

    n_c, n_t = tot[0][0], tot[1][0]
    if n_c and n_t:
        raw = _tdiv(tot[1][2] * 1_000_000, n_t) - _tdiv(tot[0][2] * 1_000_000, n_c)
        adj_t = _tdiv(tot[1][2] * 1_000_000 - theta_e6 * tot[1][1], n_t)
        adj_c = _tdiv(tot[0][2] * 1_000_000 - theta_e6 * tot[0][1], n_c)
        cuped = adj_t - adj_c
    else:
        # an empty arm has no row in the oracle's per-arm subqueries: its
        # count and both uplifts are NULL
        raw = cuped = None
    return pa.table(
        {
            "n_c": pa.array([n_c or None], pa.int64()),
            "n_t": pa.array([n_t or None], pa.int64()),
            "theta_e6": pa.array([theta_e6], pa.int64()),
            "raw_uplift_e6": pa.array([raw], pa.int64()),
            "cuped_uplift_e6": pa.array([cuped], pa.int64()),
        }
    )


AB_CUPED_UPLIFT_SQL = f"""
WITH e AS (
  SELECT user_id,
         epoch_us(CAST(ts AS TIMESTAMP)) // {_US_PER_DAY_CUPED} AS day,
         CAST(round(value * 100) AS BIGINT) AS cents
  FROM events),
b AS (SELECT (min(day) + max(day) + 1) // 2 AS mid FROM e),
u AS (
  SELECT user_id,
         sum(CASE WHEN day < (SELECT mid FROM b) THEN cents ELSE 0 END) AS x,
         sum(CASE WHEN day >= (SELECT mid FROM b) THEN cents ELSE 0 END) AS y,
         ((user_id % {_AB_LEHMER_M}) * {_AB_LEHMER_A})
           % {_AB_LEHMER_M} % 2 AS arm
  FROM e GROUP BY user_id),
mom AS (
  SELECT count(*) AS n, CAST(sum(x) AS HUGEINT) AS sx,
         CAST(sum(y) AS HUGEINT) AS sy,
         CAST(sum(CAST(x AS HUGEINT) * x) AS HUGEINT) AS sxx,
         CAST(sum(CAST(x AS HUGEINT) * y) AS HUGEINT) AS sxy
  FROM u),
th AS (
  SELECT CASE WHEN n * sxx - sx * sx = 0 THEN 0
         ELSE (n * sxy - sx * sy) * 1000000 // (n * sxx - sx * sx) END
           AS theta_e6
  FROM mom),
arms AS (
  SELECT arm, count(*) AS n, CAST(sum(x) AS HUGEINT) AS sx,
         CAST(sum(y) AS HUGEINT) AS sy
  FROM u GROUP BY arm)
SELECT
  CAST((SELECT n FROM arms WHERE arm = 0) AS BIGINT) AS n_c,
  CAST((SELECT n FROM arms WHERE arm = 1) AS BIGINT) AS n_t,
  CAST((SELECT theta_e6 FROM th) AS BIGINT) AS theta_e6,
  CAST((SELECT sy * 1000000 // n FROM arms WHERE arm = 1)
     - (SELECT sy * 1000000 // n FROM arms WHERE arm = 0) AS BIGINT)
    AS raw_uplift_e6,
  CAST((SELECT (sy * 1000000 - (SELECT theta_e6 FROM th) * sx) // n
        FROM arms WHERE arm = 1)
     - (SELECT (sy * 1000000 - (SELECT theta_e6 FROM th) * sx) // n
        FROM arms WHERE arm = 0) AS BIGINT) AS cuped_uplift_e6
"""
