"""Exact-integer statistical tests over distributed aggregates: chi-square
independence (lang x source) and grouped OLS trend lines.

Both follow the same scale shape: the distributed work is ONE pass of
per-batch vectorized partials folded by a small groupby (cells bounded by
the categorical cross product / the event-type count, never by row count),
and the final statistic is computed on the driver with PYTHON INTEGERS —
arbitrary precision, mirrored in SQL by HUGEINT (int128) casts.  Every
output is quantized ONCE by integer division; DuckDB's ``//`` TRUNCATES
toward zero (measured: -7 // 2 = -3) while Python's floors, so
``_trunc_div`` mirrors the truncating form for possibly-negative
numerators (chi-square contributions are non-negative and unaffected).

Overflow bounds (documented, asserted nowhere hot): chi-square needs
(O*N - R*C)^2 * 1e6 < 2^127, i.e. N < ~2e5 * 2^31 ~ 5e14 docs worth of
margin product — far past any real corpus; OLS needs
(Sy * Sxx) * 1e6 < 2^127 with y in cents and x in 0..23.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import ray.data

from ..exchange import bucket_exchange
from ..sources.pages import read_table


def _trunc_div(num: int, den: int) -> int:
    """Integer division truncating toward zero — DuckDB ``//`` semantics
    (Python's ``//`` floors, which differs on negative numerators)."""
    q = abs(num) // abs(den)
    return q if (num >= 0) == (den >= 0) else -q


def lang_source_chisq(sf_dir: str) -> pa.Table:
    """Chi-square-of-independence cell table for (lang, source): observed
    count, expected count (1e-6 grid) and the cell's chi-square
    contribution (1e-6 grid) over the FULL observed-margin grid — absent
    combinations appear with n_docs = 0, as the statistic requires.

    contribution = (O*N - R*C)^2 / (N*R*C) on the exact integer margins;
    one quantization per cell, so sum(contrib_e6)/1e6 is the statistic.
    """
    ds = read_table(sf_dir, "documents", columns=["lang", "source"])

    part_schema = pa.schema(
        [("lang", pa.string()), ("source", pa.string()), ("n", pa.int64())]
    )

    def partial(batch: pa.Table) -> pa.Table:
        if batch.num_rows == 0 or batch.num_columns == 0:
            return part_schema.empty_table()
        return (
            batch.select(["lang", "source"])
            .group_by(["lang", "source"])
            .aggregate([([], "count_all")])
            .rename_columns(["lang", "source", "n"])
        )

    from ray.data.aggregate import Sum

    cells = (
        ds.map_batches(partial, batch_format="pyarrow", zero_copy_batch=True)
        .groupby(["lang", "source"])
        .aggregate(Sum("n", alias_name="n"))
        .take_all()  # bounded by |langs| x |sources| — a categorical grid
    )
    obs = {(r["lang"], r["source"]): int(r["n"]) for r in cells}
    langs = sorted({k[0] for k in obs})
    sources = sorted({k[1] for k in obs})
    row_tot = {l: sum(obs.get((l, s), 0) for s in sources) for l in langs}
    col_tot = {s: sum(obs.get((l, s), 0) for l in langs) for s in sources}
    n_total = sum(row_tot.values())

    out = {"lang": [], "source": [], "n_docs": [], "expected_e6": [], "contrib_e6": []}
    for l in langs:
        for s in sources:
            o = obs.get((l, s), 0)
            r, c = row_tot[l], col_tot[s]
            d = o * n_total - r * c
            out["lang"].append(l)
            out["source"].append(s)
            out["n_docs"].append(o)
            out["expected_e6"].append(r * c * 1_000_000 // n_total)
            out["contrib_e6"].append(d * d * 1_000_000 // (n_total * r * c))
    return pa.table(
        {
            "lang": pa.array(out["lang"], pa.string()),
            "source": pa.array(out["source"], pa.string()),
            "n_docs": pa.array(out["n_docs"], pa.int64()),
            "expected_e6": pa.array(out["expected_e6"], pa.int64()),
            "contrib_e6": pa.array(out["contrib_e6"], pa.int64()),
        }
    )


LANG_SOURCE_CHISQ_SQL = """
WITH cells AS (
  SELECT lang, source, count(*) AS o FROM documents GROUP BY 1, 2
),
r AS (SELECT lang, sum(o) AS rn FROM cells GROUP BY lang),
c AS (SELECT source, sum(o) AS cn FROM cells GROUP BY source),
tot AS (SELECT sum(o) AS n FROM cells),
grid AS (
  SELECT r.lang, c.source, coalesce(cells.o, 0) AS o, r.rn, c.cn, tot.n
  FROM r CROSS JOIN c CROSS JOIN tot
  LEFT JOIN cells ON cells.lang = r.lang AND cells.source = c.source
)
SELECT lang, source, CAST(o AS BIGINT) AS n_docs,
       CAST(CAST(rn AS HUGEINT) * cn * 1000000 // n AS BIGINT) AS expected_e6,
       CAST((CAST(o AS HUGEINT) * n - CAST(rn AS HUGEINT) * cn)
            * (CAST(o AS HUGEINT) * n - CAST(rn AS HUGEINT) * cn)
            * 1000000 // (CAST(n AS HUGEINT) * rn * cn) AS BIGINT) AS contrib_e6
FROM grid
ORDER BY lang, source
"""


def events_hourly_ols(sf_dir: str) -> pa.Table:
    """Per-event-type least-squares trend of value (exact int64 cents)
    against hour-of-day: slope and intercept on the 1e-6 grid from the
    closed-form normal equations over five exact integer sums
    (n, Sx, Sy, Sxx, Sxy).  Degenerate groups (all events in one hour:
    n*Sxx == Sx^2) are excluded, mirrored by the oracle's HAVING."""
    ds = read_table(sf_dir, "events", columns=["event_type", "ts", "value"])

    part_schema = pa.schema(
        [
            ("event_type", pa.string()),
            ("n", pa.int64()),
            ("sx", pa.int64()),
            ("sy", pa.int64()),
            ("sxx", pa.int64()),
            ("sxy", pa.int64()),
        ]
    )

    def partial(batch: pa.Table) -> pa.Table:
        if batch.num_rows == 0 or batch.num_columns == 0:
            return part_schema.empty_table()
        x = pc.cast(pc.hour(batch["ts"]), pa.int64())
        y = pc.cast(pc.round(pc.multiply(batch["value"], pa.scalar(100.0))), pa.int64())
        t = pa.table(
            {
                "event_type": batch["event_type"],
                "x": x,
                "y": y,
                "xx": pc.multiply(x, x),
                "xy": pc.multiply(x, y),
            }
        )
        return (
            t.group_by("event_type")
            .aggregate(
                [([], "count_all"), ("x", "sum"), ("y", "sum"), ("xx", "sum"), ("xy", "sum")]
            )
            .rename_columns(["event_type", "n", "sx", "sy", "sxx", "sxy"])
        )

    from ray.data.aggregate import Sum

    groups = (
        ds.map_batches(partial, batch_format="pyarrow", zero_copy_batch=True)
        .groupby("event_type")
        .aggregate(
            Sum("n", alias_name="n"),
            Sum("sx", alias_name="sx"),
            Sum("sy", alias_name="sy"),
            Sum("sxx", alias_name="sxx"),
            Sum("sxy", alias_name="sxy"),
        )
        .take_all()  # bounded by the event-type cardinality
    )
    out = {"event_type": [], "n_events": [], "slope_e6": [], "intercept_e6": []}
    for r in sorted(groups, key=lambda r: r["event_type"]):
        n, sx, sy, sxx, sxy = (int(r[k]) for k in ("n", "sx", "sy", "sxx", "sxy"))
        den = n * sxx - sx * sx
        if den <= 0:
            continue
        out["event_type"].append(r["event_type"])
        out["n_events"].append(n)
        out["slope_e6"].append(_trunc_div((n * sxy - sx * sy) * 1_000_000, den))
        out["intercept_e6"].append(_trunc_div((sy * sxx - sx * sxy) * 1_000_000, den))
    return pa.table(
        {
            "event_type": pa.array(out["event_type"], pa.string()),
            "n_events": pa.array(out["n_events"], pa.int64()),
            "slope_e6": pa.array(out["slope_e6"], pa.int64()),
            "intercept_e6": pa.array(out["intercept_e6"], pa.int64()),
        }
    )


EVENTS_HOURLY_OLS_SQL = """
WITH pts AS (
  SELECT event_type, CAST(hour(ts) AS BIGINT) AS x,
         CAST(round(value * 100) AS BIGINT) AS y
  FROM events
),
s AS (
  SELECT event_type, count(*) AS n, sum(x) AS sx, sum(y) AS sy,
         sum(x * x) AS sxx, sum(x * y) AS sxy
  FROM pts GROUP BY event_type
  HAVING count(*) * sum(x * x) - sum(x) * sum(x) > 0
)
SELECT event_type, CAST(n AS BIGINT) AS n_events,
       CAST((CAST(n AS HUGEINT) * sxy - CAST(sx AS HUGEINT) * sy) * 1000000
            // (CAST(n AS HUGEINT) * sxx - CAST(sx AS HUGEINT) * sx)
            AS BIGINT) AS slope_e6,
       CAST((CAST(sy AS HUGEINT) * sxx - CAST(sx AS HUGEINT) * sxy) * 1000000
            // (CAST(n AS HUGEINT) * sxx - CAST(sx AS HUGEINT) * sx)
            AS BIGINT) AS intercept_e6
FROM s
ORDER BY event_type
"""


# ---------------------------------------------------------------------------
# deterministic streaming bootstrap (double-or-nothing / Owen weights)
# ---------------------------------------------------------------------------

_BOOT_B = 64
_LEHMER_A = 630360016  # full-period MCG multiplier (see webtext.py's note)
_LEHMER_M = 2147483647


def bootstrap_ci_value(sf_dir: str, *, n_reps: int = _BOOT_B) -> pa.Table:
    """Confidence interval for the mean event value via a STREAMING
    bootstrap: each (row, replicate) pair gets a deterministic
    double-or-nothing weight w in {0, 2} (mean 1, variance 1 — Owen's
    half-sampling variant of the Poisson bootstrap, which never needs the
    dataset length up front and so composes with streaming execution).
    Weights come from the repo's full-period Lehmer hash of
    ``event_id * n_reps + b`` — deterministic, reshard-invariant, and
    exactly replayable in SQL.

    ONE pass: every batch emits ``n_reps`` partial (sum(w * cents),
    sum(w)) rows; the global fold is n_reps rows; replicate means quantize
    once by truncating division (all quantities non-negative) with Python
    big ints (HUGEINT in the oracle) and the CI reads fixed order
    statistics (ranks 2 and n_reps-1 of the sorted means ~ the 2.5/97.5
    percentiles at the default 64)."""
    from ray.data.aggregate import Sum

    ds = read_table(sf_dir, "events", columns=["event_id", "value"])

    part_schema = pa.schema(
        [("b", pa.int64()), ("s", pa.int64()), ("n", pa.int64())]
    )

    def partial(batch: pa.Table) -> pa.Table:
        if batch.num_rows == 0 or batch.num_columns == 0:
            return part_schema.empty_table()
        eid = pc.cast(batch["event_id"], pa.int64()).to_numpy()
        cents = pc.cast(
            pc.round(pc.multiply(batch["value"], pa.scalar(100.0))), pa.int64()
        ).to_numpy()
        bs = np.empty(n_reps + 1, np.int64)
        ss = np.empty(n_reps + 1, np.int64)
        ns = np.empty(n_reps + 1, np.int64)
        base = eid * n_reps
        for b in range(n_reps):
            h = ((base + b) % _LEHMER_M) * _LEHMER_A % _LEHMER_M
            w = (h % 2) * 2  # 0 or 2, mean 1
            bs[b], ss[b], ns[b] = b, int((w * cents).sum()), int(w.sum())
        # replicate -1 carries the exact full-sample sum/count
        bs[n_reps], ss[n_reps], ns[n_reps] = -1, int(cents.sum()), len(cents)
        return pa.table(
            {"b": pa.array(bs), "s": pa.array(ss), "n": pa.array(ns)}
        )

    rows = (
        ds.map_batches(partial, batch_format="pyarrow", zero_copy_batch=True)
        .groupby("b")
        .aggregate(Sum("s", alias_name="s"), Sum("n", alias_name="n"))
        .take_all()  # bounded: n_reps + 1 rows
    )
    means = []
    mean_e6 = n_events = 0
    for r in rows:
        s, n = int(r["s"]), int(r["n"])
        if int(r["b"]) == -1:
            n_events, mean_e6 = n, s * 1_000_000 // n
        elif n > 0:
            means.append(s * 1_000_000 // n)
    means.sort()
    lo = means[1] if len(means) > 2 else means[0]
    hi = means[-2] if len(means) > 2 else means[-1]
    return pa.table(
        {
            "n_events": pa.array([n_events], pa.int64()),
            "mean_e6": pa.array([mean_e6], pa.int64()),
            "ci_lo_e6": pa.array([lo], pa.int64()),
            "ci_hi_e6": pa.array([hi], pa.int64()),
        }
    )


BOOTSTRAP_CI_VALUE_SQL = f"""
WITH reps AS (SELECT unnest(range(0, {_BOOT_B})) AS b),
w AS (
  SELECT r.b,
         CAST(round(e.value * 100) AS BIGINT) AS cents,
         ((e.event_id * {_BOOT_B} + r.b) % {_LEHMER_M})
           * {_LEHMER_A} % {_LEHMER_M} % 2 * 2 AS w
  FROM events e CROSS JOIN reps r
),
s AS (SELECT b, sum(w * cents) AS s, sum(w) AS n FROM w GROUP BY b),
m AS (
  SELECT CAST(CAST(s AS HUGEINT) * 1000000 // n AS BIGINT) AS m_e6
  FROM s WHERE n > 0
),
ord AS (SELECT m_e6, row_number() OVER (ORDER BY m_e6) AS rk FROM m),
nm AS (SELECT count(*) AS k FROM ord),
full_s AS (
  SELECT count(*) AS n_events,
         CAST(CAST(sum(CAST(round(value * 100) AS BIGINT)) AS HUGEINT)
              * 1000000 // count(*) AS BIGINT) AS mean_e6
  FROM events
)
SELECT CAST(full_s.n_events AS BIGINT) AS n_events, full_s.mean_e6,
       (SELECT m_e6 FROM ord, nm WHERE rk = CASE WHEN nm.k > 2 THEN 2 ELSE 1 END) AS ci_lo_e6,
       (SELECT m_e6 FROM ord, nm WHERE rk = CASE WHEN nm.k > 2 THEN nm.k - 1 ELSE nm.k END) AS ci_hi_e6
FROM full_s
"""


# ---------------------------------------------------------------------------
# Kruskal-Wallis rank profile: pooled mean ranks of value per event type
# ---------------------------------------------------------------------------

def kruskal_rank_means(sf_dir: str) -> pa.Table:
    """Kruskal-Wallis rank profile: for each event type, the exact pooled
    rank-sum and mean rank of ``value`` within the GLOBAL combined sample
    (midrank/average-rank tie handling) — the nonparametric k-group
    location comparison (does "purchase" carry systematically larger
    values than "click"?) that never assumes normality.

    Exactness: ranks stay integer by carrying DOUBLED ranks — the average
    rank of the tie group at value v is cum_less(v) + (cnt(v)+1)/2, so
    2*avgrank = 2*cum_less + cnt + 1 is always an exact int64;
    ``ranksum2`` sums n_tv * rank2(v) per type and
    ``mean_rank_e6 = ranksum2 * 1e6 // (2 * n)`` quantizes ONCE per type
    (all terms positive: floor == truncate).  Invariant: sum(ranksum2)
    over types == N*(N+1) exactly.

    Plan shape: the value-domain histogram pattern
    (``quantile_normalize_lengths``) — each batch collapses to at most one
    row per (event_type, cents) pair before the exchange, so ONE
    groupby-sum carries |types| x |value domain| rows (bounded by the
    price grid, not the event count); the cumulative-rank finish is a
    numpy pass over that bounded histogram on the driver.
    """
    from ray.data.aggregate import Sum

    ds = read_table(sf_dir, "events", columns=["event_type", "value"])

    part_schema = pa.schema(
        [("event_type", pa.string()), ("cents", pa.int64()), ("n", pa.int64())]
    )

    def partial(batch: pa.Table) -> pa.Table:
        if batch.num_rows == 0 or batch.num_columns == 0:
            return part_schema.empty_table()
        t = pa.table(
            {
                "event_type": batch["event_type"],
                "cents": pc.cast(
                    pc.round(pc.multiply(batch["value"], pa.scalar(100.0))),
                    pa.int64(),
                ),
            }
        )
        return (
            t.group_by(["event_type", "cents"])
            .aggregate([([], "count_all")])
            .rename_columns(["event_type", "cents", "n"])
        )

    hist = (
        ds.map_batches(partial, batch_format="pyarrow", zero_copy_batch=True)
        .groupby(["event_type", "cents"])
        .aggregate(Sum("n", alias_name="n"))
        .take_all()  # bounded: |types| x |distinct cents| (the value grid)
    )
    # global per-value counts -> doubled midranks
    vc: dict[int, int] = {}
    for r in hist:
        vc[int(r["cents"])] = vc.get(int(r["cents"]), 0) + int(r["n"])
    vals = np.array(sorted(vc), np.int64)
    cnt = np.array([vc[v] for v in vals], np.int64)
    cum_less = np.concatenate(([0], np.cumsum(cnt)[:-1]))
    rank2 = 2 * cum_less + cnt + 1
    r2_of = {int(v): int(r) for v, r in zip(vals, rank2)}

    agg: dict[str, list[int]] = {}
    for r in hist:
        a = agg.setdefault(r["event_type"], [0, 0])
        n = int(r["n"])
        a[0] += n
        a[1] += n * r2_of[int(r["cents"])]  # Python ints: overflow-free
    out = {"event_type": [], "n_events": [], "ranksum2": [], "mean_rank_e6": []}
    for et in sorted(agg):
        n, rs2 = agg[et]
        out["event_type"].append(et)
        out["n_events"].append(n)
        out["ranksum2"].append(rs2)
        out["mean_rank_e6"].append(rs2 * 1_000_000 // (2 * n))
    return pa.table(
        {
            "event_type": pa.array(out["event_type"], pa.string()),
            "n_events": pa.array(out["n_events"], pa.int64()),
            "ranksum2": pa.array(out["ranksum2"], pa.int64()),
            "mean_rank_e6": pa.array(out["mean_rank_e6"], pa.int64()),
        }
    )


KRUSKAL_RANK_MEANS_SQL = """
WITH pts AS (
  SELECT event_type, CAST(round(value * 100) AS BIGINT) AS c FROM events),
vc AS (SELECT c, count(*) AS cnt FROM pts GROUP BY c),
rk AS (
  SELECT c, 2 * (sum(cnt) OVER (ORDER BY c) - cnt) + cnt + 1 AS r2 FROM vc),
tc AS (SELECT event_type, c, count(*) AS n FROM pts GROUP BY 1, 2)
SELECT event_type, CAST(sum(n) AS BIGINT) AS n_events,
       CAST(sum(n * r2) AS BIGINT) AS ranksum2,
       CAST(CAST(sum(n * r2) AS HUGEINT) * 1000000 // (2 * sum(n)) AS BIGINT)
         AS mean_rank_e6
FROM tc JOIN rk USING (c)
GROUP BY event_type ORDER BY event_type
"""


# ---------------------------------------------------------------------------
# Mann-Kendall trend test on daily order revenue
# ---------------------------------------------------------------------------

_US_PER_DAY_MK = 86_400_000_000


def orders_trend_mann_kendall(sf_dir: str) -> pa.Table:
    """Mann-Kendall trend test over the daily order-revenue series: the S
    statistic (concordant-minus-discordant pair count over all day pairs),
    Kendall's tau-a on the ppm grid, and the tie-corrected variance
    numerator — the standard nonparametric "is revenue trending?" monitor
    that is robust to outliers and needs no distributional assumption.

    Exactness: daily revenue sums in int64 cents (per-row quantize);
    S = sum_{i<j} sign(rev_j - rev_i) over days is a pure integer;
    tau_ppm = S*1e6 / (k*(k-1)/2) truncates toward zero in BOTH engines
    (DuckDB ``//`` truncates; ``_trunc_div`` mirrors it — S can be
    negative); var18 = k(k-1)(2k+5) - sum t(t-1)(2t+5) over revenue-tie
    groups is 18x the MK variance, kept exact instead of divided.

    Plan shape: ONE bounded groupby-sum fold to the day grain (the day
    domain is the calendar, not the row count — ~2.4k days at any scale),
    then an O(k^2) vectorized numpy finish on the driver over those k
    daily points (5.8M sign comparisons — microseconds).  The oracle
    self-joins the same k-row day table, so it stays quadratic-in-DAYS,
    not rows, and is cheap at every tier.
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
                "day": pc.divide(date_us, pa.scalar(_US_PER_DAY_MK, pa.int64())),
                "rev": pc.cast(
                    pc.round(pc.multiply(batch["o_totalprice"], pa.scalar(100.0))),
                    pa.int64(),
                ),
            }
        )
        return (
            t.group_by("day").aggregate([("rev", "sum")]).rename_columns(["day", "rev"])
        )

    rows = (
        ds.map_batches(partial, batch_format="pyarrow", zero_copy_batch=True)
        .groupby("day")
        .aggregate(Sum("rev", alias_name="rev"))
        .take_all()  # bounded: one row per calendar day
    )
    rows.sort(key=lambda r: int(r["day"]))
    rev = np.array([int(r["rev"]) for r in rows], np.int64)
    k = len(rev)
    diff = np.sign(rev[None, :] - rev[:, None])
    s_stat = int(np.triu(diff, 1).sum())
    pairs = k * (k - 1) // 2
    tau_ppm = _trunc_div(s_stat * 1_000_000, pairs) if pairs else 0
    _, tie_counts = np.unique(rev, return_counts=True)
    tie_term = sum(int(t) * (int(t) - 1) * (2 * int(t) + 5) for t in tie_counts if t > 1)
    var18 = k * (k - 1) * (2 * k + 5) - tie_term
    return pa.table(
        {
            "n_days": pa.array([k], pa.int64()),
            "s_stat": pa.array([s_stat], pa.int64()),
            "tau_ppm": pa.array([tau_ppm], pa.int64()),
            "var18": pa.array([var18], pa.int64()),
        }
    )


ORDERS_TREND_MANN_KENDALL_SQL = f"""
WITH d AS (
  SELECT epoch_us(CAST(o_orderdate AS TIMESTAMP)) // {_US_PER_DAY_MK} AS day,
         sum(CAST(round(o_totalprice * 100) AS BIGINT)) AS rev
  FROM orders GROUP BY 1),
s AS (
  SELECT coalesce(sum(CASE WHEN b.rev > a.rev THEN 1
                           WHEN b.rev < a.rev THEN -1 ELSE 0 END), 0) AS s_stat
  FROM d a JOIN d b ON b.day > a.day),
n AS (SELECT count(*) AS k FROM d),
t AS (
  SELECT coalesce(sum(c * (c - 1) * (2 * c + 5)), 0) AS tie
  FROM (SELECT count(*) AS c FROM d GROUP BY rev HAVING count(*) > 1))
SELECT n.k AS n_days, CAST(s.s_stat AS BIGINT) AS s_stat,
       CAST(CASE WHEN n.k > 1
                 THEN CAST(s.s_stat AS HUGEINT) * 1000000 // (n.k * (n.k - 1) // 2)
                 ELSE 0 END AS BIGINT) AS tau_ppm,
       CAST(n.k * (n.k - 1) * (2 * n.k + 5) - t.tie AS BIGINT) AS var18
FROM n, s, t
"""


# ---------------------------------------------------------------------------
# Wald-Wolfowitz runs test on daily order revenue
# ---------------------------------------------------------------------------

def orders_runs_test(sf_dir: str) -> pa.Table:
    """Wald-Wolfowitz runs test on the daily order-revenue series: split
    days into above-median vs at-or-below-median, count the RUNS of
    consecutive same-side days — too few runs means clustering/trend, too
    many means oscillation; the classic nonparametric randomness check a
    revenue monitor pairs with the Mann-Kendall trend statistic.

    Exactness: daily revenue sums in int64 cents; the median comparison
    uses ``med2`` = the sum of the TWO middle order statistics (the same
    element twice when the day count is odd — the customer_reorder_
    intervals trick), so ``2*rev > med2`` is a pure integer predicate and
    no division ever happens; the run count is 1 + the number of sign
    changes in day order.  Every output is an exact int64.

    Plan shape: the same bounded day-grain fold as the Mann-Kendall test
    (ONE groupby-sum to calendar days), then an O(k log k) numpy finish
    on the driver over the k daily points.
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
                "day": pc.divide(date_us, pa.scalar(_US_PER_DAY_MK, pa.int64())),
                "rev": pc.cast(
                    pc.round(pc.multiply(batch["o_totalprice"], pa.scalar(100.0))),
                    pa.int64(),
                ),
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
    k = len(rev)
    srt = np.sort(rev)
    med2 = int(srt[(k - 1) // 2]) + int(srt[k // 2])  # same element twice when odd
    above = (2 * rev > med2).astype(np.int64)
    n_above = int(above.sum())
    n_runs = 1 + int((above[1:] != above[:-1]).sum()) if k else 0
    return pa.table(
        {
            "n_days": pa.array([k], pa.int64()),
            "n_above": pa.array([n_above], pa.int64()),
            "n_runs": pa.array([n_runs], pa.int64()),
        }
    )


ORDERS_RUNS_TEST_SQL = f"""
WITH d AS (
  SELECT epoch_us(CAST(o_orderdate AS TIMESTAMP)) // {_US_PER_DAY_MK} AS day,
         sum(CAST(round(o_totalprice * 100) AS BIGINT)) AS rev
  FROM orders GROUP BY 1),
o AS (SELECT rev, row_number() OVER (ORDER BY rev) AS rk FROM d),
n AS (SELECT count(*) AS k FROM d),
m AS (
  SELECT (SELECT rev FROM o, n WHERE rk = (n.k + 1) // 2)
       + (SELECT rev FROM o, n WHERE rk = (n.k + 2) // 2) AS med2),
s AS (
  SELECT day, CAST(2 * rev > m.med2 AS BIGINT) AS ab FROM d, m),
r AS (SELECT ab, lag(ab) OVER (ORDER BY day) AS prev FROM s)
SELECT n.k AS n_days,
       (SELECT CAST(sum(ab) AS BIGINT) FROM s) AS n_above,
       (SELECT 1 + CAST(coalesce(sum(CASE WHEN prev IS NOT NULL AND ab <> prev
                                          THEN 1 ELSE 0 END), 0) AS BIGINT)
        FROM r) AS n_runs
FROM n
"""


# ---------------------------------------------------------------------------
# index of dispersion (Fano factor) of daily event counts per type
# ---------------------------------------------------------------------------

def events_dispersion_index(sf_dir: str) -> pa.Table:
    """Index of dispersion (variance-to-mean ratio, Fano factor) of DAILY
    event counts per event type over the global calendar span — the
    burstiness test: a Poisson-like stream sits at ~1e6 ppm, campaign
    spikes push far above, throttled/heartbeat traffic far below.

    Exactness: with daily counts x over the n-day span (zero days
    included — they change the mean and variance, so the span comes from
    the GLOBAL min/max day, identical in both engines),
    D = var/mean = (n*sum(x^2) - S^2) / ((n-1)*S), an exact rational
    quantized once to ppm (all terms non-negative).  ``n*sum(x^2)*1e6``
    overflows int64 at scale: PYTHON INTS / HUGEINT.

    Plan shape: ONE (event_type, day) count fold — bounded by
    |types| x calendar, never the event count; zero days never
    materialize (they contribute 0 to both sums; only n counts them).
    """
    from ray.data.aggregate import Sum

    ds = read_table(sf_dir, "events", columns=["event_type", "ts"])

    part_schema = pa.schema(
        [("event_type", pa.string()), ("day", pa.int64()), ("c", pa.int64())]
    )

    def partial(batch: pa.Table) -> pa.Table:
        if batch.num_rows == 0 or batch.num_columns == 0:
            return part_schema.empty_table()
        day = pc.divide(
            pc.cast(pc.cast(batch["ts"], pa.timestamp("us")), pa.int64()),
            pa.scalar(_US_PER_DAY_MK, pa.int64()),
        )
        t = pa.table({"event_type": batch["event_type"], "day": day})
        return (
            t.group_by(["event_type", "day"])
            .aggregate([([], "count_all")])
            .rename_columns(["event_type", "day", "c"])
        )

    rows = (
        ds.map_batches(partial, batch_format="pyarrow", zero_copy_batch=True)
        .groupby(["event_type", "day"])
        .aggregate(Sum("c", alias_name="c"))
        .take_all()  # bounded: |types| x calendar days
    )
    days = [int(r["day"]) for r in rows]
    n_days = max(days) - min(days) + 1 if days else 0
    agg: dict[str, list[int]] = {}
    for r in rows:
        a = agg.setdefault(r["event_type"], [0, 0])
        c = int(r["c"])
        a[0] += c
        a[1] += c * c
    out = {"event_type": [], "n_days": [], "n_events": [], "dispersion_ppm": []}
    for et in sorted(agg):
        s, sxx = agg[et]
        out["event_type"].append(et)
        out["n_days"].append(n_days)
        out["n_events"].append(s)
        out["dispersion_ppm"].append(
            (n_days * sxx - s * s) * 1_000_000 // ((n_days - 1) * s)
            if n_days > 1 and s > 0
            else 0
        )
    return pa.table(
        {
            "event_type": pa.array(out["event_type"], pa.string()),
            "n_days": pa.array(out["n_days"], pa.int64()),
            "n_events": pa.array(out["n_events"], pa.int64()),
            "dispersion_ppm": pa.array(out["dispersion_ppm"], pa.int64()),
        }
    )


EVENTS_DISPERSION_INDEX_SQL = f"""
WITH b AS (
  SELECT event_type, epoch_us(ts) // {_US_PER_DAY_MK} AS day, count(*) AS c
  FROM events GROUP BY 1, 2),
span AS (SELECT max(day) - min(day) + 1 AS nd FROM b),
g AS (
  SELECT event_type, sum(c) AS s, sum(c * c) AS sxx FROM b GROUP BY 1)
SELECT event_type, CAST(span.nd AS BIGINT) AS n_days,
       CAST(g.s AS BIGINT) AS n_events,
       CAST(CASE WHEN span.nd > 1 AND g.s > 0
                 THEN (CAST(span.nd AS HUGEINT) * g.sxx
                       - CAST(g.s AS HUGEINT) * g.s) * 1000000
                      // ((span.nd - 1) * CAST(g.s AS HUGEINT))
                 ELSE 0 END AS BIGINT) AS dispersion_ppm
FROM g, span ORDER BY event_type
"""


# ---------------------------------------------------------------------------
# hour-of-day entropy per event type (behavioral regularity)
# ---------------------------------------------------------------------------

def events_hourly_entropy(sf_dir: str) -> pa.Table:
    """Shannon entropy of the hour-of-day distribution per event type (in
    the 1e-6-nat grid) plus the peak hour: a uniform 24/7 stream sits at
    ln(24) ~ 3.178, a cron job at 0 — the behavioral-regularity signal
    that separates organic traffic from machine traffic.

    Exactness: H = ln(n) - sum(c_h * ln(c_h)) / n over the 24 hour-bin
    counts; each ``c*ln(c)`` and ``ln(n)`` quantizes ONCE to 1e-6
    (quantized-log discipline), the combination is pure int64 floor
    arithmetic.  Peak hour = the smallest hour holding the max count.

    Plan shape: ONE (event_type, hour) count fold — 24 x |types| rows.
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
    agg: dict[str, dict[int, int]] = {}
    for r in rows:
        agg.setdefault(r["event_type"], {})[int(r["hour"])] = int(r["c"])
    out = {"event_type": [], "n_events": [], "entropy_e6": [], "peak_hour": []}
    for et in sorted(agg):
        cs = agg[et]
        n = sum(cs.values())
        sum_clnc = sum(
            c * round(np.log(c) * 1e6) for c in cs.values() if c > 0
        )
        lnn_e6 = round(np.log(n) * 1e6)
        cmax = max(cs.values())
        peak = min(h for h, c in cs.items() if c == cmax)
        out["event_type"].append(et)
        out["n_events"].append(n)
        out["entropy_e6"].append((n * lnn_e6 - sum_clnc) // n)
        out["peak_hour"].append(peak)
    return pa.table(
        {
            "event_type": pa.array(out["event_type"], pa.string()),
            "n_events": pa.array(out["n_events"], pa.int64()),
            "entropy_e6": pa.array(out["entropy_e6"], pa.int64()),
            "peak_hour": pa.array(out["peak_hour"], pa.int64()),
        }
    )


EVENTS_HOURLY_ENTROPY_SQL = """
WITH b AS (
  SELECT event_type, CAST(hour(ts) AS BIGINT) AS h, count(*) AS c
  FROM events GROUP BY 1, 2),
g AS (
  SELECT event_type, sum(c) AS n,
         sum(c * CAST(round(ln(c) * 1000000) AS BIGINT)) AS sum_clnc
  FROM b GROUP BY 1),
pk AS (
  SELECT event_type, min(h) AS peak_hour
  FROM b JOIN (SELECT event_type AS et, max(c) AS cmax FROM b GROUP BY 1) mx
    ON b.event_type = mx.et AND b.c = mx.cmax
  GROUP BY event_type)
SELECT g.event_type, CAST(g.n AS BIGINT) AS n_events,
       CAST((g.n * CAST(round(ln(g.n) * 1000000) AS BIGINT) - g.sum_clnc)
            // g.n AS BIGINT) AS entropy_e6,
       pk.peak_hour
FROM g JOIN pk USING (event_type) ORDER BY g.event_type
"""


# ---------------------------------------------------------------------------
# harmonic regression of hourly event volume (seasonality fit)
# ---------------------------------------------------------------------------

# sin/cos basis quantized ONCE in Python and embedded as integer literals in
# BOTH engines (the NDCG-weights trick) — no query-time trigonometry
_HARM_SIN = [round(np.sin(2 * np.pi * h / 24) * 1000) for h in range(24)]
_HARM_COS = [round(np.cos(2 * np.pi * h / 24) * 1000) for h in range(24)]


def events_hourly_harmonic(sf_dir: str) -> pa.Table:
    """Harmonic (single-frequency Fourier) regression of hourly event
    volume: fit ``count_h ~ a + b*sin(2*pi*h/24) + c*cos(2*pi*h/24)`` —
    the parametric seasonality model behind "traffic peaks around hour
    X with amplitude Y" (atan2(b,c) gives the phase, downstream).

    Exactness: the basis is PRE-QUANTIZED to the 1e-3 grid and embedded
    as integer literals in both engines, so the normal equations are
    pure integer sums and the 3x3 Cramer solve runs in PYTHON BIG INTS
    (dets reach ~1e22 — HUGEINT in the oracle); each coefficient
    quantizes once by truncating division (dets can be negative:
    ``_trunc_div`` mirrors DuckDB ``//``).  b and c come out in count
    units x 1e3 (the basis scale) — reported as *_e3-grid ppk of a unit
    basis via one more scale factor kept integer end-to-end.

    Plan shape: ONE 24-row hourly count fold, driver 3x3 solve.
    """
    from ray.data.aggregate import Sum

    ds = read_table(sf_dir, "events", columns=["ts"])

    part_schema = pa.schema([("hour", pa.int64()), ("c", pa.int64())])

    def partial(batch: pa.Table) -> pa.Table:
        if batch.num_rows == 0 or batch.num_columns == 0:
            return part_schema.empty_table()
        t = pa.table({"hour": pc.cast(pc.hour(batch["ts"]), pa.int64())})
        return (
            t.group_by("hour").aggregate([([], "count_all")]).rename_columns(["hour", "c"])
        )

    rows = (
        ds.map_batches(partial, batch_format="pyarrow", zero_copy_batch=True)
        .groupby("hour")
        .aggregate(Sum("c", alias_name="c"))
        .take_all()  # bounded: 24 rows
    )
    y_of = {int(r["hour"]): int(r["c"]) for r in rows}
    hours = sorted(y_of)
    y = [y_of[h] for h in hours]
    s = [_HARM_SIN[h] for h in hours]
    c = [_HARM_COS[h] for h in hours]
    n = len(hours)
    Ss, Sc = sum(s), sum(c)
    Sss = sum(v * v for v in s)
    Scc = sum(v * v for v in c)
    Ssc = sum(a * b for a, b in zip(s, c))
    Sy = sum(y)
    Ssy = sum(a * b for a, b in zip(s, y))
    Scy = sum(a * b for a, b in zip(c, y))

    def det3(m):
        return (
            m[0][0] * (m[1][1] * m[2][2] - m[1][2] * m[2][1])
            - m[0][1] * (m[1][0] * m[2][2] - m[1][2] * m[2][0])
            + m[0][2] * (m[1][0] * m[2][1] - m[1][1] * m[2][0])
        )

    M = [[n, Ss, Sc], [Ss, Sss, Ssc], [Sc, Ssc, Scc]]
    rhs = [Sy, Ssy, Scy]
    D = det3(M)
    Da = det3([[rhs[0], Ss, Sc], [rhs[1], Sss, Ssc], [rhs[2], Ssc, Scc]])
    Db = det3([[n, rhs[0], Sc], [Ss, rhs[1], Ssc], [Sc, rhs[2], Scc]])
    Dc = det3([[n, Ss, rhs[0]], [Ss, Sss, rhs[1]], [Sc, Ssc, rhs[2]]])
    # a is in count units; b, c multiply the 1e-3-grid basis, so scale by
    # 1e3 to report them in count units too — one quantization each
    return pa.table(
        {
            "n_hours": pa.array([n], pa.int64()),
            "a_e6": pa.array([_trunc_div(Da * 1_000_000, D)], pa.int64()),
            "b_e6": pa.array([_trunc_div(Db * 1_000_000_000, D)], pa.int64()),
            "c_e6": pa.array([_trunc_div(Dc * 1_000_000_000, D)], pa.int64()),
        }
    )


def events_hourly_harmonic_sql() -> str:
    basis = ", ".join(
        f"({h}, {_HARM_SIN[h]}, {_HARM_COS[h]})" for h in range(24)
    )
    return f"""
WITH b(h, s, c) AS (VALUES {basis}),
hc AS (
  SELECT CAST(hour(ts) AS BIGINT) AS h, count(*) AS y FROM events GROUP BY 1),
j AS (SELECT hc.h, hc.y, b.s, b.c FROM hc JOIN b USING (h)),
m AS (
  SELECT count(*) AS n,
         sum(s) AS ss, sum(c) AS sc,
         sum(CAST(s AS HUGEINT) * s) AS sss,
         sum(CAST(c AS HUGEINT) * c) AS scc,
         sum(CAST(s AS HUGEINT) * c) AS ssc,
         sum(CAST(y AS HUGEINT)) AS sy,
         sum(CAST(s AS HUGEINT) * y) AS ssy,
         sum(CAST(c AS HUGEINT) * y) AS scy
  FROM j),
d AS (
  SELECT n, ss, sc, sss, scc, ssc, sy, ssy, scy,
         n * (sss * scc - ssc * ssc)
       - ss * (ss * scc - ssc * sc)
       + sc * (ss * ssc - sss * sc) AS det
  FROM m)
SELECT CAST(n AS BIGINT) AS n_hours,
       CAST((sy * (sss * scc - ssc * ssc)
           - ss * (ssy * scc - ssc * scy)
           + sc * (ssy * ssc - sss * scy)) * 1000000 // det AS BIGINT) AS a_e6,
       CAST((n * (ssy * scc - ssc * scy)
           - sy * (ss * scc - ssc * sc)
           + sc * (ss * scy - ssy * sc)) * 1000000000 // det AS BIGINT) AS b_e6,
       CAST((n * (sss * scy - ssy * ssc)
           - ss * (ss * scy - ssy * sc)
           + sy * (ss * ssc - sss * sc)) * 1000000000 // det AS BIGINT) AS c_e6
FROM d
"""


# ---------------------------------------------------------------------------
# autocorrelation function (lags 1..7) of daily order revenue — the serial-
# dependence profile next to Mann-Kendall (trend) and runs (randomness)
# ---------------------------------------------------------------------------


def orders_daily_acf(sf_dir: str, *, max_lag: int = 7) -> pa.Table:
    """Sample autocorrelation of the daily order-revenue series at lags
    1..``max_lag``: acf(k) = sum_t (x_t - m)(x_{t+k} - m) / sum_t (x_t - m)^2
    with m the full-series mean — the seasonality/persistence fingerprint
    a forecaster reads before picking a model (weekly cadence shows as a
    lag-7 spike).

    Exactness: clear the rational mean by scaling residuals to
    e_t = n*x_t - S (exact ints); numerator and denominator are then pure
    integer sums of e_t products — Python big ints here (products reach
    ~1e25, past int64), HUGEINT in the oracle — and the single division
    happens once per lag on the ppm grid, truncating toward zero in both
    engines (revenue correlations can be negative: ``_trunc_div``).

    Plan shape: the Mann-Kendall recipe — ONE bounded day-grain fold,
    then an O(n_days x max_lag) driver finish over the k daily points."""
    from ray.data.aggregate import Sum

    ds = read_table(sf_dir, "orders", columns=["o_orderdate", "o_totalprice"])

    part_schema = pa.schema([("day", pa.int64()), ("rev", pa.int64())])

    def partial(batch: pa.Table) -> pa.Table:
        if batch.num_rows == 0 or batch.num_columns == 0:
            return part_schema.empty_table()
        date_us = pc.cast(pc.cast(batch["o_orderdate"], pa.timestamp("us")), pa.int64())
        t = pa.table(
            {
                "day": pc.divide(date_us, pa.scalar(_US_PER_DAY_MK, pa.int64())),
                "rev": pc.cast(
                    pc.round(pc.multiply(batch["o_totalprice"], pa.scalar(100.0))),
                    pa.int64(),
                ),
            }
        )
        return (
            t.group_by("day").aggregate([("rev", "sum")]).rename_columns(["day", "rev"])
        )

    rows = (
        ds.map_batches(partial, batch_format="pyarrow", zero_copy_batch=True)
        .groupby("day")
        .aggregate(Sum("rev", alias_name="rev"))
        .take_all()  # bounded: one row per calendar day
    )
    rows.sort(key=lambda r: int(r["day"]))
    rev = [int(r["rev"]) for r in rows]
    n = len(rev)
    s = sum(rev)
    e = [n * x - s for x in rev]  # exact Python ints
    den = sum(v * v for v in e)
    out_lag: list[int] = []
    out_acf: list[int] = []
    for lag in range(1, max_lag + 1):
        if n <= lag or den == 0:
            continue
        num = sum(e[t] * e[t + lag] for t in range(n - lag))
        out_lag.append(lag)
        out_acf.append(_trunc_div(num * 1_000_000, den))
    return pa.table(
        {
            "lag": pa.array(out_lag, pa.int64()),
            "acf_ppm": pa.array(out_acf, pa.int64()),
        }
    )


ORDERS_DAILY_ACF_SQL = f"""
WITH d AS (
  SELECT epoch_us(CAST(o_orderdate AS TIMESTAMP)) // {_US_PER_DAY_MK} AS day,
         sum(CAST(round(o_totalprice * 100) AS BIGINT)) AS rev
  FROM orders GROUP BY 1),
r AS (SELECT row_number() OVER (ORDER BY day) AS rn, rev FROM d),
st AS (SELECT count(*) AS n, sum(rev) AS s FROM r),
e AS (SELECT rn, CAST(st.n AS HUGEINT) * rev - st.s AS e FROM r, st),
den AS (SELECT sum(e * e) AS den FROM e),
lags AS (SELECT unnest([1, 2, 3, 4, 5, 6, 7]) AS lag),
num AS (
  SELECT l.lag, sum(a.e * b.e) AS num
  FROM lags l
  JOIN e a ON true
  JOIN e b ON b.rn = a.rn + l.lag
  GROUP BY l.lag
)
SELECT num.lag AS lag,
       CAST(num.num * 1000000 // den.den AS BIGINT) AS acf_ppm
FROM num, den WHERE den.den != 0
ORDER BY lag
"""


# ---------------------------------------------------------------------------
# cross-correlogram of two event-type daily series (lead-lag analysis) —
# the bivariate completion of the serial-dependence family: ACF answers
# "does revenue remember itself", CCF answers "does purchase follow click"
# ---------------------------------------------------------------------------


def events_daily_ccf(
    sf_dir: str, *, x_type: str = "click", y_type: str = "purchase", max_lag: int = 7
) -> pa.Table:
    """Cross-correlogram between the daily count series of two event types
    at lags -max_lag..+max_lag: lag k > 0 correlates x_t (``x_type``)
    against y_{t+k} (``y_type``), so a positive peak at k=+2 reads
    "purchases follow clicks by two days".  Both series are ZERO-FILLED
    over the joint calendar span [min_day, max_day] of the two types —
    absent days change every moment and must count.

    Exactness: the sqrt in Pearson's r is a cross-engine float hazard, so
    the output is the SIGNED SQUARED correlation on the ppm grid,
    r2s_ppm = sign(num) * num^2 * 1e6 // (dx * dy) with
    num = sum(ex_t * ey_{t+k}) over the overlap window and
    dx, dy the full-series sums of squares of e = n*x - S residuals
    (the mean cleared by scaling, as in :func:`orders_daily_acf`) — a
    monotone, sign-preserving transform of r computed entirely in Python
    big ints / HUGEINT, quantized exactly once per lag (``_trunc_div``:
    cross products go negative).

    Plan shape: ONE bounded (event_type, day) count fold filtered to the
    two types at the read; the O(n_days x lags) finish runs on the driver
    from |calendar| rows.  Complements
    :func:`..pipelines.behavior.events_leadlag_xcorr` (hourly grain, raw
    co-moment numerators over jointly-defined hours): this is the
    NORMALIZED daily correlogram over the zero-filled full calendar —
    the form a seasonality analyst actually plots."""
    from ray.data.aggregate import Sum

    ds = read_table(sf_dir, "events", columns=["event_type", "ts"])

    part_schema = pa.schema(
        [("event_type", pa.string()), ("day", pa.int64()), ("c", pa.int64())]
    )

    def partial(batch: pa.Table) -> pa.Table:
        if batch.num_rows == 0 or batch.num_columns == 0:
            return part_schema.empty_table()
        keep = pc.is_in(batch["event_type"], pa.array([x_type, y_type]))
        batch = batch.filter(keep)
        if batch.num_rows == 0:
            return part_schema.empty_table()
        day = pc.divide(
            pc.cast(pc.cast(batch["ts"], pa.timestamp("us")), pa.int64()),
            pa.scalar(_US_PER_DAY_MK, pa.int64()),
        )
        t = pa.table({"event_type": batch["event_type"], "day": day})
        return (
            t.group_by(["event_type", "day"])
            .aggregate([([], "count_all")])
            .rename_columns(["event_type", "day", "c"])
        )

    rows = (
        ds.map_batches(partial, batch_format="pyarrow", zero_copy_batch=True)
        .groupby(["event_type", "day"])
        .aggregate(Sum("c", alias_name="c"))
        .take_all()  # bounded: 2 x calendar days
    )
    if not rows:
        return pa.table(
            {"lag": pa.array([], pa.int64()), "r2s_ppm": pa.array([], pa.int64())}
        )
    lo = min(int(r["day"]) for r in rows)
    hi = max(int(r["day"]) for r in rows)
    n = hi - lo + 1
    x = [0] * n
    y = [0] * n
    for r in rows:
        if r["event_type"] == x_type:
            x[int(r["day"]) - lo] = int(r["c"])
        else:
            y[int(r["day"]) - lo] = int(r["c"])
    if x_type == y_type:
        y = list(x)  # self-correlation: ccf(x, x) IS the acf
    sx, sy = sum(x), sum(y)
    ex = [n * v - sx for v in x]
    ey = [n * v - sy for v in y]
    dx = sum(v * v for v in ex)
    dy = sum(v * v for v in ey)
    out_lag: list[int] = []
    out_r: list[int] = []
    for lag in range(-max_lag, max_lag + 1):
        if n <= abs(lag) or dx == 0 or dy == 0:
            continue
        if lag >= 0:
            num = sum(ex[t] * ey[t + lag] for t in range(n - lag))
        else:
            num = sum(ex[t - lag] * ey[t] for t in range(n + lag))
        out_lag.append(lag)
        out_r.append(_trunc_div((1 if num >= 0 else -1) * num * num * 1_000_000, dx * dy))
    return pa.table(
        {
            "lag": pa.array(out_lag, pa.int64()),
            "r2s_ppm": pa.array(out_r, pa.int64()),
        }
    )


EVENTS_DAILY_CCF_SQL = f"""
WITH b AS (
  SELECT event_type, epoch_us(ts) // {_US_PER_DAY_MK} AS day, count(*) AS c
  FROM events WHERE event_type IN ('click', 'purchase') GROUP BY 1, 2),
span AS (SELECT min(day) AS lo, max(day) AS hi FROM b),
cal0 AS (SELECT unnest(generate_series(lo, hi)) AS day FROM span),
cal AS (SELECT day, row_number() OVER (ORDER BY day) AS rn FROM cal0),
s AS (
  SELECT cal.rn,
         CAST(coalesce(max(CASE WHEN b.event_type = 'click' THEN b.c END), 0)
              AS HUGEINT) AS x,
         CAST(coalesce(max(CASE WHEN b.event_type = 'purchase' THEN b.c END), 0)
              AS HUGEINT) AS y
  FROM cal LEFT JOIN b ON b.day = cal.day GROUP BY cal.rn),
st AS (SELECT count(*) AS n, sum(x) AS sx, sum(y) AS sy FROM s),
e AS (
  SELECT rn, CAST(st.n AS HUGEINT) * x - st.sx AS ex,
         CAST(st.n AS HUGEINT) * y - st.sy AS ey
  FROM s, st),
den AS (SELECT sum(ex * ex) AS dx, sum(ey * ey) AS dy FROM e),
lags AS (SELECT unnest([-7, -6, -5, -4, -3, -2, -1, 0, 1, 2, 3, 4, 5, 6, 7]) AS lag),
num AS (
  SELECT l.lag, sum(a.ex * b.ey) AS num
  FROM lags l
  JOIN e a ON true
  JOIN e b ON b.rn = a.rn + l.lag
  GROUP BY l.lag
)
SELECT num.lag AS lag,
       CAST((CASE WHEN num.num >= 0 THEN 1 ELSE -1 END)
            * ((num.num * num.num * 1000000) // (den.dx * den.dy))
            AS BIGINT) AS r2s_ppm
FROM num, den WHERE den.dx != 0 AND den.dy != 0
ORDER BY lag
"""


# ---------------------------------------------------------------------------
# mutual information of (lang, source) — the information-theoretic sibling
# of lang_source_chisq off the SAME bounded cell fold: how many nats one
# label tells you about the other (the corpus-mixing diagnostic a sampler
# reads before stratifying on both)
# ---------------------------------------------------------------------------


def lang_source_mutual_info(sf_dir: str) -> pa.Table:
    """Per-cell mutual-information contributions for the (lang, source)
    grid: contrib_e6 = round(o * ln((o*N)/(r*c)) * 1e6) for observed
    cells (absent cells contribute exactly 0 and are omitted — unlike
    chi-square, MI needs no expected term for empty cells), so
    sum(contrib_e6) / (N * 1e6) is I(lang; source) in nats.

    Exactness: the log argument is formed as (double(o) * double(N)) /
    (double(r) * double(c)) — the SAME IEEE op order in numpy and DuckDB
    (never o*N in integers first: past 2^53 the int product and the
    double product diverge) — then one quantization per cell; the
    measure-zero exact-.5-after-ln risk is the DSIR/PMI convention.

    Plan shape: identical to lang_source_chisq — one bounded categorical
    cell fold, driver finish."""
    from ray.data.aggregate import Sum

    ds = read_table(sf_dir, "documents", columns=["lang", "source"])

    part_schema = pa.schema(
        [("lang", pa.string()), ("source", pa.string()), ("n", pa.int64())]
    )

    def partial(batch: pa.Table) -> pa.Table:
        if batch.num_rows == 0 or batch.num_columns == 0:
            return part_schema.empty_table()
        return (
            batch.select(["lang", "source"])
            .group_by(["lang", "source"])
            .aggregate([([], "count_all")])
            .rename_columns(["lang", "source", "n"])
        )

    cells = (
        ds.map_batches(partial, batch_format="pyarrow", zero_copy_batch=True)
        .groupby(["lang", "source"])
        .aggregate(Sum("n", alias_name="n"))
        .take_all()  # bounded: |langs| x |sources|
    )
    obs = {(r["lang"], r["source"]): int(r["n"]) for r in cells}
    langs = sorted({k[0] for k in obs})
    sources = sorted({k[1] for k in obs})
    row_tot = {l: sum(obs.get((l, s), 0) for s in sources) for l in langs}
    col_tot = {s: sum(obs.get((l, s), 0) for l in langs) for s in sources}
    n_total = sum(row_tot.values())

    out = {"lang": [], "source": [], "n_docs": [], "mi_contrib_e6": []}
    for l in langs:
        for s in sources:
            o = obs.get((l, s), 0)
            if o == 0:
                continue
            ratio = (float(o) * float(n_total)) / (
                float(row_tot[l]) * float(col_tot[s])
            )
            out["lang"].append(l)
            out["source"].append(s)
            out["n_docs"].append(o)
            out["mi_contrib_e6"].append(
                int(np.round(float(o) * np.log(ratio) * 1e6))
            )
    return pa.table(
        {
            "lang": pa.array(out["lang"], pa.string()),
            "source": pa.array(out["source"], pa.string()),
            "n_docs": pa.array(out["n_docs"], pa.int64()),
            "mi_contrib_e6": pa.array(out["mi_contrib_e6"], pa.int64()),
        }
    )


LANG_SOURCE_MUTUAL_INFO_SQL = """
WITH cells AS (
  SELECT lang, source, count(*) AS o FROM documents GROUP BY 1, 2),
r AS (SELECT lang, sum(o) AS rn FROM cells GROUP BY lang),
c AS (SELECT source, sum(o) AS cn FROM cells GROUP BY source),
tot AS (SELECT sum(o) AS n FROM cells)
SELECT cells.lang, cells.source, CAST(o AS BIGINT) AS n_docs,
       CAST(round(CAST(o AS DOUBLE)
                  * ln((CAST(o AS DOUBLE) * CAST(tot.n AS DOUBLE))
                       / (CAST(r.rn AS DOUBLE) * CAST(c.cn AS DOUBLE)))
                  * 1000000) AS BIGINT) AS mi_contrib_e6
FROM cells
JOIN r ON r.lang = cells.lang
JOIN c ON c.source = cells.source, tot
ORDER BY cells.lang, cells.source
"""


# ---------------------------------------------------------------------------
# Wald SPRT — sequential early-stopping decision on the treatment arm
# ---------------------------------------------------------------------------

# integer log-likelihood-ratio constants, PRE-COMPUTED once and embedded as
# literals in both engines (the NDCG/harmonic discipline: zero query-time
# float transcendentals).  H0: p=0.20, H1: p=0.25, alpha=beta=0.05.
_SPRT_L1 = 223144   # round(ln(0.25/0.20) * 1e6) — a conversion's LLR step
_SPRT_L0 = -64539   # round(ln(0.75/0.80) * 1e6) — a non-conversion's step
_SPRT_A = 2944439   # round(ln(0.95/0.05) * 1e6) — accept-H1 boundary
_SPRT_B = -2944439  # accept-H0 boundary
_SPRT_LEHMER_A = 630360016
_SPRT_LEHMER_M = 2147483647
_US_PER_DAY_SPRT = 86_400_000_000


def ab_sprt_decision(sf_dir: str) -> pa.Table:
    """Wald's Sequential Probability Ratio Test over the treatment arm's
    conversion stream — the early-stopping monitor a fixed-horizon A/B
    readout (``ab_median_uplift``) lacks: walk events in (ts, event_id)
    order, add the integer LLR step per event (conversion = 'purchase'),
    and stop at the FIRST boundary crossing.  Output one row:
    (decision 1/-1/0, n_seen, cum_llr, cross_event_id).

    Exactness: arm = full-period Lehmer(user_id) % 2 (the repo's
    reshard-invariant assignment); LLR steps and boundaries are
    precomputed integer literals identical in both engines; the running
    sum is an exact int64 over a TOTAL order (event_id breaks ts ties).

    Plan shape (the first-crossing two-pass): pass 1 folds per-DAY
    partials (total LLR + min/max in-day prefix over the day-sorted
    events); the driver prefix-sums day offsets and locates the first
    day whose [offset+min, offset+max] envelope touches a boundary —
    the crossing day, found without ordering any event globally; pass 2
    scans ONLY that day's treatment events for the exact crossing.
    Nothing event-proportional reaches the driver beyond one day."""
    ds = read_table(sf_dir, "events", columns=["event_id", "ts", "user_id", "event_type"])

    part_schema = pa.schema(
        [
            ("day", pa.int64()),
            ("tot", pa.int64()),
            ("minp", pa.int64()),
            ("maxp", pa.int64()),
            ("n", pa.int64()),
        ]
    )

    def _treatment(batch: pa.Table):
        uid = pc.cast(batch["user_id"], pa.int64()).to_numpy(zero_copy_only=False)
        arm = (uid % _SPRT_LEHMER_M) * _SPRT_LEHMER_A % _SPRT_LEHMER_M % 2
        return arm == 1

    # per-block prefix envelopes are NOT mergeable across blocks of the
    # same day (extremes depend on in-day order), so events group BY DAY
    # and each day folds with one in-group sort — the day grain bounds
    # the group at any corpus size.
    ev_schema = pa.schema(
        [("day", pa.int64()), ("ts", pa.int64()), ("eid", pa.int64()), ("llr", pa.int64())]
    )

    def ev_rows(batch: pa.Table) -> pa.Table:
        if batch.num_rows == 0 or batch.num_columns == 0:
            return ev_schema.empty_table()
        keep = _treatment(batch)
        if not keep.any():
            return ev_schema.empty_table()
        b = batch.filter(pa.array(keep))
        ts = pc.cast(pc.cast(b["ts"], pa.timestamp("us")), pa.int64()).to_numpy(
            zero_copy_only=False
        )
        is_conv = pc.equal(b["event_type"], "purchase").to_numpy(zero_copy_only=False)
        return pa.table(
            {
                "day": pa.array(ts // _US_PER_DAY_SPRT, pa.int64()),
                "ts": pa.array(ts, pa.int64()),
                "eid": pc.cast(b["event_id"], pa.int64()),
                "llr": pa.array(
                    np.where(is_conv, _SPRT_L1, _SPRT_L0).astype(np.int64)
                ),
            }
        )

    def fold_day(g: pa.Table) -> pa.Table:
        ts = g["ts"].to_numpy(zero_copy_only=False)
        eid = g["eid"].to_numpy(zero_copy_only=False)
        llr = g["llr"].to_numpy(zero_copy_only=False)
        order = np.lexsort((eid, ts))
        pref = np.cumsum(llr[order])
        return pa.table(
            {
                "day": pa.array([int(g["day"][0].as_py())], pa.int64()),
                "tot": pa.array([int(pref[-1])], pa.int64()),
                "minp": pa.array([int(pref.min())], pa.int64()),
                "maxp": pa.array([int(pref.max())], pa.int64()),
                "n": pa.array([len(pref)], pa.int64()),
            }
        )

    evs = ds.map_batches(ev_rows, batch_format="pyarrow", zero_copy_batch=True)
    days = bucket_exchange(
        evs, fold_day, key="day", schema=ev_schema, out_schema=part_schema
    ).take_all()  # bounded: one row per calendar day
    days.sort(key=lambda r: int(r["day"]))
    offset = 0
    total_n = 0
    cross_day = None
    for r in days:
        if (
            offset + int(r["minp"]) <= _SPRT_B
            or offset + int(r["maxp"]) >= _SPRT_A
        ):
            cross_day = int(r["day"])
            break
        offset += int(r["tot"])
        total_n += int(r["n"])
    if cross_day is None:
        return pa.table(
            {
                "decision": pa.array([0], pa.int64()),
                "n_seen": pa.array([total_n], pa.int64()),
                "cum_llr": pa.array([offset], pa.int64()),
                "cross_event_id": pa.array([-1], pa.int64()),
            }
        )

    # bounded: pass 2 pulls the crossing day's events only (one day)
    day_rows = (
        evs.map_batches(
            lambda b: b.filter(pc.equal(b["day"], pa.scalar(cross_day, pa.int64()))),
            batch_format="pyarrow",
            zero_copy_batch=True,
        ).take_all()
    )
    ts = np.array([int(r["ts"]) for r in day_rows], np.int64)
    eid = np.array([int(r["eid"]) for r in day_rows], np.int64)
    llr = np.array([int(r["llr"]) for r in day_rows], np.int64)
    order = np.lexsort((eid, ts))
    pref = offset + np.cumsum(llr[order])
    crossing = np.flatnonzero((pref >= _SPRT_A) | (pref <= _SPRT_B))
    i = int(crossing[0])
    return pa.table(
        {
            "decision": pa.array(
                [1 if pref[i] >= _SPRT_A else -1], pa.int64()
            ),
            "n_seen": pa.array([total_n + i + 1], pa.int64()),
            "cum_llr": pa.array([int(pref[i])], pa.int64()),
            "cross_event_id": pa.array([int(eid[order][i])], pa.int64()),
        }
    )


AB_SPRT_DECISION_SQL = f"""
WITH e AS (
  SELECT event_id, ts,
         CASE WHEN event_type = 'purchase' THEN {_SPRT_L1}
              ELSE {_SPRT_L0} END AS llr
  FROM events
  WHERE ((user_id % {_SPRT_LEHMER_M}) * {_SPRT_LEHMER_A})
        % {_SPRT_LEHMER_M} % 2 = 1),
w AS (
  SELECT event_id,
         sum(llr) OVER (ORDER BY ts, event_id ROWS UNBOUNDED PRECEDING)
           AS cum,
         row_number() OVER (ORDER BY ts, event_id) AS rn
  FROM e),
x AS (SELECT * FROM w WHERE cum >= {_SPRT_A} OR cum <= {_SPRT_B}
      ORDER BY rn LIMIT 1)
SELECT CAST(CASE WHEN (SELECT count(*) FROM x) = 0 THEN 0
            WHEN (SELECT max(cum) FROM x) >= {_SPRT_A} THEN 1
            ELSE -1 END AS BIGINT) AS decision,
       CAST(coalesce((SELECT rn FROM x), (SELECT count(*) FROM w))
            AS BIGINT) AS n_seen,
       CAST(coalesce((SELECT cum FROM x),
                     coalesce((SELECT cum FROM w ORDER BY rn DESC LIMIT 1), 0))
            AS BIGINT) AS cum_llr,
       CAST(coalesce((SELECT event_id FROM x), -1) AS BIGINT)
         AS cross_event_id
"""


# ---------------------------------------------------------------------------
# Mood's median test — the nonparametric 2xk location test
# ---------------------------------------------------------------------------


def mood_median_test(sf_dir: str) -> pa.Table:
    """Mood's median test across event types: dichotomize every event
    value at the GRAND median (above vs at-or-below, the tie convention),
    then the 2 x k chi-square cell table — the coarser, outlier-immune
    companion of Kruskal-Wallis (same fold, different statistic).  Output
    one row per (event_type, side): observed n, expected_e6, contrib_e6
    (one quantization per cell, chisq discipline).

    Exactness: the grand cutoff is med2 = the SUM of the two middle order
    statistics (the med2 trick — no division), a value is above iff
    2*cents > med2 (exact ints); margins are exact, each cell quantizes
    once.  Plan: ONE (type, cents) value-domain histogram exchange (the
    Kruskal fold), driver finish on the bounded grid."""
    from ray.data.aggregate import Sum

    ds = read_table(sf_dir, "events", columns=["event_type", "value"])

    part_schema = pa.schema(
        [("event_type", pa.string()), ("cents", pa.int64()), ("n", pa.int64())]
    )

    def partial(batch: pa.Table) -> pa.Table:
        if batch.num_rows == 0 or batch.num_columns == 0:
            return part_schema.empty_table()
        cents = pc.cast(
            pc.round(pc.multiply(batch["value"], pa.scalar(100.0))), pa.int64()
        )
        t = pa.table({"event_type": batch["event_type"], "cents": cents})
        return (
            t.group_by(["event_type", "cents"])
            .aggregate([([], "count_all")])
            .rename_columns(["event_type", "cents", "n"])
        )

    hist = (
        ds.map_batches(partial, batch_format="pyarrow", zero_copy_batch=True)
        .groupby(["event_type", "cents"])
        .aggregate(Sum("n", alias_name="n"))
        .take_all()  # bounded: |types| x |price grid|
    )
    types = sorted({r["event_type"] for r in hist})
    # grand med2 from the merged value histogram
    val_counts: dict[int, int] = {}
    for r in hist:
        val_counts[int(r["cents"])] = val_counts.get(int(r["cents"]), 0) + int(r["n"])
    vals = sorted(val_counts)
    n_total = sum(val_counts.values())
    k1, k2 = (n_total + 1) // 2, n_total // 2 + 1  # 1-based middle ranks
    med2 = 0
    seen = 0
    for v in vals:
        lo, hi = seen + 1, seen + val_counts[v]
        if lo <= k1 <= hi:
            med2 += v
        if lo <= k2 <= hi:
            med2 += v
        seen = hi
        if seen >= max(k1, k2):
            break

    above = {t: 0 for t in types}
    below = {t: 0 for t in types}
    for r in hist:
        t = r["event_type"]
        if 2 * int(r["cents"]) > med2:
            above[t] += int(r["n"])
        else:
            below[t] += int(r["n"])
    col_a = sum(above.values())
    col_b = sum(below.values())

    out = {"event_type": [], "side": [], "n_events": [], "expected_e6": [], "contrib_e6": []}
    for t in types:
        row = above[t] + below[t]
        for side, o, col in ((0, below[t], col_b), (1, above[t], col_a)):
            d = o * n_total - row * col
            out["event_type"].append(t)
            out["side"].append(side)
            out["n_events"].append(o)
            out["expected_e6"].append(row * col * 1_000_000 // n_total)
            out["contrib_e6"].append(
                d * d * 1_000_000 // (n_total * row * col) if row and col else 0
            )
    return pa.table(
        {
            "event_type": pa.array(out["event_type"], pa.string()),
            "side": pa.array(out["side"], pa.int64()),
            "n_events": pa.array(out["n_events"], pa.int64()),
            "expected_e6": pa.array(out["expected_e6"], pa.int64()),
            "contrib_e6": pa.array(out["contrib_e6"], pa.int64()),
        }
    )


MOOD_MEDIAN_TEST_SQL = """
WITH v AS (
  SELECT event_type, CAST(round(value * 100) AS BIGINT) AS cents FROM events),
o AS (
  SELECT cents, row_number() OVER (ORDER BY cents) AS rn,
         count(*) OVER () AS n
  FROM v),
m AS (
  SELECT sum(cents * (CAST(rn = (n + 1) // 2 AS INT)
                      + CAST(rn = n // 2 + 1 AS INT))) AS med2
  FROM o),
s AS (
  SELECT event_type,
         CASE WHEN 2 * cents > (SELECT med2 FROM m) THEN 1 ELSE 0 END AS side
  FROM v),
cells AS (SELECT event_type, side, count(*) AS o FROM s GROUP BY 1, 2),
ty AS (SELECT DISTINCT event_type FROM v),
grid AS (
  SELECT ty.event_type, sides.side, coalesce(cells.o, 0) AS o
  FROM ty CROSS JOIN (SELECT 0 AS side UNION ALL SELECT 1) sides
  LEFT JOIN cells ON cells.event_type = ty.event_type
                 AND cells.side = sides.side),
r AS (SELECT event_type, sum(o) AS rn FROM grid GROUP BY 1),
c AS (SELECT side, sum(o) AS cn FROM grid GROUP BY 1),
tot AS (SELECT sum(o) AS n FROM grid)
SELECT g.event_type, CAST(g.side AS BIGINT) AS side,
       CAST(g.o AS BIGINT) AS n_events,
       CAST(CAST(r.rn AS HUGEINT) * c.cn * 1000000 // tot.n AS BIGINT)
         AS expected_e6,
       CAST(CASE WHEN r.rn = 0 OR c.cn = 0 THEN 0 ELSE
            (CAST(g.o AS HUGEINT) * tot.n - CAST(r.rn AS HUGEINT) * c.cn)
            * (CAST(g.o AS HUGEINT) * tot.n - CAST(r.rn AS HUGEINT) * c.cn)
            * 1000000 // (CAST(tot.n AS HUGEINT) * r.rn * c.cn) END AS BIGINT)
         AS contrib_e6
FROM grid g JOIN r ON r.event_type = g.event_type
JOIN c ON c.side = g.side CROSS JOIN tot
ORDER BY g.event_type, g.side
"""


# ---------------------------------------------------------------------------
# Cochran–Armitage trend test — dose-response across ordered categories
# ---------------------------------------------------------------------------


def error_trend_by_dow(sf_dir: str) -> pa.Table:
    """Cochran–Armitage trend of the error rate across the ordered
    day-of-week doses (w = 0..6): the test chi-square cannot express —
    "does the failure probability RISE through the week?" — the ops
    counterpart of Mann-Kendall for categorical doses.

    Exact integers end to end: per-dose (n_i, r_i) counts; the trend
    numerator T' = N * Σw·r − R * Σw·n and the variance denominator
    R(N−R)(N·Σw²n − (Σw·n)²) are Python big ints (T'² passes 2^63 —
    the HUGEINT-finish rule, oracle mirrors in HUGEINT);
    z2_e6 = N·T'²·1e6 // denom quantizes once.  Output one row with every
    certifiable intermediate (sw_n, sw2_n, sw_r, t_num, z2_e6).

    Oracle bound: with doses 0..6, |T'| ≤ 6·N·R ≤ 6N², so the oracle's
    numerator N·T'²·1e6 ≤ 3.6e7·N⁵, which passes HUGEINT's ~1.7e38 at about
    N ≈ 1.36 million events under a worst-case trend.  This function stays
    exact beyond that (Python ints); the SQL oracle does not.

    Plan: per-block 7-dose count partials -> one bounded groupby."""
    from ray.data.aggregate import Sum

    ds = read_table(sf_dir, "events", columns=["ts", "event_type"])

    part_schema = pa.schema(
        [("dose", pa.int64()), ("n", pa.int64()), ("r", pa.int64())]
    )

    def partial(batch: pa.Table) -> pa.Table:
        if batch.num_rows == 0 or batch.num_columns == 0:
            return part_schema.empty_table()
        us = pc.cast(pc.cast(batch["ts"], pa.timestamp("us")), pa.int64()).to_numpy(
            zero_copy_only=False
        )
        dow = (us // 86_400_000_000) % 7
        err = pc.equal(batch["event_type"], "error").to_numpy(zero_copy_only=False)
        n = np.bincount(dow, minlength=7).astype(np.int64)
        r = np.bincount(dow[err], minlength=7).astype(np.int64)
        return pa.table(
            {
                "dose": pa.array(np.arange(7, dtype=np.int64)),
                "n": pa.array(n),
                "r": pa.array(r),
            }
        )

    rows = (
        ds.map_batches(partial, batch_format="pyarrow", zero_copy_batch=True)
        .groupby("dose")
        .aggregate(Sum("n", alias_name="n"), Sum("r", alias_name="r"))
        .take_all()  # bounded: 7 rows
    )
    n_i = {int(x["dose"]): int(x["n"]) for x in rows}
    r_i = {int(x["dose"]): int(x["r"]) for x in rows}
    N = sum(n_i.values())
    R = sum(r_i.values())
    sw_n = sum(w * n_i.get(w, 0) for w in range(7))
    sw2_n = sum(w * w * n_i.get(w, 0) for w in range(7))
    sw_r = sum(w * r_i.get(w, 0) for w in range(7))
    t_num = N * sw_r - R * sw_n  # python ints: exact at any N
    denom = R * (N - R) * (N * sw2_n - sw_n * sw_n)
    z2_e6 = 0 if denom == 0 else N * t_num * t_num * 1_000_000 // denom
    return pa.table(
        {
            "n_total": pa.array([N], pa.int64()),
            "r_total": pa.array([R], pa.int64()),
            "sw_n": pa.array([sw_n], pa.int64()),
            "sw2_n": pa.array([sw2_n], pa.int64()),
            "sw_r": pa.array([sw_r], pa.int64()),
            "t_num": pa.array([t_num], pa.int64()),
            "z2_e6": pa.array([z2_e6], pa.int64()),
        }
    )


# HUGEINT bound: N·T'²·1e6 ≤ 3.6e7·N⁵ overflows past ~1.36 million events
# under a worst-case trend (see error_trend_by_dow).
ERROR_TREND_BY_DOW_SQL = """
WITH e AS (
  SELECT (epoch_us(CAST(ts AS TIMESTAMP)) // 86400000000) % 7 AS dose,
         CAST(event_type = 'error' AS INT) AS is_err
  FROM events),
d AS (SELECT dose, count(*) AS n, sum(is_err) AS r FROM e GROUP BY dose),
s AS (
  SELECT CAST(sum(n) AS HUGEINT) AS nn, CAST(sum(r) AS HUGEINT) AS rr,
         CAST(sum(dose * n) AS HUGEINT) AS sw_n,
         CAST(sum(dose * dose * n) AS HUGEINT) AS sw2_n,
         CAST(sum(dose * r) AS HUGEINT) AS sw_r
  FROM d)
SELECT CAST(nn AS BIGINT) AS n_total, CAST(rr AS BIGINT) AS r_total,
       CAST(sw_n AS BIGINT) AS sw_n, CAST(sw2_n AS BIGINT) AS sw2_n,
       CAST(sw_r AS BIGINT) AS sw_r,
       CAST(nn * sw_r - rr * sw_n AS BIGINT) AS t_num,
       CAST(CASE WHEN rr * (nn - rr) * (nn * sw2_n - sw_n * sw_n) = 0 THEN 0
            ELSE nn * (nn * sw_r - rr * sw_n) * (nn * sw_r - rr * sw_n)
                 * 1000000
                 // (rr * (nn - rr) * (nn * sw2_n - sw_n * sw_n)) END
            AS BIGINT) AS z2_e6
FROM s
"""
