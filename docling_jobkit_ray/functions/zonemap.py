"""Zone-map data skipping: a partitioned layout whose per-partition
min/max statistics let a predicate scan PRUNE files before reading them.

The missing piece between the statistics catalog (``stats_catalog`` —
per-column sketches for the whole table) and the physical layouts
(``training`` shards, Z-order keys): a layout writer that records
per-PARTITION zone maps at commit time, and a reader that consults them to
read only the partitions a range predicate can touch.  At 100 TB this is
the difference between an 80-partition scan and a 2-partition scan for a
one-year window — the same footer-pruning contract ``read_parquet``'s
row-group filters give WITHIN a file, lifted to the partition level where
the object-store read is actually saved.

Layout protocol (``state.commit.staged_dir``, shared with every staged
writer): partitioned parquet + ``_zonemaps.json`` + ``_SUCCESS`` (carrying
the input fingerprint) -> atomic rename.  A regenerated input at the same
path invalidates the cache via the fingerprint, never silently reuses stale
partitions; the stale layout stays readable until the rebuild replaces it.

Reference parity: the reference streams documents through object-store
connectors with no layout layer; this documents the Ray-Data-native
data-skipping shape (SURVEY.md layout/artifact family).
"""

from __future__ import annotations

import json
import os

import pyarrow as pa
import pyarrow.compute as pc
import ray.data

from ..state.commit import read_marker, staged_dir

_YEAR_US = None  # years are calendar-derived, not fixed-width — use pc.year


def _fingerprint(path: str) -> str:
    import pyarrow.parquet as pq

    st = os.stat(path)
    rows = pq.ParquetFile(path).metadata.num_rows
    return f"{rows}:{st.st_size}:{st.st_mtime_ns}"


def _commit_layout(
    out_dir: str, ds: ray.data.Dataset, part_col: str, zones: list[dict], fp: str
) -> str:
    """Publish ``ds`` partitioned by ``part_col`` with its zone maps; a
    stale layout stays readable until the new one replaces it."""
    with staged_dir(out_dir, marker="_SUCCESS", replace=True) as st:
        ds.write_parquet(st.path, partition_cols=[part_col])
        with open(os.path.join(st.path, "_zonemaps.json"), "w") as f:
            json.dump(sorted(zones, key=lambda z: z[part_col]), f, indent=1)
        st.marker_text = fp
    return out_dir


def write_orders_year_layout(sf_dir: str, out_dir: str) -> str:
    """Write the orders table partitioned by order YEAR with a
    ``_zonemaps.json`` recording each partition's (min, max) of
    ``o_orderdate`` (exact int64 us) and ``o_totalprice`` cents.

    Idempotent: a committed layout whose ``_SUCCESS`` fingerprint matches
    the current input is returned as-is (the resumable-output contract);
    a stale one is rebuilt.
    """
    src = os.path.join(sf_dir, "orders.parquet")
    fp = _fingerprint(src)
    if read_marker(out_dir, "_SUCCESS") == fp:
        return out_dir

    ds = ray.data.read_parquet(src)

    def add_year(batch: pa.Table) -> pa.Table:
        if batch.num_rows == 0 or batch.num_columns == 0:
            return batch
        year = pc.year(batch["o_orderdate"])
        return batch.append_column("o_year", pc.cast(year, pa.int64()))

    with_year = ds.map_batches(
        add_year, batch_format="pyarrow", zero_copy_batch=True
    ).materialize()  # feeds BOTH the write and the zone-map aggregate

    # per-partition zone maps: one bounded groupby (K = #years rows)
    def zone_partial(batch: pa.Table) -> pa.Table:
        if batch.num_rows == 0 or batch.num_columns == 0:
            return pa.schema(
                [
                    ("o_year", pa.int64()),
                    ("date_min", pa.int64()),
                    ("date_max", pa.int64()),
                    ("cents_min", pa.int64()),
                    ("cents_max", pa.int64()),
                ]
            ).empty_table()
        date_us = pc.cast(
            pc.cast(batch["o_orderdate"], pa.timestamp("us")), pa.int64()
        )
        cents = pc.cast(
            pc.round(pc.multiply(batch["o_totalprice"], pa.scalar(100.0))),
            pa.int64(),
        )
        t = pa.table(
            {
                "o_year": batch["o_year"],
                "date_min": date_us,
                "date_max": date_us,
                "cents_min": cents,
                "cents_max": cents,
            }
        )
        folded = t.group_by("o_year").aggregate(
            [
                ("date_min", "min"),
                ("date_max", "max"),
                ("cents_min", "min"),
                ("cents_max", "max"),
            ]
        )
        return folded.rename_columns(
            ["o_year", "date_min", "date_max", "cents_min", "cents_max"]
        )

    from ray.data.aggregate import Max, Min

    zones = (
        with_year.map_batches(zone_partial, batch_format="pyarrow")
        .groupby("o_year")
        .aggregate(
            Min(on="date_min", alias_name="date_min"),
            Max(on="date_max", alias_name="date_max"),
            Min(on="cents_min", alias_name="cents_min"),
            Max(on="cents_max", alias_name="cents_max"),
        )
        .take_all()  # bounded: K = #distinct years at any row count
    )
    return _commit_layout(out_dir, with_year, "o_year", zones, fp)


def pruned_orders_scan(
    layout_dir: str, lo_us: int, hi_us: int
) -> tuple[ray.data.Dataset, int, int]:
    """Range scan ``lo_us <= o_orderdate < hi_us`` over a year layout,
    reading ONLY the partitions whose zone map intersects the predicate.

    Returns ``(dataset, partitions_read, partitions_total)`` so callers
    (and tests) can observe that pruning actually skipped I/O.  A residual
    vectorized filter handles partition-straddling boundaries; pruning is
    advisory for I/O, never for correctness.
    """
    with open(os.path.join(layout_dir, "_zonemaps.json")) as f:
        zones = json.load(f)
    keep = [
        z for z in zones if z["date_max"] >= lo_us and z["date_min"] < hi_us
    ]
    # a path LIST must name files, not hive directories — expand each
    # surviving partition to its parquet members
    import glob as _glob

    paths = [
        f
        for z in keep
        for f in sorted(
            _glob.glob(
                os.path.join(layout_dir, f"o_year={z['o_year']}", "*.parquet")
            )
        )
    ]
    if not paths:
        return (
            ray.data.from_arrow(
                pa.schema([("o_orderkey", pa.int64())]).empty_table()
            ),
            0,
            len(zones),
        )
    # second pruning layer: the same predicate pushes into the parquet
    # scan as an Arrow dataset expression, so row groups whose footer
    # min/max miss the window never decompress (partition zone maps prune
    # whole files; this prunes within the files that survive)
    import pyarrow.dataset as pads

    lo_ts = pa.scalar(lo_us, pa.timestamp("us"))
    hi_ts = pa.scalar(hi_us, pa.timestamp("us"))
    ds = ray.data.read_parquet(
        paths,
        filter=(pads.field("o_orderdate") >= lo_ts)
        & (pads.field("o_orderdate") < hi_ts),
    )

    lo = pa.scalar(lo_us, pa.int64())
    hi = pa.scalar(hi_us, pa.int64())

    def residual(batch: pa.Table) -> pa.Table:
        if batch.num_rows == 0 or batch.num_columns == 0:
            return batch
        d = pc.cast(pc.cast(batch["o_orderdate"], pa.timestamp("us")), pa.int64())
        return batch.filter(
            pc.and_(pc.greater_equal(d, lo), pc.less(d, hi))
        )

    return (
        ds.map_batches(residual, batch_format="pyarrow", zero_copy_batch=True),
        len(keep),
        len(zones),
    )


_PRUNE_LO = "1997-03-01"
_PRUNE_HI = "1998-03-01"


def _date_us(s: str) -> int:
    return pc.strptime(s, format="%Y-%m-%d", unit="us").cast(pa.int64()).as_py()


def orders_pruned_revenue(sf_dir: str) -> ray.data.Dataset:
    """Revenue by priority over a one-year window, scanned through the
    zone-mapped year layout: builds (or reuses) the layout under /tmp
    keyed by the input fingerprint, prunes to the 2 of ~7 year partitions
    the window can touch, then aggregates in exact int64 cents."""
    from ray.data.aggregate import Count, Sum

    base = os.path.basename(os.path.normpath(sf_dir))
    layout = os.path.join("/tmp", f"djr_zonemap_{base}_orders_year")
    write_orders_year_layout(sf_dir, layout)
    ds, _read, _total = pruned_orders_scan(
        layout, _date_us(_PRUNE_LO), _date_us(_PRUNE_HI)
    )

    def to_cents(batch: pa.Table) -> pa.Table:
        if batch.num_rows == 0 or batch.num_columns == 0:
            return pa.schema(
                [("o_orderpriority", pa.string()), ("cents", pa.int64())]
            ).empty_table()
        cents = pc.cast(
            pc.round(pc.multiply(batch["o_totalprice"], pa.scalar(100.0))),
            pa.int64(),
        )
        return pa.table(
            {"o_orderpriority": batch["o_orderpriority"], "cents": cents}
        )

    agg = (
        ds.map_batches(to_cents, batch_format="pyarrow", zero_copy_batch=True)
        .groupby("o_orderpriority")
        .aggregate(
            Count(alias_name="n_orders"),
            Sum(on="cents", alias_name="cents"),
        )
        .sort("o_orderpriority")
    )

    def descale(batch: pa.Table) -> pa.Table:
        if batch.num_rows == 0 or batch.num_columns == 0:
            return pa.schema(
                [
                    ("o_orderpriority", pa.string()),
                    ("n_orders", pa.int64()),
                    ("revenue", pa.float64()),
                ]
            ).empty_table()
        return pa.table(
            {
                "o_orderpriority": batch["o_orderpriority"],
                "n_orders": pc.cast(batch["n_orders"], pa.int64()),
                "revenue": pc.divide(
                    pc.cast(batch["cents"], pa.float64()), pa.scalar(100.0)
                ),
            }
        )

    return agg.map_batches(descale, batch_format="pyarrow")


def orders_pruned_revenue_sql() -> str:
    return f"""
SELECT o_orderpriority,
       count(*) AS n_orders,
       sum(CAST(round(o_totalprice * 100) AS BIGINT)) / 100.0 AS revenue
FROM orders
WHERE o_orderdate >= TIMESTAMP '{_PRUNE_LO}'
  AND o_orderdate < TIMESTAMP '{_PRUNE_HI}'
GROUP BY o_orderpriority
ORDER BY o_orderpriority
"""


# ---------------------------------------------------------------------------
# Z-order tile layout: 2-D data skipping from ONE clustering
# ---------------------------------------------------------------------------

_ZT_BITS = 2  # 2 bits per dimension -> a 4x4 tile grid (16 partitions)


def _dim_minmax(sf_dir: str) -> tuple[int, int, int, int]:
    """Bounded pass: (cust_min, cust_max, hour_min, hour_max) of orders."""
    import pyarrow.parquet as pq

    t = pq.read_table(
        os.path.join(sf_dir, "orders.parquet"), columns=["o_custkey", "o_orderdate"]
    )
    cust = pc.cast(t["o_custkey"], pa.int64())
    hour = pc.divide(
        pc.cast(pc.cast(t["o_orderdate"], pa.timestamp("us")), pa.int64()),
        pa.scalar(3_600_000_000, pa.int64()),
    )
    return (
        pc.min(cust).as_py(),
        pc.max(cust).as_py(),
        pc.min(hour).as_py(),
        pc.max(hour).as_py(),
    )


def write_orders_zorder_layout(sf_dir: str, out_dir: str) -> str:
    """Write orders partitioned into a 4x4 Morton TILE grid over
    (custkey, order-hour), both dimensions range-NORMALIZED to the grid
    (raw-bit interleaving is a trap: at small key domains the customer's
    high bits are constant and the 'Z-order' degenerates to a time sort).
    ``_zonemaps.json`` records each tile's min/max in BOTH dimensions, so
    a 2-D box predicate prunes tiles that neither a customer-sorted nor a
    date-sorted layout could skip simultaneously — the
    OPTIMIZE ZORDER BY layout contract, downstream of the
    ``orders_zorder_keys`` key generator.

    Same staged/_SUCCESS/fingerprint commit protocol as the year layout.
    """
    src = os.path.join(sf_dir, "orders.parquet")
    fp = _fingerprint(src)
    if read_marker(out_dir, "_SUCCESS") == fp:
        return out_dir

    c_lo, c_hi, h_lo, h_hi = _dim_minmax(sf_dir)
    grid = 1 << _ZT_BITS
    c_span = c_hi - c_lo + 1
    h_span = h_hi - h_lo + 1

    ds = ray.data.read_parquet(src)

    def add_tile(batch: pa.Table) -> pa.Table:
        if batch.num_rows == 0 or batch.num_columns == 0:
            return batch
        import numpy as np

        cust = pc.cast(batch["o_custkey"], pa.int64()).to_numpy(zero_copy_only=False)
        hour = (
            pc.cast(pc.cast(batch["o_orderdate"], pa.timestamp("us")), pa.int64())
            .to_numpy(zero_copy_only=False)
            // 3_600_000_000
        )
        cq = (cust - c_lo) * grid // c_span
        hq = (hour - h_lo) * grid // h_span
        tile = np.zeros(len(cq), np.int64)
        for i in range(_ZT_BITS):
            tile |= ((cq >> i) & 1) << (2 * i)
            tile |= ((hq >> i) & 1) << (2 * i + 1)
        return batch.append_column("ztile", pa.array(tile, pa.int64()))

    with_tile = ds.map_batches(
        add_tile, batch_format="pyarrow", zero_copy_batch=True
    ).materialize()  # feeds BOTH the write and the zone-map aggregate

    def zone_partial(batch: pa.Table) -> pa.Table:
        schema = pa.schema(
            [
                ("ztile", pa.int64()),
                ("cust_min", pa.int64()),
                ("cust_max", pa.int64()),
                ("hour_min", pa.int64()),
                ("hour_max", pa.int64()),
            ]
        )
        if batch.num_rows == 0 or batch.num_columns == 0:
            return schema.empty_table()
        cust = pc.cast(batch["o_custkey"], pa.int64())
        hour = pc.divide(
            pc.cast(pc.cast(batch["o_orderdate"], pa.timestamp("us")), pa.int64()),
            pa.scalar(3_600_000_000, pa.int64()),
        )
        t = pa.table(
            {
                "ztile": batch["ztile"],
                "cust_min": cust,
                "cust_max": cust,
                "hour_min": hour,
                "hour_max": hour,
            }
        )
        folded = t.group_by("ztile").aggregate(
            [
                ("cust_min", "min"),
                ("cust_max", "max"),
                ("hour_min", "min"),
                ("hour_max", "max"),
            ]
        )
        return folded.rename_columns(
            ["ztile", "cust_min", "cust_max", "hour_min", "hour_max"]
        )

    from ray.data.aggregate import Max, Min

    zones = (
        with_tile.map_batches(zone_partial, batch_format="pyarrow")
        .groupby("ztile")
        .aggregate(
            Min(on="cust_min", alias_name="cust_min"),
            Max(on="cust_max", alias_name="cust_max"),
            Min(on="hour_min", alias_name="hour_min"),
            Max(on="hour_max", alias_name="hour_max"),
        )
        .take_all()  # bounded: <= 16 tile rows
    )
    return _commit_layout(out_dir, with_tile, "ztile", zones, fp)


def zorder_pruned_scan(
    layout_dir: str,
    cust_lo: int,
    cust_hi: int,
    hour_lo: int,
    hour_hi: int,
) -> tuple[ray.data.Dataset, int, int]:
    """2-D box scan ``cust in [cust_lo, cust_hi) x hour in [hour_lo,
    hour_hi)`` over the tile layout, reading only tiles whose zone map
    intersects the box in BOTH dimensions; residual vectorized filter for
    exactness.  Returns (dataset, tiles_read, tiles_total)."""
    import glob as _glob

    with open(os.path.join(layout_dir, "_zonemaps.json")) as f:
        zones = json.load(f)
    keep = [
        z
        for z in zones
        if z["cust_max"] >= cust_lo
        and z["cust_min"] < cust_hi
        and z["hour_max"] >= hour_lo
        and z["hour_min"] < hour_hi
    ]
    paths = [
        f
        for z in keep
        for f in sorted(
            _glob.glob(os.path.join(layout_dir, f"ztile={z['ztile']}", "*.parquet"))
        )
    ]
    if not paths:
        return (
            ray.data.from_arrow(
                pa.schema([("o_orderkey", pa.int64())]).empty_table()
            ),
            0,
            len(zones),
        )
    ds = ray.data.read_parquet(paths)

    def residual(batch: pa.Table) -> pa.Table:
        if batch.num_rows == 0 or batch.num_columns == 0:
            return batch
        cust = pc.cast(batch["o_custkey"], pa.int64())
        hour = pc.divide(
            pc.cast(pc.cast(batch["o_orderdate"], pa.timestamp("us")), pa.int64()),
            pa.scalar(3_600_000_000, pa.int64()),
        )
        return batch.filter(
            pc.and_(
                pc.and_(
                    pc.greater_equal(cust, pa.scalar(cust_lo, pa.int64())),
                    pc.less(cust, pa.scalar(cust_hi, pa.int64())),
                ),
                pc.and_(
                    pc.greater_equal(hour, pa.scalar(hour_lo, pa.int64())),
                    pc.less(hour, pa.scalar(hour_hi, pa.int64())),
                ),
            )
        )

    return (
        ds.map_batches(residual, batch_format="pyarrow", zero_copy_batch=True),
        len(keep),
        len(zones),
    )


def orders_zorder_box_revenue(sf_dir: str) -> ray.data.Dataset:
    """Revenue by priority inside a 2-D box (second customer quartile x
    second time quartile), scanned through the Z-order tile layout —
    the query shape that justifies the layout: both halves of the
    predicate prune at once.  The box derives from the SAME min/max
    normalization the layout used, so the oracle states it in absolute
    terms."""
    from ray.data.aggregate import Count, Sum

    base = os.path.basename(os.path.normpath(sf_dir))
    layout = os.path.join("/tmp", f"djr_zorder_{base}_orders")
    write_orders_zorder_layout(sf_dir, layout)
    c_lo, c_hi, h_lo, h_hi = _dim_minmax(sf_dir)
    grid = 1 << _ZT_BITS
    c_span = c_hi - c_lo + 1
    h_span = h_hi - h_lo + 1
    box = (
        c_lo + c_span * 1 // grid,
        c_lo + c_span * 2 // grid,
        h_lo + h_span * 1 // grid,
        h_lo + h_span * 2 // grid,
    )
    ds, _read, _total = zorder_pruned_scan(layout, *box)

    def to_cents(batch: pa.Table) -> pa.Table:
        if batch.num_rows == 0 or batch.num_columns == 0:
            return pa.schema(
                [("o_orderpriority", pa.string()), ("cents", pa.int64())]
            ).empty_table()
        cents = pc.cast(
            pc.round(pc.multiply(batch["o_totalprice"], pa.scalar(100.0))),
            pa.int64(),
        )
        return pa.table(
            {"o_orderpriority": batch["o_orderpriority"], "cents": cents}
        )

    agg = (
        ds.map_batches(to_cents, batch_format="pyarrow", zero_copy_batch=True)
        .groupby("o_orderpriority")
        .aggregate(
            Count(alias_name="n_orders"),
            Sum(on="cents", alias_name="cents"),
        )
        .sort("o_orderpriority")
    )

    def descale(batch: pa.Table) -> pa.Table:
        if batch.num_rows == 0 or batch.num_columns == 0:
            return pa.schema(
                [
                    ("o_orderpriority", pa.string()),
                    ("n_orders", pa.int64()),
                    ("revenue", pa.float64()),
                ]
            ).empty_table()
        return pa.table(
            {
                "o_orderpriority": batch["o_orderpriority"],
                "n_orders": pc.cast(batch["n_orders"], pa.int64()),
                "revenue": pc.divide(
                    pc.cast(batch["cents"], pa.float64()), pa.scalar(100.0)
                ),
            }
        )

    return agg.map_batches(descale, batch_format="pyarrow")


def orders_zorder_box_revenue_sql() -> str:
    grid = 1 << _ZT_BITS
    return f"""
WITH mm AS (
  SELECT min(o_custkey) AS c_lo, max(o_custkey) AS c_hi,
         min(epoch_us(o_orderdate) // 3600000000) AS h_lo,
         max(epoch_us(o_orderdate) // 3600000000) AS h_hi
  FROM orders),
box AS (
  SELECT c_lo + (c_hi - c_lo + 1) * 1 // {grid} AS b0,
         c_lo + (c_hi - c_lo + 1) * 2 // {grid} AS b1,
         h_lo + (h_hi - h_lo + 1) * 1 // {grid} AS b2,
         h_lo + (h_hi - h_lo + 1) * 2 // {grid} AS b3
  FROM mm)
SELECT o_orderpriority,
       count(*) AS n_orders,
       sum(CAST(round(o_totalprice * 100) AS BIGINT)) / 100.0 AS revenue
FROM orders, box
WHERE o_custkey >= box.b0 AND o_custkey < box.b1
  AND epoch_us(o_orderdate) // 3600000000 >= box.b2
  AND epoch_us(o_orderdate) // 3600000000 < box.b3
GROUP BY o_orderpriority
ORDER BY o_orderpriority
"""
