"""Incremental materialized-view maintenance — refresh a persisted
aggregate from a DELTA batch without recomputing the base.

The lakehouse pattern the reference's queue/worker kit has no analogue
for: a standing aggregate (here hourly event counts + int-cents value
sums) lives as a versioned parquet artifact; each new increment folds
its OWN partial aggregate into the artifact (read artifact + delta
partials through one small groupby — cost proportional to the DELTA and
the view, never the base corpus).  SUM/COUNT are self-maintainable
aggregates, so refresh(base_view, delta) == full_recompute(base ∪ delta)
EXACTLY — that equivalence is the test oracle.

Versioned commit protocol shared with the bloom index (`ingest.py`):
write `v{N+1}` staged, `_SUCCESS`, atomic rename; readers always see a
complete version; `gc` keeps live+N.
"""

from __future__ import annotations

import json
import os

import pyarrow as pa
import pyarrow.compute as pc
import ray.data

from ..state.commit import committed_versions, staged_dir

__all__ = [
    "hourly_event_counts",
    "init_view",
    "refresh_view",
    "current_view",
]

_VIEW_SCHEMA = pa.schema(
    [
        ("hour", pa.int64()),  # epoch hours (us // 3_600_000_000)
        ("event_type", pa.string()),
        ("n", pa.int64()),
        ("value_cents", pa.int64()),
    ]
)


def hourly_event_counts(events: ray.data.Dataset) -> ray.data.Dataset:
    """The view definition: (hour, event_type) -> count + exact int-cents
    value sum.  Per-batch partials pre-combine before the small groupby."""
    from ray.data.aggregate import Sum

    def partial(batch: pa.Table) -> pa.Table:
        if batch.num_rows == 0 or batch.num_columns == 0:
            return _VIEW_SCHEMA.empty_table()
        hour = pc.divide(
            pc.cast(batch["ts"], pa.int64()), pa.scalar(3_600_000_000, pa.int64())
        )
        cents = pc.cast(
            pc.round(pc.multiply(batch["value"], pa.scalar(100.0))), pa.int64()
        )
        return (
            pa.table(
                {
                    "hour": hour,
                    "event_type": batch["event_type"],
                    "n": pa.array([1] * batch.num_rows, pa.int64()),
                    "value_cents": cents,
                }
            )
            .group_by(["hour", "event_type"])
            .aggregate([("n", "sum"), ("value_cents", "sum")])
            .rename_columns(["hour", "event_type", "n", "value_cents"])
        )

    return (
        events.map_batches(partial, batch_format="pyarrow", zero_copy_batch=True)
        .groupby(["hour", "event_type"])
        .aggregate(Sum("n", alias_name="n"), Sum("value_cents", alias_name="value_cents"))
    )


def _commit(ds: ray.data.Dataset, view_dir: str, version: int, meta: dict) -> str:
    final = os.path.join(view_dir, f"v{version}")
    with staged_dir(final, marker="_SUCCESS") as st:
        ds.write_parquet(st.path)
        st.marker_text = json.dumps(meta)
    return final


def init_view(events: ray.data.Dataset, view_dir: str) -> str:
    """Materialize v1 of the view over the base corpus."""
    return _commit(hourly_event_counts(events), view_dir, 1, {"op": "init"})


def current_view(view_dir: str) -> ray.data.Dataset | None:
    vs = committed_versions(view_dir, "_SUCCESS")
    if not vs:
        return None
    return ray.data.read_parquet(os.path.join(view_dir, f"v{vs[-1]}"))


def refresh_view(view_dir: str, delta: ray.data.Dataset) -> str:
    """Fold a delta's partial aggregate into the live view: read the
    artifact (view-sized, not base-sized) and the delta's own aggregate
    through ONE union + groupby, commit v{N+1}.  SUM/COUNT are
    self-maintainable, so the result is bit-equal to a full recompute."""
    from ray.data.aggregate import Sum

    vs = committed_versions(view_dir, "_SUCCESS")
    if not vs:
        raise FileNotFoundError(f"no committed view version under {view_dir}")
    live = current_view(view_dir)
    merged = (
        live.union(hourly_event_counts(delta))
        .groupby(["hour", "event_type"])
        .aggregate(Sum("n", alias_name="n"), Sum("value_cents", alias_name="value_cents"))
    )
    return _commit(merged, view_dir, vs[-1] + 1, {"op": "refresh", "prev": vs[-1]})


def incremental_hourly_view(sf_dir: str) -> ray.data.Dataset:
    """Driver-checkable end-to-end: initialize the view from the even
    event_ids, REFRESH with the odd half, return the refreshed artifact —
    whose contents must equal the full-corpus aggregate exactly (the
    self-maintainability property, checked against plain SQL over the
    whole table)."""
    import tempfile

    import pyarrow.compute as _pc

    from ..sources.pages import read_table

    def _half(parity: int) -> ray.data.Dataset:
        ds = read_table(
            sf_dir, "events", columns=["ts", "event_type", "value", "event_id"]
        )
        return ds.map_batches(
            lambda b, p=parity: b.filter(
                _pc.equal(
                    _pc.bit_wise_and(b["event_id"], pa.scalar(1, pa.int64())), p
                )
            ).drop_columns(["event_id"]),
            batch_format="pyarrow",
            zero_copy_batch=True,
        )

    with tempfile.TemporaryDirectory() as tmp:
        view_dir = os.path.join(tmp, "view")
        init_view(_half(0), view_dir)
        refresh_view(view_dir, _half(1))
        out = current_view(view_dir).to_pandas()  # view-sized: (hours x types)
    out = out.sort_values(["hour", "event_type"], ignore_index=True)
    return pa.Table.from_pandas(out, schema=_VIEW_SCHEMA, preserve_index=False)


INCREMENTAL_HOURLY_VIEW_SQL = """
SELECT epoch_us(ts) // 3600000000 AS hour, event_type,
       count(*) AS n,
       CAST(sum(CAST(round(value * 100) AS BIGINT)) AS BIGINT) AS value_cents
FROM events
GROUP BY 1, 2
ORDER BY hour, event_type
"""


def read_view_version(view_dir: str, version: int) -> ray.data.Dataset:
    """Time-travel read: a specific committed version of the view (every
    version directory is immutable once renamed in, so old versions stay
    readable forever until GC'd)."""
    if version not in committed_versions(view_dir, "_SUCCESS"):
        raise FileNotFoundError(f"view version v{version} not committed in {view_dir}")
    return ray.data.read_parquet(os.path.join(view_dir, f"v{version}"))


def view_version_diff(view_dir: str, v_old: int, v_new: int) -> pa.Table:
    """Audit diff between two committed view versions: every (hour,
    event_type) key whose aggregate changed, with old/new counts and sums
    (old side 0 for keys the refresh introduced).  Views are aggregate-
    sized (hours x types) by definition, so the compare runs on the driver
    over two bounded artifacts — the EXPENSIVE work happened at refresh
    time."""
    old = read_view_version(view_dir, v_old).to_pandas()
    new = read_view_version(view_dir, v_new).to_pandas()
    m = new.merge(
        old, on=["hour", "event_type"], how="outer", suffixes=("_new", "_old")
    ).fillna(0)
    changed = m[(m["n_new"] != m["n_old"]) | (m["value_cents_new"] != m["value_cents_old"])]
    changed = changed.sort_values(["hour", "event_type"], kind="stable")
    return pa.table(
        {
            "hour": pa.array(changed["hour"].astype("int64"), pa.int64()),
            "event_type": pa.array(changed["event_type"], pa.string()),
            "n_old": pa.array(changed["n_old"].astype("int64"), pa.int64()),
            "n_new": pa.array(changed["n_new"].astype("int64"), pa.int64()),
            "cents_old": pa.array(changed["value_cents_old"].astype("int64"), pa.int64()),
            "cents_new": pa.array(changed["value_cents_new"].astype("int64"), pa.int64()),
        }
    )


def hourly_view_version_diff(sf_dir: str) -> pa.Table:
    """Driver-checkable end-to-end time travel: v1 = even event_ids,
    v2 = refresh with the odd half; the v1 -> v2 diff must equal the
    odd half's contribution computed by plain SQL over the base table."""
    import tempfile

    import pyarrow.compute as _pc

    from ..sources.pages import read_table

    def _half(parity: int) -> ray.data.Dataset:
        ds = read_table(
            sf_dir, "events", columns=["ts", "event_type", "value", "event_id"]
        )
        return ds.map_batches(
            lambda b, p=parity: b.filter(
                _pc.equal(
                    _pc.bit_wise_and(b["event_id"], pa.scalar(1, pa.int64())), p
                )
            ).drop_columns(["event_id"]),
            batch_format="pyarrow",
            zero_copy_batch=True,
        )

    with tempfile.TemporaryDirectory() as tmp:
        view_dir = os.path.join(tmp, "view")
        init_view(_half(0), view_dir)
        refresh_view(view_dir, _half(1))
        return view_version_diff(view_dir, 1, 2)


HOURLY_VIEW_VERSION_DIFF_SQL = """
WITH ev AS (
  SELECT epoch_us(ts) // 3600000000 AS hour, event_type,
         CAST(round(value * 100) AS BIGINT) AS cents,
         event_id % 2 AS odd
  FROM events
),
old AS (
  SELECT hour, event_type, count(*) AS n, sum(cents) AS c
  FROM ev WHERE odd = 0 GROUP BY 1, 2
),
new AS (
  SELECT hour, event_type, count(*) AS n, sum(cents) AS c
  FROM ev GROUP BY 1, 2
)
SELECT new.hour, new.event_type,
       CAST(coalesce(old.n, 0) AS BIGINT) AS n_old,
       CAST(new.n AS BIGINT) AS n_new,
       CAST(coalesce(old.c, 0) AS BIGINT) AS cents_old,
       CAST(new.c AS BIGINT) AS cents_new
FROM new LEFT JOIN old ON new.hour = old.hour AND new.event_type = old.event_type
WHERE coalesce(old.n, 0) <> new.n OR coalesce(old.c, 0) <> new.c
ORDER BY new.hour, new.event_type
"""


# ---------------------------------------------------------------------------
# CDC refresh with retractions (deletes maintain the view, not just appends)
# ---------------------------------------------------------------------------

def signed_hourly_event_counts(cdc: ray.data.Dataset) -> ray.data.Dataset:
    """Partial aggregate of a CDC batch carrying an ``op`` column
    (+1 insert / -1 delete): counts and cents fold SIGNED, so a delete
    retracts exactly what the original insert contributed."""
    from ray.data.aggregate import Sum

    def partial(batch: pa.Table) -> pa.Table:
        if batch.num_rows == 0 or batch.num_columns == 0:
            return _VIEW_SCHEMA.empty_table()
        op = pc.cast(batch["op"], pa.int64())
        hour = pc.divide(
            pc.cast(batch["ts"], pa.int64()), pa.scalar(3_600_000_000, pa.int64())
        )
        cents = pc.multiply(
            pc.cast(
                pc.round(pc.multiply(batch["value"], pa.scalar(100.0))), pa.int64()
            ),
            op,
        )
        return (
            pa.table(
                {
                    "hour": hour,
                    "event_type": batch["event_type"],
                    "n": op,
                    "value_cents": cents,
                }
            )
            .group_by(["hour", "event_type"])
            .aggregate([("n", "sum"), ("value_cents", "sum")])
            .rename_columns(["hour", "event_type", "n", "value_cents"])
        )

    return (
        cdc.map_batches(partial, batch_format="pyarrow", zero_copy_batch=True)
        .groupby(["hour", "event_type"])
        .aggregate(Sum("n", alias_name="n"), Sum("value_cents", alias_name="value_cents"))
    )


def refresh_view_cdc(view_dir: str, cdc: ray.data.Dataset) -> str:
    """Maintain the view from a CDC batch WITH deletes: fold signed
    partials into the live artifact and DROP cells retracted to zero —
    a cell whose every contributing row was deleted must disappear, or
    the view diverges from a full recompute (COUNT/SUM are
    self-maintainable under retraction only with the zero-row cleanup).
    Commits v{N+1} through the shared staged protocol."""
    from ray.data.aggregate import Sum

    vs = committed_versions(view_dir, "_SUCCESS")
    if not vs:
        raise FileNotFoundError(f"no committed view version under {view_dir}")
    live = current_view(view_dir)
    merged = (
        live.union(signed_hourly_event_counts(cdc))
        .groupby(["hour", "event_type"])
        .aggregate(Sum("n", alias_name="n"), Sum("value_cents", alias_name="value_cents"))
    )

    def drop_zero(batch: pa.Table) -> pa.Table:
        if batch.num_rows == 0 or batch.num_columns == 0:
            return _VIEW_SCHEMA.empty_table()
        return batch.select(_VIEW_SCHEMA.names).cast(_VIEW_SCHEMA).filter(
            pc.not_equal(pc.cast(batch["n"], pa.int64()), pa.scalar(0, pa.int64()))
        )

    cleaned = merged.map_batches(drop_zero, batch_format="pyarrow")
    return _commit(cleaned, view_dir, vs[-1] + 1, {"op": "refresh_cdc", "prev": vs[-1]})


def hourly_view_after_cdc(sf_dir: str) -> pa.Table:
    """Driver-checkable end-to-end retraction: initialize the view over
    the FULL events table, apply a CDC batch that deletes event_id % 7 == 3
    and inserts shifted repriced copies of event_id % 11 == 1 (+3 h,
    +50.00), and return the maintained artifact — which must equal the
    plain aggregate over the mutated table (the retraction oracle)."""
    import tempfile

    from ..sources.pages import read_table

    base = read_table(sf_dir, "events", columns=["ts", "event_type", "value"])

    # build the CDC batch with plain vectorized selections
    full = read_table(
        sf_dir, "events", columns=["ts", "event_type", "value", "event_id"]
    )

    def make_cdc(batch: pa.Table) -> pa.Table:
        schema = pa.schema(
            [
                ("ts", pa.timestamp("us")),
                ("event_type", pa.string()),
                ("value", pa.float64()),
                ("op", pa.int64()),
            ]
        )
        if batch.num_rows == 0 or batch.num_columns == 0:
            return schema.empty_table()
        eid = pc.cast(batch["event_id"], pa.int64()).to_numpy(zero_copy_only=False)
        import numpy as np

        dmask = pa.array(eid % 7 == 3)
        imask = pa.array(eid % 11 == 1)
        dels = batch.filter(dmask)
        ins = batch.filter(imask)
        three_h = pa.scalar(3 * 3_600_000_000, pa.int64())
        return pa.table(
            {
                "ts": pa.concat_arrays(
                    [
                        pc.cast(dels["ts"], pa.timestamp("us")).combine_chunks(),
                        pc.cast(
                            pc.add(pc.cast(pc.cast(ins["ts"], pa.timestamp("us")), pa.int64()), three_h),
                            pa.timestamp("us"),
                        ).combine_chunks(),
                    ]
                ),
                "event_type": pa.concat_arrays(
                    [dels["event_type"].combine_chunks(), ins["event_type"].combine_chunks()]
                ),
                "value": pa.concat_arrays(
                    [
                        pc.cast(dels["value"], pa.float64()).combine_chunks(),
                        pc.add(pc.cast(ins["value"], pa.float64()), pa.scalar(50.0)).combine_chunks(),
                    ]
                ),
                "op": pa.concat_arrays(
                    [
                        pa.array([-1] * dels.num_rows, pa.int64()),
                        pa.array([1] * ins.num_rows, pa.int64()),
                    ]
                ),
            }
        )

    cdc = full.map_batches(make_cdc, batch_format="pyarrow", zero_copy_batch=True)

    with tempfile.TemporaryDirectory() as tmp:
        view_dir = os.path.join(tmp, "view")
        init_view(base, view_dir)
        refresh_view_cdc(view_dir, cdc)
        out = current_view(view_dir).to_pandas()  # view-sized: (hours x types)
    out = out.sort_values(["hour", "event_type"], ignore_index=True)
    return pa.Table.from_pandas(out, schema=_VIEW_SCHEMA, preserve_index=False)


HOURLY_VIEW_AFTER_CDC_SQL = """
WITH mutated AS (
  SELECT ts, event_type, value FROM events WHERE event_id % 7 <> 3
  UNION ALL
  SELECT ts + INTERVAL 3 HOUR AS ts, event_type, value + 50.0 AS value
  FROM events WHERE event_id % 11 = 1
)
SELECT epoch_us(ts) // 3600000000 AS hour, event_type,
       count(*) AS n,
       CAST(sum(CAST(round(value * 100) AS BIGINT)) AS BIGINT) AS value_cents
FROM mutated
GROUP BY 1, 2
ORDER BY hour, event_type
"""
