"""Persisted table-statistics catalog — the per-column sketch set a query
optimizer / ingest monitor keeps (row count, HLL distinct, t-digest
quantiles), maintained INCREMENTALLY: a delta batch refreshes the catalog
by MERGING sketches, never rescanning the base.

Why this composes correctly: all three statistics are mergeable summaries
(Agarwal et al., PODS 2012) — exact counts add, HLL registers max (refresh
is BIT-EQUAL to a full rebuild), t-digests merge within their documented
rank-error bound.  The artifact is one parquet row per column (serialized
sketch blobs) under the same versioned staged-write/_SUCCESS/rename commit
protocol as the bloom index and the materialized view.
"""

from __future__ import annotations

import json
import os

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import ray.data

from ..exchange import bucket_exchange
from ..state.commit import committed_versions, staged_dir
from .profile import _EVENT_SPECS, _as_int64
from .sketches import HyperLogLog, TDigest

__all__ = [
    "column_sketch_rows",
    "init_stats",
    "refresh_stats",
    "current_stats",
    "table_stats_events",
]

_CAT_SCHEMA = pa.schema(
    [
        ("col", pa.string()),
        ("n", pa.int64()),
        ("hll", pa.binary()),
        ("tdigest", pa.binary()),
    ]
)


def column_sketch_rows(
    ds: ray.data.Dataset, specs: list[tuple[str, str]], *, p: int = 12
) -> ray.data.Dataset:
    """One catalog row per column: exact n + HLL + t-digest, folded through
    ``groupby(col)`` — the driver never sees more than |columns| rows."""

    def partial(batch: pa.Table) -> pa.Table:
        rows = {"col": [], "n": [], "hll": [], "tdigest": []}
        for name, kind in specs:
            v = _as_int64(batch[name], kind)
            vals = v.drop_null().to_numpy(zero_copy_only=False).astype(np.float64)
            hll = HyperLogLog(p)
            hll.add_values(v.drop_null().to_pylist())
            td = TDigest.from_values(vals) if len(vals) else TDigest()
            rows["col"].append(name)
            rows["n"].append(batch.num_rows)
            rows["hll"].append(hll.serialize())
            rows["tdigest"].append(td.serialize())
        return pa.table(
            {
                "col": pa.array(rows["col"], pa.string()),
                "n": pa.array(rows["n"], pa.int64()),
                "hll": pa.array(rows["hll"], pa.binary()),
                "tdigest": pa.array(rows["tdigest"], pa.binary()),
            }
        )

    def fold(group: pa.Table) -> pa.Table:
        hll = None
        td = None
        for h, t in zip(group["hll"].to_pylist(), group["tdigest"].to_pylist()):
            h2, t2 = HyperLogLog.deserialize(h), TDigest.deserialize(t)
            hll = h2 if hll is None else hll.merge(h2)
            td = t2 if td is None else td.merge(t2)
        return pa.table(
            {
                "col": pa.array([group["col"][0].as_py()], pa.string()),
                "n": pa.array([int(pc.sum(group["n"]).as_py())], pa.int64()),
                "hll": pa.array([hll.serialize()], pa.binary()),
                "tdigest": pa.array([td.serialize()], pa.binary()),
            }
        )

    return bucket_exchange(
        ds, fold, key="col", schema=_CAT_SCHEMA, out_schema=_CAT_SCHEMA, emit=partial
    )


def _commit(tbl: pa.Table, cat_dir: str, version: int, meta: dict) -> str:
    import pyarrow.parquet as pq

    final = os.path.join(cat_dir, f"v{version}")
    with staged_dir(final, marker="_SUCCESS") as st:
        pq.write_table(tbl, os.path.join(st.path, "stats.parquet"))
        st.marker_text = json.dumps(meta)
    return final


def init_stats(
    ds: ray.data.Dataset, cat_dir: str, specs: list[tuple[str, str]] = _EVENT_SPECS
) -> str:
    rows = column_sketch_rows(ds, specs)
    tbl = pa.Table.from_pandas(
        rows.to_pandas().sort_values("col", ignore_index=True),  # |columns| rows
        schema=_CAT_SCHEMA,
        preserve_index=False,
    )
    return _commit(tbl, cat_dir, 1, {"op": "init"})


def current_stats(cat_dir: str) -> pa.Table | None:
    import pyarrow.parquet as pq

    vs = committed_versions(cat_dir, "_SUCCESS")
    if not vs:
        return None
    return pq.read_table(os.path.join(cat_dir, f"v{vs[-1]}", "stats.parquet"))


def refresh_stats(
    cat_dir: str,
    delta: ray.data.Dataset,
    specs: list[tuple[str, str]] = _EVENT_SPECS,
) -> str:
    """Merge the delta's column sketches into the live catalog (driver-side
    merge of |columns| sketch pairs) and commit v{N+1}."""
    vs = committed_versions(cat_dir, "_SUCCESS")
    if not vs:
        raise FileNotFoundError(f"no committed stats version under {cat_dir}")
    live = current_stats(cat_dir).to_pandas().set_index("col")
    d = column_sketch_rows(delta, specs).to_pandas().set_index("col")
    rows = {"col": [], "n": [], "hll": [], "tdigest": []}
    for col in sorted(set(live.index) | set(d.index)):
        srcs = [f for f in (live, d) if col in f.index]
        n = sum(int(f.loc[col, "n"]) for f in srcs)
        hll = None
        td = None
        for f in srcs:
            h2 = HyperLogLog.deserialize(f.loc[col, "hll"])
            t2 = TDigest.deserialize(f.loc[col, "tdigest"])
            hll = h2 if hll is None else hll.merge(h2)
            td = t2 if td is None else td.merge(t2)
        rows["col"].append(col)
        rows["n"].append(n)
        rows["hll"].append(hll.serialize())
        rows["tdigest"].append(td.serialize())
    tbl = pa.table(
        {
            "col": pa.array(rows["col"], pa.string()),
            "n": pa.array(rows["n"], pa.int64()),
            "hll": pa.array(rows["hll"], pa.binary()),
            "tdigest": pa.array(rows["tdigest"], pa.binary()),
        }
    )
    return _commit(tbl, cat_dir, vs[-1] + 1, {"op": "refresh", "prev": vs[-1]})


def table_stats_events(sf_dir: str) -> pa.Table:
    """Driver-checkable view of the catalog: init over the even event_ids,
    refresh with the odd half, report (col, n, approx_distinct, q50) from
    the REFRESHED artifact — n is exact, the HLL is bit-equal to a full
    build by merge algebra, the t-digest median is rank-bounded."""
    import tempfile

    from ..sources.pages import read_table

    def _half(parity: int) -> ray.data.Dataset:
        ds = read_table(
            sf_dir, "events", columns=[c for c, _ in _EVENT_SPECS]
        )
        return ds.map_batches(
            lambda b, pr=parity: b.filter(
                pc.equal(pc.bit_wise_and(b["event_id"], pa.scalar(1, pa.int64())), pr)
            ),
            batch_format="pyarrow",
            zero_copy_batch=True,
        )

    with tempfile.TemporaryDirectory() as tmp:
        cat = os.path.join(tmp, "stats")
        init_stats(_half(0), cat)
        refresh_stats(cat, _half(1))
        t = current_stats(cat)
    cols, ns, nd, q50 = [], [], [], []
    for i in range(t.num_rows):
        cols.append(t["col"][i].as_py())
        ns.append(t["n"][i].as_py())
        nd.append(int(round(HyperLogLog.deserialize(t["hll"][i].as_py()).estimate())))
        q50.append(float(TDigest.deserialize(t["tdigest"][i].as_py()).quantile(0.5)))
    return pa.table(
        {
            "col": pa.array(cols, pa.string()),
            "n": pa.array(ns, pa.int64()),
            "approx_distinct": pa.array(nd, pa.int64()),
            "q50": pa.array(q50, pa.float64()),
        }
    )
