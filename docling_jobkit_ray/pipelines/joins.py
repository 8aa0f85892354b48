"""Bucketed shuffle join — a hash join built from one bucket exchange +
per-bucket Arrow joins.

Why not ``Dataset.join`` everywhere: Ray 2.49's native hash-shuffle join
(``ray/data/_internal/execution/operators/join.py:finalize``) builds each
partition side with an ``ArrowBlockBuilder``; a partition that receives ZERO
shards from one side builds an EMPTY table with NO schema, and the per-
partition ``pyarrow.Table.join`` then fails with ``ArrowInvalid: No match or
multiple matches for key field reference ... on right side``.  Any join where
one side is sparse (a heavily filtered dimension, an LSH candidate set) hits
this as soon as ``num_partitions`` exceeds the sparse side's row spread.  We
keep ``Dataset.join`` for dense-x-dense joins (``join_orders_customer_shuffle``)
and use this helper when a side can be sparse.

Shape: both sides are tagged and widened to a shared superset schema (typed
Arrow nulls, so dtypes survive the shuffle exactly), unioned, hash-bucketed
on the key (`key % num_buckets` — the CLAUDE.md bucketize rule) through
``exchange.bucket_exchange`` (``exchange.py`` is the only module that calls
``map_groups``; tests/test_exchange.py guards it), and each bucket group
runs ONE in-memory ``pyarrow.Table.join``.  The shuffle payload
is the same rows a native hash join would move; the per-bucket join is acero
(C++), not a Python row loop.  Skewed keys: a bucket holds many keys, so one
hot key cannot exceed a bucket; crank ``num_buckets`` for wider spread.
"""

from __future__ import annotations

import pyarrow as pa
import pyarrow.compute as pc
import ray.data

from ..exchange import bucket_exchange

_SIDE = "__bj_side"
_BUCKET = "__bj_bucket"


def bucketed_join(
    left: ray.data.Dataset,
    right: ray.data.Dataset,
    *,
    on: str,
    right_on: str,
    left_schema: pa.Schema,
    right_schema: pa.Schema,
    join_type: str = "inner",
    num_buckets: int | None = None,
    est_rows: int | None = None,
) -> ray.data.Dataset:
    """Join two datasets on integer key columns ``on`` (left) / ``right_on``
    (right).  Column names (other than the keys) must be disjoint.  Output
    columns follow ``pyarrow.Table.join``: left columns then right columns,
    with the right key column dropped.

    ``left_schema`` / ``right_schema`` are passed explicitly because calling
    ``Dataset.schema()`` on a lazy pipeline executes it.  Pass ``est_rows``
    (an estimate of the LARGER side's row count, e.g. from
    ``scale.estimate_table_rows`` — footer metadata only) to derive a
    scale-appropriate ``num_buckets``; a bucket group holds
    ~rows/num_buckets rows of both sides in one worker's heap, so a fixed
    count does not survive 100x growth."""
    if num_buckets is None:
        from ..scale import bucket_count

        num_buckets = bucket_count(est_rows or 0, min_buckets=64)
    if num_buckets & (num_buckets - 1):
        raise ValueError("num_buckets must be a power of two")
    if not pa.types.is_integer(left_schema.field(on).type):
        raise TypeError(f"bucketed_join requires an integer key; got {left_schema.field(on).type}")
    overlap = (set(left_schema.names) - {on}) & (set(right_schema.names) - {right_on})
    if overlap:
        raise ValueError(f"overlapping non-key columns: {sorted(overlap)}")

    left_names = list(left_schema.names)
    right_names = list(right_schema.names)
    superset = list(left_schema) + [f for f in right_schema]

    def _widen(side: int, key: str, own: pa.Schema):
        own_names = set(own.names)

        def fn(batch: pa.Table) -> pa.Table:
            n = batch.num_rows
            arrays, names = [], []
            for f in superset:
                names.append(f.name)
                if f.name in own_names:
                    arrays.append(pc.cast(batch[f.name], f.type))
                else:
                    arrays.append(pa.nulls(n, f.type))
            names.append(_SIDE)
            arrays.append(pa.array([side] * n, pa.int8()))
            names.append(_BUCKET)
            bucket = pc.bit_wise_and(
                pc.cast(batch[key], pa.int64()), pa.scalar(num_buckets - 1, pa.int64())
            )
            arrays.append(bucket)
            return pa.table(dict(zip(names, arrays)))

        return fn

    lt = left.map_batches(_widen(0, on, left_schema), batch_format="pyarrow", zero_copy_batch=True)
    rt = right.map_batches(_widen(1, right_on, right_schema), batch_format="pyarrow", zero_copy_batch=True)

    expected = pa.schema(
        superset + [pa.field(_SIDE, pa.int8()), pa.field(_BUCKET, pa.int64())]
    )

    def merge(group: pa.Table) -> pa.Table:
        side = group[_SIDE]
        l_part = group.filter(pc.equal(side, 0)).select(left_names)
        r_part = group.filter(pc.equal(side, 1)).select(right_names)
        return l_part.join(
            r_part, keys=[on], right_keys=[right_on], join_type=join_type
        )

    out_schema = pa.schema(
        list(left_schema) + [f for f in right_schema if f.name != right_on]
    )
    return bucket_exchange(
        lt.union(rt), merge, key=_BUCKET, schema=expected, out_schema=out_schema
    )


def key_bloom(
    ds: ray.data.Dataset, column: str, *, bits_per_key: int = 16
) -> tuple[bytes, int, int]:
    """Build a single Bloom filter over an integer key column: each batch
    emits its distinct keys, the driver unions them and sizes the filter
    from the GLOBAL distinct count.

    Intended for the SMALL/selective side of a join (a filtered dimension):
    the filter is the side's distinct-key count x 2 bytes, broadcast once.
    Returns (filter bytes, m_bits, k_hashes)."""
    import numpy as np

    from ..functions.bloom import _positions

    k_hashes = max(1, round(0.693 * bits_per_key))

    def partial(batch: pa.Table) -> pa.Table:
        keys = np.unique(
            batch[column].to_numpy(zero_copy_only=False).astype(np.int64)
        )
        return pa.table({"keys": pa.array([keys.tobytes()], pa.binary())})

    # bounded: callers pass the small (dimension) side; one distinct-key row per block
    parts = ds.map_batches(partial, batch_format="pyarrow", zero_copy_batch=True).take_all()
    all_keys = np.unique(
        np.concatenate(
            [np.frombuffer(r["keys"], np.int64) for r in parts]
            or [np.empty(0, np.int64)]
        )
    )
    m_bits = max(64, int(len(all_keys) * bits_per_key))
    bloom = np.zeros((m_bits + 7) // 8, dtype=np.uint8)
    if len(all_keys):
        # spread integer keys through the same mixed double-hashing the
        # bloom module uses (raw small ints would stripe the table)
        pos = _positions(all_keys.view(np.uint64), k_hashes, m_bits)
        np.bitwise_or.at(bloom, pos >> 3, np.uint8(1) << (pos & 7).astype(np.uint8))
    return bloom.tobytes(), m_bits, k_hashes


def bloom_prefiltered_join(
    left: ray.data.Dataset,
    right: ray.data.Dataset,
    *,
    on: str,
    right_on: str,
    left_schema: pa.Schema,
    right_schema: pa.Schema,
    join_type: str = "inner",
    num_buckets: int | None = None,
    est_rows: int | None = None,
    bits_per_key: int = 16,
) -> ray.data.Dataset:
    """``bucketed_join`` with a Bloom prefilter on the LEFT (fact) side:
    a filter over the right side's keys is built once and broadcast via
    closure, and fact rows whose key is definitely absent never enter the
    all-to-all exchange.

    Results are EXACTLY those of the plain join for inner/semi types —
    the bloom only prunes definite non-matches; false positives ride
    through to the exact in-bucket join.  The win is shuffle bytes: with
    a selective right side (e.g. a filtered dimension keeping 1% of
    keys), ~99% of the fact table drops before the exchange.  Do NOT use
    for join types that must keep unmatched left rows (left outer/anti)."""
    if join_type in ("left outer", "full outer", "left anti"):
        raise ValueError(f"bloom prefilter would drop unmatched left rows under {join_type!r}")
    import numpy as np

    from ..functions.bloom import _positions

    right = right.materialize()  # consumed twice: bloom build + join side
    bloom_bytes, m_bits, k_hashes = key_bloom(right, right_on, bits_per_key=bits_per_key)
    bloom = np.frombuffer(bloom_bytes, np.uint8)

    def prefilter(batch: pa.Table) -> pa.Table:
        keys = batch[on].to_numpy(zero_copy_only=False).astype(np.int64)
        pos = _positions(keys.view(np.uint64), k_hashes, m_bits)
        hit = ((bloom[pos >> 3] >> (pos & 7).astype(np.uint8)) & 1).all(axis=1)
        return batch.filter(pa.array(hit))

    pruned = left.map_batches(prefilter, batch_format="pyarrow", zero_copy_batch=True)
    return bucketed_join(
        pruned,
        right,
        on=on,
        right_on=right_on,
        left_schema=left_schema,
        right_schema=right_schema,
        join_type=join_type,
        num_buckets=num_buckets,
        est_rows=est_rows,
    )


# ---------------------------------------------------------------------------
# coordinated (join-preserving) sampling
# ---------------------------------------------------------------------------
#
# Sample BOTH sides of a join with the SAME deterministic hash rule on the
# join key, so the join of the samples IS the sample of the join — the
# estimator property that lets a 100 TB pipeline develop and validate on a
# 10% slice without ever materializing the full join (Vitter/AQUA-style
# coordinated sampling).  The keep rule is the repo's full-period Lehmer
# hash (see webtext.py: small multipliers degenerate to keeping a key
# PREFIX), exact int64 on both engines at any key magnitude.

_CSJ_M = 2147483647  # 2^31 - 1
_CSJ_A = 630360016  # full-period Fishman-Moore multiplier
_CSJ_THR = _CSJ_M // 10  # 10% of the key domain

_CSJ_UNION_SCHEMA = pa.schema(
    [
        ("bucket", pa.int64()),
        ("role", pa.int64()),
        ("okey", pa.int64()),
        ("prio", pa.string()),
        ("n_items", pa.int64()),
        ("cents", pa.int64()),
    ]
)
_CSJ_PART_SCHEMA = pa.schema(
    [
        ("o_orderpriority", pa.string()),
        ("n_orders", pa.int64()),
        ("n_items", pa.int64()),
        ("revenue_c4", pa.int64()),
    ]
)


def _csj_keep(keys):
    import numpy as np

    return ((keys % _CSJ_M) * _CSJ_A) % _CSJ_M < _CSJ_THR


def coordinated_sample_join(sf_dir: str, *, n_buckets: int | None = None):
    """Revenue per order priority over a coordinated 10% sample of
    orders JOIN lineitem: both tables keep an orderkey iff
    ``((k % m) * a) % m < m // 10`` — the same rule, so every sampled
    lineitem finds its order and the join is complete by construction.

    Plan shape (the q3 rule: fold the pre-join aggregation into the SAME
    bucket shuffle): per-batch rule filter on each side, per-batch lineitem
    partial aggregation per orderkey, ONE orderkey-bucketed tagged-union
    exchange, per-bucket vectorized searchsorted join + per-priority
    partials, then a dimension-bounded final groupby (5 priorities)."""
    import numpy as np
    from ray.data.aggregate import Sum

    from ..scale import bucket_count, estimate_rows
    from ..sources.pages import read_table

    n_b = n_buckets or bucket_count(estimate_rows(sf_dir, "lineitem"))
    mask = np.int64(n_b - 1)

    orders = read_table(sf_dir, "orders", columns=["o_orderkey", "o_orderpriority"])
    li = read_table(
        sf_dir, "lineitem", columns=["l_orderkey", "l_extendedprice", "l_discount"]
    )

    def order_partial(batch: pa.Table) -> pa.Table:
        if batch.num_rows == 0 or batch.num_columns == 0:
            return _CSJ_UNION_SCHEMA.empty_table()
        okey = batch["o_orderkey"].to_numpy()
        sel = _csj_keep(okey)
        okey = okey[sel]
        prio = batch["o_orderpriority"].to_numpy(zero_copy_only=False)[sel]
        z = np.zeros(len(okey), np.int64)
        return pa.table(
            {
                "bucket": pa.array(okey & mask, pa.int64()),
                "role": pa.array(z, pa.int64()),
                "okey": pa.array(okey, pa.int64()),
                "prio": pa.array(prio, pa.string()),
                "n_items": pa.array(z, pa.int64()),
                "cents": pa.array(z, pa.int64()),
            }
        )

    def item_partial(batch: pa.Table) -> pa.Table:
        if batch.num_rows == 0 or batch.num_columns == 0:
            return _CSJ_UNION_SCHEMA.empty_table()
        okey = batch["l_orderkey"].to_numpy()
        sel = _csj_keep(okey)
        okey = okey[sel]
        # quantize price and discount SEPARATELY (each is a 2-dp decimal, so
        # *100 is never near a .5 boundary); the product is an exact int in
        # 1e-4 currency units — never round a 4-dp float (half-to-even vs
        # half-away diverges cross-engine)
        price_c = np.round(batch["l_extendedprice"].to_numpy()[sel] * 100.0).astype(np.int64)
        disc_c = np.round(batch["l_discount"].to_numpy()[sel] * 100.0).astype(np.int64)
        cents = price_c * (100 - disc_c)
        uk, inv = np.unique(okey, return_inverse=True)
        n = np.bincount(inv).astype(np.int64)
        c = np.zeros(len(uk), np.int64)
        np.add.at(c, inv, cents)
        return pa.table(
            {
                "bucket": pa.array(uk & mask, pa.int64()),
                "role": pa.array(np.ones(len(uk), np.int64), pa.int64()),
                "okey": pa.array(uk, pa.int64()),
                "prio": pa.array([""] * len(uk), pa.string()),
                "n_items": pa.array(n, pa.int64()),
                "cents": pa.array(c, pa.int64()),
            }
        )

    def join_bucket(group: pa.Table) -> pa.Table:
        role = group["role"].to_numpy()
        okey = group["okey"].to_numpy()
        o_sel = role == 0
        ok_o = okey[o_sel]
        prio_o = group["prio"].to_numpy(zero_copy_only=False)[o_sel]
        order_o = np.argsort(ok_o, kind="stable")
        ok_o, prio_o = ok_o[order_o], prio_o[order_o]
        ok_i = okey[~o_sel]
        n_i = group["n_items"].to_numpy()[~o_sel]
        c_i = group["cents"].to_numpy()[~o_sel]
        if len(ok_o) == 0 or len(ok_i) == 0:
            return _CSJ_PART_SCHEMA.empty_table()
        idx = np.searchsorted(ok_o, ok_i)
        idx_c = np.minimum(idx, len(ok_o) - 1)
        match = ok_o[idx_c] == ok_i
        hit = idx_c[match]
        prios, inv = np.unique(prio_o[hit], return_inverse=True)
        items = np.zeros(len(prios), np.int64)
        cents = np.zeros(len(prios), np.int64)
        np.add.at(items, inv, n_i[match])
        np.add.at(cents, inv, c_i[match])
        # n_orders: distinct matched order rows per priority
        uhit = np.unique(hit)
        upr, uinv = np.unique(prio_o[uhit], return_inverse=True)
        n_ord = np.bincount(uinv, minlength=len(prios)).astype(np.int64)
        assert list(upr) == list(prios) or len(uhit) == 0
        return pa.table(
            {
                "o_orderpriority": pa.array(prios, pa.string()),
                "n_orders": pa.array(n_ord, pa.int64()),
                "n_items": pa.array(items, pa.int64()),
                "revenue_c4": pa.array(cents, pa.int64()),
            }
        )

    tagged = orders.map_batches(
        order_partial, batch_format="pyarrow", zero_copy_batch=True
    ).union(li.map_batches(item_partial, batch_format="pyarrow", zero_copy_batch=True))
    return (
        bucket_exchange(
            tagged, join_bucket, schema=_CSJ_UNION_SCHEMA, out_schema=_CSJ_PART_SCHEMA
        )
        .groupby("o_orderpriority")
        .aggregate(
            Sum(on="n_orders", alias_name="n_orders"),
            Sum(on="n_items", alias_name="n_items"),
            Sum(on="revenue_c4", alias_name="revenue_c4"),
        )
        .sort("o_orderpriority")
    )


COORDINATED_SAMPLE_JOIN_SQL = f"""
WITH so AS (
  SELECT o_orderkey, o_orderpriority FROM orders
  WHERE ((o_orderkey % {_CSJ_M}) * {_CSJ_A}) % {_CSJ_M} < {_CSJ_THR}),
sl AS (
  SELECT l_orderkey,
         CAST(round(l_extendedprice * 100) AS BIGINT)
           * (100 - CAST(round(l_discount * 100) AS BIGINT)) AS cents
  FROM lineitem
  WHERE ((l_orderkey % {_CSJ_M}) * {_CSJ_A}) % {_CSJ_M} < {_CSJ_THR})
SELECT o_orderpriority,
       count(DISTINCT so.o_orderkey) AS n_orders,
       count(*) AS n_items,
       CAST(sum(cents) AS BIGINT) AS revenue_c4
FROM so JOIN sl ON sl.l_orderkey = so.o_orderkey
GROUP BY o_orderpriority
ORDER BY o_orderpriority
"""


def auto_join(
    left: ray.data.Dataset,
    right: ray.data.Dataset,
    *,
    on: str,
    right_on: str,
    left_schema: pa.Schema,
    right_schema: pa.Schema,
    join_type: str = "inner",
    est_right_rows: int | None = None,
    broadcast_threshold: int = 200_000,
    est_rows: int | None = None,
) -> ray.data.Dataset:
    """Size-adaptive join: when the RIGHT side is provably small
    (``est_right_rows`` <= ``broadcast_threshold`` — pass a parquet-footer
    count from ``scale.estimate_table_rows``, free and exact), collect it
    ONCE and run a per-batch Arrow (Acero) hash join inside ``map_batches``
    — the broadcast plan, zero exchange, the left side streams untouched.
    Otherwise fall back to :func:`bucketed_join` (one all-to-all).

    This is the planner decision every distributed engine makes at the
    dimension/fact boundary; here it is explicit and testable — both paths
    produce identical row SETS (order differs: order-sensitive callers
    sort, as every SQL-checked pipeline here already does).

    The broadcast side is shipped via closure -> Ray object store once per
    actor/task, never per batch; duplicate right keys, all join types and
    arbitrary column types ride Acero's own semantics, so the two paths
    cannot drift."""
    if est_right_rows is not None and est_right_rows <= broadcast_threshold:
        # bounded: est_right_rows <= broadcast_threshold, re-checked below
        rt = pa.Table.from_pylist(right.take_all(), schema=right_schema)
        if rt.num_rows > max(broadcast_threshold, 1) * 2:
            raise ValueError(
                f"auto_join: right side materialized {rt.num_rows} rows, far "
                f"past the estimate {est_right_rows} — refusing to broadcast"
            )

        def bjoin(batch: pa.Table) -> pa.Table:
            if batch.num_rows == 0 or batch.num_columns == 0:
                # preserve the joined schema for empty blocks
                return left_schema.empty_table().join(
                    rt, keys=on, right_keys=right_on, join_type=join_type
                )
            return batch.select(left_schema.names).cast(left_schema).join(
                rt, keys=on, right_keys=right_on, join_type=join_type
            )

        return left.map_batches(bjoin, batch_format="pyarrow", zero_copy_batch=True)
    return bucketed_join(
        left,
        right,
        on=on,
        right_on=right_on,
        left_schema=left_schema,
        right_schema=right_schema,
        join_type=join_type,
        est_rows=est_rows,
    )
