"""The one per-key exchange: keyed emit -> shuffle -> per-group fold.

Every bucketed operator (the CLAUDE.md bucketize rule) has the same
shape: a map tags each row with a small integer key (``bucket``, sized by
``scale.bucket_count``), a sort-based ``groupby(key).map_groups`` co-locates
the rows of one key, and a fold runs once per key.  Two guards travel
with that shape and are written here once:

- an empty or column-less block (an empty read, a filter that kept no
  rows, a shuffle output split wide) yields the declared empty table
  instead of reaching the UDF, so no UDF indexes a missing column and
  downstream schema unification never sees a schema-less block;
- a group that crossed the shuffle is re-selected and cast to the wire
  ``schema``: a pandas round trip turns an all-null column into the
  ``null`` type and can reorder columns, and the fold's Arrow kernels
  expect the declared types.

The transport is Ray's default (sort-based) groupby; choosing another one
(a hash shuffle, ``repartition(keys=)``) is a change to this function only.
"""

from __future__ import annotations

from collections.abc import Callable
from typing import Any

import pyarrow as pa
import ray.data
from ray.data.block import BlockAccessor


def bucket_exchange(
    ds: ray.data.Dataset,
    fold: Callable[[Any], Any],
    *,
    key: str | list[str] = "bucket",
    schema: pa.Schema,
    out_schema: pa.Schema,
    emit: Callable[[pa.Table], pa.Table] | None = None,
    batch_format: str = "pyarrow",
) -> ray.data.Dataset:
    """Run ``emit`` (optional, an Arrow batch -> keyed ``schema`` rows map),
    group on ``key`` and apply ``fold`` once per key.

    ``fold`` receives the group as ``group.select(schema.names).cast(schema)``
    in ``batch_format`` ("pyarrow" or "pandas", converted by Ray's own block
    accessor) and returns rows of ``out_schema``; an empty input block
    yields ``schema.empty_table()`` from the emit and
    ``out_schema.empty_table()`` from the fold without calling either."""
    if emit is not None:

        def keyed(batch: pa.Table) -> pa.Table:
            if batch.num_rows == 0 or batch.num_columns == 0:
                return schema.empty_table()
            return emit(batch)

        keyed.__name__ = getattr(emit, "__name__", type(emit).__name__)
        ds = ds.map_batches(keyed, batch_format="pyarrow", zero_copy_batch=True)

    def folded(group: pa.Table) -> Any:
        if group.num_rows == 0 or group.num_columns == 0:
            return out_schema.empty_table()
        group = group.select(schema.names).cast(schema)
        if batch_format != "pyarrow":
            group = BlockAccessor.for_block(group).to_batch_format(batch_format)
        return fold(group)

    folded.__name__ = fold.__name__
    return ds.groupby(key).map_groups(folded, batch_format="pyarrow")
