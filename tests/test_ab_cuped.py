"""ab_cuped_uplift on a degenerate input: one arm has no users.

The SQL oracle's per-arm subqueries find no row for the empty arm, so its
count and both uplifts are NULL; the pipeline must return the same row
instead of dividing by zero.
"""

from __future__ import annotations

import os

import duckdb
import pyarrow as pa
import pyarrow.parquet as pq


def _write_events(src: str, user_ids: list[int]) -> None:
    n = 4 * len(user_ids)
    os.makedirs(src)
    pq.write_table(
        pa.table(
            {
                "event_id": pa.array(range(n), pa.int64()),
                # two days apart per round, so both the pre and post periods
                # hold spend
                "ts": pa.array(
                    [1_700_000_000_000_000 + i * 43_200_000_000 for i in range(n)],
                    pa.timestamp("us"),
                ),
                "user_id": pa.array([user_ids[i % len(user_ids)] for i in range(n)], pa.int64()),
                "event_type": pa.array(["purchase"] * n, pa.string()),
                "value": pa.array([1.25 + (i % 7) for i in range(n)], pa.float64()),
                "props": pa.array(["{}"] * n, pa.string()),
            }
        ),
        f"{src}/events.parquet",
    )


def test_empty_arm_gives_oracle_null_row(ray_session, tmp_path):
    from docling_jobkit_ray.pipelines.behavior import (
        _AB_LEHMER_A,
        _AB_LEHMER_M,
        AB_CUPED_UPLIFT_SQL,
        ab_cuped_uplift,
    )

    # only treatment-arm users: the control arm is empty
    treated = [u for u in range(1, 500) if (u % _AB_LEHMER_M) * _AB_LEHMER_A % _AB_LEHMER_M % 2 == 1][:6]
    src = str(tmp_path / "src")
    _write_events(src, treated)

    got = ab_cuped_uplift(src).to_pylist()
    con = duckdb.connect()
    con.execute(f"CREATE VIEW events AS SELECT * FROM read_parquet('{src}/events.parquet')")
    cols = [d[0] for d in con.execute(AB_CUPED_UPLIFT_SQL).description]
    want = [dict(zip(cols, row)) for row in con.execute(AB_CUPED_UPLIFT_SQL).fetchall()]

    assert got == want
    assert got[0]["n_c"] is None and got[0]["n_t"] == len(treated)
    assert got[0]["raw_uplift_e6"] is None and got[0]["cuped_uplift_e6"] is None
