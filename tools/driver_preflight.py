"""Driver-tier preflight: replicate the harness's correctness gate locally
— run the first DRIVER_CAP (50) queries() entries at sf0.01; for SQL-backed
ones compare row count, column names, and order-insensitive values against
DuckDB (the same comparison the driver hashes).  Run before shipping a
round."""

from __future__ import annotations

import os
import sys

import duckdb
import numpy as np
import pandas as pd

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))

SF = os.environ.get("PREFLIGHT_SF", "/root/testdata/sf0.01")
TABLES = [
    "region", "nation", "customer", "supplier", "part",
    "orders", "lineitem", "events", "documents", "embeddings",
]


def _canon(df: pd.DataFrame) -> pd.DataFrame:
    df = df[sorted(df.columns)].copy()
    for c in df.columns:
        if pd.api.types.is_float_dtype(df[c]):
            df[c] = df[c].round(6)
        if pd.api.types.is_datetime64_any_dtype(df[c]):
            df[c] = df[c].astype("datetime64[us]")
        if pd.api.types.is_integer_dtype(df[c]):
            df[c] = df[c].astype("int64")
        if df[c].dtype == object and len(df) and isinstance(df[c].iloc[0], np.integer):
            df[c] = df[c].astype("int64")
    return df.sort_values(list(df.columns), ignore_index=True)


def main() -> int:
    import ray

    if not ray.is_initialized():
        ray.init(
            address="local",
            num_cpus=int(os.environ.get("RAY_GRAFT_CPUS", "16")),
            include_dashboard=False,
            logging_level="ERROR",
        )
    from ray.data import DataContext

    DataContext.get_current().enable_progress_bars = False
    import pyarrow as pa
    import ray.data as rd

    import __ray_entry__ as entry
    from docling_jobkit_ray.queries import DRIVER_CAP

    qs = entry.queries()
    oracles = entry.oracle_sql()
    cap = list(qs)[:DRIVER_CAP]
    failures = []
    for name in cap:
        try:
            res = qs[name](SF)
            if isinstance(res, rd.Dataset):
                got = res.to_pandas()
            elif isinstance(res, pa.Table):
                got = res.to_pandas()
            else:
                got = res
            if name not in oracles:
                print(f"ROWS  {name}  ({len(got)} rows)")
                continue
            con = duckdb.connect()
            for t in TABLES:
                con.execute(
                    f"CREATE VIEW {t} AS SELECT * FROM read_parquet('{SF}/{t}.parquet')"
                )
            want = con.execute(oracles[name]).fetchdf()
            g, w = _canon(got), _canon(want)
            assert list(g.columns) == list(w.columns), (
                f"columns {list(g.columns)} != {list(w.columns)}"
            )
            assert len(g) == len(w), f"{len(g)} rows != {len(w)}"
            pd.testing.assert_frame_equal(g, w, check_exact=False, rtol=0, atol=5e-7)
            print(f"OK    {name}  ({len(g)} rows)")
        except Exception as exc:  # noqa: BLE001
            failures.append(name)
            print(f"FAIL  {name}: {exc}")
    print(
        f"\n{len(cap) - len(failures)}/{len(cap)} green"
        + (f"; FAILURES: {failures}" if failures else "")
    )
    ray.shutdown()
    return 1 if failures else 0


if __name__ == "__main__":
    raise SystemExit(main())
