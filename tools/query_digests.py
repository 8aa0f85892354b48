"""Result digests of registered queries: one ``name digest rows`` line per
query, so two commits' outputs can be compared with ``diff``.

The digest is order-free (sorted column names, then the sorted ``repr``
of every row's Python values), so it holds across block layouts and
shuffle orders but changes with any value, type or column name.  A query
that raises prints ``name ERROR <exception type>``.

Usage:  python tools/query_digests.py --sf /root/testdata/sf0.001 [--only a,b]
"""

from __future__ import annotations

import argparse
import hashlib
import os
import sys

import numpy as np
import pandas as pd
import pyarrow as pa

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))


def _py(v):
    if isinstance(v, np.ndarray):
        return [_py(x) for x in v.tolist()]
    if isinstance(v, (list, tuple)):
        return [_py(x) for x in v]
    return v.item() if hasattr(v, "item") else v


def result_digest(result) -> tuple[str, int]:
    """Order-free digest of a query result: sorted column names, then the
    sorted ``repr`` of every row's Python values."""
    import ray.data

    if isinstance(result, (ray.data.Dataset, pa.Table)):
        result = result.to_pandas()
    elif not isinstance(result, pd.DataFrame):
        result = pd.DataFrame(result)
    cols = sorted(result.columns)
    lines = sorted(
        repr([_py(v) for v in row]) for row in result[cols].itertuples(index=False)
    )
    blob = (repr(cols) + "\n" + "\n".join(lines)).encode()
    return hashlib.sha256(blob).hexdigest()[:16], len(lines)


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--sf", required=True, help="scale-factor directory")
    ap.add_argument("--only", default="", help="comma-separated query names")
    args = ap.parse_args()

    import ray

    ray.init(
        address="local",
        num_cpus=int(os.environ.get("RAY_GRAFT_CPUS", "4")),
        include_dashboard=False,
        logging_level="ERROR",
        log_to_driver=False,  # worker prints would interleave with the lines
    )
    from ray.data import DataContext

    DataContext.get_current().enable_progress_bars = False
    from docling_jobkit_ray.queries import queries

    qs = queries()
    names = [n for n in args.only.split(",") if n] or list(qs)
    for name in names:
        try:
            digest, rows = result_digest(qs[name](args.sf))
        except Exception as exc:  # noqa: BLE001 - reported, not raised
            print(f"{name} ERROR {type(exc).__name__}", flush=True)
            continue
        print(f"{name} {digest} {rows}", flush=True)
    ray.shutdown()
    return 0


if __name__ == "__main__":
    sys.exit(main())
