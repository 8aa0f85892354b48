"""The one per-key exchange (``exchange.bucket_exchange``): its two guards,
the one-fold-call-per-key contract, the rule that ``exchange.py`` is the only
module that calls ``map_groups``, and result pins for rows-only queries whose
plans cross it.
"""

from __future__ import annotations

import ast
import pathlib
from collections import Counter

import numpy as np
import pandas as pd
import pyarrow as pa
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from docling_jobkit_ray.exchange import bucket_exchange
from tools.query_digests import result_digest

PKG = pathlib.Path(__file__).resolve().parent.parent / "docling_jobkit_ray"
SF = "/root/testdata/sf0.001"

KV = pa.schema([("bucket", pa.int64()), ("v", pa.int64())])
COUNTS = pa.schema([("bucket", pa.int64()), ("n", pa.int64()), ("total", pa.int64())])


def _count(group: pa.Table) -> pa.Table:
    return pa.table(
        {
            "bucket": pa.array([group["bucket"][0].as_py()], pa.int64()),
            "n": pa.array([group.num_rows], pa.int64()),
            "total": pa.array([pa.compute.sum(group["v"]).as_py()], pa.int64()),
        }
    )


def _never(_batch):
    raise AssertionError("UDF called on an empty block")


class _Plan:
    """Stand-in Dataset that records the UDFs bucket_exchange hands to Ray."""

    def __init__(self):
        self.udfs, self.keys = [], []

    def map_batches(self, fn, **_):
        self.udfs.append(fn)
        return self

    def groupby(self, key):
        self.keys.append(key)
        return self

    def map_groups(self, fn, **_):
        self.udfs.append(fn)
        return self


def test_guards_return_declared_empty_tables():
    plan = _Plan()
    bucket_exchange(plan, _never, schema=KV, out_schema=COUNTS, emit=_never)
    keyed, folded = plan.udfs
    assert plan.keys == ["bucket"]
    for block in (pa.table({}), KV.empty_table()):
        assert keyed(block).equals(KV.empty_table())
        assert folded(block).equals(COUNTS.empty_table())


def test_empty_dataset_calls_no_udf(ray_session):
    import ray.data

    ds = ray.data.from_arrow(pa.table({"v": pa.array([], pa.int64())}))
    out = bucket_exchange(ds, _never, schema=KV, out_schema=COUNTS, emit=_never)
    assert out.take_all() == []


def test_columnless_block_becomes_declared_empty_table(ray_session):
    import ray.data

    rows = pa.table({"v": pa.array([1, 2, 3, 4, 5], pa.int64())})
    ds = ray.data.from_blocks([pa.table({}), rows, pa.table({})])

    def key(batch: pa.Table) -> pa.Table:
        v = batch["v"]
        return pa.table({"bucket": pa.compute.bit_wise_and(v, 1), "v": v})

    got = sorted(
        (r["bucket"], r["n"], r["total"])
        for r in bucket_exchange(
            ds, _count, schema=KV, out_schema=COUNTS, emit=key
        ).take_all()
    )
    assert got == [(0, 2, 6), (1, 3, 9)]


def test_declared_schema_restores_types_after_pandas_round_trip(ray_session):
    import ray.data

    # an all-None column crosses a pandas block as the Arrow ``null`` type
    # and a pandas block can carry its columns in any order
    df = pd.DataFrame({"s": [None, None, None], "bucket": [3, 3, 4]})
    ds = ray.data.from_pandas(df)
    schema = pa.schema([("bucket", pa.int64()), ("s", pa.string())])
    seen = pa.schema([("bucket", pa.int64()), ("schema", pa.string())])

    def fold(group: pa.Table) -> pa.Table:
        return pa.table(
            {
                "bucket": pa.array([group["bucket"][0].as_py()], pa.int64()),
                "schema": [str(group.schema)],
            }
        )

    got = bucket_exchange(ds, fold, schema=schema, out_schema=seen).take_all()
    assert sorted(r["bucket"] for r in got) == [3, 4]
    assert {r["schema"] for r in got} == {str(schema)}

    def fold_pandas(group: pd.DataFrame) -> pd.DataFrame:
        assert list(group.columns) == schema.names
        return pd.DataFrame(
            {"bucket": [int(group["bucket"].iloc[0])], "n": [len(group)]}
        )

    got = bucket_exchange(
        ds,
        fold_pandas,
        schema=schema,
        out_schema=pa.schema([("bucket", pa.int64()), ("n", pa.int64())]),
        batch_format="pandas",
    ).take_all()
    assert sorted((r["bucket"], r["n"]) for r in got) == [(3, 2), (4, 1)]


@settings(
    max_examples=12,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(
    blocks=st.lists(
        st.lists(st.integers(min_value=0, max_value=9), max_size=30),
        min_size=1,
        max_size=4,
    )
)
def test_each_key_reaches_exactly_one_fold_call(ray_session, blocks):
    import ray.data

    tables = [
        pa.table(
            {
                "bucket": pa.array(b, pa.int64()),
                "v": pa.array(np.arange(len(b)), pa.int64()),
            }
        )
        for b in blocks
    ]
    ds = ray.data.from_blocks(tables)
    calls = bucket_exchange(ds, _count, schema=KV, out_schema=COUNTS).take_all()
    keys = [r["bucket"] for r in calls]
    assert len(keys) == len(set(keys)), f"a key reached several fold calls: {keys}"
    want = Counter(k for b in blocks for k in b)
    assert {r["bucket"]: r["n"] for r in calls} == dict(want)


# ----------------------------------------------------------------- AST guard

# Sites left raw on purpose, as (module, enclosing top-level function).  Both
# carry input-defined pass-through columns: the rows of a caller's Dataset
# cross the exchange whole, and their schema is known only by running that
# (possibly transformed) plan, so no wire schema can be declared for them.
RAW_ALLOWED = {
    ("pipelines/extract.py", "dedup_pages_by_url"): (
        "keeps the first snapshot of whole rows of any caller Dataset"
    ),
    ("sources/pages.py", "latest_snapshot_per_url"): (
        "keeps the newest snapshot of whole rows of any caller Dataset"
    ),
}


def _map_groups_calls(source: str) -> list[tuple[int, str | None]]:
    """(line, enclosing top-level function or None) of every ``.map_groups(``
    call; names, strings and comments do not count."""
    tree = ast.parse(source)
    tops = [n for n in tree.body if isinstance(n, (ast.FunctionDef, ast.ClassDef))]
    return sorted(
        (
            node.lineno,
            next(
                (t.name for t in tops if t.lineno <= node.lineno <= t.end_lineno),
                None,
            ),
        )
        for node in ast.walk(tree)
        if isinstance(node, ast.Call)
        and isinstance(node.func, ast.Attribute)
        and node.func.attr == "map_groups"
    )


def test_guard_detects_map_groups():
    src = (
        "ds.groupby('b').map_groups(f)\nx = 'map_groups'\n"
        "# .map_groups(\nds.map_groups\n"
        "def g(ds):\n    return ds.groupby('k').map_groups(f)\n"
    )
    assert _map_groups_calls(src) == [(1, None), (6, "g")]


MIGRATED = ("functions/dedup.py", "functions/webtext.py", "functions/textstats.py")


@pytest.mark.parametrize("module", MIGRATED)
def test_bucketed_modules_exchange_only_through_bucket_exchange(module):
    source = (PKG / module).read_text()
    assert _map_groups_calls(source) == [], (
        f"{module}: raw map_groups; write the per-key fold with "
        "exchange.bucket_exchange"
    )
    assert "bucket_exchange(" in source


def test_only_exchange_calls_map_groups():
    modules = sorted(PKG.rglob("*.py"))
    assert len(modules) > 50
    raw = [
        (module, line, fn)
        for path in modules
        if path.name != "exchange.py"
        for module in [path.relative_to(PKG).as_posix()]
        for line, fn in _map_groups_calls(path.read_text())
        if (module, fn) not in RAW_ALLOWED
    ]
    assert raw == [], (
        f"raw map_groups outside exchange.py: {raw}; write the per-key fold "
        "with exchange.bucket_exchange"
    )
    for module, fn in RAW_ALLOWED:
        assert fn in {f for _, f in _map_groups_calls((PKG / module).read_text())}


# ------------------------------------------------- rows-only result pins

# sf0.001 result digests (tools/query_digests.py) taken at the commit before
# each query's exchanges moved onto bucket_exchange.  The SQL oracles cannot
# see rows-only queries, so these pins are what holds their results fixed.
# Pinned: minhash_dedup, minhash_eval_report and simhash_near_dups (the
# dedup exchanges), then every rows-only query whose plan crosses an
# exchange of the other modules (found by recording the bucket_exchange
# call sites while running every registered query), except
# rag_ingest_search: its probe set is ``limit(8)`` of an unordered
# pipeline, so its result changes from run to run at any commit.
# Pure-map and aggregate-only plans (simhash_dup_groups, lang_id,
# quality_scores, ...) cross no exchange.
PINNED = {
    "ann_recall_report": ("0dd0cc128ef8865f", 16),
    "approx_distinct_users": ("3c220a99fa587707", 1),
    "approx_distinct_users_by_type": ("4707f2230bd72be3", 5),
    "approx_top_terms": ("450dcdd2209ad6c7", 20),
    "approx_top_terms_by_lang": ("a9f8495b050fd2a4", 50),
    "dedup_bloom_incremental": ("b3da018902460efc", 500),
    "doc_length_quantiles_approx": ("ab61ccd4b3fd85a3", 1),
    "doc_length_quantiles_by_lang_approx": ("690f5b03bb7e5661", 5),
    "embedding_top_component": ("9c800b82530c8546", 64),
    "extract_sliced": ("32ad85a8999775cd", 500),
    "ivf_index_probe": ("dcb7f153421ce54c", 20),
    "knn_brute_force": ("71636d9995c27208", 20),
    "knn_ivf": ("febdd90afe306ca5", 20),
    "knn_pq": ("d63d40d2f4b26f1b", 20),
    "minhash_dedup": ("94963c1f4c625d6e", 28),
    "minhash_eval_report": ("f58af4fc36f0e42a", 1),
    "minhash_index_probe": ("f628ad9324338c9e", 11),
    "semantic_dedup_text": ("96be880b793f1ca9", 481),
    "simhash_near_dups": ("4f6d9e04ee7de13e", 22),
    "table_stats_events": ("bfdba1ab822e0ea9", 4),
    "user_overlap_estimate": ("f34bc50ab6403815", 1),
}


@pytest.mark.parametrize("name", sorted(PINNED))
def test_rows_only_result_pinned(ray_session, name):
    import __ray_entry__

    assert result_digest(__ray_entry__.queries()[name](SF)) == PINNED[name]
