"""``ExtractDocuments`` builds its output table column by column from packed
outcomes (``record.extract_document``); it must equal the table of the
row-dict path (``extract_record`` rows through ``rows_to_extracted_table``),
schema included, on both extraction paths."""

from __future__ import annotations

import glob
import json

import pyarrow as pa
import pytest

from docling_jobkit_ray.extract import html
from docling_jobkit_ray.extract.errors import CATEGORY_TIMEOUT, STATUS_FAILURE
from docling_jobkit_ray.extract.record import (
    ExtractOptions,
    extract_record_with_retry,
    failure_outcome,
    outcome_row,
)
from docling_jobkit_ray.fixtures.corpus import write_corpus
from docling_jobkit_ray.sources.pages import read_shard
from docling_jobkit_ray.stages.extract import (
    EXTRACTED_SCHEMA,
    ExtractDocuments,
    partition_id_for_path,
    rows_to_extracted_table,
)
from tests.test_timeout_retry import _SLOW_HTML

# every option the per-row options column can carry here, one per row in turn
_ROW_OPTIONS = [
    None,
    json.dumps({"max_bytes": 20_000}),  # the heavy tail is oversized
    json.dumps({"min_paragraph_chars": 60, "max_link_density": 0.2}),
    json.dumps({"page_range": [2, 3]}),
    json.dumps({"document_timeout": 30.0, "retry_attempts": 2}),
]


@pytest.fixture(scope="module")
def mixed_batch(tmp_path_factory) -> pa.Table:
    """Two shards of a mixed corpus in one batch (two distinct paths):
    binary docs with undecodable pages, a heavy tail, undecodable and empty
    payloads; plus a row with no path, a null payload and a document that
    only times out."""
    out = str(tmp_path_factory.mktemp("mixed"))
    write_corpus(out, n_rows=240, seed=11, n_shards=2, poison_frac=0.1, binary_frac=0.15, heavy_tail_frac=0.08)
    batch = pa.concat_tables([read_shard(p) for p in sorted(glob.glob(f"{out}/*.parquet"))])
    extra = pa.table(
        {
            "url": pa.array(["https://x/no-path", "https://x/null", "https://x/slow"], pa.string()),
            "html": pa.array([b"<p>" + b"a row with no path " * 3 + b"</p>", None, _SLOW_HTML], pa.binary()),
            "path": pa.array([None, batch.column("path")[0].as_py(), ""], pa.string()),
        }
    )
    batch = pa.concat_tables([batch, extra])
    options = [_ROW_OPTIONS[i % len(_ROW_OPTIONS)] for i in range(batch.num_rows)]
    options[-1] = json.dumps({"document_timeout": 1e-9, "retry_attempts": 2})
    options[-2] = "{not json"  # a malformed options cell: a FAILURE row
    return batch.append_column("options_json", pa.array(options, pa.string()))


def _row_path_table(batch: pa.Table, options: ExtractOptions, options_col: str | None) -> pa.Table:
    resolver = ExtractDocuments(options, options_col=options_col)
    cols = {name: batch.column(name).to_pylist() for name in batch.column_names}
    paths = cols.get("path", [None] * batch.num_rows)
    rows = []
    for i, url in enumerate(cols["url"]):
        try:
            opts = resolver._resolve_options(cols[options_col][i] if options_col else None)
        except Exception as exc:
            row = outcome_row(url, failure_outcome(exc))
        else:
            data = cols["html"][i]
            row = extract_record_with_retry(url, data if data is not None else b"", opts)
        row["partition_id"] = partition_id_for_path(paths[i], url)
        rows.append(row)
    return rows_to_extracted_table(rows)


@pytest.fixture(params=["kernel", "python"])
def extraction_path(request, monkeypatch):
    if request.param == "kernel" and html._native is None:
        pytest.skip("the C kernel did not build here")
    if request.param == "python":
        monkeypatch.setattr(html, "_native", None)
    return request.param


@pytest.mark.parametrize(
    "options, options_col",
    [
        (ExtractOptions(), None),
        (ExtractOptions(document_timeout=30.0, retry_attempts=1), None),
        (ExtractOptions(retry_attempts=2), "options_json"),
    ],
    ids=["defaults", "timeout-retry", "options-col"],
)
def test_stage_table_equals_row_path_table(mixed_batch, extraction_path, options, options_col):
    got = ExtractDocuments(options, options_col=options_col)(mixed_batch)
    want = _row_path_table(mixed_batch, options, options_col)
    assert got.schema == EXTRACTED_SCHEMA
    assert got.schema.equals(want.schema, check_metadata=True)
    assert got.equals(want)
    statuses = set(got.column("status").to_pylist())
    assert statuses == {"SUCCESS", "PARTIAL_SUCCESS", "FAILURE"}
    assert sum(1 for s in got.column("spans").to_pylist() if len(s) > 1) > 100
    if options_col:
        categories = got.column("category").to_pylist()
        assert categories[-1] == CATEGORY_TIMEOUT and got.column("retryable")[-1].as_py()
        assert got.column("error")[-2].as_py().startswith("JSONDecodeError")


def test_empty_batch_gives_the_schema(extraction_path):
    empty = pa.table({"url": pa.array([], pa.string()), "html": pa.array([], pa.binary())})
    got = ExtractDocuments()(empty)
    assert got.num_rows == 0
    assert got.schema.equals(EXTRACTED_SCHEMA, check_metadata=True)
    assert got.equals(rows_to_extracted_table([]))


def test_all_failure_batch_gives_the_schema(extraction_path):
    batch = pa.table(
        {
            "url": pa.array(["u0", "u1", "u2"], pa.string()),
            "html": pa.array([b"", b"\xff\xfe\x00", None], pa.binary()),
        }
    )
    got = ExtractDocuments()(batch)
    assert got.schema.equals(EXTRACTED_SCHEMA, check_metadata=True)
    assert got.column("status").to_pylist() == [STATUS_FAILURE] * 3
    assert got.column("spans").to_pylist() == [[], [], []]
    assert got.column("n_chars").to_pylist() == [0, 0, 0]
    assert got.equals(_row_path_table(batch, ExtractOptions(), None))
