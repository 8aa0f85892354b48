"""End-to-end Ray pipeline tests: byte-identity vs the single-process oracle.

The north-rule invariant (BASELINE.json): byte-identical extracted text per
url, in both plans (fused / sliced).
"""

from __future__ import annotations

import pytest

from docling_jobkit_ray.extract.errors import STATUS_FAILURE
from docling_jobkit_ray.pipelines.extract import (
    dead_letter,
    extract_pipeline,
    status_counts,
    successes,
)


def _collect(ds):
    return {r["url"]: r for r in ds.take_all()}


@pytest.mark.parametrize("mode", ["sliced", "fused"])
def test_pipeline_matches_oracle(ray_session, corpus_dir, corpus_oracle, mode):
    ds = extract_pipeline(corpus_dir, mode=mode, concurrency=(1, 2))
    got = _collect(ds)
    assert set(got) == set(corpus_oracle)
    for url, oracle_row in corpus_oracle.items():
        g = got[url]
        assert g["status"] == oracle_row["status"], url
        assert g["text"] == oracle_row["text"], url  # byte-identical
        assert g["n_chars"] == oracle_row["n_chars"], url
        assert g["doc_json"] == oracle_row["doc_json"], url
        assert list(g["spans"] or []) == oracle_row["spans"], url


def test_fused_tasks_follow_shard_packing_and_empty_input(ray_session, corpus_dir, tmp_path):
    """Fused plans drive one map task per byte-balanced shard group (at
    the session's CPU count) with no repartition operator; an empty input
    directory gives an empty result (Ray refuses a zero-block Dataset, so
    ``shard_items`` must not ask for one)."""
    from docling_jobkit_ray.sources.pages import list_shards, shard_groups

    groups = shard_groups(list_shards(corpus_dir))
    stats = extract_pipeline(corpus_dir, mode="fused").materialize().stats()
    assert "Repartition" not in stats
    assert f"MapBatches(read_and_extract): {len(groups)} tasks executed" in stats

    empty = tmp_path / "empty"
    empty.mkdir()
    assert extract_pipeline(str(empty), mode="fused").take_all() == []
    assert extract_pipeline(str(empty), mode="sliced").take_all() == []


def test_partition_id_independent_of_path_spelling(ray_session, corpus_dir, monkeypatch):
    """A relative and an absolute spelling of one input give the same
    lineage ids, so a resume from another working directory does not mix
    ids in one output."""
    import os

    from docling_jobkit_ray.sources.pages import list_shards

    def ids(path):
        ds = extract_pipeline(path, mode="fused").select_columns(["url", "partition_id"])
        return {r["url"]: r["partition_id"] for r in ds.take_all()}

    absolute = ids(corpus_dir)
    monkeypatch.chdir(os.path.dirname(corpus_dir))
    relative = os.path.basename(corpus_dir)
    assert list_shards(relative) == list_shards(corpus_dir)
    assert ids(relative) == absolute


def test_extract_udf_freezes_worker_heap_only(ray_session):
    """The UDF moves a Ray worker's import-time heap out of the collector's
    reach, so no task pays a full collection over it; a driver's heap is
    left alone."""
    import gc

    import ray

    from docling_jobkit_ray.stages.extract import ExtractDocuments

    frozen = gc.get_freeze_count()
    ExtractDocuments()
    assert gc.get_freeze_count() == frozen

    @ray.remote
    def freeze_count_after_udf() -> int:
        import gc

        from docling_jobkit_ray.stages.extract import ExtractDocuments

        ExtractDocuments()
        return gc.get_freeze_count()

    assert ray.get(freeze_count_after_udf.remote()) > 1000


def test_spans_slice_validly(ray_session, corpus_dir):
    ds = successes(extract_pipeline(corpus_dir, concurrency=(1, 2)))
    for row in ds.take(50):
        text = row["text"]
        for s in row["spans"]:
            assert 0 <= s["start"] <= s["end"] <= len(text)


def test_dead_letter_lineage(ray_session, corpus_dir, corpus_oracle):
    dl = _collect(dead_letter(extract_pipeline(corpus_dir, concurrency=(1, 2))))
    expected_failures = {
        u for u, r in corpus_oracle.items() if r["status"] == STATUS_FAILURE
    }
    assert set(dl) == expected_failures
    assert len(dl) > 0  # the corpus really contains poisoned rows
    for row in dl.values():
        assert row["category"] in {
            "policy",
            "source_unavailable",
            "timeout",
            "capacity",
            "internal",
        }
        assert row["error"]
        assert row["partition_id"] is not None
        assert row["retryable"] in (True, False)


def test_status_counts(ray_session, corpus_dir, corpus_oracle):
    counts = {
        r["status"]: r["count()"]
        for r in status_counts(extract_pipeline(corpus_dir, concurrency=(1, 2))).take_all()
    }
    from collections import Counter

    expected = Counter(r["status"] for r in corpus_oracle.values())
    assert counts == dict(expected)


def test_sliced_mode_actually_slices(ray_session, corpus_dir):
    """The corpus contains binary docs with > slice_pages pages, so the
    sliced branch must process at least one multi-slice document."""
    import glob

    import pyarrow.parquet as pq

    from docling_jobkit_ray.extract import binarydoc
    from docling_jobkit_ray.extract.record import ExtractOptions

    opts = ExtractOptions()
    n_big = 0
    for path in sorted(glob.glob(f"{corpus_dir}/*.parquet")):
        t = pq.read_table(path, columns=["html"])
        for payload in t.column("html").to_pylist():
            if payload and binarydoc.is_binary_doc(payload):
                try:
                    if len(binarydoc.parse_directory(payload)) > opts.slice_pages:
                        n_big += 1
                except Exception:
                    pass
    assert n_big > 0


def test_sliced_mode_honors_preflight_caps(ray_session, corpus_dir):
    """A doc over max_pages must FAIL identically in sliced and fused modes
    (the slice router must not bypass admission preflight): with max_pages
    set below the corpus's largest binary doc, both modes emit the same
    TooManyPagesError rows, and byte-identity holds across the board."""
    from docling_jobkit_ray.extract.record import ExtractOptions

    opts = ExtractOptions(max_pages=15)  # corpus binaries go up to ~40 pages
    fused = _collect(extract_pipeline(corpus_dir, mode="fused", options=opts))
    sliced = _collect(extract_pipeline(corpus_dir, mode="sliced", options=opts))
    assert set(fused) == set(sliced)
    for url, f_row in fused.items():
        s_row = sliced[url]
        assert s_row["status"] == f_row["status"], url
        assert s_row["text"] == f_row["text"], url
        assert s_row["error"] == f_row["error"], url
    too_many = [u for u, r in fused.items() if r["error"] and "TooManyPages" in r["error"]]
    assert too_many, "cap should reject at least one corpus doc"
    # and those rejects must be FAILURES in sliced mode too
    for u in too_many:
        assert sliced[u]["status"] == STATUS_FAILURE


def test_big_binary_mask_matches_scalar(ray_session, corpus_dir):
    """The vectorized split mask must agree with the scalar is_big_binary
    on every corpus row, with and without preflight caps."""
    import glob

    import pyarrow.parquet as pq

    from docling_jobkit_ray.stages.slices import big_binary_mask, is_big_binary

    for caps in ({}, {"max_pages": 15, "max_bytes": 20_000}):
        for path in sorted(glob.glob(f"{corpus_dir}/*.parquet"))[:2]:
            t = pq.read_table(path, columns=["url", "html"])
            mask = big_binary_mask(t, 10, **caps)
            for got, payload in zip(mask, t.column("html").to_pylist()):
                assert bool(got) == is_big_binary(payload, 10, **caps)


def test_dedup_pages_by_url(ray_session):
    import datetime as dt

    import ray.data

    from docling_jobkit_ray.pipelines.extract import dedup_pages_by_url

    t0 = dt.datetime(2024, 1, 1)
    rows = [
        {"url": "u1", "warc_ts": t0, "html": b"<p>first crawl body text</p>"},
        {"url": "u1", "warc_ts": t0 + dt.timedelta(days=1), "html": b"<p>recrawl</p>"},
        {"url": "u2", "warc_ts": t0, "html": b"<p>only one</p>"},
    ]
    out = dedup_pages_by_url(ray.data.from_items(rows)).take_all()
    by_url = {r["url"]: r for r in out}
    assert len(out) == 2
    assert by_url["u1"]["html"] == b"<p>first crawl body text</p>"


def test_render_html_projection():
    """HTML export projection (reference convert/export.py:91-106
    save_as_html): semantic tags per span kind, entity escaping, list
    coalescing, page separators."""
    from docling_jobkit_ray.stages.export import render_html

    text = "TitleA < Bfirstseconditem1item2"
    spans = [
        {"kind": "heading", "start": 0, "end": 5},
        {"kind": "paragraph", "start": 5, "end": 10},
        {"kind": "paragraph", "start": 10, "end": 15},
        {"kind": "table", "start": 15, "end": 21},
        {"kind": "list_item", "start": 21, "end": 26},
        {"kind": "list_item", "start": 26, "end": 31},
    ]
    html = render_html(text, spans)
    assert html.startswith("<!DOCTYPE html>")
    assert "<h2>Title</h2>" in html
    assert "<p>A &lt; B</p>" in html  # escaped
    assert "<table><tr><td>second</td></tr></table>" in html
    assert "<ul>\n<li>item1</li>\n<li>item2</li>\n</ul>" in html
    assert html.count("<ul>") == 1  # consecutive items share one list


def test_export_projections_adds_html_column(ray_session, corpus_dir):
    from docling_jobkit_ray.pipelines.extract import extract_pipeline
    from docling_jobkit_ray.stages.export import export_pipeline

    out = export_pipeline(
        extract_pipeline(corpus_dir, concurrency=(1, 2))
    ).limit(20).to_pandas()
    assert {"md", "html", "doctags"} <= set(out.columns)
    ok = out[out["status"] == "SUCCESS"]
    assert (ok["html"].str.startswith("<!DOCTYPE html>")).all()
