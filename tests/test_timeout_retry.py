"""Per-document wall-clock timeout, retry-then-dead-letter, and page-range
extraction (VERDICT r2 items 2, 4, 7)."""

from __future__ import annotations

import time

import pyarrow as pa
import pyarrow.parquet as pq
import pytest

from docling_jobkit_ray.extract.binarydoc import build_binary_doc
from docling_jobkit_ray.extract.errors import (
    CATEGORY_TIMEOUT,
    STATUS_FAILURE,
    STATUS_SUCCESS,
    DocumentTimeoutError,
)
from docling_jobkit_ray.extract.record import (
    ExtractOptions,
    assemble_pages,
    document_deadline,
    extract_record,
    extract_record_with_retry,
    page_span,
)

# ---------------------------------------------------------------------------
# document_deadline / timeout
# ---------------------------------------------------------------------------


def test_deadline_interrupts_busy_loop():
    t0 = time.monotonic()
    with pytest.raises(DocumentTimeoutError):
        with document_deadline(0.05):
            while time.monotonic() - t0 < 5.0:
                pass
    assert time.monotonic() - t0 < 2.0  # interrupted, not run to completion


def test_deadline_none_is_noop():
    with document_deadline(None):
        pass
    with document_deadline(0):
        pass


def test_deadline_restores_outer_timer():
    # an inner (longer) deadline must not clobber the outer one
    t0 = time.monotonic()
    with pytest.raises(DocumentTimeoutError):
        with document_deadline(0.08):
            with document_deadline(5.0):
                pass  # inner exits cleanly, outer timer restored
            while time.monotonic() - t0 < 5.0:
                pass
    assert time.monotonic() - t0 < 2.0


_SLOW_HTML = (
    "<html><body><main>"
    + "".join(f"<p>paragraph {i} " + "word " * 50 + "</p>" for i in range(20000))
    + "</main></body></html>"
).encode()


def test_extract_record_times_out_to_dead_letter():
    """A payload whose parse exceeds the budget dead-letters with
    CATEGORY_TIMEOUT (the reference's document_timeout, config.py:369-371)
    instead of stalling the worker.

    The watchdog thread needs the GIL to fire the async exception; on a
    heavily contended host its wakeup can occasionally slip past the whole
    parse (observed once at host load ~20), so the timed half retries a few
    times — the assertion is the SEMANTICS (a fired deadline dead-letters
    with the right category), not a single scheduling race."""
    opts = ExtractOptions(document_timeout=0.001)
    row = None
    for _ in range(5):
        row = extract_record("u", _SLOW_HTML, opts)
        if row["status"] == STATUS_FAILURE:
            break
    assert row["status"] == STATUS_FAILURE
    assert row["category"] == CATEGORY_TIMEOUT
    assert row["retryable"] is True
    # same payload with a sane budget succeeds
    ok = extract_record("u", _SLOW_HTML, ExtractOptions(document_timeout=60.0))
    assert ok["status"] == STATUS_SUCCESS


def test_pipeline_timeout_routes_to_dead_letter(ray_session, tmp_path):
    """End-to-end: the poison doc dead-letters while healthy rows succeed."""
    from docling_jobkit_ray.pipelines.extract import dead_letter, extract_pipeline

    t = pa.table(
        {
            "url": pa.array(["https://x/slow", "https://x/ok"], pa.string()),
            "html": pa.array([_SLOW_HTML, b"<html><body><main><p>" + b"hello word " * 30 + b"</p></main></body></html>"], pa.binary()),
        }
    )
    pq.write_table(t, str(tmp_path / "pages-0.parquet"))
    opts = ExtractOptions(document_timeout=0.001)
    out = extract_pipeline(str(tmp_path), options=opts, concurrency=(1, 2))
    dl = dead_letter(out).to_pandas()
    assert "https://x/slow" in set(dl["url"])
    assert (dl[dl["url"] == "https://x/slow"]["category"] == CATEGORY_TIMEOUT).all()


# ---------------------------------------------------------------------------
# retry-then-dead-letter
# ---------------------------------------------------------------------------


def _flaky_extract(fail_times: int, category: str = "timeout", retryable: bool = True):
    calls = {"n": 0}

    def fn(url, data, options):
        calls["n"] += 1
        if calls["n"] <= fail_times:
            return {
                "url": url, "status": STATUS_FAILURE, "text": "", "spans": [],
                "doc_json": "", "n_chars": 0, "error": "transient",
                "category": category, "retryable": retryable,
            }
        return {
            "url": url, "status": STATUS_SUCCESS, "text": "ok", "spans": [],
            "doc_json": "{}", "n_chars": 2, "error": None,
            "category": None, "retryable": None,
        }

    return fn, calls


def test_retry_recovers_transient_failure():
    fn, calls = _flaky_extract(fail_times=1)
    opts = ExtractOptions(retry_attempts=3)
    row = extract_record_with_retry("u", b"x", opts, extract_fn=fn, sleep=lambda s: None)
    assert row["status"] == STATUS_SUCCESS
    assert calls["n"] == 2


def test_retry_bounded_then_dead_letters():
    fn, calls = _flaky_extract(fail_times=100)
    opts = ExtractOptions(retry_attempts=3)
    row = extract_record_with_retry("u", b"x", opts, extract_fn=fn, sleep=lambda s: None)
    assert row["status"] == STATUS_FAILURE
    assert calls["n"] == 4  # initial + 3 retries


def test_non_retryable_not_retried():
    fn, calls = _flaky_extract(fail_times=100, category="policy", retryable=False)
    opts = ExtractOptions(retry_attempts=3)
    row = extract_record_with_retry("u", b"x", opts, extract_fn=fn, sleep=lambda s: None)
    assert row["status"] == STATUS_FAILURE
    assert calls["n"] == 1


def test_retry_delay_sleeps_between_attempts():
    fn, _calls = _flaky_extract(fail_times=2)
    slept = []
    opts = ExtractOptions(retry_attempts=2, retry_delay=0.25)
    extract_record_with_retry("u", b"x", opts, extract_fn=fn, sleep=slept.append)
    assert slept == [0.25, 0.25]


def test_default_zero_retries():
    fn, calls = _flaky_extract(fail_times=1)
    row = extract_record_with_retry("u", b"x", ExtractOptions(), extract_fn=fn)
    assert row["status"] == STATUS_FAILURE
    assert calls["n"] == 1


# ---------------------------------------------------------------------------
# page_range
# ---------------------------------------------------------------------------

_PAGES = [f"Page {i} body text with several words here." for i in range(20)]
_BINDOC = build_binary_doc(_PAGES)


def test_page_span_clamps():
    assert page_span(20, None) == (0, 20)
    assert page_span(20, (5, 10)) == (4, 10)
    assert page_span(20, (1, 50)) == (0, 20)
    assert page_span(20, (25, 30)) == (20, 20)  # empty selection
    assert page_span(0, (1, 5)) == (0, 0)


def test_page_range_extracts_subrange():
    opts = ExtractOptions(page_range=(5, 10))
    row = extract_record("u", _BINDOC, opts)
    assert row["status"] == STATUS_SUCCESS
    expected_text, _ = assemble_pages(_PAGES[4:10])
    assert row["text"] == expected_text
    assert '"n_pages":6' in row["doc_json"]


def test_page_range_beyond_doc_is_empty_success():
    row = extract_record("u", _BINDOC, ExtractOptions(page_range=(100, 110)))
    assert row["status"] == STATUS_SUCCESS
    assert row["text"] == ""


def test_page_range_validation():
    with pytest.raises(ValueError):
        ExtractOptions(page_range=(0, 5))
    with pytest.raises(ValueError):
        ExtractOptions(page_range=(5, 2))
    with pytest.raises(ValueError):
        ExtractOptions(document_timeout=-1)
    with pytest.raises(ValueError):
        ExtractOptions(retry_attempts=-1)


def test_page_range_sliced_matches_fused(ray_session, tmp_path):
    """Byte-identity across modes under a page_range: the sliced plan must
    cut exactly the clamped sub-range the fused parse extracts."""
    from docling_jobkit_ray.pipelines.extract import extract_pipeline

    big = build_binary_doc([f"Giant page {i} with words." for i in range(60)])
    t = pa.table(
        {
            "url": pa.array(["https://x/big", "https://x/small"], pa.string()),
            "html": pa.array([big, _BINDOC], pa.binary()),
        }
    )
    pq.write_table(t, str(tmp_path / "pages-0.parquet"))
    opts = ExtractOptions(page_range=(3, 40))
    fused = {
        r["url"]: r
        for r in extract_pipeline(str(tmp_path), options=opts, mode="fused").take_all()
    }
    sliced = {
        r["url"]: r
        for r in extract_pipeline(str(tmp_path), options=opts, mode="sliced").take_all()
    }
    assert set(fused) == set(sliced) == {"https://x/big", "https://x/small"}
    for url in fused:
        assert sliced[url]["text"] == fused[url]["text"]
        assert sliced[url]["doc_json"] == fused[url]["doc_json"]
    # and the range is really applied: 38 pages selected from the 60-pager
    expected_text, _ = assemble_pages([f"Giant page {i} with words." for i in range(2, 40)])
    assert fused["https://x/big"]["text"] == expected_text


def test_watchdog_heap_compaction():
    """Fast documents disarm long before their deadline; the watchdog heap
    must not pool thousands of cancelled entries (lazy compaction)."""
    from docling_jobkit_ray.extract.record import _WATCHDOG, document_deadline

    for _ in range(3000):
        with document_deadline(300.0):
            pass
    with _WATCHDOG._cv:
        assert len(_WATCHDOG._heap) < 2100  # compacted, not 3000 stale entries


def test_sliced_branch_enforces_timeout(monkeypatch):
    """The oversized-binary slice branch must honor document_timeout too:
    a stalled slice parse dead-letters with CATEGORY_TIMEOUT after
    reassembly, not hang the worker (parity with the inline branch)."""
    from docling_jobkit_ray.extract import binarydoc
    from docling_jobkit_ray.stages import slices as slices_mod
    from docling_jobkit_ray.stages.slices import ExtractSlices, plan_slices, reassemble_bucket

    doc = build_binary_doc([f"Page {i} words." for i in range(30)])
    t = pa.table(
        {
            "url": pa.array(["https://x/big"], pa.string()),
            "html": pa.array([doc], pa.binary()),
            "path": pa.array(["shard0"], pa.string()),
        }
    )
    slice_rows = plan_slices(10)(t)
    assert slice_rows.num_rows == 3

    real_parse = binarydoc.parse_page

    def slow_parse(payload, off, ln):
        tt = time.monotonic()
        while time.monotonic() - tt < 0.2:
            pass
        return real_parse(payload, off, ln)

    monkeypatch.setattr(slices_mod.binarydoc, "parse_page", slow_parse)
    udf = ExtractSlices({"document_timeout": 0.02})
    parts = udf(slice_rows)
    assert set(parts.column("status").to_pylist()) == {"FAILURE"}
    assert set(parts.column("category").to_pylist()) == {CATEGORY_TIMEOUT}
    # reassembly propagates the timeout category + retryable flag
    import pandas as pd

    merged = reassemble_bucket(parts.to_pandas())
    assert merged["status"].iloc[0] == "FAILURE"
    assert merged["category"].iloc[0] == CATEGORY_TIMEOUT
    assert bool(merged["retryable"].iloc[0]) is True


def test_http_fetch_retries_transient_fault():
    """Fetch-phase retry: a fetcher failing once then succeeding must
    produce a clean row; one failing forever dead-letters after the bound."""
    from docling_jobkit_ray.sources.http import HttpFetch

    calls = {"n": 0}

    def flaky(url, headers):
        calls["n"] += 1
        if calls["n"] == 1:
            raise ConnectionError("transient")
        return b"<html><body><main><p>ok body</p></main></body></html>"

    udf = HttpFetch(fetcher=flaky, retry_attempts=2, sleep=lambda s: None)
    out = udf(pa.table({"url": pa.array(["https://x/a"], pa.string())}))
    assert out.column("fetch_error").to_pylist() == [None]
    assert calls["n"] == 2

    always = {"n": 0}

    def dead(url, headers):
        always["n"] += 1
        raise ConnectionError("down")

    udf2 = HttpFetch(fetcher=dead, retry_attempts=2, sleep=lambda s: None)
    out2 = udf2(pa.table({"url": pa.array(["https://x/b"], pa.string())}))
    assert out2.column("fetch_error").to_pylist()[0].startswith("ConnectionError")
    assert always["n"] == 3  # initial + 2 retries
