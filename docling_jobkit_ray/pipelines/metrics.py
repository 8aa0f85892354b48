"""Run-level metrics & result packaging.

Parity with the reference's task-level aggregates and archive sink:
- status / failure-category counters  (``convert/results.py:76-88``,
  lifecycle counters ``orchestrators/ray/redis_helper.py:718-812``)
- timing merge  (``serve_deployment.py:467-482`` ``_merge_timings``) —
  applied to per-shard manifest wall times (per-doc wall clocks are
  intentionally NOT columns: they would break byte-determinism of outputs)
- ZIP archive of exports  (``convert/results.py:844-880``,
  ``convert/chunking.py:515-546``) — streamed batch-at-a-time so the driver
  never holds the whole result set.
"""

from __future__ import annotations

import json
import os
import zipfile

import numpy as np

import pyarrow.compute as pc
import ray.data


def category_counts(extracted: ray.data.Dataset) -> dict[str, int]:
    """Dead-letter counts by failure category (small result -> dict)."""
    failed = extracted.map_batches(
        lambda t: t.filter(pc.equal(t["status"], "FAILURE")).select(["category"]),
        batch_format="pyarrow",
        zero_copy_batch=True,
    )
    # bounded: one row per failure category
    return {
        r["category"]: r["count()"] for r in failed.groupby("category").count().take_all()
    }


def merge_shard_timings(manifest_records: list[dict]) -> dict:
    """Merge per-shard wall times, the reference's ProfilingItem merge shape
    (count += count, times.extend) reduced to summary stats."""
    times = [r["wall_sec"] for r in manifest_records]
    if not times:
        return {"count": 0, "total_sec": 0.0, "min_sec": None, "max_sec": None, "mean_sec": None}
    return {
        "count": len(times),
        "total_sec": round(sum(times), 3),
        "min_sec": min(times),
        "max_sec": max(times),
        "mean_sec": round(sum(times) / len(times), 3),
    }


def write_archive(
    extracted: ray.data.Dataset,
    zip_path: str,
    *,
    formats: tuple[str, ...] = ("txt", "json"),
    batch_size: int = 256,
) -> int:
    """Stream successful documents into one ZIP (per-url member files).

    Memory discipline: one Arrow batch in flight at a time (iter_batches),
    mirroring the reference's one-doc-materialized-then-released export loop
    (``convert/export.py:272-337``).  Returns number of documents written.
    For very large runs prefer the parquet partitions; the archive is the
    small-result convenience sink, like the reference's in-body ZIP."""
    from ..stages.export import render_markdown

    n = 0
    os.makedirs(os.path.dirname(os.path.abspath(zip_path)), exist_ok=True)
    with zipfile.ZipFile(zip_path, "w", zipfile.ZIP_DEFLATED) as zf:
        for batch in extracted.iter_batches(batch_size=batch_size, batch_format="pyarrow"):
            urls = batch.column("url").to_pylist()
            texts = batch.column("text").to_pylist()
            statuses = batch.column("status").to_pylist()
            docjs = batch.column("doc_json").to_pylist()
            spans = (
                batch.column("spans").to_pylist()
                if "spans" in batch.column_names
                else [None] * len(urls)
            )
            for url, text, status, dj, sp in zip(urls, texts, statuses, docjs, spans):
                if status == "FAILURE":
                    continue
                # stable member name: sanitized url
                member = url.replace("://", "_").replace("/", "_")[:180]
                if "txt" in formats:
                    zf.writestr(f"{member}.txt", text)
                if "json" in formats:
                    zf.writestr(f"{member}.json", dj)
                if "md" in formats and sp is not None:
                    zf.writestr(f"{member}.md", render_markdown(text, sp))
                n += 1
    return n


def run_summary(extracted: ray.data.Dataset) -> dict:
    """One-call task summary: the reference's DoclingTaskResult counters
    (``datamodel/result.py:3-28``): num_succeeded / partial / failed."""
    # bounded: one row per status
    counts = {
        r["status"]: r["count()"] for r in extracted.groupby("status").count().take_all()
    }
    return {
        "num_succeeded": counts.get("SUCCESS", 0),
        "num_partially_succeeded": counts.get("PARTIAL_SUCCESS", 0),
        "num_failed": counts.get("FAILURE", 0),
        "num_converted": sum(counts.values()),
    }


def summary_json(extracted: ray.data.Dataset) -> str:
    return json.dumps(run_summary(extracted), sort_keys=True)


def domain_stats(extracted: ray.data.Dataset) -> ray.data.Dataset:
    """Per-domain extraction outcomes: (domain, n_docs, n_success,
    total_text_chars) — the crawl-monitoring aggregate a web pipeline
    watches (per-host failure spikes, boilerplate-heavy hosts).

    Domains are high-cardinality at crawl scale, so each batch pre-folds
    to per-domain partials with an in-memory arrow group_by and the
    shuffle carries (domain, counts) — never document rows."""
    import pyarrow as pa
    import pyarrow.compute as pc

    from ray.data.aggregate import Sum

    def partial(batch: pa.Table) -> pa.Table:
        # url -> host: strip scheme, cut at the first slash
        host = pc.extract_regex(batch["url"], pattern=r"^[a-z]+://(?P<host>[^/]+)")
        domain = pc.struct_field(host, "host")
        ok = pc.cast(pc.not_equal(batch["status"], "FAILURE"), pa.int64())
        text_len = pc.cast(pc.utf8_length(pc.fill_null(batch["text"], "")), pa.int64())
        t = pa.table(
            {
                "domain": domain,
                "n_docs": pa.array(np.ones(batch.num_rows, np.int64)),
                "n_success": ok,
                "total_text_chars": text_len,
            }
        )
        return (
            t.group_by("domain")
            .aggregate([("n_docs", "sum"), ("n_success", "sum"), ("total_text_chars", "sum")])
            .rename_columns(["domain", "n_docs", "n_success", "total_text_chars"])
        )

    return (
        extracted.map_batches(partial, batch_format="pyarrow", zero_copy_batch=True)
        .groupby("domain")
        .aggregate(
            Sum("n_docs", alias_name="n_docs"),
            Sum("n_success", alias_name="n_success"),
            Sum("total_text_chars", alias_name="total_text_chars"),
        )
        .sort("domain")
    )
