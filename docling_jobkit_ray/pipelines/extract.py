"""The flagship extraction pipeline: pages parquet -> extracted dataset.

Ray-Data-native replacement for the reference's whole orchestration stack
(queue/dispatcher/Serve replicas, ``orchestrators/ray/serve_deployment.py``):
the streaming executor provides the drain loop, backpressure and retries; the
pipeline is just Dataset transforms (SURVEY.md §3.4).

Two plans:

- ``fused`` (the default): one task reads a byte-balanced group of
  consecutive shards (about one group per CPU, see
  ``sources.pages.shard_items``) and extracts them shard by shard, with no
  intermediate blocks between read and parse.  Checkpointed runs use the
  same packed per-shard tasks.
- ``sliced``: oversized binary docs fan out into page slices
  (``flat_map``-style plan), are extracted in parallel and reassembled by
  one url-bucket ``exchange.bucket_exchange`` — the reference's slice fan-out
  (``serve_deployment.py:437-464,510-549``) as a shuffle keyed on url.
  The big-binary filter re-reads the input; it is cheap (header-only
  inspection) and only pays off when oversized docs dominate wall time.
"""

from __future__ import annotations

import pyarrow as pa
import pyarrow.compute as pc
import ray.data

from ..exchange import bucket_exchange
from ..extract.errors import STATUS_FAILURE
from ..extract.record import ExtractOptions
from ..sources.pages import list_shards, read_shard, shard_items
from ..stages.extract import EXTRACTED_SCHEMA, ExtractDocuments, options_to_kwargs
from ..stages.slices import (
    SLICE_EXTRACT_SCHEMA,
    ExtractSlices,
    drop_big_binary,
    keep_big_binary,
    plan_slices,
    reassemble_bucket,
    url_bucket_adder,
)

DEFAULT_BATCH_SIZE = 64


def extract_pipeline(
    input_path: str | list[str],
    *,
    options: ExtractOptions | None = None,
    preset: str | None = None,
    mode: str = "fused",
    pipeline: str = "standard",
    vlm_preset: str = "default",
    batch_size: int = DEFAULT_BATCH_SIZE,
    concurrency=None,
) -> ray.data.Dataset:
    """Build (lazily) the extracted dataset for a pages corpus.

    ``preset`` resolves a named ExtractOptions through the admin registry
    (extract/presets.py; mutually exclusive with ``options``).  ``pipeline``
    selects the family — "standard", or "vlm" which appends the warm-model
    description stage (stages/vlm.py), mirroring the reference's
    STANDARD-vs-VLM pipeline selection (convert/manager.py:1704-1721).
    ``concurrency`` sizes that stage's actor pool; ``batch_size`` its
    batches and the sliced plan's slice batches.

    Returns the combined output (SUCCESS/PARTIAL_SUCCESS/FAILURE rows in one
    dataset, EXTRACTED_SCHEMA; + ``vlm_json`` for the vlm family); use
    :func:`dead_letter` / :func:`successes` to view either side."""
    from ..stages.vlm import PIPELINE_VLM, PIPELINES, vlm_enrich

    if pipeline not in PIPELINES:
        raise ValueError(f"unknown pipeline {pipeline!r}; known: {PIPELINES}")
    if preset is not None:
        if options is not None:
            raise ValueError("pass either options or preset, not both")
        from ..extract.presets import get_preset

        options = get_preset(preset)
    options = options or ExtractOptions()

    def _family(ds: ray.data.Dataset) -> ray.data.Dataset:
        if pipeline == PIPELINE_VLM:
            from ..stages.vlm import describer_for_preset

            # the VLM stage is a callable CLASS (warm model) — it always
            # needs a real actor-pool concurrency; the model comes from the
            # per-kind preset registry (allowlist-gated)
            vlm_conc = concurrency if concurrency is not None else (1, 4)
            return vlm_enrich(
                ds,
                describer_cls=describer_for_preset(vlm_preset),
                concurrency=vlm_conc,
                batch_size=batch_size,
            )
        return ds

    if mode == "fused":
        # One call = read one shard + extract it (read fused into the heavy
        # map by hand): no intermediate block materialization, no
        # cross-operator backpressure, and the shard is the natural work
        # unit for checkpointing anyway.  Dataset-of-paths -> map_batches is
        # the documented Ray Data pattern for custom-read workloads; one
        # task runs a packed group of such calls.
        shards = list_shards(input_path)
        opts_kwargs = options_to_kwargs(options)

        def read_and_extract(batch) -> pa.Table:
            udf = ExtractDocuments(opts_kwargs)
            return pa.concat_tables([udf(read_shard(str(p))) for p in batch["path"]])

        return _family(
            shard_items(shards).map_batches(read_and_extract, batch_size=1, batch_format="numpy")
        )

    if mode == "sliced":
        slice_pages = options.slice_pages
        # Both branches use the fused per-shard read (see mode="fused").  A
        # shared one-pass plan is not expressible without a materialize
        # barrier (branching a Dataset re-executes the shared parent —
        # measured), so the input IS read twice; what makes the second pass
        # cheap is the vectorized big_binary_mask: lengths + a 10-byte
        # header slice decide the split with zero full-payload copies, and
        # only the claimed-big minority is structurally parsed.  Docs over
        # max_pages/max_bytes route to the rest branch so admission
        # preflight emits the same FAILURE rows as the fused plan.
        shards = list_shards(input_path)
        opts_kwargs = options_to_kwargs(options)
        caps = {
            "max_pages": options.max_pages,
            "max_bytes": options.max_bytes,
            "page_range": options.page_range,
        }
        _drop = drop_big_binary(slice_pages, **caps)
        _keep = keep_big_binary(slice_pages, **caps)
        _plan = plan_slices(slice_pages, page_range=options.page_range)

        def _read_shards(batch) -> pa.Table:
            return pa.concat_tables([read_shard(str(p)) for p in batch["path"]])

        # Branch 1: everything except oversized binaries — read+filter+extract
        # fused into one call per shard.
        def rest_task(batch) -> pa.Table:
            udf = ExtractDocuments(opts_kwargs)
            return udf(_drop(_read_shards(batch)))

        rest_out = shard_items(shards).map_batches(rest_task, batch_size=1, batch_format="numpy")

        # Branch 2: oversized binaries — read+filter+slice-plan fused, then
        # per-slice extract (task pool) -> groupby url -> reassemble (the
        # reference's fan-out/collect, as a shuffle keyed on url).
        def plan_task(batch) -> pa.Table:
            return _plan(_keep(_read_shards(batch)))

        slices = shard_items(shards).map_batches(plan_task, batch_size=1, batch_format="numpy")
        slice_parts = slices.map_batches(
            ExtractSlices(opts_kwargs),
            batch_format="pyarrow",
            zero_copy_batch=True,
            # slice rows are small (one byte-range each): larger batches cut
            # task dispatch overhead without hurting load spread
            batch_size=max(batch_size, 256),
        )
        # reassembly bucket count scales with the WORST-CASE slice-row
        # volume: each admitted doc emits at most max_pages/slice_pages
        # slice rows (the admission cap makes this a true cheap bound —
        # corpus rows alone is NOT an upper bound on slice rows)
        from ..scale import bucket_count, estimate_table_rows

        est_rows = sum(estimate_table_rows(s.path) for s in shards)
        max_slices_per_doc = max(1, options.max_pages // slice_pages)
        n_reasm = bucket_count(
            est_rows * max_slices_per_doc,
            target_rows_per_bucket=100_000,
            min_buckets=64,
        )
        big_out = bucket_exchange(
            slice_parts,
            reassemble_bucket,
            schema=SLICE_EXTRACT_SCHEMA.append(pa.field("bucket", pa.int32())),
            out_schema=EXTRACTED_SCHEMA,
            emit=url_bucket_adder(n_reasm),
            batch_format="pandas",
        )
        # Cast the pandas-built blocks to the exact EXTRACTED_SCHEMA so the
        # union with the Arrow-native branch has one schema.
        from ..stages.extract import rows_to_extracted_table

        big_out = big_out.map_batches(
            lambda df: rows_to_extracted_table(df.to_dict("records")),
            batch_format="pandas",
        )
        return _family(rest_out.union(big_out))

    raise ValueError(f"unknown mode: {mode!r}")


def successes(extracted: ray.data.Dataset) -> ray.data.Dataset:
    return extracted.map_batches(
        lambda t: t.filter(pc.not_equal(t["status"], STATUS_FAILURE)),
        batch_format="pyarrow",
        zero_copy_batch=True,
    )


def dead_letter(extracted: ray.data.Dataset) -> ray.data.Dataset:
    """The dead-letter view with lineage (FIXTURES.md §3 `dead_letter`)."""

    def _fn(t: pa.Table) -> pa.Table:
        failed = t.filter(pc.equal(t["status"], STATUS_FAILURE))
        return failed.select(["url", "partition_id", "error", "category", "retryable"])

    return extracted.map_batches(_fn, batch_format="pyarrow", zero_copy_batch=True)


def status_counts(extracted: ray.data.Dataset):
    """Per-status counters, the reference's num_succeeded/failed aggregate
    (``convert/results.py:76-88``) as a Ray Data groupby-count."""
    return extracted.groupby("status").count()


def dedup_pages_by_url(
    ds: ray.data.Dataset, *, est_rows: int | None = None, n_buckets: int | None = None
) -> ray.data.Dataset:
    """Exact dedup by url for the resume path (SURVEY.md §2.9): when a rerun
    re-reads a partially-written input, keep ONE row per url
    deterministically (earliest warc_ts; ties broken by smallest payload).

    Shuffle discipline: only (url, warc_ts, binary_length) decide the
    winner, but the groupby must carry the payload along — so this is the
    rare whole-row shuffle and is only meant for the rare-resume path; the
    common path skips completed partitions via the manifest and never pays
    it.  Grouping is on a coarse url-hash bucket (one vectorized pandas
    pass per bucket), not per url; pass ``est_rows`` (footer estimate) so
    the bucket count scales with the input — these groups carry PAYLOADS,
    so the per-bucket target is deliberately small."""
    import zlib

    import pandas as pd

    if n_buckets is None:
        from ..scale import bucket_count

        n_buckets = bucket_count(
            est_rows or 0, target_rows_per_bucket=50_000, min_buckets=256
        )
    mask = n_buckets - 1

    def add_bucket(batch: pa.Table) -> pa.Table:
        urls = batch.column("url").to_pylist()
        b = pa.array([zlib.crc32(u.encode("utf-8")) & mask for u in urls], pa.int32())
        return batch.append_column("bucket", b)

    def keep_first_bucket(g: pd.DataFrame) -> pd.DataFrame:
        g = g.assign(_len=g["html"].map(lambda b: len(b) if b is not None else 0))
        g = g.sort_values(["url", "warc_ts", "_len"], kind="mergesort")
        return g.groupby("url", sort=False).head(1).drop(columns=["_len", "bucket"])

    return (
        ds.map_batches(add_bucket, batch_format="pyarrow", zero_copy_batch=True)
        .groupby("bucket")
        .map_groups(keep_first_bucket, batch_format="pandas")
    )


def extract_ab_compare(
    input_path: str,
    *,
    preset_a: str = "default",
    preset_b: str = "aggressive_strip",
) -> "ray.data.Dataset":
    """Shadow-compare two extraction option presets in ONE pass: every
    document is read once and extracted twice inside the same task (the
    efficient shadow-deploy design — no second corpus scan, no join to
    align results), and the per-URL verdict folds into a tiny
    (status_a, status_b, texts_equal) contingency table.

    The audit a platform runs before switching presets: how many documents
    change status, and how many produce different text."""
    from ray.data.aggregate import Sum

    from ..extract.presets import get_preset
    from ..extract.record import extract_record

    opt_a, opt_b = get_preset(preset_a), get_preset(preset_b)
    # fused shard plan: one call = read one shard + extract it TWICE
    shards = list_shards(input_path)

    out_schema = pa.schema(
        [
            ("status_a", pa.string()),
            ("status_b", pa.string()),
            ("texts_equal", pa.int64()),
            ("n_docs", pa.int64()),
        ]
    )

    def fn(batch) -> pa.Table:
        sa, sb, eq = [], [], []
        for p in batch["path"]:
            t = read_shard(str(p))
            for url, html in zip(t["url"].to_pylist(), t["html"].to_pylist()):
                data = (
                    html if isinstance(html, (bytes, bytearray)) else str(html).encode()
                )
                ra = extract_record(url, data, opt_a)
                rb = extract_record(url, data, opt_b)
                sa.append(ra["status"])
                sb.append(rb["status"])
                eq.append(1 if ra.get("text") == rb.get("text") else 0)
        if not sa:
            return out_schema.empty_table()
        return (
            pa.table(
                {
                    "status_a": pa.array(sa, pa.string()),
                    "status_b": pa.array(sb, pa.string()),
                    "texts_equal": pa.array(eq, pa.int64()),
                    "n_docs": pa.array([1] * len(sa), pa.int64()),
                }
            )
            .group_by(["status_a", "status_b", "texts_equal"])
            .aggregate([("n_docs", "sum")])
            .rename_columns(["status_a", "status_b", "texts_equal", "n_docs"])
        )

    return (
        shard_items(shards).map_batches(fn, batch_size=1, batch_format="pyarrow")
        .groupby(["status_a", "status_b", "texts_equal"])
        .aggregate(Sum("n_docs", alias_name="n_docs"))
        .sort(["status_a", "status_b", "texts_equal"])
    )
