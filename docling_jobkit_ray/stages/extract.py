"""Ray Data extraction stages: the flagship map_batches UDFs.

The heavy per-document parse is expressed as a callable CLASS for
``map_batches(Cls, concurrency=N, batch_size=B)`` — an actor pool whose
``__init__`` builds the warm extractor configuration once per actor, the
Ray-Data-native replacement for the reference's warm converter replicas
(``/root/reference/docling_jobkit/orchestrators/ray/serve_deployment.py:580-604``,
LRU converter cache ``convert/manager.py:426-479``).

All batches are Arrow (``batch_format="pyarrow"``, zero-copy from the object
store).  The per-row loop inside a batch is intentional: document parsing is
the heavy kernel here (like model inference), not a cheap columnar op.
Expected per-document failures never raise — they become FAILURE rows
(dead-letter routing, SURVEY.md §4.2).
"""

from __future__ import annotations

import gc
import zlib
from dataclasses import asdict

import pyarrow as pa

from ..extract.record import ExtractOptions, extract_record_with_retry

SPAN_TYPE = pa.list_(
    pa.struct([("start", pa.int64()), ("end", pa.int64()), ("kind", pa.string())])
)

EXTRACTED_SCHEMA = pa.schema(
    [
        ("url", pa.string()),
        ("status", pa.string()),
        ("text", pa.string()),
        ("spans", SPAN_TYPE),
        ("doc_json", pa.string()),
        ("n_chars", pa.int64()),
        ("error", pa.string()),
        ("category", pa.string()),
        ("retryable", pa.bool_()),
        ("partition_id", pa.int32()),
    ]
)


def partition_id_for_path(path: str | None, url: str) -> int:
    """Stable int32 lineage id: derived from the input shard path when the
    read attached one (``read_parquet(include_paths=True)``), else from the
    url.  Plays the role of the reference's source_index/chunk_index lineage
    (``connectors/source_processor.py:15-22``)."""
    key = path if path else url
    return zlib.crc32(key.encode("utf-8")) & 0x7FFFFFFF


def rows_to_extracted_table(rows: list[dict]) -> pa.Table:
    cols: dict[str, list] = {name: [] for name in EXTRACTED_SCHEMA.names}
    for r in rows:
        for name in EXTRACTED_SCHEMA.names:
            cols[name].append(r.get(name))
    arrays = [
        pa.array(cols[f.name], type=f.type) for f in EXTRACTED_SCHEMA
    ]
    return pa.Table.from_arrays(arrays, schema=EXTRACTED_SCHEMA)


_heap_checked = False


def _freeze_worker_heap() -> None:
    """Once per process: in a Ray worker, collect, then move every live
    object into the permanent GC generation.  A worker's heap is mostly the
    import-time objects of Ray, pyarrow and this package (~120k), and every
    full collection rescans them all: ~60 ms that lands on whichever task
    crosses the collector's threshold, one shard task in a few.  Frozen, a
    full collection scans only what the tasks allocated since, so no task
    pays for the imports.  A driver's or a test's heap is left alone."""
    global _heap_checked
    if _heap_checked:
        return
    _heap_checked = True
    import ray

    if ray.is_initialized() and ray.get_runtime_context().worker.mode == ray.WORKER_MODE:
        gc.collect()
        gc.freeze()


class ExtractDocuments:
    """Actor-pool UDF: Arrow batch of pages -> Arrow batch of extracted rows.

    Usage::

        ds.map_batches(ExtractDocuments, fn_constructor_kwargs={"options": opts},
                       batch_format="pyarrow", zero_copy_batch=True,
                       concurrency=(1, n), batch_size=B)

    Mixed-option batches: when ``options_col`` names a string column of
    per-row options JSON, each row resolves through a small LRU of compiled
    option-sets (``options_cache_size``, default 2) keyed by the JSON text —
    the analogue of the reference's options-hash-keyed converter LRU
    (``convert/manager.py:426-479``, ``options_cache_size=2``), so ONE pool
    serves several concurrent option-sets instead of one pool per set.
    Rows with a null options cell fall back to the constructor options.
    """

    def __init__(
        self,
        options: ExtractOptions | dict | None = None,
        *,
        options_col: str | None = None,
        options_cache_size: int = 2,
    ):
        # Once per actor: freeze options (analogue of the options-hash-keyed
        # warm converter, manager.py:456-479).
        if options is None:
            options = ExtractOptions()
        elif isinstance(options, dict):
            options = ExtractOptions(**options)
        if options_cache_size < 1:
            raise ValueError(f"options_cache_size must be >= 1, got {options_cache_size}")
        self.options = options
        self.options_col = options_col
        self.options_cache_size = options_cache_size
        from collections import OrderedDict

        self._options_lru: "OrderedDict[str, ExtractOptions]" = OrderedDict()
        _freeze_worker_heap()

    def _resolve_options(self, options_json: str | None) -> ExtractOptions:
        if not options_json:
            return self.options
        cached = self._options_lru.get(options_json)
        if cached is not None:
            self._options_lru.move_to_end(options_json)
            return cached
        import json as _json

        kwargs = _json.loads(options_json)
        if kwargs.get("page_range") is not None:
            kwargs["page_range"] = tuple(kwargs["page_range"])
        opts = ExtractOptions(**kwargs)
        self._options_lru[options_json] = opts
        if len(self._options_lru) > self.options_cache_size:
            self._options_lru.popitem(last=False)  # evict least-recently-used
        return opts

    def __call__(self, batch: pa.Table) -> pa.Table:
        urls = batch.column("url").to_pylist()
        htmls = batch.column("html").to_pylist()
        paths = (
            batch.column("path").to_pylist()
            if "path" in batch.column_names
            else [None] * len(urls)
        )
        if self.options_col:
            if self.options_col not in batch.column_names:
                # a misconfigured multi-tenant job must not silently run
                # every row on constructor defaults
                raise ValueError(
                    f"options_col {self.options_col!r} declared but absent "
                    f"from batch columns {batch.column_names}"
                )
            opts_json = batch.column(self.options_col).to_pylist()
        else:
            opts_json = [None] * len(urls)
        rows = []
        for url, payload, path, oj in zip(urls, htmls, paths, opts_json):
            try:
                opts = self._resolve_options(oj)
            except Exception as exc:
                # malformed per-row options JSON is a ROW failure, not a
                # block failure: dead-letter it, don't kill the task
                from ..extract.record import _failure_row

                row = _failure_row(url, exc)
            else:
                # retry-then-dead-letter wrapper: retryable failures
                # (timeout, capacity) get options.retry_attempts re-drives
                # before the FAILURE row is final (serve_deployment.py:693-747)
                row = extract_record_with_retry(
                    url, payload if payload is not None else b"", opts
                )
            row["partition_id"] = partition_id_for_path(path, url)
            rows.append(row)
        return rows_to_extracted_table(rows)


def options_to_kwargs(options: ExtractOptions) -> dict:
    return asdict(options)
