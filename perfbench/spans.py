"""In-memory spans, driver-side wrappers and the single-process layer replay.

A traced run wraps the public functions of each layer *in the driver only*
(module attributes are swapped for timing wrappers and restored afterwards)
and replays the workload's per-shard call tree in this process.  Workers
never see the wrappers, so the Ray run itself is untouched.

Self time of a span = its duration minus the time its child spans cover.
Summed per name, self times partition the replay's wall time exactly; the
part no layer claims stays on the root span.
"""

from __future__ import annotations

import contextlib
import functools
import json
import os
import shutil
import time

import pyarrow as pa
import pyarrow.parquet as pq

_now = time.perf_counter


class Tracer:
    """Spans as ``[id, name, start, end, parent]`` plus exact counters."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.counts: dict[str, int] = {}
        self._stack: list[int] = []

    @contextlib.contextmanager
    def span(self, name: str):
        rec = [len(self.spans), name, _now(), None, self._stack[-1] if self._stack else None]
        self.spans.append(rec)
        self._stack.append(rec[0])
        try:
            yield
        finally:
            rec[3] = _now()
            self._stack.pop()

    def count(self, name: str, n: int) -> None:
        self.counts[name] = self.counts.get(name, 0) + n

    def wrap(self, fn, name: str, on_result=None):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            rec = [len(spans), name, _now(), None, stack[-1] if stack else None]
            spans.append(rec)
            stack.append(rec[0])
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[3] = _now()
                stack.pop()
            if on_result is not None:
                on_result(result)
            return result

        return traced

    def table(self, t: pa.Table):
        return _TracedTable(t, self)

    def self_times(self) -> dict[str, float]:
        """Per span name: summed duration minus the time child spans cover."""
        child_time = [0.0] * len(self.spans)
        for _sid, _name, start, end, parent in self.spans:
            if parent is not None:
                child_time[parent] += end - start
        out: dict[str, float] = {}
        for sid, name, start, end, _parent in self.spans:
            out[name] = out.get(name, 0.0) + (end - start) - child_time[sid]
        return out

    def to_json(self) -> dict:
        """Spans with times relative to the first span, plus the counters."""
        t0 = self.spans[0][2] if self.spans else 0.0
        return {
            "spans": [
                {"id": s[0], "name": s[1], "start": s[2] - t0, "end": s[3] - t0, "parent": s[4]}
                for s in self.spans
            ],
            "counts": self.counts,
        }


class NullTracer:
    """Same interface, records nothing: the untraced replay."""

    @contextlib.contextmanager
    def span(self, name: str):
        yield

    def count(self, name: str, n: int) -> None:
        pass

    def table(self, t: pa.Table) -> pa.Table:
        return t


class _TracedColumn:
    def __init__(self, col, tracer: Tracer):
        self._col, self._tracer = col, tracer

    def to_pylist(self):
        with self._tracer.span("stages.extract.to_pylist"):
            return self._col.to_pylist()


class _TracedTable:
    """Stands in for the Arrow batch handed to ``ExtractDocuments`` so the
    Arrow->Python conversion inside it gets its own span."""

    def __init__(self, t: pa.Table, tracer: Tracer):
        self._t, self._tracer = t, tracer

    @property
    def column_names(self):
        return self._t.column_names

    def column(self, name: str):
        return _TracedColumn(self._t.column(name), self._tracer)


@contextlib.contextmanager
def patched(tracer: Tracer):
    """Swap each layer's public functions for span-recording wrappers."""
    from docling_jobkit_ray.extract import binarydoc, html, record
    from docling_jobkit_ray.stages import extract as stages_extract

    def on_doc(doc) -> None:
        tracer.count("extract.html.blocks_total", doc.n_blocks_total)
        tracer.count("extract.html.blocks_kept", doc.n_blocks_kept)

    targets = [
        (record, "extract_record", "extract.record", None),
        (record, "preflight", "extract.record.preflight", None),
        (record, "extract_html", "extract.html", None),
        (html, "segment_blocks", "extract.html.segment", None),
        (html, "classify_blocks", "extract.html.classify", None),
        (html, "assemble", "extract.html.assemble", on_doc),
        (html.ExtractedDoc, "doc_json", "extract.html.doc_json", None),
        (binarydoc, "is_binary_doc", "extract.binarydoc.parse", None),
        (binarydoc, "parse_directory", "extract.binarydoc.parse", None),
        (binarydoc, "parse_pages", "extract.binarydoc.parse", None),
        (binarydoc, "parse_page", "extract.binarydoc.parse", None),
        (stages_extract, "rows_to_extracted_table", "stages.extract.row_build", None),
    ]
    saved = [(owner, attr, owner.__dict__[attr]) for owner, attr, _n, _cb in targets]
    try:
        for owner, attr, name, cb in targets:
            setattr(owner, attr, tracer.wrap(getattr(owner, attr), name, cb))
        yield
    finally:
        for owner, attr, original in saved:
            setattr(owner, attr, original)


@contextlib.contextmanager
def traced_replay(tracer: Tracer):
    """The layers wrapped, under one root span named ``replay``."""
    with patched(tracer), tracer.span("replay"):
        yield


# ---------------------------------------------------------------- replays
# Each replay mirrors one plan's per-shard call tree in pipelines/extract.py
# or state/checkpoint.py, through the same public functions, and returns the
# extracted tables so the gate can check them too.


def _read_shard(path: str, tr) -> pa.Table:
    with tr.span("sources.read"):
        t = pq.read_table(path, columns=["url", "html"])
        t = t.append_column("path", pa.array([path] * t.num_rows, pa.string()))
    tr.count("sources.bytes_read", os.path.getsize(path))
    return t


def replay_fused(paths: list[str], options, tr) -> list[pa.Table]:
    from docling_jobkit_ray.stages.extract import ExtractDocuments, options_to_kwargs

    udf = ExtractDocuments(options_to_kwargs(options))
    out = []
    for p in paths:
        t = _read_shard(p, tr)
        with tr.span("stages.extract"):
            out.append(udf(tr.table(t)))
    return out


def replay_sliced(paths: list[str], options, tr) -> list[pa.Table]:
    import pandas as pd

    from docling_jobkit_ray.scale import bucket_count, estimate_table_rows
    from docling_jobkit_ray.stages import extract as stages_extract
    from docling_jobkit_ray.stages.slices import (
        ExtractSlices,
        drop_big_binary,
        keep_big_binary,
        plan_slices,
        reassemble_bucket,
        url_bucket_adder,
    )

    opts = stages_extract.options_to_kwargs(options)
    caps = {"max_pages": options.max_pages, "max_bytes": options.max_bytes, "page_range": options.page_range}
    drop = drop_big_binary(options.slice_pages, **caps)
    keep = keep_big_binary(options.slice_pages, **caps)
    plan = plan_slices(options.slice_pages, page_range=options.page_range)
    rest_udf = stages_extract.ExtractDocuments(opts)
    slicer = ExtractSlices(opts)
    out, parts = [], []
    for p in paths:  # the plan reads every shard once per branch
        rest = _read_shard(p, tr)
        with tr.span("stages.slices.plan"):
            rest = drop(rest)
        with tr.span("stages.extract"):
            out.append(rest_udf(tr.table(rest)))
        big = _read_shard(p, tr)
        with tr.span("stages.slices.plan"):
            big = keep(big)
            slice_rows = plan(big)
        tr.count("stages.slices.fanout_docs", big.num_rows)
        tr.count("stages.slices.slice_rows", slice_rows.num_rows)
        with tr.span("stages.slices.extract"):
            parts.append(slicer(slice_rows))
    est_rows = sum(estimate_table_rows(p) for p in paths)
    n_buckets = bucket_count(
        est_rows * max(1, options.max_pages // options.slice_pages),
        target_rows_per_bucket=100_000,
        min_buckets=64,
    )
    with tr.span("stages.slices.exchange"):
        df = url_bucket_adder(n_buckets)(pa.concat_tables(parts)).to_pandas()
        groups = [g for _key, g in df.groupby("bucket", sort=True)]
    with tr.span("stages.slices.reassemble"):
        merged = [reassemble_bucket(g) for g in groups]
    if merged:
        # module attribute lookup, so the traced run sees the wrapper
        out.append(stages_extract.rows_to_extracted_table(pd.concat(merged).to_dict("records")))
    return out


def _commit_shard(out_dir: str, key: str, table: pa.Table, tr) -> None:
    """The checkpoint commit of one shard: temp dir, parquet write, atomic
    rename, then the manifest record (the commit point)."""
    with tr.span("state.checkpoint.commit"):
        tmp_dir = os.path.join(out_dir, f".tmp-{key}")
        final_dir = os.path.join(out_dir, f"part-{key}")
        shutil.rmtree(tmp_dir, ignore_errors=True)
        os.makedirs(tmp_dir)
        pq.write_table(table, os.path.join(tmp_dir, "data.parquet"))
        shutil.rmtree(final_dir, ignore_errors=True)
        os.replace(tmp_dir, final_dir)
        mdir = os.path.join(out_dir, "_manifest")
        os.makedirs(mdir, exist_ok=True)
        tmp = os.path.join(mdir, f".tmp-{key}.json")
        with open(tmp, "w") as f:
            json.dump({"shard_key": key, "docs": table.num_rows, "output_dir": f"part-{key}"}, f)
            f.flush()
            os.fsync(f.fileno())
        os.replace(tmp, os.path.join(mdir, f"{key}.json"))


def remove_every_other_commit(out_dir: str, shard_keys: list[str]) -> list[str]:
    """Delete the manifest and ``part-`` directory of every other shard
    (the 1st, 3rd, ...); -> the keys removed."""
    removed = shard_keys[::2]
    for key in removed:
        os.remove(os.path.join(out_dir, "_manifest", f"{key}.json"))
        shutil.rmtree(os.path.join(out_dir, f"part-{key}"))
    return removed


def replay_checkpoint(paths: list[str], out_dir: str, options, tr) -> list[pa.Table]:
    from docling_jobkit_ray.state import checkpoint
    from docling_jobkit_ray.stages.extract import ExtractDocuments, options_to_kwargs

    udf = ExtractDocuments(options_to_kwargs(options))
    keys = [os.path.splitext(os.path.basename(p))[0] for p in paths]

    def run_pending() -> None:
        with tr.span("state.checkpoint.resume_scan"):
            done = checkpoint.completed_shards(out_dir)
        pending = [(p, k) for p, k in zip(paths, keys) if k not in done]
        tr.count("state.checkpoint.shards_skipped", len(paths) - len(pending))
        for p, key in pending:
            t = _read_shard(p, tr)
            with tr.span("stages.extract"):
                out = udf(tr.table(t))
            _commit_shard(out_dir, key, out, tr)

    shutil.rmtree(out_dir, ignore_errors=True)
    os.makedirs(out_dir)
    run_pending()
    remove_every_other_commit(out_dir, keys)
    run_pending()
    return [pq.read_table(os.path.join(out_dir, f"part-{k}", "data.parquet")) for k in keys]


# ------------------------------------------------------------ Ray stats

EXCHANGE_WORDS = ("Repartition", "Sort", "Aggregate", "Shuffle", "Join", "Zip")


def operator_metrics(summary) -> dict[str, float]:
    """Fold a ``DatasetStatsSummary`` tree into two operator classes: the
    plan's own map operators and its exchange (all-to-all) operators."""
    totals = {
        f"pipelines.extract.{cls}.{field}": 0.0 if field.endswith("_s") else 0
        for cls in ("map", "exchange")
        for field in ("wall_s", "cpu_s", "rows_out", "bytes_out", "tasks")
    }
    seen = set()

    def walk(s) -> None:
        for op in s.operators_stats:
            key = (op.operator_name, op.earliest_start_time, op.latest_end_time)
            if op.wall_time is None or key in seen:
                continue
            seen.add(key)
            cls = "exchange" if any(w in op.operator_name for w in EXCHANGE_WORDS) else "map"
            prefix = f"pipelines.extract.{cls}."
            totals[prefix + "wall_s"] += op.wall_time.get("sum", 0.0)
            totals[prefix + "cpu_s"] += op.cpu_time.get("sum", 0.0)
            totals[prefix + "rows_out"] += (op.output_num_rows or {}).get("sum", 0)
            totals[prefix + "bytes_out"] += (op.output_size_bytes or {}).get("sum", 0)
            totals[prefix + "tasks"] += (op.task_rows or {}).get("count", 0)
        for parent in s.parents:
            walk(parent)

    walk(summary)
    totals["ray.spilled_mb"] = summary.global_bytes_spilled / 1e6
    return totals
