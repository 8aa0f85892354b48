"""Per-partition checkpointed execution: resumable output + lineage + metrics.

Replaces the reference's durable Redis terminalization
(``/root/reference/docling_jobkit/orchestrators/ray/redis_helper.py:905-950``
atomic finalize, lease/heartbeat ``:1225-1330``) with a filesystem manifest:

- unit of work = one input shard (parquet file); output dir name is derived
  from the shard name, so a rerun maps shard -> same output (idempotent);
- output written to `<out>/.tmp-<shard>` then atomically renamed to
  `<out>/part-<shard>` by ``state.commit.staged_dir`` — a crashed run never
  leaves a partial partition visible (write-temp-then-rename, SURVEY.md
  §7.3);
- one manifest JSON per completed shard in `<out>/_manifest/` with lineage
  (shard path, url count) and the north rule's counters (docs, bytes,
  parse_failures) + wall time;
- resume = list `_manifest/`, skip shards already recorded.

The fused runner is one Ray Data execution over the pending shards, packed
K-at-a-time into byte-balanced groups (``sources.pages.shard_items``: about
one group per CPU, no group of several shards over Ray's target block size,
so multi-GB shards still run one per task).  A packed task still stages and
publishes each shard's partition separately and returns one manifest row
per shard, and the driver stays the only manifest writer: a crash re-does
at most the shards whose rows the driver had not yet recorded.
"""

from __future__ import annotations

import glob
import json
import os
import time

import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet as pq

from ..extract.errors import STATUS_FAILURE
from ..extract.record import ExtractOptions
from ..pipelines.extract import extract_pipeline
from ..sources.pages import Shard, list_shards, read_shard, shard_items
from ..stages.extract import EXTRACTED_SCHEMA, ExtractDocuments, options_to_kwargs
from .commit import atomic_write, staged_dir


def _shard_key(shard_path: str) -> str:
    return os.path.splitext(os.path.basename(shard_path))[0]


def _staged_partition(out_dir: str, key: str):
    """Stage ``part-<key>``.  No marker: the manifest record is the commit
    point, and a redone shard replaces a partition published without one."""
    return staged_dir(
        os.path.join(out_dir, f"part-{key}"),
        replace=True,
        staging=os.path.join(out_dir, f".tmp-{key}"),
    )


def completed_shards(out_dir: str) -> dict[str, dict]:
    """-> {shard_key: manifest_record} for shards already finished."""
    done = {}
    for path in glob.glob(os.path.join(out_dir, "_manifest", "*.json")):
        with open(path) as f:
            rec = json.load(f)
        done[rec["shard_key"]] = rec
    return done


def _check_pipeline_consistent(done: dict, pipeline: str, out_dir: str) -> None:
    """Resume must not silently mix pipeline families: a shard completed
    under a different --pipeline would be skipped with the WRONG columns in
    its partition.  Fail loudly instead.  Manifests written before pipeline
    tracking are classified from the partition's actual parquet schema
    (vlm_json column present => vlm), not assumed standard."""
    for rec in done.values():
        rec_pipeline = rec.get("pipeline")
        if rec_pipeline is None:  # legacy manifest: infer from the output
            part_files = glob.glob(
                os.path.join(out_dir, rec["output_dir"], "*.parquet")
            )
            if not part_files:
                continue  # partition gone; shard will be re-done anyway
            names = pq.read_schema(part_files[0]).names
            rec_pipeline = "vlm" if "vlm_json" in names else "standard"
        if rec_pipeline != pipeline:
            raise ValueError(
                f"output dir {out_dir!r} contains shards completed with "
                f"pipeline={rec_pipeline!r} (shard {rec['shard_key']!r}); "
                f"refusing to resume with pipeline={pipeline!r} — use a "
                f"fresh output dir"
            )


def _totals(n_shards: int, n_skipped: int, done: dict) -> dict:
    return {
        "shards_total": n_shards,
        "shards_skipped_resume": n_skipped,
        **{
            k: int(sum(r[k] for r in done.values()))
            for k in ("docs", "parse_failures", "input_bytes", "chars_out")
        },
    }


def _shard_record(shard: Shard, out: pa.Table, t0: float) -> dict:
    """One shard's manifest counters, from its listing (path, on-disk
    size), its extracted output (in memory or read back from the local
    partition) and its start time."""
    return {
        "shard_key": _shard_key(shard.path),
        "shard_path": shard.path,
        "docs": out.num_rows,
        "parse_failures": int(pc.sum(pc.equal(out["status"], STATUS_FAILURE)).as_py() or 0),
        "chars_out": int(pc.sum(out["n_chars"]).as_py() or 0),
        "input_bytes": shard.size,
        "wall_sec": round(time.monotonic() - t0, 3),
    }


_RECORD_SCHEMA = pa.schema(
    [
        ("shard_key", pa.string()),
        ("shard_path", pa.string()),
        ("docs", pa.int64()),
        ("parse_failures", pa.int64()),
        ("chars_out", pa.int64()),
        ("input_bytes", pa.int64()),
        ("wall_sec", pa.float64()),
    ]
)


def _commit_record(out_dir: str, row: dict, *, mode: str, pipeline: str) -> dict:
    """Write one shard's manifest record — the shard's commit point."""
    rec = {**row, "output_dir": f"part-{row['shard_key']}", "mode": mode, "pipeline": pipeline}
    mdir = os.path.join(out_dir, "_manifest")
    os.makedirs(mdir, exist_ok=True)
    atomic_write(os.path.join(mdir, f"{rec['shard_key']}.json"), json.dumps(rec, sort_keys=True))
    return rec


def run_extract_checkpointed_fused(
    input_dir: str,
    out_dir: str,
    *,
    options: ExtractOptions | None = None,
    pipeline: str = "standard",
    progress_callback=None,
) -> dict:
    """Checkpointed run as ONE Ray Dataset execution (the scale path).

    One fused call per pending shard, in packed tasks of byte-balanced
    shard groups: read shard -> extract -> write `part-<shard>` parquet
    (temp-then-rename, atomic) -> return ONE manifest row.  The driver
    only ever sees manifest rows (bytes-counted lineage),
    never document data — so 10^5 shards is one streaming execution with a
    tiny driver-side collect, instead of 10^5 separate pipeline launches.

    Crash safety: an output dir renamed into place without its manifest
    record is re-done (and overwritten) on the next run — outputs are
    idempotent per shard, the manifest is the commit point, mirroring the
    reference's atomic finalize (redis_helper.py:905-950).

    ``progress_callback(rec)`` (optional) is invoked on the driver per
    completed shard — the analogue of the reference's DocumentCompleted
    progress callbacks (orchestrators/callback_invoker.py:19-110).
    """
    from ..stages.vlm import PIPELINES, get_describe_udf

    if pipeline not in PIPELINES:
        raise ValueError(f"unknown pipeline {pipeline!r}; known: {PIPELINES}")
    options = options or ExtractOptions()
    os.makedirs(out_dir, exist_ok=True)
    done = completed_shards(out_dir)
    _check_pipeline_consistent(done, pipeline, out_dir)
    shards = list_shards(input_dir)
    pending = [s for s in shards if _shard_key(s.path) not in done]
    opts_kwargs = options_to_kwargs(options)
    abs_out = os.path.abspath(out_dir)
    vlm = pipeline == "vlm"

    def process_shard(batch) -> pa.Table:
        udf = ExtractDocuments(opts_kwargs)
        # per-worker-cached model: loads once per worker process, not per
        # shard task (the task-pool substitute for actor __init__ state)
        describe = get_describe_udf() if vlm else None
        recs = []
        for p, size in zip(batch["path"], batch["size"]):
            shard = Shard(str(p), int(size))
            t0 = time.monotonic()
            out = udf(read_shard(shard.path))
            if describe is not None:  # vlm family: enrich in the same task
                out = describe(out)
            with _staged_partition(abs_out, _shard_key(shard.path)) as st:
                pq.write_table(out, os.path.join(st.path, "data.parquet"))
            recs.append(_shard_record(shard, out, t0))
        return pa.Table.from_pylist(recs, schema=_RECORD_SCHEMA)

    if pending:
        manifest_rows = shard_items(pending).map_batches(
            process_shard, batch_size=1, batch_format="numpy"
        ).take_all()
        # driver is the single manifest writer (commit point)
        for row in manifest_rows:
            rec = _commit_record(out_dir, row, mode="fused", pipeline=pipeline)
            done[rec["shard_key"]] = rec
            if progress_callback is not None:
                progress_callback(rec)

    return _totals(len(shards), len(shards) - len(pending), done)


def run_extract_checkpointed(
    input_dir: str,
    out_dir: str,
    *,
    options: ExtractOptions | None = None,
    mode: str = "fused",
    pipeline: str = "standard",
    concurrency=None,
    batch_size: int = 64,
) -> dict:
    """Run the extraction pipeline shard-by-shard with resume.

    mode='fused' delegates to :func:`run_extract_checkpointed_fused` (one
    Dataset execution for ALL pending shards — the scale path);
    mode='sliced' runs one sliced pipeline per shard, for shards whose
    oversized binary docs need the slice fan-out inside.

    Returns run-level metrics (aggregated over manifests, including shards
    completed by PREVIOUS runs — the metrics are durable, not in-memory,
    mirroring the reference's monotonic lifecycle counters,
    ``redis_helper.py:718-812``)."""
    if mode == "fused":
        return run_extract_checkpointed_fused(
            input_dir, out_dir, options=options, pipeline=pipeline
        )
    options = options or ExtractOptions()
    os.makedirs(out_dir, exist_ok=True)
    done = completed_shards(out_dir)
    _check_pipeline_consistent(done, pipeline, out_dir)
    shards = list_shards(input_dir)
    n_skipped = 0

    for shard in shards:
        key = _shard_key(shard.path)
        if key in done:
            n_skipped += 1
            continue
        t0 = time.monotonic()
        ds = extract_pipeline(
            shard.path,
            options=options,
            mode=mode,
            pipeline=pipeline,
            concurrency=concurrency,
            batch_size=batch_size,
        )
        with _staged_partition(out_dir, key) as st:
            ds.write_parquet(st.path)
            # counters from the just-written partition (cheap: local parquet;
            # the schema covers an empty shard, which writes no file)
            out = pq.read_table(st.path, columns=["status", "n_chars"], schema=EXTRACTED_SCHEMA)
        done[key] = _commit_record(
            out_dir, _shard_record(shard, out, t0), mode=mode, pipeline=pipeline
        )

    return _totals(len(shards), n_skipped, done)
