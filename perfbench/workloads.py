"""The benchmark's workloads: seeded corpora, the Ray job each one times,
and the single-process replay its traced run uses.

Inputs come only from ``fixtures.corpus.write_corpus(seed=...)``; the
program under test receives nothing but the generated shards.
"""

from __future__ import annotations

import collections
import contextlib
import gc
import glob
import os
import shutil
import time
from dataclasses import dataclass, field

import pyarrow.parquet as pq

from gate import check_tables, oracle_digests
from spans import remove_every_other_commit, replay_checkpoint, replay_fused, replay_sliced

from docling_jobkit_ray.extract.record import ExtractOptions, extract_corpus_oracle
from docling_jobkit_ray.fixtures.corpus import write_corpus

OPTIONS = ExtractOptions()
WARM_SEED_OFFSET = 1_000_000_007  # warm-up corpus: same mix, disjoint docs
WARM_ROWS = 64


@dataclass
class Inputs:
    corpus_dir: str
    paths: list[str]
    n_docs: int
    expected: dict[str, str]  # url -> digest of the oracle's row
    failure_rows: dict[str, int]  # oracle FAILURE rows per category
    oracle_s: float


@dataclass
class JobResult:
    docs: int  # documents delivered (or committed, for checkpoint_resume)
    wall_s: float  # wall time that produced ``docs``
    job_s: float  # the whole job (full run plus re-run, for checkpoint_resume)
    problems: list[str]
    stats: list = field(default_factory=list)  # DatasetStatsSummary per execution
    extra: dict = field(default_factory=dict)


@dataclass(frozen=True)
class Workload:
    name: str
    n_rows: int
    n_shards: int
    corpus_kwargs: dict
    job: object  # (Inputs, scratch_dir, capture_stats) -> JobResult
    replay: object  # (Inputs, scratch_dir, tracer) -> list[pa.Table]

    def make_inputs(
        self, work_dir: str, seed: int, *, n_rows: int | None = None, n_shards: int | None = None, subdir: str = "corpus"
    ) -> Inputs:
        corpus_dir = os.path.join(work_dir, subdir)
        shutil.rmtree(corpus_dir, ignore_errors=True)
        write_corpus(
            corpus_dir,
            n_rows=n_rows or self.n_rows,
            seed=seed,
            n_shards=n_shards or self.n_shards,
            **self.corpus_kwargs,
        )
        paths = sorted(glob.glob(os.path.join(corpus_dir, "*.parquet")))
        rows = []
        for p in paths:
            t = pq.read_table(p, columns=["url", "html"])
            rows.extend(zip(t.column("url").to_pylist(), t.column("html").to_pylist()))
        t0 = time.perf_counter()
        oracle = extract_corpus_oracle(rows, OPTIONS)
        oracle_s = time.perf_counter() - t0
        failures = collections.Counter(r["category"] for r in oracle if r["status"] == "FAILURE")
        inputs = Inputs(corpus_dir, paths, len(rows), oracle_digests(oracle), dict(failures), oracle_s)
        # Keep only digests: the driver runs Ray Data's scheduling loop, and
        # collector passes over the corpus and oracle rows would stall it.
        del rows, oracle
        gc.collect()
        gc.freeze()
        return inputs

    def make_warm_inputs(self, work_dir: str, seed: int) -> Inputs:
        return self.make_inputs(work_dir, seed + WARM_SEED_OFFSET, n_rows=WARM_ROWS, n_shards=2, subdir="warm")


# ------------------------------------------------------------------ jobs


def _streamed_job(mode: str):
    def job(inputs: Inputs, scratch: str, capture_stats: bool = False) -> JobResult:
        from docling_jobkit_ray.pipelines.extract import extract_pipeline

        t0 = time.perf_counter()
        ds = extract_pipeline(inputs.paths, mode=mode)
        tables = list(ds.iter_batches(batch_format="pyarrow", batch_size=None))
        wall = time.perf_counter() - t0
        problems = check_tables(inputs.expected, tables)
        stats = [ds._get_stats_summary()] if capture_stats else []
        return JobResult(sum(t.num_rows for t in tables), wall, wall, problems, stats)

    return job


@contextlib.contextmanager
def _capture_take_all(sink: list):
    """Keep the stats of every ``Dataset.take_all`` run inside the block
    (the checkpoint runner builds its Dataset internally)."""
    import ray.data

    original = ray.data.Dataset.take_all

    def take_all(self, *args, **kwargs):
        rows = original(self, *args, **kwargs)
        sink.append(self._get_stats_summary())
        return rows

    ray.data.Dataset.take_all = take_all
    try:
        yield
    finally:
        ray.data.Dataset.take_all = original


def _dir_bytes(path: str) -> int:
    return sum(
        os.path.getsize(os.path.join(d, f)) for d, _dirs, files in os.walk(path) for f in files
    )


def _checkpoint_job(inputs: Inputs, scratch: str, capture_stats: bool = False) -> JobResult:
    """Full checkpointed run into a fresh directory, then the re-run after
    removing every other shard's commit."""
    from docling_jobkit_ray.state.checkpoint import completed_shards, run_extract_checkpointed_fused

    out = os.path.join(scratch, "checkpoint-out")
    shutil.rmtree(out, ignore_errors=True)
    stats: list = []
    with _capture_take_all(stats) if capture_stats else contextlib.nullcontext():
        t0 = time.perf_counter()
        full = run_extract_checkpointed_fused(inputs.corpus_dir, out, options=OPTIONS)
        full_s = time.perf_counter() - t0
        manifests = completed_shards(out)
        bytes_full = _dir_bytes(out)
        removed = remove_every_other_commit(out, sorted(manifests))
        t0 = time.perf_counter()
        resume = run_extract_checkpointed_fused(inputs.corpus_dir, out, options=OPTIONS)
        resume_s = time.perf_counter() - t0

    problems = []
    redone = resume["shards_total"] - resume["shards_skipped_resume"]
    if full["docs"] != inputs.n_docs or resume["docs"] != inputs.n_docs:
        problems.append(f"committed docs {full['docs']}/{resume['docs']} != corpus {inputs.n_docs}")
    if redone != len(removed):
        problems.append(f"shards_redone {redone} != removed commits {len(removed)}")
    parts = sorted(glob.glob(os.path.join(out, "part-*", "*.parquet")))
    problems += check_tables(inputs.expected, [pq.read_table(p) for p in parts])

    after = completed_shards(out)
    walls = [manifests[k]["wall_sec"] for k in sorted(manifests)]
    walls += [after[k]["wall_sec"] for k in removed if k in after]
    bytes_redone = sum(_dir_bytes(os.path.join(out, f"part-{k}")) for k in removed)
    extra = {
        "shard_wall_s": walls,
        "bytes_written": bytes_full + bytes_redone,
        "shards_skipped": resume["shards_skipped_resume"],
        "shards_redone": redone,
        "full_s": full_s,
        "resume_s": resume_s,
    }
    return JobResult(full["docs"], full_s, full_s + resume_s, problems, stats, extra)


def _replay_checkpoint(inputs: Inputs, scratch: str, tr):
    return replay_checkpoint(inputs.paths, os.path.join(scratch, "replay-out"), OPTIONS, tr)


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            # the tokenizer dominates; no exchange, no writes
            name="html_fused",
            n_rows=2400,
            n_shards=8,
            corpus_kwargs={},
            job=_streamed_job("fused"),
            replay=lambda inputs, scratch, tr: replay_fused(inputs.paths, OPTIONS, tr),
        ),
        Workload(
            # most docs exceed slice_pages: fan-out, page parse and the
            # reassembly exchange do the work, the tokenizer little.  The
            # skew is in page counts; the HTML minority has no heavy tail,
            # whose handful of 10-50x pages swung job time ~30% by seed.
            name="binary_sliced",
            n_rows=2000,
            n_shards=8,
            corpus_kwargs={"binary_frac": 0.85, "max_binary_pages": 60, "heavy_tail_frac": 0.0},
            job=_streamed_job("sliced"),
            replay=lambda inputs, scratch, tr: replay_sliced(inputs.paths, OPTIONS, tr),
        ),
        Workload(
            # the html_fused work plus writes, renames, manifests and the
            # resume scan
            name="checkpoint_resume",
            n_rows=2400,
            n_shards=8,
            corpus_kwargs={},
            job=_checkpoint_job,
            replay=_replay_checkpoint,
        ),
    )
}

