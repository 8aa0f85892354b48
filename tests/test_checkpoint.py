"""Checkpoint/resume: atomic per-shard output, manifest counters, skip-done."""

from __future__ import annotations

import glob
import json
import os

import pytest
import ray.data


@pytest.mark.parametrize("mode", ["fused", "sliced"])
def test_checkpointed_run_and_resume(ray_session, corpus_dir, corpus_oracle, tmp_path, mode):
    """Both runners build the same manifest records: the totals equal the
    oracle's counts in either mode."""
    from docling_jobkit_ray.state.checkpoint import (
        completed_shards,
        run_extract_checkpointed,
    )

    out = str(tmp_path / "out")
    totals = run_extract_checkpointed(corpus_dir, out, mode=mode)
    assert totals == {
        "shards_total": 3,
        "shards_skipped_resume": 0,
        "docs": len(corpus_oracle),
        "parse_failures": sum(1 for r in corpus_oracle.values() if r["status"] == "FAILURE"),
        "input_bytes": sum(os.path.getsize(p) for p in glob.glob(f"{corpus_dir}/*.parquet")),
        "chars_out": sum(r["n_chars"] for r in corpus_oracle.values()),
    }

    # manifest records exist per shard, with lineage + counters
    done = completed_shards(out)
    assert len(done) == 3
    for rec in done.values():
        assert os.path.isdir(os.path.join(out, rec["output_dir"]))
        assert rec["docs"] > 0 and "wall_sec" in rec and rec["shard_path"]
        assert rec["mode"] == mode

    # output content matches the oracle (read back everything)
    parts = sorted(glob.glob(os.path.join(out, "part-*", "*.parquet")))
    ds = ray.data.read_parquet(parts)
    got = {r["url"]: r for r in ds.take_all()}
    assert set(got) == set(corpus_oracle)
    for url, want in corpus_oracle.items():
        assert got[url]["text"] == want["text"]

    # resume: delete ONE manifest record -> only that shard re-runs
    mdir = os.path.join(out, "_manifest")
    victim = sorted(os.listdir(mdir))[0]
    os.remove(os.path.join(mdir, victim))
    totals2 = run_extract_checkpointed(corpus_dir, out, mode=mode)
    assert totals2["shards_skipped_resume"] == 2
    assert totals2["docs"] == totals["docs"]  # durable counters re-aggregate

    # rerun with everything done: nothing executes, totals stable
    totals3 = run_extract_checkpointed(corpus_dir, out, mode=mode)
    assert totals3["shards_skipped_resume"] == 3
    assert totals3 == {**totals2, "shards_skipped_resume": 3}


@pytest.mark.parametrize("mode", ["fused", "sliced"])
def test_checkpointed_empty_shard(ray_session, tmp_path, mode):
    """A shard with no rows commits a zero-count record in either runner."""
    import pyarrow as pa
    import pyarrow.parquet as pq

    from docling_jobkit_ray.state.checkpoint import run_extract_checkpointed

    src = tmp_path / "in"
    src.mkdir()
    empty = pa.table({"url": pa.array([], pa.string()), "html": pa.array([], pa.binary())})
    pq.write_table(empty, str(src / "pages-0.parquet"))
    totals = run_extract_checkpointed(str(src), str(tmp_path / "out"), mode=mode)
    assert (totals["shards_total"], totals["docs"], totals["chars_out"]) == (1, 0, 0)


def test_manifest_atomicity_no_tmp_leftover(ray_session, corpus_dir, tmp_path):
    from docling_jobkit_ray.state.checkpoint import run_extract_checkpointed

    out = str(tmp_path / "out")
    run_extract_checkpointed(corpus_dir, out, concurrency=(1, 2))
    leftovers = [d for d in os.listdir(out) if d.startswith(".tmp-")]
    assert leftovers == []
    for f in os.listdir(os.path.join(out, "_manifest")):
        assert not f.startswith(".tmp-")
        rec = json.load(open(os.path.join(out, "_manifest", f)))
        assert {"shard_key", "docs", "parse_failures", "input_bytes"} <= set(rec)


def test_checkpointed_fused_matches_oracle(ray_session, corpus_dir, corpus_oracle, tmp_path):
    from docling_jobkit_ray.state.checkpoint import run_extract_checkpointed

    out = str(tmp_path / "fused_out")
    seen = []
    from docling_jobkit_ray.state.checkpoint import run_extract_checkpointed_fused

    totals = run_extract_checkpointed_fused(
        corpus_dir, out, progress_callback=lambda rec: seen.append(rec["shard_key"])
    )
    assert totals["docs"] == len(corpus_oracle)
    assert len(seen) == 3  # progress callback fired per shard
    parts = sorted(glob.glob(os.path.join(out, "part-*", "*.parquet")))
    ds = ray.data.read_parquet(parts)
    got = {r["url"]: r["text"] for r in ds.take_all()}
    assert got == {u: r["text"] for u, r in corpus_oracle.items()}
    # resume skips everything
    totals2 = run_extract_checkpointed(corpus_dir, out, mode="fused")
    assert totals2["shards_skipped_resume"] == 3
    assert totals2["docs"] == totals["docs"]


def test_crash_between_publish_and_manifest_redoes_shard(
    ray_session, corpus_dir, corpus_oracle, tmp_path
):
    """The manifest is the commit point: a part-* dir that was renamed into
    place but whose manifest record never landed (crash window) must be
    re-done and OVERWRITTEN on the next run."""
    from docling_jobkit_ray.state.checkpoint import run_extract_checkpointed

    out = str(tmp_path / "out")
    run_extract_checkpointed(corpus_dir, out, concurrency=(1, 2))
    mdir = os.path.join(out, "_manifest")
    victim = sorted(os.listdir(mdir))[0]
    victim_key = victim[: -len(".json")]
    # simulate the crash window: manifest gone, published output corrupted
    os.remove(os.path.join(mdir, victim))
    part_dir = os.path.join(out, f"part-{victim_key}")
    for f in os.listdir(part_dir):
        os.remove(os.path.join(part_dir, f))
    with open(os.path.join(part_dir, "garbage.parquet"), "w") as f:
        f.write("not parquet")

    totals = run_extract_checkpointed(corpus_dir, out, concurrency=(1, 2))
    assert totals["shards_skipped_resume"] == 2
    # the corrupted partition was rebuilt: full corpus reads back correct
    parts = sorted(glob.glob(os.path.join(out, "part-*", "*.parquet")))
    ds = ray.data.read_parquet(parts)
    got = {r["url"]: r["text"] for r in ds.take_all()}
    assert got == {u: r["text"] for u, r in corpus_oracle.items()}


def test_resume_refuses_pipeline_mismatch(ray_session, corpus_dir, tmp_path):
    """A shard completed under pipeline=standard must not be silently
    skipped by a vlm resume (the partition would lack vlm_json)."""
    from docling_jobkit_ray.state.checkpoint import run_extract_checkpointed

    out = str(tmp_path / "out")
    run_extract_checkpointed(corpus_dir, out, mode="fused")
    with pytest.raises(ValueError, match="pipeline"):
        run_extract_checkpointed(corpus_dir, out, mode="fused", pipeline="vlm")
    # same family resumes fine
    totals = run_extract_checkpointed(corpus_dir, out, mode="fused")
    assert totals["shards_skipped_resume"] == 3


def test_resume_infers_pipeline_from_legacy_manifest(ray_session, corpus_dir, tmp_path):
    """Manifests written before pipeline tracking: the family is inferred
    from the partition schema, so a legacy vlm dir refuses a standard
    resume (and vice versa) instead of silently mixing schemas."""
    from docling_jobkit_ray.state.checkpoint import run_extract_checkpointed

    out = str(tmp_path / "legacy")
    run_extract_checkpointed(corpus_dir, out, mode="fused", pipeline="vlm")
    # simulate legacy manifests: strip the pipeline field
    mdir = os.path.join(out, "_manifest")
    for f in os.listdir(mdir):
        p = os.path.join(mdir, f)
        rec = json.load(open(p))
        rec.pop("pipeline", None)
        json.dump(rec, open(p, "w"))
    with pytest.raises(ValueError, match="pipeline"):
        run_extract_checkpointed(corpus_dir, out, mode="fused")  # standard
    totals = run_extract_checkpointed(corpus_dir, out, mode="fused", pipeline="vlm")
    assert totals["shards_skipped_resume"] == 3


def test_crash_inside_packed_task_redoes_published_shards(ray_session, tmp_path):
    """A packed fused task publishes each shard's partition as it goes:
    when its second shard is corrupt, the run raises after the first
    shard's partition landed, no manifest record exists, and the re-run
    over the repaired input equals a crash-free run (one row per url, no
    staging dirs left)."""
    import pyarrow.parquet as pq

    from docling_jobkit_ray.fixtures.corpus import write_corpus
    from docling_jobkit_ray.sources.pages import list_shards, shard_groups
    from docling_jobkit_ray.state.checkpoint import completed_shards, run_extract_checkpointed

    src = tmp_path / "in"
    write_corpus(str(src), n_rows=120, seed=5, n_shards=3)
    victim = src / "pages-00001.parquet"
    good = victim.read_bytes()
    victim.write_bytes(b"PAR1 not a parquet file PAR1")
    shards = list_shards(str(src))
    # the corrupt shard is second in a packed task
    assert shard_groups(shards)[0][:2] == shards[:2]

    out = tmp_path / "out"
    with pytest.raises(Exception):
        run_extract_checkpointed(str(src), str(out), mode="fused")
    assert (out / "part-pages-00000").is_dir()  # published before the crash
    assert completed_shards(str(out)) == {}  # ... but never recorded

    victim.write_bytes(good)
    totals = run_extract_checkpointed(str(src), str(out), mode="fused")
    ref = tmp_path / "ref"
    assert totals == run_extract_checkpointed(str(src), str(ref), mode="fused")
    assert totals["shards_skipped_resume"] == 0
    assert not [d for d in os.listdir(out) if d.startswith(".tmp-")]

    def rows(d):
        t = pq.read_table(sorted(glob.glob(os.path.join(d, "part-*", "*.parquet"))))
        return sorted(zip(t["url"].to_pylist(), t["text"].to_pylist(), t["status"].to_pylist()))

    got = rows(out)
    assert len({u for u, _, _ in got}) == len(got) == totals["docs"]
    assert got == rows(ref)
