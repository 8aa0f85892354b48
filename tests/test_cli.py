"""CLI entry point: the `ray job submit`-shaped launch path, driven as a
subprocess (the CLI owns its own Ray session)."""

from __future__ import annotations

import glob
import json
import subprocess
import sys

import pyarrow.parquet as pq
import pytest


@pytest.fixture(scope="module")
def small_corpus(tmp_path_factory):
    from docling_jobkit_ray.fixtures.corpus import write_corpus

    out = str(tmp_path_factory.mktemp("cli_corpus"))
    write_corpus(out, n_rows=60, seed=11, n_shards=2)
    return out


def _run_cli(*args: str) -> dict:
    proc = subprocess.run(
        [sys.executable, "-m", "docling_jobkit_ray.cli", *args],
        capture_output=True,
        text=True,
        timeout=300,
        cwd="/root/repo",
    )
    assert proc.returncode == 0, proc.stderr[-2000:]
    return json.loads(proc.stdout.strip().splitlines()[-1])


def test_cli_checkpointed_run_with_new_options(small_corpus, tmp_path):
    out = str(tmp_path / "out")
    totals = _run_cli(
        "--input", small_corpus,
        "--output", out,
        "--mode", "fused",
        "--num-cpus", "2",
        "--document-timeout", "60",
        "--retry-attempts", "2",
    )
    assert totals, "CLI must print a totals JSON line"
    files = glob.glob(f"{out}/**/*.parquet", recursive=True)
    assert files
    n = sum(pq.ParquetFile(f).metadata.num_rows for f in files)
    assert n == 60


def test_cli_page_range_parse_error(small_corpus, tmp_path):
    proc = subprocess.run(
        [sys.executable, "-m", "docling_jobkit_ray.cli",
         "--input", small_corpus, "--output", str(tmp_path / "o"),
         "--page-range", "nonsense"],
        capture_output=True, text=True, timeout=60, cwd="/root/repo",
    )
    assert proc.returncode != 0
    assert "LO:HI" in proc.stderr


def test_cli_query_list(ray_session, capsys):
    from docling_jobkit_ray.cli import main

    assert main(["query", "--list"]) == 0
    out = capsys.readouterr().out
    assert "revenue_by_nation\tsql" in out
    assert "extract_fused\trows" in out


def test_cli_query_list_outside_the_checkout(tmp_path):
    """``query --list`` works from an installed copy of the package alone:
    any cwd, and only the package directory on ``PYTHONPATH``."""
    import os
    import shutil

    import docling_jobkit_ray

    site = tmp_path / "site"
    shutil.copytree(
        os.path.dirname(docling_jobkit_ray.__file__),
        site / "docling_jobkit_ray",
        ignore=shutil.ignore_patterns("__pycache__"),
    )
    env = {**os.environ, "PYTHONPATH": str(site)}
    proc = subprocess.run(
        [sys.executable, "-m", "docling_jobkit_ray.cli", "query", "--list"],
        capture_output=True, text=True, timeout=300, cwd=tmp_path, env=env,
    )
    assert proc.returncode == 0, proc.stderr[-2000:]
    names = [line.split("\t")[0] for line in proc.stdout.splitlines() if "\t" in line]
    assert len(names) == 341


def test_cli_query_runs_pipeline(ray_session, capsys):
    import ray

    from docling_jobkit_ray.cli import main

    assert main(["query", "revenue_by_nation", "--sf-dir", "/root/testdata/sf0.001", "--limit", "3"]) == 0
    out = capsys.readouterr().out
    assert '"query": "revenue_by_nation"' in out
    assert ray.is_initialized()  # the CLI must not tear down the caller's session


def test_cli_dedup_snapshots_two_phase(tmp_path):
    """--dedup-snapshots stages a newest-per-url corpus, extracts from it
    (one output row per url), and a re-run resumes from the committed
    staging dir instead of re-deduping."""
    import os

    import pandas as pd
    import pyarrow as pa

    from docling_jobkit_ray.fixtures.corpus import write_corpus

    src = str(tmp_path / "src")
    write_corpus(src, n_rows=60, seed=13, n_shards=2)
    tables = [pq.read_table(f) for f in sorted(glob.glob(f"{src}/*.parquet"))]
    t = pa.concat_tables(tables).combine_chunks()
    df = t.to_pandas()
    dup = df.iloc[:30].copy()
    dup["warc_ts"] = dup["warc_ts"] + pd.Timedelta(days=3)
    dup_dir = str(tmp_path / "dup")
    os.makedirs(dup_dir)
    pq.write_table(
        pa.Table.from_pandas(
            pd.concat([df, dup], ignore_index=True), preserve_index=False,
            schema=t.schema,
        ),
        f"{dup_dir}/pages.parquet",
    )

    out = str(tmp_path / "out")
    _run_cli(
        "--input", dup_dir, "--output", out,
        "--dedup-snapshots", "--no-checkpoint", "--num-cpus", "4",
    )
    staged = sorted(glob.glob(f"{out}/_snapshot_dedup/*.parquet"))
    assert staged and os.path.exists(f"{out}/_snapshot_dedup/_SUCCESS")
    staged_urls = pa.concat_tables([pq.read_table(f, columns=["url"]) for f in staged])
    assert staged_urls.num_rows == df["url"].nunique()

    out_files = [
        f for f in glob.glob(f"{out}/*.parquet")
    ]
    rows = pa.concat_tables([pq.read_table(f, columns=["url"]) for f in out_files])
    assert rows.num_rows == df["url"].nunique()

    # resume into the SAME output: the committed snapshot dir is reused
    # as-is (same files, same mtimes) and a fresh extract output is written
    def snapshot_state():
        return {
            f: os.stat(f).st_mtime_ns
            for f in sorted(glob.glob(f"{out}/_snapshot_dedup/*"))
        }

    before = snapshot_state()
    for f in out_files:
        os.remove(f)
    _run_cli(
        "--input", dup_dir, "--output", out,
        "--dedup-snapshots", "--no-checkpoint", "--num-cpus", "4",
    )
    assert snapshot_state() == before
    fresh = glob.glob(f"{out}/*.parquet")
    assert fresh and not set(fresh) & set(out_files)
    rows = pa.concat_tables([pq.read_table(f, columns=["url"]) for f in fresh])
    assert rows.num_rows == df["url"].nunique()
