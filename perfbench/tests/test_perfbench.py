"""Self-tests of the benchmark: the gate, the seeding and the exact counts.

Run from the repository root:  python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import json
import os
import shutil
import sys

import pyarrow as pa
import pytest

BENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT = os.path.dirname(BENCH)
sys.path[:0] = [BENCH, ROOT]

import run as bench  # noqa: E402
from gate import check_tables  # noqa: E402
from spans import NullTracer, Tracer, replay_fused, traced_replay  # noqa: E402
from workloads import OPTIONS, WORKLOADS  # noqa: E402


def _small_inputs(tmp_path, name="html_fused", seed=3, n_rows=48, n_shards=4):
    return WORKLOADS[name].make_inputs(str(tmp_path), seed, n_rows=n_rows, n_shards=n_shards)


def test_gate_accepts_the_oracle_and_rejects_a_corrupted_row(tmp_path):
    inputs = _small_inputs(tmp_path)
    tables = replay_fused(inputs.paths, OPTIONS, NullTracer())
    assert check_tables(inputs.expected, tables) == []

    t = tables[0]
    status = t.column("status").to_pylist()
    texts = t.column("text").to_pylist()
    i = status.index("SUCCESS")
    texts[i] += " "
    corrupted = t.set_column(t.schema.get_field_index("text"), "text", pa.array(texts, pa.string()))
    problems = check_tables(inputs.expected, [corrupted, *tables[1:]])
    assert problems == [f"content differs for {t.column('url')[i].as_py()}"]

    assert check_tables(inputs.expected, [t.slice(1), *tables[1:]])  # a row missing
    assert check_tables(inputs.expected, [*tables, t.slice(0, 1)])  # a row twice


def test_two_seeds_give_different_corpora_and_one_seed_the_same(tmp_path):
    a = _small_inputs(tmp_path / "a", seed=1)
    b = _small_inputs(tmp_path / "b", seed=2)
    again = _small_inputs(tmp_path / "again", seed=1)
    assert a.expected != b.expected
    assert again.expected == a.expected


def _replay_counts(tmp_path, name: str) -> dict:
    inputs = _small_inputs(tmp_path, name=name, seed=5, n_rows=64)
    tr = Tracer()
    with traced_replay(tr):
        tables = WORKLOADS[name].replay(inputs, str(tmp_path), tr)
    assert check_tables(inputs.expected, tables) == []
    return {**tr.counts, "failure_rows": inputs.failure_rows}


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_replay_counts_repeat_exactly(tmp_path, name):
    first = _replay_counts(tmp_path / "1", name)
    second = _replay_counts(tmp_path / "2", name)
    assert first == second
    assert first["extract.html.blocks_kept"] > 0
    assert first["failure_rows"]
    if name == "binary_sliced":
        assert first["stages.slices.slice_rows"] > first["stages.slices.fanout_docs"] > 0
    if name == "checkpoint_resume":
        assert first["state.checkpoint.shards_skipped"] == 2  # 4 shards, every other redone


def test_checkpoint_job_counts_repeat_exactly_under_ray(tmp_path):
    wl = WORKLOADS["checkpoint_resume"]
    inputs = _small_inputs(tmp_path, name=wl.name, seed=7, n_rows=64, n_shards=6)
    temp_dir = bench.ray_temp_dir()
    session = bench.RaySession(1, temp_dir)
    session.start()
    try:
        runs = [wl.job(inputs, str(tmp_path), False) for _ in range(2)]
    finally:
        session.stop()
        shutil.rmtree(temp_dir, ignore_errors=True)
    for r in runs:
        assert r.problems == []
        assert r.docs == inputs.n_docs
    assert runs[0].extra["shards_redone"] == runs[1].extra["shards_redone"] == 3
    assert runs[0].extra["shards_skipped"] == runs[1].extra["shards_skipped"] == 3


def test_benchmark_json_matches_the_runner():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    assert spec["paths"] == ["perfbench"]
    assert {w["name"] for w in spec["workloads"]} <= set(WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == bench.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == bench.PER_LAYER
    assert any(m["name"] == "setup_s" and m["bound"] == max(e["bound"] for e in spec["end_to_end"])
               for m in spec["end_to_end"])
