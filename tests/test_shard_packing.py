"""Shard listing and byte-balanced packing (``sources.pages``): the pure
packing rule, and ``scheme://`` inputs listed per shard like local ones."""

from __future__ import annotations

import math

from hypothesis import given, settings
from hypothesis import strategies as st

from docling_jobkit_ray.sources.pages import list_shards, pack_shards

MIB = 1 << 20


def _n_groups(sizes, cpus, min_bytes, max_bytes):
    total = sum(sizes)
    return min(len(sizes), max(math.ceil(total / max_bytes), min(cpus, math.ceil(total / min_bytes))))


@settings(max_examples=300, deadline=None)
@given(
    sizes=st.lists(st.integers(0, 10_000), max_size=40),
    cpus=st.integers(1, 16),
    min_bytes=st.integers(1, 5_000),
    max_factor=st.integers(1, 20),
)
def test_pack_shards_rule(sizes, cpus, min_bytes, max_factor):
    max_bytes = min_bytes * max_factor
    groups = pack_shards(sizes, cpus, min_bytes, max_bytes)
    # every shard in exactly one group, in order, no empty group
    assert [i for g in groups for i in g] == list(range(len(sizes)))
    assert all(groups)
    n = _n_groups(sizes, cpus, min_bytes, max_bytes)
    total = sum(sizes)
    for g in groups:
        group_bytes = sum(sizes[i] for i in g)
        # a group over max_bytes, or holding a shard larger than its share,
        # is that one shard
        if group_bytes > max_bytes or any(sizes[i] * n > total for i in g):
            assert len(g) == 1
    # the count follows the rule unless a big shard or the byte cap cut
    # extra groups; with neither it is exact
    if all(s * n <= total for s in sizes) and 2 * total <= n * max_bytes:
        assert len(groups) == max(n, min(1, len(sizes)))


def test_pack_shards_examples():
    assert pack_shards([], 4, MIB, 128 * MIB) == []
    shards = [960_000] * 8  # ~7.7 MB in 8 shards
    assert pack_shards(shards, 1, MIB, 128 * MIB) == [list(range(8))]
    assert pack_shards(shards, 4, MIB, 128 * MIB) == [[0, 1], [2, 3], [4, 5], [6, 7]]
    # multi-GB shards: one group per shard, whatever the CPU count
    assert pack_shards([2 << 30] * 3, 1, MIB, 128 * MIB) == [[0], [1], [2]]
    # the cut falls at the shard edge nearest the byte boundary (4 of 8)
    assert pack_shards([3, 3, 2], 2, 1, 100) == [[0], [1, 2]]
    # a shard larger than one share is alone
    assert pack_shards([1, 6, 1, 1, 1], 2, 1, 100) == [[0], [1], [2, 3, 4]]


def test_uri_input_lists_and_reads_per_shard(ray_session, corpus_dir, tmp_path):
    """A ``file://`` spelling of a corpus directory lists the same shards
    (scheme kept) and runs like the local spelling: as many tasks, one
    ``partition_id`` per shard, the same checkpoint totals."""
    import re

    from docling_jobkit_ray.pipelines.extract import extract_pipeline
    from docling_jobkit_ray.stages.extract import partition_id_for_path
    from docling_jobkit_ray.state.checkpoint import run_extract_checkpointed

    uri = "file://" + corpus_dir
    local = list_shards(corpus_dir)
    assert len(local) == 3
    assert list_shards(uri) == [(uri + p[len(corpus_dir):], size) for p, size in local]

    def run(path):
        ds = extract_pipeline(path).materialize()
        tasks = re.search(r"MapBatches\(read_and_extract\): (\d+) tasks executed", ds.stats())
        ids = {r["url"]: r["partition_id"] for r in ds.select_columns(["url", "partition_id"]).take_all()}
        return int(tasks.group(1)), ids

    local_tasks, local_ids = run(corpus_dir)
    uri_tasks, uri_ids = run(uri)
    assert uri_tasks == local_tasks
    assert uri_ids.keys() == local_ids.keys()
    assert set(uri_ids.values()) == {partition_id_for_path(s.path, "") for s in list_shards(uri)}

    assert run_extract_checkpointed(uri, str(tmp_path / "uri")) == run_extract_checkpointed(
        corpus_dir, str(tmp_path / "local")
    )
