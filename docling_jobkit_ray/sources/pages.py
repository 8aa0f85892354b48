"""Pages-table source: column-pruned Parquet reads.

Replaces the reference's source-connector listing/fetch machinery
(reference ``docling_jobkit/connectors/source_processor.py:49-198``).
Extraction plans list the shards with their on-disk sizes with
:func:`list_shards`, pack consecutive shards into byte-balanced groups with
:func:`shard_items` (one block, hence one task, per group: about one group
per CPU, no group of several shards over Ray's target block size, a shard
larger than its share alone) and read each shard inside the task with :func:`read_shard`,
which attaches the shard path per row: the lineage key for the dead-letter
dataset and checkpoint manifest (SURVEY.md §4.2 resume).
"""

from __future__ import annotations

import math
import os
from typing import NamedTuple

import pyarrow as pa
import pyarrow.fs as pafs
import pyarrow.parquet as pq
import ray
import ray.data


class Shard(NamedTuple):
    """One parquet shard: its path (absolute local path or URI) and its
    on-disk size in bytes, the weight :func:`shard_items` packs by."""

    path: str
    size: int


def _filesystem(path: str) -> tuple[pafs.FileSystem, str]:
    """The filesystem behind a local path or a ``scheme://`` URI, and the
    path within it (local paths made absolute, so lineage ids do not depend
    on the working directory)."""
    if "://" in path:
        return pafs.FileSystem.from_uri(path)
    return pafs.LocalFileSystem(), os.path.abspath(path)


def list_shards(input_path: str | list[str]) -> list[Shard]:
    """The parquet shards behind ``input_path``: a directory's ``*.parquet``
    files in name order, a single file, or a list of either — local or
    ``scheme://`` URIs, each listed once for its size.  Local paths come
    back absolute; a URI keeps its scheme, so :func:`read_shard` reads it."""
    shards = []
    for given in [input_path] if isinstance(input_path, str) else input_path:
        fs, path = _filesystem(given)
        prefix = given.split("://", 1)[0] + "://" if "://" in given else ""
        info = fs.get_file_info(path)
        if info.type == pafs.FileType.Directory:
            listed = fs.get_file_info(pafs.FileSelector(path))
            infos = sorted(
                (i for i in listed if i.is_file and i.base_name.endswith(".parquet")),
                key=lambda i: i.base_name,
            )
        elif info.is_file:
            infos = [info]
        else:
            raise FileNotFoundError(f"no parquet shard at {given!r}")
        shards += [Shard(prefix + i.path, i.size) for i in infos]
    return shards


def pack_shards(
    sizes: list[int], cpus: int, min_bytes: int, max_bytes: int
) -> list[list[int]]:
    """Consecutive shard indices packed into byte-balanced groups.

    The group count is ``min(n, max(ceil(total / max_bytes), min(cpus,
    ceil(total / min_bytes))))``: one group per CPU, but no group under
    ``min_bytes`` of input and none over ``max_bytes`` (Spark's file-split
    rule, with Ray's block-size targets).  A shard joins the group whose
    share ``[k·total/n_groups, (k+1)·total/n_groups)`` holds its midpoint, so
    the cuts fall at the shard edges nearest those boundaries.  A shard
    larger than one share is a group by itself, and a group never grows past
    ``max_bytes`` by a second shard."""
    total = sum(sizes)
    n_groups = min(
        len(sizes),
        max(math.ceil(total / max_bytes), min(cpus, math.ceil(total / min_bytes))),
    )
    groups: list[list[int]] = []
    cum = group_bytes = 0
    last_slot = last_big = None
    for i, size in enumerate(sizes):
        slot = min((2 * cum + size) * n_groups // (2 * total), n_groups - 1) if total else 0
        big = size * n_groups > total
        if not groups or slot != last_slot or big or last_big or group_bytes + size > max_bytes:
            groups.append([])
            group_bytes = 0
        groups[-1].append(i)
        group_bytes += size
        cum += size
        last_slot, last_big = slot, big
    return groups


_ITEM_SCHEMA = pa.schema([("path", pa.string()), ("size", pa.int64())])


def shard_groups(shards: list[Shard]) -> list[list[Shard]]:
    """:func:`pack_shards` for this Ray cluster's CPU count and the current
    ``DataContext``'s block-size targets (starting Ray if it is not yet)."""
    if not ray.is_initialized():
        ray.init()
    ctx = ray.data.DataContext.get_current()
    groups = pack_shards(
        [s.size for s in shards],
        int(ray.cluster_resources().get("CPU", 1)),
        ctx.target_min_block_size,
        ctx.target_max_block_size,
    )
    return [[shards[i] for i in g] for g in groups]


def shard_items(shards: list[Shard]) -> ray.data.Dataset:
    """A Dataset of ``{"path", "size"}`` rows, one block (hence one map
    task) per :func:`shard_groups` group — the input of plans that read a
    shard inside the task.  A ``batch_size=1`` UDF still sees one shard per
    call.  An empty list gives an empty Dataset (one empty block: Ray
    rejects zero blocks).  ``from_blocks`` keeps the blocks as given and
    takes their metadata in the driver, where ``from_arrow`` launches one
    Ray task per block to read it."""
    return ray.data.from_blocks(
        [
            pa.Table.from_pylist([s._asdict() for s in g], schema=_ITEM_SCHEMA)
            for g in shard_groups(shards) or [[]]
        ]
    )


def read_shard(path: str) -> pa.Table:
    """One shard's (url, html) columns plus its ``path`` on every row —
    the only columns extraction reads.  A URI is read through the
    filesystem its scheme names, as :func:`list_shards` listed it."""
    fs, fs_path = _filesystem(path)
    with pq.ParquetFile(fs_path, filesystem=fs) as f:
        t = f.read(columns=["url", "html"])
    return t.append_column("path", pa.array([path] * t.num_rows, pa.string()))


def read_pages(
    path: str | list[str],
    *,
    columns: list[str] | None = None,
    include_paths: bool = True,
    **kwargs,
) -> ray.data.Dataset:
    """Read the pages table, pruned to the columns the pipeline needs.

    The extraction pipeline only needs (url, html) — never read text/lang
    along for the ride (prune-at-the-read; a read that loads all columns for
    a 2-column transform is wrong at 100 TB)."""
    if columns is None:
        columns = ["url", "html"]
    return ray.data.read_parquet(
        path, columns=columns, include_paths=include_paths, **kwargs
    )


# Fact tables big enough that post-read block splitting pays: the driver
# files are single-row-group, so the read is one task either way, but
# override_num_blocks lets every DOWNSTREAM stage run wide.
_SPLIT_TABLES = {"lineitem": 32, "orders": 16, "events": 16, "documents": 16, "embeddings": 8}


def read_table(sf_dir: str, name: str, columns: list[str] | None = None, **kwargs) -> ray.data.Dataset:
    """Read one of the driver-generated testdata tables with column pruning
    and fact-table block splitting."""
    if "override_num_blocks" not in kwargs and name in _SPLIT_TABLES:
        kwargs["override_num_blocks"] = _SPLIT_TABLES[name]
    return ray.data.read_parquet(f"{sf_dir}/{name}.parquet", columns=columns, **kwargs)


def latest_snapshot_per_url(
    pages: ray.data.Dataset, *, n_buckets: int | None = None
) -> ray.data.Dataset:
    """Re-crawl dedup for Common-Crawl-style inputs: keep ONE row per url —
    the newest ``warc_ts`` snapshot (ties break to the longer, then
    lexicographically larger ``html`` payload, so the rule is total and
    deterministic).  This is the standard pre-extraction step when shards
    span multiple crawls of the same sites; running it FIRST means the
    expensive extract stage never converts a superseded snapshot.

    Scale shape: urls are high-cardinality strings — a direct string-keyed
    groupby sorts every key through the shuffle (CLAUDE.md: 2.4x slower at
    238k keys), so rows exchange on ``hash(url) % n_buckets`` (scale-derived
    count) and the per-bucket fold is ONE vectorized lexsort + first-per-url
    take.  Full rows ride the exchange exactly once (the html payload has
    to move to wherever its url group lands — that is inherent to any
    exact snapshot dedup)."""
    import numpy as np
    import pandas as pd
    import pyarrow.compute as pc

    from ..scale import bucket_count

    if n_buckets is None:
        # count() on a fresh read_parquet Dataset is a metadata fast path;
        # for a TRANSFORMED input pass n_buckets explicitly (count() would
        # execute the upstream plan and the dedup would re-execute it — the
        # documented branch-re-execution hazard)
        est = pages.count()
        n_buckets = bucket_count(est, min_buckets=32)

    def add_bucket(batch: pa.Table) -> pa.Table:
        if batch.num_rows == 0 or batch.num_columns == 0:
            return batch
        urls = batch["url"].to_numpy(zero_copy_only=False)
        b = (
            pd.util.hash_array(np.asarray(urls, dtype=object))
            & np.uint64(n_buckets - 1)
        ).astype(np.int64)
        return batch.append_column("ubucket", pa.array(b, pa.int64()))

    def keep_latest(group: pa.Table) -> pa.Table:
        if group.num_rows == 0 or group.num_columns == 0:
            return group
        cols = [c for c in group.column_names if c != "ubucket"]
        g = group.select(cols)
        ts = pc.cast(pc.cast(g["warc_ts"], pa.timestamp("us")), pa.int64()).to_numpy(
            zero_copy_only=False
        )
        hlen = pc.binary_length(g["html"]).to_numpy(zero_copy_only=False)
        urls = g["url"].to_numpy(zero_copy_only=False)
        html_np = g["html"].to_numpy(zero_copy_only=False)
        _, html_rank = np.unique(html_np, return_inverse=True)  # asc rank
        # first row per url under (ts desc, len desc, html desc): lexsort is
        # stable and sorts by LAST key primary
        order = np.lexsort((-html_rank, -hlen, -ts, urls))
        u_sorted = urls[order]
        first = np.concatenate([[True], u_sorted[1:] != u_sorted[:-1]])
        return g.take(pa.array(order[first], pa.int64()))

    return (
        pages.map_batches(add_bucket, batch_format="pyarrow", zero_copy_batch=True)
        .groupby("ubucket")
        .map_groups(keep_latest, batch_format="pyarrow")
    )


def page_metadata(path: str | ray.data.Dataset) -> ray.data.Dataset:
    """WAT-style page metadata scan: (url, title, first_h1, n_links,
    is_html) per page — the lightweight companion record Common Crawl
    ships next to the WARC (CCF's WAT files carry exactly these header
    fields), produced WITHOUT running the full extraction kernel.

    Pure vectorized map: payloads route by a binary header sniff
    (``<html`` prefix — the admission discipline of extract/record), only
    the HTML minority casts to string, and title/h1 capture is one
    ``pc.extract_regex`` each (RE2, first match); link counts are one
    ``count_substring_regex``.  Non-HTML payloads keep their row with
    null metadata, so the output is a full census of the corpus."""
    import pyarrow.compute as pc

    ds = read_pages(path, columns=["url", "html"]) if isinstance(path, str) else path

    out_schema = pa.schema(
        [
            ("url", pa.string()),
            ("title", pa.string()),
            ("first_h1", pa.string()),
            ("n_links", pa.int64()),
            ("is_html", pa.int64()),
        ]
    )

    def meta(batch: pa.Table) -> pa.Table:
        if batch.num_rows == 0 or batch.num_columns == 0:
            return out_schema.empty_table()
        html_bin = batch["html"]
        head = pc.binary_slice(html_bin, 0, 8)
        is_html = pc.starts_with(pc.cast(head, pa.string(), safe=False), "<html")
        is_html_np = pc.fill_null(is_html, False).to_numpy(zero_copy_only=False)
        import numpy as np

        n = batch.num_rows
        titles = np.full(n, None, dtype=object)
        h1s = np.full(n, None, dtype=object)
        links = np.zeros(n, np.int64)
        if is_html_np.any():
            sel = pa.array(is_html_np)
            html_str = pc.cast(html_bin.filter(sel), pa.string())
            titles[is_html_np] = np.asarray(
                pc.struct_field(
                    pc.extract_regex(html_str, pattern=r"<title[^>]*>(?P<t>[^<]*)"),
                    "t",
                ).to_pylist(),
                dtype=object,
            )
            h1s[is_html_np] = np.asarray(
                pc.struct_field(
                    pc.extract_regex(html_str, pattern=r"<h1[^>]*>(?P<h>[^<]*)"), "h"
                ).to_pylist(),
                dtype=object,
            )
            links[is_html_np] = pc.count_substring_regex(
                html_str, pattern=r"<a\s"
            ).to_numpy(zero_copy_only=False)
        return pa.table(
            {
                "url": batch["url"],
                "title": pa.array(titles.tolist(), pa.string()),
                "first_h1": pa.array(h1s.tolist(), pa.string()),
                "n_links": pa.array(links),
                "is_html": pa.array(is_html_np.astype("int64")),
            }
        )

    return ds.map_batches(meta, batch_format="pyarrow", zero_copy_batch=True)
