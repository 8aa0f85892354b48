"""Continuous-ingest loop: the composite pipeline a standing 100 TB corpus
runs on every new crawl drop.

    new docs ──filter_unseen(bloom index)──► survivors ──staged write──► corpus/increment=<id>/
                                                 │
                                                 └──update_bloom_index──► index/v{N+1}

Each increment (a) drops documents already in the corpus via the sharded
Bloom index (``functions/bloom.py``), (b) appends the survivors to the
corpus as an immutable per-increment directory (hive-partitionable inside
it), and (c) folds the survivors' keys into a NEW index version committed
with the same atomic pointer-file pattern as the checkpoint manifest
(``state/checkpoint.py``).

Crash-replay safety holds for EVERY window when the caller names the
increment (``increment_id`` = the crawl-drop name) — the commit protocol
is staging-write -> index-commit -> rename:

* already-committed increment (final dir exists): return immediately,
  write nothing, index untouched;
* crash before the index commit: the staging dir may exist with partial
  files — replay recomputes the survivors (the old index still calls
  them unseen), REWRITES staging from scratch, and proceeds;
* crash between index commit and rename: replay finds every document
  seen (the new index is live) AND a staging dir — it finishes the
  interrupted rename, completing the increment without rewriting bytes.

Without an ``increment_id`` a random one is used and the written files
are safe, but a crashed run's replay appends duplicates (documented
trade; pass the id for exactly-once).
"""

from __future__ import annotations

import json
import os
import shutil
import uuid

import ray.data

from ..state import commit

__all__ = [
    "current_index",
    "commit_index",
    "ingest_increment",
    "read_corpus",
    "compact_increments",
    "gc_index_versions",
]

_CURRENT = "CURRENT"
_ABSORBS = "_ABSORBS"
_SUCCESS = "_SUCCESS"


def current_index(index_dir: str) -> ray.data.Dataset | None:
    """Load the live bloom-index version, or None before the first commit."""
    pointer = os.path.join(index_dir, _CURRENT)
    if not os.path.exists(pointer):
        return None
    with open(pointer) as f:
        version = f.read().strip()
    return ray.data.read_parquet(os.path.join(index_dir, version))


def commit_index(index_ds: ray.data.Dataset, index_dir: str) -> str:
    """Write ``index_ds`` as the next immutable version and atomically
    flip ``CURRENT`` to it.  Returns the committed version name."""
    os.makedirs(index_dir, exist_ok=True)
    version = f"v-{uuid.uuid4().hex[:12]}"
    index_ds.write_parquet(os.path.join(index_dir, version))
    commit.atomic_write(os.path.join(index_dir, _CURRENT), version)
    return version


def ingest_increment(
    new_ds: ray.data.Dataset,
    *,
    corpus_dir: str,
    index_dir: str,
    increment_id: str | None = None,
    partition_cols: list[str] | None = None,
    n_shards: int = 16,
    bits_per_key: int = 16,
) -> dict:
    """Run one ingest increment; returns counters for the run report.

    Exactly-once under crash-replay when ``increment_id`` names the drop
    (see module docstring for the window-by-window argument)."""
    from ..functions.bloom import (
        build_bloom_index_from_dataset,
        filter_unseen,
        update_bloom_index,
    )

    inc = increment_id or f"inc-{uuid.uuid4().hex[:12]}"
    final_dir = os.path.join(corpus_dir, f"increment={inc}")
    staging_dir = os.path.join(corpus_dir, f".staging-{inc}")
    if os.path.exists(final_dir):
        # increment fully committed in a prior run
        return {
            "n_offered": None,
            "n_written": 0,
            "n_dropped_as_seen": None,
            "index_version": None,
            "already_committed": True,
        }

    # one materialization of the input: counted, filtered and indexed from
    # the pinned copy (a lazy Dataset would re-execute per consumer)
    new_ds = new_ds.materialize()
    n_in = new_ds.count()

    idx = current_index(index_dir)
    if idx is None:
        survivors = new_ds
        next_idx = build_bloom_index_from_dataset(
            survivors, n_shards=n_shards, bits_per_key=bits_per_key
        )
    else:
        survivors = filter_unseen(new_ds, idx).materialize()
        next_idx = update_bloom_index(idx, survivors, bits_per_key=bits_per_key)

    n_kept = survivors.count()
    if n_kept:
        # staged_dir discards a partial dir from a crashed attempt wholesale
        with commit.staged_dir(final_dir, staging=staging_dir) as st:
            survivors.write_parquet(st.path, partition_cols=partition_cols)
            # completeness marker: written only after EVERY parquet file
            # landed and BEFORE the index commit, so a later crash-replay can
            # tell "staging is a full drop awaiting rename" from "staging is
            # a torn partial write" (ADVICE r3)
            commit.write_synced(os.path.join(st.path, _SUCCESS), "")
            version = commit_index(next_idx, index_dir)
    elif os.path.exists(staging_dir):
        if os.path.exists(os.path.join(staging_dir, _SUCCESS)):
            # crash happened AFTER the index commit (everything now probes
            # seen) but BEFORE the rename: finish the interrupted commit
            commit.publish(staging_dir, final_dir)
        else:
            # torn staging from a pre-commit crash (possibly of a replay
            # with different input): committing it would publish partial
            # files — discard; the index never saw these keys as committed
            shutil.rmtree(staging_dir)
        version = None
    else:
        version = None  # genuinely nothing new
    return {
        "n_offered": n_in,
        "n_written": n_kept,
        "n_dropped_as_seen": n_in - n_kept,
        "index_version": version,
        "already_committed": False,
    }


# ---------------------------------------------------------------------------
# compaction + GC: a standing corpus accumulates one directory per crawl
# drop and one bloom-index version per commit; both grow without bound
# unless folded.  The compactor merges many small increments into one and
# the GC drops superseded index versions — the maintenance half of the
# ingest loop.
# ---------------------------------------------------------------------------

def _increment_dirs(corpus_dir: str) -> list[str]:
    if not os.path.isdir(corpus_dir):
        return []
    return sorted(
        d for d in os.listdir(corpus_dir)
        if d.startswith("increment=") and os.path.isdir(os.path.join(corpus_dir, d))
    )


def _absorbed_set(corpus_dir: str) -> set[str]:
    """Union of every committed compaction manifest's absorbed list —
    including manifests of increments that are themselves absorbed (chains
    stay correct while deletions are in flight)."""
    absorbed: set[str] = set()
    for d in _increment_dirs(corpus_dir):
        manifest = os.path.join(corpus_dir, d, _ABSORBS)
        if os.path.exists(manifest):
            with open(manifest) as f:
                absorbed.update(json.load(f))
    return absorbed


def _parquet_files(*dirs: str) -> list[str]:
    """Recursive parquet listing (hive partition subdirs included), skipping
    markers/hidden files — Ray's read_parquet does not expand a LIST of
    directories itself."""
    out: list[str] = []
    for d in dirs:
        for root, _subdirs, files in os.walk(d):
            out.extend(
                os.path.join(root, f)
                for f in files
                if f.endswith(".parquet") and not f.startswith((".", "_"))
            )
    return sorted(out)


def _count_parquet_rows(*dirs: str) -> int:
    """Exact row count from parquet FOOTERS — zero data reads, zero Ray
    tasks (the scale-safe way to count something just written)."""
    import pyarrow.parquet as pq

    return sum(pq.read_metadata(f).num_rows for f in _parquet_files(*dirs))


def superset_schema(files: list[str]) -> "pa.Schema":
    """Schema-evolution union over parquet FOOTERS (metadata only — no row
    reads): the field set is the name-union in first-seen order; a column
    appearing with two different types raises (silent promotion hides
    corruption).  Reading with this schema fills absent columns with
    nulls, so increments written before a column existed stay readable."""
    import pyarrow as pa
    import pyarrow.parquet as pq

    fields: dict[str, pa.Field] = {}
    for f in files:
        for field in pq.read_schema(f):
            seen = fields.get(field.name)
            if seen is None:
                fields[field.name] = field
            elif seen.type != field.type:
                raise TypeError(
                    f"schema evolution conflict on column {field.name!r}: "
                    f"{seen.type} vs {field.type} in {f}"
                )
    return pa.schema(list(fields.values()))


def read_corpus(
    corpus_dir: str, *, evolve_schema: bool = True, **read_kwargs
) -> ray.data.Dataset | None:
    """Canonical corpus reader: every live increment, minus increments
    absorbed by a committed compaction.  During the compactor's only
    duplicate window (compacted dir renamed in, sources not yet deleted)
    the manifest suppresses the sources, so readers NEVER see a row twice.
    Returns None for an empty corpus.

    ``evolve_schema`` (default on) reads under the footer-union schema so
    increments ingested before a column was added surface it as nulls —
    when every increment agrees the union IS the common schema and the
    flag is a no-op."""
    absorbed = _absorbed_set(corpus_dir)
    live = [
        os.path.join(corpus_dir, d)
        for d in _increment_dirs(corpus_dir)
        if d.removeprefix("increment=") not in absorbed
    ]
    files = _parquet_files(*live)
    if not files:
        return None
    if evolve_schema and "schema" not in read_kwargs and "columns" not in read_kwargs:
        read_kwargs["schema"] = superset_schema(files)
    return ray.data.read_parquet(files, **read_kwargs)


def compact_increments(
    corpus_dir: str,
    *,
    compaction_id: str | None = None,
    max_sources: int | None = None,
) -> dict:
    """Fold committed increments into ONE compacted increment directory.

    Protocol (single-writer, same staging discipline as the ingester):

    1. stage the merged rows under ``.staging-<cid>`` + write the
       ``_ABSORBS`` manifest (absorbed increment names) + ``_SUCCESS``;
    2. rename staging -> ``increment=<cid>`` (the commit point — from here
       readers skip the sources via the manifest);
    3. delete the absorbed source dirs.

    Crash windows: before (2) a torn staging dir is discarded wholesale on
    replay; between (2) and (3) rows exist twice on disk but
    ``read_corpus`` suppresses the absorbed copies, and a replay with the
    SAME ``compaction_id`` just finishes the deletions.  Replay after full
    completion is a no-op.  Exactly-once for ``ingest_increment`` replays
    of absorbed drops survives compaction through the bloom index: the
    increment dir is gone, but every key still probes seen, so the replay
    writes nothing.

    ``max_sources`` bounds one compaction run (oldest first) so a single
    task never has to rewrite the whole corpus."""
    cid = compaction_id or f"compact-{uuid.uuid4().hex[:12]}"
    final_dir = os.path.join(corpus_dir, f"increment={cid}")
    staging_dir = os.path.join(corpus_dir, f".staging-{cid}")

    if os.path.exists(final_dir):
        # committed earlier — finish any interrupted source deletions
        with open(os.path.join(final_dir, _ABSORBS)) as f:
            absorbed = json.load(f)
        n_deleted = 0
        for name in absorbed:
            src = os.path.join(corpus_dir, f"increment={name}")
            if os.path.exists(src):
                shutil.rmtree(src)
                n_deleted += 1
        return {
            "compaction": cid,
            "n_absorbed": len(absorbed),
            "n_rows": None,
            "already_committed": True,
            "n_deleted_on_replay": n_deleted,
        }

    already_absorbed = _absorbed_set(corpus_dir)
    sources = [
        d for d in _increment_dirs(corpus_dir)
        if d.removeprefix("increment=") not in already_absorbed
    ]
    if max_sources is not None:
        sources = sources[:max_sources]
    if len(sources) < 2:
        return {"compaction": cid, "n_absorbed": 0, "n_rows": 0, "already_committed": False}

    merged = ray.data.read_parquet(
        _parquet_files(*(os.path.join(corpus_dir, d) for d in sources))
    )
    with commit.staged_dir(final_dir, marker=_SUCCESS, staging=staging_dir) as st:
        merged.write_parquet(st.path)
        # row count from the staged footers — counting the lazy `merged`
        # would RE-EXECUTE the whole merge read (branching re-runs the parent)
        n_rows = _count_parquet_rows(st.path)
        commit.write_synced(
            os.path.join(st.path, _ABSORBS),
            json.dumps([d.removeprefix("increment=") for d in sources]),
        )
    for d in sources:
        shutil.rmtree(os.path.join(corpus_dir, d))
    return {
        "compaction": cid,
        "n_absorbed": len(sources),
        "n_rows": n_rows,
        "already_committed": False,
    }


def gc_index_versions(index_dir: str, *, keep: int = 1) -> dict:
    """Drop bloom-index versions superseded by ``CURRENT``.

    ``keep`` retains the N most recently modified versions BESIDES the live
    one (rollback slack).  The live version is never deleted; with no
    CURRENT pointer nothing is deleted (nothing is provably superseded).
    Single-writer discipline, same as ``commit_index``."""
    pointer = os.path.join(index_dir, _CURRENT)
    if not os.path.exists(pointer):
        return {"n_deleted": 0, "kept": []}
    with open(pointer) as f:
        live = f.read().strip()
    versions = [
        d for d in os.listdir(index_dir)
        if d.startswith("v-") and os.path.isdir(os.path.join(index_dir, d))
    ]
    stale = sorted(
        (v for v in versions if v != live),
        key=lambda v: os.path.getmtime(os.path.join(index_dir, v)),
        reverse=True,
    )
    kept, doomed = stale[:keep], stale[keep:]
    for v in doomed:
        shutil.rmtree(os.path.join(index_dir, v))
    return {"n_deleted": len(doomed), "kept": [live, *kept]}
