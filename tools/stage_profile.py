#!/usr/bin/env python3
"""Untraced, in-process split of one fused extraction job, per stage step.

    python3 tools/stage_profile.py --seed 1 [--rows 2400 --shards 8 --reps 9]
    python3 tools/stage_profile.py --seed 1 --repo ../other-checkout

Writes the ``write_corpus`` seed of perfbench's ``html_fused`` workload
(2,400 rows in 8 shards, the default mix) to a temporary directory and runs
the steps of ``ExtractDocuments`` over every shard by hand, each under its
own clock, with nothing wrapped:

- ``read``       ``sources.pages.read_shard`` (the fused plan's read);
- ``to_pylist``  the url, html and path columns to Python lists;
- ``extract``    the per-document loop, one outcome per document;
- ``build``      the output table from the outcomes;
- ``stage``      one plain ``ExtractDocuments()(batch)`` call per shard,
                 the whole stage step as the pipeline runs it;
- ``kernel``     ``html._native.extract`` alone over the decodable HTML
                 documents, the C kernel's share of ``extract``.

Times are per job (all shards), medians over ``--reps`` repetitions after
one warm-up.  perfbench's ``--trace 1`` cannot give this split: its layer
wrappers switch ``extract_html`` to the Python path.  ``--repo`` imports
the package from another checkout; one from before
``record.extract_document`` has only the row-dict path
(``extract_record_with_retry`` + ``rows_to_extracted_table``), which is
timed in the ``extract`` and ``build`` slots instead.
"""

from __future__ import annotations

import argparse
import gc
import glob
import os
import statistics
import sys
import tempfile
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _steps():
    """-> (extract(urls, payloads, opts), build(urls, results, paths)) of
    the imported checkout."""
    try:
        from docling_jobkit_ray.extract.record import extract_document_with_retry
        from docling_jobkit_ray.stages.extract import _partition_ids, outcomes_to_table
    except ImportError:
        from docling_jobkit_ray.extract.record import extract_record_with_retry
        from docling_jobkit_ray.stages.extract import partition_id_for_path, rows_to_extracted_table

        def extract(urls, payloads, opts):
            return [extract_record_with_retry(u, p if p is not None else b"", opts)
                    for u, p in zip(urls, payloads)]

        def build(urls, rows, paths):
            for row, path, url in zip(rows, paths, urls):
                row["partition_id"] = partition_id_for_path(path, url)
            return rows_to_extracted_table(rows)

        return extract, build

    def extract(urls, payloads, opts):
        return [extract_document_with_retry(p if p is not None else b"", opts) for p in payloads]

    def build(urls, outcomes, paths):
        return outcomes_to_table(urls, outcomes, _partition_ids(paths, urls))

    return extract, build


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--rows", type=int, default=2400)
    ap.add_argument("--shards", type=int, default=8)
    ap.add_argument("--reps", type=int, default=9)
    ap.add_argument("--repo", default=ROOT, help="checkout whose package is profiled")
    args = ap.parse_args(argv)
    sys.path.insert(0, os.path.abspath(args.repo))

    from docling_jobkit_ray.extract import binarydoc, html
    from docling_jobkit_ray.extract.record import ExtractOptions
    from docling_jobkit_ray.fixtures.corpus import write_corpus
    from docling_jobkit_ray.sources.pages import read_shard
    from docling_jobkit_ray.stages.extract import ExtractDocuments

    if html._native is None:
        print("the C kernel did not build: this profiles the Python path", file=sys.stderr)
    opts = ExtractOptions()
    extract, build = _steps()
    udf = ExtractDocuments(opts)
    now = time.perf_counter
    with tempfile.TemporaryDirectory(prefix="stage-profile-") as tmp:
        write_corpus(tmp, n_rows=args.rows, seed=args.seed, n_shards=args.shards)
        paths = sorted(glob.glob(os.path.join(tmp, "*.parquet")))
        texts = []
        for p in paths:
            for data in read_shard(p).column("html").to_pylist():
                if data and not binarydoc.is_binary_doc(data):
                    try:
                        texts.append(data.decode("utf-8"))
                    except UnicodeDecodeError:
                        pass

        def one_rep() -> dict[str, float]:
            t = dict.fromkeys(("read", "to_pylist", "extract", "build", "stage", "kernel"), 0.0)
            for p in paths:
                t0 = now()
                batch = read_shard(p)
                t1 = now()
                urls = batch.column("url").to_pylist()
                payloads = batch.column("html").to_pylist()
                shard_paths = batch.column("path").to_pylist()
                t2 = now()
                results = extract(urls, payloads, opts)
                t3 = now()
                build(urls, results, shard_paths)
                t4 = now()
                udf(batch)
                t5 = now()
                t["read"] += t1 - t0
                t["to_pylist"] += t2 - t1
                t["extract"] += t3 - t2
                t["build"] += t4 - t3
                t["stage"] += t5 - t4
            if html._native is not None:
                kernel, ld, mp = html._native.extract, opts.max_link_density, opts.min_paragraph_chars
                t0 = now()
                for text in texts:
                    kernel(text, ld, mp, None)
                t["kernel"] = now() - t0
            return t

        one_rep()  # warm-up: imports, the kernel build, file cache
        gc.collect()
        gc.freeze()  # as the Ray worker does (stages.extract._freeze_worker_heap)
        reps = [one_rep() for _ in range(args.reps)]

    n_docs = args.rows
    sys.path.insert(0, os.path.join(ROOT, "perfbench"))
    from host import nproc

    print(f"stage profile: seed {args.seed}, {n_docs} docs in {len(paths)} shards, "
          f"{len(texts)} HTML docs through the kernel; median of {args.reps} reps; "
          f"nproc {nproc()}, affinity {len(os.sched_getaffinity(0))}, "
          f"load {os.getloadavg()[0]:.2f}")
    for step in ("read", "to_pylist", "extract", "build", "stage", "kernel"):
        vals = [r[step] for r in reps]
        med = statistics.median(vals)
        print(f"  {step:<10} {med * 1e3:8.2f} ms  (min {min(vals) * 1e3:.2f}, max {max(vals) * 1e3:.2f})")
    return 0


if __name__ == "__main__":
    sys.exit(main())
