"""CLI entry point: run an extraction job over a pages parquet directory.

The analogue of the reference's ``docling-jobkit-local`` /
``docling-jobkit-multiproc`` CLIs (``cli/local.py:33-109``,
``cli/multiproc.py:371-490``), reduced to what a Ray-Data engine needs:
input dir, output dir, mode, resources.  Checkpointed by default (resume by
re-running with the same output dir).

Usage::

    python -m docling_jobkit_ray.cli --input /data/pages --output /data/out \
        --mode fused --num-cpus 32
"""

from __future__ import annotations

import argparse
import json
import sys
from contextlib import contextmanager


@contextmanager
def _ray_session(num_cpus: int | None = None):
    """Start a local Ray session unless the caller already owns one, and
    shut down only a session started here."""
    import ray

    owns_ray = not ray.is_initialized()
    if owns_ray:
        kwargs = {"include_dashboard": False, "logging_level": "ERROR"}
        if num_cpus:
            kwargs["num_cpus"] = num_cpus
        ray.init(address="local", **kwargs)
    from ray.data import DataContext

    DataContext.get_current().enable_progress_bars = False
    try:
        yield
    finally:
        if owns_ray:
            ray.shutdown()


def query_main(argv: list[str]) -> int:
    """``python -m docling_jobkit_ray.cli query <name> [--sf-dir D]`` —
    run any registered pipeline from the command line (the reference's
    CLIs only convert; this exposes the full operator surface)."""
    p = argparse.ArgumentParser(prog="docling_jobkit_ray.cli query")
    p.add_argument("name", nargs="?", help="queries() key; omit with --list")
    p.add_argument("--list", action="store_true", help="list available queries")
    p.add_argument("--sf-dir", default="/root/testdata/sf0.001")
    p.add_argument("--limit", type=int, default=10, help="rows to print")
    p.add_argument("--out", default=None, help="write full result parquet here")
    args = p.parse_args(argv)

    from .queries import oracle_sql, queries

    q = queries()
    if args.list or not args.name:
        sql = set(oracle_sql())
        for name in q:
            print(f"{name}\t{'sql' if name in sql else 'rows'}")
        return 0
    if args.name not in q:
        p.error(f"unknown query {args.name!r} (use --list)")

    with _ray_session():
        result = q[args.name](args.sf_dir)
        import pyarrow as pa
        import ray.data as rd

        if isinstance(result, rd.Dataset):
            if args.out:
                result.write_parquet(args.out)
                print(json.dumps({"query": args.name, "written": args.out}))
                return 0
            df = result.limit(args.limit).to_pandas()
            n = None  # avoid a second full execution just for the count
        else:
            df = result.to_pandas() if isinstance(result, pa.Table) else result
            n = len(df)
            df = df.head(args.limit)
        print(df.to_string(index=False))
        summary = {"query": args.name, "shown": len(df)}
        if n is not None:
            summary["rows"] = n
        print(json.dumps(summary))
        return 0


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if argv and argv[0] == "query":
        return query_main(argv[1:])
    p = argparse.ArgumentParser(description="Ray-Data-native extraction job")
    p.add_argument("--input", required=True, help="directory of pages parquet shards")
    p.add_argument("--output", required=True, help="output directory (checkpointed)")
    p.add_argument(
        "--mode",
        default="fused",
        choices=["fused", "sliced"],
    )
    p.add_argument("--num-cpus", type=int, default=None)
    p.add_argument(
        "--batch-size",
        type=int,
        default=64,
        help="rows per batch of the vlm describe stage, and page slices "
        "(at least 256) per batch of sliced mode's slice extract; the "
        "checkpointed fused run does not use it",
    )
    p.add_argument(
        "--concurrency",
        type=int,
        default=None,
        help="max actor-pool size of the vlm describe stage (default 4); "
        "the checkpointed fused run describes inside each shard task instead",
    )
    p.add_argument("--max-bytes", type=int, default=None)
    p.add_argument(
        "--preset",
        default=None,
        help="named ExtractOptions preset (extract/presets.py); mutually "
        "exclusive with --max-bytes",
    )
    p.add_argument(
        "--pipeline",
        default="standard",
        choices=["standard", "vlm"],
        help="pipeline family: standard, or vlm (adds the per-page description stage)",
    )
    p.add_argument("--no-checkpoint", action="store_true", help="single pass, no manifest")
    p.add_argument(
        "--document-timeout",
        type=float,
        default=None,
        help="per-document wall-clock budget in seconds (expired docs "
        "dead-letter with category=timeout; reference document_timeout=300)",
    )
    p.add_argument(
        "--retry-attempts",
        type=int,
        default=0,
        help="bounded re-drives for retryable per-document failures",
    )
    p.add_argument("--retry-delay", type=float, default=0.0)
    p.add_argument(
        "--page-range",
        default=None,
        metavar="LO:HI",
        help="extract only this 1-based inclusive page range of binary docs",
    )
    p.add_argument(
        "--dedup-snapshots",
        action="store_true",
        help="pre-pass: keep only the newest warc_ts snapshot per url "
        "(re-crawl dedup) in a staged corpus, then extract from it — the "
        "extract plan itself stays fused; re-running resumes from the "
        "committed staging dir",
    )
    args = p.parse_args(argv)

    from .extract.record import ExtractOptions

    if args.preset is not None:
        if args.max_bytes is not None:
            p.error("--preset and --max-bytes are mutually exclusive")
        from .extract.presets import get_preset

        options = get_preset(args.preset)
    elif args.max_bytes is not None:
        options = ExtractOptions(max_bytes=args.max_bytes)
    else:
        options = ExtractOptions()
    overrides = {}
    if args.document_timeout is not None:
        overrides["document_timeout"] = args.document_timeout
    if args.retry_attempts:
        overrides["retry_attempts"] = args.retry_attempts
    if args.retry_delay:
        overrides["retry_delay"] = args.retry_delay
    if args.page_range is not None:
        try:
            lo, hi = args.page_range.split(":")
            overrides["page_range"] = (int(lo), int(hi))
        except ValueError:
            p.error("--page-range must be LO:HI (1-based inclusive)")
    if overrides:
        import dataclasses

        try:
            options = dataclasses.replace(options, **overrides)
        except ValueError as exc:  # boundary validation (e.g. page_range 0:5)
            p.error(str(exc))
    concurrency = (1, args.concurrency) if args.concurrency else None
    input_path = args.input
    with _ray_session(args.num_cpus):
        if args.dedup_snapshots:
            # phase 1: snapshot dedup into a committed corpus (a re-run
            # resumes straight into extract; a crashed one left only a
            # staging dir, which the next attempt discards)
            import os

            import ray.data as rd

            from .state.commit import read_marker, staged_dir

            input_path = os.path.join(args.output, "_snapshot_dedup")
            if read_marker(input_path, "_SUCCESS") is None:
                from .sources.pages import latest_snapshot_per_url

                with staged_dir(input_path, marker="_SUCCESS") as st:
                    latest_snapshot_per_url(rd.read_parquet(args.input)).write_parquet(st.path)
        if args.no_checkpoint:
            from .pipelines.extract import extract_pipeline

            ds = extract_pipeline(
                input_path,
                options=options,
                mode=args.mode,
                pipeline=args.pipeline,
                batch_size=args.batch_size,
                concurrency=concurrency,
            )
            ds.write_parquet(args.output)
            totals = {"docs": "written", "output": args.output}
        else:
            from .state.checkpoint import run_extract_checkpointed

            totals = run_extract_checkpointed(
                input_path,
                args.output,
                options=options,
                mode=args.mode,
                pipeline=args.pipeline,
                concurrency=concurrency,
                batch_size=args.batch_size,
            )
        print(json.dumps(totals))
        return 0


if __name__ == "__main__":
    sys.exit(main())
