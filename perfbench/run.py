#!/usr/bin/env python3
"""Repository benchmark: seeded extraction workloads against the public API.

    python3 perfbench/run.py --workload checkpoint_resume --seed 1 --seconds 12 --trace 0
    python3 perfbench/run.py --workload binary_sliced --seed 1 --seconds 12 --trace 1
    python3 perfbench/run.py --smoke

Run from the repository root.  One driver process starts Ray with
``num_cpus`` = nproc and runs the named workload (see workloads.py) on a
corpus generated from ``--seed``.  Every run's output is checked against the
single-process oracle; a wrong answer counts as a failed run.

``--trace 0`` times the workload in three rounds: each is one set-up
(``ray.init`` plus the first, untimed warm-up run), then jobs back to back
for a third of ``--seconds``; medians are reported.  ``--trace 1`` runs
the workload once with ``Dataset.stats()`` captured, then replays its
per-shard call tree in this process with each layer's public functions
wrapped (spans.py), and reports per-layer self times, exact counts and the
tracing overhead.

The last line of stdout is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics``.  The lines before it print every metric with its
unit and sample count, next to the host context (CPU counts, load averages,
git revision, seed).  Results and spans are also written under
``.bench_build/perfbench-results/``.  ``--smoke`` runs every workload once on
a tiny corpus and exits non-zero on any error, mismatch or timeout.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import shutil
import signal
import statistics
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
RESULTS = os.path.join(BUILD, "perfbench-results")

ROUNDS = 3  # set-ups per run; the timed runs are split between them
JOB_TIMEOUT_S = 30  # a job takes a few seconds; keeps a hung run well inside 180 s
MAX_REPLAY_REPS = 5
OBJECT_STORE_BYTES = 512 * 1024 * 1024
SOCKET_PATH_MAX = 107  # AF_UNIX limit; Ray puts its sockets under the temp dir
RAY_SOCKET_SUFFIX = 64  # len("/session_<date>_<time>_<us>_<pid>/sockets/plasma_store")

END_TO_END = {"setup_s": "s", "docs_per_s": "1/s", "job_s": "s", "peak_rss_mb": "MB"}

_LAYER_TIMES = {
    # metric name -> span name whose summed self time it reports
    "sources.read_s": "sources.read",
    "stages.extract.to_pylist_s": "stages.extract.to_pylist",
    "stages.extract.row_build_s": "stages.extract.row_build",
    "stages.extract.self_s": "stages.extract",
    "extract.record.self_s": "extract.record",
    "extract.record.preflight_s": "extract.record.preflight",
    "extract.html.self_s": "extract.html",
    "extract.html.segment_s": "extract.html.segment",
    "extract.html.classify_s": "extract.html.classify",
    "extract.html.assemble_s": "extract.html.assemble",
    "extract.html.doc_json_s": "extract.html.doc_json",
    "extract.binarydoc.parse_s": "extract.binarydoc.parse",
    "stages.slices.plan_s": "stages.slices.plan",
    "stages.slices.extract_s": "stages.slices.extract",
    "stages.slices.exchange_s": "stages.slices.exchange",
    "stages.slices.reassemble_s": "stages.slices.reassemble",
    "state.checkpoint.commit_s": "state.checkpoint.commit",
    "state.checkpoint.resume_scan_s": "state.checkpoint.resume_scan",
}
_LAYER_COUNTS = {
    "sources.bytes_read": "bytes",
    "extract.html.blocks_total": "count",
    "extract.html.blocks_kept": "count",
    "stages.slices.slice_rows": "count",
    "stages.slices.fanout_docs": "count",
}
FAILURE_CATEGORIES = ("policy", "source_unavailable", "timeout", "capacity", "internal")

PER_LAYER = {
    **{name: "s" for name in _LAYER_TIMES},
    **_LAYER_COUNTS,
    "extract.record.docs_1t_per_s": "1/s",
    **{f"extract.record.failure_rows.{c}": "count" for c in FAILURE_CATEGORIES},
    "state.checkpoint.resume_s": "s",
    "state.checkpoint.shard_s_p50": "s",
    "state.checkpoint.shard_s_p90": "s",
    "state.checkpoint.shard_samples": "count",
    "state.checkpoint.bytes_written": "bytes",
    "state.checkpoint.shards_skipped": "count",
    "state.checkpoint.shards_redone": "count",
    "pipelines.extract.run_s": "s",
    "pipelines.extract.overhead_s": "s",
    **{
        f"pipelines.extract.{cls}.{field}": unit
        for cls in ("map", "exchange")
        for field, unit in (
            ("wall_s", "s"),
            ("cpu_s", "s"),
            ("rows_out", "count"),
            ("bytes_out", "bytes"),
            ("tasks", "count"),
        )
    },
    "ray.spilled_mb": "MB",
    "trace.replay_s": "s",
    "trace.traced_replay_s": "s",
    "trace.overhead_s": "s",
    "trace.coverage": "ratio",
}


class JobTimeout(Exception):
    pass


@contextlib.contextmanager
def deadline(seconds: float):
    """Raise JobTimeout in this (main) thread once ``seconds`` pass."""

    def on_alarm(signum, frame):
        raise JobTimeout(f"job exceeded {seconds:.0f} s")

    previous = signal.signal(signal.SIGALRM, on_alarm)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


def log(msg: str) -> None:
    print(f"perfbench: {msg}", file=sys.stderr, flush=True)


class RaySession:
    """``ray.init``/``ray.shutdown`` with the package importable in workers,
    Ray's files kept under the checkout and every started process reaped."""

    def __init__(self, num_cpus: int, temp_dir: str):
        self.num_cpus = num_cpus
        self.temp_dir = temp_dir
        self.started = False

    def start(self) -> None:
        import ray
        from ray.data import DataContext

        # Workers start from a fresh interpreter and the package is not
        # installed: they inherit PYTHONPATH from the raylet, which inherits
        # it from here.  (A runtime_env carrying it works too, but costs a
        # dedicated worker start, ~2 s per set-up.)
        if ROOT not in os.environ.get("PYTHONPATH", "").split(os.pathsep):
            os.environ["PYTHONPATH"] = os.pathsep.join(
                p for p in (ROOT, os.environ.get("PYTHONPATH")) if p
            )
        ray.init(
            num_cpus=self.num_cpus,
            include_dashboard=False,
            logging_level="ERROR",
            log_to_driver=False,
            object_store_memory=OBJECT_STORE_BYTES,
            _temp_dir=self.temp_dir,
        )
        self.started = True
        DataContext.get_current().enable_progress_bars = False

    def stop(self) -> None:
        if not self.started:
            return
        import ray

        from host import descendants, reap

        t0 = time.perf_counter()
        procs = descendants(os.getpid())
        ray.shutdown()
        reap(procs)
        self.started = False
        log(f"ray stopped and {len(procs)} processes reaped in {time.perf_counter() - t0:.1f} s")


def ray_temp_dir() -> str:
    path = os.path.join(BUILD, f"ray{os.getpid()}")
    if len(path) + RAY_SOCKET_SUFFIX > SOCKET_PATH_MAX:
        # a checkout this deep cannot hold Ray's sockets
        return tempfile.mkdtemp(prefix="pbray")
    os.makedirs(path, exist_ok=True)
    return path


def run_job(wl, inputs, scratch, *, capture_stats=False):
    """-> (JobResult or None, error text or None)."""
    try:
        with deadline(JOB_TIMEOUT_S):
            res = wl.job(inputs, scratch, capture_stats)
    except Exception as exc:  # any raise is a failed run, reported below
        return None, f"{type(exc).__name__}: {exc}"
    if res.problems:
        return res, f"output check failed: {len(res.problems)} problems, first: {res.problems[0]}"
    return res, None


class Tally:
    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0

    def record(self, err: str | None, what: str) -> bool:
        self.attempted += 1
        if err:
            self.failed += 1
            log(f"{what} failed: {err}")
        return err is None


# --------------------------------------------------------------- trace 0


def measure(wl, args, session: RaySession, work: str, tally: Tally) -> tuple[dict, dict]:
    from host import peak_rss_mb

    t0 = time.perf_counter()
    inputs = wl.make_inputs(work, args.seed)
    warm = wl.make_warm_inputs(work, args.seed)
    log(f"{inputs.n_docs} docs generated and oracle computed in {time.perf_counter() - t0:.1f} s")
    # Each round is one set-up (ray.init + warm-up) followed by a third of
    # the timed runs.  Spreading the timed runs over the whole process,
    # rather than one contiguous window, samples the host's speed swings
    # (identical single-thread work varies ~+-25% on a shared host) more evenly.
    setup, rss, results = [], [], []
    timed_out = False
    t_start = time.perf_counter()
    for rnd in range(ROUNDS):
        t0 = time.perf_counter()
        session.start()
        _res, err = run_job(wl, warm, work)
        setup.append(time.perf_counter() - t0)
        tally.record(err, f"warm-up {rnd}")
        t_round, n_round = time.perf_counter(), 0
        while n_round < 1 or time.perf_counter() - t_round < args.seconds / ROUNDS:
            res, err = run_job(wl, inputs, work)
            n_round += 1
            if tally.record(err, f"timed run {tally.attempted}"):
                results.append(res)
            elif err.startswith("JobTimeout") or tally.failed > ROUNDS:
                timed_out = True
                break
        rss.append(peak_rss_mb())
        session.stop()
        if timed_out:
            break
    log(f"{len(results)} timed runs in {ROUNDS} rounds, {time.perf_counter() - t_start:.1f} s")
    samples = {
        "setup_s": setup,
        "docs_per_s": [r.docs / r.wall_s for r in results],
        "job_s": [r.job_s for r in results],
        "peak_rss_mb": rss,
    }
    if wl.name == "checkpoint_resume":
        samples["resume_s"] = [r.extra["resume_s"] for r in results]
    metrics = {k: (statistics.median(v) if v else 0.0) for k, v in samples.items() if k in END_TO_END}
    return metrics, samples


# --------------------------------------------------------------- trace 1


def trace_layers(wl, args, session: RaySession, work: str, tally: Tally) -> tuple[dict, dict]:
    from gate import check_tables
    from spans import NullTracer, Tracer, operator_metrics, traced_replay

    inputs = wl.make_inputs(work, args.seed)
    warm = wl.make_warm_inputs(work, args.seed)
    session.start()
    _res, err = run_job(wl, warm, work)
    tally.record(err, "warm-up")
    run, err = run_job(wl, inputs, work, capture_stats=True)
    tally.record(err, "traced run")
    session.stop()

    def replay(tr, wrap) -> float:
        with wrap:
            t0 = time.perf_counter()
            tables = wl.replay(inputs, work, tr)
            wall = time.perf_counter() - t0
        problems = check_tables(inputs.expected, tables)
        tally.record(f"replay output differs: {problems[0]}" if problems else None, "replay")
        return wall

    # One untimed replay first (lazy imports, first-call caches), then
    # untraced/traced pairs in alternating order so drift hits both sides.
    replay(NullTracer(), contextlib.nullcontext())
    plain, traced, tracers = [], [], []
    t_start = time.perf_counter()
    while not traced or (time.perf_counter() - t_start < args.seconds and len(traced) < MAX_REPLAY_REPS):
        untraced_first = len(traced) % 2 == 0
        if untraced_first:
            plain.append(replay(NullTracer(), contextlib.nullcontext()))
        tr = Tracer()
        traced.append(replay(tr, traced_replay(tr)))
        tracers.append(tr)
        if not untraced_first:
            plain.append(replay(NullTracer(), contextlib.nullcontext()))

    per_rep = [tr.self_times() for tr in tracers]
    samples = {metric: [st.get(span, 0.0) for st in per_rep] for metric, span in _LAYER_TIMES.items()}
    m = {name: 0.0 if unit in ("s", "1/s", "MB", "ratio") else 0 for name, unit in PER_LAYER.items()}
    for metric in _LAYER_TIMES:
        m[metric] = statistics.median(samples[metric])
    for name in _LAYER_COUNTS:
        m[name] = tracers[0].counts.get(name, 0)
    m["extract.record.docs_1t_per_s"] = inputs.n_docs / inputs.oracle_s
    for category, n in inputs.failure_rows.items():
        m[f"extract.record.failure_rows.{category}"] = n
    if run is not None:
        m["pipelines.extract.run_s"] = run.job_s
        m["pipelines.extract.overhead_s"] = m["pipelines.extract.run_s"] - statistics.median(plain)
        for summary in run.stats:
            for k, v in operator_metrics(summary).items():
                m[k] += v
        if run.extra:
            walls = run.extra["shard_wall_s"]
            m["state.checkpoint.shard_s_p50"] = statistics.median(walls)
            m["state.checkpoint.shard_s_p90"] = statistics.quantiles(walls, n=10)[8]
            m["state.checkpoint.shard_samples"] = len(walls)
            for k in ("resume_s", "bytes_written", "shards_skipped", "shards_redone"):
                m[f"state.checkpoint.{k}"] = run.extra[k]
    m["trace.replay_s"] = statistics.median(plain)
    m["trace.traced_replay_s"] = statistics.median(traced)
    m["trace.overhead_s"] = m["trace.traced_replay_s"] - m["trace.replay_s"]
    m["trace.coverage"] = statistics.median(
        1.0 - st.get("replay", 0.0) / wall for st, wall in zip(per_rep, traced)
    )
    os.makedirs(RESULTS, exist_ok=True)
    spans_path = os.path.join(RESULTS, f"{wl.name}-seed{args.seed}-spans.json")
    with open(spans_path, "w") as f:
        json.dump([tr.to_json() for tr in tracers], f)
    log(f"spans written to {spans_path}")
    samples.update(
        {
            "trace.replay_s": plain,
            "trace.traced_replay_s": traced,
            "state.checkpoint.shard_s_p50": run.extra.get("shard_wall_s", []) if run else [],
        }
    )
    return m, samples


# ------------------------------------------------------------------ main


def report(wl_name: str, args, host: dict, load: dict, metrics: dict, samples: dict, units: dict, tally: Tally) -> None:
    head = (
        f"{wl_name} seed={args.seed} trace={args.trace} | nproc={host['nproc']} "
        f"affinity={host['affinity_cpus']} ray_num_cpus={host['ray_num_cpus']} | "
        f"load {load['before']} -> {load['after']} | speed probe {load['speed_probe_s_before']} -> "
        f"{load['speed_probe_s_after']} s | rev {host['git_revision'] or 'unknown'}"
    )
    print(head)
    for name, value in metrics.items():
        n = len(samples.get(name, [])) or 1
        print(f"  {name:<40} {value:>16.6g} {units[name]:<6} n={n}")
    if "resume_s" in samples:
        v = samples["resume_s"]
        print(f"  {'resume_s':<40} {statistics.median(v) if v else 0.0:>16.6g} {'s':<6} n={len(v)}")
    frac = tally.failed / tally.attempted if tally.attempted else 0.0
    print(f"  {'failed_frac':<40} {frac:>16.6g} {'ratio':<6} n={tally.attempted}")
    os.makedirs(RESULTS, exist_ok=True)
    path = os.path.join(RESULTS, f"{wl_name}-seed{args.seed}-trace{args.trace}.json")
    with open(path, "w") as f:
        json.dump(
            {"workload": wl_name, "host": host, "load": load, "metrics": metrics,
             "samples": samples, "attempted": tally.attempted, "failed": tally.failed},
            f,
            indent=1,
        )


def smoke(session: RaySession, work: str) -> int:
    """Every workload once on a tiny corpus, plus its traced replay."""
    from gate import check_tables
    from spans import Tracer, traced_replay
    from workloads import WORKLOADS

    bad = 0
    session.start()
    try:
        for wl in WORKLOADS.values():
            inputs = wl.make_inputs(work, seed=1, n_rows=48, n_shards=4)
            _res, err = run_job(wl, inputs, work, capture_stats=True)
            if err is None:
                tr = Tracer()
                with traced_replay(tr):
                    problems = check_tables(inputs.expected, wl.replay(inputs, work, tr))
                err = f"replay output differs: {problems[0]}" if problems else None
            print(f"smoke {wl.name}: {'FAIL ' + err if err else 'ok'}")
            bad += bool(err)
    finally:
        session.stop()
    return 1 if bad else 0


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=12.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true")
    args = ap.parse_args(argv)

    sys.path.insert(0, ROOT)
    try:
        import docling_jobkit_ray
        import ray  # noqa: F401
    except ImportError as exc:
        log(f"cannot import the package under test from {ROOT}: {exc}")
        return 2
    if not os.path.abspath(docling_jobkit_ray.__file__).startswith(ROOT + os.sep):
        log(f"docling_jobkit_ray resolves outside this checkout ({docling_jobkit_ray.__file__})")
        return 2
    from host import host_context, loadavg, nproc, speed_probe
    from workloads import WORKLOADS

    if not args.smoke and args.workload not in WORKLOADS:
        ap.error(f"--workload must be one of {sorted(WORKLOADS)}")
    work = os.path.join(BUILD, f"perfbench-{os.getpid()}")
    os.makedirs(work, exist_ok=True)
    temp_dir = ray_temp_dir()
    session = RaySession(nproc(), temp_dir)
    try:
        if args.smoke:
            return smoke(session, work)
        wl = WORKLOADS[args.workload]
        tally = Tally()
        load_before, speed_before = loadavg(), speed_probe()
        if args.trace:
            metrics, samples = trace_layers(wl, args, session, work, tally)
            units = PER_LAYER
        else:
            metrics, samples = measure(wl, args, session, work, tally)
            units = END_TO_END
        session.stop()
        host = host_context(ROOT, args.seed, session.num_cpus)
        load = {
            "before": load_before,
            "after": loadavg(),
            "speed_probe_s_before": round(speed_before, 4),
            "speed_probe_s_after": round(speed_probe(), 4),
        }
        report(wl.name, args, host, load, metrics, samples, units, tally)
        print(
            json.dumps(
                {
                    "correct": tally.failed == 0,
                    "attempted": tally.attempted,
                    "failed": tally.failed,
                    "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
                }
            )
        )
        return 0
    finally:
        session.stop()
        shutil.rmtree(work, ignore_errors=True)
        shutil.rmtree(temp_dir, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
