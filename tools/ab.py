#!/usr/bin/env python3
"""Interleaved A/B of two revisions on one perfbench workload.

    python3 tools/ab.py <rev-a> <rev-b> --workload html_fused --seeds 1,2 --pairs 5

Run from the repository root.  Both revisions are checked out as detached
git worktrees under ``.bench_build/ab/`` and removed again at the end.  For
each seed, each pair runs ``perfbench/run.py --trace 0`` once per revision,
the order alternating from pair to pair (AB, BA, AB, ...) so that host drift
hits both sides alike.  Every run's host context is kept: nproc, CPUs in
affinity, load averages and perfbench's speed probe.

For each end-to-end metric it prints each side's median and interquartile
range, the median of the per-pair ratios b/a with their min and max, the
pairs b won and a two-sided sign-test p-value (ties count for neither).
Whether "won" means a higher or a lower ratio follows the metric's
``better`` in BENCHMARK.json.  The whole record is written to
``.bench_build/ab/ab-<workload>-<time>.json``.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
AB_DIR = os.path.join(ROOT, ".bench_build", "ab")


def git(*args: str) -> str:
    return subprocess.run(
        ["git", "-C", ROOT, *args], check=True, capture_output=True, text=True
    ).stdout.strip()


def checkout(rev: str) -> tuple[str, str]:
    """-> (full sha, worktree path) of ``rev``, checked out detached."""
    sha = git("rev-parse", "--verify", f"{rev}^{{commit}}")
    path = os.path.join(AB_DIR, sha[:12])
    if not os.path.exists(os.path.join(path, "perfbench", "run.py")):
        shutil.rmtree(path, ignore_errors=True)
        git("worktree", "prune")
        git("worktree", "add", "--detach", path, sha)
    return sha, path


def remove(path: str) -> None:
    subprocess.run(["git", "-C", ROOT, "worktree", "remove", "--force", path], capture_output=True)
    shutil.rmtree(path, ignore_errors=True)
    git("worktree", "prune")


def run_once(path: str, workload: str, seed: int, seconds: float) -> dict:
    """One ``perfbench/run.py --trace 0`` in the checkout at ``path``."""
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    cmd = [
        sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
        "--seconds", str(seconds), "--trace", "0",
    ]
    t0 = time.perf_counter()
    proc = subprocess.run(cmd, cwd=path, env=env, capture_output=True, text=True)
    wall = time.perf_counter() - t0
    run = {"rc": proc.returncode, "wall_s": round(wall, 1), "correct": False, "failed": None, "metrics": {}}
    lines = proc.stdout.strip().splitlines()
    try:
        last = json.loads(lines[-1])
    except (IndexError, ValueError):
        run["error"] = (proc.stderr or proc.stdout)[-2000:]
        return run
    run.update(
        correct=last["correct"],
        failed=last["failed"],
        attempted=last["attempted"],
        metrics={k: v["value"] for k, v in last["metrics"].items()},
    )
    result = os.path.join(path, ".bench_build", "perfbench-results", f"{workload}-seed{seed}-trace0.json")
    try:
        with open(result) as f:
            saved = json.load(f)
        run["host"] = {
            "nproc": saved["host"]["nproc"],
            "affinity_cpus": saved["host"]["affinity_cpus"],
            **saved["load"],
        }
    except (OSError, ValueError, KeyError):
        run["host"] = None
    return run


def sign_test(wins: int, losses: int) -> float:
    """Two-sided exact sign-test p-value; ties are left out."""
    n = wins + losses
    if n == 0:
        return 1.0
    k = min(wins, losses)
    tail = sum(math.comb(n, i) for i in range(k + 1)) / 2**n
    return min(1.0, 2 * tail)


def quartiles(xs: list[float]) -> tuple[float, float]:
    if len(xs) < 2:
        return xs[0], xs[0]
    q = statistics.quantiles(xs, n=4, method="inclusive")
    return q[0], q[2]


def summarize(pairs: list[tuple[dict, dict]], better: dict[str, str]) -> dict:
    """Per metric: both sides' medians and IQRs and the per-pair ratios b/a."""
    out = {}
    for metric, direction in better.items():
        ok = [(a["metrics"][metric], b["metrics"][metric]) for a, b in pairs
              if metric in a["metrics"] and metric in b["metrics"] and a["metrics"][metric] > 0]
        if not ok:
            continue
        av, bv = [a for a, _ in ok], [b for _, b in ok]
        ratios = [b / a for a, b in ok]
        sign = 1 if direction == "higher" else -1
        wins = sum(1 for r in ratios if sign * (r - 1) > 0)
        losses = sum(1 for r in ratios if sign * (r - 1) < 0)
        out[metric] = {
            "better": direction,
            "a_median": statistics.median(av),
            "a_iqr": quartiles(av),
            "b_median": statistics.median(bv),
            "b_iqr": quartiles(bv),
            "ratio_median": statistics.median(ratios),
            "ratio_min": min(ratios),
            "ratio_max": max(ratios),
            "b_wins": wins,
            "pairs": len(ratios),
            "sign_p": sign_test(wins, losses),
        }
    return out


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("rev_a")
    ap.add_argument("rev_b")
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", default="1")
    ap.add_argument("--pairs", type=int, default=5)
    ap.add_argument("--seconds", type=float, default=12.0)
    args = ap.parse_args(argv)
    seeds = [int(s) for s in args.seeds.split(",")]
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        better = {m["name"]: m["better"] for m in json.load(f)["end_to_end"]}

    os.makedirs(AB_DIR, exist_ok=True)
    (sha_a, path_a), (sha_b, path_b) = checkout(args.rev_a), checkout(args.rev_b)
    record = {"a": sha_a, "b": sha_b, "workload": args.workload, "seconds": args.seconds, "seeds": {}}
    try:
        for seed in seeds:
            pairs = []
            for p in range(args.pairs):
                order = ("a", "b") if p % 2 == 0 else ("b", "a")
                runs = {}
                for side in order:
                    runs[side] = run_once(path_a if side == "a" else path_b, args.workload, seed, args.seconds)
                    r = runs[side]
                    host = r.get("host") or {}
                    print(
                        f"seed {seed} pair {p} {side}: correct={r['correct']} failed={r['failed']} "
                        f"docs_per_s={r['metrics'].get('docs_per_s', float('nan')):.0f} "
                        f"load={host.get('before')} probe={host.get('speed_probe_s_before')}",
                        file=sys.stderr, flush=True,
                    )
                pairs.append((runs["a"], runs["b"]))
            record["seeds"][seed] = {"pairs": pairs, "summary": summarize(pairs, better)}
    finally:
        for path in {path_a, path_b}:
            remove(path)

    print(f"a = {sha_a[:12]}  b = {sha_b[:12]}  workload {args.workload}")
    for seed, res in record["seeds"].items():
        bad = sum(1 for a, b in res["pairs"] for r in (a, b) if not r["correct"] or r["failed"])
        print(f"seed {seed}: {len(res['pairs'])} pairs, {bad} runs incorrect or with failures")
        print(f"  {'metric':<12} {'a median [IQR]':>26} {'b median [IQR]':>26} {'b/a median':>10} {'min':>7} {'max':>7} {'b wins':>7} {'sign p':>7}")
        for metric, s in res["summary"].items():
            a_rng = f"{s['a_median']:.4g} [{s['a_iqr'][0]:.4g}, {s['a_iqr'][1]:.4g}]"
            b_rng = f"{s['b_median']:.4g} [{s['b_iqr'][0]:.4g}, {s['b_iqr'][1]:.4g}]"
            print(
                f"  {metric:<12} {a_rng:>26} {b_rng:>26} {s['ratio_median']:>10.3f} "
                f"{s['ratio_min']:>7.3f} {s['ratio_max']:>7.3f} {s['b_wins']:>3}/{s['pairs']:<3} {s['sign_p']:>7.3f}"
            )
    out = os.path.join(AB_DIR, f"ab-{args.workload}-{time.strftime('%Y%m%d-%H%M%S')}.json")
    with open(out, "w") as f:
        json.dump(record, f, indent=1)
    print(f"record written to {out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
