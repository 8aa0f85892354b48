"""Host context and process bookkeeping, read from /proc without psutil.

Every result carries the CPU count, the Ray CPU count and the load averages
around the workload, because identical code measured ~20% apart in runs
hours apart on a shared host; the drift has to be visible next to the numbers.
"""

from __future__ import annotations

import os
import signal
import sys
import time


def nproc() -> int:
    """What GNU ``nproc`` prints: the affinity count, capped by
    ``OMP_NUM_THREADS`` / ``OMP_THREAD_LIMIT`` when those are set."""
    n = len(os.sched_getaffinity(0))
    for var in ("OMP_NUM_THREADS", "OMP_THREAD_LIMIT"):
        head = os.environ.get(var, "").split(",")[0].strip()
        if head.isdigit() and int(head) > 0:
            n = min(n, int(head)) if var == "OMP_THREAD_LIMIT" else int(head)
    return n


def git_revision(root: str) -> str | None:
    """HEAD's commit id read straight from ``.git`` (no subprocess); None
    outside a git checkout."""
    git = os.path.join(root, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as f:
            head = f.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_path = os.path.join(git, ref)
        if os.path.exists(ref_path):
            with open(ref_path) as f:
                return f.read().strip()
        with open(os.path.join(git, "packed-refs")) as f:
            for line in f:
                parts = line.split()
                if len(parts) == 2 and parts[1] == ref:
                    return parts[0]
    except OSError:
        return None
    return None


def host_context(root: str, seed: int, ray_num_cpus: int) -> dict:
    return {
        "nproc": nproc(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "ray_num_cpus": ray_num_cpus,
        "git_revision": git_revision(root),
        "seed": seed,
        "python": sys.version.split()[0],
    }


def speed_probe(reps: int = 5) -> float:
    """Median seconds of a fixed pure-Python loop that uses no package code:
    a reading of the host's current single-core speed, so that drift between
    runs shows next to the numbers."""
    times = []
    for _ in range(reps):
        t0 = time.perf_counter()
        acc = 0
        for i in range(300_000):
            acc += i % 7
        times.append(time.perf_counter() - t0)
    return sorted(times)[reps // 2]


def loadavg() -> list[float]:
    return [round(x, 2) for x in os.getloadavg()]


def _ppid_and_start(pid: int) -> tuple[int, int] | None:
    try:
        with open(f"/proc/{pid}/stat") as f:
            stat = f.read()
    except OSError:
        return None
    # the command name may contain spaces and parentheses: split after it
    fields = stat[stat.rindex(")") + 2 :].split()
    return int(fields[1]), int(fields[19])


def descendants(root_pid: int) -> dict[int, int]:
    """-> {pid: start_time} of every live descendant of ``root_pid``."""
    parent_of, start_of = {}, {}
    for entry in os.listdir("/proc"):
        if entry.isdigit():
            info = _ppid_and_start(int(entry))
            if info is not None:
                parent_of[int(entry)], start_of[int(entry)] = info
    out, frontier = {}, [root_pid]
    while frontier:
        parent = frontier.pop()
        for pid, ppid in parent_of.items():
            if ppid == parent and pid not in out:
                out[pid] = start_of[pid]
                frontier.append(pid)
    return out


def _cmdline(pid: int) -> str:
    try:
        with open(f"/proc/{pid}/cmdline", "rb") as f:
            return f.read().replace(b"\0", b" ").decode("utf-8", "replace")
    except OSError:
        return ""


def vm_hwm_kb(pid: int) -> int:
    try:
        with open(f"/proc/{pid}/status") as f:
            for line in f:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return 0


def peak_rss_mb() -> float:
    """Sum of ``VmHWM`` over this (driver) process and its Ray worker
    processes.  Ray's own daemons (GCS, raylet, agents) are left out."""
    kb = vm_hwm_kb(os.getpid())
    for pid in descendants(os.getpid()):
        cmd = _cmdline(pid)
        if cmd.startswith("ray::") or "default_worker.py" in cmd:
            kb += vm_hwm_kb(pid)
    return kb / 1024.0


def reap(procs: dict[int, int], timeout: float = 20.0) -> None:
    """Wait until every process in ``procs`` ({pid: start_time}) has ended;
    SIGKILL the ones still alive after ``timeout`` seconds.  The start time
    guards against a recycled pid."""

    def alive() -> list[int]:
        out = []
        for pid, start in procs.items():
            info = _ppid_and_start(pid)
            if info is not None and info[1] == start and not _is_zombie(pid):
                out.append(pid)
        return out

    deadline = time.monotonic() + timeout
    left = alive()
    while left and time.monotonic() < deadline:
        time.sleep(0.1)
        left = alive()
    for pid in left:
        try:
            os.kill(pid, signal.SIGKILL)
        except OSError:
            pass
    deadline = time.monotonic() + 5.0
    while alive() and time.monotonic() < deadline:
        time.sleep(0.05)
    _collect_zombies()


def _is_zombie(pid: int) -> bool:
    try:
        with open(f"/proc/{pid}/stat") as f:
            stat = f.read()
    except OSError:
        return False
    return stat[stat.rindex(")") + 2] == "Z"


def _collect_zombies() -> None:
    while True:
        try:
            pid, _ = os.waitpid(-1, os.WNOHANG)
        except ChildProcessError:
            return
        if pid == 0:
            return
