"""Host facts, and /proc readers of the job's resident memory and CPU time."""

from __future__ import annotations

import os
import subprocess
import threading
import time


def _cmd(args: list[str], cwd: str | None = None) -> str:
    try:
        out = subprocess.run(args, cwd=cwd, capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def facts(root: str) -> dict:
    """Facts that do not depend on a Ray session."""
    import pyarrow
    import ray

    return {
        "sched_getaffinity": len(os.sched_getaffinity(0)),
        "nproc": _cmd(["nproc"]),
        "OMP_NUM_THREADS": os.environ.get("OMP_NUM_THREADS"),
        "ray": ray.__version__,
        "pyarrow": pyarrow.__version__,
        "git_sha": _cmd(["git", "rev-parse", "HEAD"], cwd=root),
    }


def ray_facts() -> dict:
    import ray

    res = ray.cluster_resources()
    return {
        "ray_num_cpus": res.get("CPU"),
        "object_store_mb": round(res.get("object_store_memory", 0) / 2**20),
    }


def cpu_times() -> list[int]:
    """The aggregate ``cpu`` line of /proc/stat, in clock ticks."""
    with open("/proc/stat") as f:
        return [int(x) for x in f.readline().split()[1:]]


def steal_share(before: list[int], after: list[int]) -> float:
    """Share of CPU time the hypervisor gave to other guests (the 8th
    field, steal). Every timing here slows as it grows."""
    delta = [a - b for a, b in zip(after, before)]
    return delta[7] / max(1, sum(delta))


def _children() -> dict[int, list[int]]:
    kids: dict[int, list[int]] = {}
    for name in os.listdir("/proc"):
        if not name.isdigit():
            continue
        try:
            with open(f"/proc/{name}/stat") as f:
                stat = f.read()
        except OSError:
            continue
        # the command name may hold spaces: ppid is the 2nd field after ')'
        ppid = int(stat.rsplit(")", 1)[1].split()[1])
        kids.setdefault(ppid, []).append(int(name))
    return kids


def _is_ray_worker(pid: int) -> bool:
    try:
        with open(f"/proc/{pid}/cmdline", "rb") as f:
            cmd = f.read()
    except OSError:
        return False
    return cmd.startswith(b"ray::") or b"default_worker.py" in cmd


def _rss_bytes(pid: int) -> int:
    try:
        with open(f"/proc/{pid}/statm") as f:
            return int(f.read().split()[1]) * os.sysconf("SC_PAGE_SIZE")
    except OSError:
        return 0


def job_rss_bytes() -> int:
    """RSS of this driver plus every Ray worker process descended from it."""
    me = os.getpid()
    kids = _children()
    total, stack = _rss_bytes(me), list(kids.get(me, []))
    while stack:
        pid = stack.pop()
        stack.extend(kids.get(pid, []))
        if _is_ray_worker(pid):
            total += _rss_bytes(pid)
    return total


class PeakRss:
    """Samples ``job_rss_bytes`` on a thread until stopped; keeps the peak."""

    def __init__(self, interval_s: float = 0.25):
        self.interval_s = interval_s
        self.peak = 0
        self.cpu_s = 0.0
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._run, daemon=True)

    def _run(self) -> None:
        while True:
            self.peak = max(self.peak, job_rss_bytes())
            if self._stop.wait(self.interval_s):
                # the sampler's own CPU, which tree_cpu_s also counts
                self.cpu_s = time.thread_time()
                return

    def __enter__(self) -> "PeakRss":
        self._thread.start()
        return self

    def __exit__(self, *exc) -> None:
        self._stop.set()
        self._thread.join()
        self.peak = max(self.peak, job_rss_bytes())


def du_bytes(path: str) -> tuple[int, int]:
    """(files, bytes) of the regular files under ``path``."""
    n = size = 0
    for d, _, names in os.walk(path):
        for name in names:
            n += 1
            size += os.path.getsize(os.path.join(d, name))
    return n, size


def tree_cpu_s() -> float:
    """User + system CPU seconds used so far by this process and every
    process descended from it (Ray's GCS, raylet and workers), reaped
    children included. Time the hypervisor steals from a vCPU is not
    charged to any process."""
    kids = _children()
    total, stack = 0, [os.getpid()]
    while stack:
        pid = stack.pop()
        stack.extend(kids.get(pid, []))
        try:
            with open(f"/proc/{pid}/stat") as f:
                fields = f.read().rsplit(")", 1)[1].split()
        except OSError:
            continue
        total += sum(int(x) for x in fields[11:15])  # utime stime cutime cstime
    return total / os.sysconf("SC_CLK_TCK")
