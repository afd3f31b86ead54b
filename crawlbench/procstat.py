"""CPU-seconds and resident memory of this process and every process it
started (the Ray head processes, and the workers and actors under them),
read from ``/proc``.

A background thread samples the process tree every ``interval`` seconds.
Cumulative CPU is kept per ``(pid, starttime)``, so a worker that exits
inside a window still counts up to its last sample, and a reused pid is
never confused with the process that held it before.
"""

from __future__ import annotations

import os
import threading
import time

CLK_TCK = os.sysconf("SC_CLK_TCK")
PAGE = os.sysconf("SC_PAGE_SIZE")


def _stat_fields(pid: int) -> list[bytes] | None:
    """Fields of /proc/<pid>/stat after the command name, or None if the
    process is gone: state ppid ... utime(11) stime(12) ... starttime(19)
    vsize rss(21)."""
    try:
        with open(f"/proc/{pid}/stat", "rb") as f:
            raw = f.read()
    except OSError:
        return None
    return raw[raw.rfind(b")") + 2 :].split()


def _all_stats() -> dict[int, tuple]:
    """pid → (ppid, starttime, cpu_ticks, rss_bytes, state) of every process."""
    stats = {}
    for name in os.listdir("/proc"):
        if name.isdigit():
            f = _stat_fields(int(name))
            if f is not None:
                stats[int(name)] = (
                    int(f[1]), int(f[19]), int(f[11]) + int(f[12]), int(f[21]) * PAGE, f[0]
                )
    return stats


def _tree(root: int, stats: dict[int, tuple]) -> list[int]:
    children: dict[int, list[int]] = {}
    for pid, st in stats.items():
        children.setdefault(st[0], []).append(pid)
    out, todo = [], [root]
    while todo:
        pid = todo.pop()
        if pid in stats:
            out.append(pid)
            todo.extend(children.get(pid, ()))
    return out


def tree_snapshot(root: int) -> dict[int, tuple]:
    """pid → (starttime, cpu_ticks, rss_bytes) for ``root`` and its descendants."""
    stats = _all_stats()
    return {pid: stats[pid][1:4] for pid in _tree(root, stats)}


def descendants(root: int) -> dict[int, bool]:
    """pid → still running (False for an exited child not yet reaped) for
    every descendant of ``root``, ``root`` itself excluded."""
    stats = _all_stats()
    return {pid: stats[pid][4] != b"Z" for pid in _tree(root, stats) if pid != root}


class ProcSampler:
    def __init__(self, root: int | None = None, interval: float = 0.1):
        self.root = root or os.getpid()
        self.interval = interval
        self._lock = threading.Lock()
        self._cpu: dict[tuple[int, int], int] = {}  # (pid, start) → last ticks
        self._peak_rss = 0
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._loop, daemon=True)
        self._thread.start()

    def sample(self) -> None:
        snap = tree_snapshot(self.root)
        with self._lock:
            rss = 0
            for pid, (start, ticks, rss_b) in snap.items():
                self._cpu[(pid, start)] = ticks
                rss += rss_b
            self._peak_rss = max(self._peak_rss, rss)

    def _loop(self) -> None:
        while not self._stop.wait(self.interval):
            self.sample()

    def window_start(self) -> dict:
        self.sample()
        with self._lock:
            self._peak_rss = 0
            base = dict(self._cpu)
        self.sample()  # seed the peak with the current resident set
        return {"cpu": base, "t": time.perf_counter()}

    def window_end(self, start: dict) -> dict:
        """CPU-seconds (driver, others), wall seconds and peak summed RSS
        since ``start``."""
        self.sample()
        with self._lock:
            cpu, peak = dict(self._cpu), self._peak_rss
        me = os.getpid()
        driver = others = 0
        for key, ticks in cpu.items():
            d = ticks - start["cpu"].get(key, 0)
            if key[0] == me:
                driver += d
            else:
                others += d
        return {
            "wall_s": time.perf_counter() - start["t"],
            "cpu_driver_s": driver / CLK_TCK,
            "cpu_workers_s": others / CLK_TCK,
            "peak_rss_mb": peak / 2**20,
        }

    def stop(self) -> None:
        self._stop.set()
        self._thread.join()
