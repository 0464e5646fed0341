"""CPU time and memory of this process and every descendant (Ray's GCS, the
raylet and its workers), and reaping of that tree at the end of a run."""

from __future__ import annotations

import os
import threading

import psutil

# CPU is read every tick, Σ PSS (a costlier read) every PSS_EVERY ticks.
SAMPLE_INTERVAL_S = 0.1
PSS_EVERY = 2


def _tree() -> list[psutil.Process]:
    me = psutil.Process()
    return [me] + me.children(recursive=True)


def _cpu_by_process() -> dict[tuple[int, float], float]:
    """User + system CPU seconds of each live process of the tree, keyed by
    (pid, create time) so a reused pid is a new process."""
    out = {}
    for p in _tree():
        try:
            t = p.cpu_times()
            out[(p.pid, p.create_time())] = t.user + t.system
        except (psutil.NoSuchProcess, psutil.AccessDenied):
            continue
    return out


def _pss_bytes(pid: int) -> int:
    try:
        with open(f"/proc/{pid}/smaps_rollup", "rb") as f:
            for line in f:
                if line.startswith(b"Pss:"):
                    return int(line.split()[1]) * 1024
    except OSError:
        pass
    return 0


def tree_pss_bytes() -> int:
    """Σ PSS over the tree: pages shared between processes (the plasma
    store's mapping among them) are split between their users, so the sum
    counts each page once."""
    return sum(_pss_bytes(p.pid) for p in _tree())


class Measure:
    """CPU seconds and peak Σ PSS of the process tree over a ``with`` block.

    Ray's raylet does not account for the workers it reaps (an actor ends
    with its job), so a dead process's CPU is not found in its parent's
    counters. A background thread therefore keeps each process's last CPU
    reading; a process that exits loses at most one tick of CPU."""

    def __enter__(self) -> "Measure":
        self._cpu0 = _cpu_by_process()
        self._last = dict(self._cpu0)
        self.peak_pss = tree_pss_bytes()
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._sample, daemon=True)
        self._thread.start()
        return self

    def _sample(self) -> None:
        tick = 0
        while not self._stop.wait(SAMPLE_INTERVAL_S):
            self._last.update(_cpu_by_process())
            tick += 1
            if tick % PSS_EVERY == 0:
                self.peak_pss = max(self.peak_pss, tree_pss_bytes())

    def __exit__(self, *exc) -> None:
        self._stop.set()
        self._thread.join()
        self._last.update(_cpu_by_process())
        self.cpu_s = sum(v - self._cpu0.get(k, 0.0) for k, v in self._last.items())
        self.peak_pss = max(self.peak_pss, tree_pss_bytes())


def host_cpu_ticks() -> tuple[int, int]:
    """(steal, total) clock ticks of all CPUs of this host from /proc/stat:
    steal is time the hypervisor ran something else on our virtual CPUs."""
    with open("/proc/stat") as f:
        ticks = [int(x) for x in f.readline().split()[1:]]
    return ticks[7], sum(ticks[:8])


def reap(extra: list[psutil.Process] = ()) -> None:
    """Terminate and wait for every descendant, and for ``extra`` processes
    seen earlier that may have been re-parented away from this tree."""
    procs = {p.pid: p for p in list(extra) + psutil.Process().children(recursive=True)}
    live = [p for p in procs.values() if p.pid != os.getpid() and p.is_running()]
    for p in live:
        try:
            p.terminate()
        except psutil.NoSuchProcess:
            pass
    _, alive = psutil.wait_procs(live, timeout=5)
    for p in alive:
        try:
            p.kill()
        except psutil.NoSuchProcess:
            pass
    psutil.wait_procs(alive, timeout=5)
