"""Host fingerprint and peak-RSS sampling for the benchmark report."""

from __future__ import annotations

import multiprocessing
import os
import platform
import threading
from pathlib import Path


def _read(path: Path) -> str:
    try:
        return path.read_text().strip()
    except OSError:
        return ""


def _cpu_model() -> str:
    for line in _read(Path("/proc/cpuinfo")).splitlines():
        if line.startswith("model name"):
            return line.split(":", 1)[1].strip()
    return platform.processor() or "unknown"


def _caches() -> dict[str, str]:
    out = {}
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        level = _read(index / "level")
        kind = _read(index / "type")
        size = _read(index / "size")
        if level and size:
            out[f"L{level}{'' if kind == 'Unified' else kind[:1].lower()}"] = size
    return out


def pool_start_method() -> str:
    """The start method ``PoolEngine`` picks when none is given."""
    methods = multiprocessing.get_all_start_methods()
    return "fork" if "fork" in methods else methods[0]


def fingerprint() -> dict:
    import numpy

    return {
        "cpu": _cpu_model(),
        "nproc": len(os.sched_getaffinity(0)),
        "caches": _caches(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "pool_start_method": pool_start_method(),
    }


def _rss_kib(pid: int) -> int:
    for line in _read(Path(f"/proc/{pid}/status")).splitlines():
        if line.startswith("VmRSS:"):
            return int(line.split()[1])
    return 0


def descendants(pid: int) -> list[int]:
    out, todo = [], [pid]
    while todo:
        p = todo.pop()
        try:
            tasks = list(Path(f"/proc/{p}/task").iterdir())
        except OSError:  # exited since its parent listed it
            continue
        for task in tasks:
            for child in _read(task / "children").split():
                out.append(int(child))
                todo.append(int(child))
    return out


class RssSampler:
    """Peak of (this process + its descendants) resident set, in MiB.

    Sampled every ``interval`` seconds from ``/proc`` on a daemon thread
    between :meth:`start` and :meth:`stop`.
    """

    def __init__(self, interval: float = 0.1) -> None:
        self.interval = interval
        self.peak_kib = 0
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._run, daemon=True)

    def sample(self) -> None:
        me = os.getpid()
        total = _rss_kib(me) + sum(_rss_kib(p) for p in descendants(me))
        self.peak_kib = max(self.peak_kib, total)

    def _run(self) -> None:
        while not self._stop.wait(self.interval):
            self.sample()

    def start(self) -> "RssSampler":
        self.sample()
        self._thread.start()
        return self

    def stop(self) -> float:
        self._stop.set()
        self._thread.join()
        self.sample()
        return self.peak_kib / 1024.0
