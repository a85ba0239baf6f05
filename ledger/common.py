"""Shared plumbing: run record, timing helpers, goldens, result line."""

import gc
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import threading
import time
from pathlib import Path
from typing import Callable, Dict, List, Optional

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
GOLDENS = HERE / "goldens.json"
# Every file the benchmark writes lives here, inside the checkout.
WORK = ROOT / ".ledger_work"

# Setup is repeated this many times per run; setup_s is the median.
SETUP_REPEATS = 5


def nproc() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def run_record(workload: str, seed: int, seconds: int, trace: bool,
               workers: Dict[str, int]) -> dict:
    return {"workload": workload, "seed": seed, "seconds": seconds,
            "trace": trace, "nproc": nproc(),
            "python": platform.python_version(),
            "implementation": platform.python_implementation(),
            "cpu": cpu_model(), "workers": workers}


def peak_rss_mb() -> float:
    # ru_maxrss is in KiB on Linux.
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


# The probe: a fixed pure-Python loop that no change to the repository
# can speed up or slow down.  REFERENCE_PROBE_RATE is its speed
# (iterations per second) on the reference host, an otherwise idle
# 2-vCPU Intel Xeon VM under CPython 3.11.
PROBE_LOOPS = 20_000
REFERENCE_PROBE_RATE = 12.0e6


def _probe_rate() -> float:
    start = time.perf_counter()
    total = 0
    for i in range(PROBE_LOOPS):
        total += i * i % 7
    return PROBE_LOOPS / (time.perf_counter() - start)


class HostSpeed:
    """How fast the host runs, relative to the reference host.

    On a shared VM the whole machine speeds up and slows down by tens of
    percent within minutes, for all code alike.  The benchmark samples
    the probe between units of work (on the main thread, while no
    worker is busy) and scales each host-time sample by the probe
    readings taken around it: a duration is multiplied by
    :meth:`factor` over its window, so the reported figures are what
    the reference host would have measured.
    """

    def __init__(self, interval: float = 0.25, margin: float = 1.0):
        self.interval = interval
        self.margin = margin
        self.samples: List[tuple] = []  # (perf_counter time, probe rate)
        self._last = 0.0

    def sample(self, slices: int = 5) -> None:
        for _ in range(slices):
            rate = _probe_rate()
            self.samples.append((time.perf_counter(), rate))
        self._last = time.perf_counter()

    def maybe(self) -> None:
        """Sample once if the last sample is older than the interval."""
        if time.perf_counter() - self._last >= self.interval:
            self.sample(1)

    def factor(self, start: Optional[float] = None,
               end: Optional[float] = None) -> float:
        """Median probe speed over ``[start, end]`` widened by the
        margin (the whole run without a window), over the reference."""
        rates = [rate for at, rate in self.samples
                 if start is None
                 or start - self.margin <= at <= end + self.margin]
        if not rates:
            rates = [rate for _, rate in self.samples]
        return statistics.median(rates) / REFERENCE_PROBE_RATE

    def seconds(self, elapsed: float, start: float) -> float:
        """*elapsed* host seconds from *start*, at reference speed."""
        return elapsed * self.factor(start, start + elapsed)


def check_load_cap(workers: Dict[str, int]) -> None:
    """One process, and no pool wider than the machine."""
    import multiprocessing

    if multiprocessing.active_children():
        raise RuntimeError("the benchmark must run in one process")
    cap = nproc()
    for pool, size in workers.items():
        if size > cap:
            raise RuntimeError(f"{pool} uses {size} workers > nproc {cap}")


def live_pool_threads(prefix: str) -> int:
    return sum(1 for thread in threading.enumerate()
               if thread.name.startswith(prefix))


def finish_setup() -> None:
    """Collect setup garbage, then move survivors out of the collector's
    way; the collector stays enabled while timing."""
    gc.collect()
    gc.freeze()


def median_setup(build: Callable[[], object],
                 discard: Callable[[object], None],
                 probe: HostSpeed) -> tuple:
    """Run *build* SETUP_REPEATS times; keep the last product.

    Returns ``(median seconds at reference speed, product)``.
    """
    attempts: List[tuple] = []  # (start, elapsed)
    product = None
    for attempt in range(SETUP_REPEATS):
        if product is not None:
            discard(product)
            product = None
        gc.collect()
        probe.sample(3)
        start = time.perf_counter()
        product = build()
        attempts.append((start, time.perf_counter() - start))
    probe.sample(3)
    return statistics.median(probe.seconds(elapsed, start)
                             for start, elapsed in attempts), product


def clear_build_caches() -> None:
    """Make the next firmware build cold (as in a fresh process)."""
    from repro.api import firmware

    firmware.build_firmware.cache_clear()
    firmware._builder.cache_clear()


def digest(value) -> str:
    return hashlib.sha256(json.dumps(value, sort_keys=True)
                          .encode()).hexdigest()[:16]


def load_goldens() -> dict:
    with open(GOLDENS, encoding="utf-8") as handle:
        return json.load(handle)


def fresh_workdir(name: str) -> Path:
    path = WORK / name
    if path.exists():
        shutil.rmtree(path)
    path.mkdir(parents=True)
    return path


class Ledger:
    """Operations attempted/failed plus the determinism guard."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.problems: List[str] = []

    def op(self, ok: bool, what: str = "") -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            if what and len(self.problems) < 20:
                self.problems.append(what)

    def same(self, label: str, expected, actual) -> None:
        """Record a divergence from an exact expected value."""
        if expected != actual:
            self.problems.append(f"divergence in {label}: "
                                 f"expected {expected!r}, got {actual!r}")

    @property
    def diverged(self) -> bool:
        return any(p.startswith("divergence") for p in self.problems)


def emit_result(ledger: Ledger, metrics: Dict[str, tuple]) -> None:
    """Print the problems (if any) and the final result line."""
    for problem in ledger.problems:
        print(f"problem: {problem}")
    doc = {
        "correct": ledger.failed == 0 and not ledger.diverged,
        "attempted": max(1, ledger.attempted),
        "failed": ledger.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }
    sys.stdout.flush()
    print(json.dumps(doc))
