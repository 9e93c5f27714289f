"""Shared pieces of the benchmark: the workload result, statistics, memory."""

from __future__ import annotations

import math
import os
import resource
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, Iterable, List, Sequence, Tuple

import numpy

#: Root of the checkout the benchmark runs in (the parent of this directory).
ROOT = Path(__file__).resolve().parent.parent
#: Scratch space for server caches; inside the checkout, ignored by git.
TMP_ROOT = ROOT / ".perfbench-tmp"
#: Threads the scheduled code is optimized for: the paper's 12-core machine.
THREADS = 12


@dataclass
class WorkloadResult:
    """What one run of one workload measured and checked."""

    attempted: int = 0
    failed: int = 0
    #: Output-check failures (of operations that did not fail).
    mismatches: List[str] = field(default_factory=list)
    #: ``name -> (value, unit)``.
    metrics: Dict[str, Tuple[float, str]] = field(default_factory=dict)

    @property
    def correct(self) -> bool:
        return not self.mismatches

    def add(self, name: str, value: float, unit: str) -> None:
        self.metrics[name] = (float(value), unit)


def percentile(values: Sequence[float], q: float) -> float:
    """The ``q``-th percentile (0..100), linear between closest ranks."""
    ordered = sorted(values)
    if not ordered:
        raise ValueError("percentile of no values")
    position = (len(ordered) - 1) * q / 100.0
    low = math.floor(position)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (position - low)


def median(values: Sequence[float]) -> float:
    return percentile(values, 50.0)


def geomean(values: Iterable[float]) -> float:
    values = list(values)
    return math.exp(sum(math.log(v) for v in values) / len(values))


def harrell_davis(values: Sequence[float], q: float, steps: int = 16) -> float:
    """The Harrell-Davis estimate of quantile ``q`` (0..1): a weighted mean
    of all order statistics, weighted by a Beta((n+1)q, (n+1)(1-q))
    distribution, so it does not jump with the one or two samples at the
    quantile's rank as the plain percentile does.  The Beta CDF is
    integrated numerically, ``steps`` points per rank, which matches the
    closed form to better than 1e-6 (relative) for the hundreds of samples
    it is used on here."""
    ordered = numpy.sort(numpy.asarray(values, dtype=float))
    n = len(ordered)
    if n == 0:
        raise ValueError("quantile of no values")
    if n == 1:
        return float(ordered[0])
    a, b = (n + 1) * q, (n + 1) * (1 - q)
    grid = numpy.linspace(0.0, 1.0, n * steps + 1)[1:-1]
    log_pdf = (a - 1) * numpy.log(grid) + (b - 1) * numpy.log1p(-grid)
    pdf = numpy.concatenate(([0.0], numpy.exp(log_pdf - log_pdf.max()), [0.0]))
    cdf = numpy.concatenate(([0.0], numpy.cumsum((pdf[1:] + pdf[:-1]) / 2)))
    weights = numpy.diff(cdf[::steps])
    return float(weights @ ordered / weights.sum())


def latency_metrics(result: WorkloadResult, latencies_s: Sequence[float],
                    elapsed_s: float) -> None:
    """Throughput and latency quantiles of one timed phase."""
    result.add("throughput_rps", len(latencies_s) / elapsed_s, "1/s")
    for name, q in (("latency_p50_ms", 0.5), ("latency_p90_ms", 0.9)):
        result.add(name, 1e3 * harrell_davis(latencies_s, q), "ms")


def self_peak_rss_mb() -> float:
    """Peak resident memory of this process (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def child_pids(pid: int) -> List[int]:
    """Direct children of ``pid``, read from ``/proc``."""
    children: List[int] = []
    task_dir = Path(f"/proc/{pid}/task")
    try:
        tasks = list(task_dir.iterdir())
    except OSError:
        return children
    for task in tasks:
        try:
            text = (task / "children").read_text()
        except OSError:
            continue
        children.extend(int(token) for token in text.split())
    return children


def process_tree_peak_rss_mb(pid: int) -> float:
    """Sum of the peak resident memory of ``pid`` and its descendants."""
    total_kib = 0
    pending = [pid]
    while pending:
        current = pending.pop()
        try:
            status = Path(f"/proc/{current}/status").read_text()
        except OSError:
            continue
        for line in status.splitlines():
            if line.startswith("VmHWM:"):
                total_kib += int(line.split()[1])
        pending.extend(child_pids(current))
    return total_kib / 1024.0


def pid_alive(pid: int) -> bool:
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return False
    except PermissionError:
        return True
    # A zombie still answers kill(0); it has ended all the same.
    try:
        state = Path(f"/proc/{pid}/stat").read_text().rsplit(")", 1)[1].split()[0]
    except (OSError, IndexError):
        return False
    return state != "Z"
