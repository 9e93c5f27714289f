"""The ``transfer`` workload: ``repro.api.Session`` driven in the
benchmark's own process."""

from __future__ import annotations

import sys
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence

from repro.api import Session
from repro.scheduler.database import TuningDatabase
from repro.workloads.registry import benchmark, benchmark_names, fuzz_program

from checks import OutputChecker
from common import (THREADS, WorkloadResult, geomean, latency_metrics,
                    median, self_peak_rss_mb)
from layers import LayerTimers

#: Warm-up inputs: outside every timed set (timed fuzz programs use
#: generator seeds below 100000) and the same for every seed, because the
#: programs a process has scheduled before change the cost of later ones
#: (a seed-drawn warm-up moved the slowest of a set of cold schedules by
#: 35%).
WARMUP_PROGRAMS = ("fuzz:small-1000000", "fuzz:small-1000001")
#: Set-ups measured per run; ``setup_s`` is their median.  A set-up tunes
#: 18 programs (~10 s), so it is repeated twice.
TRANSFER_SETUP_REPEATS = 2
#: The transfer timed phase runs at least this many requests.
TRANSFER_MIN_REQUESTS = 100
VARIANTS = ("a", "b", "npbench")


def default_parameters(name: str) -> Dict[str, int]:
    """The parameters a session schedules workload ``name`` at."""
    if name.startswith("fuzz:"):
        return fuzz_program(name[len("fuzz:"):])[1]
    return benchmark(name.partition(":")[0]).sizes("large")


def clang_speedup(runtimes: Dict[str, float]) -> float:
    """Geometric mean of clang's modeled runtime over daisy's, per program."""
    clang = Session(scheduler="clang", threads=THREADS)
    return geomean(clang.estimate(name) / runtime
                   for name, runtime in runtimes.items())


def variant_spread(runtimes: Dict[str, float]) -> float:
    """Per benchmark, max/min modeled runtime over its variants; geomean."""
    spreads = []
    for bench in benchmark_names():
        values = [runtimes[f"{bench}:{v}"] for v in VARIANTS]
        spreads.append(max(values) / min(values))
    return geomean(spreads)


@dataclass
class TimedRounds:
    """What the timed rounds of one run produced."""

    latencies: List[float] = field(default_factory=list)
    round_seconds: List[float] = field(default_factory=list)
    #: The first response per program.
    first: Dict[str, object] = field(default_factory=dict)
    #: Per-nest outcomes and cache hits/misses (traced runs only).
    counts: Dict[str, int] = field(default_factory=dict)
    last_session: Optional[Session] = None

    @property
    def elapsed(self) -> float:
        return sum(self.round_seconds)

    def tally(self, session: Session, responses: Sequence[object]) -> None:
        for response in responses:
            for info in response.result.nests:
                if info.detail.startswith("transfer from"):
                    outcome = "scheduler.nests_transferred"
                elif info.detail.startswith("evolutionary search"):
                    outcome = "scheduler.nests_searched"
                elif info.detail == "blas idiom":
                    outcome = "scheduler.nests_blas"
                else:
                    continue
                self.counts[outcome] = self.counts.get(outcome, 0) + 1
        report = session.report()
        for key, kinds in (("api.cache_hits", "hits"),
                           ("api.cache_misses", "misses")):
            self.counts[key] = self.counts.get(key, 0) + sum(
                getattr(report, name) for name in (
                    f"normalization_{kinds}", f"schedule_cache_{kinds}",
                    f"response_cache_{kinds}"))


def run_rounds(result: WorkloadResult, new_session: Callable[[], Session],
               names: Sequence[str], seconds: float, min_requests: int,
               timers: Optional[LayerTimers]) -> TimedRounds:
    """Whole rounds over ``names``, each in a fresh session, until the
    timed phase lasted ``seconds`` and ran ``min_requests`` requests."""
    rounds = TimedRounds()
    while not rounds.round_seconds or rounds.elapsed < seconds \
            or len(rounds.latencies) < min_requests:
        if rounds.last_session is not None:
            rounds.last_session.close()
        session = rounds.last_session = new_session()
        responses: Dict[str, object] = {}
        started = time.perf_counter()
        if timers is not None:
            timers.start()
        for name in names:
            result.attempted += 1
            sent = time.perf_counter()
            try:
                responses[name] = session.schedule(name)
            except Exception as error:  # noqa: BLE001 - counted as failed
                result.failed += 1
                print(f"{name}: scheduling failed: {type(error).__name__}: "
                      f"{error}", file=sys.stderr)
                continue
            rounds.latencies.append(time.perf_counter() - sent)
        if timers is not None:
            timers.stop()
        rounds.round_seconds.append(time.perf_counter() - started)
        if timers is not None:
            rounds.tally(session, list(responses.values()))
        for name, response in responses.items():
            previous = rounds.first.setdefault(name, response)
            if previous.runtime_s != response.runtime_s:
                result.mismatches.append(
                    f"{name}: modeled runtime differs between rounds")
    return rounds


def report_layers(result: WorkloadResult, workload: str,
                  timers: LayerTimers, rounds: TimedRounds,
                  setup_s: float) -> None:
    timers.restore()
    print(f"{workload} per-layer (set-up {setup_s:.3f} s, then "
          f"{len(rounds.latencies)} requests in {rounds.elapsed:.3f} s, "
          f"{len(rounds.latencies) / rounds.elapsed:.2f} requests/s):")
    print(timers.table(setup_s + rounds.elapsed))
    for name, (value, unit) in timers.metrics().items():
        result.add(name, value, unit)
    for name, count in rounds.counts.items():
        result.add(name, count, "count")


def transfer(seed: int, seconds: float, trace: bool) -> WorkloadResult:
    """Passes over the B and NPBench variants, each with a fresh session
    over one database tuned on the A variants: nests are served by
    recipe transfer or the BLAS idiom, never by search.  The set-up (the
    tuning) is where the evolutionary search runs."""
    result = WorkloadResult()
    benches = benchmark_names()
    order = [f"{bench}:{variant}" for bench in benches
             for variant in VARIANTS[1:]]
    # The traced run times the first set-up too: it holds the search layers.
    timers = LayerTimers.installed() if trace else None

    setups: List[float] = []
    database = TuningDatabase()
    tuned: Dict[str, object] = {}
    for repeat in range(TRANSFER_SETUP_REPEATS):
        started = time.perf_counter()
        database = TuningDatabase()
        tuner = Session(threads=THREADS, database=database)
        if timers is not None and repeat == 0:
            timers.start()
        for bench in benches:
            tuned[f"{bench}:a"] = tuner.tune(f"{bench}:a")
        if timers is not None:
            timers.stop()
        setups.append(time.perf_counter() - started)
        tuner.close()

    # Untimed warm-up: the A variants (outside the timed set) by transfer.
    warm = Session(threads=THREADS, database=database)
    for bench in benches:
        warm.schedule(f"{bench}:a")
    warm.close()

    rounds = run_rounds(
        result, lambda: Session(threads=THREADS, database=database), order,
        seconds, TRANSFER_MIN_REQUESTS, timers)
    rounds.last_session.close()
    peak_rss = self_peak_rss_mb()
    print(f"transfer: {len(rounds.round_seconds)} passes, seconds per pass: "
          f"median {median(rounds.round_seconds):.3f}, min "
          f"{min(rounds.round_seconds):.3f}, max "
          f"{max(rounds.round_seconds):.3f}; set-ups "
          f"{[round(s, 2) for s in setups]}", file=sys.stderr)
    if timers is not None:
        report_layers(result, "transfer", timers, rounds, setups[0])

    # -- checks and quality figures (untimed) -------------------------------------
    checker = OutputChecker(seed)
    reference = Session(threads=THREADS)
    runtimes: Dict[str, float] = {}
    for name, response in list(tuned.items()) + list(rounds.first.items()):
        problem = checker.check(name, response.program)
        if problem:
            result.mismatches.append(problem)
        runtimes[name] = response.runtime_s
    for name, response in tuned.items():
        # The search always considers leaving a nest unchanged, so a tuned
        # schedule can never be modeled slower than its normalized input.
        normalized = reference.normalize(name).program
        before = reference.evaluate(normalized, default_parameters(name))
        if response.runtime_s > before * (1 + 1e-9):
            result.mismatches.append(
                f"{name}: schedule modeled at {response.runtime_s:.6g} s, "
                f"slower than its normalized input ({before:.6g} s)")
    reference.close()

    if not trace:
        latency_metrics(result, rounds.latencies, rounds.elapsed)
        result.add("setup_s", median(setups), "s")
        result.add("peak_rss_mb", peak_rss, "MB")
        result.add("speedup_vs_clang_geomean", clang_speedup(
            {name: rounds.first[name].runtime_s for name in order}), "x")
        result.add("variant_spread_geomean", variant_spread(runtimes), "x")
    return result
