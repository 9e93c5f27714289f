"""The ``serve-zipf`` workload: ``python -m repro.serving serve --workers 2``
under a closed-loop Zipf stream from one load-generating process.

Two client threads each hold one persistent HTTP/1.1 connection and send
their next request only after the previous reply arrived, as a build
system waiting on each schedule would.  Latency is timed from send.
"""

from __future__ import annotations

import http.client
import json
import os
import random
import re
import shutil
import signal
import sqlite3
import subprocess
import sys
import tempfile
import threading
import time
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

from repro.api.types import ScheduleResponse
from repro.workloads.registry import benchmark_names

from checks import OutputChecker
from common import (ROOT, THREADS, TMP_ROOT, WorkloadResult, child_pids,
                    harrell_davis, latency_metrics, median, pid_alive,
                    process_tree_peak_rss_mb)
from inprocess import (VARIANTS, WARMUP_PROGRAMS, clang_speedup,
                       variant_spread)

STREAM_REQUESTS = 1000
#: Zipf exponent of the stream's popularity over the shuffled pool.
ZIPF_EXPONENT = 1.0
#: Generator seeds of the ``fuzz:small-*`` programs in the pool, beside the
#: registry A/B variants.  They are the same for every ``--seed``, so every
#: run has the same cold misses; a seed-drawn set of fuzz programs changed
#: the cost of the miss path from run to run.  Timed fuzz programs use
#: generator seeds below 100000.
POOL_FUZZ_SEEDS = tuple(random.Random("serve-zipf-pool").sample(
    range(100_000), 12))
CONNECTIONS = 2
WORKERS = 2
SETUP_REPEATS = 3
#: Programs and request count of the traced-versus-untraced hit comparison.
OVERHEAD_PROGRAMS = ("gemm:a", "syrk:a", "mvt:a", "atax:a")
OVERHEAD_REQUESTS = 60
READY_TIMEOUT_S = 60.0
STOP_TIMEOUT_S = 30.0

Exchange = Tuple[float, Optional[int], bytes]


class Server:
    """One ``serve`` process (plus its worker pool) in a fresh directory."""

    def __init__(self, trace: bool = True):
        TMP_ROOT.mkdir(exist_ok=True)
        self.directory = Path(tempfile.mkdtemp(prefix="serve-", dir=TMP_ROOT))
        self.trace = trace
        self.process: Optional[subprocess.Popen] = None
        self.host = ""
        self.port = 0
        self._log = None

    def start(self) -> float:
        """Boot the server; returns seconds until ``/healthz`` answered."""
        command = [sys.executable, "-m", "repro.serving", "serve",
                   "--workers", str(WORKERS), "--port", "0",
                   "--threads", str(THREADS),
                   "--cache-path", str(self.directory / "cache.sqlite")]
        if not self.trace:
            command.append("--no-trace")
        env = dict(os.environ, PYTHONPATH=str(ROOT / "src"),
                   PYTHONHASHSEED=os.environ.get("PYTHONHASHSEED", "0"))
        # The cache file is created in WAL mode before the workers open it:
        # on a brand-new file, the workers' concurrent "PRAGMA journal_mode
        # = WAL" can fail with "database is locked" and break the pool.
        # The file is still empty when the server starts.
        cache = sqlite3.connect(self.directory / "cache.sqlite")
        try:
            cache.execute("PRAGMA journal_mode = WAL")
        finally:
            cache.close()
        log_path = self.directory / "server.log"
        self._log = open(log_path, "w", encoding="utf-8")
        started = time.perf_counter()
        self.process = subprocess.Popen(command, stdout=self._log,
                                        stderr=subprocess.STDOUT, env=env,
                                        cwd=str(ROOT))
        address = None
        while address is None:
            if self.process.poll() is not None:
                raise RuntimeError(f"server exited during start-up:\n"
                                   f"{log_path.read_text()[-2000:]}")
            if time.perf_counter() - started > READY_TIMEOUT_S:
                raise RuntimeError("server did not start in time")
            match = re.search(r"serving on http://([\d.]+):(\d+)",
                              log_path.read_text())
            if match:
                address = match.groups()
            else:
                time.sleep(0.01)
        self.host, self.port = address[0], int(address[1])
        connection = self.connection()
        try:
            status, _ = get(connection, "/healthz")
        finally:
            connection.close()
        if status != 200:
            raise RuntimeError(f"/healthz answered {status}")
        return time.perf_counter() - started

    def connection(self) -> http.client.HTTPConnection:
        return http.client.HTTPConnection(self.host, self.port, timeout=120)

    def stop(self) -> None:
        """Stop the server and its workers, and wait until all have ended."""
        process, self.process = self.process, None
        if process is not None:
            children = _descendants(process.pid)
            if process.poll() is None:
                # SIGINT runs serve's shutdown path, which stops the pool.
                process.send_signal(signal.SIGINT)
                try:
                    process.wait(timeout=STOP_TIMEOUT_S)
                except subprocess.TimeoutExpired:
                    process.kill()
                    process.wait()
            deadline = time.monotonic() + STOP_TIMEOUT_S
            for pid in children:
                while pid_alive(pid):
                    if time.monotonic() > deadline:
                        os.kill(pid, signal.SIGKILL)
                    time.sleep(0.02)
        if self._log is not None:
            self._log.close()
            self._log = None
        shutil.rmtree(self.directory, ignore_errors=True)


def _descendants(pid: int) -> List[int]:
    found, pending = [], child_pids(pid)
    while pending:
        current = pending.pop()
        found.append(current)
        pending.extend(child_pids(current))
    return found


def get(connection: http.client.HTTPConnection, path: str
        ) -> Tuple[int, bytes]:
    connection.request("GET", path)
    reply = connection.getresponse()
    return reply.status, reply.read()


def post(connection: http.client.HTTPConnection, program: str
         ) -> Tuple[int, bytes]:
    body = json.dumps({"program": program}).encode("utf-8")
    connection.request("POST", "/v1/schedule", body=body,
                       headers={"Content-Type": "application/json"})
    reply = connection.getresponse()
    return reply.status, reply.read()


def run_stream(server: Server, stream: Sequence[str]
               ) -> Tuple[List[Exchange], float]:
    """Closed loop: ``CONNECTIONS`` clients drain ``stream`` in order."""
    exchanges: List[Optional[Exchange]] = [None] * len(stream)
    lock = threading.Lock()
    cursor = [0]
    clock = time.perf_counter

    def client() -> None:
        connection = server.connection()
        try:
            while True:
                with lock:
                    index = cursor[0]
                    cursor[0] += 1
                if index >= len(stream):
                    return
                sent = clock()
                try:
                    status, data = post(connection, stream[index])
                except (OSError, http.client.HTTPException) as error:
                    exchanges[index] = (clock() - sent, None,
                                        repr(error).encode("utf-8"))
                    connection.close()
                    connection = server.connection()
                    continue
                exchanges[index] = (clock() - sent, status, data)
        finally:
            connection.close()

    threads = [threading.Thread(target=client, name=f"client-{n}")
               for n in range(CONNECTIONS)]
    started = clock()
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    elapsed = clock() - started
    return [exchange if exchange is not None else (0.0, None, b"not sent")
            for exchange in exchanges], elapsed


def zipf_stream(seed: int) -> Tuple[List[str], List[str]]:
    """``(pool, stream)``: the pool shuffled by ``seed`` and a Zipf draw
    over it."""
    rng = random.Random(f"serve-zipf:{seed}")
    pool = [f"{bench}:{variant}" for bench in benchmark_names()
            for variant in VARIANTS[:2]]
    pool += [f"fuzz:small-{s}" for s in POOL_FUZZ_SEEDS]
    rng.shuffle(pool)
    weights = [1.0 / (rank + 1) ** ZIPF_EXPONENT for rank in range(len(pool))]
    return pool, rng.choices(pool, weights=weights, k=STREAM_REQUESTS)


def warm(server: Server, programs: Sequence[str]) -> None:
    """Request each program three times: the cold miss, the schedule-cache
    hit that stores the encoded response, and a fast-lane hit."""
    connection = server.connection()
    try:
        for program in programs:
            for _ in range(3):
                status, data = post(connection, program)
                if status != 200:
                    raise RuntimeError(f"warm-up {program}: HTTP {status}: "
                                       f"{data[:200]!r}")
    finally:
        connection.close()


# -- scraping the server's own figures --------------------------------------------

_SAMPLE = re.compile(r"^([A-Za-z_:][\w:]*)(?:\{([^}]*)\})?\s+(\S+)$")
_LABEL = re.compile(r'(\w+)="([^"]*)"')


def parse_metrics(text: str) -> List[Tuple[str, Dict[str, str], float]]:
    samples = []
    for line in text.splitlines():
        match = _SAMPLE.match(line)
        if match is None or line.startswith("#"):
            continue
        name, labels, value = match.groups()
        samples.append((name, dict(_LABEL.findall(labels or "")),
                        float(value)))
    return samples


def histogram_quantile(samples, name: str, q: float) -> float:
    """Quantile of a Prometheus histogram, summed over its label sets,
    interpolated linearly inside the bucket that holds it."""
    buckets: Dict[float, float] = {}
    for sample, labels, value in samples:
        if sample == f"{name}_bucket":
            bound = float(labels["le"])
            buckets[bound] = buckets.get(bound, 0.0) + value
    bounds = sorted(buckets)
    total = buckets[bounds[-1]]
    rank = q * total
    lower, below = 0.0, 0.0
    for bound in bounds:
        if buckets[bound] >= rank:
            if bound == float("inf"):
                return lower
            share = (rank - below) / max(buckets[bound] - below, 1e-12)
            return lower + (bound - lower) * share
        lower, below = bound, buckets[bound]
    return lower


def metric_sum(samples, name: str, **match: str) -> float:
    return sum(value for sample, labels, value in samples
               if sample == name and all(labels.get(k) == v
                                         for k, v in match.items()))


def _split_latency(exchanges: Sequence[Exchange], parsed) -> Tuple[list, list]:
    hits, misses = [], []
    for (latency, status, _data), payload in zip(exchanges, parsed):
        if status == 200:
            (hits if payload["from_cache"] else misses).append(latency)
    return hits, misses


def serving_layer_metrics(result: WorkloadResult, server: Server,
                          exchanges, parsed) -> None:
    connection = server.connection()
    try:
        _, text = get(connection, "/metrics?workers=1")
        _, report_body = get(connection, "/v1/report?workers=1")
    finally:
        connection.close()
    samples = parse_metrics(text.decode("utf-8"))
    report = json.loads(report_body)
    hits, misses = _split_latency(exchanges, parsed)
    result.add("serving.latency_p99_ms", 1e3 * harrell_davis(
        [latency for latency, status, _ in exchanges if status == 200], 0.99),
        "ms")
    hit_p50 = 1e3 * median(hits)
    server_p50 = 1e3 * histogram_quantile(
        samples, "repro_request_latency_seconds", 0.5)
    result.add("serving.hit_p50_ms", hit_p50, "ms")
    result.add("serving.miss_p50_ms", 1e3 * median(misses) if misses else 0.0,
               "ms")
    result.add("serving.server_p50_ms", server_p50, "ms")
    result.add("serving.transport_p50_ms", hit_p50 - server_p50, "ms")
    for phase in ("queue_wait", "batch", "schedule"):
        label = "queue" if phase == "queue_wait" else phase
        result.add(f"serving.{phase}_s", metric_sum(
            samples, "repro_request_phase_seconds_sum", phase=label), "s")
    service = report["service"]
    result.add("serving.fast_lane_hits", service["fast_lane"], "count")
    result.add("serving.batches", service["batches"], "count")
    result.add("serving.coalesced", service["coalesced"], "count")
    merged = report["pool"]["merged"]
    hit_keys = ("normalization_hits", "schedule_cache_hits",
                "response_cache_hits")
    miss_keys = ("normalization_misses", "schedule_cache_misses",
                 "response_cache_misses")
    result.add("api.cache_hits", sum(report.get(k, 0) + merged.get(k, 0)
                                     for k in hit_keys), "count")
    result.add("api.cache_misses", sum(report.get(k, 0) + merged.get(k, 0)
                                       for k in miss_keys), "count")


def trace_overhead(result: WorkloadResult, traced: Server) -> None:
    """Fast-lane hit p50 of the traced server against a ``--no-trace`` one."""
    untraced = Server(trace=False)
    try:
        untraced.start()
        warm(untraced, OVERHEAD_PROGRAMS)
        warm(traced, OVERHEAD_PROGRAMS)
        stream = [OVERHEAD_PROGRAMS[n % len(OVERHEAD_PROGRAMS)]
                  for n in range(OVERHEAD_REQUESTS)]
        samples = {True: [], False: []}
        for server in (traced, untraced, traced, untraced):
            exchanges, _ = run_stream(server, stream)
            samples[server.trace] += [latency for latency, status, _ in
                                      exchanges if status == 200]
    finally:
        untraced.stop()
    on, off = 1e3 * median(samples[True]), 1e3 * median(samples[False])
    result.add("observability.hit_p50_traced_ms", on, "ms")
    result.add("observability.hit_p50_untraced_ms", off, "ms")
    result.add("observability.trace_overhead_pct", 100.0 * (on - off) / off,
               "%")


def serve_zipf(seed: int, seconds: float, trace: bool) -> WorkloadResult:
    result = WorkloadResult()
    pool, stream = zipf_stream(seed)
    servers: List[Server] = []
    try:
        setups = []
        for _ in range(SETUP_REPEATS):
            if servers:
                servers.pop().stop()
            server = Server()
            servers.append(server)
            setups.append(server.start())
        warm(server, WARMUP_PROGRAMS)

        exchanges: List[Exchange] = []
        elapsed = 0.0
        while not exchanges or elapsed < seconds:
            round_exchanges, round_elapsed = run_stream(server, stream)
            exchanges += round_exchanges
            elapsed += round_elapsed
        peak_rss = process_tree_peak_rss_mb(server.process.pid)
        requested = [stream[n % len(stream)] for n in range(len(exchanges))]
        result.attempted = len(exchanges)
        result.failed = sum(1 for _, status, _ in exchanges if status != 200)
        parsed = [json.loads(data) if status == 200 else None
                  for _, status, data in exchanges]
        if trace:
            serving_layer_metrics(result, server, exchanges, parsed)
            trace_overhead(result, server)

        # -- checks (untimed): the first answer for every program of the
        # stream, plus the pool programs it missed and the NPBench variants.
        answers: Dict[str, bytes] = {}
        for name, (_latency, status, data) in zip(requested, exchanges):
            if status == 200:
                answers.setdefault(name, data)
        missing = [name for name in sorted(set(pool)) if name not in answers]
        missing += [f"{bench}:npbench" for bench in benchmark_names()]
        for name, (_latency, status, data) in zip(
                missing, run_stream(server, missing)[0]):
            if status != 200:
                result.mismatches.append(f"{name}: check request HTTP "
                                         f"{status}")
                continue
            answers[name] = data
        checker = OutputChecker(seed)
        runtimes: Dict[str, float] = {}
        for name, data in answers.items():
            response = ScheduleResponse.from_dict(json.loads(data))
            problem = checker.check(name, response.program)
            if problem:
                result.mismatches.append(problem)
            runtimes[name] = response.runtime_s
        for name, (_latency, status, _data), payload in zip(
                requested, exchanges, parsed):
            if status == 200 and payload["runtime_s"] != runtimes[name]:
                result.mismatches.append(
                    f"{name}: stream answers disagree on the modeled runtime")
                break
    finally:
        for server in servers:
            server.stop()
    for _, status, data in exchanges:
        if status != 200:
            print(f"failed request: HTTP {status}: {data[:200]!r}",
                  file=sys.stderr)
            break

    if trace:
        hits, misses = _split_latency(exchanges, parsed)
        print(f"serve-zipf per-layer ({len(exchanges)} requests, "
              f"{elapsed:.3f} s timed, {len(hits)} cache hits, "
              f"{len(misses)} misses):")
        for name in sorted(result.metrics):
            value, unit = result.metrics[name]
            print(f"  {name:40s} {value:12.4f} {unit}")
    else:
        latencies = [latency for latency, status, _ in exchanges
                     if status == 200]
        latency_metrics(result, latencies, elapsed)
        result.add("setup_s", median(setups), "s")
        result.add("peak_rss_mb", peak_rss, "MB")
        registry = [f"{bench}:{variant}" for bench in benchmark_names()
                    for variant in VARIANTS[:2]]
        result.add("speedup_vs_clang_geomean", clang_speedup(
            {name: runtimes[name] for name in registry}), "x")
        result.add("variant_spread_geomean", variant_spread(runtimes), "x")
    return result
