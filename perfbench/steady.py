"""Steadiness check: run each workload repeatedly and print the spread.

    python3 perfbench/steady.py --runs 10
    python3 perfbench/steady.py --runs 5 --workloads serve-zipf --seed-base 100

Every run is a fresh ``perfbench/run.py`` process with its own seed.  The
workload order alternates between rounds (forward, then reversed), so a
slow spell of the machine does not always land on the same workload.
For each end-to-end metric it prints the median, the quartiles (as
``statistics.quantiles(values, n=4)`` gives them), the spread — the
distance between the quartiles as a share of the median — and the
metric's bound from ``BENCHMARK.json``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def run_once(workload: str, seed: int, seconds: int) -> dict:
    command = [sys.executable, str(HERE / "run.py"), "--workload", workload,
               "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    started = time.perf_counter()
    completed = subprocess.run(command, cwd=str(ROOT), capture_output=True,
                               text=True, timeout=600)
    wall = time.perf_counter() - started
    if completed.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed} exited "
                           f"{completed.returncode}:\n{completed.stderr[-2000:]}")
    result = json.loads(completed.stdout.strip().splitlines()[-1])
    result["wall_s"] = wall
    return result


def summarize(runs: Dict[str, List[dict]], bounds: Dict[str, float]) -> str:
    lines = []
    for workload, results in runs.items():
        walls = [r["wall_s"] for r in results]
        shares = {r["failed"] / r["attempted"] for r in results}
        lines.append(f"{workload}: {len(results)} runs, all correct: "
                     f"{all(r['correct'] for r in results)}, failed shares: "
                     f"{sorted(shares)}, wall per run: median "
                     f"{statistics.median(walls):.1f} s, max {max(walls):.1f} s")
        lines.append(f"  {'metric':28s} {'median':>12s} {'q1':>12s} "
                     f"{'q3':>12s} {'spread':>7s} {'bound':>6s}")
        for name in sorted(results[0]["metrics"]):
            values = [r["metrics"][name]["value"] for r in results]
            med = statistics.median(values)
            if len(values) >= 2:
                q1, _, q3 = statistics.quantiles(values, n=4)
            else:
                q1 = q3 = med
            spread = (q3 - q1) / med if med else 0.0
            bound = bounds.get(name)
            flag = ""
            if bound is not None and spread > bound / 3:
                flag = "  <-- above a third of the bound"
            lines.append(f"  {name:28s} {med:12.5g} {q1:12.5g} {q3:12.5g} "
                         f"{spread:7.3f} "
                         f"{'' if bound is None else format(bound, '6.2f')}"
                         f"{flag}")
    return "\n".join(lines)


def main(argv=None) -> int:
    spec_path = ROOT / "BENCHMARK.json"
    spec = json.loads(spec_path.read_text()) if spec_path.is_file() else {}
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--workloads", nargs="*",
                        default=[w["name"] for w in spec.get("workloads", [])]
                        or ["transfer", "serve-zipf"])
    parser.add_argument("--seconds", type=int,
                        default=spec.get("run_seconds", 30))
    parser.add_argument("--seed-base", type=int, default=1)
    parser.add_argument("--json", help="also write every run's result here")
    args = parser.parse_args(argv)

    bounds = {m["name"]: m["bound"] for m in spec.get("end_to_end", [])}
    runs: Dict[str, List[dict]] = {w: [] for w in args.workloads}
    for index in range(args.runs):
        order = args.workloads if index % 2 == 0 else args.workloads[::-1]
        for workload in order:
            seed = args.seed_base + index
            result = run_once(workload, seed, args.seconds)
            result["seed"] = seed
            runs[workload].append(result)
            print(f"run {index + 1}/{args.runs} {workload} seed {seed}: "
                  f"{result['wall_s']:.1f} s, correct {result['correct']}",
                  file=sys.stderr, flush=True)
    print(summarize(runs, bounds))
    if args.json:
        Path(args.json).write_text(json.dumps(runs, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
