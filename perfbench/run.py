"""The repository's benchmark: one command, three workloads.

    python3 perfbench/run.py --workload transfer --seed 1 --seconds 25 --trace 0

Workloads (see ``perfbench/README.md``):

* ``transfer``   — B and NPBench variants served from a database tuned on
  the A variants (normalization, embedding and lookup; no search), after
  a set-up that tunes the A variants by evolutionary search;
* ``serve-zipf`` — ``python -m repro.serving serve --workers 2`` under a
  closed-loop Zipf stream on two keep-alive HTTP/1.1 connections.

``--trace 0`` prints the end-to-end metrics, ``--trace 1`` runs the same
workload with per-layer timers and prints the per-layer metrics.  The last
line of standard output is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics``.  Exit status 0 means the run completed; output
mismatches are reported through ``correct``.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
#: Every run uses the same string hashing, so set and dict orders repeat.
HASH_SEED = "0"


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("transfer", "serve-zipf"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True,
                        help="minimum length of the timed phase")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = _parse(argv if argv is not None else sys.argv[1:])
    if os.environ.get("PYTHONHASHSEED") != HASH_SEED:
        # Re-run in a fresh interpreter with fixed string hashing.
        env = dict(os.environ, PYTHONHASHSEED=HASH_SEED)
        os.execve(sys.executable,
                  [sys.executable, str(Path(__file__).resolve())]
                  + (argv if argv is not None else sys.argv[1:]), env)

    source = HERE.parent / "src"
    if not (source / "repro" / "__init__.py").is_file():
        print(f"run.py: no repro package under {source}; run from a "
              "checkout of the repository", file=sys.stderr)
        return 2
    sys.path.insert(0, str(source))
    sys.path.insert(0, str(HERE))

    started = time.perf_counter()
    if args.workload == "serve-zipf":
        from serving_load import serve_zipf as workload
    else:
        from inprocess import transfer as workload
    result = workload(args.seed, args.seconds, bool(args.trace))

    if args.trace:
        from layers import per_layer_metrics

        wanted = dict(per_layer_metrics())
        for name in sorted(set(result.metrics) - set(wanted)):
            print(f"unlisted per-layer metric {name} left out", file=sys.stderr)
        result.metrics = {name: result.metrics.get(name, (0.0, unit))
                          for name, unit in wanted.items()}
    for problem in result.mismatches:
        print(f"MISMATCH {problem}", file=sys.stderr)
    print(f"{args.workload}: {result.attempted} operations, "
          f"{result.failed} failed, {len(result.mismatches)} mismatches, "
          f"run took {time.perf_counter() - started:.1f} s", file=sys.stderr)
    print(json.dumps({
        "correct": result.correct,
        "attempted": result.attempted,
        "failed": result.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in sorted(result.metrics.items())},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
