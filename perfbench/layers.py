"""Per-layer timers for the traced run.

The timers live in the benchmark, not in the program: :class:`LayerTimers`
replaces a fixed list of public ``repro`` functions and methods with
wrappers that record one span per call.  A span's *self time* is its own
duration minus the time its child spans cover, so the self times of all
layers add up to the time spent inside any of them.

Only the calls made between :meth:`LayerTimers.start` and
:meth:`LayerTimers.stop` are recorded, so output checks run untimed.
:meth:`LayerTimers.restore` puts the original functions back.
"""

from __future__ import annotations

import json
import sys
import time
from typing import Any, Callable, Dict, List, Optional, Tuple

#: ``(layer name, owner, attribute)`` of every wrapped callable.  Owners are
#: resolved lazily (``"module:Class"`` or ``"module"``) so importing this
#: file imports nothing from the program.
WRAPPED: Tuple[Tuple[str, str, str], ...] = (
    ("scheduler.search", "repro.scheduler.evolutionary:EvolutionarySearch",
     "search"),
    ("perf.estimate", "repro.perf.model:CostModel", "estimate_seconds"),
    ("transforms.apply_recipe", "repro.transforms.recipe", "apply_recipe"),
    ("ir.copy", "repro.ir.nodes:Program", "copy"),
    ("analysis.legal_permutations", "repro.analysis.dependence",
     "legal_permutations"),
    ("normalization.normalize", "repro.normalization.pipeline", "normalize"),
    ("scheduler.embed", "repro.scheduler.embedding", "embed_nest"),
    ("scheduler.best_match", "repro.scheduler.database:TuningDatabase",
     "best_match"),
    ("api.hash", "repro.api.hashing", "program_content_hash"),
)

#: Layers whose time and call count are reported as ``<layer>_s`` /
#: ``<layer>_calls``.
TIMED_LAYERS = tuple(layer for layer, _owner, _attr in WRAPPED)

#: Module prefix searched for ``from x import f`` copies of wrapped functions.
PROGRAM_PACKAGE = "repro"


class _Span:
    __slots__ = ("layer", "start", "child")

    def __init__(self, layer: str, start: float):
        self.layer = layer
        self.start = start
        self.child = 0.0


class LayerTimers:
    """Installs the wrappers and accumulates inclusive/self time per layer."""

    def __init__(self) -> None:
        self.calls: Dict[str, int] = {layer: 0 for layer in TIMED_LAYERS}
        self.total_s: Dict[str, float] = {layer: 0.0 for layer in TIMED_LAYERS}
        self.self_s: Dict[str, float] = {layer: 0.0 for layer in TIMED_LAYERS}
        self.nests_out = 0
        self.pass_s: Dict[str, float] = {}
        #: Cost-model calls made inside a search, and the distinct
        #: (nest, recipe) pairs they scored.
        self.search_estimates = 0
        self.search_pairs: set = set()
        self._stack: List[_Span] = []
        self._search_keys: List[str] = []
        self._recording = False
        self._restore: List[Tuple[Any, str, Any]] = []

    # -- installation ------------------------------------------------------------

    @classmethod
    def installed(cls) -> "LayerTimers":
        timers = cls()
        timers.install()
        return timers

    def install(self) -> None:
        import importlib

        # Import every program module first, so that each module-level
        # ``from ... import f`` copy of a wrapped function exists and is
        # replaced below.
        for name in ("repro", "repro.api", "repro.scheduler.daisy",
                     "repro.scheduler.evolutionary", "repro.serving"):
            importlib.import_module(name)
        for layer, owner_path, attribute in WRAPPED:
            module_name, _, class_name = owner_path.partition(":")
            module = importlib.import_module(module_name)
            if class_name:
                owner = getattr(module, class_name)
                original = owner.__dict__[attribute]
                self._replace(owner, attribute, original,
                              self._wrap(layer, original))
                continue
            original = getattr(module, attribute)
            wrapper = self._wrap(layer, original)
            for loaded_name, loaded in list(sys.modules.items()):
                if loaded is None or not (
                        loaded_name == PROGRAM_PACKAGE
                        or loaded_name.startswith(PROGRAM_PACKAGE + ".")):
                    continue
                for key, value in list(vars(loaded).items()):
                    if value is original:
                        self._replace(loaded, key, original, wrapper)

    def _replace(self, owner: Any, attribute: str, original: Any,
                 replacement: Any) -> None:
        setattr(owner, attribute, replacement)
        self._restore.append((owner, attribute, original))

    def restore(self) -> None:
        for owner, attribute, original in reversed(self._restore):
            setattr(owner, attribute, original)
        self._restore.clear()

    def start(self) -> None:
        self._recording = True

    def stop(self) -> None:
        self._recording = False

    # -- spans -------------------------------------------------------------------

    def _wrap(self, layer: str, function: Callable) -> Callable:
        timers = self
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            if not timers._recording:
                return function(*args, **kwargs)
            timers._enter_hooks(layer, args)
            span = _Span(layer, clock())
            timers._stack.append(span)
            try:
                result = function(*args, **kwargs)
            finally:
                duration = clock() - span.start
                timers._stack.pop()
                timers.calls[layer] += 1
                timers.total_s[layer] += duration
                timers.self_s[layer] += duration - span.child
                if timers._stack:
                    timers._stack[-1].child += duration
                timers._exit_hooks(layer)
            timers._result_hooks(layer, args, result)
            return result

        wrapper.__name__ = getattr(function, "__name__", layer)
        wrapper.__doc__ = getattr(function, "__doc__", None)
        wrapper.__wrapped__ = function
        return wrapper

    def _enter_hooks(self, layer: str, args: tuple) -> None:
        if layer == "scheduler.search":
            # args: (search, program, nest_index, parameters, ...)
            from repro.scheduler.evolutionary import nest_salt

            nest = args[1].body[args[2]]
            key = f"{nest_salt(nest)}|{sorted(dict(args[3]).items())}"
            self._search_keys.append(key)
            # The search always scores the untouched nest last.
            self.search_pairs.add((key, "identity"))
        elif self._search_keys:
            if layer == "perf.estimate":
                self.search_estimates += 1
            elif layer == "transforms.apply_recipe":
                recipe = args[1]
                self.search_pairs.add(
                    (self._search_keys[-1],
                     json.dumps([t.to_dict() for t in recipe.transformations],
                                sort_keys=True)))

    def _exit_hooks(self, layer: str) -> None:
        if layer == "scheduler.search":
            self._search_keys.pop()

    def _result_hooks(self, layer: str, args: tuple, result: Any) -> None:
        if layer != "normalization.normalize":
            return
        from repro.ir.nodes import Loop

        program, report = result
        self.nests_out += sum(1 for node in program.body
                              if isinstance(node, Loop))
        for pass_result in report.passes:
            name = pass_result.pass_name
            self.pass_s[name] = self.pass_s.get(name, 0.0) \
                + pass_result.wall_time_s

    # -- reporting ---------------------------------------------------------------

    def unique_candidate_ratio(self) -> float:
        if not self.search_estimates:
            return 0.0
        return len(self.search_pairs) / self.search_estimates

    def metrics(self) -> Dict[str, Tuple[float, str]]:
        """Per-layer metrics of the recorded spans (self time in seconds)."""
        out: Dict[str, Tuple[float, str]] = {}
        for layer in TIMED_LAYERS:
            out[f"{layer}_s"] = (self.self_s[layer], "s")
            out[f"{layer}_calls"] = (float(self.calls[layer]), "count")
        out["scheduler.unique_candidate_ratio"] = (
            self.unique_candidate_ratio(), "ratio")
        out["normalization.nests_out"] = (float(self.nests_out), "count")
        for name, seconds in self.pass_s.items():
            out[f"normalization.pass.{name}_s"] = (seconds, "s")
        return out

    def table(self, wall_s: Optional[float] = None) -> str:
        """The per-layer table: calls, inclusive time and self time."""
        lines = [f"{'layer':32s} {'calls':>9s} {'incl_s':>9s} {'self_s':>9s}"
                 f" {'self%':>6s}"]
        for layer in sorted(TIMED_LAYERS, key=lambda l: -self.self_s[l]):
            share = (100.0 * self.self_s[layer] / wall_s) if wall_s else 0.0
            lines.append(f"{layer:32s} {self.calls[layer]:9d} "
                         f"{self.total_s[layer]:9.3f} "
                         f"{self.self_s[layer]:9.3f} {share:6.1f}")
        if wall_s:
            covered = sum(self.self_s.values())
            lines.append(f"{'(outside wrapped layers)':32s} {'':9s} {'':9s} "
                         f"{wall_s - covered:9.3f} "
                         f"{100.0 * (wall_s - covered) / wall_s:6.1f}")
        return "\n".join(lines)


#: Passes of the default ``a-priori`` normalization pipeline.
PASS_NAMES = ("loop-normal-form", "scalar-expansion", "maximal-fission",
              "stride-minimization", "canonicalize-iterators", "validate")

#: Figures the serving stack reports about itself (``serve-zipf`` only).
SERVING_METRICS = (
    ("serving.latency_p99_ms", "ms"),
    ("serving.hit_p50_ms", "ms"), ("serving.miss_p50_ms", "ms"),
    ("serving.server_p50_ms", "ms"), ("serving.transport_p50_ms", "ms"),
    ("serving.queue_wait_s", "s"), ("serving.batch_s", "s"),
    ("serving.schedule_s", "s"), ("serving.fast_lane_hits", "count"),
    ("serving.batches", "count"), ("serving.coalesced", "count"),
    ("observability.trace_overhead_pct", "%"),
    ("observability.hit_p50_traced_ms", "ms"),
    ("observability.hit_p50_untraced_ms", "ms"),
)


def per_layer_metrics() -> List[Tuple[str, str]]:
    """Every per-layer metric a traced run reports, with its unit.

    A layer that a workload does not call in the benchmark's process (the
    scheduler layers on ``serve-zipf``, whose scheduling runs in the
    server's workers; the serving layers on the in-process workloads)
    reads 0.
    """
    names: List[Tuple[str, str]] = []
    for layer in TIMED_LAYERS:
        names += [(f"{layer}_s", "s"), (f"{layer}_calls", "count")]
    names += [("scheduler.unique_candidate_ratio", "ratio"),
              ("normalization.nests_out", "count")]
    names += [(f"normalization.pass.{name}_s", "s") for name in PASS_NAMES]
    names += [(f"scheduler.nests_{outcome}", "count")
              for outcome in ("transferred", "searched", "blas")]
    names += [("api.cache_hits", "count"), ("api.cache_misses", "count")]
    return names + list(SERVING_METRICS)
