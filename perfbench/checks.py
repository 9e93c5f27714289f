"""Output checks that do not use the scheduler.

A scheduled program is run on the reference interpreter and its outputs
are compared with either

* closed-form NumPy written here, for the ten linear-algebra kernels, or
* the interpreted *source* program (before normalization and scheduling),
  for stencils, statistics, FEM assembly and fuzz programs.

Registry programs run at their ``mini`` sizes; fuzz programs at the sizes
the generator chose.  Inputs are drawn from a seeded generator.
"""

from __future__ import annotations

from typing import Callable, Dict, Mapping, Optional

import numpy as np

from repro.interp.executor import run_program
from repro.ir.arrays import DTYPES
from repro.ir.nodes import Program
from repro.workloads.registry import benchmark, fuzz_program

Arrays = Dict[str, np.ndarray]


def _lower(matrix: np.ndarray) -> np.ndarray:
    return np.tril(np.ones_like(matrix, dtype=bool))


def _gemm(x: Arrays) -> Arrays:
    return {"C": x["beta"] * x["C"] + x["alpha"] * x["A"] @ x["B"]}


def _2mm(x: Arrays) -> Arrays:
    return {"D": x["beta"] * x["D"] + (x["alpha"] * x["A"] @ x["B"]) @ x["C"]}


def _3mm(x: Arrays) -> Arrays:
    return {"G": (x["A"] @ x["B"]) @ (x["C"] @ x["D"])}


def _syrk(x: Arrays) -> Arrays:
    full = x["beta"] * x["C"] + x["alpha"] * x["A"] @ x["A"].T
    return {"C": np.where(_lower(x["C"]), full, x["C"])}


def _syr2k(x: Arrays) -> Arrays:
    full = (x["beta"] * x["C"]
            + x["alpha"] * (x["A"] @ x["B"].T + x["B"] @ x["A"].T))
    return {"C": np.where(_lower(x["C"]), full, x["C"])}


def _atax(x: Arrays) -> Arrays:
    return {"y": x["A"].T @ (x["A"] @ x["x"])}


def _bicg(x: Arrays) -> Arrays:
    return {"s": x["A"].T @ x["r"], "q": x["A"] @ x["p"]}


def _mvt(x: Arrays) -> Arrays:
    return {"x1": x["x1"] + x["A"] @ x["y1"],
            "x2": x["x2"] + x["A"].T @ x["y2"]}


def _gemver(x: Arrays) -> Arrays:
    a = x["A"] + np.outer(x["u1"], x["v1"]) + np.outer(x["u2"], x["v2"])
    xx = x["x"] + x["beta"] * a.T @ x["y"] + x["z"]
    return {"A": a, "x": xx, "w": x["w"] + x["alpha"] * a @ xx}


def _gesummv(x: Arrays) -> Arrays:
    return {"y": x["alpha"] * x["A"] @ x["x"] + x["beta"] * x["B"] @ x["x"]}


#: Closed-form NumPy of the linear-algebra kernels (all variants agree).
CLOSED_FORM: Dict[str, Callable[[Arrays], Arrays]] = {
    "gemm": _gemm, "2mm": _2mm, "3mm": _3mm, "syrk": _syrk, "syr2k": _syr2k,
    "atax": _atax, "bicg": _bicg, "mvt": _mvt, "gemver": _gemver,
    "gesummv": _gesummv,
}

RTOL = 1e-9
ATOL = 1e-9


def _inputs(source: Program, parameters: Mapping[str, int],
            scalars: Mapping[str, float], seed: int) -> Arrays:
    rng = np.random.default_rng(seed)
    inputs: Arrays = {}
    for name in sorted(source.arrays):
        array = source.arrays[name]
        if array.transient:
            continue
        dtype = DTYPES[array.dtype]
        if array.rank == 0 and name in scalars:
            inputs[name] = np.array(scalars[name], dtype=dtype)
        else:
            shape = array.concrete_shape(parameters)
            inputs[name] = rng.uniform(0.0, 1.0, size=shape).astype(dtype)
    return inputs


class OutputChecker:
    """Checks scheduled programs of registry and fuzz workloads by name."""

    def __init__(self, seed: int):
        self.seed = seed
        self.checked = 0

    def reference(self, name: str):
        """``(source program, parameters, scalars, closed form or None)``."""
        if name.startswith("fuzz:"):
            program, parameters = fuzz_program(name[len("fuzz:"):])
            return program, parameters, {}, None
        bench, _, variant = name.partition(":")
        spec = benchmark(bench)
        return (spec.variant(variant or "a"), spec.sizes("mini"),
                dict(spec.scalars), CLOSED_FORM.get(bench))

    def check(self, name: str, scheduled: Program) -> Optional[str]:
        """``None`` when ``scheduled`` computes what ``name`` computes,
        otherwise a one-line description of the difference."""
        source, parameters, scalars, closed_form = self.reference(name)
        inputs = _inputs(source, parameters, scalars, self.seed)
        self.checked += 1
        try:
            actual = run_program(scheduled, parameters, inputs, self.seed)
        except Exception as error:  # noqa: BLE001 - reported as a mismatch
            return f"{name}: scheduled program failed to run: " \
                   f"{type(error).__name__}: {error}"
        if closed_form is not None:
            expected = closed_form({k: v.copy() for k, v in inputs.items()})
        else:
            expected = run_program(source, parameters, inputs, self.seed)
            expected = {k: v for k, v in expected.items()
                        if not source.arrays[k].transient}
        for array, want in expected.items():
            if array not in actual:
                return f"{name}: scheduled program lost output {array!r}"
            got = actual[array]
            if got.shape != want.shape or not np.allclose(
                    got, want, rtol=RTOL, atol=ATOL, equal_nan=True):
                return f"{name}: output {array!r} differs from the reference"
        return None
