"""Per-layer tracing of ``miscpde`` from outside the package.

``LayerTrace`` replaces public functions with timing wrappers at the
names their callers look them up by (``pde_solver.a_on_axes`` rather
than ``random_field.a_on_axes``, because ``pde_solver`` imports it by
name) and restores the originals on exit.  Calls are aggregated into per-name totals, never
stored as spans: a study makes hundreds of thousands of calls.

A name's self time is its wrapped duration minus the durations of the
wrapped calls made inside it.  The wrappers only observe: they pass
arguments and results through unchanged.
"""

from __future__ import annotations

import functools
import time
from collections import defaultdict

from miscpde import adaptation, misc_core, pde_solver, quadrature

SOLVER_PATHS = ("tridiag", "dst", "cg")


def solver_path(alpha, y) -> str:
    """The branch ``pde_solver.solve`` takes for these arguments."""
    if len(alpha) == 1:
        return "tridiag"
    if not any(v != 0.0 for v in y.values()):
        return "dst"
    return "cg"


class LayerTrace:
    def __init__(self):
        self._patches: list[tuple[object, str, object]] = []
        self._open = [0.0]          # time spent in wrapped children of each open call
        self.reset()

    def reset(self) -> None:
        self.calls: dict[str, int] = defaultdict(int)
        self.self_s: dict[str, float] = defaultdict(float)
        self.counts: dict[str, int] = defaultdict(int)
        self.cg_iterations_max = 0
        self.evaluators: list[misc_core.MiscEvaluator] = []

    # -- installation -------------------------------------------------------

    def __enter__(self) -> "LayerTrace":
        self._span(pde_solver, "solve_qoi", None, after=self._count_solve)
        self._span(pde_solver, "a_on_axes", "random_field.a_on_axes")
        self._span(quadrature.SparseLevelVector, "__init__", "quadrature.SparseLevelVector")
        self._span(misc_core.MiscEvaluator, "evaluate", "misc_core.evaluate")
        self._span(misc_core.MiscEvaluator, "tensor_value", "misc_core.tensor_value")
        self._span(misc_core, "combination_coefficients", "misc_core.combination_coefficients")
        self._span(adaptation, "build_set_apriori", "adaptation.build_set_apriori",
                   after=self._count_members)
        self._span(adaptation, "pilot_samples", "adaptation.pilot_samples")
        self._span(adaptation, "fit_rates", "adaptation.fit_rates")
        self._patch(pde_solver.spla, "cg", self._counting_cg)
        self._patch(misc_core.MiscEvaluator, "__init__", self._capturing_init)
        return self

    def __exit__(self, *exc) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def _patch(self, owner, attr: str, make_wrapper) -> None:
        # Read class attributes from __dict__ so that restoring puts back
        # exactly what was there.
        original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        self._patches.append((owner, attr, original))
        setattr(owner, attr, functools.wraps(original)(make_wrapper(original)))

    def _span(self, owner, attr: str, name: str | None, after=None) -> None:
        """Time every call; ``name=None`` names the call by its solver path."""
        open_calls = self._open
        clock = time.perf_counter

        def make(fn):
            def wrapper(*args, **kwargs):
                open_calls.append(0.0)
                start = clock()
                try:
                    result = fn(*args, **kwargs)
                finally:
                    elapsed = clock() - start
                    inner = open_calls.pop()
                    open_calls[-1] += elapsed
                    key = name or "pde_solver." + solver_path(args[0], args[1])
                    self.calls[key] += 1
                    self.self_s[key] += elapsed - inner
                if after is not None:
                    after(args, result)
                return result
            return wrapper

        self._patch(owner, attr, make)

    # -- counters -----------------------------------------------------------

    def _count_solve(self, args, result) -> None:
        self.counts["pde_solver.solved_dof"] += pde_solver.unknowns(args[0])

    def _count_members(self, args, result) -> None:
        self.counts["adaptation.members_built"] += len(result.index_set)

    def _counting_cg(self, fn):
        def cg(*args, **kwargs):
            iterations = 0
            chained = kwargs.get("callback")

            def callback(xk):
                nonlocal iterations
                iterations += 1
                if chained is not None:
                    chained(xk)

            kwargs["callback"] = callback
            try:
                return fn(*args, **kwargs)
            finally:
                self.counts["pde_solver.cg.iterations"] += iterations
                self.cg_iterations_max = max(self.cg_iterations_max, iterations)
        return cg

    def _capturing_init(self, fn):
        def init(evaluator, *args, **kwargs):
            fn(evaluator, *args, **kwargs)
            self.evaluators.append(evaluator)
        return init

    # -- report ---------------------------------------------------------------

    def layer_metrics(self) -> dict[str, float]:
        """Workload-phase totals under the names of BENCHMARK.json's per_layer list."""
        out: dict[str, float] = {
            "pde_solver.solve_qoi.calls": sum(self.calls["pde_solver." + p] for p in SOLVER_PATHS),
            "pde_solver.solve_qoi.self_s": sum(self.self_s["pde_solver." + p] for p in SOLVER_PATHS),
            "pde_solver.solved_dof": self.counts["pde_solver.solved_dof"],
        }
        for path in SOLVER_PATHS:
            out[f"pde_solver.{path}.calls"] = self.calls["pde_solver." + path]
        out["pde_solver.cg.iterations"] = self.counts["pde_solver.cg.iterations"]
        out["pde_solver.cg.iterations_max"] = self.cg_iterations_max
        out["random_field.a_on_axes.calls"] = self.calls["random_field.a_on_axes"]
        out["random_field.a_on_axes.self_s"] = self.self_s["random_field.a_on_axes"]
        out["quadrature.SparseLevelVector.created"] = self.calls["quadrature.SparseLevelVector"]
        out["quadrature.SparseLevelVector.self_s"] = self.self_s["quadrature.SparseLevelVector"]
        out["misc_core.evaluate.self_s"] = self.self_s["misc_core.evaluate"]
        out["misc_core.tensor_value.calls"] = self.calls["misc_core.tensor_value"]
        out["misc_core.tensor_value.self_s"] = self.self_s["misc_core.tensor_value"]
        hits = sum(e.cache.hits for e in self.evaluators)
        misses = sum(e.cache.misses for e in self.evaluators)
        out["misc_core.cache.hits"] = hits
        out["misc_core.cache.misses"] = misses
        out["misc_core.cache.hit_ratio"] = hits / (hits + misses) if hits + misses else 0.0
        for name in ("misc_core.combination_coefficients", "adaptation.build_set_apriori"):
            out[name + ".calls"] = self.calls[name]
            out[name + ".self_s"] = self.self_s[name]
        out["adaptation.members_built"] = self.counts["adaptation.members_built"]
        return out

    def setup_metrics(self) -> dict[str, float]:
        """Set-up-phase self times of the pilot sweep and the rate fit."""
        return {
            "adaptation.pilot_samples.self_s": self.self_s["adaptation.pilot_samples"],
            "adaptation.fit_rates.self_s": self.self_s["adaptation.fit_rates"],
        }
