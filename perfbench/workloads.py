"""The benchmark's workloads: problem settings, set-up and the timed driver call.

Every workload goes through the public drivers of ``miscpde.cli``:
``fit_driver`` builds the a-priori error model (the set-up), then
``study_driver`` or ``compare_driver`` runs the timed study.  Each
driver call is single-threaded (``THREADS``).
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from miscpde.cli import compare_driver, fit_driver, mimc_plan, study_driver
from miscpde.misc_core import mimc_estimate
from miscpde.pde_solver import QoISpec, default_qoi_spec
from miscpde.random_field import FieldSpec

# MIMC estimates that the gate recomputes by a direct ``mimc_estimate``
# call: the smallest budgets, which cost well under a second together.
MIMC_RECHECKED = 3

# Evaluator threads passed to every driver call.
THREADS = 1


@dataclass(frozen=True)
class Workload:
    name: str
    d: int
    nu: float
    max_modes: int
    x0: tuple[float, ...] | None     # observation window centre; None means the default
    pilot_modes: int
    pilot_depth: int
    budget_base: float               # budgets are budget_base * 4**t, t < n_budgets
    n_budgets: int
    mimc_vars: int = 0               # > 0 adds the MIMC baseline (compare_driver)

    @property
    def budgets(self) -> list[float]:
        return [self.budget_base * 4**t for t in range(self.n_budgets)]

    def field_spec(self) -> FieldSpec:
        return FieldSpec(d=self.d, nu=self.nu, max_modes=self.max_modes)

    def qoi_spec(self) -> QoISpec:
        return default_qoi_spec(self.d) if self.x0 is None else QoISpec(0.2, self.x0)


WORKLOADS = {
    w.name: w
    for w in (
        # Budget counts keep each driver call at 2-3 s, so that a 30 s run
        # takes the median of about eight repetitions; single repetitions
        # vary by up to 15 % on a shared host.
        # Criterion 7 cut to five budgets (it has eight).
        Workload("study-1d", d=1, nu=2.5, max_modes=24, x0=None,
                 pilot_modes=16, pilot_depth=3, budget_base=80, n_budgets=5),
        # The paper's 3-D example; almost every solve takes the Jacobi-CG path.
        Workload("study-3d", d=3, nu=4.5, max_modes=10, x0=(0.3, 0.2, 0.6),
                 pilot_modes=6, pilot_depth=2, budget_base=2000, n_budgets=4),
        # Criterion 10 cut to four budgets (it has five): the collocation
        # study plus the MIMC baseline.
        Workload("compare-1d", d=1, nu=2.5, max_modes=24, x0=None,
                 pilot_modes=16, pilot_depth=3, budget_base=320, n_budgets=4,
                 mimc_vars=12),
    )
}

def get(name: str, size: str = "full") -> Workload:
    """The named workload; ``tiny`` keeps its settings but only two budgets."""
    workload = WORKLOADS[name]
    if size == "tiny":
        return replace(workload, n_budgets=2)
    if size != "full":
        raise ValueError(f"unknown size {size!r}")
    return workload


def setup(w: Workload):
    """Fit the a-priori error model from the workload's pilot sweep."""
    return fit_driver(w.field_spec(), w.qoi_spec(), w.pilot_modes, w.pilot_depth)


def run(w: Workload, model, seed: int) -> dict:
    """The timed driver call; returns its outputs as plain JSON values."""
    field_spec, qoi_spec = w.field_spec(), w.qoi_spec()
    if w.mimc_vars:
        result = compare_driver(field_spec, qoi_spec, w.budgets, model,
                                n_random_vars=w.mimc_vars, seed=seed, threads=THREADS)
        columns = list(zip(*result.rows))
        return {
            "budgets": [float(b) for b in columns[0]],
            "misc_work": [int(v) for v in columns[1]],
            "misc_err": [float(v) for v in columns[2]],
            "mimc_work": [int(v) for v in columns[3]],
            "mimc_err": [float(v) for v in columns[4]],
            "reference": float(result.reference),
        }
    result = study_driver(field_spec, qoi_spec, w.budgets, mode="apriori",
                          error_model=model, threads=THREADS)
    return {
        "budgets": [float(r.budget) for r in result.records],
        "work": [int(r.work) for r in result.records],
        "estimates": [float(r.estimate) for r in result.records],
        "set_sizes": [len(s) for s in result.sets],
        "reference": float(result.reference),
        "slope": float(result.slope),
    }


def recheck_mimc(w: Workload, model, seed: int, reference: float) -> list[float]:
    """|MIMC - reference| at the smallest budgets by direct ``mimc_estimate`` calls,
    with the plan and per-budget seeds that ``compare_driver`` uses."""
    errors = []
    for i, budget in enumerate(w.budgets[:MIMC_RECHECKED]):
        levels, counts = mimc_plan(budget, w.d, model.r_fem)
        value = mimc_estimate(levels, counts, w.field_spec(), w.qoi_spec(),
                              w.mimc_vars, seed + i).value
        errors.append(float(abs(value - reference)))
    return errors
