"""Command-line drivers: convergence studies, rate fits, predictions, comparisons.

Configuration is a flat key/value text format with dotted section
prefixes (``problem.nu = 2.5``); every experiment emits schema-stable
CSV or JSON files that the tool itself can re-read.  Plots are not
rendered here: the CSV output is the plotting interface.
"""

from __future__ import annotations

import itertools
import json
import math
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import TYPE_CHECKING, Sequence

import numpy as np

from . import adaptation, misc_core, pde_solver, quadrature, theory
from .adaptation import ErrorModel
from .misc_core import IndexSet, MiscEvaluator, mimc_estimate
from .pde_solver import QoISpec, default_qoi_spec
from .random_field import FREQUENCY_CAP, FieldSpec, mode_ordering

if TYPE_CHECKING:
    import argparse

# argparse, csv and hashlib load inside their one user each, so a process
# that only calls the drivers does not hold them.

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NUMERICAL = 3

RUN_COLUMNS = ("budget", "work", "estimate", "abs_error",
               "max_alpha", "max_beta", "last_var", "joint_vars")
COMPARE_COLUMNS = ("budget", "misc_work", "misc_error", "mimc_work", "mimc_error")
# Smoothness orders 0..R_DET_TABLE_MAX_S in prediction.json's r_det table.
R_DET_TABLE_MAX_S = 6
# Deepest isotropic level of the Monte Carlo baseline's hierarchy.
MIMC_MAX_LEVEL = 12
# Deepest level of the lebesgue curve: the weights of level beta cost
# O(4^beta), about 0.5 s at 14 and 3 s at 15.
LEBESGUE_MAX_BETA = 14
# Most unknowns of one solve --alpha grid, far above the 24,863 of the
# largest grid a shipped study solves (alpha = (4, 3, 3)).
SOLVE_MAX_UNKNOWNS = 2**20
# Most problem.max_modes: the modes that |k| <= FREQUENCY_CAP holds in 1-D.  A
# count past what the box holds walks up to 4097^d frequency vectors to fail.
MAX_MODES = 2 * FREQUENCY_CAP + 1


class ConfigError(ValueError):
    pass


class NumericalError(RuntimeError):
    pass


# ----------------------------------------------------------------------
# configuration


def parse_config_text(text: str) -> dict[str, str]:
    entries: dict[str, str] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected 'key = value', got {raw!r}")
        key, value = (part.strip() for part in line.split("=", 1))
        if key in entries:
            raise ConfigError(f"line {lineno}: config key {key!r} is set twice")
        entries[key] = value
    return entries


def _ranged(convert, expected: str, ok):
    """A parser: ``convert`` the text, then refuse a value that is not ``ok``."""
    def parse(raw: str):
        value = convert(raw)
        if not ok(value):
            raise ValueError(f"expected {expected}, got {value}")
        return value
    return parse


def _floats(raw: str) -> tuple[float, ...]:
    return tuple(float(v) for v in raw.split(","))


def _mode(raw: str) -> str:
    if raw not in ("apriori", "deterministic", "adaptive"):
        raise ValueError(f"unknown adaptivity mode {raw!r}")
    return raw


def _budgets(raw: str) -> int | tuple[float, ...]:
    """An explicit budget list, or the step count of ``auto`` / ``auto:<steps>``."""
    if raw != "auto" and not raw.startswith("auto:"):
        return check_budgets(_floats(raw))
    steps = int(raw[len("auto:"):]) if raw != "auto" else 6
    if steps < 1:
        raise ValueError(f"need at least one step, got {raw!r}")
    return steps


def _reference(raw: str) -> str | float | Path:
    if raw == "auto":
        return raw
    try:
        return float(raw)
    except ValueError:
        return Path(raw)


def _at_least(low: int):
    return _ranged(int, f"an integer >= {low}", lambda v: v >= low)


def _finite_above(low: float):
    return _ranged(float, f"a finite number > {low}", lambda v: low < v < math.inf)


def _up_to_8_modes(values: dict):
    return min(8, values["problem.max_modes"])


# The README's config block: each key's parser and its default, which is
# a value, a function of the keys above it, or ... for a required key.  A
# parser raises ValueError on a bad value.
CONFIG_KEYS = {
    "problem.d": (_at_least(1), ...),
    "problem.nu": (_finite_above(0), ...),
    "problem.max_modes": (_ranged(int, f"an integer in 1..{MAX_MODES} (the frequency cap in 1-D)",
                                  lambda v: 1 <= v <= MAX_MODES), 32),
    "problem.sigma": (_finite_above(0), 0.2),
    "problem.x0": (_floats, None),  # checked where the window is built
    "solver.gamma": (_ranged(float, "a finite number >= 1", lambda v: 1 <= v < math.inf), 1.0),
    "adaptivity.mode": (_mode, "apriori"),
    "adaptivity.model_file": (Path, None),
    "adaptivity.budgets": (_budgets, 6),  # auto: six steps
    "adaptivity.pilot_depth": (_at_least(2), 3),
    "adaptivity.pilot_modes": (_at_least(1), _up_to_8_modes),
    "adaptivity.r_fem": (_finite_above(0),
                         lambda values: default_r_fem(values["problem.nu"], values["problem.d"])),
    "output.reference": (_reference, "auto"),
    "output.reference_factor": (_finite_above(1), 4.0),
    "mimc.random_vars": (_at_least(0), _up_to_8_modes),
}


def read_config(path: str | Path) -> dict:
    """Every key of ``CONFIG_KEYS``, parsed, range-checked or defaulted.

    Refuses an unknown, repeated, missing required or bad key, and pilot
    or Monte Carlo variables beyond ``problem.max_modes``.  The budgets
    come as a tuple, and relative file names are taken from the config
    file's directory.  Whether a named file exists is left to its reader.
    """
    path = Path(path)
    if not path.is_file():
        raise ConfigError(f"config file not found: {path}")
    entries = parse_config_text(path.read_text())
    for key in entries:
        if key not in CONFIG_KEYS:
            raise ConfigError(f"{path}: unknown config key {key!r}")
    values: dict = {}
    for key, (parse, default) in CONFIG_KEYS.items():
        if key in entries:
            try:
                values[key] = parse(entries[key])
            except ValueError as exc:
                raise ConfigError(f"config key {key!r}: {exc}") from exc
        elif default is ...:
            raise ConfigError(f"missing required config key {key!r}")
        else:
            values[key] = default(values) if callable(default) else default
    for key in ("adaptivity.pilot_modes", "mimc.random_vars"):
        if values[key] > values["problem.max_modes"]:
            raise ConfigError(f"config key {key!r}: expected at most problem.max_modes = "
                              f"{values['problem.max_modes']}, got {values[key]}")
    if isinstance(values["adaptivity.budgets"], int):
        base = pde_solver.unknowns((1,) * values["problem.d"])
        values["adaptivity.budgets"] = tuple(
            float(base * 4**t) for t in range(1, values["adaptivity.budgets"] + 1))
    for key in ("adaptivity.model_file", "output.reference"):
        if isinstance(values[key], Path):
            values[key] = path.parent / values[key]
    return values


def problem_from_config(cfg: dict) -> tuple[FieldSpec, QoISpec]:
    """The field and the observation window of a ``read_config`` result."""
    d, x0 = cfg["problem.d"], cfg["problem.x0"]
    try:
        field_spec = FieldSpec(d=d, nu=cfg["problem.nu"], max_modes=cfg["problem.max_modes"])
        mode_ordering(field_spec)  # too many modes, or amplitudes that underflow, fail here
        qoi_spec = QoISpec(cfg["problem.sigma"], x0 if x0 is not None else default_qoi_spec(d).x0)
    except ValueError as exc:
        raise ConfigError(f"problem settings: {exc}") from exc
    if qoi_spec.d != d:
        raise ConfigError(f"problem.x0 has {qoi_spec.d} components, problem.d = {d}")
    return field_spec, qoi_spec


def check_budgets(budgets: Sequence[float]) -> tuple[float, ...]:
    """The budgets as a tuple; they must be finite, positive and strictly increasing."""
    budgets = tuple(budgets)
    if not budgets:
        raise ConfigError("need at least one budget")
    if not all(math.isfinite(b) and b > 0 for b in budgets):
        raise ConfigError(f"budgets must be finite and positive, got {budgets}")
    if any(b2 <= b1 for b1, b2 in zip(budgets, budgets[1:])):
        raise ConfigError(f"budgets must be strictly increasing, got {budgets}")
    return budgets


# ----------------------------------------------------------------------
# small csv/json helpers


def _cell(value) -> str:
    # repr of a numpy scalar carries its type name (np.float64(0.5)), which
    # read_csv's callers cannot parse; floats go out as the shortest
    # round-tripping decimal.
    if isinstance(value, (float, np.floating)):
        return repr(float(value))
    if isinstance(value, np.integer):
        return str(int(value))
    return str(value)


def write_csv(path: Path, columns: Sequence[str], rows: Sequence[Sequence], footer: dict | None = None) -> None:
    import csv

    path.parent.mkdir(parents=True, exist_ok=True)
    with path.open("w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(columns)
        for row in rows:
            writer.writerow([_cell(v) for v in row])
        if footer:
            for key, value in footer.items():
                handle.write(f"# {key} = {_cell(value)}\n")


def read_csv(path: Path) -> tuple[list[str], list[list[str]], dict[str, str]]:
    """Re-parse a CSV written by this tool: header, rows, footer comments."""
    header: list[str] = []
    rows: list[list[str]] = []
    footer: dict[str, str] = {}
    with Path(path).open() as handle:
        for line in handle:
            line = line.rstrip("\n")
            if not line:
                continue
            if line.startswith("#"):
                key, _, value = line[1:].partition("=")
                footer[key.strip()] = value.strip()
            elif not header:
                header = line.split(",")
            else:
                rows.append(line.split(","))
    return header, rows, footer


# ----------------------------------------------------------------------
# drivers


def lebesgue_rows(max_beta: int) -> list[tuple[int, float]]:
    return [(beta, quadrature.leb_delta(beta)) for beta in range(1, max_beta + 1)]


def predict_report(nu: float, d: int, gamma: float) -> dict:
    rates, details = {}, {}
    for variant in theory.VARIANTS:
        try:
            prediction = theory.example_prediction(nu, d, gamma, variant)
        except theory.RateError:
            rates[variant] = details[variant] = None
            continue
        rates[variant] = prediction.r_misc
        details[variant] = json.loads(prediction.to_json())
    table = {s: theory.r_det(s, (gamma,) * d, (1,) * d) for s in range(R_DET_TABLE_MAX_S + 1)}
    return {
        "nu": nu,
        "d": d,
        "gamma": gamma,
        "rates": rates,
        "predictions": details,
        "r_det_by_s": table,
    }


def default_r_fem(nu: float, d: int) -> float:
    # Doubled spatial order for a smooth functional of the solution.
    return 2.0 * min(1.0, nu / d)


def fit_driver(
    field_spec: FieldSpec,
    qoi_spec: QoISpec,
    n_modes: int,
    depth: int,
    r_fem: float | None = None,
) -> ErrorModel:
    r_fem = r_fem if r_fem is not None else default_r_fem(field_spec.nu, field_spec.d)
    evaluator = MiscEvaluator(field_spec, qoi_spec)
    samples = adaptation.pilot_samples(field_spec, qoi_spec, n_modes, depth, evaluator)
    return adaptation.fit_rates(samples, r_fem)


@dataclass
class RunRecord:
    budget: float
    work: int
    estimate: float
    abs_error: float
    max_alpha: int
    max_beta: int
    last_var: int
    joint_vars: int

    def row(self):
        return (self.budget, self.work, self.estimate, self.abs_error,
                self.max_alpha, self.max_beta, self.last_var, self.joint_vars)


@dataclass
class StudyResult:
    records: list[RunRecord]
    slope: float
    reference: float
    sets: list[IndexSet]
    evaluator: MiscEvaluator


def _study_model(mode: str, field_spec: FieldSpec, error_model: ErrorModel | None,
                 r_fem: float | None = None) -> ErrorModel | None:
    """The error model a study of ``mode`` builds its sets from.

    A-priori mode needs the fitted ``error_model``.  Deterministic mode
    uses the spatial rate alone: ``r_fem`` if given, else that of
    ``error_model``, else the default.  Adaptive mode needs none.
    """
    if mode == "apriori":
        if error_model is None:
            raise ConfigError("a-priori mode needs a fitted error model")
        return error_model
    if mode == "deterministic":
        if r_fem is None:
            r_fem = error_model.r_fem if error_model else default_r_fem(field_spec.nu, field_spec.d)
        return ErrorModel(r_fem=r_fem, g_tilde=())
    if mode == "adaptive":
        return None
    raise ConfigError(f"unknown adaptivity mode {mode!r}")


def _require_finite(value: float, what: str) -> None:
    if not math.isfinite(value):
        raise NumericalError(f"{what} is not finite: {value!r}")


def fitted_slope(works: Sequence[float], errors: Sequence[float]) -> float:
    """Least-squares slope of log error over log work, one point per distinct
    work (the last with a positive error); NaN with fewer than two works."""
    pairs = {w: e for w, e in zip(works, errors) if e > 0}
    if len(pairs) < 2:
        return math.nan
    return float(np.polyfit(np.log10(list(pairs)), np.log10(list(pairs.values())), 1)[0])


def study_driver(
    field_spec: FieldSpec,
    qoi_spec: QoISpec,
    budgets: Sequence[float],
    mode: str = "apriori",
    error_model: ErrorModel | None = None,
    gamma: float = 1.0,
    reference: float | None = None,
    reference_factor: float = 4.0,
    threads: int = 1,  # kept only because perfbench/workloads.py passes threads=1
) -> StudyResult:
    """One convergence study: build, evaluate, and diff against a reference.

    Budgets must be finite, positive and strictly increasing.  Without an
    explicit reference value, a set at ``reference_factor`` times the
    largest budget provides it.  In the a-priori modes one listing of
    the candidates by profit, down to the largest budget needed, yields
    every set (``adaptation.sweep_apriori``); adaptive mode builds each
    set on its own, measuring on the study's evaluator, so the evaluator's
    ``solved_dof`` counts the margin's solves too.  One evaluator
    evaluates them largest first (the reference set, then the budgets in
    descending order), so the largest set solves nearly every point in a
    few large batches and the others reuse them.  No value depends on
    this order; the records come in budget order.
    """
    if threads != 1:
        raise ValueError(f"the evaluator is single-threaded; threads must be 1, got {threads}")
    budgets = check_budgets(budgets)
    error_model = _study_model(mode, field_spec, error_model)
    evaluator = MiscEvaluator(field_spec, qoi_spec)

    reference_budget = reference_factor * budgets[-1]
    needed = sorted(set(budgets) | ({reference_budget} if reference is None else set()))
    if mode == "adaptive":
        built = {budget: adaptation.build_set_adaptive(field_spec, qoi_spec, budget, evaluator)
                 for budget in needed}
    else:
        built = dict(zip(needed, adaptation.sweep_apriori(error_model, needed, field_spec.d, gamma)))

    if reference is None:
        reference = evaluator.evaluate(built[reference_budget], mode="combination").value
        _require_finite(reference, "reference estimate")
    evaluated = {}
    for budget in reversed(budgets):
        evaluated[budget] = evaluator.evaluate(built[budget], mode="combination")
        _require_finite(evaluated[budget].value, f"estimate at budget {budget}")

    records, sets = [], [built[budget] for budget in budgets]
    for budget, index_set in zip(budgets, sets):
        result = evaluated[budget]
        records.append(RunRecord(
            budget=budget,
            work=result.work,
            estimate=result.value,
            abs_error=abs(result.value - reference),
            max_alpha=index_set.max_alpha_level(),
            max_beta=index_set.max_beta_level(),
            last_var=index_set.last_variable(),
            joint_vars=index_set.max_joint_variables(),
        ))
    slope = fitted_slope([r.work for r in records], [r.abs_error for r in records])
    return StudyResult(records, slope, reference, sets, evaluator)


@dataclass
class CompareResult:
    rows: list[tuple]
    reference: float


def mimc_plan(budget: float, d: int, r_fem: float,
              gamma: float = 1.0) -> tuple[list[tuple[int, ...]], list[int]]:
    """Fixed level set and sample allocation for the Monte Carlo baseline.

    The total-degree levels |alpha - 1| <= L - 1 (Haji-Ali, Nobile &
    Tempone, Numer. Math. 2016), by degree and then alpha.  The set is
    downward closed, so the sum of its mixed differences is the
    combination-technique value over it, which converges to the exact
    value as L grows; in 1-D it telescopes to level L.  Samples follow
    the usual variance/cost balance M_alpha ~ 2^(-r_fem |alpha - 1|) /
    sqrt(c_alpha).  L is the deepest degree whose per-sample costs all
    stay within a quarter of the budget.  A sample costs
    sum(unknowns ** gamma) over the level's corners, with the cost
    exponent gamma of ``adaptation.work_contribution``.
    """
    levels: list[tuple[int, ...]] = []
    costs: list[float] = []
    degrees: list[int] = []       # |alpha - 1| of each level
    for degree in range(MIMC_MAX_LEVEL):
        layer = [alpha for alpha in itertools.product(range(1, degree + 2), repeat=d)
                 if sum(alpha) == degree + d]
        layer_costs = [sum(pde_solver.unknowns(a) ** gamma for _, a in misc_core.corners(alpha))
                       for alpha in layer]
        if max(layer_costs) > budget / 4.0 and levels:
            break
        levels += layer
        costs += layer_costs
        degrees += [degree] * len(layer)
    while degrees[-1] > 0:
        weights = [2.0 ** (-r_fem * ell) / math.sqrt(c) for ell, c in zip(degrees, costs)]
        norm = sum(w * c for w, c in zip(weights, costs))
        counts = [int(budget * w / norm) for w in weights]
        deepest = degrees.index(degrees[-1])
        if min(counts[deepest:]) >= 1:
            break
        # A level of the deepest degree would get no whole sample: cut the
        # degree rather than force samples beyond the budget.
        del levels[deepest:], costs[deepest:], degrees[deepest:]
    counts = [max(1, c) for c in counts] if degrees[-1] > 0 else [max(1, int(budget / costs[0]))]
    return levels, counts


def compare_driver(
    field_spec: FieldSpec,
    qoi_spec: QoISpec,
    budgets: Sequence[float],
    error_model: ErrorModel,
    n_random_vars: int,
    seed: int,
    gamma: float = 1.0,
    threads: int = 1,  # kept only because perfbench/workloads.py passes threads=1
) -> CompareResult:
    """Paired convergence curves: collocation estimator vs the Monte Carlo baseline."""
    study = study_driver(field_spec, qoi_spec, budgets, mode="apriori", error_model=error_model,
                         gamma=gamma, threads=threads)
    return _with_mimc(study, field_spec, qoi_spec, error_model.r_fem, n_random_vars, seed, gamma)


def _with_mimc(study: StudyResult, field_spec: FieldSpec, qoi_spec: QoISpec, r_fem: float,
              n_random_vars: int, seed: int, gamma: float) -> CompareResult:
    """The study's errors beside those of a Monte Carlo estimate at each of
    its budgets, planned by ``mimc_plan``, with seed + i at the i-th budget."""
    rows = []
    for i, record in enumerate(study.records):
        levels, counts = mimc_plan(record.budget, field_spec.d, r_fem, gamma)
        mimc = mimc_estimate(levels, counts, field_spec, qoi_spec, n_random_vars, seed + i)
        _require_finite(mimc.value, f"Monte Carlo estimate at budget {record.budget}")
        rows.append((
            record.budget,
            record.work,
            record.abs_error,
            mimc.work,
            abs(mimc.value - study.reference),
        ))
    return CompareResult(rows, study.reference)


# ----------------------------------------------------------------------
# reference bookkeeping


def reference_fingerprint(field_spec: FieldSpec, qoi_spec: QoISpec, gamma: float,
                          mode: str, budget: float, model: ErrorModel | None) -> str:
    import hashlib

    payload = {
        "d": field_spec.d, "nu": field_spec.nu, "max_modes": field_spec.max_modes,
        "sigma": qoi_spec.sigma, "x0": list(qoi_spec.x0), "gamma": gamma,
        "mode": mode, "budget": budget,
        "model": model.to_json() if model else None,
    }
    return hashlib.sha256(json.dumps(payload, sort_keys=True).encode()).hexdigest()


def read_reference(path: Path) -> tuple[str | None, float]:
    """The (fingerprint, value) pair stored in a reference file."""
    try:
        data = json.loads(path.read_text())
        return data.get("fingerprint"), float(data["value"])
    except (OSError, ValueError, TypeError, KeyError, AttributeError) as exc:
        raise ConfigError(f"unreadable reference file {path}: {exc!r}") from exc


def load_reference(path: Path, fingerprint: str) -> float | None:
    if not path.is_file():
        return None
    stored, value = read_reference(path)
    return value if stored == fingerprint else None


def load_model(path: Path | None) -> ErrorModel:
    """The fitted error model in ``path``, the config's ``adaptivity.model_file``."""
    if path is None:
        raise ConfigError("missing required config key 'adaptivity.model_file'")
    try:
        return ErrorModel.from_json(path.read_text())
    except (OSError, ValueError, TypeError, KeyError) as exc:
        raise ConfigError(f"unreadable model file {path}: {exc!r}") from exc


def store_reference(path: Path, fingerprint: str, value: float) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps({"fingerprint": fingerprint, "value": value}, indent=1))


# ----------------------------------------------------------------------
# subcommands


def cmd_lebesgue(args) -> int:
    if not 1 <= args.max_beta <= LEBESGUE_MAX_BETA:
        raise ConfigError(f"--max-beta must be in 1..{LEBESGUE_MAX_BETA}, got {args.max_beta}")
    rows = lebesgue_rows(args.max_beta)
    out = Path(args.out) / "lebesgue.csv"
    write_csv(out, ("beta", "leb_delta"), rows)
    for beta, value in rows:
        print(f"{beta:4d} {value:.12f}")
    print(f"wrote {out}")
    return EXIT_OK


def cmd_predict(args) -> int:
    cfg = read_config(args.config)
    report = predict_report(cfg["problem.nu"], cfg["problem.d"], cfg["solver.gamma"])
    out = Path(args.out) / "prediction.json"
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(report, indent=1))
    for variant in theory.VARIANTS:
        rate = report["rates"][variant]
        shown = "inadmissible" if rate is None else f"{rate:.6f}"
        print(f"r_misc[{variant}] = {shown}")
    print(f"wrote {out}")
    return EXIT_OK


def cmd_fit(args) -> int:
    cfg = read_config(args.config)
    field_spec, qoi_spec = problem_from_config(cfg)
    model = fit_driver(field_spec, qoi_spec, cfg["adaptivity.pilot_modes"],
                       cfg["adaptivity.pilot_depth"], cfg["adaptivity.r_fem"])
    out = Path(args.out) / "model.json"
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(model.to_json())
    print(f"r_fem = {model.r_fem}, residual = {model.residual:.3e}")
    for j, g in enumerate(model.g_tilde, start=1):
        print(f"g[{j}] = {g:.6f}")
    print(f"wrote {out}")
    return EXIT_OK


def _study_from_config(cfg: dict, out: Path):
    field_spec, qoi_spec = problem_from_config(cfg)
    mode, budgets, gamma = cfg["adaptivity.mode"], cfg["adaptivity.budgets"], cfg["solver.gamma"]
    reference_factor = cfg["output.reference_factor"]
    error_model = _study_model(
        mode, field_spec, load_model(cfg["adaptivity.model_file"]) if mode == "apriori" else None,
        cfg["adaptivity.r_fem"])

    reference = cfg["output.reference"]
    ref_path = out / "reference.json"
    fingerprint = reference_fingerprint(
        field_spec, qoi_spec, gamma, mode, budgets[-1] * reference_factor, error_model,
    )
    if reference == "auto":
        reference = load_reference(ref_path, fingerprint)
    elif isinstance(reference, Path):
        _, reference = read_reference(reference)

    study = study_driver(
        field_spec, qoi_spec, budgets, mode=mode, error_model=error_model, gamma=gamma,
        reference=reference, reference_factor=reference_factor,
    )
    if cfg["output.reference"] == "auto":
        store_reference(ref_path, fingerprint, study.reference)
    return study, field_spec, qoi_spec, error_model


def budget_name(budget: float) -> str:
    """A whole budget as an integer, any other by its repr: no two budgets share a name."""
    return str(int(budget)) if budget.is_integer() else repr(budget)


def cmd_run(args) -> int:
    out_dir = Path(args.out)
    study, *_ = _study_from_config(read_config(args.config), out_dir)
    for record, index_set in zip(study.records, study.sets):
        set_path = out_dir / f"set_budget_{budget_name(record.budget)}.json"
        set_path.parent.mkdir(parents=True, exist_ok=True)
        set_path.write_text(index_set.to_json())
    write_csv(out_dir / "runs.csv", RUN_COLUMNS, [r.row() for r in study.records],
              footer={"fitted_slope": study.slope, "reference": study.reference,
                      "solved_dof": study.evaluator.solved_dof})
    for record in study.records:
        print(f"budget {budget_name(record.budget):>12}  work {record.work:>10d}  "
              f"error {record.abs_error:.6e}")
    print(f"fitted log-log slope: {study.slope:.4f}")
    print(f"solved DOF: {study.evaluator.solved_dof}")
    print(f"wrote {out_dir / 'runs.csv'}")
    return EXIT_OK


def cmd_compare(args) -> int:
    cfg = read_config(args.config)
    if cfg["adaptivity.mode"] != "apriori":
        raise ConfigError(f"compare pairs the Monte Carlo baseline with the a-priori sets; "
                          f"adaptivity.mode must be apriori, got {cfg['adaptivity.mode']!r}")
    study, field_spec, qoi_spec, error_model = _study_from_config(cfg, Path(args.out))
    result = _with_mimc(study, field_spec, qoi_spec, error_model.r_fem, cfg["mimc.random_vars"],
                        args.seed, cfg["solver.gamma"])
    out = Path(args.out) / "compare.csv"
    write_csv(out, COMPARE_COLUMNS, result.rows, footer={"reference": result.reference})
    for row in result.rows:
        print(f"budget {budget_name(row[0]):>12}  misc {row[2]:.6e}  mimc {row[4]:.6e}")
    print(f"wrote {out}")
    return EXIT_OK


def cmd_solve(args) -> int:
    field_spec, qoi_spec = problem_from_config(read_config(args.config))
    try:
        alpha = pde_solver.validate_alpha(args.alpha.split(",")) if args.alpha else (1,) * field_spec.d
    except ValueError as exc:
        raise ConfigError(f"--alpha: {exc}") from exc
    if len(alpha) != field_spec.d:
        raise ConfigError(f"--alpha has {len(alpha)} levels, problem.d = {field_spec.d}")
    # A level of at least the cap's bit length alone exceeds it.
    if (max(alpha) >= SOLVE_MAX_UNKNOWNS.bit_length()
            or pde_solver.unknowns(alpha) > SOLVE_MAX_UNKNOWNS):
        raise ConfigError(f"--alpha {','.join(map(str, alpha))} has more than "
                          f"{SOLVE_MAX_UNKNOWNS} unknowns")
    value = pde_solver.solve_qoi(alpha, {}, field_spec, qoi_spec)
    print(f"alpha = {alpha}, unknowns = {pde_solver.unknowns(alpha)}, qoi = {value!r}")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    import argparse

    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--out", default="out", help="output directory")
    common.add_argument("--seed", type=int, default=0, help="random seed for sampling baselines")

    parser = argparse.ArgumentParser(prog="miscpde",
                                     description="Multi-index stochastic collocation studies")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("lebesgue", parents=[common],
                       help="quadrature-increment operator-norm curve")
    p.add_argument("--max-beta", type=int, default=12)
    p.set_defaults(func=cmd_lebesgue)

    for name, func in (
        ("predict", cmd_predict),
        ("fit", cmd_fit),
        ("run", cmd_run),
        ("compare", cmd_compare),
    ):
        p = sub.add_parser(name, parents=[common])
        p.add_argument("--config", required=True)
        p.set_defaults(func=func)

    p = sub.add_parser("solve", parents=[common], help="single deterministic solve (debugging)")
    p.add_argument("--config", required=True)
    p.add_argument("--alpha", default=None, help="comma-separated refinement levels")
    p.set_defaults(func=cmd_solve)
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (pde_solver.SolverError, theory.RateError, adaptation.BudgetError,
            adaptation.RateFitError, NumericalError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL


if __name__ == "__main__":
    sys.exit(main())
