"""Command-line drivers: convergence studies, rate fits, predictions, comparisons.

Configuration is a flat key/value text format with dotted section
prefixes (``problem.nu = 2.5``); every experiment emits schema-stable
CSV or JSON files that the tool itself can re-read.  Plots are not
rendered here: the CSV output is the plotting interface.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
import math
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Sequence

import numpy as np

from . import adaptation, misc_core, pde_solver, quadrature, theory
from .adaptation import ErrorModel, WorkModel, isotropic_work_model
from .misc_core import IndexSet, MiscEvaluator, mimc_estimate
from .pde_solver import QoISpec, default_qoi_spec
from .random_field import FieldSpec

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NUMERICAL = 3

RUN_COLUMNS = ("budget", "work", "estimate", "abs_error",
               "max_alpha", "max_beta", "last_var", "joint_vars")
COMPARE_COLUMNS = ("budget", "misc_work", "misc_error", "mimc_work", "mimc_error")


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
        key, value = line.split("=", 1)
        entries[key.strip()] = value.strip()
    return entries


def parse_config(path: str | Path) -> dict[str, str]:
    path = Path(path)
    if not path.is_file():
        raise ConfigError(f"config file not found: {path}")
    return parse_config_text(path.read_text())


class Config:
    """Typed access to the flat dotted-key table."""

    def __init__(self, entries: dict[str, str], base_dir: Path | None = None):
        self.entries = dict(entries)
        self.base_dir = base_dir or Path.cwd()

    def _get(self, key, default, required):
        if key in self.entries:
            return self.entries[key]
        if required:
            raise ConfigError(f"missing required config key {key!r}")
        return default

    def get_str(self, key, default=None, required=False):
        return self._get(key, default, required)

    def get_int(self, key, default=None, required=False):
        raw = self._get(key, default, required)
        if raw is None or isinstance(raw, int):
            return raw
        try:
            return int(raw)
        except ValueError as exc:
            raise ConfigError(f"config key {key!r}: expected integer, got {raw!r}") from exc

    def get_float(self, key, default=None, required=False):
        raw = self._get(key, default, required)
        if raw is None or isinstance(raw, float):
            return raw
        try:
            return float(raw)
        except ValueError as exc:
            raise ConfigError(f"config key {key!r}: expected number, got {raw!r}") from exc

    def get_bool(self, key, default=False):
        raw = self._get(key, default, False)
        if isinstance(raw, bool):
            return raw
        if raw.lower() in ("true", "yes", "1"):
            return True
        if raw.lower() in ("false", "no", "0"):
            return False
        raise ConfigError(f"config key {key!r}: expected boolean, got {raw!r}")

    def get_floats(self, key, default=None, required=False):
        raw = self._get(key, default, required)
        if raw is None or isinstance(raw, tuple):
            return raw
        try:
            return tuple(float(v) for v in raw.split(","))
        except ValueError as exc:
            raise ConfigError(f"config key {key!r}: expected comma-separated numbers") from exc

    def get_ints(self, key, default=None, required=False):
        raw = self._get(key, default, required)
        if raw is None or isinstance(raw, tuple):
            return raw
        try:
            return tuple(int(v) for v in raw.split(","))
        except ValueError as exc:
            raise ConfigError(f"config key {key!r}: expected comma-separated integers") from exc

    def get_path(self, key, default=None, required=False, must_exist=True):
        raw = self._get(key, default, required)
        if raw is None:
            return None
        path = Path(raw)
        if not path.is_absolute():
            path = self.base_dir / path
        if must_exist and not path.is_file():
            raise ConfigError(f"config key {key!r}: file does not exist: {path}")
        return path


def problem_from_config(cfg: Config) -> tuple[FieldSpec, QoISpec, float]:
    d = cfg.get_int("problem.d", required=True)
    nu = cfg.get_float("problem.nu", required=True)
    max_modes = cfg.get_int("problem.max_modes", 32)
    sigma = cfg.get_float("problem.sigma", 0.2)
    x0 = cfg.get_floats("problem.x0")
    gamma = cfg.get_float("solver.gamma", 1.0)
    try:
        field_spec = FieldSpec(d=d, nu=nu, max_modes=max_modes)
        if x0 is None:
            x0 = default_qoi_spec(d).x0
        qoi_spec = QoISpec(sigma, tuple(x0))
    except ValueError as exc:
        raise ConfigError(f"problem settings: {exc}") from exc
    if qoi_spec.d != d:
        raise ConfigError(f"problem.x0 has {qoi_spec.d} components, problem.d = {d}")
    return field_spec, qoi_spec, gamma


def budgets_from_config(cfg: Config, d: int) -> tuple[float, ...]:
    raw = cfg.get_str("adaptivity.budgets", "auto")
    if raw.startswith("auto"):
        try:
            steps = int(raw.split(":", 1)[1]) if ":" in raw else 6
        except ValueError as exc:
            raise ConfigError(f"adaptivity.budgets: expected auto:<steps>, got {raw!r}") from exc
        if steps < 1:
            raise ConfigError(f"adaptivity.budgets: need at least one step, got {raw!r}")
        base = pde_solver.unknowns((1,) * d)
        budgets = tuple(float(base * 4**t) for t in range(1, steps + 1))
    else:
        budgets = cfg.get_floats("adaptivity.budgets")
    return check_budgets(budgets)


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


def predict_report(nu: float, d: int, gamma: float, s_table_max: int = 6) -> dict:
    rates = theory.predict_all_variants(nu, d, gamma)
    details = {}
    for variant, rate in rates.items():
        if rate is None:
            details[variant] = None
            continue
        prediction = theory.example_prediction(nu, d, gamma, variant)
        details[variant] = json.loads(prediction.to_json())
    table = {s: theory.r_det(s, (gamma,) * d, (1,) * d) for s in range(s_table_max + 1)}
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
    evaluator: MiscEvaluator | None = None,
) -> ErrorModel:
    r_fem = r_fem if r_fem is not None else default_r_fem(field_spec.nu, field_spec.d)
    evaluator = evaluator or MiscEvaluator(field_spec, qoi_spec)
    samples = adaptation.pilot_samples(field_spec, qoi_spec, n_modes, depth, evaluator)
    return adaptation.fit_rates(samples, r_fem)


def synthetic_fit_check(n_modes: int = 6, depth: int = 3) -> float:
    """Self-test: regenerate pilot data from a known model and re-fit it."""
    truth = ErrorModel(r_fem=2.0, g_tilde=tuple(0.3 + 0.25 * j for j in range(n_modes)), c_e=1.7)
    samples = []
    for j in range(1, n_modes + 1):
        for t in range(1, depth + 1):
            index = misc_core.MixedIndex((1,), quadrature.SparseLevelVector({j: 1 + t}))
            samples.append((index, adaptation.error_contribution_model(index, truth)))
    fitted = adaptation.fit_rates(samples, truth.r_fem)
    drift = max(abs(a - b) for a, b in zip(fitted.g_tilde, truth.g_tilde))
    return max(drift, abs(fitted.c_e - truth.c_e), fitted.residual)


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


def _build_sets(mode: str, budgets: Sequence[float], *, work_model: WorkModel,
                error_model: ErrorModel | None, frontier_width: int,
                universe: IndexSet | None, field_spec, qoi_spec, evaluator) -> list[IndexSet]:
    """The index set of each of the strictly increasing ``budgets``."""
    if mode in ("apriori", "deterministic"):
        return [result.index_set for result in adaptation.sweep_apriori(
            work_model, error_model, budgets, frontier_width=frontier_width)]
    if mode == "bruteforce":
        return [adaptation.build_set_bruteforce(
            universe, field_spec, qoi_spec, work_budget=budget,
            evaluator=evaluator, work_model=work_model,
        ).index_set for budget in budgets]
    raise ConfigError(f"unknown adaptivity mode {mode!r}")


def _require_finite(value: float, what: str) -> None:
    if not math.isfinite(value):
        raise NumericalError(f"{what} is not finite: {value!r}")


def fitted_slope(works: Sequence[float], errors: Sequence[float]) -> float:
    pairs = [(w, e) for w, e in zip(works, errors) if e > 0]
    if len(pairs) < 2:
        return math.nan
    logw = np.log10([p[0] for p in pairs])
    loge = np.log10([p[1] for p in pairs])
    return float(np.polyfit(logw, loge, 1)[0])


def study_driver(
    field_spec: FieldSpec,
    qoi_spec: QoISpec,
    budgets: Sequence[float],
    mode: str = "apriori",
    error_model: ErrorModel | None = None,
    gamma: float = 1.0,
    frontier_width: int = 2,
    universe: IndexSet | None = None,
    reference: float | None = None,
    reference_factor: float = 4.0,
    threads: int = 1,
) -> StudyResult:
    """One convergence study: build, evaluate, and diff against a reference.

    Budgets must be finite, positive and strictly increasing.  Without an
    explicit reference value, a set at ``reference_factor`` times the
    largest budget provides it.  In the a-priori modes one greedy sweep
    up to the largest budget needed yields every set.  The sets are
    evaluated in budget order, the reference set last, on a single
    evaluator, so each estimator reuses every solve of the previous one.
    """
    budgets = check_budgets(budgets)
    if mode == "deterministic":
        error_model = ErrorModel(r_fem=error_model.r_fem if error_model else default_r_fem(field_spec.nu, field_spec.d),
                                 g_tilde=())
    if mode == "apriori" and error_model is None:
        raise ConfigError("a-priori mode needs a fitted error model")
    if mode == "bruteforce" and universe is None:
        raise ConfigError("brute-force mode needs a universe index set")
    work_model = isotropic_work_model(field_spec.d, gamma)
    evaluator = MiscEvaluator(field_spec, qoi_spec, threads=threads)

    reference_budget = reference_factor * budgets[-1]
    needed = sorted(set(budgets) | ({reference_budget} if reference is None else set()))
    built = dict(zip(needed, _build_sets(
        mode, needed, work_model=work_model, error_model=error_model,
        frontier_width=frontier_width, universe=universe, field_spec=field_spec,
        qoi_spec=qoi_spec, evaluator=evaluator,
    )))

    sets, estimates, works = [], [], []
    for budget in budgets:
        index_set = built[budget]
        result = evaluator.evaluate(index_set, mode="combination")
        _require_finite(result.value, f"estimate at budget {budget}")
        sets.append(index_set)
        estimates.append(result.value)
        works.append(result.work)

    if reference is None:
        reference = evaluator.evaluate(built[reference_budget], mode="combination").value
        _require_finite(reference, "reference estimate")

    records = []
    for budget, index_set, estimate, work in zip(budgets, sets, estimates, works):
        records.append(RunRecord(
            budget=budget,
            work=work,
            estimate=estimate,
            abs_error=abs(estimate - reference),
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


def mimc_plan(budget: float, d: int, r_fem: float, gamma: float = 1.0,
              max_levels: int = 12) -> tuple[list[tuple[int, ...]], list[int]]:
    """Fixed level hierarchy and sample allocation for the Monte Carlo baseline.

    Isotropic levels 1..L with the usual variance/cost balance
    M_l ~ sqrt(V_l / c_l); L is the deepest level whose per-sample cost
    stays within a quarter of the budget.
    """
    levels: list[tuple[int, ...]] = []
    costs: list[float] = []
    for level in range(1, max_levels + 1):
        alpha = (level,) * d
        cost = sum(pde_solver.unknowns(a) for _, a in misc_core.corners(alpha))
        if cost > budget / 4.0 and levels:
            break
        levels.append(alpha)
        costs.append(cost)
    while len(levels) > 1:
        weights = [2.0 ** (-r_fem * ell) / math.sqrt(c) for ell, c in enumerate(costs)]
        norm = sum(w * c for w, c in zip(weights, costs))
        counts = [int(budget * w / norm) for w in weights]
        if counts[-1] >= 1:
            break
        # The deepest level would get no whole sample: cut it rather than
        # force samples beyond the budget.
        levels.pop()
        costs.pop()
    counts = [max(1, c) for c in counts] if len(levels) > 1 else [max(1, int(budget / costs[0]))]
    return levels, counts


def compare_driver(
    field_spec: FieldSpec,
    qoi_spec: QoISpec,
    budgets: Sequence[float],
    error_model: ErrorModel,
    n_random_vars: int,
    seed: int,
    gamma: float = 1.0,
    frontier_width: int = 2,
    reference: float | None = None,
    threads: int = 1,
) -> CompareResult:
    """Paired convergence curves: collocation estimator vs the Monte Carlo baseline."""
    study = study_driver(
        field_spec, qoi_spec, budgets, mode="apriori", error_model=error_model,
        gamma=gamma, frontier_width=frontier_width, reference=reference, threads=threads,
    )
    rows = []
    for i, (budget, record) in enumerate(zip(budgets, study.records)):
        levels, counts = mimc_plan(budget, field_spec.d, error_model.r_fem, gamma)
        mimc = mimc_estimate(levels, counts, field_spec, qoi_spec, n_random_vars, seed + i)
        _require_finite(mimc.value, f"Monte Carlo estimate at budget {budget}")
        rows.append((
            budget,
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
    payload = json.dumps({
        "d": field_spec.d, "nu": field_spec.nu, "max_modes": field_spec.max_modes,
        "sigma": qoi_spec.sigma, "x0": list(qoi_spec.x0), "gamma": gamma,
        "mode": mode, "budget": budget,
        "model": model.to_json() if model else None,
    }, sort_keys=True)
    return hashlib.sha256(payload.encode()).hexdigest()


def read_reference(path: Path) -> tuple[str | None, float]:
    """The (fingerprint, value) pair stored in a reference file."""
    try:
        data = json.loads(path.read_text())
        return data.get("fingerprint"), float(data["value"])
    except (ValueError, TypeError, KeyError, AttributeError) as exc:
        raise ConfigError(f"unreadable reference file {path}: {exc!r}") from exc


def load_reference(path: Path, fingerprint: str) -> float | None:
    if not path.is_file():
        return None
    stored, value = read_reference(path)
    return value if stored == fingerprint else None


def load_model(cfg: Config) -> ErrorModel:
    """The fitted error model named by ``adaptivity.model_file``."""
    path = cfg.get_path("adaptivity.model_file", required=True)
    try:
        return ErrorModel.from_json(path.read_text())
    except (ValueError, TypeError, KeyError) as exc:
        raise ConfigError(f"unreadable model file {path}: {exc!r}") from exc


def store_reference(path: Path, fingerprint: str, value: float) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps({"fingerprint": fingerprint, "value": value}, indent=1))


# ----------------------------------------------------------------------
# subcommands


def cmd_lebesgue(args) -> int:
    rows = lebesgue_rows(args.max_beta)
    out = Path(args.out) / "lebesgue.csv"
    write_csv(out, ("beta", "leb_delta"), rows)
    for beta, value in rows:
        print(f"{beta:4d} {value:.12f}")
    print(f"wrote {out}")
    return EXIT_OK


def cmd_predict(args) -> int:
    cfg = Config(parse_config(args.config), Path(args.config).parent)
    d = cfg.get_int("problem.d", required=True)
    nu = cfg.get_float("problem.nu", required=True)
    gamma = cfg.get_float("solver.gamma", 1.0)
    report = predict_report(nu, d, gamma)
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
    cfg = Config(parse_config(args.config), Path(args.config).parent)
    if cfg.get_bool("fit.synthetic", False):
        residual = synthetic_fit_check()
        print(f"synthetic self-test residual = {residual:.3e}")
        return EXIT_OK if residual < 1e-8 else EXIT_NUMERICAL
    field_spec, qoi_spec, _ = problem_from_config(cfg)
    depth = cfg.get_int("adaptivity.pilot_depth", 3)
    n_modes = cfg.get_int("adaptivity.pilot_modes", 8)
    r_fem = cfg.get_float("adaptivity.r_fem", default_r_fem(field_spec.nu, field_spec.d))
    model = fit_driver(field_spec, qoi_spec, n_modes, depth, r_fem,
                       evaluator=MiscEvaluator(field_spec, qoi_spec, threads=args.threads))
    out = Path(args.out) / "model.json"
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(model.to_json())
    print(f"r_fem = {model.r_fem}, residual = {model.residual:.3e}")
    for j, g in enumerate(model.g_tilde, start=1):
        print(f"g[{j}] = {g:.6f}")
    print(f"wrote {out}")
    return EXIT_OK


def _study_from_config(cfg: Config, args):
    field_spec, qoi_spec, gamma = problem_from_config(cfg)
    mode = cfg.get_str("adaptivity.mode", "apriori")
    budgets = budgets_from_config(cfg, field_spec.d)
    frontier = cfg.get_int("adaptivity.frontier_width", 2)
    error_model = None
    universe = None
    if mode == "apriori":
        error_model = load_model(cfg)
    elif mode == "deterministic":
        r_fem = cfg.get_float("adaptivity.r_fem", default_r_fem(field_spec.nu, field_spec.d))
        error_model = ErrorModel(r_fem=r_fem, g_tilde=())
    elif mode == "bruteforce":
        universe = adaptation.box_universe(
            field_spec.d,
            cfg.get_int("adaptivity.universe_alpha", 3),
            cfg.get_int("adaptivity.universe_beta", 2),
            cfg.get_int("adaptivity.universe_vars", 2),
        )
    else:
        raise ConfigError(f"unknown adaptivity mode {mode!r}")

    reference = None
    ref_raw = cfg.get_str("output.reference", "auto")
    ref_path = Path(args.out) / "reference.json"
    fingerprint = reference_fingerprint(
        field_spec, qoi_spec, gamma, mode,
        budgets[-1] * cfg.get_float("output.reference_factor", 4.0), error_model,
    )
    if ref_raw != "auto":
        try:
            reference = float(ref_raw)
        except ValueError:
            _, reference = read_reference(cfg.get_path("output.reference", required=True))
    else:
        reference = load_reference(ref_path, fingerprint)

    study = study_driver(
        field_spec, qoi_spec, budgets, mode=mode, error_model=error_model, gamma=gamma,
        frontier_width=frontier, universe=universe, reference=reference,
        reference_factor=cfg.get_float("output.reference_factor", 4.0),
        threads=args.threads,
    )
    if ref_raw == "auto":
        store_reference(ref_path, fingerprint, study.reference)
    return study, field_spec, qoi_spec, gamma, error_model


def cmd_run(args) -> int:
    cfg = Config(parse_config(args.config), Path(args.config).parent)
    study, *_ = _study_from_config(cfg, args)
    out_dir = Path(args.out)
    for record, index_set in zip(study.records, study.sets):
        set_path = out_dir / f"set_budget_{int(record.budget)}.json"
        set_path.parent.mkdir(parents=True, exist_ok=True)
        set_path.write_text(index_set.to_json())
    write_csv(out_dir / "runs.csv", RUN_COLUMNS, [r.row() for r in study.records],
              footer={"fitted_slope": study.slope, "reference": study.reference})
    for record in study.records:
        print(f"budget {record.budget:>12.0f}  work {record.work:>10d}  "
              f"error {record.abs_error:.6e}")
    print(f"fitted log-log slope: {study.slope:.4f}")
    print(f"wrote {out_dir / 'runs.csv'}")
    return EXIT_OK


def cmd_compare(args) -> int:
    cfg = Config(parse_config(args.config), Path(args.config).parent)
    field_spec, qoi_spec, gamma = problem_from_config(cfg)
    error_model = load_model(cfg)
    budgets = budgets_from_config(cfg, field_spec.d)
    n_vars = cfg.get_int("mimc.random_vars", min(8, field_spec.max_modes))
    result = compare_driver(
        field_spec, qoi_spec, budgets, error_model, n_vars, seed=args.seed,
        gamma=gamma, frontier_width=cfg.get_int("adaptivity.frontier_width", 2),
        threads=args.threads,
    )
    out = Path(args.out) / "compare.csv"
    write_csv(out, COMPARE_COLUMNS, result.rows, footer={"reference": result.reference})
    for row in result.rows:
        print(f"budget {row[0]:>12.0f}  misc {row[2]:.6e}  mimc {row[4]:.6e}")
    print(f"wrote {out}")
    return EXIT_OK


def cmd_solve(args) -> int:
    cfg = Config(parse_config(args.config), Path(args.config).parent)
    field_spec, qoi_spec, _ = problem_from_config(cfg)
    try:
        alpha = pde_solver.validate_alpha(args.alpha.split(",")) if args.alpha else (1,) * field_spec.d
    except ValueError as exc:
        raise ConfigError(f"--alpha: {exc}") from exc
    if len(alpha) != field_spec.d:
        raise ConfigError(f"--alpha has {len(alpha)} levels, problem.d = {field_spec.d}")
    value = pde_solver.solve_qoi(alpha, {}, field_spec, qoi_spec)
    print(f"alpha = {alpha}, unknowns = {pde_solver.unknowns(alpha)}, qoi = {value!r}")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--out", default="out", help="output directory")
    common.add_argument("--seed", type=int, default=0, help="random seed for sampling baselines")
    common.add_argument("--threads", type=int, default=1,
                        help="threads sharing the batched solve of each tensor grid, "
                             "one contiguous chunk of points each; results do not "
                             "depend on it")

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
