"""Every file the CLI writes is read back by the tool; non-finite estimates exit with 3."""

import json
import math
from pathlib import Path

import numpy as np
import pytest

from miscpde import cli, pde_solver
from miscpde.adaptation import ErrorModel
from miscpde.cli import read_csv, write_csv
from miscpde.misc_core import IndexSet, MimcResult

PROBLEM = "problem.d = 1\nproblem.nu = 2.5\nproblem.max_modes = 12\n"


@pytest.fixture(scope="module")
def model_file(tmp_path_factory):
    out = tmp_path_factory.mktemp("fit")
    cfg = out / "fit.cfg"
    cfg.write_text(PROBLEM + "adaptivity.pilot_depth = 2\nadaptivity.pilot_modes = 4\n")
    assert cli.main(["fit", "--config", str(cfg), "--out", str(out)]) == 0
    return out / "model.json"


def apriori_config(tmp_path: Path, model_file: Path, extra: str = "") -> Path:
    cfg = tmp_path / "run.cfg"
    cfg.write_text(PROBLEM + "adaptivity.mode = apriori\n"
                   f"adaptivity.model_file = {model_file}\n"
                   "adaptivity.budgets = 20,80,320\n" + extra)
    return cfg


def test_numpy_scalars_round_trip(tmp_path):
    path = tmp_path / "t.csv"
    value = np.float64(1.4481234567890123)
    write_csv(path, ("a", "b", "c"), [(np.int64(7), value, 0.5)], footer={"reference": value})
    _, rows, footer = read_csv(path)
    assert rows == [["7", repr(float(value)), "0.5"]]
    assert float(rows[0][1]) == value
    assert float(footer["reference"]) == value


def test_apriori_run_outputs_round_trip(tmp_path, model_file):
    out = tmp_path / "o"
    cfg = apriori_config(tmp_path, model_file)
    assert cli.main(["run", "--config", str(cfg), "--out", str(out)]) == 0
    header, rows, footer = read_csv(out / "runs.csv")
    assert header == list(cli.RUN_COLUMNS)
    reference = json.loads((out / "reference.json").read_text())["value"]
    assert float(footer["reference"]) == reference
    assert math.isfinite(float(footer["fitted_slope"]))
    for row in rows:
        record = dict(zip(header, row))
        budget, estimate, error = (float(record[k]) for k in ("budget", "estimate", "abs_error"))
        assert error == abs(estimate - reference)
        text = (out / f"set_budget_{int(budget)}.json").read_text()
        stored = IndexSet.from_json(text)
        assert stored.to_json() == text
        assert stored.nominal_work() == int(record["work"])
        assert stored.max_alpha_level() == int(record["max_alpha"])

    # A second run reuses the stored reference and writes the same rows,
    # slope and reference; it solves fewer DOF, since it skips the
    # reference set.
    again = tmp_path / "again"
    again.mkdir()
    (again / "reference.json").write_text((out / "reference.json").read_text())
    assert cli.main(["run", "--config", str(cfg), "--out", str(again)]) == 0
    _, rows_again, footer_again = read_csv(again / "runs.csv")
    assert rows_again == rows
    solved, solved_again = int(footer.pop("solved_dof")), int(footer_again.pop("solved_dof"))
    assert footer_again == footer
    assert 0 < solved_again < solved


def test_compare_output_round_trips(tmp_path, model_file):
    out = tmp_path / "c"
    cfg = apriori_config(tmp_path, model_file, "mimc.random_vars = 4\n")
    assert cli.main(["compare", "--config", str(cfg), "--out", str(out), "--seed", "3"]) == 0
    header, rows, footer = read_csv(out / "compare.csv")
    assert header == list(cli.COMPARE_COLUMNS)
    assert len(rows) == 3
    for row in rows:
        record = dict(zip(header, row))
        assert int(record["misc_work"]) <= float(record["budget"])
        assert int(record["mimc_work"]) > 0
        assert float(record["misc_error"]) >= 0.0 and float(record["mimc_error"]) >= 0.0
    assert math.isfinite(float(footer["reference"]))


@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_non_finite_estimate_exits_3(tmp_path, monkeypatch, bad):
    cfg = tmp_path / "det.cfg"
    cfg.write_text(PROBLEM + "adaptivity.mode = deterministic\nadaptivity.budgets = 20,80\n")
    monkeypatch.setattr(pde_solver, "solve_qoi_batch",
                        lambda alpha, Y, field_spec, qoi_spec: np.full(len(Y), bad))
    assert cli.main(["run", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 3


@pytest.mark.parametrize("bad", [math.nan, -math.inf])
def test_non_finite_monte_carlo_estimate_exits_3(tmp_path, monkeypatch, bad):
    model = tmp_path / "model.json"
    model.write_text(ErrorModel(r_fem=2.0, g_tilde=(1.0, 1.5, 2.0)).to_json())
    cfg = apriori_config(tmp_path, model, "mimc.random_vars = 2\n")
    monkeypatch.setattr(cli, "mimc_estimate",
                        lambda *args: MimcResult(bad, 1, (bad,), (0.0,), 0.0))
    assert cli.main(["compare", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 3


def test_overflowing_coefficient_exits_3(tmp_path, monkeypatch):
    # The solver itself refuses a coefficient whose reciprocal overflows.
    cfg = tmp_path / "det.cfg"
    cfg.write_text(PROBLEM + "adaptivity.mode = deterministic\nadaptivity.budgets = 20,80\n")
    real = pde_solver.solve_qoi_batch
    monkeypatch.setattr(pde_solver, "solve_qoi_batch",
                        lambda alpha, Y, f, q: real(alpha, np.full((len(Y), 1), -1e3), f, q))
    assert cli.main(["run", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 3
