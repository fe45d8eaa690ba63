import json
from pathlib import Path

import pytest

from miscpde import cli
from miscpde.cli import (
    Config,
    ConfigError,
    budgets_from_config,
    fitted_slope,
    lebesgue_rows,
    mimc_plan,
    parse_config_text,
    predict_report,
    read_csv,
    synthetic_fit_check,
    write_csv,
)
from miscpde.misc_core import IndexSet


def write_config(path: Path, text: str) -> Path:
    path.write_text(text)
    return path


BASE_1D = """
problem.d = 1
problem.nu = 2.5
problem.max_modes = 12
solver.gamma = 1.0
adaptivity.mode = deterministic
adaptivity.budgets = 20,80,320
"""


class TestConfigParsing:
    def test_basic_parse(self):
        entries = parse_config_text("a.b = 1\n# comment\n\nc.d = x,y  # trailing\n")
        assert entries == {"a.b": "1", "c.d": "x,y"}

    def test_malformed_line(self):
        with pytest.raises(ConfigError):
            parse_config_text("just words\n")

    def test_typed_getters(self):
        cfg = Config({"k.i": "3", "k.f": "2.5", "k.b": "true", "k.l": "1,2,3"})
        assert cfg.get_int("k.i") == 3
        assert cfg.get_float("k.f") == 2.5
        assert cfg.get_bool("k.b") is True
        assert cfg.get_ints("k.l") == (1, 2, 3)
        assert cfg.get_str("missing", "fallback") == "fallback"

    def test_required_and_type_errors(self):
        cfg = Config({"k.x": "abc"})
        with pytest.raises(ConfigError):
            cfg.get_int("k.x")
        with pytest.raises(ConfigError):
            cfg.get_float("nope", required=True)

    def test_missing_file_reference(self, tmp_path):
        cfg = Config({"adaptivity.model_file": "absent.json"}, base_dir=tmp_path)
        with pytest.raises(ConfigError):
            cfg.get_path("adaptivity.model_file", required=True)

    def test_budgets_must_increase(self):
        cfg = Config({"adaptivity.budgets": "100,100"})
        with pytest.raises(ConfigError):
            budgets_from_config(cfg, 1)

    def test_auto_budget_ladder(self):
        cfg = Config({"adaptivity.budgets": "auto:3"})
        assert budgets_from_config(cfg, 1) == (20.0, 80.0, 320.0)
        assert budgets_from_config(Config({}), 3)[0] == 500.0


class TestCsvRoundTrip:
    def test_write_read(self, tmp_path):
        path = tmp_path / "table.csv"
        rows = [(1, 0.5, "x"), (2, 0.25, "y")]
        write_csv(path, ("a", "b", "c"), rows, footer={"slope": -2.0})
        header, parsed, footer = read_csv(path)
        assert header == ["a", "b", "c"]
        assert [float(r[1]) for r in parsed] == [0.5, 0.25]
        assert footer["slope"] == "-2.0"

    def test_floats_round_trip_exactly(self, tmp_path):
        value = 0.1 + 0.2  # not representable prettily
        path = tmp_path / "x.csv"
        write_csv(path, ("v",), [(value,)])
        _, rows, _ = read_csv(path)
        assert float(rows[0][0]) == value


class TestSmallDrivers:
    def test_lebesgue_rows(self):
        rows = lebesgue_rows(12)
        assert rows[0] == (1, 1.0)
        assert abs(rows[2][1] - 1.0667) < 0.001
        tail = [v for _, v in rows[2:]]
        assert all(a >= b for a, b in zip(tail, tail[1:]))

    def test_predict_report_ordering(self):
        report = predict_report(2.5, 1, 1.0)
        rates = report["rates"]
        assert rates["theory"] == 0.5
        assert rates["theory"] <= rates["square"] <= rates["improved"]

    def test_synthetic_fit_self_test(self):
        assert synthetic_fit_check() < 1e-8

    def test_fitted_slope(self):
        works = [10, 100, 1000]
        errors = [1e-1, 1e-3, 1e-5]
        assert fitted_slope(works, errors) == pytest.approx(-2.0, abs=1e-12)

    def test_mimc_plan_within_budget(self):
        for budget in (200.0, 5000.0, 80000.0):
            levels, counts = mimc_plan(budget, 1, 2.0)
            cost = 0
            for alpha, m in zip(levels, counts):
                corners = cli.misc_core.corners(alpha)
                cost += m * sum(cli.pde_solver.unknowns(a) for _, a in corners)
            assert cost <= 1.05 * budget
            assert counts[0] >= counts[-1] >= 1


class TestCommands:
    def run(self, *argv):
        return cli.main(list(argv))

    def test_lebesgue_command(self, tmp_path, capsys):
        assert self.run("lebesgue", "--max-beta", "5", "--out", str(tmp_path)) == 0
        header, rows, _ = read_csv(tmp_path / "lebesgue.csv")
        assert header == ["beta", "leb_delta"]
        assert len(rows) == 5

    def test_predict_command(self, tmp_path):
        cfg = write_config(tmp_path / "p.cfg", "problem.d = 1\nproblem.nu = 2.5\n")
        assert self.run("predict", "--config", str(cfg), "--out", str(tmp_path)) == 0
        report = json.loads((tmp_path / "prediction.json").read_text())
        assert report["rates"]["theory"] == 0.5

    def test_missing_config_key_exits_2(self, tmp_path):
        cfg = write_config(tmp_path / "bad.cfg", "problem.d = 1\n")
        assert self.run("predict", "--config", str(cfg), "--out", str(tmp_path)) == 2

    def test_infeasible_budget_exits_3(self, tmp_path):
        cfg = write_config(
            tmp_path / "tiny.cfg",
            BASE_1D.replace("20,80,320", "2,3"),
        )
        assert self.run("run", "--config", str(cfg), "--out", str(tmp_path / "o")) == 3

    def test_run_deterministic_and_reproducible(self, tmp_path):
        cfg = write_config(tmp_path / "run.cfg", BASE_1D)
        out1, out2 = tmp_path / "o1", tmp_path / "o2"
        assert self.run("run", "--config", str(cfg), "--out", str(out1)) == 0
        assert self.run("run", "--config", str(cfg), "--out", str(out2)) == 0
        assert (out1 / "runs.csv").read_bytes() == (out2 / "runs.csv").read_bytes()
        header, rows, footer = read_csv(out1 / "runs.csv")
        assert header == list(cli.RUN_COLUMNS)
        assert len(rows) == 3
        # 1-D deterministic combination technique converges at ~W^-2.
        assert -2.4 < float(footer["fitted_slope"]) < -1.6

    def test_run_emits_auditable_set_files(self, tmp_path):
        cfg = write_config(tmp_path / "run.cfg", BASE_1D)
        out = tmp_path / "o"
        assert self.run("run", "--config", str(cfg), "--out", str(out)) == 0
        header, rows, _ = read_csv(out / "runs.csv")
        for row in rows:
            record = dict(zip(header, row))
            stored = IndexSet.from_json(
                (out / f"set_budget_{int(float(record['budget']))}.json").read_text()
            )
            assert stored.max_alpha_level() == int(record["max_alpha"])
            assert stored.max_beta_level() == int(record["max_beta"])
            assert stored.last_variable() == int(record["last_var"])
            assert stored.max_joint_variables() == int(record["joint_vars"])
            assert stored.nominal_work() == int(record["work"])
            assert float(record["work"]) <= float(record["budget"])

    def test_fit_then_run_apriori(self, tmp_path):
        fit_cfg = write_config(
            tmp_path / "fit.cfg",
            "problem.d = 1\nproblem.nu = 2.5\nproblem.max_modes = 12\n"
            "adaptivity.pilot_depth = 2\nadaptivity.pilot_modes = 4\n",
        )
        out = tmp_path / "o"
        assert self.run("fit", "--config", str(fit_cfg), "--out", str(out)) == 0
        model = json.loads((out / "model.json").read_text())
        assert model["r_fem"] == 2.0
        assert len(model["g_tilde"]) == 4

        run_cfg = write_config(
            tmp_path / "run.cfg",
            "problem.d = 1\nproblem.nu = 2.5\nproblem.max_modes = 12\n"
            "adaptivity.mode = apriori\n"
            f"adaptivity.model_file = {out / 'model.json'}\n"
            "adaptivity.budgets = 20,80,320\n",
        )
        assert self.run("run", "--config", str(run_cfg), "--out", str(out)) == 0
        _, rows, _ = read_csv(out / "runs.csv")
        assert len(rows) == 3

    def test_fit_rerun_identical_bytes(self, tmp_path):
        cfg = write_config(
            tmp_path / "fit.cfg",
            "problem.d = 1\nproblem.nu = 2.5\nproblem.max_modes = 8\n"
            "adaptivity.pilot_depth = 2\nadaptivity.pilot_modes = 3\n",
        )
        out1, out2 = tmp_path / "a", tmp_path / "b"
        assert self.run("fit", "--config", str(cfg), "--out", str(out1)) == 0
        assert self.run("fit", "--config", str(cfg), "--out", str(out2)) == 0
        assert (out1 / "model.json").read_bytes() == (out2 / "model.json").read_bytes()

    def test_fit_synthetic_mode(self, tmp_path):
        cfg = write_config(tmp_path / "syn.cfg", "fit.synthetic = true\n")
        assert self.run("fit", "--config", str(cfg), "--out", str(tmp_path)) == 0

    def test_solve_command(self, tmp_path, capsys):
        cfg = write_config(tmp_path / "s.cfg", "problem.d = 1\nproblem.nu = 2.5\n")
        assert self.run("solve", "--config", str(cfg), "--alpha", "2",
                        "--out", str(tmp_path)) == 0
        out = capsys.readouterr().out
        assert "unknowns = 11" in out

    @pytest.mark.parametrize("budgets", ["auto:x", "100,abc", "auto:0"])
    def test_bad_budgets_exit_2(self, tmp_path, capsys, budgets):
        cfg = write_config(tmp_path / "b.cfg", BASE_1D.replace("20,80,320", budgets))
        assert self.run("run", "--config", str(cfg), "--out", str(tmp_path / "o")) == 2
        assert "config error" in capsys.readouterr().err

    @pytest.mark.parametrize("alpha", ["2,x", "0", "2,2"])
    def test_bad_solve_alpha_exits_2(self, tmp_path, capsys, alpha):
        cfg = write_config(tmp_path / "s.cfg", "problem.d = 1\nproblem.nu = 2.5\n")
        assert self.run("solve", "--config", str(cfg), "--alpha", alpha,
                        "--out", str(tmp_path)) == 2
        assert "config error" in capsys.readouterr().err

    def test_dimension_without_default_window_exits_2(self, tmp_path, capsys):
        cfg = write_config(tmp_path / "s.cfg", "problem.d = 2\nproblem.nu = 2.5\n")
        assert self.run("solve", "--config", str(cfg), "--out", str(tmp_path)) == 2
        assert "config error" in capsys.readouterr().err

    @pytest.mark.parametrize("content", ["{not json", "[1, 2]"])
    def test_corrupt_reference_file_exits_2(self, tmp_path, capsys, content):
        cfg = write_config(tmp_path / "run.cfg", BASE_1D.replace("20,80,320", "20,80"))
        out = tmp_path / "o"
        assert self.run("run", "--config", str(cfg), "--out", str(out)) == 0
        (out / "reference.json").write_text(content)
        assert self.run("run", "--config", str(cfg), "--out", str(out)) == 2
        assert "config error" in capsys.readouterr().err

    def test_corrupt_explicit_reference_file_exits_2(self, tmp_path, capsys):
        write_config(tmp_path / "ref.json", '{"value": "not a number"}')
        cfg = write_config(tmp_path / "run.cfg", BASE_1D + "output.reference = ref.json\n")
        assert self.run("run", "--config", str(cfg), "--out", str(tmp_path / "o")) == 2
        assert "config error" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["run", "compare"])
    def test_corrupt_model_file_exits_2(self, tmp_path, capsys, command):
        model = write_config(tmp_path / "model.json", '{"r_fem": 2.0}')
        cfg = write_config(
            tmp_path / "m.cfg",
            "problem.d = 1\nproblem.nu = 2.5\nproblem.max_modes = 12\n"
            f"adaptivity.mode = apriori\nadaptivity.model_file = {model}\n"
            "adaptivity.budgets = 20,80\n",
        )
        assert self.run(command, "--config", str(cfg), "--out", str(tmp_path / "o")) == 2
        assert "config error" in capsys.readouterr().err

    def test_compare_command_seeded(self, tmp_path):
        out = tmp_path / "o"
        fit_cfg = write_config(
            tmp_path / "fit.cfg",
            "problem.d = 1\nproblem.nu = 2.5\nproblem.max_modes = 12\n"
            "adaptivity.pilot_depth = 2\nadaptivity.pilot_modes = 4\n",
        )
        assert self.run("fit", "--config", str(fit_cfg), "--out", str(out)) == 0
        cfg = write_config(
            tmp_path / "cmp.cfg",
            "problem.d = 1\nproblem.nu = 2.5\nproblem.max_modes = 12\n"
            "adaptivity.mode = apriori\n"
            f"adaptivity.model_file = {out / 'model.json'}\n"
            "adaptivity.budgets = 20,80,320\n"
            "mimc.random_vars = 4\n",
        )
        out1, out2 = tmp_path / "c1", tmp_path / "c2"
        assert self.run("compare", "--config", str(cfg), "--out", str(out1), "--seed", "5") == 0
        assert self.run("compare", "--config", str(cfg), "--out", str(out2), "--seed", "5") == 0
        h1, rows1, _ = read_csv(out1 / "compare.csv")
        _, rows2, _ = read_csv(out2 / "compare.csv")
        assert h1 == list(cli.COMPARE_COLUMNS)
        assert rows1 == rows2
