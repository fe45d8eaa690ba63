import itertools
import json
import math
import time
import warnings
from pathlib import Path

import pytest

from miscpde import cli, random_field
from miscpde.cli import (
    ConfigError,
    compare_driver,
    fit_driver,
    fitted_slope,
    lebesgue_rows,
    mimc_plan,
    parse_config_text,
    predict_report,
    read_config,
    read_csv,
    study_driver,
    write_csv,
)
from miscpde.adaptation import ErrorModel, sweep_apriori
from miscpde.misc_core import IndexSet, MiscEvaluator, MixedIndex, mimc_estimate
from miscpde.pde_solver import QoISpec
from miscpde.quadrature import SparseLevelVector
from miscpde.random_field import FieldSpec


def write_config(path: Path, text: str) -> Path:
    path.write_text(text)
    return path


def command_cases(commands, cases):
    """A parametrization over each command and case; the first command's
    cases keep the ids of the case alone."""
    return [pytest.param(command, value, id=case if i == 0 else f"{command}-{case}")
            for i, command in enumerate(commands) for case, value in cases.items()]


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

    def test_repeated_key(self):
        with pytest.raises(ConfigError, match="line 3: config key 'a.b' is set twice"):
            parse_config_text("a.b = 1\nc.d = 2\na.b = 1\n")

    def test_typed_values(self, tmp_path):
        cfg = read_config(write_config(tmp_path / "t.cfg", "problem.d = 3\nproblem.nu = 2.5\n"
                                       "problem.x0 = 0.5,0.25,0.5\nadaptivity.budgets = 1,2.5\n"))
        assert cfg["problem.d"] == 3 and isinstance(cfg["problem.d"], int)
        assert cfg["problem.nu"] == 2.5
        assert cfg["problem.x0"] == (0.5, 0.25, 0.5)
        assert cfg["adaptivity.budgets"] == (1.0, 2.5)
        assert cfg["problem.sigma"] == 0.2 and cfg["adaptivity.mode"] == "apriori"

    def test_required_and_type_errors(self, tmp_path):
        with pytest.raises(ConfigError, match="config key 'problem.d'"):
            read_config(write_config(tmp_path / "x.cfg", "problem.d = abc\nproblem.nu = 2.5\n"))
        with pytest.raises(ConfigError, match="missing required config key 'problem.nu'"):
            read_config(write_config(tmp_path / "n.cfg", "problem.d = 1\n"))

    def test_config_keys_are_those_of_the_readme(self):
        readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
        block = readme.split("```ini\n", 1)[1].split("```", 1)[0]
        assert set(parse_config_text(block)) == set(cli.CONFIG_KEYS)
        assert len(cli.CONFIG_KEYS) == 15

    def test_missing_file_reference(self, tmp_path):
        # The read takes the name from the config's directory; the file
        # must exist only where it is loaded.
        cfg = read_config(write_config(tmp_path / "m.cfg", "problem.d = 1\nproblem.nu = 2.5\n"
                                       "adaptivity.model_file = absent.json\n"))
        assert cfg["adaptivity.model_file"] == tmp_path / "absent.json"
        with pytest.raises(ConfigError, match="unreadable model file .*absent.json"):
            cli.load_model(cfg["adaptivity.model_file"])

    def test_budgets_must_increase(self, tmp_path):
        with pytest.raises(ConfigError):
            read_config(write_config(tmp_path / "b.cfg", BASE_1D.replace("20,80,320", "100,100")))

    def test_auto_budget_ladder(self, tmp_path):
        cfg = read_config(write_config(tmp_path / "a.cfg", BASE_1D.replace("20,80,320", "auto:3")))
        assert cfg["adaptivity.budgets"] == (20.0, 80.0, 320.0)
        cfg = read_config(write_config(tmp_path / "d3.cfg", "problem.d = 3\nproblem.nu = 4.5\n"))
        assert cfg["adaptivity.budgets"][0] == 500.0


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

    def test_fitted_slope(self):
        works = [10, 100, 1000]
        errors = [1e-1, 1e-3, 1e-5]
        assert fitted_slope(works, errors) == pytest.approx(-2.0, abs=1e-12)

    def test_fitted_slope_through_equal_works(self):
        # One point per distinct work: the repeated works add nothing, and
        # one distinct work has no slope.
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert fitted_slope([10, 10, 100, 100], [1e-1, 1e-1, 1e-3, 1e-3]) == pytest.approx(-2.0)
            assert math.isnan(fitted_slope([100, 100], [1e-3, 1e-3]))

    def test_mimc_plan_within_budget(self):
        for budget in (200.0, 5000.0, 80000.0):
            levels, counts = mimc_plan(budget, 1, 2.0)
            cost = 0
            for alpha, m in zip(levels, counts):
                corners = cli.misc_core.corners(alpha)
                cost += m * sum(cli.pde_solver.unknowns(a) for _, a in corners)
            assert cost <= 1.05 * budget
            assert counts[0] >= counts[-1] >= 1

    @pytest.mark.parametrize("d", [1, 2])
    # At 3000 in 2-D the middle level of degree 2 would get no whole
    # sample while the outer ones would: the degree is cut.
    @pytest.mark.parametrize("budget", [200.0, 3000.0, 5000.0, 80000.0, 2.0e6])
    def test_mimc_plan_gamma_1_matches_integer_costs(self, budget, d):
        # The plan as computed with integer level costs, before gamma was
        # read: whole total-degree layers |alpha - 1| = ell while each of
        # their samples costs at most a quarter of the budget, then the
        # deepest layer cut while one of its levels gets no whole sample.
        # In 1-D a layer is the one level (ell + 1,).
        layers = []
        for ell in range(cli.MIMC_MAX_LEVEL):
            layer = sorted(alpha for alpha in itertools.product(range(1, ell + 2), repeat=d)
                           if sum(a - 1 for a in alpha) == ell)
            costs = [sum(cli.pde_solver.unknowns(a) for _, a in cli.misc_core.corners(alpha))
                     for alpha in layer]
            if max(costs) > budget / 4.0 and layers:
                break
            layers.append(list(zip(layer, costs)))
        while len(layers) > 1:
            plan = [(ell, alpha, c) for ell, layer in enumerate(layers) for alpha, c in layer]
            weights = [2.0 ** (-2.0 * ell) / math.sqrt(c) for ell, _, c in plan]
            norm = sum(w * c for w, (_, _, c) in zip(weights, plan))
            counts = [int(budget * w / norm) for w in weights]
            if min(counts[-len(layers[-1]):]) >= 1:
                break
            layers.pop()
        levels = [alpha for layer in layers for alpha, _ in layer]
        if len(layers) > 1:
            counts = [max(1, c) for c in counts]
        else:
            counts = [max(1, int(budget / layers[0][0][1]))]
        assert mimc_plan(budget, d, 2.0, 1.0) == mimc_plan(budget, d, 2.0) == (levels, counts)

    @pytest.mark.parametrize("d", [1, 3])
    def test_mimc_levels_sum_to_the_combination_value(self, d, field1, qoi1):
        # With no sampled variable every sample is the deterministic mixed
        # difference, so the estimate is the combination technique over
        # the plan's spatial set.
        if d == 1:
            field_spec, qoi_spec, budget = field1, qoi1, 5000.0
        else:
            field_spec, qoi_spec = FieldSpec(3, 4.5, 10), QoISpec(0.2, (0.3, 0.2, 0.6))
            budget = 1.3e5
        levels, counts = mimc_plan(budget, d, 2.0)
        assert max(max(alpha) for alpha in levels) >= 3
        estimate = mimc_estimate(levels, counts, field_spec, qoi_spec, 0, seed=3).value
        spatial = IndexSet(MixedIndex(alpha, SparseLevelVector()) for alpha in levels)
        value = MiscEvaluator(field_spec, qoi_spec).evaluate(spatial).value
        assert abs(estimate - value) <= 1e-12 * abs(value)

    def test_mimc_plan_costs_unknowns_to_the_gamma(self):
        # d = 1 levels 1..4 have 5, 11, 23, 47 unknowns, and level l > 1 has
        # corners l and l - 1, so at gamma = 2 a sample costs 25, 146, 650,
        # 2738.  Level 4 exceeds 4000 / 4.  With r_fem = 2 the weights
        # 4^-ell / sqrt(c) times 4000 / sum(4^-ell sqrt(c)) give 83.2, 8.6, 1.02.
        assert mimc_plan(4000.0, 1, 2.0, 2.0) == ([(1,), (2,), (3,)], [83, 8, 1])
        assert mimc_plan(4000.0, 1, 2.0, 1.0) == ([(1,), (2,), (3,), (4,)], [479, 67, 11, 2])

    @pytest.mark.parametrize(
        "budgets", [[], [0.0, 80.0], [-20.0, 80.0], [80.0, 20.0], [20.0, math.inf]],
        ids=["empty", "zero", "negative", "decreasing", "infinite"],
    )
    def test_study_driver_rejects_bad_budgets(self, field1, qoi1, budgets):
        with pytest.raises(ConfigError):
            study_driver(field1, qoi1, budgets, mode="deterministic")

    def test_drivers_accept_only_one_thread(self, field1, qoi1):
        model = ErrorModel(r_fem=2.0, g_tilde=(1.0,))
        with pytest.raises(ValueError, match="threads must be 1"):
            study_driver(field1, qoi1, [80.0], mode="deterministic", threads=2)
        with pytest.raises(ValueError, match="threads must be 1"):
            compare_driver(field1, qoi1, [80.0], model, n_random_vars=1, seed=0, threads=2)


@pytest.fixture(scope="module", params=[1, 3])
def tiny_study(request, field1, qoi1, field3, qoi3):
    """A fitted model and budgets of a tiny a-priori study in 1-D or 3-D."""
    if request.param == 1:
        return field1, qoi1, fit_driver(field1, qoi1, n_modes=4, depth=2), [80.0, 320.0, 1280.0]
    return field3, qoi3, fit_driver(field3, qoi3, n_modes=3, depth=2), [2000.0, 8000.0]


class TestStudyEvaluationOrder:
    """``study_driver`` sums the mixed differences of one listing; no value
    depends on how its grids were reached."""

    @pytest.mark.parametrize("reference", [None, 0.25])
    def test_estimates_match_fresh_evaluators(self, tiny_study, reference):
        field_spec, qoi_spec, model, budgets = tiny_study
        study = study_driver(field_spec, qoi_spec, budgets, error_model=model, reference=reference)
        needed = [*budgets, 4.0 * budgets[-1]] if reference is None else budgets
        sets = sweep_apriori(model, needed, field_spec.d)
        fresh = MiscEvaluator(field_spec, qoi_spec)
        values = fresh.prefix_estimates(sets[-1], [len(s) for s in sets])
        # Budget order on one evaluator, each set its own listing and the
        # reference set last, gives the same values and solves the same points.
        ascending = MiscEvaluator(field_spec, qoi_spec)
        one_by_one = [ascending.prefix_estimates(s, [len(s)])[0] for s in sets]
        assert [v.hex() for v in one_by_one] == [v.hex() for v in values]
        for record, index_set, value in zip(study.records, study.sets, values):
            assert record.estimate.hex() == value.hex()
            combo = MiscEvaluator(field_spec, qoi_spec).evaluate(index_set, mode="combination")
            assert abs(record.estimate - combo.value) <= 1e-10 * abs(combo.value)
            assert record.work == combo.work
        if reference is None:
            assert study.reference.hex() == values[-1].hex()
        assert study.evaluator.cache.misses == ascending.cache.misses
        assert study.evaluator.solved_dof == ascending.solved_dof


class TestCommands:
    def run(self, *argv):
        return cli.main(list(argv))

    def test_lebesgue_command(self, tmp_path, capsys):
        assert self.run("lebesgue", "--max-beta", "5", "--out", str(tmp_path)) == 0
        header, rows, _ = read_csv(tmp_path / "lebesgue.csv")
        assert header == ["beta", "leb_delta"]
        assert len(rows) == 5

    @pytest.mark.parametrize("max_beta", [0, cli.LEBESGUE_MAX_BETA + 1, 31])
    def test_lebesgue_outside_the_cap_exits_2(self, tmp_path, capsys, monkeypatch, max_beta):
        def refuse(beta):
            raise AssertionError(f"computed the weights of level {beta}")

        monkeypatch.setattr(cli.quadrature, "leb_delta", refuse)
        assert self.run("lebesgue", "--max-beta", str(max_beta), "--out", str(tmp_path)) == 2
        assert capsys.readouterr().err.count("\n") == 1
        assert not (tmp_path / "lebesgue.csv").exists()

    def test_predict_command(self, tmp_path):
        cfg = write_config(tmp_path / "p.cfg", "problem.d = 1\nproblem.nu = 2.5\n")
        assert self.run("predict", "--config", str(cfg), "--out", str(tmp_path)) == 0
        report = json.loads((tmp_path / "prediction.json").read_text())
        assert report["rates"]["theory"] == 0.5

    def test_predict_at_large_nu_is_quick_and_small(self, tmp_path):
        # The max-over-s program stops where no larger order can raise the
        # rate, so neither its time nor prediction.json grows with nu.
        sizes = []
        for nu in ("6.5", "1e6"):
            cfg = write_config(tmp_path / "p.cfg", f"problem.d = 1\nproblem.nu = {nu}\n")
            start = time.perf_counter()
            assert self.run("predict", "--config", str(cfg), "--out", str(tmp_path)) == 0
            assert time.perf_counter() - start < 5.0
            sizes.append(len((tmp_path / "prediction.json").read_text()))
        assert sizes[1] <= sizes[0] + 64

    def test_missing_config_key_exits_2(self, tmp_path):
        cfg = write_config(tmp_path / "bad.cfg", "problem.d = 1\n")
        assert self.run("predict", "--config", str(cfg), "--out", str(tmp_path)) == 2

    @pytest.mark.parametrize("command", ["predict", "run"])
    @pytest.mark.parametrize("gamma", ["0.5", "nan"])
    def test_bad_gamma_exits_2(self, tmp_path, capsys, command, gamma):
        cfg = write_config(tmp_path / "g.cfg", BASE_1D.replace("solver.gamma = 1.0",
                                                               f"solver.gamma = {gamma}"))
        assert self.run(command, "--config", str(cfg), "--out", str(tmp_path / "o")) == 2
        assert "solver.gamma" in capsys.readouterr().err

    @pytest.mark.parametrize("factor", ["1.0", "0.5", "inf", "nan"])
    def test_bad_reference_factor_exits_2(self, tmp_path, capsys, factor):
        cfg = write_config(tmp_path / "r.cfg", BASE_1D + f"output.reference_factor = {factor}\n")
        assert self.run("run", "--config", str(cfg), "--out", str(tmp_path / "o")) == 2
        assert "output.reference_factor" in capsys.readouterr().err

    @pytest.mark.parametrize("universe", [
        "adaptivity.universe_alpha = 9\nadaptivity.universe_beta = 3\nadaptivity.universe_vars = 4\n",
        "adaptivity.universe_alpha = 0\n",
        "adaptivity.universe_beta = 0\n",
        "adaptivity.universe_vars = -1\n",
        "adaptivity.universe_alpha = 1\nadaptivity.universe_vars = 13\n",
    ], ids=["over-cap", "alpha-0", "beta-0", "vars-negative", "vars-beyond-modes"])
    def test_bad_bruteforce_universe_exits_2(self, tmp_path, capsys, universe):
        # No universe key is known: each one is refused, in adaptive mode
        # as in the others.
        cfg = write_config(tmp_path / "u.cfg", BASE_1D.replace("deterministic", "adaptive")
                           + universe)
        out = tmp_path / "o"
        assert self.run("run", "--config", str(cfg), "--out", str(out)) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and "unknown config key 'adaptivity.universe_" in err[0]
        assert not out.exists()

    @pytest.mark.parametrize("command, r_fem",
                             command_cases(("run", "fit"), {v: v for v in ("0", "-1", "nan")}))
    def test_bad_deterministic_rate_exits_2(self, tmp_path, capsys, command, r_fem):
        cfg = write_config(tmp_path / "d.cfg", BASE_1D + f"adaptivity.r_fem = {r_fem}\n")
        assert self.run(command, "--config", str(cfg), "--out", str(tmp_path / "o")) == 2
        assert "config error" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["fit", "run", "compare"])
    def test_removed_frontier_width_exits_2(self, tmp_path, capsys, command):
        # Sets range over every fitted variable; a config that still sets
        # the old frontier width would not get what it asks for.
        model = tmp_path / "model.json"
        model.write_text(ErrorModel(r_fem=2.0, g_tilde=(1.0, 1.5)).to_json())
        cfg = write_config(tmp_path / "w.cfg", BASE_1D.replace("deterministic", "apriori")
                           + f"adaptivity.model_file = {model}\n"
                           + "adaptivity.frontier_width = 2\nmimc.random_vars = 2\n")
        out = tmp_path / "o"
        assert self.run(command, "--config", str(cfg), "--out", str(out)) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("config error:")
        assert "unknown config key 'adaptivity.frontier_width'" in err[0]
        assert not out.exists()

    @pytest.mark.parametrize("command", ["predict", "fit", "run", "compare", "solve"])
    def test_unknown_key_exits_2(self, tmp_path, capsys, command):
        cfg = write_config(tmp_path / "k.cfg", BASE_1D.replace("adaptivity.budgets = 20,80,320",
                                                               "adaptivity.budget = 80"))
        out = tmp_path / "o"
        assert self.run(command, "--config", str(cfg), "--out", str(out)) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("config error:")
        assert "unknown config key 'adaptivity.budget'" in err[0]
        assert not out.exists()

    def test_unknown_mode_exits_2(self, tmp_path, capsys):
        cfg = write_config(tmp_path / "m.cfg", BASE_1D.replace("deterministic", "threshold"))
        assert self.run("run", "--config", str(cfg), "--out", str(tmp_path / "o")) == 2
        assert "unknown adaptivity mode 'threshold'" in capsys.readouterr().err

    def test_removed_bruteforce_mode_exits_2(self, tmp_path, capsys):
        cfg = write_config(tmp_path / "m.cfg", BASE_1D.replace("deterministic", "bruteforce"))
        out = tmp_path / "o"
        assert self.run("run", "--config", str(cfg), "--out", str(out)) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and "unknown adaptivity mode 'bruteforce'" in err[0]
        assert not out.exists()

    @pytest.mark.parametrize("command", ["predict", "fit", "run", "compare", "solve"])
    def test_repeated_key_exits_2(self, tmp_path, capsys, command):
        cfg = write_config(tmp_path / "k.cfg", BASE_1D + "problem.nu = 4.5\n")
        out = tmp_path / "o"
        assert self.run(command, "--config", str(cfg), "--out", str(out)) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("config error:")
        assert "config key 'problem.nu' is set twice" in err[0]
        assert not out.exists()

    @pytest.mark.parametrize("d", [1, 3])
    def test_run_adaptive_writes_readable_files(self, tmp_path, capsys, d):
        base = BASE_1D if d == 1 else BASE_1D.replace("problem.d = 1", "problem.d = 3").replace(
            "problem.nu = 2.5", "problem.nu = 4.5").replace("20,80,320", "125,500,2000")
        cfg = write_config(tmp_path / "a.cfg", base.replace("deterministic", "adaptive"))
        out = tmp_path / "o"
        assert self.run("run", "--config", str(cfg), "--out", str(out)) == 0
        header, rows, footer = read_csv(out / "runs.csv")
        assert header == list(cli.RUN_COLUMNS)
        assert len(rows) == 3
        assert float(footer["reference"]) == cli.read_reference(out / "reference.json")[1]
        works = []
        for row in rows:
            record = dict(zip(header, row))
            budget = float(record["budget"])
            stored = IndexSet.from_json((out / f"set_budget_{int(budget)}.json").read_text())
            assert stored == cli.adaptation.build_set_adaptive(
                FieldSpec(d, 2.5 if d == 1 else 4.5, 12), cli.default_qoi_spec(d), budget)
            assert stored.nominal_work() == int(record["work"]) <= budget
            works.append(int(record["work"]))
        # The margin's solves count: more DOF solved than the top set holds.
        assert int(footer["solved_dof"]) > max(works)
        assert f"solved DOF: {footer['solved_dof']}" in capsys.readouterr().out

    def test_reference_cache_tells_modes_apart(self, tmp_path):
        # An adaptive run into a deterministic run's directory: its
        # reference is its own, as in a fresh directory.
        first = write_config(tmp_path / "det.cfg", BASE_1D)
        second = write_config(tmp_path / "ad.cfg", BASE_1D.replace("deterministic", "adaptive"))
        shared, fresh = tmp_path / "shared", tmp_path / "fresh"
        assert self.run("run", "--config", str(first), "--out", str(shared)) == 0
        stale = cli.read_reference(shared / "reference.json")[1]
        assert self.run("run", "--config", str(second), "--out", str(shared)) == 0
        assert self.run("run", "--config", str(second), "--out", str(fresh)) == 0
        value = cli.read_reference(fresh / "reference.json")[1]
        assert value != stale
        assert cli.read_reference(shared / "reference.json")[1] == value
        assert (shared / "runs.csv").read_bytes() == (fresh / "runs.csv").read_bytes()

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

    def test_budgets_of_one_integer_part_write_their_own_set_files(self, tmp_path, capsys):
        cfg = write_config(tmp_path / "run.cfg", BASE_1D.replace("20,80,320", "100.2,100.7,400"))
        out = tmp_path / "o"
        assert self.run("run", "--config", str(cfg), "--out", str(out)) == 0
        names = ["set_budget_100.2.json", "set_budget_100.7.json", "set_budget_400.json"]
        assert sorted(p.name for p in out.glob("set_budget_*.json")) == names
        header, rows, _ = read_csv(out / "runs.csv")
        for name, row in zip(names, rows):
            stored = IndexSet.from_json((out / name).read_text())
            assert stored.nominal_work() == int(dict(zip(header, row))["work"])
        # Each budget prints as its set file names it, in run and in compare.
        printed = ["100.2", "100.7", "400"]
        lines = capsys.readouterr().out.splitlines()
        assert [line.split()[1] for line in lines if line.startswith("budget ")] == printed
        cfg = self.compare_config(tmp_path)
        cfg.write_text(cfg.read_text().replace("20,80,320", "100.2,100.7,400"))
        assert self.run("compare", "--config", str(cfg), "--out", str(tmp_path / "c")) == 0
        lines = capsys.readouterr().out.splitlines()
        assert [line.split()[1] for line in lines if line.startswith("budget ")] == printed

    def test_budgets_of_one_set_write_a_nan_slope(self, tmp_path):
        cfg = write_config(tmp_path / "run.cfg", BASE_1D.replace("20,80,320", "100.2,100.7"))
        out = tmp_path / "o"
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            assert self.run("run", "--config", str(cfg), "--out", str(out)) == 0
        header, rows, footer = read_csv(out / "runs.csv")
        works = [dict(zip(header, row))["work"] for row in rows]
        assert len(works) == 2 and works[0] == works[1]
        assert footer["fitted_slope"] == "nan"

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

    def test_solve_command(self, tmp_path, capsys):
        cfg = write_config(tmp_path / "s.cfg", "problem.d = 1\nproblem.nu = 2.5\n")
        assert self.run("solve", "--config", str(cfg), "--alpha", "2",
                        "--out", str(tmp_path)) == 0
        out = capsys.readouterr().out
        assert "unknowns = 11" in out

    @pytest.mark.parametrize("budgets", ["auto:x", "100,abc", "auto:0", "0,80", "-20,80",
                                         "autox", "auto6", "auto:"])
    def test_bad_budgets_exit_2(self, tmp_path, capsys, budgets):
        cfg = write_config(tmp_path / "b.cfg", BASE_1D.replace("20,80,320", budgets))
        assert self.run("run", "--config", str(cfg), "--out", str(tmp_path / "o")) == 2
        assert "config error" in capsys.readouterr().err

    def test_threads_option_is_gone(self, tmp_path, capsys):
        cfg = write_config(tmp_path / "t.cfg", BASE_1D)
        with pytest.raises(SystemExit) as exit_info:
            self.run("run", "--config", str(cfg), "--out", str(tmp_path), "--threads", "2")
        assert exit_info.value.code == 2
        assert "--threads" in capsys.readouterr().err

    @pytest.mark.parametrize("alpha", ["2,x", "0", "2,2", "19", "60", "1000000000"])
    def test_bad_solve_alpha_exits_2(self, tmp_path, capsys, alpha):
        cfg = write_config(tmp_path / "s.cfg", "problem.d = 1\nproblem.nu = 2.5\n")
        assert self.run("solve", "--config", str(cfg), "--alpha", alpha,
                        "--out", str(tmp_path)) == 2
        assert "config error" in capsys.readouterr().err

    def test_solve_alpha_cap_is_inclusive(self, tmp_path, capsys, monkeypatch):
        cfg = write_config(tmp_path / "s.cfg", "problem.d = 1\nproblem.nu = 2.5\n")
        for cap, status in ((23, 0), (22, 2)):   # alpha = 3 has 23 unknowns
            monkeypatch.setattr(cli, "SOLVE_MAX_UNKNOWNS", cap)
            assert self.run("solve", "--config", str(cfg), "--alpha", "3",
                            "--out", str(tmp_path)) == status
        assert "more than 22 unknowns" in capsys.readouterr().err

    def test_dimension_without_default_window_exits_2(self, tmp_path, capsys):
        cfg = write_config(tmp_path / "s.cfg", "problem.d = 2\nproblem.nu = 2.5\n")
        assert self.run("solve", "--config", str(cfg), "--out", str(tmp_path)) == 2
        assert "config error" in capsys.readouterr().err

    @pytest.mark.parametrize("content", ["{not json", "[1, 2]", '{"value": NaN}',
                                         '{"value": Infinity}'])
    def test_corrupt_reference_file_exits_2(self, tmp_path, capsys, content):
        cfg = write_config(tmp_path / "run.cfg", BASE_1D.replace("20,80,320", "20,80"))
        out = tmp_path / "o"
        assert self.run("run", "--config", str(cfg), "--out", str(out)) == 0
        capsys.readouterr()
        (out / "reference.json").write_text(content)
        assert self.run("run", "--config", str(cfg), "--out", str(out)) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("config error:")

    def test_corrupt_explicit_reference_file_exits_2(self, tmp_path, capsys):
        # A file's value and a literal value must both be finite numbers.
        for reference, content in (("ref.json", '{"value": "not a number"}'),
                                   ("ref.json", '{"value": Infinity}'),
                                   ("nan", None), ("-inf", None)):
            if content is not None:
                write_config(tmp_path / "ref.json", content)
            cfg = write_config(tmp_path / "run.cfg", BASE_1D + f"output.reference = {reference}\n")
            out = tmp_path / "o"
            assert self.run("run", "--config", str(cfg), "--out", str(out)) == 2
            err = capsys.readouterr().err.splitlines()
            assert len(err) == 1 and err[0].startswith("config error:")
            assert not out.exists()

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

    @pytest.mark.parametrize("command", ["run", "compare"])
    @pytest.mark.parametrize("c_e", ["0.0", "-1.0", "Infinity"])
    def test_bad_model_constant_exits_2(self, tmp_path, capsys, command, c_e):
        model = write_config(tmp_path / "model.json",
                             f'{{"r_fem": 2.0, "c_e": {c_e}, "g_tilde": [1.0], "residual": 0.0}}')
        cfg = write_config(
            tmp_path / "m.cfg",
            "problem.d = 1\nproblem.nu = 2.5\nproblem.max_modes = 12\n"
            f"adaptivity.mode = apriori\nadaptivity.model_file = {model}\n"
            "adaptivity.budgets = 20,80\nmimc.random_vars = 2\n",
        )
        out = tmp_path / "o"
        assert self.run(command, "--config", str(cfg), "--out", str(out)) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("config error:") and "c_e" in err[0]
        assert not out.exists()

    # Every command checks the pilot settings, not only fit, which uses them.
    @pytest.mark.parametrize("command, pilot", command_cases(("fit", "predict", "run", "compare", "solve"), {
        "modes-beyond-max-modes": "adaptivity.pilot_modes = 9\n",
        "modes-0": "adaptivity.pilot_modes = 0\n",
        "depth-1": "adaptivity.pilot_depth = 1\n",
    }))
    def test_bad_pilot_settings_exit_2(self, tmp_path, capsys, command, pilot):
        cfg = write_config(tmp_path / "f.cfg",
                           "problem.d = 1\nproblem.nu = 2.5\nproblem.max_modes = 8\n" + pilot)
        out = tmp_path / "o"
        assert self.run(command, "--config", str(cfg), "--out", str(out)) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("config error:")
        assert f"config key '{pilot.split(' =')[0]}'" in err[0]
        assert not out.exists()

    def compare_config(self, tmp_path, extra="", mode="apriori"):
        """A 1-D compare config with a two-variable model: 20, 80 and 320 budgets."""
        model = tmp_path / "model.json"
        model.write_text(ErrorModel(r_fem=2.0, g_tilde=(1.0, 1.5)).to_json())
        return write_config(tmp_path / "c.cfg", BASE_1D.replace("deterministic", mode)
                            + f"adaptivity.model_file = {model}\n" + extra)

    @pytest.mark.parametrize("command", ["fit", "run", "compare", "solve"])
    def test_modes_past_the_frequency_cap_exit_2(self, tmp_path, capsys, monkeypatch, command):
        # 1-D has too few frequencies below the cap for 100,000 modes.
        def no_solves(*args):
            raise AssertionError("solved before the config was checked")

        monkeypatch.setattr(cli.pde_solver, "solve_qoi_batch", no_solves)
        monkeypatch.setattr(cli.pde_solver, "solve_qoi", no_solves)
        cfg = self.compare_config(tmp_path)
        cfg.write_text(cfg.read_text().replace("problem.max_modes = 12", "problem.max_modes = 100000"))
        out = tmp_path / "o"
        assert self.run(command, "--config", str(cfg), "--out", str(out)) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("config error:") and "frequency cap" in err[0]
        assert not out.exists()

    @pytest.mark.parametrize("d", [1, 3])
    def test_modes_past_the_cap_exit_2_before_enumeration(self, tmp_path, capsys, monkeypatch, d):
        def no_enumeration(*args):
            raise AssertionError("enumerated modes before the config was checked")

        monkeypatch.setattr(random_field, "_ordered_modes", no_enumeration)
        cfg = write_config(tmp_path / "c.cfg", f"problem.d = {d}\nproblem.nu = 4.5\n"
                           f"problem.max_modes = {cli.MAX_MODES + 1}\n")
        out = tmp_path / "o"
        assert self.run("fit", "--config", str(cfg), "--out", str(out)) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and "'problem.max_modes'" in err[0] and str(cli.MAX_MODES) in err[0]
        assert not out.exists()

    @pytest.mark.parametrize("command", ["fit", "run"])
    def test_amplitudes_that_underflow_exit_2(self, tmp_path, capsys, monkeypatch, command):
        # At nu = 1000 in 3-D every amplitude past |k| = 1 underflows to 0,
        # so no box holds 10 modes of nonzero amplitude.
        enumerate_modes = random_field._enumerate_modes

        def small_boxes(d, nu, k_cap):
            if k_cap > 8:
                raise AssertionError(f"enumerated the box |k| <= {k_cap}")
            return enumerate_modes(d, nu, k_cap)

        monkeypatch.setattr(random_field, "_enumerate_modes", small_boxes)
        cfg = write_config(tmp_path / "c.cfg", "problem.d = 3\nproblem.nu = 1000\n"
                           "problem.max_modes = 10\nadaptivity.mode = deterministic\n")
        out = tmp_path / "o"
        assert self.run(command, "--config", str(cfg), "--out", str(out)) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("config error:")
        assert "10 modes" in err[0] and "nu = 1000" in err[0]
        assert not out.exists()

    def test_the_mode_cap_is_what_the_frequency_cap_holds_in_1d(self, tmp_path):
        cfg = write_config(tmp_path / "c.cfg", "problem.d = 1\nproblem.nu = 2.5\n"
                           f"problem.max_modes = {cli.MAX_MODES}\n")
        field_spec, _ = cli.problem_from_config(read_config(cfg))
        assert len(cli.mode_ordering(field_spec)) == cli.MAX_MODES
        with pytest.raises(random_field.ModeEnumerationError):
            cli.mode_ordering(FieldSpec(1, 2.5, cli.MAX_MODES + 1))

    def test_compare_reports_a_literal_reference(self, tmp_path):
        cfg = self.compare_config(tmp_path, "output.reference = 1.5\n")
        out = tmp_path / "o"
        assert self.run("compare", "--config", str(cfg), "--out", str(out)) == 0
        assert self.run("run", "--config", str(cfg), "--out", str(out)) == 0
        _, rows, footer = read_csv(out / "compare.csv")
        header, runs, _ = read_csv(out / "runs.csv")
        assert float(footer["reference"]) == 1.5
        errors = [row[header.index("abs_error")] for row in runs]
        assert [row[cli.COMPARE_COLUMNS.index("misc_error")] for row in rows] == errors

    def test_compare_honours_the_reference_factor(self, tmp_path):
        default = self.compare_config(tmp_path)
        cfg = write_config(tmp_path / "x16.cfg", default.read_text() + "output.reference_factor = 16\n")
        references = []
        for command, config, name in (("run", cfg, "runs.csv"), ("compare", cfg, "compare.csv"),
                                      ("compare", default, "compare.csv")):
            out = tmp_path / f"{command}-{config.stem}"
            assert self.run(command, "--config", str(config), "--out", str(out)) == 0
            references.append(read_csv(out / name)[2]["reference"])
        assert references[0] == references[1] != references[2]

    @pytest.mark.parametrize("mode", ["deterministic", "adaptive", "bruteforce"])
    def test_compare_needs_apriori_mode(self, tmp_path, capsys, mode):
        cfg = self.compare_config(tmp_path, mode=mode)
        out = tmp_path / "o"
        assert self.run("compare", "--config", str(cfg), "--out", str(out)) == 2
        err = capsys.readouterr().err.splitlines()
        # The read refuses a mode that no command knows before compare's own rule.
        expected = ("unknown adaptivity mode 'bruteforce'" if mode == "bruteforce"
                    else "adaptivity.mode must be apriori")
        assert len(err) == 1 and expected in err[0]
        assert not out.exists()

    # Every command checks the Monte Carlo variables, not only compare, which uses them.
    @pytest.mark.parametrize("command, n_vars", command_cases(
        ("compare", "predict", "fit", "run", "solve"), {"-1": "-1", "9": "9"}))
    def test_compare_refuses_random_vars_outside_the_modes(self, tmp_path, capsys, monkeypatch,
                                                            command, n_vars):
        def no_solves(*args):
            raise AssertionError("solved before the config was checked")

        monkeypatch.setattr(cli.pde_solver, "solve_qoi_batch", no_solves)
        monkeypatch.setattr(cli.pde_solver, "solve_qoi", no_solves)
        cfg = self.compare_config(tmp_path, f"mimc.random_vars = {n_vars}\n")
        cfg.write_text(cfg.read_text().replace("problem.max_modes = 12", "problem.max_modes = 8"))
        out = tmp_path / "o"
        assert self.run(command, "--config", str(cfg), "--out", str(out)) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("config error:") and "mimc.random_vars" in err[0]
        assert not out.exists()

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

    def test_negative_seed_exits_2_before_any_work(self, tmp_path, capsys, monkeypatch):
        def no_solves(*args):
            raise AssertionError("solved before the seed was checked")

        monkeypatch.setattr(cli.pde_solver, "solve_qoi_batch", no_solves)
        monkeypatch.setattr(cli.pde_solver, "solve_qoi", no_solves)
        cfg = self.compare_config(tmp_path)
        out = tmp_path / "o"
        assert self.run("compare", "--config", str(cfg), "--out", str(out), "--seed", "-1") == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("config error:") and "--seed" in err[0]
        assert not out.exists()
