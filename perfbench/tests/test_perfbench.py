"""Tests of the benchmark itself, on two-budget ("tiny") instances of each workload.

    python3 -m pytest perfbench/tests
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import gate  # noqa: E402
import run  # noqa: E402

WORKLOADS = gate.workload_names()

# Layer counts that depend only on the program's inputs.
DETERMINISTIC = (
    "pde_solver.solve_qoi.calls",
    "misc_core.cache.hits",
    "misc_core.cache.misses",
    "quadrature.SparseLevelVector.created",
    "pde_solver.cg.iterations",
)


def benchmark_json():
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def test_benchmark_json_names_what_run_emits():
    spec = benchmark_json()
    assert {w["name"] for w in spec["workloads"]} == set(WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER


@pytest.mark.parametrize("workload", WORKLOADS)
def test_untraced_run_emits_every_end_to_end_metric(workload):
    result = run.measure(workload, seed=5, seconds=1, trace=False, size="tiny")["result"]
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] >= run.MIN_REPS
    assert {k: v["unit"] for k, v in result["metrics"].items()} == run.END_TO_END
    assert all(v["value"] > 0 for v in result["metrics"].values())


@pytest.fixture(scope="module", params=WORKLOADS)
def traced_twice(request):
    outs = [run.measure(request.param, seed=5, seconds=1, trace=True, size="tiny")
            for _ in range(2)]
    return request.param, [out["result"] for out in outs]


def test_traced_run_emits_every_layer_metric(traced_twice):
    _, results = traced_twice
    for result in results:
        assert result["correct"] and result["failed"] == 0, result
        assert {k: v["unit"] for k, v in result["metrics"].items()} == run.PER_LAYER


def test_layer_counts_repeat_exactly(traced_twice):
    workload, (first, second) = traced_twice
    for name in DETERMINISTIC:
        assert first["metrics"][name]["value"] == second["metrics"][name]["value"], name
    assert first["metrics"]["pde_solver.solve_qoi.calls"]["value"] > 0
    if workload == "study-3d":
        assert first["metrics"]["pde_solver.cg.iterations"]["value"] > 0


@pytest.fixture(scope="module", params=WORKLOADS)
def tiny_outputs(request):
    bench_run = run.BenchmarkRun(request.param, seed=5, size="tiny")
    record = bench_run.repetition(trace=False)
    assert record is not None and record["passed"], bench_run.problems
    return request.param, record["outputs"], bench_run.golden


def _bumped(value):
    # 1e-8 is far outside the gate's tolerances, relative or absolute.
    return value + 1 if isinstance(value, int) else value + 1e-8 * max(abs(value), 1.0)


def _perturbed(golden, key):
    changed = json.loads(json.dumps(golden))
    if isinstance(changed[key], list):
        changed[key][-1] = _bumped(changed[key][-1])
    else:
        changed[key] = _bumped(changed[key])
    return changed


def test_gate_rejects_a_perturbed_golden_value(tiny_outputs):
    workload, outputs, golden = tiny_outputs
    assert set(golden) == set(gate.golden_from(outputs))
    assert gate.check(workload, outputs, golden) == []
    for key in golden:
        if key == "budgets":
            continue
        assert gate.check(workload, outputs, _perturbed(golden, key)), key


def test_gate_rejects_unreproduced_mimc_and_slow_convergence(tiny_outputs):
    workload, outputs, golden = tiny_outputs
    changed = dict(outputs)
    if workload == "compare-1d":
        changed["mimc_recheck"] = [outputs["mimc_recheck"][0] * 2] + outputs["mimc_recheck"][1:]
        assert gate.check(workload, changed, golden)
        changed = dict(outputs, mimc_err=[e * 0 for e in outputs["mimc_err"]],
                       mimc_recheck=[0.0] * len(outputs["mimc_recheck"]))
        assert any("above mimc error" in p for p in gate.check(workload, changed, golden))
    elif workload in gate.SLOPE_AT_MOST:
        changed["slope"] = gate.SLOPE_AT_MOST[workload] / 2
        assert gate.check(workload, changed, golden)


def test_tracer_classifies_solver_paths():
    sys.path.insert(0, str(ROOT / "src"))
    import tracer

    assert tracer.solver_path((3,), {1: 0.5}) == "tridiag"
    assert tracer.solver_path((2, 2, 2), {}) == "dst"
    assert tracer.solver_path((2, 2, 2), {1: 0.0}) == "dst"
    assert tracer.solver_path((2, 2, 2), {1: 0.5}) == "cg"


def test_fails_without_program_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / BENCH.name,
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    proc = subprocess.run(
        [sys.executable, f"{BENCH.name}/run.py", "--workload", WORKLOADS[0], "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
