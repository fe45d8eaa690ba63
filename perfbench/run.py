"""Benchmark of miscpde's convergence studies, end to end and per layer.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the package is imported from
``src/``.  Every repetition is a fresh single-threaded worker process
(``worker.py``) that imports miscpde, fits the error model and runs the
workload's driver; its outputs pass the correctness gate (``gate.py``)
or the repetition counts as failed.

With ``--trace 0`` repetitions run until ``--seconds`` would be
exceeded (at least three), and the end-to-end metrics are their
medians.  With ``--trace 1`` untraced and traced repetitions alternate;
the traced ones report per-layer metrics and must reproduce the
untraced outputs bit for bit and each other's counts exactly.

The last stdout line is the result object; the line before it holds
the provenance and every sample.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

import gate

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

END_TO_END = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}

PER_LAYER = {
    "pde_solver.solve_qoi.calls": "count",
    "pde_solver.solve_qoi.self_s": "s",
    "pde_solver.solved_dof": "dof",
    "pde_solver.tridiag.calls": "count",
    "pde_solver.dst.calls": "count",
    "pde_solver.cg.calls": "count",
    "pde_solver.cg.iterations": "count",
    "pde_solver.cg.iterations_max": "count",
    "random_field.a_on_axes.calls": "count",
    "random_field.a_on_axes.self_s": "s",
    "quadrature.SparseLevelVector.created": "count",
    "quadrature.SparseLevelVector.self_s": "s",
    "misc_core.evaluate.self_s": "s",
    "misc_core.tensor_value.calls": "count",
    "misc_core.tensor_value.self_s": "s",
    "misc_core.cache.hits": "count",
    "misc_core.cache.misses": "count",
    "misc_core.cache.hit_ratio": "ratio",
    "misc_core.combination_coefficients.calls": "count",
    "misc_core.combination_coefficients.self_s": "s",
    "adaptation.build_set_apriori.calls": "count",
    "adaptation.build_set_apriori.self_s": "s",
    "adaptation.members_built": "count",
    "adaptation.pilot_samples.self_s": "s",
    "adaptation.fit_rates.self_s": "s",
    "trace.overhead_s": "s",
}

MIN_REPS = 3          # untraced repetitions per run, whatever --seconds says
MIN_SETUPS = 5        # set-up samples per untraced run
LAST_START_S = 120.0  # no repetition starts later than this into the run
RUN_LIMIT_S = 170.0   # a worker still running at this point is killed

SINGLE_THREAD_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}


class BenchmarkRun:
    """The repetitions of one benchmark run and their gate results."""

    def __init__(self, workload: str, seed: int, size: str = "full"):
        self.workload = workload
        self.seed = seed
        self.size = size
        self.golden = gate.load_golden(workload, size)
        self.start = time.perf_counter()
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.samples: list[dict] = []

    def elapsed(self) -> float:
        return time.perf_counter() - self.start

    def fail(self, problem: str) -> None:
        self.failed += 1
        self.problems.append(problem)

    def repetition(self, trace: bool, phase: str = "all") -> dict | None:
        """One worker process; returns its record, or None when it did not finish."""
        self.attempted += 1
        command = [sys.executable, str(HERE / "worker.py"), self.workload, str(self.seed),
                   self.size, "1" if trace else "0", phase]
        try:
            proc = subprocess.run(command, cwd=ROOT, env={**os.environ, **SINGLE_THREAD_ENV},
                                  capture_output=True, text=True,
                                  timeout=max(1.0, RUN_LIMIT_S - self.elapsed()))
        except subprocess.TimeoutExpired:
            self.fail(f"{phase} repetition (trace={int(trace)}) timed out")
            return None
        if proc.returncode != 0:
            self.fail(f"{phase} repetition (trace={int(trace)}) exited with "
                      f"{proc.returncode}: {proc.stderr.strip()[-2000:]}")
            return None
        record = json.loads(proc.stdout.splitlines()[-1])
        self.samples.append({k: record[k] for k in ("setup_s", "wall_s", "peak_rss_mb")
                             if k in record} | {"trace": int(trace)})
        problems = gate.check(self.workload, record["outputs"], self.golden) if phase == "all" else []
        record["passed"] = not problems
        if problems:
            self.fail("; ".join(problems))
        return record

    def should_stop(self, done: int, minimum: int, seconds: float, last: float) -> bool:
        """Stop once the minimum is met and another repetition of the last one's
        length would overrun ``seconds``, or late in the run regardless."""
        elapsed = self.elapsed()
        if elapsed + last > LAST_START_S:
            return True
        return done >= minimum and elapsed + last > seconds


def measure_end_to_end(run: BenchmarkRun, seconds: float) -> tuple[dict, dict]:
    records = []
    while True:
        began = run.elapsed()
        record = run.repetition(trace=False)
        if record is not None:
            records.append(record)
        if run.should_stop(run.attempted, MIN_REPS, seconds, run.elapsed() - began):
            break
    if not records:
        raise RuntimeError("no repetition finished: " + " | ".join(run.problems))
    setups = [r["setup_s"] for r in records]
    while len(setups) < MIN_SETUPS and run.elapsed() < LAST_START_S:
        record = run.repetition(trace=False, phase="setup")
        if record is not None:
            setups.append(record["setup_s"])
    metrics = {
        "wall_s": statistics.median(r["wall_s"] for r in records),
        "setup_s": statistics.median(setups),
        "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in records),
    }
    return metrics, records[0]["provenance"]


def measure_layers(run: BenchmarkRun, seconds: float) -> tuple[dict, dict]:
    traced_records, overheads = [], []
    while True:
        began = run.elapsed()
        plain = run.repetition(trace=False)
        traced = run.repetition(trace=True)
        if plain is not None and traced is not None:
            # A repetition that failed the gate is not failed a second time.
            if traced["passed"] and traced["outputs"] != plain["outputs"]:
                run.fail("traced outputs differ from untraced outputs")
            elif traced["passed"] and traced_records and _counts(traced) != _counts(traced_records[0]):
                run.fail(f"layer counts differ between traced repetitions: "
                         f"{_counts(traced)} vs {_counts(traced_records[0])}")
            traced_records.append(traced)
            overheads.append(traced["wall_s"] - plain["wall_s"])
        if run.should_stop(len(overheads), 1, seconds, run.elapsed() - began):
            break
    if not traced_records:
        raise RuntimeError("no traced repetition finished: " + " | ".join(run.problems))
    metrics = {"trace.overhead_s": statistics.median(overheads)}
    for name, unit in PER_LAYER.items():
        if name not in metrics:
            values = [{**r["setup_layers"], **r["layers"]}[name] for r in traced_records]
            # Counts repeat exactly (checked above); times vary.
            metrics[name] = statistics.median(values) if unit == "s" else values[0]
    return metrics, traced_records[0]["provenance"]


def _counts(record: dict) -> dict:
    return {k: v for k, v in record["layers"].items() if PER_LAYER[k] != "s"}


def git_sha() -> str | None:
    """HEAD of the checkout when it is a git work tree, read without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def source_digest() -> str:
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(path.relative_to(ROOT).as_posix().encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


def cpu_model() -> str | None:
    try:
        with open("/proc/cpuinfo") as info:
            for line in info:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return None


def measure(workload: str, seed: int, seconds: float, trace: bool, size: str = "full") -> dict:
    """One benchmark run: returns the result object and a record of its samples."""
    run = BenchmarkRun(workload, seed, size)
    measured, worker_provenance = (measure_layers if trace else measure_end_to_end)(run, seconds)
    units = PER_LAYER if trace else END_TO_END
    result = {
        "correct": run.failed == 0,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {name: {"value": measured[name], "unit": units[name]} for name in units},
    }
    nproc = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    record = {
        "workload": workload, "size": size, "seed": seed, "seconds": seconds, "trace": int(trace),
        "provenance": {"git_sha": git_sha(), "src_sha256": source_digest(), "nproc": nproc,
                       "cpu_model": cpu_model(), **worker_provenance},
        "samples": run.samples,
        "problems": run.problems,
    }
    return {"result": result, "record": record}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=gate.workload_names())
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    if args.seed < 0:
        parser.error("--seed must be non-negative")
    if not (ROOT / "src" / "miscpde" / "__init__.py").is_file():
        print(f"error: no miscpde sources under {ROOT / 'src'}; run from a source checkout",
              file=sys.stderr)
        return 2
    try:
        out = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    except RuntimeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(out["record"]))
    print(json.dumps(out["result"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
