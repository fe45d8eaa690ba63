"""One repetition of a workload in a fresh process.

    python3 perfbench/worker.py WORKLOAD SEED SIZE TRACE PHASE

times ``import miscpde`` plus the error-model fit (``setup_s``) and, when
PHASE is ``all``, the workload's driver call (``wall_s``), then prints one
JSON object.  With TRACE = 1 the same steps run under ``LayerTrace``.
``run.py`` starts the workers; this file is not meant to be run by hand.
"""

from __future__ import annotations

import contextlib
import json
import platform
import resource
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def blas_threads() -> int | None:
    """Thread count of the OpenBLAS libraries loaded by numpy and scipy."""
    import ctypes

    try:
        with open("/proc/self/maps") as maps:
            libs = sorted({line.split()[-1] for line in maps if "openblas" in line})
    except OSError:
        return None
    counts = []
    for path in libs:
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            getter = getattr(lib, symbol, None)
            if getter is not None:
                getter.restype = ctypes.c_int
                counts.append(getter())
                break
    return max(counts, default=None)


def provenance() -> dict:
    import numpy
    import scipy

    import workloads

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas_threads": blas_threads(),
        "evaluator_threads": workloads.THREADS,
    }


def main(argv: list[str]) -> int:
    name, seed, size, trace, phase = argv[0], int(argv[1]), argv[2], argv[3] == "1", argv[4]
    sys.path.insert(0, str(ROOT / "src"))
    start = time.perf_counter()
    import miscpde.cli  # the import is part of the set-up time

    package = Path(miscpde.__file__).resolve()
    if ROOT / "src" not in package.parents:
        raise ImportError(f"miscpde was imported from {package}, not from this checkout")

    import workloads

    w = workloads.get(name, size)
    layers = None
    if trace:
        import tracer

        layers = tracer.LayerTrace()
    record: dict = {}
    with layers or contextlib.nullcontext():
        model = workloads.setup(w)
        record["setup_s"] = time.perf_counter() - start
        if phase == "all":
            if layers is not None:
                record["setup_layers"] = layers.setup_metrics()
                layers.reset()
            timer = time.perf_counter()
            outputs = workloads.run(w, model, seed)
            record["wall_s"] = time.perf_counter() - timer
            record["outputs"] = outputs
            if layers is not None:
                record["layers"] = layers.layer_metrics()
    record["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if phase == "all" and w.mimc_vars:
        outputs["mimc_recheck"] = workloads.recheck_mimc(w, model, seed, outputs["reference"])
    record["provenance"] = provenance()
    print(json.dumps(record))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
