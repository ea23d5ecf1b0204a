"""segcvae benchmark: one seeded, download-free run of one workload.

Run from the root of a source checkout:

    python3 perfbench/run.py --workload train-tiny --seed 1 --seconds 30 --trace 0

The package is imported from ``src/`` next to this directory.  BLAS is
pinned to one thread before numpy loads, so the only parallelism measured
is the package's own perplexity sharding.  The run prints the environment,
one line per figure with its unit, and, as the last line, one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.  With ``--trace 0`` the
metrics are the end-to-end ones; with ``--trace 1`` they are the per-layer
split of the traced run, whose spans are also written to ``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
WORKLOAD_NAMES = ("train-tiny", "train-paper", "eval-paper")
PPL_THREADS = 2


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def cpu_count() -> int:
    return len(os.sched_getaffinity(0))


def blas_threads() -> int | None:
    """Threads the loaded OpenBLAS will use, asked of the library itself."""
    import ctypes
    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            libs = {line.split()[-1] for line in fh if "openblas" in line.lower()}
    except OSError:
        return None
    for lib in sorted(libs):
        handle = ctypes.CDLL(lib)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                fn.argtypes = []
                return int(fn())
    return None


def environment() -> dict:
    import numpy as np
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    try:  # numpy asks for huge pages on large arrays; this says whether the kernel allows them
        with open("/sys/kernel/mm/transparent_hugepage/enabled", encoding="utf-8") as fh:
            thp = fh.read().strip()
    except OSError:
        thp = "unknown"
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas.get("name", "unknown"),
        "blas_version": blas.get("version", "unknown"),
        "blas_threads": blas_threads(),
        "blas_thread_env": {v: os.environ.get(v) for v in BLAS_THREAD_VARS},
        "SEGCVAE_THREADS": os.environ.get("SEGCVAE_THREADS"),
        "nproc": cpu_count(),
        "cpu": cpu,
        "transparent_hugepage": thp,
    }


def main(argv=None) -> int:
    args = parse_args(argv)
    src = ROOT / "src"
    if not (src / "segcvae" / "__init__.py").is_file():
        print(f"error: no segcvae sources under {src}", file=sys.stderr)
        return 2
    if args.seconds <= 0:
        print("error: --seconds must be positive", file=sys.stderr)
        return 2

    for var in BLAS_THREAD_VARS:
        os.environ[var] = "1"
    threads = min(PPL_THREADS, cpu_count()) if args.workload == "eval-paper" else 1
    os.environ["SEGCVAE_THREADS"] = str(threads)
    sys.path.insert(0, str(src))
    import segcvae
    if Path(segcvae.__file__).resolve().parent != (src / "segcvae").resolve():
        print(f"error: segcvae was imported from {segcvae.__file__}, not {src}",
              file=sys.stderr)
        return 2
    import workloads

    out = HERE / "out"
    out.mkdir(exist_ok=True)
    env = environment()
    print("env " + json.dumps(env, sort_keys=True))
    outcome = workloads.run(args.workload, args.seed, args.seconds, bool(args.trace), out)
    for name, value, unit in outcome.report:
        print(f"{name:<28} {value:<14.6g} {unit}")
    for name, (value, unit) in outcome.metrics.items():
        print(f"{name:<44} {value:<14.6g} {unit}")
    if args.trace:
        path = out / f"trace-{args.workload}-seed{args.seed}.json"
        path.write_text(json.dumps({"env": env, "metrics": outcome.metrics,
                                    "spans": outcome.spans}), encoding="utf-8")
        print(f"spans written to {path.relative_to(ROOT)}")
    tally = outcome.tally
    print(json.dumps({
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in outcome.metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
