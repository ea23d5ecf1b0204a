"""Run one workload on several seeds and summarize each metric's spread.

    python3 perfbench/spread.py --workload train-tiny --seeds 1-10 --seconds 30 \
        [--trace 0] [--out perfbench/out/spread-train-tiny.json]

Runs ``run.py`` once per seed, one run at a time, and prints for every
metric its median, quartiles and the quartile distance as a share of the
median (what the benchmark's bounds are compared with).  ``--out`` keeps
every run's result and printed lines (the environment among them) next to
the summary.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent


def seeds_of(text: str) -> list[int]:
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def summarize(values: list[float]) -> dict:
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return {"median": q2, "q1": q1, "q3": q3,
            "iqr_share": (q3 - q1) / q2 if q2 else None, "values": values}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--seconds", default="30")
    parser.add_argument("--trace", default="0")
    parser.add_argument("--out")
    args = parser.parse_args(argv)

    runs = []
    for seed in seeds_of(args.seeds):
        cmd = [sys.executable, str(HERE / "run.py"), "--workload", args.workload,
               "--seed", str(seed), "--seconds", args.seconds, "--trace", args.trace]
        proc = subprocess.run(cmd, cwd=HERE.parent, capture_output=True, text=True,
                              timeout=600)
        if proc.returncode != 0:
            print(proc.stderr, file=sys.stderr)
            return 1
        lines = proc.stdout.strip().splitlines()
        result = json.loads(lines[-1])
        result["seed"] = seed
        result["lines"] = lines[:-1]
        runs.append(result)
        print(f"seed {seed}: " + " ".join(f"{k}={v['value']:.6g}"
                                          for k, v in result["metrics"].items()),
              flush=True)

    summary = {name: summarize([r["metrics"][name]["value"] for r in runs])
               for name in runs[0]["metrics"]}
    for name, s in summary.items():
        share = "n/a" if s["iqr_share"] is None else f"{s['iqr_share']:.4f}"
        print(f"{name:<44} median {s['median']:<12.6g} iqr/median {share}")
    print("all correct" if all(r["correct"] for r in runs) else "SOME RUNS INCORRECT")
    if args.out:
        Path(args.out).write_text(json.dumps({
            "workload": args.workload, "seconds": args.seconds, "trace": args.trace,
            "summary": summary, "runs": runs}, indent=1), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
