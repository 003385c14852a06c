"""Run the benchmark over several seeds and report each metric's spread.

Run from the root of a checkout:

    python3 perfbench/spread.py --workloads all --seeds 0-9
    python3 perfbench/spread.py --workloads sample_b --seeds 0-4 --write-reference

Each run is a fresh ``perfbench/run.py`` process. For every end-to-end
metric the table shows the median over seeds and the spread, the distance
between the first and third quartile as a share of the median (Python's
``statistics.quantiles(values, n=4)``), next to the metric's bound from
``BENCHMARK.json``. A spread is steady when it is below a third of the
bound. ``--write-reference`` records, per workload, the range of
``loss_final`` that ``run.py`` accepts as correct: the observed range
widened on each side by its width plus 5% of the median, so that seeds
outside the recorded set still fall inside it.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
WIDEN_RANGE = 1.0
WIDEN_MEDIAN = 0.05


def _seeds(spec: str) -> list[int]:
    if "-" in spec:
        lo, hi = spec.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in spec.split(",")]


def run(workload: str, seed: int, seconds: float) -> dict:
    cmd = [sys.executable, str(BENCH_DIR / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, check=True, cwd=ROOT)
    return json.loads(proc.stdout.strip().splitlines()[-1])


def spread(values: list[float]) -> float:
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def main(argv=None) -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in bench["workloads"]]
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workloads", default="all")
    parser.add_argument("--seeds", default="0-9")
    parser.add_argument("--seconds", type=float, default=bench["run_seconds"])
    parser.add_argument("--write-reference", action="store_true")
    args = parser.parse_args(argv)
    workloads = names if args.workloads == "all" else args.workloads.split(",")
    seeds = _seeds(args.seeds)

    reference_path = BENCH_DIR / "reference.json"
    reference = json.loads(reference_path.read_text()) if reference_path.is_file() else {}
    steady = True
    for workload in workloads:
        results = [run(workload, seed, args.seconds) for seed in seeds]
        print(f"{workload}: seeds {args.seeds}, correct "
              f"{sum(r['correct'] for r in results)}/{len(results)}, failed "
              f"{sum(r['failed'] for r in results)}/{sum(r['attempted'] for r in results)}")
        for name, bound in bounds.items():
            values = [r["metrics"][name]["value"] for r in results]
            share = spread(values)
            ok = name == "setup_s" or share < bound / 3
            steady &= ok
            print(f"  {name:14s} median {statistics.median(values):12.6g}  spread "
                  f"{share:7.4f}  bound {bound:5.3f}  {'ok' if ok else 'WIDE'}  "
                  + " ".join(f"{v:.5g}" for v in values))
        if args.write_reference:
            losses = [r["metrics"]["loss_final"]["value"] for r in results]
            lo, hi, mid = min(losses), max(losses), statistics.median(losses)
            margin = WIDEN_RANGE * (hi - lo) + WIDEN_MEDIAN * mid
            reference[workload] = {"loss_final": [lo - margin, hi + margin],
                                   "seeds": args.seeds}
    if args.write_reference:
        reference_path.write_text(json.dumps(reference, indent=1, sort_keys=True) + "\n")
    return 0 if steady else 1


if __name__ == "__main__":
    sys.exit(main())
