"""avmae benchmark: one command, every end-to-end metric, output checks.

Run from the root of a checkout:

    python3 perfbench/run.py --workload pretrain_tiny --seed 0 --seconds 10 --trace 0
    python3 perfbench/run.py --workload all        # each workload in a fresh process

``--trace 0`` prints the end-to-end metrics, ``--trace 1`` the per-layer
metrics of a traced run. The last line of standard output is one JSON object
with the keys ``correct``, ``attempted``, ``failed`` and ``metrics``; the
lines before it are a readable table and the recorded environment. Results
and spans are also written under ``.bench_out/`` in the checkout.
"""

from __future__ import annotations

import os
import time

T_START = time.perf_counter()
T_START_CPU = time.process_time()

# One BLAS thread and one data worker, pinned before numpy loads.
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS", "AVMAE_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
OUT_DIR = ROOT / ".bench_out"
WORKLOAD_NAMES = ("pretrain_tiny", "finetune_tiny", "predict_tiny", "sample_b")
END_TO_END = (("setup_s", "s"), ("clips_per_s", "clips/s"), ("op_ms_p50", "ms"),
              ("op_ms_tail", "ms"), ("peak_rss_mb", "MB"), ("loss_final", "loss"))
TAIL_BEYOND = 10


def _import_package():
    """Import avmae from this checkout's ``src`` and nowhere else."""
    sys.path.insert(0, str(ROOT / "src"))
    import avmae
    origin = Path(avmae.__file__).resolve()
    if ROOT / "src" not in origin.parents:
        raise SystemExit(f"avmae was imported from {origin}, not from {ROOT / 'src'}")
    return avmae


def _environment(args) -> dict:
    import numpy as np
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError, ValueError):
        blas = "unknown"
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    commit = "unknown (not a git checkout)"
    head = ROOT / ".git" / "HEAD"
    if head.is_file():
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            ref_file = ROOT / ".git" / ref[5:]
            ref = ref_file.read_text().strip() if ref_file.is_file() else ref
        commit = ref
    return {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "commit": commit, "numpy": np.__version__, "blas": blas,
        "cpu": cpu, "nproc": os.cpu_count(), "python": platform.python_version(),
        "threads": {var: os.environ[var] for var in THREAD_VARS},
    }


def tail(ops_ms: list[float]) -> tuple[float, int, int]:
    """The highest percentile with at least TAIL_BEYOND samples beyond it.

    Returns (value, percentile, samples beyond). With too few samples the
    maximum is returned, as p100 with nothing beyond it.
    """
    ordered = sorted(ops_ms)
    n = len(ordered)
    if n <= TAIL_BEYOND:
        return ordered[-1], 100, 0
    return ordered[n - TAIL_BEYOND - 1], math.floor(100 * (n - TAIL_BEYOND) / n), TAIL_BEYOND


def _timings(import_s: float, setups: list[float], ops: list[float], clips_per_op: int) -> dict:
    """The timing metrics from import time, set-up times and op times (s)."""
    ops_ms = [1e3 * t for t in ops]
    tail_ms, tail_pct, beyond = tail(ops_ms)
    return {
        "setup_s": import_s + statistics.median(setups),
        "clips_per_s": clips_per_op * len(ops) / sum(ops),
        "op_ms_p50": statistics.median(ops_ms),
        "op_ms_tail": tail_ms,
        "tail_percentile": tail_pct,
        "tail_beyond": beyond,
    }


def _reference() -> dict:
    path = BENCH_DIR / "reference.json"
    return json.loads(path.read_text()) if path.is_file() else {}


def run_one(args) -> int:
    _import_package()
    import workloads
    from speed import REF_UNIT_S
    from tracer import PER_LAYER, Tracer
    import_s = time.perf_counter() - T_START
    import_cpu_s = time.process_time() - T_START_CPU

    tracer = Tracer() if args.trace else None
    if tracer is not None:
        tracer.install_setup()
    session = workloads.Session(args.seconds, tracer)
    import_ref_s = session.ref(import_cpu_s)
    result = workloads.WORKLOADS[args.workload](args.seed, session)
    if tracer is not None:
        tracer.uninstall()

    ref = _reference().get(args.workload, {}).get("loss_final")
    loss = result.loss_final
    if ref is None:
        result.check("loss_in_reference", False, "no reference recorded")
    else:
        result.check("loss_in_reference", math.isfinite(loss) and ref[0] <= loss <= ref[1],
                     f"{loss:.6g} in [{ref[0]:.6g}, {ref[1]:.6g}]")
    result.check("no_failed_ops", session.failed == 0,
                 f"{session.failed} of {session.attempted}")
    correct = all(ok for _, ok, _ in result.checks)

    if not session.untraced:
        raise SystemExit(f"no timed op completed ({session.failed} failed)")
    # CPU times at the reference speed (see speed.py); wall-clock ones beside them.
    e2e = _timings(import_ref_s, session.setup_ref, session.untraced_ref, result.clips_per_op)
    wall = _timings(import_s, session.setup_times, session.untraced, result.clips_per_op)
    tail_pct, beyond = e2e.pop("tail_percentile"), e2e.pop("tail_beyond")
    e2e["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    e2e["loss_final"] = loss
    env = _environment(args)
    print(f"# avmae benchmark  workload={args.workload} seed={args.seed} trace={args.trace}")
    print("# env " + json.dumps(env, sort_keys=True))
    for name, ok, detail in result.checks:
        print(f"# check {name:22s} {'ok' if ok else 'FAILED'}  {detail}")
    if args.trace:
        layer = tracer.layer_metrics(session.traced, session.untraced)
        metrics = {name: {"value": float(layer[name]), "unit": unit}
                   for name, unit, _ in PER_LAYER}
        print(f"# traced ops {len(session.traced)}, untraced ops {len(session.untraced)}")
    else:
        metrics = {name: {"value": e2e[name], "unit": unit} for name, unit in END_TO_END}
    for name, metric in metrics.items():
        extra = ""
        if name == "op_ms_tail":
            extra = f"  (p{tail_pct}, n={len(session.untraced)}, {beyond} beyond)"
        if name in wall and not args.trace:
            extra += f"  wall clock {wall[name]:.6g}"
        print(f"{name:34s} {metric['value']:14.6g} {metric['unit']}{extra}")
    if not args.trace:
        ratio = session.failed / session.attempted if session.attempted else 0.0
        print(f"{'fail_ratio':34s} {ratio:14.6g} share  ({session.failed}/{session.attempted})")
        print(f"{'probe_unit_ms':34s} {1e3 * statistics.median(session.probe_units):14.6g} ms"
              f"  (reference {1e3 * REF_UNIT_S:g})")

    OUT_DIR.mkdir(exist_ok=True)
    stem = f"{args.workload}.trace{args.trace}"
    record = {"env": env, "correct": correct, "attempted": session.attempted,
              "failed": session.failed, "metrics": metrics,
              "checks": [list(c) for c in result.checks],
              "op_ms_tail_percentile": tail_pct, "op_ms_tail_beyond": beyond,
              "wall_clock": wall, "import_s": import_s, "import_ref_s": import_ref_s,
              "import_cpu_s": import_cpu_s, "setup_times_s": session.setup_times,
              "setup_cpu_s": session.setup_cpu, "setup_ref_s": session.setup_ref,
              "ops_s": session.untraced, "ops_cpu_s": session.untraced_cpu,
              "ops_ref_s": session.untraced_ref,
              "traced_ops_s": session.traced, "probe_units_s": session.probe_units,
              "losses": result.losses}
    (OUT_DIR / f"{stem}.json").write_text(json.dumps(record, indent=1))
    if tracer is not None:
        tracer.write_spans(OUT_DIR / f"{stem}.spans.jsonl")
    print(json.dumps({"correct": correct, "attempted": session.attempted,
                      "failed": session.failed, "metrics": metrics}))
    return 0


def run_all(args) -> int:
    """Each workload in a fresh process, so peak RSS belongs to that workload."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOAD_NAMES:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, check=False)
        print(proc.stdout, end="")
        if proc.returncode != 0:
            print(f"workload {name} exited with code {proc.returncode}", file=sys.stderr)
            return proc.returncode
        last = json.loads(proc.stdout.strip().splitlines()[-1])
        combined["correct"] &= last["correct"]
        combined["attempted"] += last["attempted"]
        combined["failed"] += last["failed"]
        for metric, value in last["metrics"].items():
            combined["metrics"][f"{name}.{metric}"] = value
    print(json.dumps(combined))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    sys.path.insert(0, str(BENCH_DIR))
    return run_all(args) if args.workload == "all" else run_one(args)


if __name__ == "__main__":
    sys.exit(main())
