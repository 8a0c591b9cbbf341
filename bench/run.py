"""bachimpact benchmark: one seeded workload per invocation.

    python3 bench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the repository root (or any copy of it holding ``src/``).  Each run
starts fresh worker processes with BLAS/OpenMP pinned to one thread:
``SETUP_PROBES`` set-up-only processes, then the process that runs the
workload's rounds for about ``--seconds``.  The last line of standard output
is one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``: the end-to-end metrics with ``--trace 0``, the per-layer ones
with ``--trace 1``.  The lines before it print every metric with its unit and
sample count, the failed-op fraction with the name of each failed op, and
the run's provenance.  Workloads, metrics and predictions are described in
``bench/DESIGN.md``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
from time import perf_counter

from workloads import WORKLOADS

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SETUP_PROBES = 6
DEADLINE_S = 175.0
THREAD_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def metric_units(section: str) -> dict[str, str]:
    """Metric name -> unit, from BENCHMARK.json's ``end_to_end`` or ``per_layer``."""
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return {m["name"]: m["unit"] for m in json.load(fh)[section]}


def run_worker(args, workdir: str, tag: str, deadline: float, extra: list[str]) -> dict:
    result_path = os.path.join(workdir, f"{tag}.json")
    cmd = [
        sys.executable, os.path.join(HERE, "worker.py"),
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", str(args.trace),
        "--root", ROOT, "--workdir", workdir, "--result", result_path, *extra,
    ]
    env = dict(os.environ, **{k: "1" for k in THREAD_ENV})
    timeout = max(5.0, deadline - perf_counter())
    proc = subprocess.run(cmd, env=env, cwd=ROOT, capture_output=True, text=True, timeout=timeout)
    if proc.returncode != 0:
        raise RuntimeError(f"worker {tag} exited {proc.returncode}: {proc.stderr.strip()[-2000:]}")
    with open(result_path, encoding="utf-8") as fh:
        return json.load(fh)


def report(args, res: dict, setup_samples: list[float]) -> dict:
    """Print the human-readable lines; return the metrics of the JSON line."""
    p = res["provenance"]
    print(f"bench workload={args.workload} seed={args.seed} seconds={args.seconds} trace={args.trace} "
          f"rounds={res['rounds']} traced_rounds={res['traced_rounds']}")
    print("provenance " + json.dumps(p, sort_keys=True))
    e2e = dict(res["end_to_end"], setup_s=statistics.median(setup_samples))
    n_lat = res["latency_samples"]
    samples = {
        "setup_s": f"median of {len(setup_samples)} fresh processes",
        "wall_s": f"median of {res['rounds']} rounds",
        "peak_rss_mb": "worker process",
        "path_steps_per_s": f"median of {res['rounds']} rounds",
        "op_p50_ms": f"median over rounds, {n_lat} op samples",
        "op_p75_ms": f"median over rounds, {n_lat} op samples, {n_lat - int(0.75 * n_lat)} beyond",
    }
    units = metric_units("end_to_end")
    for name, unit in units.items():
        print(f"metric {name} = {e2e[name]:.6g} {unit} ({samples[name]})")
    frac = res["failed"] / res["attempted"]
    print(f"metric failed_ops_frac = {frac:.6g} ({res['failed']}/{res['attempted']} ops)")
    for f in res["failures"]:
        print(f"failed op {f['op']} ({f['times']}x): {f['detail']}")
    for name, value in res["estimator"].items():
        print(f"estimator {name} = {value:.6g}")
    for lam, (ce, se, n, secs) in res["estimates"].items():
        print(f"estimate (first call) lam={lam} ce={ce:.9g} se={se:.3g} n_paths={n} op_s={secs:.4g}")
    if not args.trace:
        return {k: {"value": e2e[k], "unit": u} for k, u in units.items()}
    layers = res["per_layer"]
    units = {k: u for k, u in metric_units("per_layer").items() if k in layers}
    for name, unit in units.items():
        print(f"layer {name} = {layers[name]:.6g} {unit}")
    for name in res["absent"]:
        print(f"layer boundary absent: {name}")
    print(f"trace accounting: module + bench self times {res['traced_accounted_s']:.6g} s of "
          f"{res['traced_mean_wall_s']:.6g} s mean traced round")
    spans_cost = layers["trace.spans"] * res["span_cost_s"]
    print(f"trace overhead: traced wall {layers['trace.wall_s']:.4g} s vs untraced "
          f"{e2e['wall_s']:.4g} s ({100 * layers['trace.overhead_frac']:+.2f}%); "
          f"{layers['trace.spans']:.0f} spans x {1e6 * res['span_cost_s']:.2f} us = "
          f"{spans_cost:.4g} s per round ({100 * spans_cost / layers['trace.wall_s']:.2f}%)")
    return {k: {"value": layers[k], "unit": u} for k, u in units.items()}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    deadline = perf_counter() + DEADLINE_S

    work_root = os.path.join(ROOT, ".bench_work")
    workdir = os.path.join(work_root, f"{args.workload}-{args.seed}-{os.getpid()}")
    os.makedirs(workdir, exist_ok=True)
    try:
        setup_samples = [
            run_worker(args, workdir, f"setup{i}", deadline, ["--setup-only"])["setup_s"]
            for i in range(SETUP_PROBES)
        ]
        extra = []
        if args.trace:
            extra = ["--trace-out", os.path.join(work_root, f"trace-{args.workload}-{args.seed}.json")]
        res = run_worker(args, workdir, "run", deadline, extra)
    except (RuntimeError, subprocess.TimeoutExpired, OSError, ValueError) as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    setup_samples.append(res["setup_s"])
    metrics = report(args, res, setup_samples)
    print(json.dumps({
        "correct": res["failed"] == 0,
        "attempted": res["attempted"],
        "failed": res["failed"],
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
