"""One fresh benchmark process: set up one workload, run its rounds, write a
JSON result.  Started by ``run.py``; not meant to be run by hand.

``--setup-only`` stops after set-up, so ``run.py`` can time set-up in several
fresh processes.  With ``--trace 1`` rounds alternate untraced and traced, so
the run reports both the per-layer figures and the tracing overhead.
"""

from __future__ import annotations

from time import perf_counter

T_START = perf_counter()

import argparse  # noqa: E402
import contextlib  # noqa: E402
import importlib  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
from collections import Counter  # noqa: E402

import reference as ref  # noqa: E402
from spans import NullTracer  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

PACKAGE_MODULES = ("linalg", "market", "pricing", "hedging", "asymptotics", "config", "cli")


class Package:
    """The package modules, imported from ``<root>/src`` and nowhere else."""

    def __init__(self, root: str) -> None:
        src = os.path.join(root, "src")
        sys.path.insert(0, src)
        self.modules = {}
        for name in PACKAGE_MODULES:
            mod = importlib.import_module(f"bachimpact.{name}")
            if not os.path.abspath(mod.__file__).startswith(os.path.abspath(src) + os.sep):
                raise ImportError(f"bachimpact.{name} resolved outside {src}: {mod.__file__}")
            self.modules[name] = mod
            setattr(self, name, mod)


def provenance(root: str, workload) -> dict:
    import hashlib

    import numpy
    import scipy

    src = os.path.join(root, "src", "bachimpact")
    digest = hashlib.sha256()
    for name in sorted(os.listdir(src)):
        if name.endswith(".py"):
            with open(os.path.join(src, name), "rb") as fh:
                digest.update(name.encode() + b"\0" + fh.read())
    return {
        "commit": _git_commit(root),
        "source_sha256": digest.hexdigest()[:16],
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": os.cpu_count(),
        "cpu": _cpu_model(),
        "threads": {k: os.environ.get(k, "") for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")},
        "workers": 1,
        "inputs": workload.input_hashes(),
    }


def _git_commit(root: str) -> str:
    """HEAD from the .git directory if the root is a checkout, else 'unknown'."""
    git = os.path.join(root, ".git")
    try:
        with open(os.path.join(git, "HEAD"), encoding="utf-8") as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        refname = head[5:]
        ref_path = os.path.join(git, refname)
        if os.path.exists(ref_path):
            with open(ref_path, encoding="utf-8") as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs"), encoding="utf-8") as fh:
            for line in fh:
                if line.rstrip().endswith(" " + refname):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown"


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def end_to_end(rounds) -> dict:
    """Medians over rounds.

    Op percentiles are taken within each round first, since a round is a
    fixed mix of ops and pooled percentiles would sit on the boundary
    between two kinds of op.  Rounds whose hedge ops all failed have no
    hedge time and are left out of the rate; it reads 0 if every round is.
    """
    hedged = [r.path_steps / r.hedge_s for r in rounds if r.hedge_s > 0.0]

    def op_ms(q):
        return 1e3 * ref.median([ref.percentile(r.latencies_s, q) for r in rounds])

    return {
        "wall_s": ref.median([r.wall_s for r in rounds]),
        "op_p50_ms": op_ms(50.0),
        "op_p75_ms": op_ms(75.0),
        "path_steps_per_s": ref.median(hedged) if hedged else 0.0,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6,
    }


def estimator_health(rounds, a_risk) -> dict:
    """se^2 x call seconds per impact, and the ESS
    fraction implied by the CE error."""
    out = {}
    for lam in (0.4, 0.1, 0.02):
        rows = [e for r in rounds for e in r.estimates.get(lam, [])]
        out[f"se2_s.lam_{lam:g}"] = (
            ref.median([se * se * secs for _, se, _, secs in rows]) if rows else 0.0
        )
    rows = [e for r in rounds for e in r.estimates.get(0.02, [])]
    out["ess_frac.lam_0.02"] = (
        ref.median([ref.ess_frac_from_se(se, 0.02, a_risk, n) for _, se, n, _ in rows]) if rows else 0.0
    )
    return out


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--root", required=True)
    parser.add_argument("--workdir", required=True)
    parser.add_argument("--result", required=True)
    parser.add_argument("--trace-out", default=None)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args()

    pkg = Package(args.root)
    workload = WORKLOADS[args.workload](args.seed, args.root, args.workdir)
    workload.write_inputs()
    workload.setup(pkg)
    setup_s = perf_counter() - T_START
    result = {"setup_s": setup_s}
    if args.setup_only:
        with open(args.result, "w", encoding="utf-8") as fh:
            json.dump(result, fh)
        return 0

    null = NullTracer()
    if args.trace:
        from spans import LAYERS, Tracer, boundaries, layer_metrics, span_cost_s

        tracer = Tracer()
        bounds = boundaries(pkg.modules)

    plain, traced = [], []
    t_loop = perf_counter()
    while True:
        use_trace = bool(args.trace) and len(traced) < len(plain)
        if use_trace:
            tracer.install(pkg.modules, bounds)
        try:
            r0 = perf_counter()
            with tracer.span("bench.round") if use_trace else contextlib.nullcontext():
                rnd = workload.run_round(pkg, tracer if use_trace else null)
            rnd.wall_s = perf_counter() - r0
        finally:
            if use_trace:
                tracer.uninstall()
        (traced if use_trace else plain).append(rnd)
        elapsed = perf_counter() - t_loop
        need_traced = bool(args.trace) and not traced
        typical = ref.median([r.wall_s for r in plain + traced])
        if not need_traced and elapsed + typical > args.seconds:
            break

    rounds = plain + traced
    ops = [op for r in rounds for op in r.ops]
    failed = [op for op in ops if not op.ok]
    # rounds repeat their ops, so each distinct failure is listed once with its count
    distinct = Counter((op.name, op.detail) for op in failed)
    a_risk = getattr(workload, "a_risk", 1.0)
    result.update({
        "rounds": len(plain),
        "traced_rounds": len(traced),
        "latency_samples": sum(len(r.latencies_s) for r in plain),
        "attempted": len(ops),
        "failed": len(failed),
        "failures": [{"op": n, "detail": d, "times": k} for (n, d), k in distinct.items()],
        "end_to_end": end_to_end(plain),
        "estimator": estimator_health(plain, a_risk),
        "estimates": {f"{lam:g}": list(v[0]) for lam, v in plain[0].estimates.items()},
        "provenance": provenance(args.root, workload),
    })
    if args.trace:
        per_layer = layer_metrics(tracer, len(traced))
        traced_wall = ref.median([r.wall_s for r in traced])
        per_layer["trace.wall_s"] = traced_wall
        per_layer["trace.overhead_frac"] = traced_wall / result["end_to_end"]["wall_s"] - 1.0
        per_layer.update(result["estimator"])
        result["per_layer"] = per_layer
        result["traced_mean_wall_s"] = sum(r.wall_s for r in traced) / len(traced)
        result["traced_accounted_s"] = sum(
            per_layer.get(f"{m}.self_s", 0.0) for m in (*LAYERS, "bench")
        )
        result["span_cost_s"] = span_cost_s()
        result["absent"] = tracer.absent_names + [f"counter:{s}" for s in tracer.counter_errors]
        if args.trace_out:
            tracer.dump(args.trace_out)
    with open(args.result, "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
