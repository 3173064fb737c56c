"""One benchmark run of one workload, in a fresh process.

Usage: python3 child.py --workload NAME --seed N --workdir DIR [--traced]

Sets up the workload's inputs from the seed, runs the program on them,
checks the outputs and writes ``result.json`` (and, when traced,
``spans.npz``) into DIR.  ``run.py`` starts one of these per run and
measures set-up time from the moment it starts the process until the
``ready`` timestamp written here; both use the system-wide monotonic clock.
"""

from __future__ import annotations

import argparse
import ctypes
import json
import platform
import time
from pathlib import Path

import numpy as np
import scipy

import tracing
import workloads
from ebmnm import cli, core, linalg, mixture, posterior, sim, solvers

SOLVER_FUNCTIONS = ("component_loglik", "ted_update", "ted_rank1_update", "ed_update",
                    "fa_update", "scaled_update", "solve_penalized_spectrum",
                    "penalty_value", "scale_factor_update", "floor_spectrum")

# (module, attribute callers look up, span name).  Functions imported by
# name into another module are patched in that module as well.
TRACE_TARGETS = (
    [(cli, f"cmd_{c}", f"cli.{c}") for c in ("fit", "posterior", "evaluate", "bench")]
    + [(cli, "load_dataset", "core.load_dataset"), (cli, "save_prior", "core.save_prior"),
       (core, "validate_dataset", "core.validate_dataset"),
       (mixture, "validate_dataset", "core.validate_dataset"),
       (mixture, "fit", "mixture.fit"), (mixture, "responsibilities", "mixture.responsibilities")]
    + [(solvers, f, f"solvers.{f}") for f in SOLVER_FUNCTIONS]
    + [(linalg, f, f"linalg.{f}")
       for f in ("cholesky_with_jitter", "mvn_logpdf_zero_mean", "solve_psd")]
    + [(posterior, f, f"posterior.{f}") for f in ("summarize", "save_summary")]
    + [(sim, f, f"sim.{f}") for f in ("generate", "evaluate", "kl_divergence")]
)


def blas_threads() -> int:
    """Threads the loaded OpenBLAS will use (0 when it cannot be asked)."""
    with open("/proc/self/maps") as fh:
        paths = {line.split()[-1] for line in fh if "openblas" in line.lower()}
    for path in sorted(paths):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            func = getattr(lib, symbol, None)
            if func is not None:
                func.restype = ctypes.c_int
                return int(func())
    return 0


def environment() -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": blas.get("name"),
        "blas_version": blas.get("version"),
        "blas_config": blas.get("openblas configuration"),
        "blas_threads": blas_threads(),
    }


def layer_metrics(tracer: tracing.Tracer, out: workloads.Outcome) -> dict:
    totals = tracing.summarize_spans(tracer.names, tracer.starts, tracer.ends, tracer.parents)
    metrics = {}
    for name, entry in totals.items():
        for key, value in entry.items():
            metrics[f"{name}.{key}"] = value
    metrics.update({
        "core.bytes_read": out.bytes_read,
        "core.bytes_written": out.bytes_written,
        "mixture.iterations": out.iterations,
        "mixture.converged": out.converged,
        "sim.kl": float(np.mean(out.kl)) if out.kl else 0.0,
    })
    if out.bench:
        metrics["cli.bench.cells"] = out.bench["cells"]
        metrics["cli.bench.cell_s_sum"] = out.bench["cell_s_sum"]
        metrics["cli.bench.pool_efficiency"] = (
            out.bench["cell_s_sum"] / (out.pipeline_s * out.workers))
    return metrics


def main() -> None:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--workdir", type=Path, required=True)
    parser.add_argument("--run", type=int, default=0, help="run id recorded in the spans")
    parser.add_argument("--traced", action="store_true")
    args = parser.parse_args()
    setup, run = workloads.WORKLOADS[args.workload]
    tracer = None
    if args.traced:
        tracer = tracing.Tracer(run_id=args.run)
        tracer.install(TRACE_TARGETS)
    inputs = setup(args.seed, args.workdir)
    ready = time.monotonic()
    out = run(inputs, args.workdir)
    result = {
        "ready": ready,
        "pipeline_s": out.pipeline_s,
        "fit_s": out.fit_s,
        "summarize_s": out.summarize_s,
        "summarize_passes_s": out.summarize_passes_s,
        "iterations": out.iterations,
        "peak_rss_mb": workloads.peak_rss_mb(out.workers),
        "ops": out.ops,
        "signature": out.signature,
        "environment": environment(),
    }
    if tracer is not None:
        tracer.uninstall()
        tracer.save(args.workdir / "spans.npz")
        result["layers"] = layer_metrics(tracer, out)
    (args.workdir / "result.json").write_text(json.dumps(result, indent=1))


if __name__ == "__main__":
    main()
