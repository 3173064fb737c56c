"""The four benchmark workloads: seeded set-up, timed pipeline, output checks.

Every fit runs a fixed number of EM iterations (a tolerance far below any
real gain plus an iteration cap).  With the package's default tolerance the
iteration count to convergence depends on the simulated data, so it changes
from seed to seed by up to 5x and the fit time with it; a fixed count makes
the work per run the same on every seed.  The iteration count is still
checked and reported.

The posterior step of ``ted-penalized`` (about 40 ms) and of ``ed-hetero``
(about a second, but 0.76-1.45 s from call to call in one process) runs
``summarize_repeats`` times back to back in each run, so that one run gives
a steadier sample; ``summarize_s`` is the mean of those passes, and
``pipeline_s`` covers the fit and the first pass only.

``setup`` builds a workload's inputs from the seed and returns them;
``run`` executes the program on them and returns an :class:`Outcome` whose
timings cover the program calls only.  All checks run after the timed calls.
"""

from __future__ import annotations

import json
import os
import resource
import time
import zlib
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from ebmnm import cli, mixture, posterior, sim
from ebmnm.core import (
    ComponentConstraint,
    Dataset,
    FitConfig,
    Penalty,
    deserialize_prior,
    load_prior,
    save_dataset,
    save_matrix_csv,
    save_prior,
    serialize_prior,
)

import checks

# Tolerance no EM gain falls below within the iteration caps used here.
FIXED_WORK_TOLERANCE = 1e-12

PARAMS = {
    "ted-penalized": {"n": 2000, "n_test": 500, "R": 5, "K": 10, "warm_start": 20,
                      "max_iterations": 30, "summarize_repeats": 20},
    "ted-wide": {"n": 5000, "n_test": 1000, "R": 50, "K": 10, "warm_start": 5,
                 "max_iterations": 5},
    "ed-hetero": {"n": 500, "R": 5, "K": 10, "warm_start": 2, "max_iterations": 5,
                  "summarize_repeats": 4},
    "cli-grid": {"n": 1000, "n_test": 500, "R": 5, "replicates": 2, "warm_start": 5,
                 "max_iterations": 20, "cells": 12},
}


@dataclass
class Outcome:
    fit_s: float = 0.0
    summarize_s: float = 0.0
    # Seconds of each posterior pass of the run.
    summarize_passes_s: list = field(default_factory=list)
    pipeline_s: float = 0.0
    iterations: int = 0
    converged: int = 0
    # One entry per operation: (operation name, list of problems).
    ops: list = field(default_factory=list)
    # Final objective and iteration count of every fit, for the rerun check.
    signature: list = field(default_factory=list)
    kl: list = field(default_factory=list)
    bytes_read: int = 0
    bytes_written: int = 0
    # Pool workers the run started (cli-grid only).
    workers: int = 0
    bench: dict = field(default_factory=dict)


def seeds(seed: int, workload: str) -> tuple[int, int]:
    """Data and init seeds derived from the benchmark seed."""
    key = zlib.crc32(workload.encode())
    data, init = np.random.SeedSequence([seed, key]).generate_state(2)
    return int(data), int(init)


def _fit_checks(out: Outcome, name: str, result, warm_start: int) -> None:
    trace = result.trace
    out.iterations += warm_start + trace.iterations_run
    out.converged += int(trace.converged)
    out.signature.append((name, float(trace.objective[-1]), int(trace.iterations_run)))
    problems = checks.check_trace(trace.objective)
    problems += checks.check_prior_reload(
        lambda: deserialize_prior(serialize_prior(result.prior)))
    out.ops.append((f"fit {name}", problems))


def _summary_checks(out: Outcome, name: str, summary, dataset: Dataset) -> None:
    out.ops.append((f"summarize {name}", checks.check_summary(
        summary.mean, summary.sd, summary.lfsr, dataset.n_obs, dataset.dim)))


def _timed_passes(step, repeats: int) -> tuple:
    """Call ``step`` ``repeats`` times back to back.

    Returns the first call's result, each call's seconds, and a problem for
    every later call whose result is not identical to the first.  Later
    results are dropped at once, so they add nothing to peak RSS.
    """
    first, seconds, problems = None, [], []
    for i in range(repeats):
        start = time.perf_counter()
        result = step()
        seconds.append(time.perf_counter() - start)
        if i == 0:
            first = result
        elif not checks.identical(result, first):
            problems.append(f"pass {i} result differs from pass 0")
    return first, seconds, problems


# ---------------------------------------------------------------------------
# ted-penalized: penalized ted fits through the library API
# ---------------------------------------------------------------------------


def setup_ted_penalized(seed: int, workdir: Path) -> dict:
    p = PARAMS["ted-penalized"]
    data_seed, init_seed = seeds(seed, "ted-penalized")
    train, truth = sim.generate(sim.Scenario("hybrid", p["n"], p["R"], data_seed, p["n_test"]))
    r, k = p["R"], p["K"]
    mixed = tuple([ComponentConstraint.free()] * (k - 2)
                  + [ComponentConstraint.rank1(), ComponentConstraint.scaled(np.ones((r, r)))])
    fits = {}
    for name, penalty, constraints in (("iw", Penalty.inverse_wishart(r), None),
                                       ("nn", Penalty.nuclear_norm(r), mixed)):
        init = mixture.random_init(r, k, init_seed, constraints)
        config = FitConfig("ted", penalty, max_iterations=p["max_iterations"],
                           tolerance=FIXED_WORK_TOLERANCE,
                           warm_start_iterations=p["warm_start"])
        fits[name] = (init, config)
    return {"train": train, "truth": truth, "fits": fits}


def run_ted_penalized(inputs: dict, workdir: Path) -> Outcome:
    p = PARAMS["ted-penalized"]
    out = Outcome()
    train, truth = inputs["train"], inputs["truth"]
    t0 = time.perf_counter()
    results = {name: mixture.fit(train, init, config)
               for name, (init, config) in inputs["fits"].items()}
    t1 = time.perf_counter()
    first, seconds, repeat_problems = _timed_passes(
        lambda: {name: (posterior.summarize(train, result.prior),
                        sim.evaluate(truth.test, truth.theta_test, truth.prior, result.prior))
                 for name, result in results.items()},
        p["summarize_repeats"])
    out.fit_s = t1 - t0
    out.summarize_s, out.summarize_passes_s = float(np.mean(seconds)), seconds
    out.pipeline_s = out.fit_s + seconds[0]
    for name, result in results.items():
        summary, report = first[name]
        _fit_checks(out, name, result, p["warm_start"])
        _summary_checks(out, name, summary, train)
        out.kl.append(report.kl_divergence)
        out.ops.append((f"evaluate {name}", checks.check_kl(report.kl_divergence)))
    out.ops.append(("repeated posterior passes", repeat_problems))
    return out


# ---------------------------------------------------------------------------
# ted-wide: R = 50 through the CLI, fit -> posterior -> evaluate
# ---------------------------------------------------------------------------


def setup_ted_wide(seed: int, workdir: Path) -> dict:
    p = PARAMS["ted-wide"]
    data_seed, init_seed = seeds(seed, "ted-wide")
    train, truth = sim.generate(sim.Scenario("hybrid", p["n"], p["R"], data_seed, p["n_test"]))
    data = workdir / "data"
    data.mkdir()
    save_dataset(train, data / "x.csv", data / "noise.csv")
    save_dataset(truth.test, data / "test_x.csv", data / "test_noise.csv")
    save_matrix_csv(data / "theta_test.csv", truth.theta_test)
    save_prior(truth.prior, data / "true_prior.json")
    return {"data": data, "init_seed": init_seed}


def _count_io(out: Outcome, manifest: Path) -> None:
    """Add the sizes of the files a CLI manifest lists (and its own size)."""
    if not manifest.is_file():
        return
    doc = json.loads(manifest.read_text())
    out.bytes_read += sum(Path(f).stat().st_size for f in doc["inputs"])
    out.bytes_written += (sum(Path(f).stat().st_size for f in doc["outputs"])
                          + manifest.stat().st_size)


def run_ted_wide(inputs: dict, workdir: Path) -> Outcome:
    p = PARAMS["ted-wide"]
    out = Outcome()
    data = inputs["data"]
    fit_dir, post_dir, eval_dir = workdir / "fit", workdir / "posterior", workdir / "evaluate"
    x, noise = str(data / "x.csv"), str(data / "noise.csv")
    commands = {
        "fit": ["fit", "--x", x, "--noise", noise, "--algorithm", "ted",
                "--components", str(p["K"]), "--seed", str(inputs["init_seed"]),
                "--warm-start", str(p["warm_start"]),
                "--max-iterations", str(p["max_iterations"]),
                "--tolerance", repr(FIXED_WORK_TOLERANCE), "--out", str(fit_dir)],
        "posterior": ["posterior", "--x", x, "--noise", noise,
                      "--prior", str(fit_dir / "prior.json"), "--out", str(post_dir)],
        "evaluate": ["evaluate", "--test-x", str(data / "test_x.csv"),
                     "--test-noise", str(data / "test_noise.csv"),
                     "--theta-test", str(data / "theta_test.csv"),
                     "--true-prior", str(data / "true_prior.json"),
                     "--fitted-prior", str(fit_dir / "prior.json"), "--out", str(eval_dir)],
    }
    codes, seconds = {}, {}
    t0 = time.perf_counter()
    for name, argv in commands.items():
        start = time.perf_counter()
        codes[name] = cli.main(argv)
        seconds[name] = time.perf_counter() - start
    out.pipeline_s = time.perf_counter() - t0
    out.fit_s, out.summarize_s = seconds["fit"], seconds["posterior"]
    out.summarize_passes_s = [seconds["posterior"]]

    expected = {
        "fit": [fit_dir / "prior.json", fit_dir / "trace.csv", fit_dir / "fit.manifest.json"],
        "posterior": [post_dir / "summary.csv", post_dir / "posterior.manifest.json"],
        "evaluate": [eval_dir / "report.json", eval_dir / "curve.csv",
                     eval_dir / "evaluate.manifest.json"],
    }
    problems = {name: checks.check_cli(codes[name], files) for name, files in expected.items()}
    if not problems["fit"]:
        trace = np.loadtxt(fit_dir / "trace.csv", delimiter=",", skiprows=1, ndmin=2)
        iterations = int(trace[-1, 0])
        out.iterations = p["warm_start"] + iterations
        out.converged = int(iterations < p["max_iterations"])
        out.signature.append(("fit", float(trace[-1, 1]), iterations))
        problems["fit"] += checks.check_trace(trace[:, 1])
        problems["fit"] += checks.check_prior_reload(lambda: load_prior(fit_dir / "prior.json"))
    if not problems["posterior"]:
        rows = np.loadtxt(post_dir / "summary.csv", delimiter=",", skiprows=1, ndmin=2,
                          usecols=(3, 4, 5))
        n, r = p["n"], p["R"]
        if rows.shape != (n * r, 3):
            problems["posterior"].append(f"summary.csv has {rows.shape[0]} rows, expected {n * r}")
        else:
            mean, sd, lfsr = (rows[:, i].reshape(n, r) for i in range(3))
            problems["posterior"] += checks.check_summary(mean, sd, lfsr, n, r)
    if not problems["evaluate"]:
        kl = json.loads((eval_dir / "report.json").read_text())["kl_divergence"]
        out.kl.append(kl)
        problems["evaluate"] += checks.check_kl(kl)
    for name in commands:
        out.ops.append((f"cli {name}", problems[name]))
        _count_io(out, expected[name][-1])
    return out


# ---------------------------------------------------------------------------
# ed-hetero: per-observation noise, ed through the library API
# ---------------------------------------------------------------------------


def setup_ed_hetero(seed: int, workdir: Path) -> dict:
    p = PARAMS["ed-hetero"]
    data_seed, init_seed = seeds(seed, "ed-hetero")
    n, r = p["n"], p["R"]
    _, truth = sim.generate(sim.Scenario("hybrid", n, r, data_seed))
    rng = np.random.default_rng([data_seed, 1])
    a = rng.standard_normal((n, r, r))
    noise = a @ a.transpose(0, 2, 1) / r + 0.1 * np.eye(r)
    noise = 0.5 * (noise + noise.transpose(0, 2, 1))
    eps = np.einsum("nij,nj->ni", np.linalg.cholesky(noise), rng.standard_normal((n, r)))
    dataset = Dataset(truth.theta + eps, noise)
    init = mixture.random_init(r, p["K"], init_seed)
    config = FitConfig("ed", max_iterations=p["max_iterations"],
                       tolerance=FIXED_WORK_TOLERANCE, warm_start_iterations=p["warm_start"])
    return {"dataset": dataset, "init": init, "config": config}


def run_ed_hetero(inputs: dict, workdir: Path) -> Outcome:
    p = PARAMS["ed-hetero"]
    out = Outcome()
    dataset = inputs["dataset"]
    t0 = time.perf_counter()
    result = mixture.fit(dataset, inputs["init"], inputs["config"])
    t1 = time.perf_counter()
    summary, seconds, repeat_problems = _timed_passes(
        lambda: posterior.summarize(dataset, result.prior), p["summarize_repeats"])
    out.fit_s = t1 - t0
    out.summarize_s, out.summarize_passes_s = float(np.mean(seconds)), seconds
    out.pipeline_s = out.fit_s + seconds[0]
    _fit_checks(out, "ed", result, p["warm_start"])
    _summary_checks(out, "ed", summary, dataset)
    out.ops.append(("repeated posterior passes", repeat_problems))
    return out


# ---------------------------------------------------------------------------
# cli-grid: the bench subcommand and its process pool
# ---------------------------------------------------------------------------


def setup_cli_grid(seed: int, workdir: Path) -> dict:
    return {"seed": seeds(seed, "cli-grid")[0]}


def run_cli_grid(inputs: dict, workdir: Path) -> Outcome:
    p = PARAMS["cli-grid"]
    out = Outcome()
    bench_dir = workdir / "bench"
    argv = ["bench", "--scenarios", "hybrid,rank1", "--algorithms", "ted,ed,fa",
            "--penalties", "none", "--n", str(p["n"]), "--n-test", str(p["n_test"]),
            "--R", str(p["R"]), "--replicates", str(p["replicates"]),
            "--warm-start", str(p["warm_start"]), "--max-iterations", str(p["max_iterations"]),
            "--tolerance", repr(FIXED_WORK_TOLERANCE), "--seed", str(inputs["seed"]),
            "--out", str(bench_dir)]
    t0 = time.perf_counter()
    code = cli.main(argv)
    out.pipeline_s = out.fit_s = time.perf_counter() - t0
    table, manifest = bench_dir / "bench.csv", bench_dir / "bench.manifest.json"
    problems = checks.check_cli(code, [table, manifest])
    rows = checks.read_bench_csv(table) if table.is_file() else []
    problems += checks.check_bench_rows(rows, p["cells"])
    if not problems:
        out.iterations = sum(int(r["iterations"]) + p["warm_start"] for r in rows)
        out.converged = sum(int(r["converged"]) for r in rows)
        out.kl = [float(r["kl"]) for r in rows]
        out.signature = [(r["scenario"], r["replicate"], r["algorithm"], r["objective"],
                          r["iterations"]) for r in rows]
        problems += [e for kl in out.kl for e in checks.check_kl(kl)]
        out.bench = {"cells": len(rows),
                     "cell_s_sum": sum(float(r["seconds"]) for r in rows)}
    _count_io(out, manifest)
    # The pool runs min(cores, cells) workers, as cmd_bench sizes it.
    out.workers = min(os.cpu_count() or 1, p["cells"])
    out.ops.append(("cli bench", problems))
    return out


WORKLOADS = {
    "ted-penalized": (setup_ted_penalized, run_ted_penalized),
    "ted-wide": (setup_ted_wide, run_ted_wide),
    "ed-hetero": (setup_ed_hetero, run_ed_hetero),
    "cli-grid": (setup_cli_grid, run_cli_grid),
}


def peak_rss_mb(workers: int = 0) -> float:
    """Peak RSS of this process, plus ``workers`` times its largest child's."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    child = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss if workers else 0
    return (own + workers * child) / 1024.0
