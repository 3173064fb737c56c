"""Command-line front end.

Subcommands wire datasets, fits, posterior summaries and evaluations into
reproducible batch pipelines:

* ``simulate``  -- write a simulated dataset (and optional test set) to disk;
* ``fit``       -- estimate a mixture prior from a dataset on disk;
* ``posterior`` -- posterior summaries (mean, sd, lfsr) under a fitted prior;
* ``evaluate``  -- KL, empirical FSR and a power/FSR curve against ground truth;
* ``bench``     -- run a scenario x algorithm x penalty grid and emit a table.

Every run writes a ``<command>.manifest.json`` recording the resolved
parameters, inputs, outputs, package version and timestamps; the manifest
alone suffices to re-execute the run.  All randomness flows from the
explicit ``--seed``.  Exit codes: 0 success, 1 usage or validation error,
2 numerical failure, 3 I/O failure.
"""

from __future__ import annotations

import argparse
import concurrent.futures
import ctypes
import json
import os
import sys
import time
from datetime import datetime, timezone
from pathlib import Path

import numpy as np

from . import __version__, linalg, mixture, posterior, sim
from .core import (
    ComponentConstraint,
    FitConfig,
    MixturePrior,
    Penalty,
    load_dataset,
    load_matrix_csv,
    load_prior,
    save_dataset,
    save_matrix_csv,
    save_prior,
)
from .exceptions import EbmnmError, InvalidConfigError, NumericalFailureError


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    """argparse parser that reports usage problems with exit code 1."""

    def error(self, message):
        self.print_usage(sys.stderr)
        raise _UsageError(message)


def _now() -> str:
    return datetime.now(timezone.utc).isoformat()


def _write_manifest(out_dir: Path, command: str, args: argparse.Namespace,
                    inputs: list, outputs: list, started: str) -> Path:
    params = {
        k: v for k, v in vars(args).items()
        if k not in ("func", "command") and not callable(v)
    }
    doc = {
        "command": command,
        "version": __version__,
        "parameters": {k: (str(v) if isinstance(v, Path) else v) for k, v in params.items()},
        "inputs": [str(p) for p in inputs],
        "outputs": [str(p) for p in outputs],
        "started": started,
        "finished": _now(),
    }
    path = out_dir / f"{command}.manifest.json"
    path.write_text(json.dumps(doc, indent=2))
    return path


def _out_dir(args) -> Path:
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    return out


def _penalty_strength(strength: str, dim: int) -> float:
    """Parse ``--penalty-strength``: a number, or 'R' for the data dimension."""
    if strength.strip().upper() == "R":
        return float(dim)
    try:
        return float(strength)
    except ValueError:
        raise _UsageError(
            f"--penalty-strength must be a number or 'R', got {strength!r}"
        ) from None


def _penalty_from_args(kind: str, strength: str, dim: int) -> Penalty:
    if kind == "none":
        return Penalty.none()
    return Penalty(kind, _penalty_strength(strength, dim))


def _at_least(minimum: int):
    """An integer flag type that rejects values below ``minimum`` as a usage error."""
    def parse(text: str) -> int:
        value = int(text)
        if value < minimum:
            raise argparse.ArgumentTypeError(f"must be at least {minimum}, got {value}")
        return value
    parse.__name__ = "int"  # argparse names the type in "invalid int value" errors
    return parse


_seed, _count = _at_least(0), _at_least(1)


def _threshold(text: str) -> float:
    """An lfsr cut in [0, 1], else a usage error; 0 selects nothing (lfsr < 0 never holds)."""
    value = float(text)
    if not 0.0 <= value <= 1.0:
        raise argparse.ArgumentTypeError(f"must be in [0, 1], got {value}")
    return value


_threshold.__name__ = "float"  # argparse names the type in "invalid float value" errors


def _derived_seed(base: int, *key: int) -> int:
    return int(np.random.SeedSequence([int(base), *map(int, key)]).generate_state(1)[0])


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------


def cmd_simulate(args) -> int:
    started = _now()
    out = _out_dir(args)
    scenario = sim.Scenario(kind=args.scenario, n=args.n, dim=args.R,
                            seed=args.seed, n_test=args.n_test)
    train, truth = sim.generate(scenario)
    outputs = [out / "x.csv", out / "noise.csv", out / "theta.csv", out / "true_prior.json"]
    save_dataset(train, out / "x.csv", out / "noise.csv")
    save_matrix_csv(out / "theta.csv", truth.theta)
    save_prior(truth.prior, out / "true_prior.json")
    if truth.test is not None:
        save_matrix_csv(out / "test_x.csv", truth.test.x)
        save_matrix_csv(out / "test_theta.csv", truth.theta_test)
        outputs += [out / "test_x.csv", out / "test_theta.csv"]
    outputs.append(_write_manifest(out, "simulate", args, [], outputs, started))
    print(f"simulate: wrote {len(outputs)} files to {out}")
    return 0


def _build_init(args, dataset):
    """``--init-prior``, or the unit-scale random draws ``U0_k`` as ``L U0_k L^T``.

    ``L L^T`` is the shared noise or the per-observation stack's mean, so the
    start scales with the data."""
    if args.init_prior:
        return load_prior(args.init_prior)
    constraints = tuple(ComponentConstraint(args.constraint) for _ in range(args.components))
    init = mixture.random_init(dataset.dim, args.components, args.seed, constraints)
    lower = (dataset.noise_cholesky if dataset.shared_noise
             else linalg.cholesky_with_jitter(dataset.noise.mean(axis=0)))
    return MixturePrior(init.weights, linalg.sym(lower @ init.covariances @ lower.T),
                        init.scales, constraints)


def cmd_fit(args) -> int:
    started = _now()
    out = _out_dir(args)
    dataset = load_dataset(args.x, args.noise)
    init = _build_init(args, dataset)
    config = FitConfig(
        algorithm=args.algorithm,
        penalty=_penalty_from_args(args.penalty, args.penalty_strength, dataset.dim),
        max_iterations=args.max_iterations,
        tolerance=args.tolerance,
        warm_start_iterations=args.warm_start,
        n_components=init.n_components,
    )
    result = mixture.fit(dataset, init, config)
    save_prior(result.prior, out / "prior.json")
    mixture.save_trace(result.trace, out / "trace.csv")
    inputs = [args.x, args.noise] + ([args.init_prior] if args.init_prior else [])
    outputs = [out / "prior.json", out / "trace.csv"]
    outputs.append(_write_manifest(out, "fit", args, inputs, outputs, started))
    status = "converged" if result.trace.converged else "reached max iterations"
    print(f"fit: {status} after {result.trace.iterations_run} iterations, "
          f"objective {result.trace.objective[-1]:.6f}")
    return 0


def cmd_posterior(args) -> int:
    started = _now()
    out = _out_dir(args)
    dataset = load_dataset(args.x, args.noise)
    prior = load_prior(args.prior)
    summary = posterior.summarize(dataset, prior)
    posterior.save_summary(summary, dataset, out / "summary.csv")
    outputs = [out / "summary.csv"]
    outputs.append(_write_manifest(out, "posterior", args,
                                   [args.x, args.noise, args.prior], outputs, started))
    print(f"posterior: wrote {summary.mean.size} rows to {out / 'summary.csv'}")
    return 0


def cmd_evaluate(args) -> int:
    started = _now()
    out = _out_dir(args)
    test = load_dataset(args.test_x, args.test_noise)
    theta_test = load_matrix_csv(args.theta_test)
    true_prior = load_prior(args.true_prior)
    fitted_prior = load_prior(args.fitted_prior)
    report = sim.evaluate(test, theta_test, true_prior, fitted_prior,
                          threshold=args.threshold)
    (out / "report.json").write_text(report.to_json())
    with open(out / "curve.csv", "w") as fh:
        fh.write("threshold,power,fsr\n")
        for t, p, f in report.curve:
            fh.write(f"{t:.17g},{p:.17g},{f:.17g}\n")
    inputs = [args.test_x, args.test_noise, args.theta_test, args.true_prior,
              args.fitted_prior]
    outputs = [out / "report.json", out / "curve.csv"]
    outputs.append(_write_manifest(out, "evaluate", args, inputs, outputs, started))
    print(f"evaluate: kl={report.kl_divergence:.6f} fsr={report.empirical_fsr:.4f} "
          f"({report.significant_count} significant at lfsr<{report.threshold})")
    return 0


# ---------------------------------------------------------------------------
# bench
# ---------------------------------------------------------------------------

_BENCH_COLUMNS = ("scenario", "replicate", "n", "R", "K", "algorithm", "penalty",
                  "lambda", "iterations", "converged", "objective", "kl",
                  "fsr", "significant", "seconds")


# The thread-count functions of the OpenBLAS builds numpy and scipy ship with.
_OPENBLAS_THREAD_SYMBOLS = tuple((f"{prefix}_get_num_threads{suffix}",
                                  f"{prefix}_set_num_threads{suffix}")
                                 for prefix in ("scipy_openblas", "openblas")
                                 for suffix in ("64_", ""))


def _openblas_threads() -> list:
    """``(get, set)`` for the thread count of each OpenBLAS loaded (numpy's, scipy's).

    The libraries are found in the process's memory map, so on Linux only;
    elsewhere, or with another BLAS, the list is empty.
    """
    try:
        with open("/proc/self/maps") as fh:
            paths = sorted({line.split()[-1] for line in fh if "openblas" in line.lower()})
    except OSError:
        return []
    functions = []
    for path in paths:
        lib = ctypes.CDLL(path)
        for get, put in _OPENBLAS_THREAD_SYMBOLS:
            if hasattr(lib, get) and hasattr(lib, put):
                getter = getattr(lib, get)
                getter.restype = ctypes.c_int
                functions.append((getter, getattr(lib, put)))
                break
    return functions


def _limit_blas_threads(share: int) -> None:
    """Pool initializer: at most ``share`` threads in each of this worker's OpenBLAS."""
    for get, put in _openblas_threads():
        put(min(get(), share))


def _bench_pool(workers: int) -> concurrent.futures.ProcessPoolExecutor:
    """A pool of ``workers`` processes that split the cores among their BLAS pools.

    Each worker runs ``max(1, cores // workers)`` BLAS threads, or fewer
    when it starts with fewer (say, from ``OPENBLAS_NUM_THREADS``).
    """
    share = max(1, (os.cpu_count() or 1) // workers)
    return concurrent.futures.ProcessPoolExecutor(
        max_workers=workers, initializer=_limit_blas_threads, initargs=(share,))


def _bench_cell(task: dict) -> dict:
    """Run one (scenario, replicate, algorithm, penalty) cell; pure in task."""
    scenario = sim.Scenario(kind=task["scenario"], n=task["n"], dim=task["R"],
                            seed=task["data_seed"], n_test=task["n_test"])
    train, truth = sim.generate(scenario)
    config = task["config"]
    constraint = "rank1" if config.algorithm == "fa" else "free"
    constraints = tuple(ComponentConstraint(constraint) for _ in range(task["K"]))
    init = mixture.random_init(task["R"], task["K"], task["init_seed"], constraints)
    t0 = time.perf_counter()
    result = mixture.fit(train, init, config)
    report = sim.evaluate(truth.test, truth.theta_test, truth.prior, result.prior,
                          threshold=task["threshold"])
    return {
        "scenario": task["scenario"], "replicate": task["replicate"], "n": task["n"],
        "R": task["R"], "K": task["K"], "algorithm": config.algorithm,
        "penalty": config.penalty.kind, "lambda": config.penalty.lam,
        "iterations": result.trace.iterations_run,
        "converged": int(result.trace.converged),
        "objective": result.trace.objective[-1],
        "kl": report.kl_divergence, "fsr": report.empirical_fsr,
        "significant": report.significant_count,
        "seconds": time.perf_counter() - t0,
    }


def _bench_configs(args, algorithms: list[str], penalties: list[str]) -> list[FitConfig]:
    """The fit configurations of the grid, skipping pairs ``FitConfig`` rejects.

    Each algorithm is first checked without a penalty, so an unknown name
    or a bad iteration setting is an error rather than a skipped cell.
    """
    settings = dict(max_iterations=args.max_iterations, tolerance=args.tolerance,
                    warm_start_iterations=args.warm_start)
    penalties = [_penalty_from_args(p, args.penalty_strength, args.R) for p in penalties]
    configs = []
    for algorithm in algorithms:
        FitConfig(algorithm, **settings)
        for penalty in penalties:
            try:
                configs.append(FitConfig(algorithm, penalty, **settings))
            except InvalidConfigError:
                continue
    return configs


def cmd_bench(args) -> int:
    started = _now()
    scenarios = [s.strip() for s in args.scenarios.split(",") if s.strip()]
    algorithms = [a.strip() for a in args.algorithms.split(",") if a.strip()]
    penalties = [p.strip() for p in args.penalties.split(",") if p.strip()]
    if args.n_test < 1:
        raise _UsageError("bench needs --n-test >= 1 to evaluate fits")
    configs = _bench_configs(args, algorithms, penalties)
    tasks = []
    for si, scenario in enumerate(scenarios):
        for rep in range(args.replicates):
            for config in configs:
                tasks.append({
                    "scenario": scenario, "replicate": rep, "n": args.n,
                    "R": args.R, "K": args.K, "n_test": args.n_test,
                    "config": config, "threshold": args.threshold,
                    "data_seed": _derived_seed(args.seed, si, rep),
                    "init_seed": _derived_seed(args.seed, si, rep, 1),
                })
    if not tasks:
        raise _UsageError("the bench grid has no cells: name at least one scenario and one "
                          "algorithm with a penalty it accepts")
    out = _out_dir(args)
    workers = min(args.threads or os.cpu_count() or 1, len(tasks))
    if workers > 1:
        with _bench_pool(workers) as pool:
            rows = list(pool.map(_bench_cell, tasks))
    else:
        rows = [_bench_cell(t) for t in tasks]
    table_path = out / "bench.csv"
    with open(table_path, "w") as fh:
        fh.write(",".join(_BENCH_COLUMNS) + "\n")
        for row in rows:
            fh.write(",".join(_format_cell(row[c]) for c in _BENCH_COLUMNS) + "\n")
    outputs = [table_path]
    outputs.append(_write_manifest(out, "bench", args, [], outputs, started))
    widths = {c: max(len(c), *(len(_format_cell(r[c], table=True)) for r in rows))
              for c in _BENCH_COLUMNS}
    print("  ".join(c.ljust(widths[c]) for c in _BENCH_COLUMNS))
    for row in rows:
        print("  ".join(_format_cell(row[c], table=True).ljust(widths[c])
                        for c in _BENCH_COLUMNS))
    print(f"bench: wrote {len(rows)} rows to {table_path}")
    return 0


def _format_cell(value, table: bool = False) -> str:
    if isinstance(value, float):
        return f"{value:.4f}" if table else f"{value:.17g}"
    return str(value)


# ---------------------------------------------------------------------------
# Parser assembly and config files
# ---------------------------------------------------------------------------


def _add_common(sp) -> None:
    sp.add_argument("--out", required=True, help="output directory")
    sp.add_argument("--config", default=None,
                    help="key=value file supplying flag defaults (flags override)")


def build_parser() -> tuple[_Parser, dict]:
    parser = _Parser(prog="ebmnm",
                     description="Mixture-prior shrinkage for multivariate effects")
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)
    commands = {}

    sp = sub.add_parser("simulate", help="simulate a dataset with ground truth")
    sp.add_argument("--scenario", choices=sim.SCENARIOS, required=True)
    sp.add_argument("--n", type=int, required=True, help="training observations")
    sp.add_argument("--n-test", type=int, default=0, help="test observations (0 = none)")
    sp.add_argument("--R", type=int, required=True, help="dimension")
    sp.add_argument("--seed", type=_seed, default=0)
    _add_common(sp)
    sp.set_defaults(func=cmd_simulate)
    commands["simulate"] = sp

    sp = sub.add_parser("fit", help="fit a mixture prior to a dataset")
    sp.add_argument("--x", required=True, help="observations CSV (n rows, R columns)")
    sp.add_argument("--noise", required=True,
                    help="noise CSV: one R x R block (shared) or n stacked blocks")
    sp.add_argument("--algorithm", choices=("ted", "ed", "fa"), default="ted")
    sp.add_argument("--penalty", choices=("none", "iw", "nn"), default="none")
    sp.add_argument("--penalty-strength", default="R",
                    help="penalty strength, a number or 'R' for the data dimension")
    sp.add_argument("--components", type=_count, default=10, help="mixture size K")
    sp.add_argument("--constraint", choices=("free", "rank1"), default="free",
                    help="constraint applied to every component of the random init")
    sp.add_argument("--init-prior", default=None,
                    help="JSON prior to start from (overrides --components/--constraint)")
    sp.add_argument("--max-iterations", type=int, default=2000)
    sp.add_argument("--tolerance", type=float, default=0.01)
    sp.add_argument("--warm-start", type=int, default=20,
                    help="initial ed iterations before the main algorithm")
    sp.add_argument("--seed", type=_seed, default=0)
    _add_common(sp)
    sp.set_defaults(func=cmd_fit)
    commands["fit"] = sp

    sp = sub.add_parser("posterior", help="posterior summaries under a fitted prior")
    sp.add_argument("--x", required=True)
    sp.add_argument("--noise", required=True)
    sp.add_argument("--prior", required=True, help="fitted prior JSON")
    _add_common(sp)
    sp.set_defaults(func=cmd_posterior)
    commands["posterior"] = sp

    sp = sub.add_parser("evaluate", help="score a fitted prior against ground truth")
    sp.add_argument("--test-x", required=True)
    sp.add_argument("--test-noise", required=True)
    sp.add_argument("--theta-test", required=True, help="true test means CSV")
    sp.add_argument("--true-prior", required=True)
    sp.add_argument("--fitted-prior", required=True)
    sp.add_argument("--threshold", type=_threshold, default=0.05, help="lfsr significance cut")
    _add_common(sp)
    sp.set_defaults(func=cmd_evaluate)
    commands["evaluate"] = sp

    sp = sub.add_parser("bench", help="run a scenario x algorithm x penalty grid")
    sp.add_argument("--scenarios", default="hybrid,rank1")
    sp.add_argument("--algorithms", default="ted,ed,fa")
    sp.add_argument("--penalties", default="none,iw,nn")
    sp.add_argument("--n", type=int, default=1000)
    sp.add_argument("--n-test", type=int, default=500)
    sp.add_argument("--R", type=int, default=5)
    sp.add_argument("--K", type=_count, default=10)
    sp.add_argument("--replicates", type=_count, default=3)
    sp.add_argument("--penalty-strength", default="R")
    sp.add_argument("--max-iterations", type=int, default=2000)
    sp.add_argument("--tolerance", type=float, default=0.01)
    sp.add_argument("--warm-start", type=int, default=20)
    sp.add_argument("--threshold", type=_threshold, default=0.05)
    sp.add_argument("--seed", type=_seed, default=0)
    sp.add_argument("--threads", type=_seed, default=0,
                    help="worker parallelism cap (0 = all cores); results do not depend on it")
    _add_common(sp)
    sp.set_defaults(func=cmd_bench)
    commands["bench"] = sp

    return parser, commands


def _read_config_file(path: str) -> dict:
    """Parse a simple ``key = value`` file; '#' starts a comment."""
    values = {}
    for lineno, raw in enumerate(Path(path).read_text().splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise _UsageError(f"{path}:{lineno}: expected 'key = value', got {raw!r}")
        key, value = line.split("=", 1)
        values[key.strip().replace("-", "_")] = value.strip()
    return values


def _apply_config_defaults(subparser: _Parser, values: dict) -> None:
    """Install config-file values as typed defaults; explicit flags override.

    A value from the file also satisfies a required flag.
    """
    coerced = {}
    for action in subparser._actions:
        if action.dest in values:
            raw = values[action.dest]
            try:
                coerced[action.dest] = action.type(raw) if action.type else raw
            except (ValueError, argparse.ArgumentTypeError) as exc:
                raise _UsageError(f"config value {raw!r} for {action.dest}: {exc}") from None
            if action.choices and coerced[action.dest] not in action.choices:
                raise _UsageError(
                    f"config value {raw!r} for {action.dest} not in {sorted(action.choices)}"
                )
            action.required = False
    unknown = set(values) - set(coerced)
    if unknown:
        raise _UsageError(f"unknown config keys: {', '.join(sorted(unknown))}")
    subparser.set_defaults(**coerced)


def _scan_for_config(argv: list, commands: dict) -> tuple[str | None, str | None]:
    command = next((token for token in argv if token in commands), None)
    config = None
    for i, token in enumerate(argv):
        if token == "--config" and i + 1 < len(argv):
            config = argv[i + 1]
        elif token.startswith("--config="):
            config = token.split("=", 1)[1]
    return command, config


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    parser, commands = build_parser()
    try:
        command, config = _scan_for_config(argv, commands)
        if command and config:
            _apply_config_defaults(commands[command], _read_config_file(config))
        args = parser.parse_args(argv)
        return args.func(args)
    except _UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except SystemExit as exc:  # --help / --version
        return 0 if not exc.code else 1
    except NumericalFailureError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 2
    except EbmnmError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
