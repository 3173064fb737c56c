"""The benchmark: one workload, repeated in fresh child processes.

Usage (from the repository root):

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Each run starts ``child.py`` in a new process, which sets up the workload's
inputs from the seed, runs the program on them and checks every output.
Runs repeat until ``--seconds`` is used up (at least ``MIN_RUNS`` of each
kind), and each end-to-end metric is the median over the runs.

``--trace 0`` reports the end-to-end metrics of ``BENCHMARK.json``.
``--trace 1`` alternates traced and untraced runs and adds one run with
``OPENBLAS_NUM_THREADS=1``; it reports the per-layer metrics (medians over
the traced runs), the tracing overhead and the single-thread baseline.
Runs inherit the caller's BLAS threading; the result file records it.

The last line printed is a JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``.  Everything else, with each run's raw values,
goes to ``perfbench/out/<workload>-seed<N>-trace<T>/result.json``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

import checks

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
MIN_RUNS = 3
# No run starts after HARD_LIMIT_S, and a run still going at DEADLINE_S is
# killed, so that an invocation ends within three minutes on a slow machine.
HARD_LIMIT_S = 150.0
DEADLINE_S = 170.0
BLAS_VARIABLES = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def git_commit(root: Path) -> str | None:
    """The checked-out commit, read from ``.git`` without running git."""
    head = root / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    ref = ref[5:]
    loose = root / ".git" / ref
    if loose.is_file():
        return loose.read_text().strip()
    packed = root / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    return None


def start_child(workload: str, seed: int, workdir: Path, run: int, traced: bool,
                single_thread: bool, deadline: float) -> dict:
    """Run one child to completion; returns its result plus ``setup_s``."""
    workdir.mkdir(parents=True)
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else src
    if single_thread:
        env["OPENBLAS_NUM_THREADS"] = "1"
    argv = [sys.executable, str(HERE / "child.py"), "--workload", workload, "--seed", str(seed),
            "--workdir", str(workdir), "--run", str(run)] + (["--traced"] if traced else [])
    with open(workdir / "stdout.txt", "w") as out, open(workdir / "stderr.txt", "w") as err:
        spawned = time.monotonic()
        # A session of its own, so that a timeout also ends the pool workers
        # of cli-grid, which are the child's children.
        proc = subprocess.Popen(argv, env=env, stdout=out, stderr=err, start_new_session=True)
        try:
            code = proc.wait(timeout=max(deadline - time.monotonic(), 1.0))
        except subprocess.TimeoutExpired:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.wait()
            code = "timeout"
    ended = time.monotonic()
    result_path = workdir / "result.json"
    if code != 0 or not result_path.is_file():
        return {"error": f"child exited with {code}", "wall_s": ended - spawned}
    result = json.loads(result_path.read_text())
    # Keep the run's result, logs and spans; drop its bulky input and output
    # files (about 40 MB per ted-wide run).
    for entry in workdir.iterdir():
        if entry.is_dir():
            shutil.rmtree(entry)
    result["setup_s"] = result["ready"] - spawned
    result["wall_s"] = ended - spawned
    return result


def end_to_end(result: dict) -> dict:
    values = {k: result[k] for k in ("setup_s", "pipeline_s", "fit_s", "summarize_s",
                                     "peak_rss_mb")}
    values["iter_ms"] = 1000.0 * result["fit_s"] / result["iterations"]
    return values


def median_of(results: list[dict], key) -> float:
    return statistics.median(key(r) for r in results)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    if not (ROOT / "src" / "ebmnm" / "__init__.py").is_file():
        print(f"no ebmnm sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    out_dir = HERE / "out" / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    shutil.rmtree(out_dir, ignore_errors=True)
    out_dir.mkdir(parents=True)

    started = time.monotonic()
    deadline = started + DEADLINE_S
    kinds = ["traced", "plain"] if args.trace else ["plain"]
    runs: dict[str, list[dict]] = {kind: [] for kind in kinds}
    walls: list[float] = []
    while True:
        elapsed = time.monotonic() - started
        needed = any(len(runs[k]) < MIN_RUNS for k in kinds)
        expected = statistics.median(walls) if walls else 0.0
        if elapsed > HARD_LIMIT_S or (not needed and elapsed + expected > args.seconds):
            break
        kind = min(kinds, key=lambda k: len(runs[k]))
        index = sum(len(v) for v in runs.values())
        result = start_child(args.workload, args.seed, out_dir / f"run{index}", index,
                             kind == "traced", False, deadline)
        runs[kind].append(result)
        walls.append(result["wall_s"])
    single = None
    if args.trace:
        index = sum(len(v) for v in runs.values())
        single = start_child(args.workload, args.seed, out_dir / f"run{index}-blas1", index,
                             False, True, deadline)

    # Correctness: every operation of every run, plus identical results
    # across the runs that share one BLAS setting.  A run whose results
    # differ fails all its operations.
    same_setting = [r for kind in kinds for r in runs[kind] if "error" not in r]
    differing = checks.check_same_results([r["signature"] for r in same_setting])
    problems = [f"run {i} results differ from run 0: {same_setting[i]['signature']}"
                for i in differing]
    differ_ids = {id(same_setting[i]) for i in differing}
    attempted = failed = 0
    for r in [r for kind in kinds for r in runs[kind]] + ([single] if single else []):
        if "error" in r:
            attempted += 1
            failed += 1
            problems.append(r["error"])
            continue
        attempted += len(r["ops"])
        failed += sum(bool(errors) or id(r) in differ_ids for _, errors in r["ops"])
        problems += [f"{name}: {e}" for name, errors in r["ops"] for e in errors]

    ok = {kind: [r for r in runs[kind] if "error" not in r] for kind in kinds}
    if not ok["plain"] or (args.trace and not ok["traced"]):
        print("no run completed: " + "; ".join(problems[:5]), file=sys.stderr)
        return 1

    if args.trace:
        listed = spec["per_layer"]
        # Every layer value the children measured, including those that
        # BENCHMARK.json does not list (cli.bench.* on the ungated cli-grid).
        keys = {k for r in ok["traced"] for k in r["layers"]} | {m["name"] for m in listed}
        values = {k: median_of(ok["traced"], lambda r, k=k: r["layers"].get(k, 0.0))
                  for k in sorted(keys)}
        values["trace.overhead_ratio"] = (median_of(ok["traced"], lambda r: r["pipeline_s"])
                                          / median_of(ok["plain"], lambda r: r["pipeline_s"]))
        values["blas.threads"] = ok["plain"][0]["environment"]["blas_threads"]
        values["blas.single_thread_pipeline_s"] = single.get("pipeline_s", 0.0)
    else:
        listed = spec["end_to_end"]
        values = {m["name"]: median_of(ok["plain"], lambda r, k=m["name"]: end_to_end(r)[k])
                  for m in listed}
    metrics = {m["name"]: {"value": values.pop(m["name"]), "unit": m["unit"]} for m in listed}
    extras = values

    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "environment": {
            **ok["plain"][0]["environment"],
            "nproc": len(os.sched_getaffinity(0)),
            "inherited": {v: os.environ.get(v) for v in BLAS_VARIABLES},
            "git_commit": git_commit(ROOT),
            "machine": platform.machine(),
        },
        "runs": {kind: runs[kind] for kind in kinds},
        "single_thread_run": single,
        "problems": problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
        "other_layer_values": extras,
    }
    (out_dir / "result.json").write_text(json.dumps(record, indent=1))

    print(f"workload {args.workload}  seed {args.seed}  "
          + "  ".join(f"{kind} runs {len(ok[kind])}" for kind in kinds)
          + f"  BLAS threads {ok['plain'][0]['environment']['blas_threads']}")
    for name, m in metrics.items():
        print(f"  {name:<40} {m['value']:>14.6g} {m['unit']}")
    for name, value in extras.items():
        print(f"  {name:<40} {value:>14.6g}   (not in BENCHMARK.json)")
    print(f"  {'failure_rate':<40} {failed / attempted:>14.6g} ratio  ({failed}/{attempted})")
    for p in problems[:20]:
        print(f"  problem: {p}")
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
