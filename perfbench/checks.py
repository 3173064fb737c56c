"""Correctness checks applied to every benchmark run.

Each check returns a list of problems; an empty list means the output
passed.  A benchmark operation (a fit, a summary, an evaluation or a CLI
command) fails when any check on its output reports a problem.
"""

from __future__ import annotations

import csv
import dataclasses
import math
from pathlib import Path

import numpy as np

# Largest objective decrease between EM iterations treated as rounding,
# relative to the objective's magnitude (the EM monotonicity acceptance
# test allows 1e-8).
MONOTONE_SLACK = 1e-8


def check_trace(objective) -> list[str]:
    """The objective trace is finite and never decreases beyond the slack."""
    obj = np.asarray(objective, dtype=float)
    if obj.size == 0:
        return ["objective trace is empty"]
    if not np.all(np.isfinite(obj)):
        return ["objective trace has non-finite values"]
    drops = obj[:-1] - obj[1:]
    allowed = MONOTONE_SLACK * np.maximum(1.0, np.abs(obj[:-1]))
    bad = np.flatnonzero(drops > allowed)
    if bad.size:
        i = int(bad[0])
        return [f"objective drops by {drops[i]:.3e} after iteration {i}"]
    return []


def check_prior_reload(load) -> list[str]:
    """``load()`` re-reads a fitted prior through the package's validation."""
    try:
        load()
    except Exception as exc:  # any failure to reload is the finding itself
        return [f"fitted prior does not reload: {type(exc).__name__}: {exc}"]
    return []


def check_summary(mean, sd, lfsr, n: int, dim: int) -> list[str]:
    problems = []
    for label, a in (("mean", mean), ("sd", sd), ("lfsr", lfsr)):
        a = np.asarray(a)
        if a.shape != (n, dim):
            problems.append(f"{label} has shape {a.shape}, expected {(n, dim)}")
        elif not np.all(np.isfinite(a)):
            problems.append(f"{label} has non-finite values")
    if problems:
        return problems
    if np.any(np.asarray(sd) < 0):
        problems.append("sd has negative values")
    lfsr = np.asarray(lfsr)
    if np.any(lfsr < 0) or np.any(lfsr > 1):
        problems.append(f"lfsr outside [0, 1]: range [{lfsr.min():.3g}, {lfsr.max():.3g}]")
    return problems


def check_kl(kl) -> list[str]:
    return [] if math.isfinite(kl) else [f"kl divergence is not finite: {kl}"]


def check_cli(exit_code: int, expected_files) -> list[str]:
    """A CLI command exited with 0 and wrote every expected file."""
    problems = [] if exit_code == 0 else [f"exit code {exit_code}"]
    problems += [f"missing output {p}" for p in map(Path, expected_files) if not p.is_file()]
    return problems


def read_bench_csv(path) -> list[dict]:
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def check_bench_rows(rows: list[dict], expected: int) -> list[str]:
    problems = []
    if len(rows) != expected:
        problems.append(f"bench.csv has {len(rows)} rows, expected {expected}")
    for i, row in enumerate(rows):
        try:
            value = float(row["objective"])
        except (KeyError, TypeError, ValueError):
            problems.append(f"bench.csv row {i} has no numeric objective")
            continue
        if not math.isfinite(value):
            problems.append(f"bench.csv row {i} has non-finite objective {value}")
    return problems


def check_same_results(signatures: list) -> list[int]:
    """Indices of the runs whose results differ from the first run's.

    A signature holds each fit's final objective and iteration count; reruns
    of one workload in one invocation must reproduce them exactly.
    """
    return [i for i, s in enumerate(signatures) if s != signatures[0]]


def identical(a, b) -> bool:
    """Equal results: dicts, tuples and dataclasses field by field, arrays exactly."""
    if isinstance(a, dict):
        return a.keys() == b.keys() and all(identical(a[k], b[k]) for k in a)
    if isinstance(a, tuple):
        return len(a) == len(b) and all(identical(x, y) for x, y in zip(a, b))
    if dataclasses.is_dataclass(a):
        return all(identical(getattr(a, f.name), getattr(b, f.name))
                   for f in dataclasses.fields(a))
    return bool(np.array_equal(a, b))
