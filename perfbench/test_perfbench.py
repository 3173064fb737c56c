"""Tests of the benchmark's own arithmetic and checks (no workload runs)."""

import dataclasses
import types

import numpy as np
import pytest

import checks
import tracing


# ---------------------------------------------------------------------------
# Self times
# ---------------------------------------------------------------------------


def test_self_time_subtracts_direct_children_only():
    # 0 [0, 10] > 1 [1, 4] > 2 [2, 3];  0 > 3 [5, 9]
    starts = [0.0, 1.0, 2.0, 5.0]
    ends = [10.0, 4.0, 3.0, 9.0]
    parents = [-1, 0, 1, 0]
    np.testing.assert_allclose(tracing.self_times(starts, ends, parents), [3.0, 2.0, 1.0, 4.0])


def test_self_time_merges_overlap_and_clips_to_parent():
    # Children [1, 5] and [4, 7] overlap; [8, 12] sticks out of the parent.
    starts = [0.0, 1.0, 4.0, 8.0]
    ends = [10.0, 5.0, 7.0, 12.0]
    parents = [-1, 0, 0, 0]
    assert tracing.self_times(starts, ends, parents)[0] == pytest.approx(10.0 - 6.0 - 2.0)


def test_summarize_spans_totals_per_name():
    names = ["fit", "loglik", "loglik", "fit"]
    starts = [0.0, 1.0, 3.0, 20.0]
    ends = [10.0, 2.0, 6.0, 21.0]
    parents = [-1, 0, 0, -1]
    totals = tracing.summarize_spans(names, starts, ends, parents)
    assert totals["fit"] == {"calls": 2, "s": 11.0, "self_s": 7.0}
    assert totals["loglik"] == {"calls": 2, "s": 4.0, "self_s": 4.0}


def test_tracer_records_parents_and_restores_module():
    mod = types.SimpleNamespace()
    mod.inner = lambda x: x + 1
    mod.outer = lambda x: mod.inner(x) * 2
    user = types.SimpleNamespace(inner=mod.inner)  # imported by name elsewhere
    original_inner = mod.inner
    tracer = tracing.Tracer(run_id=7)
    tracer.install([(mod, "outer", "m.outer"), (mod, "inner", "m.inner"),
                    (user, "inner", "m.inner")])
    assert mod.outer(1) == 4
    assert user.inner(1) == 2
    tracer.uninstall()
    assert mod.inner is original_inner and user.inner is original_inner
    assert tracer.names == ["m.outer", "m.inner", "m.inner"]
    assert tracer.parents == [-1, 0, -1]
    assert all(e >= s for s, e in zip(tracer.starts, tracer.ends))
    spans = tracer.spans()
    assert list(spans["run"]) == [7, 7, 7]
    assert [spans["labels"][i] for i in spans["name"]] == tracer.names


def test_tracer_closes_span_when_call_raises():
    mod = types.SimpleNamespace()

    def boom():
        raise ValueError("x")

    mod.boom = boom
    tracer = tracing.Tracer()
    tracer.install([(mod, "boom", "boom")])
    with pytest.raises(ValueError):
        mod.boom()
    tracer.uninstall()
    assert tracer.ends[0] >= tracer.starts[0] > 0.0
    assert tracer._stack == []


# ---------------------------------------------------------------------------
# Checks reject bad outputs
# ---------------------------------------------------------------------------


def test_trace_check_rejects_decrease_and_accepts_rounding():
    assert checks.check_trace([-100.0, -50.0, -49.0]) == []
    # A drop of 1e-9 relative to |objective| is rounding, not a decrease.
    assert checks.check_trace([-1e4, -1e4 - 1e-5]) == []
    assert checks.check_trace([-100.0, -50.0, -50.1])
    assert checks.check_trace([-100.0, np.nan])
    assert checks.check_trace([])


def test_summary_check_rejects_bad_values():
    n, r = 4, 3
    mean = np.zeros((n, r))
    sd = np.ones((n, r))
    lfsr = np.full((n, r), 0.5)
    assert checks.check_summary(mean, sd, lfsr, n, r) == []
    bad = lfsr.copy()
    bad[2, 1] = 1.0 + 1e-9
    assert checks.check_summary(mean, sd, bad, n, r)
    assert checks.check_summary(mean, -sd, lfsr, n, r)
    assert checks.check_summary(mean[:-1], sd, lfsr, n, r)
    nan_mean = mean.copy()
    nan_mean[0, 0] = np.nan
    assert checks.check_summary(nan_mean, sd, lfsr, n, r)


def test_kl_and_prior_reload_checks():
    assert checks.check_kl(0.01) == []
    assert checks.check_kl(float("inf"))
    assert checks.check_prior_reload(lambda: None) == []

    def invalid():
        raise ValueError("weights do not sum to one")

    assert checks.check_prior_reload(invalid)


def test_cli_check_rejects_exit_code_and_missing_file(tmp_path):
    present = tmp_path / "prior.json"
    present.write_text("{}")
    assert checks.check_cli(0, [present]) == []
    assert checks.check_cli(2, [present])
    assert checks.check_cli(0, [present, tmp_path / "trace.csv"])


def test_bench_rows_check_rejects_missing_row_and_bad_objective(tmp_path):
    table = tmp_path / "bench.csv"
    lines = ["scenario,objective,seconds"] + [f"hybrid,{-100.0 - i},0.5" for i in range(12)]
    table.write_text("\n".join(lines) + "\n")
    rows = checks.read_bench_csv(table)
    assert checks.check_bench_rows(rows, 12) == []
    assert checks.check_bench_rows(rows[:-1], 12)
    rows[3]["objective"] = "nan"
    assert checks.check_bench_rows(rows, 12)


def test_same_results_check_flags_differing_runs():
    a = [["iw", -20695.08, 30], ["nn", -20709.91, 30]]
    b = [["iw", -20695.08, 30], ["nn", -20709.91, 29]]
    assert checks.check_same_results([a, a, a]) == []
    assert checks.check_same_results([a, b, a]) == [1]



@dataclasses.dataclass
class _Summary:
    mean: np.ndarray
    lfsr: np.ndarray


def test_identical_rejects_any_differing_value():
    def result(lfsr_value=0.0, kl=0.25, name="iw"):
        lfsr = np.zeros((2, 3))
        lfsr[1, 2] = lfsr_value
        return {name: (_Summary(np.ones((2, 3)), lfsr), kl)}

    assert checks.identical(result(), result())
    assert not checks.identical(result(), result(lfsr_value=1e-300))
    assert not checks.identical(result(), result(kl=0.5))
    assert not checks.identical(result(), result(name="nn"))
