"""Command-line interface: files, exit codes, determinism, manifests."""

import json

import jsonschema
import numpy as np
import pytest

from ebmnm import core
from ebmnm.cli import main
from ebmnm.core import MixturePrior, load_matrix_csv, load_prior, save_prior


def run(*argv):
    return main(list(argv))


@pytest.fixture
def sim_dir(tmp_path):
    out = tmp_path / "sim"
    assert run("simulate", "--scenario", "hybrid", "--n", "120", "--R", "4",
               "--seed", "5", "--n-test", "60", "--out", str(out)) == 0
    return out


class TestSimulate:
    def test_writes_five_files_without_test_set(self, tmp_path):
        out = tmp_path / "s"
        assert run("simulate", "--scenario", "hybrid", "--n", "30", "--R", "3",
                   "--seed", "1", "--out", str(out)) == 0
        names = sorted(p.name for p in out.iterdir())
        assert names == ["noise.csv", "simulate.manifest.json", "theta.csv",
                         "true_prior.json", "x.csv"]

    def test_same_seed_is_byte_identical(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        for out in (a, b):
            assert run("simulate", "--scenario", "rank1", "--n", "40", "--R", "5",
                       "--seed", "9", "--out", str(out)) == 0
        for name in ("x.csv", "noise.csv", "theta.csv", "true_prior.json"):
            assert (a / name).read_bytes() == (b / name).read_bytes()

    def test_rank1_low_dimension_fails_with_message(self, tmp_path, capsys):
        code = run("simulate", "--scenario", "rank1", "--n", "10", "--R", "3",
                   "--seed", "1", "--out", str(tmp_path / "x"))
        assert code == 1
        assert "R >= 5" in capsys.readouterr().err


class TestFit:
    def test_dataset_validated_once(self, sim_dir, tmp_path, monkeypatch):
        passes = []
        original = core._check_dataset
        monkeypatch.setattr(core, "_check_dataset", lambda ds: passes.append(original(ds)))
        assert run("fit", "--x", str(sim_dir / "x.csv"), "--noise",
                   str(sim_dir / "noise.csv"), "--algorithm", "ed", "--components", "3",
                   "--max-iterations", "3", "--seed", "2", "--out", str(tmp_path / "fit")) == 0
        assert len(passes) == 1

    def test_smoke_with_monotone_trace(self, sim_dir, tmp_path):
        out = tmp_path / "fit"
        assert run("fit", "--x", str(sim_dir / "x.csv"), "--noise",
                   str(sim_dir / "noise.csv"), "--algorithm", "ted", "--penalty", "iw",
                   "--penalty-strength", "R", "--components", "6",
                   "--max-iterations", "200", "--seed", "2", "--out", str(out)) == 0
        trace = np.loadtxt(out / "trace.csv", delimiter=",", skiprows=1, ndmin=2)
        assert np.diff(trace[:, 1]).min() >= -1e-8
        prior = load_prior(out / "prior.json")
        assert prior.n_components == 6

    def test_deterministic_outputs(self, sim_dir, tmp_path):
        outs = [tmp_path / "f1", tmp_path / "f2"]
        for out in outs:
            assert run("fit", "--x", str(sim_dir / "x.csv"), "--noise",
                       str(sim_dir / "noise.csv"), "--components", "3",
                       "--max-iterations", "40", "--seed", "7", "--out", str(out)) == 0
        assert (outs[0] / "prior.json").read_bytes() == (outs[1] / "prior.json").read_bytes()

    def test_ted_rejects_per_observation_noise(self, sim_dir, tmp_path, capsys):
        x = load_matrix_csv(sim_dir / "x.csv")
        noise = np.tile(np.eye(4), (x.shape[0], 1))
        np.savetxt(tmp_path / "vper.csv", noise, delimiter=",")
        code = run("fit", "--x", str(sim_dir / "x.csv"), "--noise",
                   str(tmp_path / "vper.csv"), "--algorithm", "ted",
                   "--out", str(tmp_path / "bad"))
        assert code == 1
        assert "shared" in capsys.readouterr().err

    def test_nn_penalty_with_ed_rejected(self, sim_dir, tmp_path):
        assert run("fit", "--x", str(sim_dir / "x.csv"), "--noise",
                   str(sim_dir / "noise.csv"), "--algorithm", "ed", "--penalty", "nn",
                   "--out", str(tmp_path / "bad")) == 1

    def test_threads_flag_rejected(self, sim_dir, tmp_path):
        assert run("fit", "--x", str(sim_dir / "x.csv"), "--noise",
                   str(sim_dir / "noise.csv"), "--threads", "1",
                   "--out", str(tmp_path / "bad")) == 1

    def test_manifest_records_parameters(self, sim_dir, tmp_path):
        out = tmp_path / "fitm"
        assert run("fit", "--x", str(sim_dir / "x.csv"), "--noise",
                   str(sim_dir / "noise.csv"), "--components", "2",
                   "--max-iterations", "10", "--seed", "3", "--out", str(out)) == 0
        doc = json.loads((out / "fit.manifest.json").read_text())
        assert doc["command"] == "fit"
        assert doc["parameters"]["seed"] == 3
        assert doc["parameters"]["components"] == 2
        assert str(sim_dir / "x.csv") in doc["inputs"]


# Fixed before the first run: the scaled fit repeats the unscaled one step
# for step up to rounding, which the data, the noise and the start drawn on
# the noise's scale carry through every iteration.
SCALE_RTOL = 1e-8


def _posterior_means(x, noise, algorithm, out):
    assert run("fit", "--x", str(x), "--noise", str(noise), "--algorithm", algorithm,
               "--max-iterations", "100", "--seed", "4", "--out", str(out / "fit")) == 0
    assert run("posterior", "--x", str(x), "--noise", str(noise), "--prior",
               str(out / "fit" / "prior.json"), "--out", str(out / "post")) == 0
    return np.loadtxt(out / "post" / "summary.csv", delimiter=",", skiprows=1)[:, 3]


class TestScaleFreeStart:
    """Data times ``s`` with noise times ``s^2`` give posterior means times ``s``."""

    @pytest.mark.parametrize("algorithm", ["ted", "ed"])
    @pytest.mark.parametrize("s", [1e-50, 1e-3, 1e3, 1e50])
    def test_posterior_means_scale_with_the_data(self, tmp_path, algorithm, s):
        sim_out = tmp_path / "sim"
        assert run("simulate", "--scenario", "hybrid", "--n", "500", "--R", "5",
                   "--seed", "3", "--out", str(sim_out)) == 0
        core.save_matrix_csv(tmp_path / "x.csv", s * load_matrix_csv(sim_out / "x.csv"))
        core.save_matrix_csv(tmp_path / "noise.csv",
                             s * s * load_matrix_csv(sim_out / "noise.csv"))
        base = _posterior_means(sim_out / "x.csv", sim_out / "noise.csv", algorithm,
                                tmp_path / "base")
        scaled = _posterior_means(tmp_path / "x.csv", tmp_path / "noise.csv", algorithm,
                                  tmp_path / "scaled")
        assert np.max(np.abs(scaled / s - base)) <= SCALE_RTOL * np.max(np.abs(base))


class TestPosterior:
    def test_row_count_is_n_times_r(self, sim_dir, tmp_path):
        fit_out = tmp_path / "fit"
        assert run("fit", "--x", str(sim_dir / "x.csv"), "--noise",
                   str(sim_dir / "noise.csv"), "--components", "3",
                   "--max-iterations", "30", "--out", str(fit_out)) == 0
        post_out = tmp_path / "post"
        assert run("posterior", "--x", str(sim_dir / "x.csv"), "--noise",
                   str(sim_dir / "noise.csv"), "--prior", str(fit_out / "prior.json"),
                   "--out", str(post_out)) == 0
        lines = (post_out / "summary.csv").read_text().strip().splitlines()
        assert lines[0] == "observation,coordinate,x,posterior_mean,posterior_sd,lfsr"
        assert len(lines) - 1 == 120 * 4

    def test_zero_covariance_prior_gives_zero_means(self, sim_dir, tmp_path):
        prior = MixturePrior(np.array([1.0]), np.zeros((1, 4, 4)))
        save_prior(prior, tmp_path / "zero.json")
        out = tmp_path / "post0"
        assert run("posterior", "--x", str(sim_dir / "x.csv"), "--noise",
                   str(sim_dir / "noise.csv"), "--prior", str(tmp_path / "zero.json"),
                   "--out", str(out)) == 0
        table = np.loadtxt(out / "summary.csv", delimiter=",", skiprows=1)
        np.testing.assert_array_equal(table[:, 3], 0.0)

    def test_dimension_mismatch_fails(self, sim_dir, tmp_path):
        prior = MixturePrior(np.array([1.0]), np.eye(2)[None])
        save_prior(prior, tmp_path / "small.json")
        assert run("posterior", "--x", str(sim_dir / "x.csv"), "--noise",
                   str(sim_dir / "noise.csv"), "--prior", str(tmp_path / "small.json"),
                   "--out", str(tmp_path / "bad")) == 1


REPORT_SCHEMA = {
    "type": "object",
    "required": ["kl_divergence", "empirical_fsr", "significant_count",
                 "threshold", "curve"],
    "properties": {
        "kl_divergence": {"type": "number"},
        "empirical_fsr": {"type": "number", "minimum": 0, "maximum": 1},
        "significant_count": {"type": "integer", "minimum": 0},
        "threshold": {"type": "number"},
        "curve": {
            "type": "array",
            "items": {
                "type": "object",
                "required": ["threshold", "power", "fsr"],
                "properties": {
                    "threshold": {"type": "number"},
                    "power": {"type": "number", "minimum": 0, "maximum": 1},
                    "fsr": {"type": "number", "minimum": 0, "maximum": 1},
                },
            },
        },
    },
}


class TestEvaluate:
    def test_true_prior_dimension_mismatch_fails(self, sim_dir, tmp_path, capsys):
        save_prior(MixturePrior(np.array([1.0]), np.eye(2)[None]), tmp_path / "small.json")
        assert run("evaluate", "--test-x", str(sim_dir / "test_x.csv"),
                   "--test-noise", str(sim_dir / "noise.csv"),
                   "--theta-test", str(sim_dir / "test_theta.csv"),
                   "--true-prior", str(tmp_path / "small.json"),
                   "--fitted-prior", str(sim_dir / "true_prior.json"),
                   "--out", str(tmp_path / "ev")) == 1
        assert "error: prior dimension 2 does not match" in capsys.readouterr().err

    def test_oracle_prior_has_zero_kl(self, sim_dir, tmp_path):
        out = tmp_path / "ev"
        assert run("evaluate", "--test-x", str(sim_dir / "test_x.csv"),
                   "--test-noise", str(sim_dir / "noise.csv"),
                   "--theta-test", str(sim_dir / "test_theta.csv"),
                   "--true-prior", str(sim_dir / "true_prior.json"),
                   "--fitted-prior", str(sim_dir / "true_prior.json"),
                   "--out", str(out)) == 0
        doc = json.loads((out / "report.json").read_text())
        assert doc["kl_divergence"] == 0.0
        jsonschema.validate(doc, REPORT_SCHEMA)

    def test_zero_threshold_reports_empty_set(self, sim_dir, tmp_path):
        out = tmp_path / "ev0"
        assert run("evaluate", "--test-x", str(sim_dir / "test_x.csv"),
                   "--test-noise", str(sim_dir / "noise.csv"),
                   "--theta-test", str(sim_dir / "test_theta.csv"),
                   "--true-prior", str(sim_dir / "true_prior.json"),
                   "--fitted-prior", str(sim_dir / "true_prior.json"),
                   "--threshold", "0", "--out", str(out)) == 0
        doc = json.loads((out / "report.json").read_text())
        assert doc["empirical_fsr"] == 0.0
        assert doc["significant_count"] == 0

    def test_missing_ground_truth_is_io_error(self, sim_dir, tmp_path):
        assert run("evaluate", "--test-x", str(sim_dir / "test_x.csv"),
                   "--test-noise", str(sim_dir / "noise.csv"),
                   "--theta-test", str(sim_dir / "missing.csv"),
                   "--true-prior", str(sim_dir / "true_prior.json"),
                   "--fitted-prior", str(sim_dir / "true_prior.json"),
                   "--out", str(tmp_path / "bad")) == 3


class TestBench:
    def test_small_grid(self, tmp_path):
        out = tmp_path / "bench"
        assert run("bench", "--scenarios", "hybrid", "--algorithms", "ted",
                   "--penalties", "none,iw", "--n", "60", "--n-test", "40",
                   "--R", "3", "--K", "3", "--replicates", "2",
                   "--max-iterations", "30", "--threads", "1", "--seed", "3",
                   "--out", str(out)) == 0
        lines = (out / "bench.csv").read_text().strip().splitlines()
        assert len(lines) == 1 + 2 * 2  # header + replicates x penalties
        assert lines[0].startswith("scenario,replicate,")

    def test_unsupported_combinations_skipped(self, tmp_path):
        out = tmp_path / "bench2"
        assert run("bench", "--scenarios", "hybrid", "--algorithms", "ted,ed,fa",
                   "--penalties", "none,iw,nn", "--n", "40", "--n-test", "20",
                   "--R", "3", "--K", "2", "--replicates", "1",
                   "--max-iterations", "20", "--threads", "1",
                   "--out", str(out)) == 0
        lines = (out / "bench.csv").read_text().strip().splitlines()
        # ted takes every penalty, ed all but nn, fa none of them.
        cells = [tuple(line.split(",")[5:7]) for line in lines[1:]]
        assert cells == [("ted", "none"), ("ted", "iw"), ("ted", "nn"),
                         ("ed", "none"), ("ed", "iw"), ("fa", "none")]


    def test_bad_penalty_strength_is_usage_error(self, tmp_path, capsys):
        code = run("bench", "--scenarios", "hybrid", "--algorithms", "ted",
                   "--penalties", "iw", "--penalty-strength", "abc", "--n", "20",
                   "--n-test", "10", "--R", "3", "--K", "2", "--replicates", "1",
                   "--threads", "1", "--out", str(tmp_path / "bad"))
        assert code == 1
        assert "error:" in capsys.readouterr().err


class TestConfigFile:
    def test_file_supplies_defaults_and_flags_override(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("scenario = hybrid\nn = 25\nR = 3\nseed = 4  # comment\n")
        out = tmp_path / "s1"
        assert run("simulate", "--config", str(cfg), "--n", "30",
                   "--out", str(out)) == 0
        manifest = json.loads((out / "simulate.manifest.json").read_text())
        assert manifest["parameters"]["n"] == 30        # flag wins
        assert manifest["parameters"]["R"] == 3         # from file
        assert manifest["parameters"]["seed"] == 4

    def test_unknown_key_rejected(self, tmp_path, capsys):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("bogus = 1\n")
        assert run("simulate", "--config", str(cfg), "--scenario", "hybrid",
                   "--n", "10", "--R", "3", "--out", str(tmp_path / "x")) == 1
        assert "bogus" in capsys.readouterr().err


class TestUsage:
    def test_missing_required_flags(self):
        assert run("fit") == 1

    @pytest.mark.parametrize("flags", [
        ("simulate", "--seed", "-1"),
        ("fit", "--seed", "-1"),
        ("fit", "--components", "0"),
        ("fit", "--components", "-1"),
        ("bench", "--seed", "-1"),
        ("bench", "--K", "0"),
        ("bench", "--K", "-2"),
    ])
    def test_negative_seed_and_empty_mixture_are_usage_errors(self, sim_dir, tmp_path,
                                                              capsys, flags):
        command, *flag = flags
        inputs = {
            "simulate": ("--scenario", "hybrid", "--n", "10", "--R", "3"),
            "fit": ("--x", str(sim_dir / "x.csv"), "--noise", str(sim_dir / "noise.csv"),
                    "--max-iterations", "2"),
            "bench": ("--scenarios", "hybrid", "--algorithms", "ed", "--penalties", "none",
                      "--n", "20", "--n-test", "10", "--R", "3", "--replicates", "1",
                      "--max-iterations", "2", "--threads", "1"),
        }[command]
        assert run(command, *inputs, *flag, "--out", str(tmp_path / "bad")) == 1
        assert f"error: argument {flag[0]}: must be at least" in capsys.readouterr().err

    def test_negative_seed_in_config_file_is_usage_error(self, tmp_path, capsys):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("seed = -3\n")
        assert run("simulate", "--config", str(cfg), "--scenario", "hybrid", "--n", "10",
                   "--R", "3", "--out", str(tmp_path / "x")) == 1
        assert "error: config value '-3' for seed" in capsys.readouterr().err

    def test_unknown_subcommand(self):
        assert run("frobnicate") == 1

    def test_help_exits_zero(self):
        assert run("--help") == 0
