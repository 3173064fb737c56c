"""Acceptance suite.

Each criterion runs at its stated size and tolerance and prints one
``[acceptance] criterion N: PASS/FAIL`` line.  The batteries are shared
across criteria through module-scoped fixtures, so the full module takes a
few minutes.

Criterion 12 concerns the real-data analysis, which is out of scope by
construction (the data are not reproducible at desk scale); there is no
test for it.
"""

import time

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.stats import norm

from conftest import random_psd
from ebmnm import mixture, posterior, sim
from ebmnm.core import (
    ComponentConstraint,
    Dataset,
    FitConfig,
    MixturePrior,
    Penalty,
)
from ebmnm.solvers import (
    WeightedProblem,
    ed_update,
    penalty_from_eigenvalues,
    scale_factor_update,
    solve_penalized_spectrum,
)


pytestmark = pytest.mark.acceptance


def _report(number: int, ok: bool, detail: str) -> None:
    print(f"\n[acceptance] criterion {number}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"criterion {number}: {detail}"


# ---------------------------------------------------------------------------
# Criteria 1-3: convergence battery (hybrid, n=2000, R=5, K=10)
# ---------------------------------------------------------------------------

N_REPS = 20


@pytest.fixture(scope="module")
def convergence_battery():
    lam = 5.0  # lambda = R
    rows = []
    t0 = time.perf_counter()
    for i in range(N_REPS):
        train, _ = sim.generate(sim.Scenario("hybrid", n=2000, dim=5, seed=1000 + i))
        init = mixture.random_init(5, 10, seed=2000 + i)
        std = dict(max_iterations=2000, tolerance=0.01, warm_start_iterations=20)
        ted = mixture.fit(train, init, FitConfig("ted", **std))
        ed = mixture.fit(train, init, FitConfig("ed", **std))
        # Full-budget ed run (tolerance small enough to never stop early),
        # then ted started from its endpoint.
        ed_full = mixture.fit(train, init, FitConfig(
            "ed", max_iterations=2000, tolerance=1e-9, warm_start_iterations=20))
        rescue = mixture.fit(train, ed_full.prior, FitConfig(
            "ted", max_iterations=2000, tolerance=0.01))
        ted_iw = mixture.fit(train, init, FitConfig(
            "ted", Penalty.inverse_wishart(lam), **std))
        ed_iw = mixture.fit(train, init, FitConfig(
            "ed", Penalty.inverse_wishart(lam), **std))
        rows.append({
            "ted": ted.trace.objective[-1],
            "ed": ed.trace.objective[-1],
            "rescue": rescue.trace.objective[-1],
            "ted_iw": ted_iw.trace.objective[-1],
            "ed_iw": ed_iw.trace.objective[-1],
        })
    rows.append({"seconds": time.perf_counter() - t0})
    return rows


def test_criterion_1_ted_vs_ed(convergence_battery):
    rows = convergence_battery[:N_REPS]
    diffs = np.array([r["ted"] - r["ed"] for r in rows])
    wins = int(np.sum(diffs >= 0))
    worst = float(diffs.min())
    seconds = convergence_battery[-1]["seconds"]
    ok = wins >= 18 and worst >= -1e-6
    _report(1, ok, f"ted >= ed in {wins}/{N_REPS} replicates, worst diff "
                   f"{worst:+.4f} (limit -1e-6), battery {seconds:.0f}s")


def test_criterion_2_penalty_narrows_gap(convergence_battery):
    rows = convergence_battery[:N_REPS]
    ratios = []
    for r in rows:
        gap_plain = abs(r["ted"] - r["ed"])
        if gap_plain < 1.0:
            continue
        ratios.append(abs(r["ted_iw"] - r["ed_iw"]) / gap_plain)
    ok = len(ratios) == 0 or float(np.mean(ratios)) <= 0.20
    detail = (f"mean penalized/unpenalized gap ratio {np.mean(ratios):.4f} over "
              f"{len(ratios)} qualifying replicates (limit 0.20)"
              if ratios else "no replicate had an unpenalized gap >= 1")
    _report(2, ok, detail)


def test_criterion_3_ted_rescues_ed(convergence_battery):
    rows = convergence_battery[:N_REPS]
    reached = sum(1 for r in rows if r["rescue"] >= r["ted"] - 1.0)
    ok = reached >= 18
    _report(3, ok, f"ed+ted within 1 unit of ted in {reached}/{N_REPS} replicates")


# ---------------------------------------------------------------------------
# Criterion 4: EM monotonicity across supported configurations
# ---------------------------------------------------------------------------


def _monotonicity_cases():
    iw, nn = Penalty.inverse_wishart(3.0), Penalty.nuclear_norm(3.0)
    none = Penalty.none()
    return [
        ("ted", none, ("free",), True),
        ("ted", iw, ("free",), True),
        ("ted", nn, ("free",), True),
        ("ted", none, ("rank1",), True),
        ("ted", none, ("scaled",), True),
        ("ted", iw, ("free", "rank1", "scaled"), True),
        ("ted", nn, ("free", "scaled"), True),
        ("ed", none, ("free",), True),
        ("ed", none, ("free",), False),
        ("ed", iw, ("free",), True),
        ("ed", iw, ("free",), False),
        ("ed", none, ("free", "scaled"), False),
        ("fa", none, ("rank1",), True),
        ("fa", none, ("rank1", "scaled"), True),
    ]


def test_criterion_4_em_monotonicity():
    rng = np.random.default_rng(77)
    cases = _monotonicity_cases()
    t0 = time.perf_counter()
    worst = 0.0
    runs = 0
    for i in range(200):
        algorithm, penalty, kinds, shared = cases[i % len(cases)]
        r = int(rng.choice([2, 3, 5]))
        n = int(rng.choice([20, 100]))
        k = int(rng.choice([1, 3]))
        base = random_psd(rng, r)
        constraints = tuple(
            ComponentConstraint.scaled(base) if kinds[j % len(kinds)] == "scaled"
            else ComponentConstraint(kinds[j % len(kinds)])
            for j in range(k)
        )
        theta = rng.multivariate_normal(np.zeros(r), random_psd(rng, r, 3.0), size=n)
        if shared:
            noise = random_psd(rng, r)
            x = theta + rng.multivariate_normal(np.zeros(r), noise, size=n)
        else:
            noise = np.stack([random_psd(rng, r) for _ in range(n)])
            x = theta + np.stack(
                [rng.multivariate_normal(np.zeros(r), noise[j]) for j in range(n)])
        ds = Dataset(x, noise)
        init = mixture.random_init(r, k, seed=int(rng.integers(1 << 31)),
                                   constraints=constraints)
        cfg = FitConfig(algorithm, penalty, max_iterations=15, tolerance=1e-13)
        result = mixture.fit(ds, init, cfg)
        gains = np.diff(result.trace.objective)
        if gains.size:
            worst = min(worst, float(gains.min()))
        runs += 1
    ok = worst >= -1e-8
    _report(4, ok, f"worst objective decrease {worst:.2e} over {runs} instances "
                   f"(limit -1e-8), {time.perf_counter() - t0:.0f}s")


# ---------------------------------------------------------------------------
# Criterion 5: ed subspace preservation
# ---------------------------------------------------------------------------


def test_criterion_5_ed_subspace_preservation():
    rng = np.random.default_rng(55)
    worst = 0.0
    for trial in range(50):
        r, n = 4, 60
        shared = trial < 25
        if shared:
            noise = np.eye(r)
            x = rng.standard_normal((n, r)) * 1.5
        else:
            noise = np.stack([random_psd(rng, r) for _ in range(n)])
            x = rng.standard_normal((n, r)) * 1.5
        ds = Dataset(x, noise)
        problem = WeightedProblem(ds, np.ones(n))
        u_vec = rng.standard_normal(r)
        u = np.outer(u_vec, u_vec)
        for _ in range(50):
            u = ed_update(problem, u)
        a = float(u_vec @ u @ u_vec) / float(u_vec @ u_vec) ** 2
        resid = np.linalg.norm(u - a * np.outer(u_vec, u_vec)) / max(
            np.linalg.norm(u), 1e-300)
        worst = max(worst, resid)
    ok = worst < 1e-8
    _report(5, ok, f"max off-subspace residual {worst:.2e} over 50 starts (limit 1e-8)")


# ---------------------------------------------------------------------------
# Criterion 6: rank-1 lfsr degeneracy
# ---------------------------------------------------------------------------


def test_criterion_6_rank1_lfsr_constant():
    rng = np.random.default_rng(66)
    r, n = 5, 100
    u_true = rng.standard_normal(r)
    theta = np.outer(rng.standard_normal(n), u_true)
    ds = Dataset(theta + rng.standard_normal((n, r)), np.eye(r))
    init = mixture.random_init(r, 1, seed=1, constraints=(ComponentConstraint.rank1(),))
    result = mixture.fit(ds, init, FitConfig("fa", max_iterations=300, tolerance=1e-9))
    fitted_u = result.prior.covariances[0]
    assert np.all(np.abs(np.diag(fitted_u)) > 0)
    summary = posterior.summarize(ds, result.prior)
    spread = float((summary.lfsr.max(axis=1) - summary.lfsr.min(axis=1)).max())
    ok = spread <= 1e-12
    _report(6, ok, f"max lfsr spread across coordinates {spread:.2e} over {n} "
                   f"observations (limit 1e-12)")


# ---------------------------------------------------------------------------
# Criterion 7: oracle KL zero; fitted beats corrupted prior
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def small_nr_battery():
    """20 hybrid small-n/R replicates with ted-iw fits (n=500, R=20)."""
    out = []
    for i in range(20):
        train, truth = sim.generate(
            sim.Scenario("hybrid", n=500, dim=20, seed=4000 + i, n_test=500))
        init = mixture.random_init(20, 10, seed=5000 + i)
        result = mixture.fit(train, init, FitConfig(
            "ted", Penalty.inverse_wishart(20.0), max_iterations=2000,
            tolerance=0.01, warm_start_iterations=20))
        out.append((truth, result.prior))
    return out


def test_criterion_7_kl_oracle_and_corrupted(small_nr_battery):
    oracle_zero = True
    beats = 0
    for truth, fitted in small_nr_battery:
        kl_oracle = sim.kl_divergence(truth.test, truth.prior, truth.prior)
        oracle_zero &= kl_oracle == 0.0
        kl_fit = sim.kl_divergence(truth.test, truth.prior, fitted)
        corrupted = MixturePrior(truth.prior.weights,
                                 np.stack([np.eye(20)] * 10))
        kl_bad = sim.kl_divergence(truth.test, truth.prior, corrupted)
        if np.isfinite(kl_fit) and kl_fit < kl_bad:
            beats += 1
    ok = oracle_zero and beats >= 18
    _report(7, ok, f"oracle KL exactly zero: {oracle_zero}; fitted beats corrupted "
                   f"prior in {beats}/20 replicates")


# ---------------------------------------------------------------------------
# Criterion 8: closed forms vs grid search
# ---------------------------------------------------------------------------


def _grid_penalty(penalty, eigs, grid):
    ratio = eigs[None, :] / grid[:, None]
    if penalty.kind == "iw":
        return 0.5 * penalty.lam * (np.log(ratio) + 1.0 / ratio).sum(axis=1)
    return 0.25 * penalty.lam * (ratio + 1.0 / ratio).sum(axis=1)


def _grid_eig_objective(e, d, w, penalty, s):
    lik = -0.5 * w * (np.log1p(e) + d / (1.0 + e))
    if penalty.kind == "iw":
        return lik - 0.5 * penalty.lam * (np.log(e / s) + s / e)
    return lik - 0.25 * penalty.lam * (e / s + s / e)


def test_criterion_8_closed_forms_match_grid():
    rng = np.random.default_rng(88)
    t0 = time.perf_counter()
    worst_scale = 0.0
    for i in range(1000):
        r = int(rng.integers(2, 6))
        u = random_psd(rng, r, scale=float(np.exp(rng.uniform(-2, 2))))
        eigs = np.linalg.eigvalsh(u)
        penalty = (Penalty.inverse_wishart(1.0) if i % 2 == 0
                   else Penalty.nuclear_norm(1.0))
        s_hat = scale_factor_update(u, penalty)
        coarse = np.geomspace(0.4 * eigs.min(), 2.5 * eigs.max(), 3000)
        i0 = int(np.argmin(_grid_penalty(penalty, eigs, coarse)))
        lo = coarse[max(i0 - 1, 0)]
        hi = coarse[min(i0 + 1, len(coarse) - 1)]
        fine = np.linspace(lo, hi, 4001)
        s_grid = fine[np.argmin(_grid_penalty(penalty, eigs, fine))]
        worst_scale = max(worst_scale, abs(s_hat - s_grid) / s_grid)
    scale_ok = worst_scale <= 1e-4

    worst_eig = 0.0
    for i in range(1000):
        d = float(rng.uniform(0.0, 20.0))
        w = float(rng.uniform(0.5, 500.0))
        lam = float(rng.uniform(0.5, 50.0))
        s = float(np.exp(rng.uniform(np.log(0.01), np.log(20.0))))
        penalty = Penalty("iw" if i % 2 == 0 else "nn", lam)
        e_hat = solve_penalized_spectrum(np.array([d]), w, penalty, s)[0]
        hi = 10.0 * max(d, s, 1.0)
        coarse = np.geomspace(1e-10, hi, 3000)
        e0 = coarse[np.argmax(_grid_eig_objective(coarse, d, w, penalty, s))]
        fine = np.linspace(max(e0 * 0.5, 1e-12), e0 * 2.0 + 1e-4, 40001)
        step = fine[1] - fine[0]
        e_grid = fine[np.argmax(_grid_eig_objective(fine, d, w, penalty, s))]
        worst_eig = max(worst_eig, abs(e_hat - e_grid) - step)
    eig_ok = worst_eig <= 1e-3
    ok = scale_ok and eig_ok
    _report(8, ok, f"scale worst rel err {worst_scale:.2e} (limit 1e-4); "
                   f"eigenvalue worst abs err {worst_eig:.2e} (limit 1e-3); "
                   f"{time.perf_counter() - t0:.0f}s")


# ---------------------------------------------------------------------------
# Criterion 9: posterior against Monte Carlo and quadrature
# ---------------------------------------------------------------------------


def _mc_posterior_check(rng, n_draws=10_000_000, chunk=1_000_000):
    """One random instance checked against Monte Carlo; returns failures."""
    k = int(rng.integers(1, 4))
    r = int(rng.integers(1, 4))
    covs = np.stack([random_psd(rng, r, scale=float(rng.uniform(0.3, 3.0)))
                     for _ in range(k)])
    weights = rng.dirichlet(np.full(k, 2.0))
    prior = MixturePrior(weights, covs)
    noise = random_psd(rng, r)
    x = rng.multivariate_normal(np.zeros(r), covs[0] + noise)
    ds = Dataset(x[None, :], noise)
    pm = posterior.posterior_mixture(ds, prior, 0)
    summary = posterior.summarize(ds, prior)

    # Exact per-coordinate moments and sign probabilities of the mixture.
    mean = pm.weights @ pm.means
    var = pm.weights @ (np.array([np.diag(c) for c in pm.covariances]) + pm.means**2) - mean**2
    sds = np.array([np.sqrt(np.diag(c)) for c in pm.covariances])
    pos = pm.weights @ norm.sf(-pm.means / sds)
    delta = pm.means - mean[None, :]
    mu4 = pm.weights @ (3 * sds**4 + 6 * sds**2 * delta**2 + delta**4)

    chol = [np.linalg.cholesky(c) for c in pm.covariances]
    sums = np.zeros(r)
    sq = np.zeros(r)
    pos_count = np.zeros(r)
    done = 0
    while done < n_draws:
        m = min(chunk, n_draws - done)
        labels = rng.choice(k, size=m, p=pm.weights / pm.weights.sum())
        draws = np.empty((m, r))
        for kk in range(k):
            members = np.flatnonzero(labels == kk)
            if members.size:
                draws[members] = (rng.standard_normal((members.size, r))
                                  @ chol[kk].T + pm.means[kk])
        sums += draws.sum(axis=0)
        sq += (draws**2).sum(axis=0)
        pos_count += (draws >= 0).sum(axis=0)
        done += m

    failures = []
    mc_mean = sums / n_draws
    se_mean = np.sqrt(var / n_draws)
    if np.any(np.abs(mc_mean - summary.mean[0]) > 3 * se_mean):
        failures.append("mean")
    mc_var = sq / n_draws - mc_mean**2
    se_var = np.sqrt(np.maximum(mu4 - var**2, 0) / n_draws)
    if np.any(np.abs(mc_var - summary.sd[0] ** 2) > 3 * se_var):
        failures.append("sd")
    p_hat = pos_count / n_draws
    se_pos = np.sqrt(pos * (1 - pos) / n_draws)
    if np.any(np.abs(p_hat - pos) > 3 * np.maximum(se_pos, 1e-12)):
        failures.append("lfsr")
    lfsr_exact = np.minimum(pos, pm.weights @ norm.cdf(-pm.means / sds))
    if np.any(np.abs(summary.lfsr[0] - lfsr_exact) > 1e-10):
        failures.append("lfsr-identity")
    return failures


def test_criterion_9_posterior_monte_carlo_and_quadrature():
    rng = np.random.default_rng(99)
    t0 = time.perf_counter()
    all_failures = []
    for i in range(20):
        all_failures += _mc_posterior_check(rng)

    # Univariate posterior mean against direct quadrature.
    worst_quad = 0.0
    for _ in range(5):
        u = rng.uniform(0.2, 3.0, size=2)
        v = float(rng.uniform(0.5, 2.0))
        w = rng.dirichlet([2.0, 2.0])
        x = float(rng.uniform(-4, 4))
        ds = Dataset(np.array([[x]]), np.array([[v]]))
        prior = MixturePrior(w, np.array([[[u[0]]], [[u[1]]]]))
        summary = posterior.summarize(ds, prior)

        def joint(t):
            prior_dens = w[0] * norm.pdf(t, 0, np.sqrt(u[0])) + \
                w[1] * norm.pdf(t, 0, np.sqrt(u[1]))
            return prior_dens * norm.pdf(x, t, np.sqrt(v))

        mass, _ = quad(joint, -40, 40, limit=200)
        first, _ = quad(lambda t: t * joint(t), -40, 40, limit=200)
        worst_quad = max(worst_quad, abs(summary.mean[0, 0] - first / mass))
    ok = not all_failures and worst_quad <= 1e-6
    _report(9, ok, f"monte-carlo failures {all_failures or 'none'} over 20 instances; "
                   f"quadrature worst err {worst_quad:.2e} (limit 1e-6); "
                   f"{time.perf_counter() - t0:.0f}s")


# ---------------------------------------------------------------------------
# Criterion 10: scale invariance end to end
# ---------------------------------------------------------------------------


def test_criterion_10_scale_invariance():
    rng = np.random.default_rng(10)
    train, _ = sim.generate(sim.Scenario("hybrid", n=200, dim=5, seed=123))
    init = mixture.random_init(5, 3, seed=7)
    worst = 0.0
    for algorithm, penalty in (("ted", Penalty.none()),
                               ("ed", Penalty.none()),
                               ("ted", Penalty.inverse_wishart(5.0)),
                               ("ed", Penalty.inverse_wishart(5.0))):
        cfg = FitConfig(algorithm, penalty, max_iterations=200, tolerance=0.001)
        base_fit = mixture.fit(train, init, cfg)
        base_mean = posterior.summarize(train, base_fit.prior).mean
        floor = 1e-9 * np.abs(base_mean).max()
        for c in (0.1, 10.0):
            scaled_ds = Dataset(c * train.x, c * c * train.noise)
            # The penalty scale lives in the whitened metric for ted and in
            # the data metric for ed; the init scales accordingly.
            s_init = init.scales * (c * c if algorithm == "ed" else 1.0)
            scaled_init = MixturePrior(init.weights, c * c * init.covariances,
                                       s_init, init.constraints)
            scaled_fit = mixture.fit(scaled_ds, scaled_init, cfg)
            mean = posterior.summarize(scaled_ds, scaled_fit.prior).mean
            rel = np.abs(mean - c * base_mean) / np.maximum(
                np.abs(c * base_mean), c * floor)
            worst = max(worst, float(rel.max()))
    ok = worst <= 1e-6
    _report(10, ok, f"worst relative deviation of posterior means {worst:.2e} "
                    f"(limit 1e-6) across ted/ed, penalized and not, c in {{0.1, 10}}")


# ---------------------------------------------------------------------------
# Criterion 11: robustness to overstating K
# ---------------------------------------------------------------------------


def test_criterion_11_penalty_robust_to_large_k():
    t0 = time.perf_counter()
    fsr = {(pen, k): [] for pen in ("iw", "none") for k in (2, 10, 50)}
    for i in range(5):
        train, truth = sim.generate(
            sim.Scenario("hybrid", n=500, dim=20, seed=6000 + i, n_test=1000))
        for k in (2, 10, 50):
            init = mixture.random_init(20, k, seed=7000 + 10 * i + k)
            for pen_kind in ("iw", "none"):
                penalty = Penalty.inverse_wishart(20.0) if pen_kind == "iw" \
                    else Penalty.none()
                result = mixture.fit(train, init, FitConfig(
                    "ted", penalty, max_iterations=2000, tolerance=0.01,
                    warm_start_iterations=20))
                summary = posterior.summarize(truth.test, result.prior)
                rate, _ = sim.empirical_fsr(summary, truth.theta_test, 0.05)
                fsr[(pen_kind, k)].append(rate)
    mean_fsr = {key: float(np.mean(vals)) for key, vals in fsr.items()}
    iw_drift = mean_fsr[("iw", 50)] - mean_fsr[("iw", 10)]
    plain_rises = mean_fsr[("none", 50)] > mean_fsr[("none", 10)]
    ok = iw_drift <= 0.05 and plain_rises
    _report(11, ok, f"ted-iw fsr drift K10->K50 {iw_drift:+.4f} (limit +0.05); "
                    f"unpenalized fsr K10={mean_fsr[('none', 10)]:.4f} -> "
                    f"K50={mean_fsr[('none', 50)]:.4f} (must rise); "
                    f"{time.perf_counter() - t0:.0f}s")
