"""Coupled trials, gap statistics, perturbed risks, near-minimizers."""

import math
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from ermu import gaussian, universality
from ermu.erm import (
    ConstraintSet,
    ErmProblem,
    Labeler,
    Loss,
    Regularizer,
    SolverConfig,
    generate_labels,
    labels_from_noise,
    mean_with_jackknife_se,
    solve_erm,
)
from ermu.errors import InvalidArgumentError, SolverDivergedError
from ermu.features import draw_features, featurize, sample_covariates
from ermu.gaussian import GaussianEquivalent, empirical_equivalent, sample_gaussian
from ermu.seeds import derive_seed, rng_from
from ermu.stats import BL_NAMES, bl_dictionary, bl_gap, bootstrap_mean_ci, ks_null_quantile, ks_statistic
from ermu.universality import (
    FamilySpec,
    FrozenTestRisk,
    ProblemSpec,
    TwinTestRisk,
    WorkerPool,
    _TEST_BLOCK,
    _risk_on,
    build_instance,
    min_test_over_near_minimizers,
    perturbed_sweep,
    run_single_trial,
    run_trials,
)

PROBLEM = ProblemSpec(loss="huber", tau=0.5, lam=0.1)
RF_SPEC = FamilySpec(id="rf", kind="random-features", cov_mode="hermite-exact", hermite_order=9)


def identity_equiv(p):
    return GaussianEquivalent(factor=np.eye(p))


def twin_test_risk(problem, n_test, seed):
    """The frozen test risk of the identity twin, seeded as the perturbed stage seeds it."""
    equiv = identity_equiv(problem.p)
    return FrozenTestRisk(problem, equiv, n_test, derive_seed(seed, "surrogate"))


def resample_rows(seed, T, n_boot):
    """n_boot resamples of T trial pairs, drawn as the report draws them."""
    return rng_from(seed, "bootstrap").integers(0, T, size=(n_boot, T))


def bl_gap_loop(a, b, idx):
    """bl_gap's bootstrap statistics, one resample of the pairs at a time."""
    pooled = np.concatenate([a, b])
    diff = bl_dictionary(pooled, a)[1] - bl_dictionary(pooled, b)[1]
    return np.array([np.abs(diff[:, rows].mean(axis=1)).max() for rows in idx])


class ConstantTestRisk:
    """Degenerate test-risk term with constant value; gradient is zero."""

    def __init__(self, value: float):
        self._value = float(value)

    def value(self, theta: np.ndarray) -> float:
        return self._value

    def grad(self, theta: np.ndarray) -> np.ndarray:
        return np.zeros_like(np.asarray(theta, dtype=np.float64))


def ridge_problem(p, lam=0.2, seed=0):
    rng = rng_from(seed, "ridge-problem")
    return ErmProblem(
        loss=Loss("huber"),
        labeler=Labeler(tau=0.5),
        theta_star=rng.standard_normal(p) / math.sqrt(p),
        regularizer=Regularizer("ridge", lam),
        constraint=ConstraintSet("l2-ball", R=3.0),
    )


class TestRunTrials:
    def test_accounting_one_trial(self):
        inst = build_instance(FamilySpec(id="lin", kind="linear-independent"), PROBLEM, 60, 5)
        rows = run_trials(WorkerPool(1, [inst]), trials=1, master_seed=5, n_test=40)
        assert len(rows) == 2
        assert {r.arm for r in rows} == {"x", "g"}
        assert rows[0].family == "lin" and rows[0].n == 60

    def test_linear_nu_scales_features_and_twin_alike(self):
        # Both arms of a linear cell have second moment nu I.
        spec = FamilySpec(id="lin", kind="linear-independent", entry_law="uniform", nu=2.0)
        inst = build_instance(spec, PROBLEM, 400, 5)
        X = draw_features(inst.model, 4000, seed=1)
        G = sample_gaussian(inst.twin(X), 4000, seed=2)
        sq_x, sq_g = (X * X).ravel(), (G * G).ravel()
        se = math.hypot(sq_x.std() / math.sqrt(sq_x.size), sq_g.std() / math.sqrt(sq_g.size))
        assert abs(sq_x.mean() - sq_g.mean()) <= 5.0 * se
        assert abs(sq_g.mean() - 2.0) <= 5.0 * sq_g.std() / math.sqrt(sq_g.size)

    def test_determinism_bitwise(self):
        inst = build_instance(FamilySpec(id="lin", kind="linear-independent"), PROBLEM, 50, 7)
        r1 = run_trials(WorkerPool(1, [inst]), trials=3, master_seed=7, n_test=30)
        r2 = run_trials(WorkerPool(1, [inst]), trials=3, master_seed=7, n_test=30)
        assert [(a.train_opt, a.test_x, a.seed) for a in r1] == [
            (b.train_opt, b.test_x, b.seed) for b in r2
        ]

    def test_coupling_shares_label_noise(self):
        # Reconstruct the noise consumed by both arms from the trial seed;
        # the two arms must see the identical vector.
        from ermu.seeds import derive_seed

        spec = FamilySpec(id="lin", kind="linear-independent")
        inst = build_instance(spec, PROBLEM, 40, 11)
        trial_seed = derive_seed(11, "lin", inst.n, 0)
        eps = inst.problem.labeler.draw_noise(inst.n, derive_seed(trial_seed, "eps"))
        eps_again = inst.problem.labeler.draw_noise(inst.n, derive_seed(trial_seed, "eps"))
        assert np.array_equal(eps, eps_again)
        rows = run_trials(WorkerPool(1, [inst]), trials=1, master_seed=11, n_test=10)
        assert rows[0].seed == trial_seed == rows[1].seed

    def test_control_family_null_calibration(self):
        spec = FamilySpec(id="control", kind="control-gaussian", radius=3.0)
        inst = build_instance(spec, PROBLEM, 400, master_seed=4242)
        gaps = []
        for t in range(50):
            rx, rg = run_single_trial(inst, t, 4242, SolverConfig(), n_test=16)
            gaps.append(rx.train_opt - rg.train_opt)
        gaps = np.asarray(gaps)
        se = gaps.std(ddof=1) / math.sqrt(gaps.size)
        assert abs(gaps.mean()) <= 3.0 * se

    def test_invalid_trial_count(self):
        inst = build_instance(FamilySpec(id="lin", kind="linear-independent"), PROBLEM, 30, 1)
        with pytest.raises(InvalidArgumentError):
            run_trials(WorkerPool(1, [inst]), trials=0, master_seed=1)

    def test_rows_carry_feasible_solutions(self):
        inst = build_instance(FamilySpec(id="lin", kind="linear-independent"), PROBLEM, 40, 3)
        rx, rg = run_single_trial(inst, 0, 3, SolverConfig(), n_test=10)
        for row in (rx, rg):
            assert row.train_opt >= 0.0

    def test_streamed_test_risk_matches_one_batch(self, monkeypatch):
        # The x arm's test rows are drawn, featurized in float32 and scored
        # in blocks; its test_x and test_x_se are those of the whole batch
        # drawn, featurized in float32 and scored at once.
        inst = build_instance(RF_SPEC, PROBLEM, 60, 5)
        seen = []
        stream = universality._test_losses

        def recording(instance, thetas, n_test, seed):
            seen.append((list(thetas), seed))
            return stream(instance, thetas, n_test, seed)

        monkeypatch.setattr(universality, "_test_losses", recording)
        n_test = 2 * _TEST_BLOCK + 3
        rows = run_single_trial(inst, 0, 5, SolverConfig(), n_test)
        ((thetas, seed),) = seen
        Z = sample_covariates(inst.model, n_test, derive_seed(seed, "x"))
        X = featurize(inst.model, Z.astype(np.float32)).astype(np.float64)
        eps = inst.problem.labeler.draw_noise(n_test, derive_seed(seed, "noise"))
        labels = labels_from_noise(inst.problem, X, eps)
        assert len(thetas) == len(rows) == 2
        for row, theta in zip(rows, thetas):
            mean, se = mean_with_jackknife_se(_risk_on(inst.problem, theta, X, labels))
            assert abs(row.test_x - mean) <= 1e-14 * abs(mean)
            assert abs(row.test_x_se - se) <= 1e-14 * abs(se)

    def test_trial_memory_grows_by_per_row_vectors_only(self):
        # Ten times the test rows add a few length-n_test vectors (noise and
        # the two arms' losses), not an n_test x p batch.
        inst = build_instance(RF_SPEC, PROBLEM, 60, 5)

        def peak(n_test):
            tracemalloc.start()
            try:
                run_single_trial(inst, 0, 5, SolverConfig(), n_test)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        small, large = peak(2000), peak(20000)
        assert large - small < 4 * 8 * (20000 - 2000) + _TEST_BLOCK * inst.p * 8

    @pytest.mark.parametrize(
        "spec, base",
        [
            (FamilySpec(id="nt", kind="neural-tangent", cov_mode="empirical"), 16),
            (RF_SPEC, 600),
        ],
        ids=["empirical-nt", "hermite-exact-rf"],
    )
    def test_trial_holds_at_most_two_batches(self, spec, base):
        # The x arm is solved and released before G is drawn, so the trial
        # holds X and an empirical twin's factor, or G and its normals: two
        # n x p arrays, plus one block of normals of a blocked twin draw.
        inst = build_instance(spec, PROBLEM, base, 5)
        n, p = inst.n, inst.p
        tracemalloc.start()
        try:
            run_single_trial(inst, 0, 5, SolverConfig(), n_test=0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 2 * n * p * 8 + gaussian._ROW_BLOCK * (n + p) * 8 + 64 * 1024

    def test_no_test_pass_when_no_arm_solved(self, monkeypatch):
        def diverging_solve(*args, **kwargs):
            raise SolverDivergedError("objective is not finite", 7)

        def unexpected(*args, **kwargs):
            raise AssertionError("the test pass ran with no solved arm")

        monkeypatch.setattr(universality, "solve_erm", diverging_solve)
        monkeypatch.setattr(universality, "covariate_blocks", unexpected)
        monkeypatch.setattr(universality, "TwinTestRisk", unexpected)
        inst = build_instance(RF_SPEC, PROBLEM, 60, 5)
        for row in run_single_trial(inst, 0, 5, SolverConfig(), n_test=500):
            assert row.quarantined and row.iters == 7
            assert all(
                math.isnan(v) for v in (row.test_x, row.test_x_se, row.test_g, row.test_g_se)
            )


class TestBlGap:
    def test_identical_samples_zero(self):
        a = rng_from(1, "a").standard_normal(200)
        result = bl_gap(a, a.copy(), resample_rows(0, 200, 100))
        assert result["max"] == 0.0
        assert all(v == 0.0 for v in result["per_psi"].values())

    def test_identical_arms_have_a_zero_ci(self):
        # Each resample picks whole pairs, so with identical arms every
        # resample's gap is exactly zero.
        a = rng_from(1, "a").standard_normal(30)
        result = bl_gap(a, a.copy(), resample_rows(0, 30, 200))
        assert (result["ci_lo"], result["ci_hi"]) == (0.0, 0.0)

    def test_unit_ramp_hand_values(self):
        # The pooled sample 0..10 has quantiles 1, 2.5, 5, 7.5, 9 and spread
        # sqrt(10), so row 5 is the ramp of delta sqrt(10) from rho 1.
        pooled = np.arange(11.0)
        t = np.array([-1.0, 1.0, 1.0 + 0.5 * math.sqrt(10), 1.0 + math.sqrt(10), 20.0])
        ramps, values = bl_dictionary(pooled, t)
        assert ramps.shape == (15, 2) and values.shape == (17, 5)
        assert ramps[5].tolist() == pytest.approx([math.sqrt(10), 1.0], rel=1e-15)
        assert ramps[:, 1].tolist() == pytest.approx([1.0, 2.5, 5.0, 7.5, 9.0] * 3, rel=1e-15)
        assert ramps[:, 0].tolist() == pytest.approx(
            [0.5 * math.sqrt(10)] * 5 + [math.sqrt(10)] * 5 + [2 * math.sqrt(10)] * 5, rel=1e-15
        )
        assert values[5].tolist() == pytest.approx([0.0, 0.0, 0.5, 1.0, 1.0], abs=1e-15)
        assert BL_NAMES[5] == "ramp5" and BL_NAMES[15:] == ("clipped-identity", "clipped-quadratic")

    def test_ramp_separates_point_masses(self):
        a, b = np.zeros(50), np.ones(50)
        result = bl_gap(a, b, resample_rows(1, 50, 50))
        assert result["max"] == pytest.approx(1.0)

    def test_shifted_gaussians_match_oversampled_oracle(self):
        rng = rng_from(2, "bl")
        a = rng.standard_normal(10_000)
        b = rng.standard_normal(10_000) + 0.5
        idx = resample_rows(3, 10_000, 400)
        res = bl_gap(a, b, idx)
        se = bl_gap_loop(a, b, idx).std(ddof=1)
        big_a = rng.standard_normal(1_000_000)
        big_b = rng.standard_normal(1_000_000) + 0.5
        pooled = np.concatenate([a, b])
        (_, psi_a), (_, psi_b) = bl_dictionary(pooled, big_a), bl_dictionary(pooled, big_b)
        oracle = np.abs(psi_a.mean(axis=1) - psi_b.mean(axis=1)).max()
        assert abs(res["max"] - oracle) <= 3.0 * max(se, 1e-6)

    def test_empty_rejected(self):
        with pytest.raises(InvalidArgumentError):
            bl_gap(np.array([]), np.array([1.0]), resample_rows(0, 1, 2))
        with pytest.raises(InvalidArgumentError, match="empty"):
            bl_gap(np.array([]), np.array([]), resample_rows(0, 0, 2))

    def test_unequal_sizes_rejected(self):
        with pytest.raises(InvalidArgumentError, match="same size"):
            bl_gap(np.zeros(3), np.zeros(4), resample_rows(0, 3, 2))

    @pytest.mark.parametrize("T", [2, 4, 7, 30, 100])
    def test_matches_per_resample_loop_bit_for_bit(self, T):
        rng = rng_from(21, "bl-oracle", T)
        a, b = rng.standard_normal(T), rng.standard_normal(T) + 0.3
        idx = resample_rows(T, T, 500)
        res = bl_gap(a, b, idx)
        alpha = 0.5 * (1.0 - 0.95)
        lo, hi = np.quantile(bl_gap_loop(a, b, idx), [alpha, 1.0 - alpha])
        assert (res["ci_lo"], res["ci_hi"]) == (lo, hi)

    def test_ci_takes_the_level(self):
        # At level 0.8 the CI is the 0.1 and 0.9 quantiles of the same resamples;
        # (1 - 0.8) / 2 is 0.1 only up to rounding, hence the relative 1e-12.
        rng = rng_from(22, "bl-level")
        a, b = rng.standard_normal(30), rng.standard_normal(30) + 0.3
        idx = resample_rows(5, 30, 500)
        res = bl_gap(a, b, idx, level=0.8)
        lo, hi = np.quantile(bl_gap_loop(a, b, idx), [0.1, 0.9])
        assert (res["ci_lo"], res["ci_hi"]) == (
            pytest.approx(lo, rel=1e-12), pytest.approx(hi, rel=1e-12))
        wide = bl_gap(a, b, idx)
        assert wide["ci_lo"] < res["ci_lo"] < res["ci_hi"] < wide["ci_hi"]


class TestKs:
    def test_identical_multisets(self):
        a = np.array([3.0, 1.0, 2.0, 2.0])
        assert ks_statistic(a, a[::-1]) == 0.0

    def test_disjoint_supports(self):
        assert ks_statistic(np.zeros(3), np.ones(5)) == 1.0

    def test_null_below_asymptotic_quantile(self):
        rng = rng_from(4, "ks")
        threshold = 1.628 * math.sqrt(2.0 / 1000.0)
        hits = 0
        for _ in range(100):
            a = rng.standard_normal(1000)
            b = rng.standard_normal(1000)
            if ks_statistic(a, b) < threshold:
                hits += 1
        assert hits >= 95

    def test_matches_scipy(self):
        scipy_stats = pytest.importorskip("scipy.stats")
        rng = rng_from(5, "sp")
        a, b = rng.standard_normal(37), rng.uniform(-1, 1, 53)
        assert ks_statistic(a, b) == pytest.approx(
            scipy_stats.ks_2samp(a, b, method="asymp").statistic
        )

    def test_simulated_null_quantile_scale(self):
        q = ks_null_quantile(50, 50, level=0.99, n_sims=400, seed=6)
        assert 0.2 <= q <= 0.45  # 1.628 sqrt(2/50) ~ 0.326

    @pytest.mark.parametrize("n_a, n_b", [(2, 2), (4, 4), (7, 7), (30, 30), (100, 100), (5, 9)])
    def test_null_matches_per_simulation_loop_bit_for_bit(self, n_a, n_b):
        rng = rng_from(6, "ks-null", n_a, n_b)
        stats = [ks_statistic(rng.standard_normal(n_a), rng.standard_normal(n_b)) for _ in range(300)]
        oracle = float(np.quantile(stats, 0.99))
        assert ks_null_quantile(n_a, n_b, level=0.99, n_sims=300, seed=6) == oracle


class TestBootstrap:
    def test_ci_contains_point_estimate(self):
        vals = rng_from(7, "b").standard_normal(40)
        mean, lo, hi, se = bootstrap_mean_ci(vals, resample_rows(1, 40, 500))
        assert lo <= mean <= hi
        assert se > 0

    def test_single_value_degenerate(self):
        mean, lo, hi, se = bootstrap_mean_ci(np.array([2.0]), resample_rows(0, 1, 100))
        assert mean == lo == hi == 2.0
        assert se == 0.0

    def test_deterministic(self):
        vals = rng_from(8, "b2").standard_normal(25)
        idx = resample_rows(9, 25, 300)
        assert bootstrap_mean_ci(vals, idx) == bootstrap_mean_ci(vals, idx.copy())


def twin_problem(loss, labeler, noise_law, p):
    rng = rng_from(31, "twin-problem", p)
    return ErmProblem(
        loss=Loss(loss),
        labeler=Labeler(eta_kind=labeler, tau=0.5, noise_law=noise_law),
        theta_star=rng.standard_normal(p) / math.sqrt(p),
        regularizer=Regularizer("ridge", 0.1),
        constraint=ConstraintSet("l2-ball", R=3.0),
    )


def twin_kinds(p):
    """A square-factor twin, the linear p x 0 twin (nu = 2) and an empirical p x n twin."""
    rng = rng_from(32, "twins", p)
    return {
        "square": GaussianEquivalent(factor=rng.standard_normal((p, p)) / math.sqrt(p)),
        "linear": GaussianEquivalent(factor=np.zeros((p, 0)), iso_scale=math.sqrt(2.0)),
        "empirical": empirical_equivalent(rng.standard_normal((p // 2, p))),
    }


def probe_point(problem, scale=1.0):
    """theta_star plus an orthogonal-ish random direction, so that both alpha and beta are nonzero."""
    p = problem.p
    return 0.7 * problem.theta_star + scale * rng_from(33, "point", p).standard_normal(p) / math.sqrt(p)


def central_differences(fn, theta, h=1e-6):
    out = np.empty_like(theta)
    for i in np.ndindex(theta.shape):
        e = np.zeros_like(theta)
        e[i] = h
        out[i] = (fn(theta + e) - fn(theta - e)) / (2.0 * h)
    return out


def residual_law_risk(problem, equiv, theta):
    """E[loss(u - y)] by scipy's quad over the residual's law, with Sigma formed densely.

    The residual is Gaussian with variance (theta - theta*)^T Sigma (theta - theta*),
    plus tau^2 for Gaussian noise; Rademacher noise is the mean of its two shifts.
    """
    integrate = pytest.importorskip("scipy.integrate")
    factor = np.asarray(equiv.factor, dtype=np.float64)
    cov = factor @ factor.T + equiv.iso_scale**2 * np.eye(problem.p)
    d = theta - problem.theta_star
    loss, labeler = problem.loss, problem.labeler
    var = float(d @ cov @ d)
    shifts = (0.0,)
    if labeler.noise_law == "gaussian":
        var += labeler.tau**2
    else:
        shifts = (-labeler.tau, labeler.tau)
    sd = math.sqrt(var)

    def shifted(mu):
        if sd == 0.0:
            return float(loss.value(np.array(mu), np.array(0.0)))

        def integrand(z):
            density = math.exp(-0.5 * z * z) / math.sqrt(2.0 * math.pi)
            return float(loss.value(np.array(mu + sd * z), np.array(0.0))) * density

        kinks = {0.0, (-loss.delta - mu) / sd, (loss.delta - mu) / sd}
        edges = [-np.inf, *sorted(k for k in kinks if abs(k) < 40.0), np.inf]
        return sum(
            integrate.quad(integrand, lo, hi, epsabs=0.0, epsrel=1e-13, limit=200)[0]
            for lo, hi in zip(edges[:-1], edges[1:])
        )

    return sum(shifted(mu) for mu in shifts) / len(shifts)


def counted_score_grids(monkeypatch):
    """A list that gains one entry per score grid any TwinTestRisk builds."""
    builds = []
    real_scores = TwinTestRisk._scores

    def counted(self, alpha, beta):
        builds.append((alpha, beta))
        return real_scores(self, alpha, beta)

    monkeypatch.setattr(TwinTestRisk, "_scores", counted)
    return builds


class TestTwinTestRisk:
    @pytest.mark.parametrize("loss", ["huber", "logistic", "squared", "pseudo-huber"])
    @pytest.mark.parametrize("labeler", ["linear", "clipped-linear", "sign-smooth"])
    @pytest.mark.parametrize("noise_law", ["gaussian", "rademacher"])
    def test_matches_monte_carlo_within_4_se(self, loss, labeler, noise_law):
        p, n_test = 12, 200_000
        problem = twin_problem(loss, labeler, noise_law, p)
        theta = probe_point(problem)
        for i, (name, equiv) in enumerate(twin_kinds(p).items()):
            exact = TwinTestRisk(problem, equiv).value(theta)
            G = sample_gaussian(equiv, n_test, seed=100 + i)
            eps = problem.labeler.draw_noise(n_test, seed=200 + i)
            labels = labels_from_noise(problem, G, eps)
            mc, se = mean_with_jackknife_se(_risk_on(problem, theta, G, labels))
            assert abs(exact - mc) <= 4.0 * se, (name, exact, mc, se)

    @pytest.mark.parametrize(
        "loss, labeler, noise_law",
        [
            ("huber", "linear", "gaussian"),
            ("huber", "linear", "rademacher"),
            ("squared", "linear", "rademacher"),
            ("huber", "clipped-linear", "rademacher"),
            ("logistic", "sign-smooth", "gaussian"),
            ("pseudo-huber", "linear", "rademacher"),
            ("squared", "clipped-linear", "gaussian"),
        ],
    )
    def test_grad_matches_central_differences(self, loss, labeler, noise_law):
        p = 6
        problem = twin_problem(loss, labeler, noise_law, p)
        for name, equiv in twin_kinds(p).items():
            risk = TwinTestRisk(problem, equiv)
            for theta in (probe_point(problem), np.zeros(p), 1.3 * problem.theta_star):
                g = risk.grad(theta)
                assert np.all(np.isfinite(g)) and np.isfinite(risk.value(theta))
                fd = central_differences(risk.value, theta)
                assert np.abs(g - fd).max() <= 1e-6 * max(1.0, np.abs(fd).max()), (name, theta, g, fd)

    def test_grad_after_value_reuses_the_score_grid(self, monkeypatch):
        # PGD evaluates value and then grad at one point: one grid build.
        problem = twin_problem("huber", "clipped-linear", "rademacher", 6)
        risk = TwinTestRisk(problem, twin_kinds(6)["square"])
        builds = counted_score_grids(monkeypatch)
        theta = probe_point(problem)
        value, grad = risk.value(theta), risk.grad(theta)
        assert len(builds) == 1
        fresh = TwinTestRisk(problem, twin_kinds(6)["square"])
        assert value == fresh.value(theta)
        fresh = TwinTestRisk(problem, twin_kinds(6)["square"])
        assert np.array_equal(grad, fresh.grad(theta))
        risk.grad(theta + 0.01)
        assert len(builds) == 4

    def test_theta_along_theta_star_has_zero_beta(self):
        # With Rademacher noise u is a multiple of v at theta = c theta_star:
        # beta = 0, and value and gradient stay finite.
        problem = twin_problem("pseudo-huber", "linear", "rademacher", 6)
        risk = TwinTestRisk(problem, twin_kinds(6)["square"])
        theta = -0.4 * problem.theta_star
        assert risk._overlaps(theta)[3] < 1e-7
        assert np.all(np.isfinite(risk.grad(theta))) and np.isfinite(risk.value(theta))

    @pytest.mark.parametrize(
        "loss, labeler",
        [("pseudo-huber", "linear"), ("huber", "clipped-linear"), ("logistic", "clipped-linear"),
         ("squared", "clipped-linear"), ("pseudo-huber", "clipped-linear"),
         ("squared", "sign-smooth")],
    )
    @pytest.mark.parametrize("noise_law", ["gaussian", "rademacher"])
    def test_doubling_the_panels_moves_kinked_integrands_little(self, monkeypatch, loss, labeler, noise_law):
        # Measured: doubling TWIN_RISK_PANELS from 16 to 32 moved the value by
        # at most 3.8e-5 relative over these cases, twins and points: logistic
        # loss, clipped-linear labels, Gaussian noise, the linear twin at
        # scale 4. At scales 0.3 and 1.5 the largest move was 1.8e-5.
        # Sign-smooth labels, whose steep region gets its own panel edges,
        # moved by at most 1.8e-6 (8.9e-4 with uniform panels alone). The
        # bound is 2e-4 relative.
        p = 12
        problem = twin_problem(loss, labeler, noise_law, p)
        for equiv in twin_kinds(p).values():
            for scale in (0.3, 1.5, 4.0):
                theta = probe_point(problem, scale)
                base = TwinTestRisk(problem, equiv).value(theta)
                monkeypatch.setattr(universality, "TWIN_RISK_PANELS", 2 * universality.TWIN_RISK_PANELS)
                fine = TwinTestRisk(problem, equiv).value(theta)
                monkeypatch.undo()
                assert abs(base - fine) <= 2e-4 * abs(fine), (scale, base, fine)

    def test_trial_g_arm_records_the_exact_term(self, monkeypatch):
        solutions = []

        def recording_solve(*args, **kwargs):
            sol = solve_erm(*args, **kwargs)
            solutions.append(sol)
            return sol

        monkeypatch.setattr(universality, "solve_erm", recording_solve)
        inst = build_instance(FamilySpec(id="lin", kind="linear-independent"), PROBLEM, 60, 5)
        rx, rg = run_single_trial(inst, 0, 5, SolverConfig(), n_test=40)
        risk = TwinTestRisk(inst.problem, inst.equiv)
        for row, sol in zip((rx, rg), solutions):
            assert row.test_g_se == 0.0
            assert row.test_g == risk.value(sol.theta_hat)
        assert rg.arm == "g" and math.isfinite(rx.test_x_se) and rx.test_x_se > 0.0

    def test_sandwich_on_criterion_8_instances(self):
        # Criterion 8's 20 ridge instances, with the exact twin test risk in
        # place of its frozen batch: D(s) <= test(theta_0) <= D(-s) within 2 x solver_gap.
        for inst_idx in range(20):
            rng = rng_from(20260809, "sandwich", inst_idx)
            n, p = 80, 60
            problem = ErmProblem(
                loss=Loss("huber"),
                labeler=Labeler(tau=0.5),
                theta_star=rng.standard_normal(p) / math.sqrt(p),
                regularizer=Regularizer("ridge", 0.2),
                constraint=ConstraintSet("l2-ball", R=3.0),
            )
            X = rng.standard_normal((n, p))
            y = generate_labels(problem, X, seed=inst_idx)
            cfg = SolverConfig(tol=1e-10)
            sweep = perturbed_sweep(
                problem, X, y, solve_erm(problem, X, y, cfg),
                TwinTestRisk(problem, identity_equiv(p)), [0.01, -0.01, 0.1, -0.1], cfg=cfg,
            )
            slack = 2.0 * sweep.solver_gap
            assert sweep.sandwich_ok(slack), inst_idx
            for s in (0.01, 0.1):
                assert sweep.D[-s] - sweep.D[s] >= -slack, (inst_idx, s)


class TestTwinTestRiskClosedForm:
    """Huber and squared loss with linear labels: the residual's law in closed form."""

    @pytest.mark.parametrize("loss", ["huber", "squared"])
    @pytest.mark.parametrize("noise_law, tau", [("gaussian", 0.5), ("rademacher", 0.5), ("gaussian", 0.0)])
    def test_matches_quad_over_the_residual_law(self, loss, noise_law, tau):
        # Points: a generic one; theta = theta*, where sigma = 0 without
        # Gaussian noise; a pure-noise teacher theta* = 0; and sigma near 3e5,
        # where huber's quadratic part cancels to O(1 / sigma) from O(sigma).
        p = 12
        base = twin_problem(loss, "linear", noise_law, p)
        problem = replace(base, labeler=replace(base.labeler, tau=tau))
        pure_noise = replace(problem, theta_star=np.zeros(p))
        point = probe_point(problem)
        cases = ((problem, point), (problem, problem.theta_star), (pure_noise, point),
                 (problem, probe_point(problem, 3e5)))
        for name, equiv in twin_kinds(p).items():
            for prob, theta in cases:
                risk = TwinTestRisk(prob, equiv)
                assert risk.closed_form
                got, want = risk.value(theta), residual_law_risk(prob, equiv, theta)
                assert abs(got - want) <= 1e-12 * abs(want), (name, got, want)

    @pytest.mark.parametrize("loss", ["huber", "squared"])
    @pytest.mark.parametrize("noise_law", ["gaussian", "rademacher"])
    def test_agrees_with_the_grid_within_its_error(self, loss, noise_law):
        # The grid's documented error is 2e-4 relative; measured against the
        # closed form over these twins and points it was at most 2.8e-5.
        p = 12
        problem = twin_problem(loss, "linear", noise_law, p)
        for name, equiv in twin_kinds(p).items():
            risk = TwinTestRisk(problem, equiv)
            for scale in (0.3, 1.5, 4.0):
                theta = probe_point(problem, scale)
                exact, grid = risk.value(theta), risk._grid_value(theta)
                assert abs(exact - grid) <= 2e-4 * exact, (name, scale, exact, grid)

    def test_perturbed_sweep_builds_no_score_grid(self, monkeypatch):
        builds = counted_score_grids(monkeypatch)
        p = 8
        problem = ridge_problem(p, seed=3)  # huber loss, linear labels, Gaussian noise
        X = rng_from(11, "no-grid").standard_normal((50, p))
        y = generate_labels(problem, X, seed=4)
        cfg = SolverConfig(tol=1e-10)
        sweep = perturbed_sweep(
            problem, X, y, solve_erm(problem, X, y, cfg),
            TwinTestRisk(problem, twin_kinds(p)["square"]), [0.1, -0.1], cfg=cfg,
        )
        assert len(sweep.D) == 2 and sweep.sandwich_ok(2.0 * sweep.solver_gap)
        assert builds == []

    @pytest.mark.parametrize(
        "loss, labeler",
        [("pseudo-huber", "linear"), ("logistic", "linear"), ("huber", "clipped-linear"),
         ("squared", "clipped-linear"), ("huber", "sign-smooth"), ("squared", "sign-smooth")],
    )
    def test_other_losses_and_labelers_take_the_grid(self, monkeypatch, loss, labeler):
        builds = counted_score_grids(monkeypatch)
        problem = twin_problem(loss, labeler, "gaussian", 6)
        risk = TwinTestRisk(problem, twin_kinds(6)["square"])
        theta = probe_point(problem)
        assert not risk.closed_form
        assert risk.value(theta) == risk._grid_value(theta)
        assert np.array_equal(risk.grad(theta), risk._grid_grad(theta))
        assert len(builds) == 1


class TestPerturbedSweep:
    def test_constant_surrogate_gives_affine_shift(self):
        p = 6
        problem = ridge_problem(p, seed=1)
        rng = rng_from(9, "ps")
        X = rng.standard_normal((50, p))
        y = generate_labels(problem, X, seed=2)
        c = 0.8
        cfg = SolverConfig(tol=1e-10)
        sweep = perturbed_sweep(
            problem, X, y, solve_erm(problem, X, y, cfg), ConstantTestRisk(c),
            [0.1, -0.1, 0.01, -0.01], cfg=cfg,
        )
        for s, D in sweep.D.items():
            assert D == pytest.approx(c, abs=1e-6)

    def test_convex_sandwich_holds(self):
        p = 8
        for seed in range(5):
            problem = ridge_problem(p, seed=seed)
            rng = rng_from(10, "sand", seed)
            X = rng.standard_normal((60, p))
            y = generate_labels(problem, X, seed=seed)
            cfg = SolverConfig(tol=1e-10)
            sweep = perturbed_sweep(
                problem, X, y, solve_erm(problem, X, y, cfg), twin_test_risk(problem, 300, seed),
                [0.01, -0.01, 0.1, -0.1], cfg=cfg,
            )
            slack = 2.0 * sweep.solver_gap
            assert sweep.sandwich_ok(slack)
            for s in (0.01, 0.1):
                assert sweep.D[-s] - sweep.D[s] >= -slack

    def test_difference_shrinks_with_s(self):
        p = 8
        problem = ridge_problem(p, seed=77)
        rng = rng_from(11, "shrink")
        X = rng.standard_normal((60, p))
        y = generate_labels(problem, X, seed=5)
        cfg = SolverConfig(tol=1e-11)
        sweep = perturbed_sweep(
            problem, X, y, solve_erm(problem, X, y, cfg), twin_test_risk(problem, 300, 5),
            [0.01, -0.01, 0.1, -0.1], cfg=cfg,
        )
        gap_small = sweep.D[-0.01] - sweep.D[0.01]
        gap_large = sweep.D[-0.1] - sweep.D[0.1]
        assert gap_small <= gap_large + 2.0 * sweep.solver_gap

    def test_solver_gap_is_max_of_every_solve_bound(self, monkeypatch):
        # The base solution and each s-solve enter solver_gap through one
        # definition, the solution's suboptimality bound.
        def recording_solve(*args, **kwargs):
            sol = solve_erm(*args, **kwargs)
            solutions.append(sol)
            return sol

        p = 6
        problem = ridge_problem(p, seed=3)
        X = rng_from(12, "gap").standard_normal((40, p))
        y = generate_labels(problem, X, seed=4)
        cfg = SolverConfig(tol=1e-6)
        solutions = [solve_erm(problem, X, y, cfg)]
        monkeypatch.setattr(universality, "solve_erm", recording_solve)
        sweep = perturbed_sweep(
            problem, X, y, solutions[0], twin_test_risk(problem, 100, 6),
            [0.1, -0.1, 0.01, -0.01], cfg=cfg,
        )
        assert len(solutions) == 5
        bounds = [sol.suboptimality_bound(problem.constraint) for sol in solutions]
        assert sweep.solver_gap == max(bounds)

    def test_asymmetric_grid_rejected(self):
        problem = ridge_problem(4)
        X, y = np.zeros((5, 4)), np.zeros(5)
        base = solve_erm(problem, X, y)
        with pytest.raises(InvalidArgumentError):
            perturbed_sweep(problem, X, y, base, ConstantTestRisk(1.0), [0.1, -0.2])
        with pytest.raises(InvalidArgumentError):
            perturbed_sweep(problem, X, y, base, ConstantTestRisk(1.0), [0.0, 0.1, -0.1])


class TestNearMinimizers:
    def test_unconstrained_level_matches_direct_minimum(self):
        p = 6
        problem = ridge_problem(p, seed=3)
        rng = rng_from(12, "nm")
        X = rng.standard_normal((40, p))
        y = generate_labels(problem, X, seed=1)
        surrogate = FrozenTestRisk(problem, identity_equiv(p), 200, seed=9)
        results = min_test_over_near_minimizers(
            problem, X, y, surrogate, [float("inf")], cfg=SolverConfig(tol=1e-10),
        )
        # direct minimization of the surrogate over the constraint set
        from ermu.erm import project_constraint
        from ermu.solver import pgd_minimize

        direct = pgd_minimize(
            surrogate.value,
            surrogate.grad,
            lambda t: project_constraint(problem.constraint, t),
            np.zeros(p),
            SolverConfig(tol=1e-10),
        )
        assert results[0].achieved_test <= direct.objective + 1e-6

    def test_tightest_level_returns_base_solution_value(self):
        p = 5
        problem = ridge_problem(p, seed=4)
        rng = rng_from(13, "nm2")
        X = rng.standard_normal((40, p))
        y = generate_labels(problem, X, seed=2)
        surrogate = FrozenTestRisk(problem, identity_equiv(p), 200, seed=10)
        base = solve_erm(problem, X, y, SolverConfig(tol=1e-10))
        results = min_test_over_near_minimizers(
            problem, X, y, surrogate, [base.objective], cfg=SolverConfig(tol=1e-10),
        )
        assert results[0].feasible
        assert results[0].achieved_test <= surrogate.value(base.theta_hat) + 1e-9

    def test_dominance_in_overparameterized_logistic(self):
        p, n = 30, 20
        rng = rng_from(14, "nm3")
        problem = ErmProblem(
            loss=Loss("logistic"),
            labeler=Labeler(eta_kind="sign-smooth", tau=0.0, smoothing=1e-2),
            theta_star=rng.standard_normal(p) / math.sqrt(p),
            regularizer=Regularizer("none"),
            constraint=ConstraintSet("l2-ball", R=5.0),
        )
        X = rng.standard_normal((n, p))
        y = np.sign(generate_labels(problem, X, seed=4))
        surrogate = FrozenTestRisk(problem, identity_equiv(p), 200, seed=11)
        base = solve_erm(problem, X, y, SolverConfig())
        results = min_test_over_near_minimizers(
            problem, X, y, surrogate, [base.objective + 0.05], cfg=SolverConfig(),
        )
        assert results[0].achieved_test <= surrogate.value(base.theta_hat) + 1e-9

    def test_monotone_in_level(self):
        p = 6
        problem = ridge_problem(p, seed=6)
        rng = rng_from(15, "nm4")
        X = rng.standard_normal((50, p))
        y = generate_labels(problem, X, seed=3)
        surrogate = FrozenTestRisk(problem, identity_equiv(p), 300, seed=12)
        base = solve_erm(problem, X, y, SolverConfig(tol=1e-10))
        levels = [base.objective + delta for delta in (0.0, 0.02, 0.1, 0.5)]
        results = min_test_over_near_minimizers(
            problem, X, y, surrogate, levels, cfg=SolverConfig(tol=1e-10),
        )
        vals = [r.achieved_test for r in results]
        assert all(b <= a + 1e-6 for a, b in zip(vals, vals[1:]))

    def test_infeasible_level_reported(self):
        p = 4
        problem = ridge_problem(p, seed=8)
        rng = rng_from(16, "nm5")
        X = rng.standard_normal((30, p))
        y = generate_labels(problem, X, seed=5)
        results = min_test_over_near_minimizers(
            problem, X, y, ConstantTestRisk(1.0), [0.0],
        )
        assert not results[0].feasible
        assert math.isnan(results[0].achieved_test)


class TestReportSymmetry:
    def test_swapping_arms_negates_gap(self):
        from ermu.report import build_report

        inst = build_instance(FamilySpec(id="lin", kind="linear-independent"), PROBLEM, 60, 21)
        rows = run_trials(WorkerPool(1, [inst]), trials=5, master_seed=21, n_test=30)
        gap = build_report(rows, n_boot=50)["families"]["lin"]["sizes"][0]["train_gap"]["mean"]
        swapped = []
        for r in rows:
            s = r
            s.flags = s.flags.replace("arm:x", "arm:tmp").replace("arm:g", "arm:x").replace(
                "arm:tmp", "arm:g"
            )
            swapped.append(s)
        (entry,) = build_report(swapped, n_boot=50)["families"]["lin"]["sizes"]
        assert entry["train_gap"]["mean"] == pytest.approx(-gap)
