"""Coupled trials, gap statistics, perturbed risks, near-minimizers."""

import math

import numpy as np
import pytest

from ermu import universality
from ermu.erm import (
    ConstraintSet,
    ErmProblem,
    Labeler,
    Loss,
    Regularizer,
    SolverConfig,
    generate_labels,
    labels_from_noise,
    solve_erm,
)
from ermu.errors import InvalidArgumentError
from ermu.features import draw_features
from ermu.gaussian import GaussianEquivalent, empirical_equivalent, sample_gaussian
from ermu.seeds import derive_seed, rng_from
from ermu.stats import (
    bl_gap,
    bootstrap_mean_ci,
    default_psi_dictionary,
    ks_null_quantile,
    ks_statistic,
    ramp,
)
from ermu.universality import (
    FamilySpec,
    FrozenTestRisk,
    ProblemSpec,
    TwinTestRisk,
    _risk_on,
    build_instance,
    min_test_over_near_minimizers,
    perturbed_sweep,
    run_single_trial,
    run_trials,
)

PROBLEM = ProblemSpec(loss="huber", tau=0.5, lam=0.1)


def identity_equiv(p):
    return GaussianEquivalent(factor=np.eye(p))


def twin_test_risk(problem, n_test, seed):
    """The frozen test risk of the identity twin, seeded as the perturbed stage seeds it."""
    equiv = identity_equiv(problem.p)
    return FrozenTestRisk(problem, equiv, n_test, derive_seed(seed, "surrogate"))


def bl_gap_loop(a, b, psis, n_boot, seed):
    """bl_gap's bootstrap statistics, one resample of a and then of b at a time."""
    psi_a = np.array([p.fn(a) for p in psis])
    psi_b = np.array([p.fn(b) for p in psis])
    rng = rng_from(seed, "bl-bootstrap")
    boot = np.empty(n_boot)
    for r in range(n_boot):
        ia = rng.integers(0, a.size, size=a.size)
        ib = rng.integers(0, b.size, size=b.size)
        boot[r] = np.abs(psi_a[:, ia].mean(axis=1) - psi_b[:, ib].mean(axis=1)).max()
    return boot


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
        rows = run_trials([inst], trials=1, master_seed=5, n_test=40)
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
        r1 = run_trials([inst], trials=3, master_seed=7, n_test=30)
        r2 = run_trials([inst], trials=3, master_seed=7, n_test=30)
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
        rows = run_trials([inst], trials=1, master_seed=11, n_test=10)
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
            run_trials([inst], trials=0, master_seed=1)

    def test_rows_carry_feasible_solutions(self):
        inst = build_instance(FamilySpec(id="lin", kind="linear-independent"), PROBLEM, 40, 3)
        rx, rg = run_single_trial(inst, 0, 3, SolverConfig(), n_test=10)
        for row in (rx, rg):
            assert row.train_opt >= 0.0


class TestBlGap:
    def test_identical_samples_zero(self):
        a = rng_from(1, "a").standard_normal(200)
        result = bl_gap(a, a.copy(), n_boot=100, seed=0)
        assert result.max_gap == 0.0
        assert all(v == 0.0 for v in result.per_psi.values())

    def test_unit_ramp_hand_values(self):
        a, b = np.zeros(50), np.ones(50)
        result = bl_gap(a, b, psi_dictionary=[ramp(1.0, 0.0)], n_boot=50, seed=1)
        assert result.max_gap == pytest.approx(1.0)

    def test_shifted_gaussians_match_oversampled_oracle(self):
        rng = rng_from(2, "bl")
        a = rng.standard_normal(10_000)
        b = rng.standard_normal(10_000) + 0.5
        psis = default_psi_dictionary(np.concatenate([a, b]))
        res = bl_gap(a, b, psi_dictionary=psis, n_boot=400, seed=3)
        big_a = rng.standard_normal(1_000_000)
        big_b = rng.standard_normal(1_000_000) + 0.5
        oracle = max(abs(p.fn(big_a).mean() - p.fn(big_b).mean()) for p in psis)
        assert abs(res.max_gap - oracle) <= 3.0 * max(res.se, 1e-6)

    def test_empty_rejected(self):
        with pytest.raises(InvalidArgumentError):
            bl_gap(np.array([]), np.array([1.0]))

    def test_unequal_sizes_rejected(self):
        with pytest.raises(InvalidArgumentError, match="same size"):
            bl_gap(np.zeros(3), np.zeros(4))

    @pytest.mark.parametrize("T", [2, 4, 7, 30, 100])
    def test_matches_per_resample_loop_bit_for_bit(self, T):
        rng = rng_from(21, "bl-oracle", T)
        a, b = rng.standard_normal(T), rng.standard_normal(T) + 0.3
        psis = default_psi_dictionary(np.concatenate([a, b]))
        res = bl_gap(a, b, psi_dictionary=psis, n_boot=500, seed=T)
        boot = bl_gap_loop(a, b, psis, n_boot=500, seed=T)
        alpha = 0.5 * (1.0 - 0.95)
        lo, hi = np.quantile(boot, [alpha, 1.0 - alpha])
        assert (res.ci_lo, res.ci_hi, res.se) == (lo, hi, boot.std(ddof=1))

    def test_ci_takes_the_level(self):
        # At level 0.8 the CI is the 0.1 and 0.9 quantiles of the same resamples;
        # (1 - 0.8) / 2 is 0.1 only up to rounding, hence the relative 1e-12.
        rng = rng_from(22, "bl-level")
        a, b = rng.standard_normal(30), rng.standard_normal(30) + 0.3
        psis = default_psi_dictionary(np.concatenate([a, b]))
        res = bl_gap(a, b, psi_dictionary=psis, n_boot=500, seed=5, level=0.8)
        lo, hi = np.quantile(bl_gap_loop(a, b, psis, n_boot=500, seed=5), [0.1, 0.9])
        assert (res.ci_lo, res.ci_hi) == (pytest.approx(lo, rel=1e-12), pytest.approx(hi, rel=1e-12))
        wide = bl_gap(a, b, psi_dictionary=psis, n_boot=500, seed=5)
        assert wide.ci_lo < res.ci_lo < res.ci_hi < wide.ci_hi


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
        mean, lo, hi, se = bootstrap_mean_ci(vals, n_boot=500, seed=1)
        assert lo <= mean <= hi
        assert se > 0

    def test_single_value_degenerate(self):
        mean, lo, hi, se = bootstrap_mean_ci(np.array([2.0]), n_boot=100, seed=0)
        assert mean == lo == hi == 2.0
        assert se == 0.0

    def test_deterministic(self):
        vals = rng_from(8, "b2").standard_normal(25)
        assert bootstrap_mean_ci(vals, 300, seed=9) == bootstrap_mean_ci(vals, 300, seed=9)


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
        "empirical": empirical_equivalent(rng.standard_normal((p // 2, p)), 0.05),
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
            mc, se = _risk_on(problem, theta, G, labels_from_noise(problem, G, eps))
            assert abs(exact - mc) <= 4.0 * se, (name, exact, mc, se)

    @pytest.mark.parametrize(
        "loss, labeler, noise_law",
        [
            ("huber", "linear", "gaussian"),
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

    def test_theta_along_theta_star_has_zero_beta(self):
        # With Rademacher noise u is a multiple of v at theta = c theta_star:
        # beta = 0, and value and gradient stay finite.
        problem = twin_problem("huber", "linear", "rademacher", 6)
        risk = TwinTestRisk(problem, twin_kinds(6)["square"])
        theta = -0.4 * problem.theta_star
        assert risk._overlaps(theta)[3] < 1e-7
        assert np.all(np.isfinite(risk.grad(theta))) and np.isfinite(risk.value(theta))

    @pytest.mark.parametrize(
        "loss, labeler",
        [("huber", "linear"), ("huber", "clipped-linear"), ("logistic", "clipped-linear"),
         ("squared", "clipped-linear"), ("pseudo-huber", "clipped-linear"),
         ("squared", "sign-smooth")],
    )
    @pytest.mark.parametrize("noise_law", ["gaussian", "rademacher"])
    def test_doubling_the_panels_moves_kinked_integrands_little(self, monkeypatch, loss, labeler, noise_law):
        # Measured: doubling TWIN_RISK_PANELS from 16 to 32 moved the value by
        # at most 1.1e-4 relative over these cases, twins and points: huber,
        # linear labels, Gaussian noise, the empirical twin at scale 4, where
        # the loss kink crosses the panels near the centre. At scales 0.3 and
        # 1.5 the largest move was 1.8e-5. Sign-smooth labels, whose steep
        # region gets its own panel edges, moved by at most 1.8e-6 (8.9e-4
        # with uniform panels alone). The bound is 2e-4 relative.
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
            sweep = perturbed_sweep(
                problem, X, y, TwinTestRisk(problem, identity_equiv(p)), [0.01, -0.01, 0.1, -0.1],
                cfg=SolverConfig(tol=1e-10), seed=20260809 + inst_idx,
            )
            slack = 2.0 * sweep.solver_gap
            assert sweep.sandwich_ok(slack), inst_idx
            for s in (0.01, 0.1):
                assert sweep.D[-s] - sweep.D[s] >= -slack, (inst_idx, s)


class TestPerturbedSweep:
    def test_constant_surrogate_gives_affine_shift(self):
        p = 6
        problem = ridge_problem(p, seed=1)
        rng = rng_from(9, "ps")
        X = rng.standard_normal((50, p))
        y = generate_labels(problem, X, seed=2)
        c = 0.8
        sweep = perturbed_sweep(
            problem, X, y, ConstantTestRisk(c), [0.1, -0.1, 0.01, -0.01],
            cfg=SolverConfig(tol=1e-10), seed=3,
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
            sweep = perturbed_sweep(
                problem, X, y, twin_test_risk(problem, 300, seed), [0.01, -0.01, 0.1, -0.1],
                cfg=SolverConfig(tol=1e-10), seed=seed,
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
        sweep = perturbed_sweep(
            problem, X, y, twin_test_risk(problem, 300, 5), [0.01, -0.01, 0.1, -0.1],
            cfg=SolverConfig(tol=1e-11), seed=5,
        )
        gap_small = sweep.D[-0.01] - sweep.D[0.01]
        gap_large = sweep.D[-0.1] - sweep.D[0.1]
        assert gap_small <= gap_large + 2.0 * sweep.solver_gap

    def test_solver_gap_is_max_of_every_solve_bound(self, monkeypatch):
        # The base solve and each s-solve enter solver_gap through one
        # definition, the solution's suboptimality bound.
        solutions = []

        def recording_solve(*args, **kwargs):
            sol = solve_erm(*args, **kwargs)
            solutions.append(sol)
            return sol

        monkeypatch.setattr(universality, "solve_erm", recording_solve)
        p = 6
        problem = ridge_problem(p, seed=3)
        X = rng_from(12, "gap").standard_normal((40, p))
        y = generate_labels(problem, X, seed=4)
        sweep = perturbed_sweep(
            problem, X, y, twin_test_risk(problem, 100, 6), [0.1, -0.1, 0.01, -0.01],
            cfg=SolverConfig(tol=1e-6), seed=6,
        )
        assert len(solutions) == 5
        bounds = [sol.suboptimality_bound(problem.constraint) for sol in solutions]
        assert sweep.solver_gap == max(bounds)

    def test_asymmetric_grid_rejected(self):
        problem = ridge_problem(4)
        with pytest.raises(InvalidArgumentError):
            perturbed_sweep(problem, np.zeros((5, 4)), np.zeros(5), ConstantTestRisk(1.0),
                            [0.1, -0.2])
        with pytest.raises(InvalidArgumentError):
            perturbed_sweep(problem, np.zeros((5, 4)), np.zeros(5), ConstantTestRisk(1.0),
                            [0.0, 0.1, -0.1])


class TestNearMinimizers:
    def test_unconstrained_level_matches_direct_minimum(self):
        p = 6
        problem = ridge_problem(p, seed=3)
        rng = rng_from(12, "nm")
        X = rng.standard_normal((40, p))
        y = generate_labels(problem, X, seed=1)
        surrogate = FrozenTestRisk(problem, identity_equiv(p), 200, seed=9)
        results = min_test_over_near_minimizers(
            problem, X, y, surrogate, [float("inf")], cfg=SolverConfig(tol=1e-10), seed=2,
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
        assert results[0].achieved_test <= direct.value + 1e-6

    def test_tightest_level_returns_base_solution_value(self):
        p = 5
        problem = ridge_problem(p, seed=4)
        rng = rng_from(13, "nm2")
        X = rng.standard_normal((40, p))
        y = generate_labels(problem, X, seed=2)
        surrogate = FrozenTestRisk(problem, identity_equiv(p), 200, seed=10)
        base = solve_erm(problem, X, y, SolverConfig(tol=1e-10), seed=0)
        results = min_test_over_near_minimizers(
            problem, X, y, surrogate, [base.objective], cfg=SolverConfig(tol=1e-10), seed=3,
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
        base = solve_erm(problem, X, y, SolverConfig(), seed=1)
        results = min_test_over_near_minimizers(
            problem, X, y, surrogate, [base.objective + 0.05], cfg=SolverConfig(), seed=5,
        )
        assert results[0].achieved_test <= surrogate.value(base.theta_hat) + 1e-9

    def test_monotone_in_level(self):
        p = 6
        problem = ridge_problem(p, seed=6)
        rng = rng_from(15, "nm4")
        X = rng.standard_normal((50, p))
        y = generate_labels(problem, X, seed=3)
        surrogate = FrozenTestRisk(problem, identity_equiv(p), 300, seed=12)
        base = solve_erm(problem, X, y, SolverConfig(tol=1e-10), seed=0)
        levels = [base.objective + delta for delta in (0.0, 0.02, 0.1, 0.5)]
        results = min_test_over_near_minimizers(
            problem, X, y, surrogate, levels, cfg=SolverConfig(tol=1e-10), seed=4,
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
            problem, X, y, ConstantTestRisk(1.0), [0.0], seed=6,
        )
        assert not results[0].feasible
        assert math.isnan(results[0].achieved_test)


class TestReportSymmetry:
    def test_swapping_arms_negates_gap(self):
        from ermu.report import _pair_rows

        inst = build_instance(FamilySpec(id="lin", kind="linear-independent"), PROBLEM, 60, 21)
        rows = run_trials([inst], trials=5, master_seed=21, n_test=30)
        paired = _pair_rows(rows)["lin"][0]
        gap = (paired.train_x - paired.train_g).mean()
        swapped = []
        for r in rows:
            s = r
            s.flags = s.flags.replace("arm:x", "arm:tmp").replace("arm:g", "arm:x").replace(
                "arm:tmp", "arm:g"
            )
            swapped.append(s)
        paired_swapped = _pair_rows(swapped)["lin"][0]
        assert (paired_swapped.train_x - paired_swapped.train_g).mean() == pytest.approx(-gap)
