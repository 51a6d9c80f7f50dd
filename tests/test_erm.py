"""ERM problems: labels, risks, solver, projections, test risk."""

import math
from collections import Counter

import numpy as np
import pytest

from ermu import erm
from ermu.erm import (
    ConstraintSet,
    ErmProblem,
    Labeler,
    Loss,
    Regularizer,
    SolverConfig,
    data_risk,
    generate_labels,
    labels_from_noise,
    project_constraint,
    solve_erm,
    solve_ridge_closed_form,
    train_risk,
    train_risk_grad,
)
from ermu.errors import InvalidArgumentError, SolverDivergedError
from ermu.features import nt_theta_matrix
from ermu.gaussian import GaussianEquivalent, sample_gaussian
from ermu.seeds import derive_seed, rng_from
from ermu.solver import pgd_minimize
from ermu.universality import FrozenTestRisk, _risk_on


def make_problem(p, loss="squared", lam=0.0, tau=0.0, constraint=None, theta_star=None, **kw):
    return ErmProblem(
        loss=Loss(loss, **({"delta": kw["delta"]} if "delta" in kw else {})),
        labeler=Labeler(eta_kind=kw.get("eta", "linear"), tau=tau,
                        noise_law=kw.get("noise_law", "gaussian"),
                        smoothing=kw.get("smoothing", 0.1)),
        theta_star=theta_star if theta_star is not None else np.zeros(p),
        regularizer=Regularizer("ridge" if lam else "none", lam),
        constraint=constraint or ConstraintSet("l2-ball", R=float("inf")),
    )


def contains(cset, theta, tol=1e-10):
    """Whether the vector ``theta`` lies in ``cset``."""
    theta = np.asarray(theta, dtype=np.float64)
    if cset.kind == "l2-ball":
        return not np.isfinite(cset.R) or float(np.linalg.norm(theta)) <= cset.R + tol
    if cset.kind == "linf-ball":
        return float(np.abs(theta).max(initial=0.0)) <= cset.R / math.sqrt(cset.p) + tol
    T = nt_theta_matrix(theta, cset.d, cset.m)
    top = float(np.linalg.svd(T, compute_uv=False)[0]) if T.size else 0.0
    return top <= cset.R / math.sqrt(cset.d) + tol


class TestGenerateLabels:
    def test_noiseless_linear(self):
        p = 4
        theta_star = np.zeros(p)
        theta_star[0] = 1.0
        problem = make_problem(p, theta_star=theta_star)
        X = np.zeros((1, p))
        X[0, 0] = 3.0
        assert generate_labels(problem, X, seed=0)[0] == 3.0

    def test_sign_smooth_approximates_sign(self):
        theta_star = np.ones(1)
        problem = make_problem(1, theta_star=theta_star, eta="sign-smooth", smoothing=1e-3)
        v = np.array([[0.1], [-0.25], [2.0]])
        y = generate_labels(problem, v, seed=0)
        assert np.allclose(y, np.sign(v[:, 0]), atol=1e-10)

    def test_noise_variance(self):
        p = 3
        theta_star = rng_from(1, "ts").standard_normal(p)
        problem = make_problem(p, theta_star=theta_star, tau=1.0)
        X = rng_from(2, "x").standard_normal((100_000, p))
        y = generate_labels(problem, X, seed=7)
        clean = problem.target_scores(X)
        assert abs(np.var(y - clean) - 1.0) <= 0.03

    def test_shared_noise_couples_arms(self):
        p = 5
        theta_star = rng_from(3, "ts").standard_normal(p)
        problem = make_problem(p, theta_star=theta_star, tau=0.7)
        eps = problem.labeler.draw_noise(50, seed=11)
        X = rng_from(4, "x").standard_normal((50, p))
        G = rng_from(5, "g").standard_normal((50, p))
        eps_x = (labels_from_noise(problem, X, eps) - problem.target_scores(X)) / 0.7
        eps_g = (labels_from_noise(problem, G, eps) - problem.target_scores(G)) / 0.7
        assert np.allclose(eps_x, eps_g)

    def test_dimension_mismatch(self):
        problem = make_problem(3)
        with pytest.raises(InvalidArgumentError):
            generate_labels(problem, np.zeros((2, 4)), seed=0)

    @pytest.mark.parametrize("shape", [(3, 2), (3, 1), ()])
    def test_theta_star_must_be_a_vector(self, shape):
        with pytest.raises(InvalidArgumentError, match="length-p vector"):
            make_problem(3, theta_star=np.ones(shape))

    @pytest.mark.parametrize("shape", [(3, 1), ()])
    def test_theta_must_be_a_vector(self, shape):
        # A p x 1 theta would give n x 1 scores, broadcast against the n labels.
        problem = make_problem(3, loss="huber", lam=0.1)
        X, y = np.ones((5, 3)), np.ones(5)
        with pytest.raises(InvalidArgumentError, match="length-p vector"):
            train_risk(problem, np.zeros(shape), X, y)


class TestTrainRisk:
    def test_interpolation_gives_zero(self):
        p = 3
        theta_star = rng_from(6, "ts").standard_normal(p)
        problem = make_problem(p, theta_star=theta_star)
        X = rng_from(7, "x").standard_normal((10, p))
        y = generate_labels(problem, X, seed=0)
        assert train_risk(problem, theta_star, X, y) == pytest.approx(0.0, abs=1e-24)

    def test_logistic_at_zero(self):
        problem = make_problem(2, loss="logistic")
        X = rng_from(8, "x").standard_normal((6, 2))
        y = np.array([1.0, -1.0, 1.0, 1.0, -1.0, -1.0])
        assert train_risk(problem, np.zeros(2), X, y) == pytest.approx(math.log(2.0))

    def test_hand_instance(self):
        # x = (1, 0), y = 2, theta = (1, 0), squared loss, lambda = 0.5:
        # (1 - 2)^2 + 0.5 * 1 = 1.5
        problem = make_problem(2, lam=0.5)
        value = train_risk(problem, np.array([1.0, 0.0]), np.array([[1.0, 0.0]]), np.array([2.0]))
        assert value == pytest.approx(1.5, abs=1e-15)


class TestGradients:
    @pytest.mark.parametrize("loss", ["logistic", "huber", "squared", "pseudo-huber"])
    @pytest.mark.parametrize("lam", [0.0, 0.2])
    def test_matches_central_differences(self, loss, lam):
        p = 7
        rng = rng_from(9, "grad", loss, int(lam * 10))
        theta_star = rng.standard_normal(p) / math.sqrt(p)
        problem = make_problem(p, loss=loss, lam=lam, tau=0.4, theta_star=theta_star)
        X = rng.standard_normal((25, p))
        y = generate_labels(problem, X, seed=13)
        h = 1e-5
        for _ in range(20):
            theta = rng.standard_normal(p) * 0.5
            g = train_risk_grad(problem, theta, X, y)
            direction = rng.standard_normal(p)
            direction /= np.linalg.norm(direction)
            fd = (
                train_risk(problem, theta + h * direction, X, y)
                - train_risk(problem, theta - h * direction, X, y)
            ) / (2 * h)
            analytic = float(np.sum(g * direction))
            assert abs(fd - analytic) <= 1e-5 * max(1.0, abs(fd))


class TestProjection:
    def test_identity_on_members(self):
        rng = rng_from(10, "proj")
        for cset in (
            ConstraintSet("l2-ball", R=2.0),
            ConstraintSet("linf-ball", R=2.0, p=6),
            ConstraintSet("nt-operator-ball", R=2.0, d=3, m=2, p=6),
        ):
            theta = project_constraint(cset, rng.standard_normal(6))
            assert np.allclose(project_constraint(cset, theta), theta)
            assert contains(cset, theta)

    def test_l2_radial_scaling(self):
        cset = ConstraintSet("l2-ball", R=1.0)
        assert np.allclose(project_constraint(cset, np.array([3.0, 4.0])), [0.6, 0.8])

    def test_linf_clamps(self):
        cset = ConstraintSet("linf-ball", R=2.0, p=4)
        bound = 1.0  # R / sqrt(p)
        out = project_constraint(cset, np.array([3.0, -0.5, -9.0, 0.2]))
        assert np.allclose(out, [bound, -0.5, -bound, 0.2])

    def test_operator_ball_clips_singular_values(self):
        c = 0.5
        d = m = 2
        cset = ConstraintSet("nt-operator-ball", R=c * math.sqrt(d), d=d, m=m, p=4)
        T = np.diag([2 * c, c])
        theta = T.T.reshape(-1)
        out = project_constraint(cset, theta)
        T_out = out.reshape(m, d).T
        s = np.linalg.svd(T_out, compute_uv=False)
        assert np.allclose(s, [c, c])

    def test_operator_ball_skips_the_svd_inside_the_frobenius_bound(self, monkeypatch):
        # ||T||_2 <= ||T||_F = ||theta||, so a point with ||theta|| <= R / sqrt(d)
        # is a member without an SVD; every other point takes the SVD path.
        d, m = 3, 4
        cset = ConstraintSet("nt-operator-ball", R=2.0, d=d, m=m, p=d * m)
        bound = cset.R / math.sqrt(d)

        def svd_path(theta):
            T = nt_theta_matrix(theta, d, m)
            U, s, Vt = np.linalg.svd(T, full_matrices=False)
            if s[0] <= bound:
                return theta
            return ((U * np.clip(s, None, bound)) @ Vt).T.reshape(-1)

        rng = rng_from(14, "frobenius-skip")
        direction = rng.standard_normal(d * m)
        inside = 0.5 * bound * direction / np.linalg.norm(direction)
        # Rank one: ||T||_2 = ||T||_F, so scaling puts it outside both bounds.
        outside = np.outer(rng.standard_normal(d), rng.standard_normal(m)).T.reshape(-1)
        outside *= 3.0 * bound / np.linalg.norm(outside)
        # Equal singular values: ||T||_2 = ||T||_F / sqrt(d), between the two norms.
        between = (0.9 * bound * np.eye(d, m)).T.reshape(-1)
        assert np.linalg.norm(between) > bound >= np.linalg.svd(nt_theta_matrix(between, d, m))[1][0]
        for theta in (inside, outside, between):
            assert np.array_equal(cset.project_column(theta), svd_path(theta))

        calls = []
        real_svd = np.linalg.svd
        monkeypatch.setattr(np.linalg, "svd", lambda *a, **kw: calls.append(1) or real_svd(*a, **kw))
        assert cset.project_column(inside) is inside
        assert calls == []
        cset.project_column(between)
        assert calls == [1]

    def test_nonexpansive_on_l2_ball(self):
        rng = rng_from(11, "nonexp")
        cset = ConstraintSet("l2-ball", R=1.0)
        for _ in range(100):
            a, b = rng.standard_normal(5), rng.standard_normal(5)
            pa, pb = project_constraint(cset, a), project_constraint(cset, b)
            assert np.linalg.norm(pa - pb) <= np.linalg.norm(a - b) + 1e-12


class TestSolveErm:
    def test_huge_ridge_sends_theta_to_zero(self):
        p = 4
        rng = rng_from(12, "ridge")
        problem = make_problem(p, loss="huber", lam=1e6)
        X = rng.standard_normal((30, p))
        y = rng.standard_normal(30)
        sol = solve_erm(problem, X, y, SolverConfig())
        assert np.linalg.norm(sol.theta_hat) <= 1e-5
        assert sol.objective == pytest.approx(data_risk(problem, np.zeros(p), X, y), rel=1e-6)

    def test_matches_normal_equations_small(self):
        rng = rng_from(13, "ne")
        X = rng.standard_normal((5, 2))
        y = rng.standard_normal(5)
        problem = make_problem(2, lam=0.3)
        sol = solve_erm(problem, X, y, SolverConfig(tol=1e-12))
        theta_cf, obj_cf = solve_ridge_closed_form(X, y, 0.3)
        assert np.abs(sol.theta_hat - theta_cf).max() <= 1e-8

    def test_zero_radius_returns_origin(self):
        problem = make_problem(3, lam=0.1, constraint=ConstraintSet("l2-ball", R=0.0))
        rng = rng_from(14, "zr")
        sol = solve_erm(problem, rng.standard_normal((10, 3)), rng.standard_normal(10), SolverConfig())
        assert np.all(sol.theta_hat == 0.0)

    def test_feasibility_of_solution(self):
        rng = rng_from(15, "feas")
        cset = ConstraintSet("linf-ball", R=0.5, p=6)
        problem = make_problem(6, loss="huber", lam=0.01, constraint=cset)
        sol = solve_erm(problem, rng.standard_normal((40, 6)), rng.standard_normal(40), SolverConfig())
        assert contains(cset, sol.theta_hat, tol=1e-10)

    def test_objective_equals_reevaluated_risk(self):
        rng = rng_from(16, "obj")
        problem = make_problem(4, loss="huber", lam=0.1)
        X, y = rng.standard_normal((25, 4)), rng.standard_normal(25)
        sol = solve_erm(problem, X, y, SolverConfig())
        assert sol.objective == pytest.approx(train_risk(problem, sol.theta_hat, X, y), abs=1e-12)

    def test_empty_data_rejected(self):
        problem = make_problem(3)
        with pytest.raises(InvalidArgumentError):
            solve_erm(problem, np.zeros((0, 3)), np.zeros(0), SolverConfig())

    def test_restart_ties_prefer_lowest_index(self):
        # Constant-zero data: every restart reaches the same objective.
        problem = make_problem(2, loss="huber", lam=0.5, constraint=ConstraintSet("l2-ball", R=1.0))
        X, y = np.zeros((5, 2)), np.zeros(5)
        sol = solve_erm(problem, X, y, SolverConfig(restarts=4), seed=21)
        assert np.allclose(sol.theta_hat, 0.0, atol=1e-8)

    def test_objective_increase_raises_diverged(self):
        # A negative Armijo slope accepts an uphill step; the monotonicity
        # check must raise a solver error, not an assert that -O strips.
        # SolverConfig rejects such a slope, so it is set past that check.
        cfg = SolverConfig(init_step=10.0)
        object.__setattr__(cfg, "armijo_slope", -1e3)
        with pytest.raises(SolverDivergedError, match="objective increased"):
            pgd_minimize(lambda x: float(x @ x), lambda x: 2.0 * x, lambda x: x, np.ones(1), cfg)

    def test_nonmonotone_steps_rise_yet_end_below_the_start(self):
        # Barzilai-Borwein steps on an ill-conditioned quadratic overshoot;
        # the nonmonotone Armijo test accepts a step that rises above the
        # previous value, and the solve still ends below f(x0).
        A = np.diag([1.0, 3.0, 10.0, 30.0, 100.0])
        fun = lambda x: 0.5 * float(x @ A @ x)  # noqa: E731
        accepted = []

        def grad(x):
            accepted.append(fun(x))  # grad is called once at each accepted point
            return A @ x

        x0 = np.ones(5)
        state = pgd_minimize(fun, grad, lambda x: x, x0, SolverConfig(tol=1e-10))
        assert any(b > a for a, b in zip(accepted, accepted[1:]))
        assert state.value <= fun(x0)
        assert state.flags == [] and np.abs(state.x).max() <= 1e-9

    @pytest.mark.parametrize("max_iters", range(6, 36))
    def test_unconverged_solve_returns_its_lowest_accepted_point(self, max_iters):
        # A nonmonotone run cut off after max_iters iterations may end above a
        # point it visited (at 33 iterations: 8.3e-4 against 1.2e-5); it
        # returns the lowest accepted value. grad is called once at each
        # accepted point, so a run one iteration longer visits every point
        # accepted within max_iters iterations.
        A = np.diag([1.0, 3.0, 10.0, 30.0, 100.0])
        fun = lambda x: 0.5 * float(x @ A @ x)  # noqa: E731
        accepted = []

        def grad(x):
            accepted.append(fun(x))
            return A @ x

        pgd_minimize(fun, grad, lambda x: x, np.ones(5), SolverConfig(max_iters=max_iters + 1))
        state = pgd_minimize(fun, lambda x: A @ x, lambda x: x, np.ones(5),
                             SolverConfig(max_iters=max_iters))
        assert state.flags == ["maxiter"]
        assert state.value == min(accepted[1:max_iters + 1])
        assert state.value == fun(state.x)

    @pytest.mark.parametrize("kind", ["l2-ball", "linf-ball", "nt-operator-ball"])
    def test_solves_never_end_above_the_start(self, kind):
        # The nonmonotone reference is the largest of the last accepted values,
        # which starts at f(x0), so the final value never exceeds f(x0), at
        # any iteration cap.
        d, m = 3, 4
        p = d * m
        cset = ConstraintSet(kind, R=1.5, p=p, d=d, m=m)
        project = lambda x: project_constraint(cset, x)  # noqa: E731
        for seed in range(12):
            rng = rng_from(seed, "nonmonotone-convex", kind)
            B = rng.standard_normal((2 * p, p)) * np.logspace(0, 2, p)
            b = rng.standard_normal(2 * p)
            c = rng.standard_normal(p)
            fun = lambda x: 0.5 * float(np.sum((B @ x - b) ** 2)) + float(np.logaddexp(0.0, c @ x))  # noqa: E731
            grad = lambda x: B.T @ (B @ x - b) + c / (1.0 + np.exp(-(c @ x)))  # noqa: E731
            x0 = project(rng.standard_normal(p))
            for max_iters in (1, 2, 5, 20, 5000):
                state = pgd_minimize(fun, grad, project, x0, SolverConfig(max_iters=max_iters))
                assert state.value <= fun(x0), (seed, max_iters)

    def test_no_curvature_falls_back_to_growing_the_step(self):
        # A linear objective has a constant gradient, so s'y = 0 at every
        # iteration and the first trial step is the last one times step_growth.
        R = 5.0
        c = np.array([0.06, -0.08, 0.0])
        state = pgd_minimize(
            lambda x: float(c @ x), lambda x: c,
            lambda x: project_constraint(ConstraintSet("l2-ball", R=R), x),
            np.zeros(3), SolverConfig(),
        )
        assert np.abs(state.x - (-R * c / np.linalg.norm(c))).max() <= 1e-8
        assert state.flags == []
        # Doubling from init_step 1 reaches the boundary, 50 gradient lengths
        # away, at iteration 6; iteration 7 stays put.
        assert state.iterations == 7


class TestKeptScores:
    """A gradient at the point the objective last evaluated reuses its scores X theta."""

    @staticmethod
    def instrumented_solve(monkeypatch, problem, X, y, **kwargs):
        """Run ``solve_erm`` and count ``ErmProblem.scores`` calls per batch and phase."""
        passes: Counter = Counter()
        calls: Counter = Counter()
        captured = {}
        phase = ["solve"]
        real_scores, real_pgd = ErmProblem.scores, erm.pgd_minimize

        def scores(self, theta, batch):
            passes[(phase[0], id(batch))] += 1
            return real_scores(self, theta, batch)

        def in_phase(name, fn):
            def counted(x):
                calls[name] += 1
                phase[0] = name
                try:
                    return fn(x)
                finally:
                    phase[0] = "solve"

            return counted

        def pgd(fun, grad, project, x0, cfg):
            captured["grad"] = grad
            return real_pgd(in_phase("fun", fun), in_phase("grad", grad), project, x0, cfg)

        monkeypatch.setattr(ErmProblem, "scores", scores)
        monkeypatch.setattr(erm, "pgd_minimize", pgd)
        sol = solve_erm(problem, X, y, **kwargs)
        return sol, passes, calls, captured["grad"]

    @staticmethod
    def setup_problem(p=6, n=40):
        rng = rng_from(31, "kept-scores")
        theta_star = rng.standard_normal(p) / math.sqrt(p)
        problem = make_problem(p, loss="huber", lam=0.1, tau=0.5, theta_star=theta_star,
                               constraint=ConstraintSet("l2-ball", R=1.0))
        X = rng.standard_normal((n, p))
        return problem, X, generate_labels(problem, X, seed=4)

    def test_one_scores_pass_per_objective_evaluation(self, monkeypatch):
        problem, X, y = self.setup_problem()
        sol, passes, calls, _ = self.instrumented_solve(monkeypatch, problem, X, y)
        assert sol.iterations > 3 and calls["grad"] == sol.iterations
        assert passes[("fun", id(X))] == calls["fun"]
        assert passes[("grad", id(X))] == 0

    def test_perturbed_solve_passes_each_batch_once(self, monkeypatch):
        problem, X, y = self.setup_problem()
        equiv = GaussianEquivalent(factor=np.eye(problem.p))
        surrogate = FrozenTestRisk(problem, equiv, 300, seed=5)
        sol, passes, calls, _ = self.instrumented_solve(
            monkeypatch, problem, X, y, extra=(0.1, surrogate)
        )
        assert sol.iterations > 3
        for batch in (X, surrogate.X):
            assert passes[("fun", id(batch))] == calls["fun"]
            assert passes[("grad", id(batch))] == 0

    def test_gradient_away_from_the_kept_point_recomputes(self, monkeypatch):
        problem, X, y = self.setup_problem()
        _, _, _, gradient = self.instrumented_solve(monkeypatch, problem, X, y)
        rng = rng_from(32, "fresh")
        theta = rng.standard_normal(problem.p)
        assert np.array_equal(gradient(theta), train_risk_grad(problem, theta, X, y))
        # A point changed in place after it was evaluated is a new point.
        theta += rng.standard_normal(theta.shape)
        assert np.array_equal(gradient(theta), train_risk_grad(problem, theta, X, y))


class TestClosedForm:
    def test_identity_design_no_ridge(self):
        y = rng_from(17, "y").standard_normal(6)
        theta, obj = solve_ridge_closed_form(np.eye(6), y, 0.0)
        assert np.allclose(theta, y, atol=1e-12)
        assert obj == pytest.approx(0.0, abs=1e-20)

    def test_zero_targets(self):
        X = rng_from(18, "x").standard_normal((8, 3))
        theta, obj = solve_ridge_closed_form(X, np.zeros(8), 0.5)
        assert np.allclose(theta, 0.0)
        assert obj == 0.0

    def test_local_minimality_probe(self):
        rng = rng_from(19, "probe")
        X = rng.standard_normal((6, 4))
        y = rng.standard_normal(6)
        lam = 0.2
        theta, obj = solve_ridge_closed_form(X, y, lam)

        def objective(t):
            return float(np.mean((X @ t - y) ** 2) + lam * np.dot(t, t))

        for _ in range(100):
            delta = rng.standard_normal(4)
            delta *= 1e-3 / np.linalg.norm(delta)
            assert objective(theta + delta) >= obj - 1e-15

    def test_gradient_residual_small(self):
        rng = rng_from(20, "resid")
        X = rng.standard_normal((50, 10))
        y = rng.standard_normal(50)
        theta, _ = solve_ridge_closed_form(X, y, 0.1)
        grad = 2.0 * (X.T @ (X @ theta - y) / 50 + 0.1 * theta)
        assert np.linalg.norm(grad) <= 1e-10


def twin_test_risk(problem, theta, equiv, n_test, seed):
    """Monte Carlo test risk on a fresh twin batch, as the trials compute it."""
    batch = sample_gaussian(equiv, n_test, derive_seed(seed, "test-draws"))
    eps = problem.labeler.draw_noise(n_test, derive_seed(seed, "test-noise"))
    return _risk_on(problem, theta, batch, labels_from_noise(problem, batch, eps))


class TestTestRisk:
    def test_constant_loss_values_give_zero_se(self):
        # Frozen nonzero covariates with tau = 0 make every loss value equal.
        p = 3
        theta_star = np.ones(p)
        problem = make_problem(p, theta_star=theta_star)
        x0 = np.ones((500, p))
        theta = np.zeros(p)
        eps = problem.labeler.draw_noise(500, seed=0)
        est, se = _risk_on(problem, theta, x0, labels_from_noise(problem, x0, eps))
        assert est == pytest.approx(9.0)  # (0 - 3)^2
        assert se == 0.0

    def test_pure_noise_regression(self):
        # theta = theta_star = e1, g ~ N(0, I), tau = 1:
        # E[(G - (G + eps))^2] = E[eps^2] = 1.
        p = 2
        theta_star = np.zeros(p)
        theta_star[0] = 1.0
        problem = make_problem(p, theta_star=theta_star, tau=1.0)
        equiv = GaussianEquivalent(factor=np.eye(p))
        est, se = twin_test_risk(problem, theta_star, equiv, 20_000, seed=3)
        assert abs(est - 1.0) <= 3.0 * se

    def test_two_seeds_agree_within_combined_se(self):
        p = 4
        rng = rng_from(22, "cal")
        theta_star = rng.standard_normal(p) / 2
        problem = make_problem(p, loss="huber", theta_star=theta_star, tau=0.5)
        equiv = GaussianEquivalent(factor=np.eye(p))
        theta = rng.standard_normal(p) / 2
        hits = 0
        for rep in range(100):
            e1, s1 = twin_test_risk(problem, theta, equiv, 2000, seed=1000 + rep)
            e2, s2 = twin_test_risk(problem, theta, equiv, 2000, seed=5000 + rep)
            if abs(e1 - e2) <= 4.0 * math.hypot(s1, s2):
                hits += 1
        assert hits >= 95
