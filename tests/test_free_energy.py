"""Softmin free energy: sandwich identities, monotonicity, paths."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ermu.erm import ConstraintSet, ErmProblem, Labeler, Loss, Regularizer, generate_labels
from ermu.errors import InvalidArgumentError
from ermu.free_energy import (
    CandidateSet,
    InterpolationPath,
    candidate_risks,
    entropy_sandwich_check,
    free_energy_path,
    random_net,
    softmin_free_energy,
    solution_cloud,
)
from ermu.seeds import rng_from


def small_problem(p, seed=0, lam=0.1, tau=0.5):
    rng = rng_from(seed, "fe-problem")
    return ErmProblem(
        loss=Loss("huber"),
        labeler=Labeler(tau=tau),
        theta_star=rng.standard_normal(p) / math.sqrt(p),
        regularizer=Regularizer("ridge", lam),
        constraint=ConstraintSet("l2-ball", R=2.0),
    )


class TestSoftmin:
    def test_single_candidate_is_exact(self):
        assert softmin_free_energy(np.array([0.37]), n=10, beta=2.0) == pytest.approx(0.37)

    def test_uniform_values_hit_lower_bound(self):
        M, n, beta, v = 16, 25, 0.5, 1.25
        f = softmin_free_energy(np.full(M, v), n, beta)
        assert f == pytest.approx(v - math.log(M) / (n * beta), abs=1e-15)

    def test_two_values_scalar_arithmetic(self):
        # values {0, 10}, n = 10, beta = 1: f = -(1/10) log(1 + e^{-100})
        f = softmin_free_energy(np.array([0.0, 10.0]), n=10, beta=1.0)
        assert abs(f - (-(1.0 / 10.0) * math.log1p(math.exp(-100.0)))) <= 1e-12
        assert abs(f) <= 1e-12

    def test_no_overflow_at_huge_exponents(self):
        f = softmin_free_energy(np.array([1.0, 2.0]), n=10**6, beta=1.0)
        assert f == pytest.approx(1.0)

    def test_empty_rejected(self):
        with pytest.raises(InvalidArgumentError):
            softmin_free_energy(np.array([]), n=5, beta=1.0)
        with pytest.raises(InvalidArgumentError):
            softmin_free_energy(np.array([1.0]), n=5, beta=0.0)

    @given(
        values=st.lists(st.floats(-1e3, 1e3), min_size=1, max_size=64),
        beta=st.floats(1e-3, 1e3),
        n=st.integers(1, 10_000),
    )
    @settings(max_examples=200, deadline=None)
    def test_sandwich_is_algebraic(self, values, beta, n):
        vals = np.asarray(values)
        f = softmin_free_energy(vals, n, beta)
        vmin = float(vals.min())
        assert f <= vmin
        assert f >= vmin - math.log(len(values)) / (n * beta) - 1e-12

    @given(
        values=st.lists(st.floats(-10, 10), min_size=2, max_size=32),
        n=st.integers(1, 100),
    )
    @settings(max_examples=100, deadline=None)
    def test_monotone_in_beta(self, values, n):
        vals = np.asarray(values)
        betas = [0.1, 1.0, 10.0, 100.0]
        fs = [softmin_free_energy(vals, n, b) for b in betas]
        assert all(b >= a - 1e-12 for a, b in zip(fs, fs[1:]))

    def test_permutation_invariance(self):
        rng = rng_from(1, "perm")
        vals = rng.uniform(0, 3, 33)
        f1 = softmin_free_energy(vals, 50, 2.0)
        f2 = softmin_free_energy(vals[rng.permutation(33)], 50, 2.0)
        assert f2 == pytest.approx(f1, rel=1e-12)

    def test_adding_better_candidate_never_raises_f(self):
        rng = rng_from(2, "add")
        vals = rng.uniform(1, 2, 10)
        f_before = softmin_free_energy(vals, 20, 3.0)
        f_after = softmin_free_energy(np.append(vals, vals.min() - 0.1), 20, 3.0)
        assert f_after <= f_before


class TestCandidates:
    def test_random_net_is_feasible(self):
        problem = small_problem(6)
        cset = problem.constraint
        net = random_net(problem, 32, seed=5)
        assert net.M == 32
        for i in range(32):
            assert np.linalg.norm(net.points[i]) <= cset.R + 1e-10

    def test_solution_cloud_contains_center(self):
        problem = small_problem(6)
        theta = rng_from(3, "c").standard_normal(6) * 0.1
        cloud = solution_cloud(problem, theta, M=9, alpha=0.5, seed=7)
        assert np.allclose(cloud.points[0], theta)
        radii = [np.linalg.norm(cloud.points[i] - theta) for i in range(1, 9)]
        assert max(radii) <= 0.5 + 1e-9

    def test_free_energy_consistency_with_risks(self):
        problem = small_problem(5)
        rng = rng_from(4, "d")
        X = rng.standard_normal((30, 5))
        y = generate_labels(problem, X, seed=1)
        net = random_net(problem, 8, seed=2)
        vals = candidate_risks(net, problem, X, y)
        # brute-force risk check for one candidate
        from ermu.erm import train_risk

        assert vals[3] == pytest.approx(train_risk(problem, net.points[3], X, y))


def per_point_path(path, candidates, problem, beta):
    """Reference: form U_t at every grid point and score it from scratch."""
    from ermu.erm import labels_from_noise

    n = path.X.shape[0]
    out = []
    for t in path.grid:
        U = path.matrix_at(t)
        values = candidate_risks(candidates, problem, U, labels_from_noise(problem, U, path.eps))
        out.append((t, softmin_free_energy(values, n, beta)))
    return out


class TestPath:
    @pytest.mark.parametrize("eta", ["linear", "clipped-linear", "sign-smooth"])
    def test_two_score_matrices_match_the_per_point_loop(self, eta):
        p, n = 7, 40
        rng = rng_from(11, "two-scores", eta)
        problem = ErmProblem(
            loss=Loss("logistic" if eta == "sign-smooth" else "huber"),
            labeler=Labeler(eta_kind=eta, tau=0.3),
            theta_star=rng.standard_normal(p) / math.sqrt(p),
            regularizer=Regularizer("ridge", 0.05),
            constraint=ConstraintSet("l2-ball", R=2.0),
        )
        X = rng.standard_normal((n, p))
        G = rng.standard_normal((n, p))
        eps = problem.labeler.draw_noise(n, seed=5)
        theta = rng.standard_normal(p) / math.sqrt(p)
        cloud = solution_cloud(problem, theta, M=12, alpha=0.4, seed=6)
        grid = tuple(np.linspace(0.0, math.pi / 2, 10))
        path = InterpolationPath(X=X, G=G, grid=grid, eps=eps)
        fast = free_energy_path(path, cloud, problem, beta=3.0)
        slow = per_point_path(path, cloud, problem, beta=3.0)
        assert [t for t, _ in fast] == list(grid)
        for (_, f), (_, ref) in zip(fast, slow):
            assert abs(f - ref) <= 1e-12 * abs(ref)
        assert fast[0] == slow[0] and fast[-1] == slow[-1]

    def test_endpoints_are_pure_models(self):
        problem = small_problem(4)
        rng = rng_from(5, "path")
        X = rng.standard_normal((20, 4))
        G = rng.standard_normal((20, 4))
        eps = problem.labeler.draw_noise(20, seed=3)
        net = random_net(problem, 16, seed=9)
        path = InterpolationPath(X=X, G=G, grid=(0.0, math.pi / 2), eps=eps)
        assert np.array_equal(path.matrix_at(0.0), G)
        assert np.array_equal(path.matrix_at(math.pi / 2), X)
        (t0, f0), (t1, f1) = free_energy_path(path, net, problem, beta=4.0)
        from ermu.erm import labels_from_noise

        y_g = labels_from_noise(problem, G, eps)
        y_x = labels_from_noise(problem, X, eps)
        assert f0 == softmin_free_energy(candidate_risks(net, problem, G, y_g), 20, 4.0)
        assert f1 == softmin_free_energy(candidate_risks(net, problem, X, y_x), 20, 4.0)

    def test_degenerate_path_endpoint_identity(self):
        # With X = G the endpoints evaluate the common matrix exactly.
        problem = small_problem(4)
        X = rng_from(6, "deg").standard_normal((15, 4))
        eps = problem.labeler.draw_noise(15, seed=4)
        net = random_net(problem, 8, seed=10)
        path = InterpolationPath(X=X, G=X.copy(), grid=(0.0, math.pi / 2), eps=eps)
        (_, f0), (_, f1) = free_energy_path(path, net, problem, beta=2.0)
        assert f0 == pytest.approx(f1, abs=1e-12)

    def test_unsorted_grid_rejected(self):
        problem = small_problem(3)
        X = np.zeros((5, 3))
        eps = np.zeros(5)
        with pytest.raises(InvalidArgumentError):
            InterpolationPath(X=X, G=X, grid=(0.5, 0.1), eps=eps)


class TestEntropySandwich:
    def test_large_beta_reaches_min(self):
        problem = small_problem(5)
        rng = rng_from(8, "lb")
        X = rng.standard_normal((40, 5))
        y = generate_labels(problem, X, seed=2)
        net = random_net(problem, 32, seed=12)
        report = entropy_sandwich_check(net, problem, X, y, [1e6])
        assert abs(report.values[0] - report.minimum) <= math.log(32) / (40 * 1e6)

    def test_tiny_beta_on_constant_set(self):
        # All candidates identical: f equals min - log(M) / (n beta) exactly.
        problem = small_problem(4)
        rng = rng_from(9, "tb")
        X = rng.standard_normal((12, 4))
        y = generate_labels(problem, X, seed=6)
        theta = rng.standard_normal(4) * 0.1
        candidates = CandidateSet(points=np.repeat(theta[None], 8, axis=0))
        report = entropy_sandwich_check(candidates, problem, X, y, [1e-6])
        assert report.values[0] == pytest.approx(report.lower_bounds[0], abs=1e-9)

    def test_monotone_over_standard_grid(self):
        problem = small_problem(6)
        rng = rng_from(10, "mono")
        X = rng.standard_normal((50, 6))
        y = generate_labels(problem, X, seed=8)
        net = random_net(problem, 64, seed=13)
        report = entropy_sandwich_check(net, problem, X, y, [0.1, 1.0, 10.0, 100.0])
        assert report.ok
        assert all(b >= a for a, b in zip(report.values, report.values[1:]))

    def test_unsorted_beta_grid_rejected(self):
        problem = small_problem(3)
        X = np.zeros((4, 3))
        with pytest.raises(InvalidArgumentError):
            entropy_sandwich_check(
                random_net(problem, 4, seed=1), problem, X, np.zeros(4), [1.0, 0.1]
            )
