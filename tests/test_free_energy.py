"""Softmin free energy: sandwich identities, monotonicity, paths."""

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ermu import campaign, free_energy, universality
from ermu.config import config_from_dict
from ermu.erm import (
    ConstraintSet,
    ErmProblem,
    Labeler,
    Loss,
    Regularizer,
    generate_labels,
    labels_from_noise,
    project_constraint,
)
from ermu.errors import InvalidArgumentError
from ermu.free_energy import (
    candidate_risks,
    entropy_sandwich_check,
    free_energy_path,
    path_coefficients,
    random_net,
    softmin_free_energy,
    solution_cloud,
)
from ermu.seeds import rng_from
from ermu.universality import WorkerPool


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
        assert net.shape == (32, 6)
        for i in range(32):
            assert np.linalg.norm(net[i]) <= cset.R + 1e-10

    def test_solution_cloud_contains_center(self):
        problem = small_problem(6)
        theta = rng_from(3, "c").standard_normal(6) * 0.1
        cloud = solution_cloud(problem, theta, M=9, alpha=0.5, seed=7)
        assert np.allclose(cloud[0], theta)
        radii = [np.linalg.norm(cloud[i] - theta) for i in range(1, 9)]
        assert max(radii) <= 0.5 + 1e-9

    @pytest.mark.parametrize("cset", [
        ConstraintSet("l2-ball", R=0.3),
        ConstraintSet("linf-ball", R=0.3, p=12),
        ConstraintSet("nt-operator-ball", R=0.3, d=3, m=4),
    ])
    @pytest.mark.parametrize("M", [1, 2, 19])
    def test_solution_cloud_matches_one_draw_per_point(self, cset, M):
        # The cloud as M-1 draws of p normals, each scaled and projected alone.
        problem = ErmProblem(Loss("huber"), Labeler(tau=0.5), np.zeros(12),
                             Regularizer("ridge", 0.1), cset)
        theta = rng_from(12, "cloud-center").standard_normal(12) * 0.2
        rng = rng_from(8, "solution-cloud")
        ref = [project_constraint(cset, theta)]
        for i in range(1, M):
            direction = rng.standard_normal(12)
            direction *= (0.5 / (2.0 ** ((i - 1) % 8))) / np.linalg.norm(direction)
            ref.append(project_constraint(cset, theta + direction))
        cloud = solution_cloud(problem, theta, M, alpha=0.5, seed=8)
        assert np.array_equal(cloud, np.array(ref))

    def test_free_energy_consistency_with_risks(self):
        problem = small_problem(5)
        rng = rng_from(4, "d")
        X = rng.standard_normal((30, 5))
        y = generate_labels(problem, X, seed=1)
        net = random_net(problem, 8, seed=2)
        vals = candidate_risks(net, problem, X, y)
        # brute-force risk check for one candidate
        from ermu.erm import train_risk

        assert vals[3] == pytest.approx(train_risk(problem, net[3], X, y))


def matrix_at(X, G, t):
    s, c = path_coefficients(t)
    return s * X + c * G


def per_point_path(X, G, eps, grid, points, problem, beta):
    """Reference: form U_t at every grid point and score it from scratch."""
    out = []
    for t in grid:
        U = matrix_at(X, G, t)
        values = candidate_risks(points, problem, U, labels_from_noise(problem, U, eps))
        out.append((t, softmin_free_energy(values, X.shape[0], beta)))
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
        fast, _ = free_energy_path(X, G, eps, grid, cloud, problem, beta=3.0)
        slow = per_point_path(X, G, eps, grid, cloud, problem, beta=3.0)
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
        assert np.array_equal(matrix_at(X, G, 0.0), G)
        assert np.array_equal(matrix_at(X, G, math.pi / 2), X)
        ((t0, f0), (t1, f1)), _ = free_energy_path(
            X, G, eps, (0.0, math.pi / 2), net, problem, beta=4.0
        )
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
        ((_, f0), (_, f1)), _ = free_energy_path(
            X, X.copy(), eps, (0.0, math.pi / 2), net, problem, beta=2.0
        )
        assert f0 == pytest.approx(f1, abs=1e-12)

    @pytest.mark.parametrize("eta", ["linear", "clipped-linear", "sign-smooth"])
    @pytest.mark.parametrize("path_points", [2, 10])
    def test_last_risks_are_the_candidate_risks_on_x(self, eta, path_points):
        # The campaign's grid ends at pi/2, so the entropy sandwich reads the
        # path's last risk vector in place of a second candidate_risks pass.
        p, n = 5, 30
        rng = rng_from(7, "x-end", eta)
        problem = ErmProblem(
            loss=Loss("huber"),
            labeler=Labeler(eta_kind=eta, tau=0.3),
            theta_star=rng.standard_normal(p) / math.sqrt(p),
            regularizer=Regularizer("ridge", 0.05),
            constraint=ConstraintSet("l2-ball", R=2.0),
        )
        X = rng.standard_normal((n, p))
        G = rng.standard_normal((n, p))
        eps = problem.labeler.draw_noise(n, seed=2)
        net = random_net(problem, 20, seed=3, scale=2.0)
        grid = tuple(np.linspace(0.0, math.pi / 2.0, path_points))
        _, risks_x = free_energy_path(X, G, eps, grid, net, problem, beta=5.0)
        y_x = labels_from_noise(problem, X, eps)
        assert np.array_equal(risks_x, candidate_risks(net, problem, X, y_x))

    @pytest.mark.parametrize("G_rows, grid, eps_len", [
        (5, (0.5, 0.1), 5),  # unsorted grid
        (5, (0.0, 2.0), 5),  # grid beyond pi/2
        (5, (-0.1, 0.5), 5),  # grid below 0
        (4, (0.0, 0.5), 5),  # X and G differ in shape
        (5, (0.0, 0.5), 4),  # noise shorter than the batch
    ], ids=["unsorted", "above", "below", "shapes", "noise"])
    def test_bad_path_rejected(self, G_rows, grid, eps_len):
        problem = small_problem(3)
        net = random_net(problem, 4, seed=1)
        with pytest.raises(InvalidArgumentError):
            free_energy_path(np.zeros((5, 3)), np.zeros((G_rows, 3)), np.zeros(eps_len), grid,
                             net, problem, beta=1.0)


class TestEntropySandwich:
    def test_large_beta_reaches_min(self):
        problem = small_problem(5)
        rng = rng_from(8, "lb")
        X = rng.standard_normal((40, 5))
        y = generate_labels(problem, X, seed=2)
        net = random_net(problem, 32, seed=12)
        check = entropy_sandwich_check(candidate_risks(net, problem, X, y), 40, [1e6])
        assert abs(check["free_energies"][0] - check["minimum"]) <= math.log(32) / (40 * 1e6)

    def test_tiny_beta_on_constant_set(self):
        # All candidates identical: f equals min - log(M) / (n beta) exactly.
        problem = small_problem(4)
        rng = rng_from(9, "tb")
        X = rng.standard_normal((12, 4))
        y = generate_labels(problem, X, seed=6)
        theta = rng.standard_normal(4) * 0.1
        candidates = np.repeat(theta[None], 8, axis=0)
        check = entropy_sandwich_check(candidate_risks(candidates, problem, X, y), 12, [1e-6])
        lower = check["minimum"] - math.log(8) / (12 * 1e-6)
        assert check["free_energies"][0] == pytest.approx(lower, abs=1e-9)

    def test_monotone_over_standard_grid(self):
        problem = small_problem(6)
        rng = rng_from(10, "mono")
        X = rng.standard_normal((50, 6))
        y = generate_labels(problem, X, seed=8)
        net = random_net(problem, 64, seed=13)
        values = candidate_risks(net, problem, X, y)
        check = entropy_sandwich_check(values, 50, [0.1, 1.0, 10.0, 100.0])
        assert check["sandwich_ok"] and check["monotone_ok"] and check["offending_betas"] == []
        fs = check["free_energies"]
        assert all(b >= a for a, b in zip(fs, fs[1:]))

    def test_unsorted_beta_grid_rejected(self):
        with pytest.raises(InvalidArgumentError):
            entropy_sandwich_check(np.ones(4), 4, [1.0, 0.1])


def unblocked_risks(pts, problem, scores, y):
    """Reference: the loss of the whole M x n score matrix at once."""
    losses = problem.loss.value(scores, y[None, :]).mean(axis=1)
    if problem.regularizer.kind == "ridge":
        return losses + problem.regularizer.lam * np.einsum("mp->m", pts * pts)
    return losses + np.zeros(len(pts))


def unblocked_path(X, G, eps, grid, pts, problem, beta):
    """Reference: free_energy_path with one M x n score matrix per grid point."""
    SX = np.einsum("ip,mp->mi", X, pts, optimize=True)
    SG = np.einsum("ip,mp->mi", G, pts, optimize=True)
    TX, TG = problem.target_scores(X), problem.target_scores(G)
    out = []
    for t in grid:
        s, c = path_coefficients(t)
        y_t = problem.labeler.label(s * TX + c * TG, eps)
        values = unblocked_risks(pts, problem, s * SX + c * SG, y_t)
        out.append((t, softmin_free_energy(values, X.shape[0], beta)))
    return out


class TestBlocks:
    # n = 40 with a 200-score budget gives blocks of 5 candidate rows.
    N, BUDGET, ROWS = 40, 200, 5

    def case(self, monkeypatch, loss, reg, M, p=6):
        monkeypatch.setattr(free_energy, "_BLOCK_SCORES", self.BUDGET)
        rng = rng_from(21, "blocks", loss, reg, M)
        problem = ErmProblem(
            loss=Loss(loss),
            labeler=Labeler(tau=0.4),
            theta_star=rng.standard_normal(p) / math.sqrt(p),
            regularizer=Regularizer(reg, 0.07),
            constraint=ConstraintSet("l2-ball", R=2.0),
        )
        X = rng.standard_normal((self.N, p))
        G = rng.standard_normal((self.N, p))
        eps = problem.labeler.draw_noise(self.N, seed=3)
        return problem, X, G, eps, random_net(problem, M, seed=4, scale=2.0)

    @pytest.mark.parametrize("M", [1, 3, 6, 15], ids=["one", "below-block", "block+1", "3-blocks"])
    @pytest.mark.parametrize("loss, reg", [
        ("huber", "ridge"), ("logistic", "ridge"), ("squared", "none"), ("pseudo-huber", "none"),
    ])
    def test_blocked_equals_unblocked_bit_for_bit(self, monkeypatch, loss, reg, M):
        problem, X, G, eps, net = self.case(monkeypatch, loss, reg, M)
        y = labels_from_noise(problem, X, eps)
        scores = np.einsum("ip,mp->mi", X, net, optimize=True)
        assert np.array_equal(
            candidate_risks(net, problem, X, y), unblocked_risks(net, problem, scores, y)
        )
        grid = [float(t) for t in np.linspace(0, math.pi / 2, 5)]
        trace, _ = free_energy_path(X, G, eps, grid, net, problem, 2.0)
        assert trace == unblocked_path(X, G, eps, grid, net, problem, 2.0)

    def test_loss_sees_one_block_at_a_time(self, monkeypatch):
        problem, X, G, eps, net = self.case(monkeypatch, "huber", "ridge", 13)
        seen = []
        real_value = Loss.value

        def value(self, u, y):
            seen.append(u.shape)
            return real_value(self, u, y)

        monkeypatch.setattr(Loss, "value", value)
        candidate_risks(net, problem, X, labels_from_noise(problem, X, eps))
        assert seen == [(5, self.N), (5, self.N), (3, self.N)]


class TestStageMemory:
    def test_trial_zero_holds_two_batches_and_two_score_matrices(self):
        # Trial 0 keeps X for its free-energy stage, so X and G (n x p each)
        # and the two candidate score matrices (M x n each) are held
        # together; the loss runs on blocks of candidate rows, so the only
        # other terms are the M x p candidate points and the loss
        # temporaries of one block. A loss over the whole M x n matrix would
        # hold about six more M x n matrices (9.2 MB here against 4.6 MB).
        M = 256
        config = config_from_dict({
            "master_seed": 17, "trials": 1, "ladder": [400],
            "families": [{"id": "rf", "kind": "random-features", "activation": "tanh-rf",
                          "cov_mode": "hermite-exact", "hermite_order": 9}],
            "problem": {"loss": "huber", "tau": 0.5, "lambda": 0.1},
            "test_risk": {"n_test": 0},
            "free_energy": {"enabled": True, "M": M, "path_points": 4},
        })
        (instance,) = campaign.build_instances(config)
        n, p = instance.n, instance.p
        chunk = (0, [0], config.master_seed, config.solver, 0, (config.free_energy, config.perturbed))
        tracemalloc.start()
        try:
            (results,) = WorkerPool(1, [instance]).map(universality._trial_chunk, [chunk])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        ((_, _, stages),) = results
        assert len(stages.trace) == 4 and stages.check["sandwich_ok"]
        block = 8 * free_energy._BLOCK_SCORES
        assert peak <= 2 * n * p * 8 + 2 * M * n * 8 + M * p * 8 + 8 * block + 64 * 1024
