"""Covariance oracles, PSD factorization, Gaussian twin sampling."""

import math
import tracemalloc

import numpy as np
import pytest
from numpy.polynomial.hermite_e import hermeval

from ermu.errors import InvalidArgumentError
from ermu import gaussian
from ermu.campaign import build_instances
from ermu.config import config_from_dict
from ermu.features import (
    Activation,
    FeatureModel,
    featurize,
    linear_model,
    neural_tangent_model,
    random_features_model,
    sample_covariates,
    sample_sphere_weights,
)
from ermu.gaussian import (
    _ROW_BLOCK,
    GaussianEquivalent,
    empirical_equivalent,
    factor_covariance,
    hermite_exact_equivalent,
    linear_exact_equivalent,
    mc_covariance,
    monte_carlo_equivalent,
    rf_covariance_hermite,
    sample_gaussian,
)
from ermu.quadrature import gaussian_expectation_pair, gaussian_nodes, hermite_coefficients
from ermu.seeds import derive_seed, rng_from
from ermu.universality import FamilySpec, ProblemSpec, WorkerPool, build_instance


@pytest.fixture
def eigh_calls(monkeypatch):
    """Records every np.linalg.eigh call made while the test runs."""
    calls = []
    eigh = np.linalg.eigh
    monkeypatch.setattr(np.linalg, "eigh", lambda a: calls.append(1) or eigh(a))
    return calls


def covariance(equiv):
    """The twin's law: Sigma = L L^T + iso_scale^2 I, in float64."""
    factor = equiv.factor.astype(np.float64)
    return factor @ factor.T + equiv.iso_scale**2 * np.eye(equiv.p)


def one_pass_horner(W, coeffs, order):
    """Reference Hermite series: Horner's rule over the whole p x p matrix, one pass per term."""
    rho = np.clip(W.T @ W, -1.0, 1.0)
    sigma = np.zeros_like(rho)
    for a in np.asarray(coeffs, dtype=np.float64)[min(order, len(coeffs) - 1) : 0 : -1] ** 2:
        sigma += a
        sigma *= rho
    return sigma


class TestRfCovarianceHermite:
    def test_identity_activation_gives_gram(self):
        W = sample_sphere_weights(6, 4, seed=1)
        sigma = rf_covariance_hermite(W, np.array([0.0, 1.0]), order=1)
        assert np.allclose(sigma, W.T @ W)

    def test_orthogonal_weights_give_diagonal(self):
        coeffs = np.array([0.0, 0.5, 0.25])
        sigma = rf_covariance_hermite(np.eye(4), coeffs, order=2)
        assert np.allclose(sigma, (0.5**2 + 0.25**2) * np.eye(4))

    def test_tanh_matches_tensor_quadrature_at_half_correlation(self):
        rho = 0.5
        W = np.array([[1.0, rho], [0.0, np.sqrt(1 - rho**2)]])
        coeffs = hermite_coefficients(np.tanh, 41, n_nodes=300)
        sigma = rf_covariance_hermite(W, coeffs, order=41)
        oracle = gaussian_expectation_pair(np.tanh, np.tanh, rho, n_nodes=200)
        assert abs(sigma[0, 1] - oracle) <= 1e-3

    def test_permutation_symmetry(self):
        W = sample_sphere_weights(8, 5, seed=3)
        coeffs = np.array([0.0, 0.9, 0.2])
        sigma = rf_covariance_hermite(W, coeffs, order=2)
        perm = [2, 0, 4, 1, 3]
        sigma_p = rf_covariance_hermite(W[:, perm], coeffs, order=2)
        assert np.allclose(sigma_p, sigma[np.ix_(perm, perm)])

    @pytest.mark.parametrize("order", [1, 3, 41, 121])
    def test_horner_matches_power_sum(self, order):
        W = sample_sphere_weights(10, 30, seed=2)
        coeffs = hermite_coefficients(np.tanh, order)
        rho = np.clip(W.T @ W, -1.0, 1.0)
        oracle = sum(coeffs[k] ** 2 * rho**k for k in range(1, order + 1))
        sigma = rf_covariance_hermite(W, coeffs, order)
        assert np.abs(sigma - oracle).max() <= 1e-14 * np.abs(oracle).max()

    @pytest.mark.parametrize("p", [1, 300, 601])  # one row; several blocks, the last one ragged
    @pytest.mark.parametrize("coeffs", [
        hermite_coefficients(np.tanh, 41), np.array([0.0, 0.5, 0.0, 0.6, 0.5]),
    ], ids=["tanh", "short-custom"])
    def test_row_blocks_match_one_pass_horner_bit_for_bit(self, p, coeffs):
        assert p == 1 or p > 2 * _ROW_BLOCK and p % _ROW_BLOCK
        W = sample_sphere_weights(max(1, p // 2), p, seed=p)
        sigma = rf_covariance_hermite(W, coeffs, order=41)
        assert np.array_equal(sigma, one_pass_horner(W, coeffs, 41))
        assert np.array_equal(sigma, sigma.T)

    def test_trailing_zero_coefficients_change_nothing(self):
        W = sample_sphere_weights(40, 200, seed=4)
        coeffs = np.array([0.0, 0.5, 0.0, 0.6, 0.5])
        padded = np.concatenate([coeffs, np.zeros(37)])
        sigma = rf_covariance_hermite(W, coeffs, order=4)
        assert np.array_equal(rf_covariance_hermite(W, padded, order=41), sigma)
        assert np.array_equal(one_pass_horner(W, padded, 41), sigma)

    def test_readme_config_twin_factors_the_reference_series(self):
        from test_harness import README_CONFIG

        config = config_from_dict(README_CONFIG)
        cells = [cell for cell in build_instances(config) if cell.spec.id == "rf"]
        assert [cell.p for cell in cells] == [150, 300, 600]
        for cell in cells:
            order = cell.spec.hermite_order
            cov = one_pass_horner(cell.model.W, cell.model.activation.coefficients(order), order)
            reference = factor_covariance(cov, cell.spec.jitter_rel).astype(np.float32)
            assert np.array_equal(cell.equiv.factor, reference)

    def test_constant_only_series_gives_zeros(self):
        sigma = rf_covariance_hermite(sample_sphere_weights(4, 3, seed=1), np.zeros(1), order=5)
        assert np.array_equal(sigma, np.zeros((3, 3)))

    def test_non_unit_columns_rejected(self):
        with pytest.raises(InvalidArgumentError):
            rf_covariance_hermite(2.0 * np.eye(3), np.array([0.0, 1.0]), order=1)

    def test_nonzero_mean_rejected(self):
        with pytest.raises(InvalidArgumentError):
            rf_covariance_hermite(np.eye(3), np.array([0.5, 1.0]), order=1)


class TestHermiteCoefficients:
    @pytest.mark.parametrize(
        "f", [np.tanh, lambda x: np.sin(x) - x / math.sqrt(math.e)], ids=["tanh", "shifted-sine"]
    )
    def test_recurrence_matches_per_order_hermeval(self, f):
        # Oracle: c_k = E[f(G) He_k(G)] / sqrt(k!), each He_k evaluated on its own.
        x, w = gaussian_nodes(200)
        got = hermite_coefficients(f, 121)
        for k in range(122):
            he_k = hermeval(x, np.eye(k + 1)[k]) / math.sqrt(math.factorial(k))
            assert abs(got[k] - float(np.dot(w, f(x) * he_k))) <= 1e-14, k


class TestMcCovariance:
    def test_linear_identity_converges(self):
        model = linear_model(8, entry_law="gaussian")
        sigma = mc_covariance(model, 1_000_000, seed=17)
        assert np.abs(sigma - np.eye(8)).max() <= 5e-3

    def test_matches_hermite_oracle_in_frobenius(self):
        act = Activation("custom-hermite", hermite_coeffs=(0.0, 0.6, 0.3, 0.1))
        W = sample_sphere_weights(32, 32, seed=4)
        model = FeatureModel(family="random-features", d=32, p=32, W=W, activation=act)
        sigma_mc = mc_covariance(model, 100_000, seed=8)
        sigma_h = rf_covariance_hermite(W, np.array(act.hermite_coeffs), order=3)
        assert np.linalg.norm(sigma_mc - sigma_h) <= 2e-2 * 32

    def test_single_sample_rank_one(self):
        model = linear_model(5, entry_law="gaussian")
        with pytest.warns(UserWarning):
            sigma = mc_covariance(model, 1, seed=2)
        # numpy's default rank tolerance, at the float32 precision the chunk
        # Gram matrices are formed in: rounding them leaves singular values
        # of up to 2^-24 of the first.
        tol = np.linalg.norm(sigma, 2) * sigma.shape[0] * np.finfo(np.float32).eps
        assert np.linalg.matrix_rank(sigma, tol=tol) == 1

    def test_disjoint_seeds_agree_within_standard_errors(self):
        act = Activation("tanh-rf")
        W = sample_sphere_weights(12, 16, seed=6)
        model = FeatureModel(family="random-features", d=12, p=16, W=W, activation=act)
        n_cov = 40_000
        s1 = mc_covariance(model, n_cov, seed=100)
        s2 = mc_covariance(model, n_cov, seed=200)
        # Entrywise SE estimated from an independent batch of products.
        from ermu.features import draw_features

        probe = draw_features(model, 20_000, seed=300)
        rng = rng_from(31, "entries")
        picks = set()
        while len(picks) < 100:
            picks.add((int(rng.integers(0, 16)), int(rng.integers(0, 16))))
        for i, j in picks:
            prod = probe[:, i] * probe[:, j]
            se = prod.std(ddof=1) * np.sqrt(2.0 / n_cov)
            assert abs(s1[i, j] - s2[i, j]) <= 3.0 * se

    def test_chunking_invariant(self):
        model = linear_model(4, entry_law="uniform")
        assert np.array_equal(
            mc_covariance(model, 5000, seed=9, chunk=512),
            mc_covariance(model, 5000, seed=9, chunk=512),
        )

    def test_pool_matches_serial_bit_for_bit(self):
        # Ten chunk Gram matrices built on two workers are summed in chunk
        # order, exactly as the serial loop sums them.
        W = sample_sphere_weights(12, 16, seed=4)
        model = FeatureModel(
            family="random-features", d=12, p=16, W=W, activation=Activation("tanh-rf")
        )
        serial = mc_covariance(model, 5000, seed=9, chunk=512)
        with WorkerPool(2) as pool:
            pooled = mc_covariance(model, 5000, seed=9, chunk=512, mapper=pool.map)
        assert np.array_equal(pooled, serial)


    @pytest.mark.parametrize("name", ["rf", "nt", "linear"])
    def test_float32_chunks_match_a_float64_reference(self, name):
        # Each chunk is featurized and its Gram matrix formed in float32
        # against a float32 copy of the weights, then summed in float64.
        # The reference sums float64 Gram matrices of the same chunk
        # streams; measured error (max-abs over max) 1.1e-7 to 1.3e-7.
        model = {
            "rf": lambda: random_features_model(24, 40, Activation("tanh-rf"), seed=4),
            "nt": lambda: neural_tangent_model(8, 5, Activation("shifted-sine-nt"), seed=4),
            "linear": lambda: linear_model(40, entry_law="uniform"),
        }[name]()
        n_cov, seed, tasks, grams = 10_000, 9, [], []

        def recording_map(fn, items):
            for task in items:
                tasks.append(task)
                grams.append(fn(task))
                yield grams[-1]

        got = mc_covariance(model, n_cov, seed, mapper=recording_map)
        assert len(grams) == 3 and all(gram.dtype == np.float32 for gram in grams)
        assert all(task[0].W is None or task[0].W.dtype == np.float32 for task in tasks)
        ref = np.zeros((model.p, model.p))
        for index, start in enumerate(range(0, n_cov, gaussian._COV_CHUNK)):
            rows = min(gaussian._COV_CHUNK, n_cov - start)
            Z = sample_covariates(model, rows, derive_seed(seed, "cov-chunk", index))
            Phi = featurize(model, Z)
            ref += Phi.T @ Phi
        ref /= n_cov
        assert np.abs(got - ref).max() <= 1e-6 * np.abs(ref).max()


class TestFactorCovariance:
    def test_identity(self):
        L = factor_covariance(np.eye(4))
        assert np.allclose(L @ L.T, np.eye(4), atol=1e-14)

    def test_diagonal(self):
        L = factor_covariance(np.diag([4.0, 1.0]))
        assert np.abs(L @ L.T - np.diag([4.0, 1.0])).max() <= 1e-12

    def test_small_negative_eigenvalue_clipped(self):
        A = np.diag([1.0, 1e-9]) - 2e-9 * np.eye(2)  # one eigenvalue at -1e-9
        L = factor_covariance(A)
        eig = np.linalg.eigvalsh(L @ L.T)
        assert eig.min() >= 0.0

    def test_jitter_added_before_factorization(self):
        A = np.eye(3)
        L = factor_covariance(A, jitter_rel=0.1)
        assert np.allclose(L @ L.T, 1.1 * np.eye(3), atol=1e-12)

    def test_asymmetric_rejected(self):
        A = np.array([[1.0, 0.5], [0.0, 1.0]])
        with pytest.raises(InvalidArgumentError):
            factor_covariance(A)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_rejected(self, bad):
        with pytest.raises(InvalidArgumentError, match="non-finite"):
            factor_covariance(np.diag([1.0, bad, 1.0]))

    def test_cholesky_factor_of_hermite_covariance(self, eigh_calls):
        # A jittered covariance is positive definite: its factor is the
        # lower-triangular Cholesky factor, found without an eigendecomposition.
        W = sample_sphere_weights(20, 40, seed=6)
        sigma = rf_covariance_hermite(W, hermite_coefficients(np.tanh, 41), order=41)
        L = factor_covariance(sigma, jitter_rel=1e-10)
        target = sigma + (1e-10 * np.trace(sigma) / 40) * np.eye(40)
        assert eigh_calls == []
        assert np.array_equal(L, np.tril(L))
        assert np.abs(L @ L.T - target).max() <= 1e-12 * np.abs(target).max()

    def test_singular_covariance_falls_back_to_eigh(self, eigh_calls):
        # Only c_1 is nonzero, so Sigma = c_1^2 W^T W has rank d < p; with no
        # jitter Cholesky fails and the clipped eigendecomposition factors it.
        W = sample_sphere_weights(8, 24, seed=5)
        sigma = rf_covariance_hermite(W, np.array([0.0, 0.8]), order=1)
        L = factor_covariance(sigma, jitter_rel=0.0)
        assert eigh_calls == [1]
        assert np.abs(L @ L.T - sigma).max() <= 1e-12 * np.abs(sigma).max()


class TestSampleGaussian:
    def test_zero_factor_gives_zero_rows(self):
        equiv = GaussianEquivalent(factor=np.zeros((3, 3)))
        assert np.all(sample_gaussian(equiv, 10, seed=1) == 0.0)

    def test_unit_variance_scalar(self):
        equiv = GaussianEquivalent(factor=np.eye(1))
        draws = sample_gaussian(equiv, 1_000_000, seed=5)
        assert abs(draws.var() - 1.0) <= 0.01

    def test_bit_identical_for_fixed_seed(self):
        equiv = GaussianEquivalent(factor=np.eye(4))
        assert np.array_equal(sample_gaussian(equiv, 50, 3), sample_gaussian(equiv, 50, 3))

    def test_empirical_covariance_of_samples(self):
        cov = np.array([[2.0, 0.6], [0.6, 1.0]])
        equiv = GaussianEquivalent(factor=factor_covariance(cov))
        draws = sample_gaussian(equiv, 200_000, seed=6)
        emp = draws.T @ draws / draws.shape[0]
        assert np.linalg.norm(emp - cov) <= 0.05 * np.linalg.norm(cov)

    def test_square_factor_draws_one_normal_per_entry(self):
        # A twin without isotropic term draws exactly n x p normals, so its
        # batches are the same bits as xi @ L^T in float32, with xi and L
        # rounded to float32.
        factor = factor_covariance(np.array([[2.0, 0.6, 0.1], [0.6, 1.0, 0.2], [0.1, 0.2, 0.5]]))
        equiv = GaussianEquivalent(factor=factor)
        assert equiv.factor.dtype == np.float32
        assert np.array_equal(equiv.factor, factor.astype(np.float32))
        xi = rng_from(13, "gaussian-rows").standard_normal((40, 3)).astype(np.float32)
        G = sample_gaussian(equiv, 40, seed=13)
        assert G.dtype == np.float64
        assert np.array_equal(G, (xi @ factor.astype(np.float32).T).astype(np.float64))

    def test_isotropic_scale_needs_an_empty_factor(self):
        # Only the linear twin's rows are s zeta; a factor's rows have no such term.
        with pytest.raises(InvalidArgumentError, match="iso_scale"):
            GaussianEquivalent(factor=np.eye(3), iso_scale=0.5)
        assert GaussianEquivalent(factor=np.zeros((3, 0)), iso_scale=0.5).p == 3

    @pytest.mark.parametrize("r", [2, 7])
    def test_non_square_factor_rows_match_covariance(self, r):
        # A p x r factor draws r normals per row and returns p columns.
        factor = rng_from(4, "factor", r).standard_normal((4, r)) / np.sqrt(r)
        equiv = GaussianEquivalent(factor=factor)
        draws = sample_gaussian(equiv, 200_000, seed=8)
        assert draws.shape == (200_000, 4)
        cov = factor @ factor.T
        emp = draws.T @ draws / draws.shape[0]
        # Entrywise SE of a second moment is at most sqrt(2 / n) * max variance.
        assert np.abs(emp - cov).max() <= 5.0 * np.sqrt(2.0 / 200_000) * cov.diagonal().max()


class TestLinearExactTwin:
    @pytest.mark.parametrize("nu", [1.0, 2.0])
    def test_rows_are_scaled_standard_normal_stream(self, nu):
        # The twin N(0, nu I) is sqrt(nu) times the n x p standard normals
        # of the gaussian-rows stream, bit for bit.
        equiv = linear_exact_equivalent(linear_model(6, nu=nu))
        assert equiv.factor.shape == (6, 0)
        xi = rng_from(13, "gaussian-rows").standard_normal((40, 6))
        assert np.array_equal(sample_gaussian(equiv, 40, seed=13), np.sqrt(nu) * xi)


class TestEquivalentBuilders:
    def test_hermite_exact_requires_rf(self):
        with pytest.raises(InvalidArgumentError):
            hermite_exact_equivalent(linear_model(2), order=3)

    @pytest.mark.parametrize(
        "family",
        [
            {"cov_mode": "hermite-exact", "hermite_order": 41},
            {"cov_mode": "monte-carlo", "cov_samples_per_dim": 5},
        ],
        ids=["hermite-exact", "monte-carlo"],
    )
    def test_set_up_calls_no_eigh(self, family, eigh_calls):
        spec = FamilySpec(id="rf", kind="random-features", gamma_d_over_p=0.4, **family)
        inst = build_instance(spec, ProblemSpec(loss="huber", tau=0.5, lam=0.1), 40, 5)
        assert (inst.p, inst.d) == (30, 12)
        assert inst.equiv.factor.shape == (inst.p, inst.p)
        assert eigh_calls == []

    def test_monte_carlo_twin_is_psd(self):
        model = linear_model(3, entry_law="gaussian")
        equiv = monte_carlo_equivalent(model, 500, seed=11)
        eig = np.linalg.eigvalsh(covariance(equiv))
        assert eig.min() >= -1e-12


# float32 unit roundoff.
U32 = 2.0**-24


class TestEmpiricalTwin:
    @pytest.mark.parametrize("n, p", [(30, 50), (80, 20)])
    def test_factor_is_the_float32_scaled_batch(self, n, p):
        X = rng_from(5, "batch", n).standard_normal((n, p)) + 0.3
        equiv = empirical_equivalent(X)
        want = X.astype(np.float32) / np.float32(np.sqrt(n))
        assert equiv.factor.dtype == np.float32
        assert np.array_equal(equiv.factor.T, want)
        assert equiv.factor.T.flags.c_contiguous
        assert equiv.iso_scale == 0.0

    @pytest.mark.parametrize("n, p", [(30, 50), (80, 20)])
    def test_covariance_is_batch_second_moment_within_float32_rounding(self, n, p):
        # Each entry of F carries three float32 roundings (the cast, sqrt(n)
        # and the division), so it is within 3u of its exact value and a
        # product of two entries within 6u; the float64 sums add far less.
        X = rng_from(5, "batch", n).standard_normal((n, p)) + 0.3
        got = covariance(empirical_equivalent(X))
        bound = 6.01 * U32 * (np.abs(X).T @ np.abs(X)) / n
        assert np.all(np.abs(got - X.T @ X / n) <= bound)

    def test_rows_match_covariance(self):
        # More rows than features: the float32 row-block draw has the law
        # of its factor.
        X = rng_from(6, "batch").standard_normal((6, 4)) * [1.0, 2.0, 0.5, 1.5]
        equiv = empirical_equivalent(X)
        draws = sample_gaussian(equiv, 200_000, seed=9)
        cov = covariance(equiv)
        emp = draws.T @ draws / draws.shape[0]
        assert np.abs(emp - cov).max() <= 5.0 * np.sqrt(2.0 / 200_000) * cov.diagonal().max()

    def test_narrow_factor_draws_one_float32_product(self):
        # A batch with fewer rows than features gives a factor with r <= p:
        # the draw is the n x r normals, rounded to float32, times the
        # factor in one float32 product, and nothing else is drawn.
        X = rng_from(7, "batch").standard_normal((5, 8))
        equiv = empirical_equivalent(X)
        G = sample_gaussian(equiv, 10, seed=3)
        z = rng_from(3, "gaussian-rows").standard_normal((10, 5)).astype(np.float32)
        assert G.dtype == np.float64
        assert np.array_equal(G, (z @ equiv.factor.T).astype(np.float64))

    @pytest.mark.parametrize("n", [1, _ROW_BLOCK + 1, 2 * _ROW_BLOCK + 3])
    def test_blocked_draw_is_float32_products_of_one_stream(self, n):
        # A factor with more columns than rows is drawn in row blocks: each
        # block of the float64 stream is cast to float32 and multiplied by
        # the float32 factor. The blocks read the stream as one n x r draw,
        # so the batch is its float64 product up to float32 rounding: u for
        # the cast of xi and r u for the float32 sum of r products.
        X = rng_from(8, "batch").standard_normal((300, 12))
        equiv = empirical_equivalent(X)
        got = sample_gaussian(equiv, n, seed=21)
        rng = rng_from(21, "gaussian-rows")
        blocks = [rng.standard_normal((len(rows), 300)).astype(np.float32)
                  for rows in np.array_split(np.arange(n), range(_ROW_BLOCK, n, _ROW_BLOCK))]
        assert got.dtype == np.float64
        assert np.array_equal(got, np.vstack([xi @ equiv.factor.T for xi in blocks]))
        xi = rng_from(21, "gaussian-rows").standard_normal((n, 300))
        factor = equiv.factor.astype(np.float64)
        bound = (300 + 1) * U32 * (np.abs(xi) @ np.abs(factor).T)
        assert np.all(np.abs(got - xi @ factor.T) <= bound)

    def test_wide_factor_allocates_no_n_by_n_matrix(self):
        n, p = 2000, 20
        equiv = empirical_equivalent(rng_from(9, "batch").standard_normal((n, p)))
        tracemalloc.start()
        try:
            G = sample_gaussian(equiv, n, seed=4)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # The batch plus one block of xi and its float32 copy; a one-batch draw
        # needs n x n normals.
        assert peak <= G.nbytes + 2 * _ROW_BLOCK * n * 8 < n * n * 8
