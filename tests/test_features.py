"""Feature-family construction and featurization maps."""

import math

import numpy as np
import pytest
from numpy.polynomial.hermite_e import hermeval

from ermu.errors import InvalidArgumentError
from ermu.features import (
    Activation,
    FeatureModel,
    covariate_blocks,
    draw_features,
    featurize,
    linear_model,
    neural_tangent_model,
    nt_theta_matrix,
    random_features_model,
    sample_covariates,
    sample_sphere_weights,
)
from ermu.seeds import rng_from
from ermu.universality import _TEST_BLOCK


class TestActivation:
    def test_tanh_mean_zero(self):
        act = Activation("tanh-rf")
        assert abs(act.moment_checks()["mean_sigma"]) <= 1e-10

    def test_shifted_sine_derivative_moments(self):
        act = Activation("shifted-sine-nt")
        checks = act.moment_checks()
        assert abs(checks["mean_sigma_prime"]) <= 1e-10
        assert abs(checks["mean_g_sigma_prime"]) <= 1e-10

    def test_derivative_matches_finite_differences(self):
        ts = np.linspace(-3, 3, 41)
        h = 1e-6
        for act in (
            Activation("tanh-rf"),
            Activation("shifted-sine-nt"),
            Activation("custom-hermite", hermite_coeffs=(0.0, 1.0, 0.5, 0.25)),
        ):
            fd = (act.value(ts + h) - act.value(ts - h)) / (2 * h)
            assert np.abs(fd - act.derivative(ts)).max() < 1e-8

    def test_custom_hermite_coefficients_recovered(self):
        coeffs = (0.0, 0.8, 0.0, 0.3)
        act = Activation("custom-hermite", hermite_coeffs=coeffs)
        est = act.coefficients(5)
        assert np.allclose(est[:4], coeffs, atol=1e-12)
        assert np.allclose(est[4:], 0.0, atol=1e-12)

    def test_custom_hermite_requires_coeffs(self):
        with pytest.raises(InvalidArgumentError):
            Activation("custom-hermite")

    def test_unknown_kind_rejected(self):
        with pytest.raises(InvalidArgumentError):
            Activation("relu")


class TestSphereWeights:
    def test_dimension_one_gives_signs(self):
        W = sample_sphere_weights(1, 3, seed=0)
        assert set(np.round(W.ravel(), 12)) <= {-1.0, 1.0}

    def test_pairwise_correlations_concentrate(self):
        # Uniform sphere correlations are O(1/sqrt(d)); empirical mean of
        # |w_i . w_j| at d = 50 sits near sqrt(2 / (pi d)) ~ 0.11.
        W = sample_sphere_weights(50, 50, seed=7)
        gram = np.abs(W.T @ W)
        off = gram[np.triu_indices(50, 1)]
        assert off.mean() <= 0.2

    def test_unit_norms(self):
        W = sample_sphere_weights(23, 11, seed=5)
        assert np.abs(np.linalg.norm(W, axis=0) - 1.0).max() <= 1e-12

    def test_reproducible(self):
        assert np.array_equal(sample_sphere_weights(8, 4, 3), sample_sphere_weights(8, 4, 3))

    def test_zero_dimension_rejected(self):
        with pytest.raises(InvalidArgumentError):
            sample_sphere_weights(0, 3, seed=1)
        with pytest.raises(InvalidArgumentError):
            sample_sphere_weights(3, 0, seed=1)


class TestFeaturize:
    def test_rf_orthonormal_columns_decouple(self):
        act = Activation("tanh-rf")
        model = FeatureModel(family="random-features", d=2, p=2, W=np.eye(2), activation=act)
        z = np.array([[0.7, -1.2]])
        out = featurize(model, z)
        assert np.allclose(out, np.tanh(z))

    def test_nt_single_neuron_block(self):
        act = Activation("shifted-sine-nt")
        W = np.array([[1.0], [0.0]])  # w = e1
        model = FeatureModel(family="neural-tangent", d=2, p=2, m=1, W=W, activation=act)
        a, b = 0.9, -0.4
        out = featurize(model, np.array([[a, b]]))
        sp = act.derivative(np.array([a]))[0]
        assert np.allclose(out, [[a * sp, b * sp]])

    def test_linear_identity(self):
        # With nu = 1 the linear map returns its input bit for bit.
        Z = rng_from(3, "xbar").standard_normal((20, 5))
        assert np.array_equal(featurize(linear_model(5), Z), Z)
        assert np.array_equal(featurize(linear_model(5, nu=2.0), Z), np.sqrt(2.0) * Z)

    def test_dimension_mismatch_rejected(self):
        model = linear_model(3)
        with pytest.raises(InvalidArgumentError):
            featurize(model, np.zeros((2, 4)))

    def test_deterministic_given_inputs(self):
        model = random_features_model(6, 9, Activation("tanh-rf"), seed=2)
        Z = rng_from(4, "z").standard_normal((5, 6))
        assert np.array_equal(featurize(model, Z), featurize(model, Z))

    def test_nt_block_ordering_roundtrip(self):
        # Reshaping a feature row to the d x m layout must agree with the
        # T-matrix convention used for parameters: theta . x = z^T T_theta s'.
        d, m = 3, 4
        act = Activation("shifted-sine-nt")
        model = neural_tangent_model(d, m, act, seed=9)
        z = rng_from(11, "z").standard_normal((1, d))
        x = featurize(model, z)[0]
        sp = act.derivative(z @ model.W)[0]
        T_x = x.reshape(m, d).T
        assert np.allclose(T_x, z[0][:, None] * sp[None, :])
        theta = rng_from(12, "t").standard_normal(d * m)
        T_theta = nt_theta_matrix(theta, d, m)
        assert np.isclose(theta @ x, float(z[0] @ T_theta @ sp))


class TestLinearCovariates:
    def test_rademacher_entries(self):
        X = sample_covariates(linear_model(10, "rademacher"), 100, seed=1)
        assert set(np.unique(X)) <= {-1.0, 1.0}

    @pytest.mark.parametrize("law", ["rademacher", "uniform", "laplace", "gaussian"])
    def test_unit_variance(self, law):
        X = sample_covariates(linear_model(100, law), 1200, seed=3)
        assert X.size >= 1e5
        assert abs(X.var() - 1.0) <= 0.02
        assert abs(X.mean()) <= 0.02

    def test_unknown_law_rejected(self):
        with pytest.raises(InvalidArgumentError):
            sample_covariates(linear_model(5, "cauchy"), 5, seed=0)

    @pytest.mark.parametrize("model", [
        linear_model(4), random_features_model(3, 5, Activation("tanh-rf"), seed=1),
    ], ids=["linear", "rf"])
    def test_empty_batch_rejected(self, model):
        with pytest.raises(InvalidArgumentError, match="n must be positive"):
            sample_covariates(model, 0, seed=0)


class TestSubgaussianProxy:
    @pytest.mark.parametrize(
        "family",
        ["random-features", "neural-tangent", "linear-independent"],
    )
    def test_fourth_moment_proxy(self, family):
        # Projections along feasible directions should look subgaussian:
        # empirical fourth moment <= 30 x (second moment)^2.
        from ermu.erm import ConstraintSet, project_constraint

        rng = rng_from(21, "proxy", family)
        if family == "random-features":
            model = random_features_model(16, 32, Activation("tanh-rf"), seed=1)
            cset = ConstraintSet("linf-ball", R=3.0, p=32)
        elif family == "neural-tangent":
            model = neural_tangent_model(6, 5, Activation("shifted-sine-nt"), seed=1)
            cset = ConstraintSet("nt-operator-ball", R=3.0, d=6, m=5, p=30)
        else:
            model = linear_model(32, entry_law="laplace")
            cset = ConstraintSet("linf-ball", R=3.0, p=32)
        X = draw_features(model, 10_000, seed=5)
        for _ in range(5):
            theta = project_constraint(cset, rng.standard_normal(model.p))
            proj = X @ theta
            m2 = float(np.mean(proj**2))
            m4 = float(np.mean(proj**4))
            assert m4 <= 30.0 * m2**2 + 1e-12


class TestCovariateBatch:
    def test_seed_determines_content(self):
        model = linear_model(4, entry_law="uniform")
        b1 = sample_covariates(model, 7, seed=99)
        b2 = sample_covariates(model, 7, seed=99)
        assert np.array_equal(b1, b2)


# The trials' test batches are drawn in blocks of B rows; these row counts
# put a block boundary at every position that can go wrong.
B = _TEST_BLOCK
STREAM_MODELS = {
    "rf": lambda: random_features_model(6, 9, Activation("tanh-rf"), seed=2),
    "nt": lambda: neural_tangent_model(5, 3, Activation("shifted-sine-nt"), seed=2),
    **{
        f"linear-{law}": (lambda law=law: linear_model(7, entry_law=law))
        for law in ("rademacher", "uniform", "laplace")
    },
    "control": lambda: linear_model(7, entry_law="gaussian"),
}


class TestCovariateBlocks:
    @pytest.mark.parametrize("name", list(STREAM_MODELS))
    @pytest.mark.parametrize("n", [1, B - 1, B, B + 1, 2 * B + 3])
    def test_blocks_concatenate_to_the_one_batch_draw(self, name, n):
        model = STREAM_MODELS[name]()
        blocks = list(covariate_blocks(model, n, seed=41, block=B))
        assert [b.shape[0] for b in blocks[:-1]] == [B] * (len(blocks) - 1)
        assert np.array_equal(np.concatenate(blocks), sample_covariates(model, n, seed=41))

    def test_non_positive_sizes_rejected(self):
        model = linear_model(3)
        for n, block in ((0, 4), (4, 0)):
            with pytest.raises(InvalidArgumentError):
                next(covariate_blocks(model, n, seed=1, block=block))


class TestFeaturizeInPlace:
    def test_tanh_features_are_tanh_of_the_product(self):
        model = random_features_model(6, 9, Activation("tanh-rf"), seed=2)
        Z = sample_covariates(model, 50, seed=3)
        assert np.array_equal(featurize(model, Z), np.tanh(Z @ model.W))
        assert np.array_equal(Z, sample_covariates(model, 50, seed=3))  # input untouched


PRECISION_MODELS = {
    "rf-tanh": lambda: random_features_model(6, 9, Activation("tanh-rf"), seed=2),
    "rf-custom-hermite": lambda: random_features_model(
        6, 9, Activation("custom-hermite", hermite_coeffs=(0.0, 0.6, 0.3, 0.1)), seed=2
    ),
    "nt": lambda: neural_tangent_model(5, 3, Activation("shifted-sine-nt"), seed=2),
    "nt-custom-hermite": lambda: neural_tangent_model(
        5, 3, Activation("custom-hermite", hermite_coeffs=(0.3, 0.0, 0.0, 0.5)), seed=2
    ),
    "linear": lambda: linear_model(7, entry_law="uniform", nu=2.0),
    "control": lambda: linear_model(7, entry_law="gaussian"),
}


def _featurize_reference(model, Z):
    """The float64 feature map spelled out, one formula per family and activation."""
    if model.family == "linear-independent":
        return np.sqrt(model.nu) * Z
    A = Z @ model.W
    act = model.activation
    if act.kind == "custom-hermite":
        coeffs = np.asarray(act.hermite_coeffs)
        scaled = coeffs / np.sqrt([math.factorial(k) for k in range(len(coeffs))])
    if model.family == "random-features":
        return np.tanh(A) if act.kind == "tanh-rf" else hermeval(A, scaled)
    if act.kind == "shifted-sine-nt":
        S = np.cos(A) - math.exp(-0.5)
    else:
        S = hermeval(A, scaled[1:] * np.arange(1, len(scaled)))
    return np.concatenate([Z * S[:, [j]] for j in range(model.m)], axis=1)


class TestFeaturizePrecision:
    @pytest.mark.parametrize("name", list(PRECISION_MODELS))
    def test_float32_batch_is_featurized_in_float32(self, name):
        model = PRECISION_MODELS[name]()
        Z = sample_covariates(model, 50, seed=3)
        X32 = featurize(model, Z.astype(np.float32))
        assert X32.dtype == np.float32
        X64 = featurize(model, Z)
        assert np.abs(X32 - X64).max() <= 1e-5 * np.abs(X64).max()

    @pytest.mark.parametrize("name", list(PRECISION_MODELS))
    def test_float64_batch_keeps_its_bits(self, name):
        model = PRECISION_MODELS[name]()
        Z = sample_covariates(model, 50, seed=3)
        X = featurize(model, Z)
        assert X.dtype == np.float64
        assert np.array_equal(X, _featurize_reference(model, Z))

    @pytest.mark.parametrize("kind", ["tanh-rf", "shifted-sine-nt", "custom-hermite"])
    def test_activation_keeps_float32(self, kind):
        coeffs = (0.0, 0.6, 0.3, 0.1) if kind == "custom-hermite" else None
        act = Activation(kind, hermite_coeffs=coeffs)
        t = np.linspace(-3.0, 3.0, 13)
        for fn in (act.value, act.derivative):
            assert fn(t.astype(np.float32)).dtype == np.float32
            assert fn(t).dtype == np.float64
            assert np.abs(fn(t.astype(np.float32)) - fn(t)).max() <= 1e-5 * np.abs(fn(t)).max()
