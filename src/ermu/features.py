"""Feature families and their featurization maps.

Three families are supported:

* ``random-features``: x = sigma(W^T z) with z ~ N(0, I_d) and the columns
  of W frozen on the unit sphere. The activation is mean-zero under N(0,1).
* ``neural-tangent``: x = (z sigma'(w_1^T z), ..., z sigma'(w_m^T z)),
  the first-order feature map of a two-layer network at initialization,
  flattened as m blocks of length d (p = m d). The activation derivative
  satisfies E[sigma'(G)] = 0 and E[G sigma'(G)] = 0.
* ``linear-independent``: x = sqrt(nu) xbar with xbar having i.i.d.
  zero-mean unit-variance subgaussian entries, so E[x x^T] = nu I.

Weight matrices are sampled once per configuration and reused across
trials; all sampling takes explicit seeds. ``featurize`` and the activations
keep a float32 batch in float32 (the Monte Carlo twin covariance builds its
chunks that way) and compute anything else in float64.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Iterator, Optional

import numpy as np
from numpy.polynomial.hermite_e import hermeval

from ermu.errors import InvalidArgumentError
from ermu.quadrature import gaussian_expectation, hermite_coefficients
from ermu.seeds import rng_from

_INV_SQRT_E = math.exp(-0.5)

ENTRY_LAWS = ("rademacher", "uniform", "laplace", "gaussian")
ACTIVATION_KINDS = ("tanh-rf", "shifted-sine-nt", "custom-hermite")
# Nodes of the Gauss-Hermite rule behind ``Activation.coefficients``. It
# integrates polynomials of degree up to 2 * COEFFICIENT_NODES - 1 exactly,
# so he_j he_k stays orthonormal under it only for j, k < COEFFICIENT_NODES.
COEFFICIENT_NODES = 200


def _as_float(a) -> np.ndarray:
    """``a`` as an array: float32 if it is float32 already, float64 otherwise."""
    a = np.asarray(a)
    return a if a.dtype == np.float32 else a.astype(np.float64, copy=False)


@dataclass(frozen=True)
class Activation:
    """Scalar activation with closed-form derivative.

    ``custom-hermite`` evaluates a finite expansion sum_k c_k he_k(t) in the
    orthonormal (unit-variance) Hermite basis, which gives the covariance
    oracle a closed form.
    """

    kind: str = "tanh-rf"
    hermite_coeffs: Optional[tuple[float, ...]] = None

    def __post_init__(self):
        if self.kind not in ACTIVATION_KINDS:
            raise InvalidArgumentError(f"unknown activation kind {self.kind!r}")
        if self.kind == "custom-hermite":
            if not self.hermite_coeffs:
                raise InvalidArgumentError("custom-hermite requires hermite_coeffs")
            object.__setattr__(self, "hermite_coeffs", tuple(float(c) for c in self.hermite_coeffs))

    def value(self, t: np.ndarray) -> np.ndarray:
        t = _as_float(t)
        if self.kind == "tanh-rf":
            return np.tanh(t)
        if self.kind == "shifted-sine-nt":
            return np.sin(t) - _INV_SQRT_E * t
        return self._hermite_eval(t, derivative=False)

    def derivative(self, t: np.ndarray) -> np.ndarray:
        t = _as_float(t)
        if self.kind == "tanh-rf":
            return 1.0 - np.tanh(t) ** 2
        if self.kind == "shifted-sine-nt":
            return np.cos(t) - _INV_SQRT_E
        return self._hermite_eval(t, derivative=True)

    def _hermite_eval(self, t: np.ndarray, derivative: bool) -> np.ndarray:
        coeffs = np.asarray(self.hermite_coeffs, dtype=np.float64)
        # he_k = He_k / sqrt(k!), and He_k' = k He_{k-1}, so he_k' = sqrt(k) he_{k-1}
        scaled = coeffs / np.sqrt([math.factorial(k) for k in range(len(coeffs))])
        if derivative:
            if len(scaled) == 1:
                return np.zeros_like(t)
            scaled = scaled[1:] * np.arange(1, len(scaled))
        # In t's precision: float64 coefficients would promote a float32 t.
        return hermeval(t, scaled.astype(t.dtype, copy=False))

    def coefficients(self, order: int) -> np.ndarray:
        """Orthonormal-Hermite coefficients of the activation up to ``order``."""
        if self.kind == "custom-hermite":
            stored = np.asarray(self.hermite_coeffs, dtype=np.float64)
            out = np.zeros(order + 1)
            upto = min(order + 1, len(stored))
            out[:upto] = stored[:upto]
            return out
        return hermite_coefficients(self.value, order, n_nodes=COEFFICIENT_NODES)

    def moment_checks(self, n_nodes: int = 100) -> dict[str, float]:
        """Quadrature values of the moment conditions each family relies on."""
        out = {"mean_sigma": gaussian_expectation(self.value, n_nodes)}
        out["mean_sigma_prime"] = gaussian_expectation(self.derivative, n_nodes)
        out["mean_g_sigma_prime"] = gaussian_expectation(
            lambda x: x * self.derivative(x), n_nodes
        )
        return out


@dataclass(frozen=True)
class FeatureModel:
    """Frozen description of one feature family.

    For ``random-features`` W is d x p; for ``neural-tangent`` W is d x m and
    p = m d; for ``linear-independent`` only p, ``nu`` and the entry law
    matter.
    """

    family: str
    d: int
    p: int
    m: int = 0
    W: Optional[np.ndarray] = None
    activation: Optional[Activation] = None
    nu: float = 1.0
    entry_law: str = "rademacher"

    def __post_init__(self):
        if self.family == "random-features":
            if self.W is None or self.W.shape != (self.d, self.p):
                raise InvalidArgumentError("random-features requires W of shape (d, p)")
            if self.activation is None:
                raise InvalidArgumentError("random-features requires an activation")
        elif self.family == "neural-tangent":
            if self.m <= 0 or self.p != self.m * self.d:
                raise InvalidArgumentError("neural-tangent requires p = m * d")
            if self.W is None or self.W.shape != (self.d, self.m):
                raise InvalidArgumentError("neural-tangent requires W of shape (d, m)")
            if self.activation is None:
                raise InvalidArgumentError("neural-tangent requires an activation")
        elif self.family == "linear-independent":
            if self.entry_law not in ENTRY_LAWS:
                raise InvalidArgumentError(f"unknown entry law {self.entry_law!r}")
        else:
            raise InvalidArgumentError(f"unknown family {self.family!r}")

    @property
    def covariate_dim(self) -> int:
        """Number of columns expected in a covariate batch."""
        return self.p if self.family == "linear-independent" else self.d


def sample_sphere_weights(d: int, count: int, seed: int) -> np.ndarray:
    """d x count matrix whose columns are uniform on the unit sphere in R^d."""
    if d < 1 or count < 1:
        raise InvalidArgumentError(f"dimensions must be positive, got d={d}, count={count}")
    rng = rng_from(seed, "sphere")
    W = rng.standard_normal((d, count))
    norms = np.linalg.norm(W, axis=0)
    # A zero draw has probability zero; guard against it anyway.
    while np.any(norms < 1e-12):
        bad = norms < 1e-12
        W[:, bad] = rng.standard_normal((d, int(bad.sum())))
        norms = np.linalg.norm(W, axis=0)
    return W / norms


def sample_covariates(model: FeatureModel, n: int, seed: int) -> np.ndarray:
    """Draw the raw covariate batch the family consumes (z or xbar rows)."""
    if n < 1:
        raise InvalidArgumentError(f"n must be positive, got n={n}")
    return _covariate_stream(model, seed)(n)


def covariate_blocks(model: FeatureModel, n: int, seed: int, block: int) -> Iterator[np.ndarray]:
    """``sample_covariates(model, n, seed)`` as consecutive blocks of ``block`` rows.

    The blocks are drawn one after another from the stream the one-batch
    draw reads, so they concatenate to exactly that batch; the last block
    has the remaining rows.
    """
    if n < 1 or block < 1:
        raise InvalidArgumentError(f"n and block must be positive, got n={n}, block={block}")
    draw = _covariate_stream(model, seed)
    for start in range(0, n, block):
        yield draw(min(block, n - start))


def _covariate_stream(model: FeatureModel, seed: int) -> Callable[[int], np.ndarray]:
    """``draw(rows)``: the next ``rows`` covariate rows of the stream ``seed`` names."""
    if model.family == "linear-independent":
        rng = rng_from(seed, "entries", model.entry_law)
        return lambda rows: _entries(rng, model.entry_law, (rows, model.p))
    rng = rng_from(seed, "covariates")
    return lambda rows: rng.standard_normal((rows, model.d))


def _entries(rng: np.random.Generator, entry_law: str, shape: tuple[int, int]) -> np.ndarray:
    if entry_law == "rademacher":
        return (2.0 * rng.integers(0, 2, size=shape) - 1.0).astype(np.float64, copy=False)
    if entry_law == "uniform":
        half_width = math.sqrt(3.0)
        return rng.uniform(-half_width, half_width, size=shape)
    if entry_law == "laplace":
        return rng.laplace(0.0, 1.0 / math.sqrt(2.0), size=shape)
    if entry_law == "gaussian":
        return rng.standard_normal(shape)
    raise InvalidArgumentError(f"unknown entry law {entry_law!r}")


def featurize(model: FeatureModel, Z: np.ndarray) -> np.ndarray:
    """Map covariate rows through the family's featurization, one row per sample.

    A float32 batch is featurized in float32, with the weights cast to
    float32 unless they are already; this is how ``gaussian.mc_covariance``
    runs its chunks at single-precision BLAS speed. Any other batch is
    computed in float64.
    """
    Z = _as_float(Z)
    if Z.ndim != 2 or Z.shape[1] != model.covariate_dim:
        raise InvalidArgumentError(
            f"covariates have {Z.shape[1] if Z.ndim == 2 else '?'} columns, "
            f"model expects {model.covariate_dim}"
        )
    W = None if model.W is None else model.W.astype(Z.dtype, copy=False)
    if model.family == "random-features":
        A = Z @ W
        if model.activation.kind == "tanh-rf":  # in place: no second n x p array
            return np.tanh(A, out=A)
        return model.activation.value(A)
    if model.family == "neural-tangent":
        # Block j of each row is z * sigma'(w_j^T z); reshape(m, d).T recovers
        # the d x m T-matrix layout used by the operator-norm projection.
        S = model.activation.derivative(Z @ W)  # n x m
        n = Z.shape[0]
        return (S[:, :, None] * Z[:, None, :]).reshape(n, model.p)
    return math.sqrt(model.nu) * Z


def draw_features(model: FeatureModel, n: int, seed: int) -> np.ndarray:
    """Fresh featurized batch: sample covariates, then featurize."""
    return featurize(model, sample_covariates(model, n, seed))


def nt_theta_matrix(theta: np.ndarray, d: int, m: int) -> np.ndarray:
    """Reshape a length-(m d) parameter vector to its d x m block matrix."""
    theta = np.asarray(theta, dtype=np.float64)
    if theta.size != m * d:
        raise InvalidArgumentError(f"expected length {m * d}, got {theta.size}")
    return theta.reshape(m, d).T


def random_features_model(d: int, p: int, activation: Activation, seed: int) -> FeatureModel:
    return FeatureModel(
        family="random-features",
        d=d,
        p=p,
        W=sample_sphere_weights(d, p, seed),
        activation=activation,
    )


def neural_tangent_model(d: int, m: int, activation: Activation, seed: int) -> FeatureModel:
    return FeatureModel(
        family="neural-tangent",
        d=d,
        p=m * d,
        m=m,
        W=sample_sphere_weights(d, m, seed),
        activation=activation,
    )


def linear_model(p: int, entry_law: str = "rademacher", nu: float = 1.0) -> FeatureModel:
    return FeatureModel(family="linear-independent", d=p, p=p, nu=nu, entry_law=entry_law)
