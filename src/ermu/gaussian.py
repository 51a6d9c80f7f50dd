"""Covariance-matched Gaussian twins of the feature families.

The twin replaces feature rows x by g ~ N(0, Sigma) with Sigma = E[x x^T]
conditional on the frozen weights. Sigma is obtained in one of four modes:

* ``linear-exact``: Sigma = nu I, in closed form for the linear family.
* ``hermite-exact``: for random features, entry (i, j) is the Hermite
  series sum_k c_k^2 (w_i^T w_j)^k of the mean-zero activation.
* ``monte-carlo``: (1/n_cov) Phi^T Phi over a fresh featurized batch, built
  in fixed-size chunks that may run on worker processes. Each chunk is
  featurized and its Gram matrix formed in float32, which about halves the
  time of its two matrix products; the chunk Gram matrices are summed in
  float64 in chunk-index order, so the estimate does not depend on where or
  in which order the chunks ran. Single precision moves the estimate by
  about 1e-7 relative, far below its own sampling error.
* ``empirical``: Sigma = X^T X / n of the batch X under study.

A twin is a p x r factor L, so that Sigma = L L^T, except the linear-exact
twin, which has r = 0 and an isotropic scale s = sqrt(nu): its rows are
s zeta with zeta ~ N(0, I_p). The other twins' rows are L xi with
xi ~ N(0, I_r). Hermite-exact and monte-carlo twins factor their jittered
p x p covariance by Cholesky in float64 (any L with L L^T = Sigma draws the
same law) and hold the factor rounded to float32. The empirical twin
factors nothing and adds no jitter: its factor is X^T / sqrt(n), held in
float32, so a batch is Z X / sqrt(n) with Z an n_rows x n standard normal
matrix. Every factor is applied in float32 (see ``sample_gaussian``), which
about halves the time of the product. The draw is then exact for the
covariance of the float32 factor, which differs from Sigma by about 1e-7
relative, up to the float32 rounding of the product; the twin's exact test
risk (``universality.TwinTestRisk``) is that of the float32 factor too.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, replace
import numpy as np

from ermu.errors import InvalidArgumentError
from ermu.features import FeatureModel, featurize, sample_covariates
from ermu.seeds import derive_seed, rng_from

COV_MODES = ("hermite-exact", "monte-carlo", "empirical", "linear-exact")

_COV_CHUNK = 4096
# Rows per block of the loops that work a p-wide matrix in pieces: the Hermite
# series, the symmetrization before a Cholesky factor and the batches of
# ``sample_gaussian``.
_ROW_BLOCK = 128


@dataclass(frozen=True)
class GaussianEquivalent:
    """Sampler state for the Gaussian twin: Sigma = L L^T + iso_scale^2 I.

    ``factor`` is the p x r matrix L, held in float32 whatever the
    precision it is given in: a Cholesky factor, or an empirical twin's
    X^T / sqrt(n). ``iso_scale`` is nonzero only for the linear twin, whose
    factor has r = 0.
    """

    factor: np.ndarray
    iso_scale: float = 0.0

    def __post_init__(self):
        object.__setattr__(self, "factor", np.asarray(self.factor, dtype=np.float32))
        # sample_gaussian draws s zeta only for an empty factor.
        if self.iso_scale != 0.0 and self.factor.shape[1] != 0:
            raise InvalidArgumentError("iso_scale applies to a twin with a p x 0 factor only")

    @property
    def p(self) -> int:
        return self.factor.shape[0]


def rf_covariance_hermite(W: np.ndarray, coeffs: np.ndarray, order: int) -> np.ndarray:
    """Random-features covariance from an orthonormal-Hermite expansion.

    Entry (i, j) is sum_{k=1..order} c_k^2 rho^k, rho = clip(w_i^T w_j, -1, 1),
    by Horner's rule from the last nonzero c_k^2 down, so zeros past it cost
    nothing. Valid for unit-norm columns and mean-zero activations (c_0 = 0).

    Horner's rule runs over ``_ROW_BLOCK`` rows of the upper triangle at a
    time: the block rho[start:stop, start:] is copied into a contiguous buffer
    small enough to stay in cache while every term passes over it, then
    written into sigma[start:stop, start:] and, transposed, into
    sigma[start:, start:stop]. One sweep per term over the whole p x p matrix
    would stream it from memory twice per term. numpy forms W^T W with a
    symmetric rank-k update, so rho is exactly symmetric and every entry gets
    the same operations in the same order as in a full-matrix sweep: the
    result is the same to the last bit.
    """
    W = np.asarray(W, dtype=np.float64)
    coeffs = np.asarray(coeffs, dtype=np.float64)
    if order < 1:
        raise InvalidArgumentError(f"order must be >= 1, got {order}")
    norms = np.linalg.norm(W, axis=0)
    if np.any(np.abs(norms - 1.0) > 1e-8):
        raise InvalidArgumentError("columns of W must have unit norm")
    if len(coeffs) > 0 and abs(coeffs[0]) > 1e-10:
        raise InvalidArgumentError("activation must be mean-zero (c_0 = 0)")
    squares = coeffs[1 : order + 1] ** 2
    nonzero = np.flatnonzero(squares)
    rho = np.clip(W.T @ W, -1.0, 1.0)
    sigma = np.zeros_like(rho)
    if nonzero.size == 0:
        return sigma
    terms = squares[nonzero[-1] :: -1]  # c_K^2, ..., c_1^2
    for start in range(0, rho.shape[0], _ROW_BLOCK):
        rows = slice(start, start + _ROW_BLOCK)
        block = rho[rows, start:].copy()
        acc = block * terms[0]
        for a in terms[1:]:
            acc += a
            acc *= block
        sigma[rows, start:] = acc
        sigma[start:, rows] = acc.T
    return sigma


def _chunk_gram(task) -> np.ndarray:
    """float32 Phi^T Phi of one covariance chunk; ``task`` is (model, rows, seed).

    The covariates are drawn in float64 and cast to float32, so a chunk
    reads the same stream whatever precision it is computed in.
    """
    model, rows, seed = task
    Phi = featurize(model, sample_covariates(model, rows, seed).astype(np.float32))
    return Phi.T @ Phi


def mc_covariance(
    model: FeatureModel, n_cov: int, seed: int, chunk: int = _COV_CHUNK, mapper=map
) -> np.ndarray:
    """(1/n_cov) Phi^T Phi over a fresh featurized batch, accumulated in chunks.

    Chunk ``i`` has ``chunk`` rows (the last one fewer) drawn from the derived
    seed (seed, "cov-chunk", i). ``mapper(fn, tasks)`` computes the chunk
    Gram matrices, for example on a worker pool, and must yield them in task
    order; the builtin ``map`` computes them here, one at a time.

    Each chunk is featurized and its Gram matrix formed in float32, against
    one float32 copy of the weights that every task carries, so a task
    pickles half the bytes of the float64 model and sends back half the
    bytes of a float64 Gram matrix. A chunk's two products, Z W and
    Phi^T Phi, run at the BLAS's double-precision peak; in single precision
    each vector instruction does twice the multiply-adds, which about
    halves their time. It moves the estimate by about 1e-7 relative, far
    below the estimate's own sampling error.

    Each Gram matrix is added to a float64 sum as it arrives, in ascending
    chunk index, and then dropped. Float addition is not associative, so
    that fixed order is what makes the result bit-stable for a given
    (model, n_cov, seed, chunk) whatever the mapper.
    """
    if n_cov < 1:
        raise InvalidArgumentError(f"n_cov must be positive, got {n_cov}")
    if n_cov < model.p:
        warnings.warn(
            f"covariance estimate from n_cov={n_cov} < p={model.p} samples is rank-deficient",
            stacklevel=2,
        )
    if model.W is not None:
        model = replace(model, W=model.W.astype(np.float32))
    tasks = [
        (model, min(chunk, n_cov - start), derive_seed(seed, "cov-chunk", index))
        for index, start in enumerate(range(0, n_cov, chunk))
    ]
    acc = np.zeros((model.p, model.p))
    for gram in mapper(_chunk_gram, tasks):
        acc += gram
    return acc / n_cov


def factor_covariance(cov: np.ndarray, jitter_rel: float = 0.0) -> np.ndarray:
    """Lower-triangular Cholesky L, L L^T = cov + jitter_rel * (trace / p) * I.

    A matrix that is not positive definite (singular, or indefinite at rounding
    level) is factored as U diag(sqrt(clip(lambda, 0))) from its eigenpairs.

    The symmetry check and the symmetrization 0.5 (cov + cov^T) run over
    ``_ROW_BLOCK`` rows at a time into one p x p output, so besides it and
    the finiteness mask only block-sized temporaries are made.
    """
    cov = np.asarray(cov, dtype=np.float64)
    if cov.ndim != 2 or cov.shape[0] != cov.shape[1]:
        raise InvalidArgumentError(f"covariance must be square, got {cov.shape}")
    if not np.isfinite(cov).all():
        raise InvalidArgumentError("covariance has non-finite entries")
    scale = max(1.0, float(cov.max()), -float(cov.min()))
    sym = np.empty_like(cov)
    for start in range(0, cov.shape[0], _ROW_BLOCK):
        rows = slice(start, start + _ROW_BLOCK)
        out = sym[rows]
        np.subtract(cov[rows], cov[:, rows].T, out=out)
        if np.abs(out, out=out).max() > 1e-10 * scale:
            raise InvalidArgumentError("covariance is not symmetric within 1e-10 relative")
        np.add(cov[rows], cov[:, rows].T, out=out)
        out *= 0.5
    if jitter_rel > 0.0:
        sym.flat[:: sym.shape[0] + 1] += jitter_rel * np.trace(sym) / sym.shape[0]
    try:
        return np.linalg.cholesky(sym)
    except np.linalg.LinAlgError:
        eigvals, eigvecs = np.linalg.eigh(sym)
        return eigvecs * np.sqrt(np.clip(eigvals, 0.0, None))


def sample_gaussian(equiv: GaussianEquivalent, n: int, seed: int) -> np.ndarray:
    """n x p float64 batch with rows L xi, xi ~ N(0, I_r), or s zeta when r = 0.

    A twin with r = 0 (the linear family's) is drawn as s zeta directly;
    every other twin has s = 0 and draws exactly n x r normals.

    Every factor is float32 (see ``GaussianEquivalent``). The xi are drawn
    from the float64 stream and cast to float32, multiplied by the factor
    in single precision, and the float32 product is written into the
    float64 batch. Single precision about halves the time of the product,
    and it rounds each entry of the batch to about 1e-7 relative of its
    row's scale.

    A factor with more columns than rows (an empirical twin of a batch with
    more rows than features) would need an n x r normal matrix larger than
    the batch, so its xi rows are drawn ``_ROW_BLOCK`` at a time, in the
    order of a single draw, so the blocks change no number drawn.

    A factor with r <= p (a Cholesky factor, or the factor of a batch with
    no more rows than features) is applied in one n x r by r x p product,
    so its n x r normals and the batch are held together while it runs.
    Splitting that product into row blocks would not change the numbers
    drawn, but it does change the rounding of the result: the BLAS picks
    another kernel for a product with few rows.
    """
    if n < 1:
        raise InvalidArgumentError(f"n must be positive, got {n}")
    rng = rng_from(seed, "gaussian-rows")
    p, r = equiv.factor.shape
    if r == 0:
        G = rng.standard_normal((n, p))
        G *= equiv.iso_scale
        return G
    if r <= p:
        xi = rng.standard_normal((n, r)).astype(np.float32)
        return np.matmul(xi, equiv.factor.T, out=np.empty((n, p)))
    G = np.empty((n, p))
    for start in range(0, n, _ROW_BLOCK):
        block = G[start : start + _ROW_BLOCK]
        xi = rng.standard_normal((block.shape[0], r)).astype(np.float32)
        np.matmul(xi, equiv.factor.T, out=block)
        del xi  # before the next block's float64 normals are drawn
    return G


def linear_exact_equivalent(model: FeatureModel) -> GaussianEquivalent:
    """Closed-form twin of the linear family: N(0, nu I), an empty factor and s = sqrt(nu)."""
    if model.family != "linear-independent":
        raise InvalidArgumentError("linear-exact mode applies to the linear family only")
    return GaussianEquivalent(factor=np.zeros((model.p, 0)), iso_scale=math.sqrt(model.nu))


def hermite_exact_equivalent(
    model: FeatureModel, order: int, jitter_rel: float = 1e-10
) -> GaussianEquivalent:
    if model.family != "random-features":
        raise InvalidArgumentError("hermite-exact mode applies to random features only")
    coeffs = model.activation.coefficients(order)
    cov = rf_covariance_hermite(model.W, coeffs, order)
    return GaussianEquivalent(factor=factor_covariance(cov, jitter_rel))


def monte_carlo_equivalent(
    model: FeatureModel, n_cov: int, seed: int, jitter_rel: float = 1e-10, mapper=map
) -> GaussianEquivalent:
    """Twin from ``mc_covariance``; ``mapper`` computes its chunks (see there)."""
    cov = mc_covariance(model, n_cov, seed, mapper=mapper)
    return GaussianEquivalent(factor=factor_covariance(cov, jitter_rel))


def empirical_equivalent(X: np.ndarray) -> GaussianEquivalent:
    """Twin of the batch X: Sigma = F F^T with the float32 factor F = X^T / sqrt(n).

    X is cast to float32 once and scaled in place, so no p x p matrix is
    formed or factored and the twin holds half the bytes of X. The scaled
    n x p copy is C-contiguous, so ``factor.T`` is too. F F^T differs from
    X^T X / n by the float32 rounding of F, about 1e-7 relative. The twin
    adds no isotropic term: X^T X / n is a covariance as it is, of full
    rank when n >= p and the rows of X span R^p.
    """
    scaled = np.array(X, dtype=np.float32, order="C")
    scaled /= np.float32(math.sqrt(scaled.shape[0]))
    return GaussianEquivalent(factor=scaled.T)
