"""Constrained regularized empirical risk minimization.

A problem bundles a scalar loss, a labeling rule, a ground-truth parameter
vector, a regularizer, and a symmetric convex constraint set. Parameters are
length-p vectors, so the loss sees the scalar score theta^T x per sample.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Optional

import numpy as np

from ermu.errors import InvalidArgumentError, LinearSolveError, SolverDivergedError
from ermu.features import nt_theta_matrix
from ermu.seeds import rng_from
from ermu.solver import ErmSolution, SolverConfig, pgd_minimize

LOSS_KINDS = ("logistic", "huber", "squared", "pseudo-huber")
ETA_KINDS = ("linear", "clipped-linear", "sign-smooth")
NOISE_LAWS = ("gaussian", "rademacher")
CONSTRAINT_KINDS = ("l2-ball", "nt-operator-ball", "linf-ball")
REGULARIZER_KINDS = ("ridge", "none")


def _sigmoid(t: np.ndarray) -> np.ndarray:
    out = np.empty_like(t)
    pos = t >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-t[pos]))
    et = np.exp(t[~pos])
    out[~pos] = et / (1.0 + et)
    return out


@dataclass(frozen=True)
class Loss:
    """Scalar loss on (score, label). All kinds except squared are Lipschitz."""

    kind: str = "huber"
    delta: float = 1.0

    def __post_init__(self):
        if self.kind not in LOSS_KINDS:
            raise InvalidArgumentError(f"unknown loss kind {self.kind!r}")
        if self.kind in ("huber", "pseudo-huber") and self.delta <= 0:
            raise InvalidArgumentError("huber delta must be positive")

    def value(self, u: np.ndarray, y: np.ndarray) -> np.ndarray:
        if self.kind == "squared":
            return (u - y) ** 2
        if self.kind == "logistic":
            return np.logaddexp(0.0, -y * u)
        t = u - y
        if self.kind == "huber":
            # r (t - r/2) with r = clip(t, -delta, delta): t^2/2 inside and
            # delta (|t| - delta/2) outside, to the bit (t = -0 gives -0).
            r = np.clip(t, -self.delta, self.delta)
            t -= 0.5 * r
            t *= r
            return t
        return self.delta**2 * (np.sqrt(1.0 + (t / self.delta) ** 2) - 1.0)

    def grad(self, u: np.ndarray, y: np.ndarray) -> np.ndarray:
        """Derivative with respect to the score u."""
        if self.kind == "squared":
            return 2.0 * (u - y)
        if self.kind == "logistic":
            return -y * _sigmoid(-y * u)
        t = u - y
        if self.kind == "huber":
            return np.maximum(np.minimum(t, self.delta, out=t), -self.delta, out=t)
        return t / np.sqrt(1.0 + (t / self.delta) ** 2)


@dataclass(frozen=True)
class Labeler:
    """Label rule y = eta(v, eps) with subgaussian noise of scale tau."""

    eta_kind: str = "linear"
    tau: float = 0.0
    noise_law: str = "gaussian"
    clip_bound: float = 1.0
    smoothing: float = 0.1

    def __post_init__(self):
        if self.eta_kind not in ETA_KINDS:
            raise InvalidArgumentError(f"unknown labeler kind {self.eta_kind!r}")
        if self.noise_law not in NOISE_LAWS:
            raise InvalidArgumentError(f"unknown noise law {self.noise_law!r}")
        if self.tau < 0:
            raise InvalidArgumentError("tau must be nonnegative")
        if self.clip_bound <= 0:
            raise InvalidArgumentError("clip_bound must be positive")
        if self.eta_kind == "sign-smooth" and self.smoothing <= 0:
            raise InvalidArgumentError("sign-smooth needs a positive smoothing scale")

    def draw_noise(self, n: int, seed: int) -> np.ndarray:
        rng = rng_from(seed, "label-noise", self.noise_law)
        if self.noise_law == "gaussian":
            return rng.standard_normal(n)
        return (2.0 * rng.integers(0, 2, size=n) - 1.0).astype(np.float64)

    def label(self, v: np.ndarray, eps: np.ndarray) -> np.ndarray:
        if self.eta_kind == "linear":
            return v + self.tau * eps
        if self.eta_kind == "clipped-linear":
            return np.clip(v, -self.clip_bound, self.clip_bound) + self.tau * eps
        return np.tanh(v / self.smoothing) + self.tau * eps


@dataclass(frozen=True)
class ConstraintSet:
    """Symmetric convex constraint on a length-p parameter vector.

    * ``l2-ball``: Euclidean ball of radius R (R may be inf).
    * ``linf-ball``: coordinate bound R / sqrt(p).
    * ``nt-operator-ball``: bound R / sqrt(d) on the operator norm of the
      d x m reshaping of the vector.
    """

    kind: str = "l2-ball"
    R: float = 1.0
    p: int = 0
    d: int = 0
    m: int = 0

    def __post_init__(self):
        if self.kind not in CONSTRAINT_KINDS:
            raise InvalidArgumentError(f"unknown constraint kind {self.kind!r}")
        if self.R < 0:
            raise InvalidArgumentError("radius must be nonnegative")
        if self.kind == "linf-ball" and self.p <= 0:
            raise InvalidArgumentError("linf-ball needs the ambient dimension p")
        if self.kind == "nt-operator-ball" and (self.d <= 0 or self.m <= 0):
            raise InvalidArgumentError("nt-operator-ball needs block dimensions d, m")

    def project_column(self, theta: np.ndarray) -> np.ndarray:
        if self.kind == "l2-ball":
            if not np.isfinite(self.R):
                return theta
            norm = float(np.linalg.norm(theta))
            if norm <= self.R:
                return theta
            return theta * (self.R / norm) if norm > 0 else theta
        if self.kind == "linf-ball":
            bound = self.R / math.sqrt(self.p)
            return np.maximum(np.minimum(theta, bound), -bound)
        bound = self.R / math.sqrt(self.d)
        # ||T||_2 <= ||T||_F = ||theta||: inside that bound no SVD is needed.
        if float(np.linalg.norm(theta)) <= bound:
            return theta
        T = nt_theta_matrix(theta, self.d, self.m)
        U, s, Vt = np.linalg.svd(T, full_matrices=False)
        if s.size == 0 or s[0] <= bound:
            return theta
        T_clipped = (U * np.clip(s, None, bound)) @ Vt
        return T_clipped.T.reshape(-1)

    def diameter(self) -> float:
        """Euclidean diameter of the set, used for suboptimality bounds."""
        if self.kind == "l2-ball":
            return 2.0 * self.R
        if self.kind == "linf-ball":
            return 2.0 * self.R  # sqrt(p) * R / sqrt(p)
        return 2.0 * self.R * math.sqrt(min(self.d, self.m) / self.d)


def project_constraint(cset: ConstraintSet, theta: np.ndarray) -> np.ndarray:
    """Project a length-p vector onto the set."""
    return cset.project_column(np.asarray(theta, dtype=np.float64))


@dataclass(frozen=True)
class Regularizer:
    kind: str = "ridge"
    lam: float = 0.0

    def __post_init__(self):
        if self.kind not in REGULARIZER_KINDS:
            raise InvalidArgumentError(f"unknown regularizer kind {self.kind!r}")
        if self.lam < 0:
            raise InvalidArgumentError("lambda must be nonnegative")

    def value(self, theta: np.ndarray) -> float:
        if self.kind == "none" or self.lam == 0.0:
            return 0.0
        return self.lam * float(np.add.reduce(theta * theta))

    def grad(self, theta: np.ndarray) -> np.ndarray:
        if self.kind == "none" or self.lam == 0.0:
            return np.zeros_like(theta)
        return 2.0 * self.lam * theta

    def values(self, points: np.ndarray) -> np.ndarray:
        """``value`` of each row of the M x p array ``points``."""
        if self.kind == "none" or self.lam == 0.0:
            return np.zeros(points.shape[0])
        return self.lam * np.einsum("mp->m", points * points)


@dataclass(frozen=True)
class ErmProblem:
    """Loss + labeler + ground truth + regularizer + constraint.

    Every parameter, the teacher ``theta_star`` included, is a length-p
    vector: the score of a row x is theta^T x. ``scores`` rejects any other
    shape, which would broadcast against the labels without an error.
    """

    loss: Loss
    labeler: Labeler
    theta_star: np.ndarray  # length p
    regularizer: Regularizer
    constraint: ConstraintSet

    def __post_init__(self):
        ts = np.asarray(self.theta_star, dtype=np.float64)
        if ts.ndim != 1:
            raise InvalidArgumentError(f"theta_star must be a length-p vector, got shape {ts.shape}")
        object.__setattr__(self, "theta_star", ts)

    @property
    def p(self) -> int:
        return self.theta_star.shape[0]

    def scores(self, theta: np.ndarray, X: np.ndarray) -> np.ndarray:
        if np.ndim(theta) != 1:
            raise InvalidArgumentError(f"theta must be a length-p vector, got shape {np.shape(theta)}")
        return X @ theta

    def target_scores(self, X: np.ndarray) -> np.ndarray:
        return X @ self.theta_star


def labels_from_noise(problem: ErmProblem, X: np.ndarray, eps: np.ndarray) -> np.ndarray:
    """Labels y_i = eta(theta_star scores, eps_i) with caller-supplied noise."""
    X = np.asarray(X, dtype=np.float64)
    if X.shape[1] != problem.p:
        raise InvalidArgumentError(f"X has {X.shape[1]} columns, theta_star has {problem.p} rows")
    if len(eps) != X.shape[0]:
        raise InvalidArgumentError("noise vector length must match the batch")
    return problem.labeler.label(problem.target_scores(X), np.asarray(eps, dtype=np.float64))


def generate_labels(problem: ErmProblem, X: np.ndarray, seed: int) -> np.ndarray:
    """Labels with noise drawn deterministically from ``seed``."""
    eps = problem.labeler.draw_noise(np.asarray(X).shape[0], seed)
    return labels_from_noise(problem, X, eps)


def data_risk(problem: ErmProblem, theta: np.ndarray, X: np.ndarray, y: np.ndarray) -> float:
    """Average loss term only, without the regularizer."""
    return EmpiricalRisk(problem, X, y).value(theta)


def data_risk_grad(
    problem: ErmProblem, theta: np.ndarray, X: np.ndarray, y: np.ndarray, scores: np.ndarray
) -> np.ndarray:
    """Gradient of ``data_risk`` at theta, given its scores ``problem.scores(theta, X)``.

    The loss derivatives are computed in float64 and multiplied by X^T in
    the precision of X; a float32 product is cast to float64 before scaling.
    """
    derivs = problem.loss.grad(scores, y).astype(X.dtype, copy=False)
    return (X.T @ derivs).astype(np.float64, copy=False) * (1.0 / X.shape[0])


def train_risk(problem: ErmProblem, theta: np.ndarray, X: np.ndarray, y: np.ndarray) -> float:
    """(1/n) sum loss(theta^T x_i, y_i) + r(theta)."""
    return EmpiricalRisk(problem, X, y, regularized=True).value(theta)


def train_risk_grad(
    problem: ErmProblem, theta: np.ndarray, X: np.ndarray, y: np.ndarray
) -> np.ndarray:
    return EmpiricalRisk(problem, X, y, regularized=True).grad(theta)


def same_point(theta: np.ndarray, kept: Optional[np.ndarray]) -> bool:
    """Whether the array theta equals ``kept`` (None when nothing is kept) in shape and value."""
    return kept is not None and theta.shape == kept.shape and bool((theta == kept).all())


class EmpiricalRisk:
    """Mean loss over a fixed batch, plus the regularizer when ``regularized``.

    Keeps the scores X theta of the last point it evaluated, with a copy of
    that point. PGD takes each gradient at the point its last objective call
    evaluated, so that gradient costs one pass over X (X^T l') instead of
    two. A call at any other point, or at one changed in place since (points
    are compared by value), recomputes the scores and keeps them.

    A float32 X runs both passes in single precision: theta is rounded to
    float32 for X theta, and the loss derivatives for X^T l'. The scores
    are cast to float64, so the losses, their mean and the regularizer are
    computed in float64 as for a float64 X.
    """

    def __init__(self, problem: ErmProblem, X: np.ndarray, y: np.ndarray, regularized: bool = False):
        self.problem = problem
        self.X = X
        self.y = y
        self.regularized = regularized
        self._theta: Optional[np.ndarray] = None
        self._scores: Optional[np.ndarray] = None

    def _scores_at(self, theta: np.ndarray) -> np.ndarray:
        if not same_point(theta, self._theta):
            self._theta = np.array(theta, dtype=np.float64)
            scores = self.problem.scores(self._theta.astype(self.X.dtype, copy=False), self.X)
            self._scores = scores.astype(np.float64, copy=False)
        return self._scores

    def value(self, theta: np.ndarray) -> float:
        losses = self.problem.loss.value(self._scores_at(theta), self.y)
        value = float(np.add.reduce(losses) / losses.size)
        if self.regularized:
            value = value + self.problem.regularizer.value(np.asarray(theta))
        return value

    def grad(self, theta: np.ndarray) -> np.ndarray:
        g = data_risk_grad(self.problem, theta, self.X, self.y, self._scores_at(theta))
        if self.regularized:
            g = g + self.problem.regularizer.grad(np.asarray(theta, dtype=np.float64))
        return g


# Gradient-mapping norm at which the float32 phase of ``solve_erm`` stops.
SINGLE_TOL = 1e-6


def solve_erm(
    problem: ErmProblem,
    X: np.ndarray,
    y: np.ndarray,
    cfg: SolverConfig = SolverConfig(),
    warm_start: Optional[np.ndarray] = None,
    extra: Optional[tuple] = None,
) -> ErmSolution:
    """Projected gradient descent over the constraint set from the projected warm start.

    ``extra = (s, term)`` adds ``s * term.value(theta)`` to the train risk,
    with gradient ``s * term.grad(theta)``; the perturbed risks are solved
    this way. The solve starts from the warm start (zero by default),
    projected onto the set, and never ends above the objective there.

    It runs in two phases (mixed precision: Higham & Mary, Acta Numer.
    2022). Phase 1 runs PGD on a float32 copy of X, made once per solve
    (see ``EmpiricalRisk``), for at most half of ``cfg.max_iters``, until
    its gradient-mapping norm is at most ``max(cfg.tol, SINGLE_TOL)``.
    Phase 2 runs PGD on X in float64 to ``cfg.tol`` with the iterations
    left. It starts where phase 1 ended if the float64 objective there is
    at most the one at the projected warm start, and at the warm start
    otherwise; phase 1 diverging also sends it to the warm start. Phase 2
    alone decides the point, the objective (float64, at that point), the
    gradient-mapping norm and the flags; ``iterations`` counts both phases
    and never exceeds ``cfg.max_iters``.
    """
    X = np.asarray(X, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    if X.ndim != 2 or X.shape[0] == 0:
        raise InvalidArgumentError("empty design matrix")
    if X.shape[0] != y.shape[0]:
        raise InvalidArgumentError("X and y row counts differ")

    def closures(batch):
        train = EmpiricalRisk(problem, batch, y, regularized=True)

        def objective(theta):
            value = train.value(theta)
            if extra is not None:
                value = value + extra[0] * extra[1].value(theta)
            return value

        def gradient(theta):
            g = train.grad(theta)
            if extra is not None:
                g = g + extra[0] * extra[1].grad(theta)
            return g

        return objective, gradient

    def project(theta):
        return project_constraint(problem.constraint, theta)

    shape = (problem.p,)
    x0 = np.zeros(shape) if warm_start is None else np.asarray(warm_start, dtype=np.float64).reshape(shape)
    start = project(x0)
    objective, gradient = closures(X)
    used = 0
    if cfg.max_iters >= 2:
        single = SolverConfig(max_iters=cfg.max_iters // 2, tol=max(cfg.tol, SINGLE_TOL))
        try:
            coarse = pgd_minimize(*closures(X.astype(np.float32)), project, start, single)
        except SolverDivergedError as exc:
            used = exc.iteration
        else:
            used = coarse.iterations
            at_start = objective(start)
            # Evaluated last, so phase 2's first value reuses its kept scores.
            if objective(coarse.theta_hat) <= at_start:
                start = coarse.theta_hat
    try:
        state = pgd_minimize(objective, gradient, project, start,
                             replace(cfg, max_iters=cfg.max_iters - used))
    except SolverDivergedError as exc:
        raise SolverDivergedError(exc.args[0], used + exc.iteration) from None
    return replace(state, iterations=used + state.iterations)


def solve_ridge_closed_form(
    X: np.ndarray, y: np.ndarray, lam: float
) -> tuple[np.ndarray, float]:
    """Minimizer of (1/n) ||X theta - y||^2 + lam ||theta||^2 via normal equations."""
    X = np.asarray(X, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    n, p = X.shape
    A = X.T @ X / n + lam * np.eye(p)
    b = X.T @ y / n
    try:
        theta = np.linalg.solve(A, b)
    except np.linalg.LinAlgError:
        jitter = 1e-12 * max(1.0, float(np.trace(A)) / p)
        try:
            theta = np.linalg.solve(A + jitter * np.eye(p), b)
        except np.linalg.LinAlgError as exc:
            raise LinearSolveError(f"normal equations singular beyond jitter: {exc}") from exc
    residual = A @ theta - b
    scale = max(1.0, float(np.linalg.norm(b)))
    if np.linalg.norm(residual) > 1e-8 * scale:
        raise LinearSolveError(
            f"normal equations solved poorly (residual {np.linalg.norm(residual):.3e})"
        )
    objective = float(np.mean((X @ theta - y) ** 2) + lam * np.dot(theta, theta))
    return theta, objective


def mean_with_jackknife_se(vals: np.ndarray) -> tuple[float, float]:
    """Mean and its jackknife standard error, which for the mean is s / sqrt(n)."""
    vals = np.asarray(vals, dtype=np.float64)
    n = vals.size
    mean = float(vals.mean())
    if n < 2:
        return mean, 0.0
    centered = vals - mean
    se = math.sqrt(float(np.dot(centered, centered)) / (n * (n - 1)))
    return mean, se
