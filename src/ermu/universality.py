"""Matched Monte Carlo trials for a feature family and its Gaussian twin.

A trial draws one featurized batch X and one Gaussian batch G with matched
covariance, reuses the same label-noise vector for both arms, solves the
constrained ERM on each, and records optimal train risks plus two test
risks at each solution: a Monte Carlo estimate on a fresh featurized batch,
and the twin's exact test risk (``TwinTestRisk``). Campaign-level statistics
(bootstrap CIs of the train gap, bounded-Lipschitz gaps, KS distances)
operationalize the claim that the two arms agree asymptotically.
"""

from __future__ import annotations

import math
import multiprocessing
import os
import warnings
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field, fields, replace
from typing import Callable, Iterator, Optional, Sequence

import numpy as np

from ermu.erm import (
    CONSTRAINT_KINDS,
    ETA_KINDS,
    LOSS_KINDS,
    NOISE_LAWS,
    REGULARIZER_KINDS,
    ConstraintSet,
    EmpiricalRisk,
    ErmProblem,
    ErmSolution,
    Labeler,
    Loss,
    Regularizer,
    data_risk_grad,  # rebound by perfbench/spans.py
    labels_from_noise,
    project_constraint,
    same_point,
    solve_erm,
    mean_with_jackknife_se,
)
from ermu.errors import InvalidArgumentError, SolverDivergedError, check, check_one_of
from ermu.features import (
    ACTIVATION_KINDS,
    COEFFICIENT_NODES,
    ENTRY_LAWS,
    Activation,
    FeatureModel,
    covariate_blocks,
    draw_features,
    featurize,
    linear_model,
    neural_tangent_model,
    random_features_model,
)
from ermu.free_energy import (
    entropy_sandwich_check,
    free_energy_path,
    random_net,
    solution_cloud,
)
from ermu.gaussian import (
    COV_MODES,
    GaussianEquivalent,
    empirical_equivalent,
    hermite_exact_equivalent,
    linear_exact_equivalent,
    monte_carlo_equivalent,
    sample_gaussian,
)
from ermu.quadrature import normal_panel_nodes
from ermu.seeds import derive_seed, rng_from
from ermu.solver import SolverConfig, pgd_minimize

FAMILY_KINDS = ("random-features", "neural-tangent", "linear-independent", "control-gaussian")

# The family keys that only some families read, each with the kinds and cov
# modes that read it; every family reads the keys not listed here, except
# hermite_coeffs, which only a custom-hermite activation reads (checked apart).
_READ_BY = {
    "activation": ("random-features", "neural-tangent"),
    "entry_law": ("linear-independent",),
    "nu": ("linear-independent",),
    "gamma_d_over_p": ("random-features",),
    "gamma_tilde": ("neural-tangent",),
    "sizes": ("neural-tangent",),
    "hermite_order": ("hermite-exact",),
    "cov_samples_per_dim": ("monte-carlo",),
    "jitter_rel": ("hermite-exact", "monte-carlo"),
}


@dataclass(frozen=True)
class FamilySpec:
    """Config-level description of one feature family in a campaign."""

    id: str
    kind: str
    activation: str = ""
    hermite_coeffs: tuple[float, ...] = ()
    entry_law: str = "rademacher"
    nu: float = 1.0
    gamma_p: float = 0.75
    gamma_d_over_p: float = 0.5
    gamma_tilde: float = 1.0
    radius: float = 3.0
    constraint: str = ""
    cov_mode: str = ""
    hermite_order: int = 41
    cov_samples_per_dim: int = 50
    jitter_rel: float = 1e-10
    theta_star_scale: float = 1.0
    sizes: tuple[dict, ...] = ()

    def __post_init__(self):
        check_one_of("kind", self.kind, FAMILY_KINDS)
        defaults = {
            "random-features": ("tanh-rf", "linf-ball", "monte-carlo"),
            "neural-tangent": ("shifted-sine-nt", "nt-operator-ball", "monte-carlo"),
            "linear-independent": ("", "linf-ball", "linear-exact"),
            "control-gaussian": ("", "linf-ball", "linear-exact"),
        }[self.kind]
        if not self.activation:
            object.__setattr__(self, "activation", defaults[0])
        if not self.constraint:
            object.__setattr__(self, "constraint", defaults[1])
        if not self.cov_mode:
            object.__setattr__(self, "cov_mode", defaults[2])
        if self.activation:  # linear kinds have none
            check_one_of("activation", self.activation, ACTIVATION_KINDS)
        check_one_of("entry_law", self.entry_law, ENTRY_LAWS)
        check_one_of("constraint", self.constraint, CONSTRAINT_KINDS)
        check_one_of("cov_mode", self.cov_mode, COV_MODES)
        for key, value, kinds in (
            ("cov_mode", "linear-exact", ("linear-independent", "control-gaussian")),
            ("cov_mode", "hermite-exact", ("random-features",)),
            ("constraint", "nt-operator-ball", ("neural-tangent",)),
        ):
            check(
                getattr(self, key) != value or self.kind in kinds,
                f"{key} {value!r} applies to kind {' or '.join(kinds)} only; got {self.kind!r}",
            )
        self.build_activation()  # custom-hermite needs coefficients
        check(
            not self.hermite_coeffs or self.activation == "custom-hermite",
            f"hermite_coeffs applies to activation 'custom-hermite' only; got {self.activation!r}",
        )
        coeffs = self.hermite_coeffs + (0.0,) * 3  # c_k past the list are 0
        # A random-features twin is zero-mean, so its features must be too.
        check(
            self.kind != "random-features" or abs(coeffs[0]) <= 1e-10,
            "hermite_coeffs[0] must be 0 for random features (a mean-zero activation)",
        )
        # Neural tangents need E[sigma'(G)] = c_1 = 0 and E[G sigma'(G)] = sqrt(2) c_2 = 0;
        # a nonzero c_2 also gives each feature block a mean no twin matches.
        check(
            self.kind != "neural-tangent" or max(abs(coeffs[1]), abs(coeffs[2])) <= 1e-10,
            "hermite_coeffs[1] and hermite_coeffs[2] must be 0 for neural tangents "
            "(E[sigma'(G)] = E[G sigma'(G)] = 0)",
        )
        for key in ("nu", "gamma_p", "gamma_d_over_p", "gamma_tilde", "radius"):
            check(getattr(self, key) > 0, f"{key} must be positive")
        for key in ("hermite_order", "cov_samples_per_dim"):
            check(getattr(self, key) >= 1, f"{key} must be >= 1")
        check(
            self.hermite_order < COEFFICIENT_NODES,
            f"hermite_order must be <= {COEFFICIENT_NODES - 1}: the activation's coefficients "
            f"come from a {COEFFICIENT_NODES}-node Gauss-Hermite rule, exact to that order only",
        )
        # The twin's series stops at hermite_order; the features carry every term.
        last = max((k for k, c in enumerate(self.hermite_coeffs) if c != 0.0), default=0)
        check(
            self.cov_mode != "hermite-exact" or self.hermite_order >= last,
            f"hermite_order must be >= {last}, the index of the last nonzero hermite_coeffs "
            "entry, or the hermite-exact twin misses terms of the features' covariance",
        )
        check(self.jitter_rel >= 0, "jitter_rel must be >= 0")
        # theta* is drawn from a sign-symmetric law, so a negative scale would
        # draw the law of its absolute value under a second config hash.
        # Zero is a pure-noise teacher, which TwinTestRisk handles.
        check(self.theta_star_scale >= 0, "theta_star_scale must be >= 0")
        # A key the family never reads must keep its default, so that one
        # experiment has one config hash.
        for f in fields(self):
            readers = _READ_BY.get(f.name, FAMILY_KINDS)
            check(
                self.kind in readers or self.cov_mode in readers
                or getattr(self, f.name) == f.default,
                f"{f.name} applies to {' or '.join(readers)} only; "
                f"got kind {self.kind!r} with cov_mode {self.cov_mode!r}",
            )
        # A sizes entry names a neural-tangent cell by its d and may set its n.
        for size in self.sizes:
            check(
                set(size) <= {"n", "d"} and all(type(v) is int and v > 0 for v in size.values()),
                "sizes entries must be objects with keys n and/or d and positive integer values",
            )
            check("d" in size, "neural-tangent sizes need d")
        named = [size["d"] for size in self.sizes]
        check(len(set(named)) == len(named), "sizes entries must name distinct d values")
        # gamma_p sets the n of a cell whose sizes entry does not; when every
        # entry sets n, no cell reads it.
        check(
            not self.sizes or any("n" not in size for size in self.sizes)
            or self.gamma_p == FamilySpec.gamma_p,
            "gamma_p applies to a neural-tangent cell whose sizes entry sets no n; "
            "every sizes entry here sets n",
        )

    def build_activation(self) -> Optional[Activation]:
        if self.kind in ("linear-independent", "control-gaussian"):
            return None
        if self.activation == "custom-hermite":
            return Activation(kind="custom-hermite", hermite_coeffs=self.hermite_coeffs)
        return Activation(kind=self.activation)

    def bases(self, ladder: Sequence[int]) -> tuple[int, ...]:
        """The ladder entries of the family's cells: its ``sizes`` d values, if it sets any."""
        return tuple(size["d"] for size in self.sizes) or tuple(ladder)

    def resolve_size(self, base: int) -> dict:
        """Resolve (n, p, d, m) from a ladder entry.

        RF and linear ladders are in n; the neural-tangent ladder is in d
        (m = round(gamma_tilde d), p = m d, n = round(p / gamma_p)), and a
        ``sizes`` entry naming that d may set n instead.
        """
        if self.kind != "neural-tangent":
            n = int(base)
            p = max(1, round(self.gamma_p * n))
            d = max(2, round(self.gamma_d_over_p * p)) if self.kind == "random-features" else p
            return {"n": n, "p": p, "d": d, "m": 0}
        d = int(base)
        m = max(1, round(self.gamma_tilde * d))
        p = m * d
        n = next((s["n"] for s in self.sizes if s["d"] == d and "n" in s), round(p / self.gamma_p))
        return {"n": max(1, n), "p": p, "d": d, "m": m}


@dataclass(frozen=True)
class ProblemSpec:
    loss: str = "huber"
    loss_delta: float = 1.0
    labeler: str = "linear"
    tau: float = 0.5
    noise_law: str = "gaussian"
    clip_bound: float = 1.0
    smoothing: float = 0.1
    regularizer: str = "ridge"
    lam: float = 0.1

    def __post_init__(self):
        check_one_of("loss", self.loss, LOSS_KINDS)
        check_one_of("labeler", self.labeler, ETA_KINDS)
        check_one_of("noise_law", self.noise_law, NOISE_LAWS)
        check_one_of("regularizer", self.regularizer, REGULARIZER_KINDS)
        self.parts()  # their own range checks: loss_delta, tau, smoothing, lambda

    def parts(self) -> tuple[Loss, Labeler, Regularizer]:
        """The loss, labeler and regularizer this spec names."""
        return (
            Loss(kind=self.loss, delta=self.loss_delta),
            Labeler(
                eta_kind=self.labeler,
                tau=self.tau,
                noise_law=self.noise_law,
                clip_bound=self.clip_bound,
                smoothing=self.smoothing,
            ),
            Regularizer(kind=self.regularizer, lam=self.lam),
        )


@dataclass(frozen=True)
class FamilyInstance:
    """One (family, size) cell: frozen weights, twin sampler, problem."""

    spec: FamilySpec
    n: int
    p: int
    d: int
    m: int
    model: FeatureModel
    equiv: Optional[GaussianEquivalent]  # None means per-trial empirical
    problem: ErmProblem

    def twin(self, X: np.ndarray) -> GaussianEquivalent:
        """The cell's Gaussian twin; an empirical cell builds it from the batch ``X``."""
        if self.equiv is not None:
            return self.equiv
        return empirical_equivalent(X)


def _theta_star(cset: ConstraintSet, p: int, scale: float, seed: int) -> np.ndarray:
    rng = rng_from(seed, "theta-star")
    if cset.kind == "linf-ball":
        signs = 2.0 * rng.integers(0, 2, size=p) - 1.0
        theta = signs * (scale / math.sqrt(p))
    elif cset.kind == "nt-operator-ball":
        T = rng.standard_normal((cset.d, cset.m))
        top = float(np.linalg.svd(T, compute_uv=False)[0])
        T *= (scale / math.sqrt(cset.d)) / top
        theta = T.T.reshape(-1)
    else:
        direction = rng.standard_normal(p)
        theta = direction * (scale / float(np.linalg.norm(direction)))
    return project_constraint(cset, theta)


def build_instance(
    spec: FamilySpec,
    problem_spec: ProblemSpec,
    base_size: int,
    master_seed: int,
    mapper: Callable = map,
) -> FamilyInstance:
    """One (family, size) cell; ``mapper`` computes a monte-carlo twin's covariance chunks."""
    if problem_spec.loss == "squared":
        warnings.warn(
            "squared loss is not globally Lipschitz; admitted for the ridge baseline only",
            stacklevel=2,
        )
    dims = spec.resolve_size(base_size)
    n, p, d, m = dims["n"], dims["p"], dims["d"], dims["m"]
    w_seed = derive_seed(master_seed, spec.id, n, "weights")
    activation = spec.build_activation()
    if spec.kind == "random-features":
        model = random_features_model(d, p, activation, w_seed)
    elif spec.kind == "neural-tangent":
        model = neural_tangent_model(d, m, activation, w_seed)
    elif spec.kind == "linear-independent":
        model = linear_model(p, entry_law=spec.entry_law, nu=spec.nu)
    else:  # control: both arms standard Gaussian, independently sampled
        model = linear_model(p, entry_law="gaussian", nu=1.0)

    if spec.cov_mode == "linear-exact":
        equiv = linear_exact_equivalent(model)
    elif spec.cov_mode == "hermite-exact":
        equiv = hermite_exact_equivalent(model, spec.hermite_order, spec.jitter_rel)
    elif spec.cov_mode == "monte-carlo":
        n_cov = max(p, spec.cov_samples_per_dim * p)
        equiv = monte_carlo_equivalent(
            model,
            n_cov,
            derive_seed(master_seed, spec.id, n, "covariance"),
            spec.jitter_rel,
            mapper=mapper,
        )
    else:  # empirical: built per trial from the batch
        equiv = None

    cset = ConstraintSet(kind=spec.constraint, R=spec.radius, p=p, d=d, m=max(m, 1))
    theta_star = _theta_star(
        cset, p, spec.theta_star_scale, derive_seed(master_seed, spec.id, n, "theta-star")
    )
    loss, labeler, regularizer = problem_spec.parts()
    problem = ErmProblem(
        loss=loss,
        labeler=labeler,
        theta_star=theta_star,
        regularizer=regularizer,
        constraint=cset,
    )
    return FamilyInstance(
        spec=spec, n=n, p=p, d=d, m=m, model=model, equiv=equiv, problem=problem
    )


# The twin test-risk integral takes each score axis over [-_TWIN_RISK_RANGE,
# _TWIN_RISK_RANGE] in TWIN_RISK_PANELS equal panels of 8 Gauss-Legendre
# nodes, and a Gaussian noise axis in a quarter as many panels. The node
# convergence test in tests/test_universality.py states the error this leaves.
TWIN_RISK_PANELS = 16
_TWIN_RISK_RANGE = 9.0
# z1 panel edges of a sign-smooth eta, in units of its smoothing scale: tanh
# turns within a few smoothing widths of 0, and uniform panels leave a
# doubling error of up to 9e-4 relative there.
_SIGN_SMOOTH_EDGES = np.arange(-4.0, 4.5, 1.0)
# Losses of the residual u - y alone, whose twin risk under a linear eta
# TwinTestRisk takes in closed form (``_residual_risk``).
_RESIDUAL_LOSSES = ("huber", "squared")


def _normal_cdf(x: float) -> float:
    # erfc keeps the digits of the lower tail, and so of 1 - Phi(x) = Phi(-x).
    return 0.5 * math.erfc(-x / math.sqrt(2.0))


def _normal_pdf(x: float) -> float:
    return math.exp(-0.5 * x * x) / math.sqrt(2.0 * math.pi)


def _residual_risk(loss: Loss, mu: float, sigma: float) -> tuple[float, float]:
    """E[loss(r)] for r = mu + sigma Z, Z ~ N(0, 1), mu >= 0, and its derivative in sigma^2.

    The derivative is E[loss''(r)] / 2 (the heat equation): 1 for squared
    loss, and for huber half the probability that |r| < delta.
    """
    if loss.kind == "squared":
        return mu * mu + sigma * sigma, 1.0
    delta = loss.delta
    if sigma == 0.0:
        inside = mu < delta
        return (0.5 * mu * mu if inside else delta * (mu - 0.5 * delta)), 0.5 * inside
    # r < -delta for Z < a, |r| <= delta for a <= Z <= b, r > delta for Z > b.
    a, b = (-delta - mu) / sigma, (delta - mu) / sigma
    cdf_a, cdf_b, sf_b = _normal_cdf(a), _normal_cdf(b), _normal_cdf(-b)
    pdf_a, pdf_b = _normal_pdf(a), _normal_pdf(b)
    # P(a <= Z <= b) meets sigma^2 in the quadratic term, which cancels to
    # O(delta^3 / sigma) at large sigma: erf keeps its digits near 0, the
    # lower tails (mu >= 0 puts a below 0) below b = -1.
    if b < -1.0:
        inner = cdf_b - cdf_a
    else:
        inner = 0.5 * (math.erf(b / math.sqrt(2.0)) - math.erf(a / math.sqrt(2.0)))
    var = sigma * sigma
    quadratic = 0.5 * (
        (mu * mu + var) * inner + 2.0 * mu * sigma * (pdf_a - pdf_b) + var * (a * pdf_a - b * pdf_b)
    )
    upper = delta * (mu * sf_b + sigma * pdf_b) - 0.5 * delta * delta * sf_b
    lower = delta * (sigma * pdf_a - mu * cdf_a) - 0.5 * delta * delta * cdf_a
    return quadratic + upper + lower, 0.5 * inner


class TwinTestRisk:
    """Exact test risk E[loss(u, y)] under the Gaussian twin, and its gradient.

    For g ~ N(0, Sigma) with Sigma = L L^T + s^2 I, the student score
    u = w^T g (w = theta) and the teacher score v = t^T g (t = theta_star)
    are jointly Gaussian. The label is y = eta(v) + tau eps.

    Huber and squared loss with a linear eta see only the residual
    r = u - y = (w - t)^T g - tau eps, whose risk is that of mu + sigma Z
    with sigma^2 = (w - t)^T Sigma (w - t), plus tau^2 for Gaussian noise,
    and mu = 0, or tau for Rademacher noise (its -tau half has the same
    risk, since the loss is even in r). Its risk and derivative in
    sigma^2 are closed forms in one variable (``_residual_risk``), and the
    gradient is that derivative times 2 Sigma (w - t). A point costs one
    product L^T (w - t), and its gradient one more, L (L^T (w - t)).

    Every other loss and eta integrates over fixed nodes. The covariances
    c_uu, c_uv and c_vv cost one product L^T w per theta. With a
    linear eta and Gaussian noise, eps folds into v, whose variance becomes
    c_vv + tau^2. Rademacher noise is the mean of the eps = -1 and +1
    integrals, and Gaussian noise with a nonlinear eta is a third node axis.
    The label side sits on fixed nodes, v = sqrt(c_vv) z1, with panel edges
    at the kinks of a clipped eta and at v = 0, +-smoothing, ...,
    +-4 smoothing for a sign-smooth eta, and u = alpha z1 + beta z2 with
    alpha = c_uv / sqrt(c_vv) and beta = sqrt(c_uu - alpha^2). So the labels
    do not depend on theta, and the grid gradient is the exact gradient of
    the grid value, the quadrature sum. For a convex loss that sum is convex
    in theta, since the z2 nodes come in +- pairs. ``_grid_value`` and
    ``_grid_grad`` take the grid on any loss and eta.
    """

    def __init__(self, problem: ErmProblem, equiv: GaussianEquivalent):
        self.problem = problem
        # The twin's float32 factor is cast once, so the risk is that of the
        # rounded factor its batches are drawn from.
        self.factor = np.asarray(equiv.factor, dtype=np.float64)
        self.iso2 = equiv.iso_scale**2
        t = problem.theta_star
        self.sigma_t = self.factor @ (self.factor.T @ t) + self.iso2 * t
        labeler = problem.labeler
        fold = labeler.eta_kind == "linear" and labeler.noise_law == "gaussian"
        self.closed_form = problem.loss.kind in _RESIDUAL_LOSSES and labeler.eta_kind == "linear"
        # The residual's mean and the variance its noise adds.
        self.noise_mean = 0.0 if fold else labeler.tau
        self.noise_var = labeler.tau**2 if fold else 0.0
        c_vv = float(t @ self.sigma_t) + self.noise_var
        self.root_vv = math.sqrt(c_vv) or 1.0  # t = 0 has c_uv = 0, so alpha = 0
        edges = np.linspace(-_TWIN_RISK_RANGE, _TWIN_RISK_RANGE, TWIN_RISK_PANELS + 1)
        z1_edges = edges
        if labeler.eta_kind == "clipped-linear":
            kinks = np.array([-labeler.clip_bound, labeler.clip_bound]) / self.root_vv
            z1_edges = np.union1d(edges, kinks[np.abs(kinks) < _TWIN_RISK_RANGE])
        elif labeler.eta_kind == "sign-smooth":
            steep = labeler.smoothing * _SIGN_SMOOTH_EDGES / self.root_vv
            z1_edges = np.union1d(edges, steep[np.abs(steep) < _TWIN_RISK_RANGE])
        self.z1, w1 = normal_panel_nodes(z1_edges)
        self.z2, w2 = normal_panel_nodes(edges)
        if fold or labeler.tau == 0.0:
            eps, w_eps = np.zeros(1), np.ones(1)
        elif labeler.noise_law == "gaussian":
            eps, w_eps = normal_panel_nodes(edges[::4])
        else:
            eps, w_eps = np.array([-1.0, 1.0]), np.array([0.5, 0.5])
        # Axes (z1, z2, eps): the label depends on z1 and eps, the score on z1 and z2.
        self.y = labeler.label(math.sqrt(c_vv) * self.z1[:, None], eps[None, :])[:, None, :]
        self.weights = w1[:, None, None] * w2[None, :, None] * w_eps[None, None, :]
        self._grid_point: Optional[np.ndarray] = None
        self._grid_kept: tuple = ()
        self._residual_point: Optional[np.ndarray] = None
        self._residual_kept: tuple = ()

    def value(self, theta: np.ndarray) -> float:
        if self.closed_form:
            return self._residual(theta)[2]
        return self._grid_value(theta)

    def grad(self, theta: np.ndarray) -> np.ndarray:
        if self.closed_form:
            d, Ld, _, slope = self._residual(theta)
            return (2.0 * slope) * (self.factor @ Ld + self.iso2 * d)
        return self._grid_grad(theta)

    def _residual(self, theta: np.ndarray):
        """(w - t, L^T (w - t), risk, its derivative in sigma^2) at theta, kept for the last point.

        PGD asks for ``value`` and then ``grad`` at one point, so the
        product L^T (w - t) is taken once for both.
        """
        if not same_point(theta, self._residual_point):
            w = np.array(theta, dtype=np.float64)
            d = w - self.problem.theta_star
            Ld = self.factor.T @ d
            var = float(Ld @ Ld) + self.iso2 * float(d @ d) + self.noise_var
            risk, slope = _residual_risk(self.problem.loss, self.noise_mean, math.sqrt(var))
            self._residual_kept = (d, Ld, risk, slope)
            self._residual_point = w
        return self._residual_kept

    def _overlaps(self, theta: np.ndarray):
        """(w, L^T w, alpha, beta, score grid) at theta, kept for the last point evaluated.

        PGD asks for ``value`` and then ``grad`` at one point, so the grid
        is built once for both.
        """
        if not same_point(theta, self._grid_point):
            w = np.array(theta, dtype=np.float64)
            Lw = self.factor.T @ w
            alpha = float(w @ self.sigma_t) / self.root_vv
            beta = math.sqrt(max(float(Lw @ Lw) + self.iso2 * float(w @ w) - alpha * alpha, 0.0))
            self._grid_kept = (w, Lw, alpha, beta, self._scores(alpha, beta))
            self._grid_point = w
        return self._grid_kept

    def _scores(self, alpha: float, beta: float) -> np.ndarray:
        return alpha * self.z1[:, None, None] + beta * self.z2[None, :, None]

    def _grid_value(self, theta: np.ndarray) -> float:
        *_, scores = self._overlaps(theta)
        return float(np.vdot(self.weights, self.problem.loss.value(scores, self.y)))

    def _grid_grad(self, theta: np.ndarray) -> np.ndarray:
        w, Lw, alpha, beta, scores = self._overlaps(theta)
        lw = self.weights * self.problem.loss.grad(scores, self.y)
        d_alpha = lw.sum(axis=(1, 2)) @ self.z1
        d_beta = lw.sum(axis=(0, 2)) @ self.z2
        # grad alpha = Sigma t / sqrt(c_vv); grad beta = (Sigma w - alpha grad alpha) / beta.
        g = (d_alpha / self.root_vv) * self.sigma_t
        if beta > 0.0:
            sigma_w = self.factor @ Lw + self.iso2 * w
            g = g + (d_beta / beta) * (sigma_w - (alpha / self.root_vv) * self.sigma_t)
        return g


@dataclass
class TrialRow:
    """One trials.csv row: a single arm of a coupled trial; the fields are its columns."""

    family: str
    n: int
    p: int
    trial: int
    seed: int
    train_opt: float
    test_x: float
    test_x_se: float
    test_g: float
    test_g_se: float
    iters: int
    flags: str

    @property
    def arm(self) -> str:
        for token in self.flags.split(";"):
            if token.startswith("arm:"):
                return token[4:]
        return "?"

    @property
    def quarantined(self) -> bool:
        return "quarantined" in self.flags.split(";")


@dataclass
class StageRows:
    """A cell's stage output, from its trial 0; None for a disabled stage."""

    trace: Optional[list] = None  # free_energy_paths.csv rows
    check: Optional[dict] = None  # the free_energy_checks.json entry
    perturbed: Optional[list] = None  # perturbed.csv rows


def run_single_trial(
    instance: FamilyInstance,
    trial: int,
    master_seed: int,
    solver_cfg: SolverConfig,
    n_test: int,
    stages: Optional[tuple] = None,
) -> tuple:
    """Run the coupled X/G pair for one trial; never raises on solver failure.

    Returns the x and g rows. The x arm is drawn and solved, the twin is
    built from X and X is dropped; then G is drawn and solved and dropped.
    So a trial holds at most two n x p arrays: X and an empirical twin's
    factor, or G and the normals it is drawn from. Every draw has its own
    derived seed and a solve draws nothing, so this order changes no number.
    The test rows are then drawn and scored in blocks (``_test_losses``),
    unless no arm solved.

    ``stages`` is the config's (``FreeEnergySettings``, ``PerturbedSettings``)
    pair. With it, the trial also returns the ``StageRows`` of the enabled
    stages, run on its own X, G, eps and x-arm solution; X is then kept until
    they have run. They draw from streams of their own, so the rows are the
    same as without ``stages``.
    """
    spec, n, p = instance.spec, instance.n, instance.p
    problem = instance.problem
    trial_seed = derive_seed(master_seed, spec.id, n, trial)
    eps = problem.labeler.draw_noise(n, derive_seed(trial_seed, "eps"))
    arms = ("x", "g")

    stage_rows = None if stages is None else StageRows()
    X = draw_features(instance.model, n, derive_seed(trial_seed, "covariates"))
    sol_x = _solve_arm(problem, X, eps, solver_cfg)
    equiv = instance.twin(X)
    if stage_rows is None or not any(stage.enabled for stage in stages):
        X = None  # an empirical twin holds its own scaled copy
    G = sample_gaussian(equiv, n, derive_seed(trial_seed, "gaussian-arm"))
    sol_g = _solve_arm(problem, G, eps, solver_cfg)
    # One exact twin test risk serves the sweep and test_g, built when the first needs it.
    twin_risk = None
    if X is not None:  # the enabled stages run on this trial's batches
        free_energy, perturbed = stages
        if free_energy.enabled:
            stage_rows.trace, stage_rows.check = _free_energy_rows(
                instance, trial_seed, X, G, eps, sol_x, free_energy
            )
        G = None  # the sweep needs X only
        if perturbed.enabled:
            twin_risk = TwinTestRisk(problem, equiv)
            stage_rows.perturbed = _perturbed_rows(
                instance, trial_seed, X, eps, sol_x, twin_risk, perturbed.s_values, solver_cfg
            )
    X = G = None  # the test rows need neither batch
    sols = (sol_x, sol_g)

    solved = [sol.theta_hat for sol in sols if not isinstance(sol, SolverDivergedError)]
    if n_test > 0 and solved:
        losses = iter(_test_losses(instance, solved, n_test, derive_seed(trial_seed, "test")))
        if twin_risk is None:
            twin_risk = TwinTestRisk(problem, equiv)

    rows = []
    for arm, sol in zip(arms, sols):
        flags = [f"arm:{arm}"]
        if isinstance(sol, SolverDivergedError):
            train_opt = tx = tx_se = tg = tg_se = float("nan")
            iters = sol.iteration
            flags.append("quarantined")
        else:
            train_opt = sol.objective
            iters = sol.iterations
            flags.extend(sol.flags)
            if n_test > 0:
                tx, tx_se = mean_with_jackknife_se(next(losses))
                tg, tg_se = twin_risk.value(sol.theta_hat), 0.0
            else:
                tx = tx_se = tg = tg_se = float("nan")
                flags.append("no-test")
        rows.append(TrialRow(spec.id, n, p, trial, trial_seed, train_opt, tx, tx_se, tg, tg_se,
                             iters, ";".join(flags)))
    return (rows[0], rows[1]) if stage_rows is None else (rows[0], rows[1], stage_rows)


def _solve_arm(problem, data, eps, solver_cfg):
    """The arm's ERM solution, or the ``SolverDivergedError`` its solve raised.

    The error is returned without its traceback, whose frames hold the batch.
    """
    try:
        labels = labels_from_noise(problem, data, eps)
        return solve_erm(problem, data, labels, solver_cfg)
    except SolverDivergedError as exc:
        return exc.with_traceback(None)


def _free_energy_rows(instance, seed, X, G, eps, sol_x, settings) -> tuple[list, dict]:
    """The cell's free_energy_paths.csv rows and free_energy_checks.json entry.

    A diverged x arm has no solution to build candidates around: its entry
    is marked quarantined, with no trace rows.
    """
    check = {"family": instance.spec.id, "n": instance.n,
             "quarantined": isinstance(sol_x, SolverDivergedError)}
    if check["quarantined"]:
        return [], check
    problem = instance.problem
    if settings.candidates == "solution-cloud":
        candidates = solution_cloud(
            problem, sol_x.theta_hat, settings.M, settings.alpha, derive_seed(seed, "cloud")
        )
    else:
        candidates = random_net(problem, settings.M, derive_seed(seed, "net"))
    grid = tuple(np.linspace(0.0, math.pi / 2.0, settings.path_points))
    beta = settings.beta_grid[-1]
    trace, risks_x = free_energy_path(X, G, eps, grid, candidates, problem, beta)
    # The grid ends at pi/2, so the path's last risks are the candidates' risks on X.
    check.update(entropy_sandwich_check(risks_x, instance.n, settings.beta_grid))
    return [[t, f, instance.n, beta, instance.spec.id, seed] for t, f in trace], check


def _perturbed_rows(instance, seed, X, eps, sol_x, test_risk, s_values, solver_cfg) -> list[list]:
    """The cell's perturbed.csv rows, one per s and -s, swept from the x arm's solution.

    ``test_risk`` is the twin's ``TwinTestRisk``, the s-solves' perturbation.

    A row whose s-solve diverged has no optimum: nan in opt_s and D_s, and
    flag quarantined. So reads every row of a cell whose x arm diverged.
    """
    problem = instance.problem
    s_grid = s_values + tuple(-s for s in s_values)
    if isinstance(sol_x, SolverDivergedError):
        sweep = PerturbedRiskSweep(_validate_s_grid(s_grid), {}, {}, math.nan, math.nan)
    else:
        y = labels_from_noise(problem, X, eps)
        sweep = perturbed_sweep(problem, X, y, sol_x, test_risk, s_grid, solver_cfg)
    return [
        [instance.spec.id, instance.n, instance.p, seed, s,
         sweep.opt_values.get(s, math.nan), sweep.D.get(s, math.nan), sweep.test_at_theta0,
         sweep.solver_gap, ";".join(sweep.flags.get(s, ["quarantined"]))]
        for s in sweep.s_values
    ]


# Rows of a trial's test batch that are drawn, featurized, labelled and scored together.
_TEST_BLOCK = 128


def _test_losses(
    instance: FamilyInstance, thetas: Sequence[np.ndarray], n_test: int, test_seed: int
) -> list[np.ndarray]:
    """Per-row test losses of each theta on one fresh featurized batch of n_test rows.

    The covariates come ``_TEST_BLOCK`` rows at a time from the stream
    ``draw_features(instance.model, n_test, ...)`` reads, so the rows, their
    labels and losses are those of the one-batch draw, while no more than one
    block of features is held at a time.

    Each block is featurized in float32, against one float32 copy of the
    weights, as ``gaussian.mc_covariance`` featurizes its chunks, and cast
    to float64; the labels, scores and losses are computed in float64.
    Single precision about halves the time of the featurization and moves
    each feature by about 1e-7 relative.
    """
    problem, model = instance.problem, instance.model
    if model.W is not None:
        model = replace(model, W=model.W.astype(np.float32))
    eps = problem.labeler.draw_noise(n_test, derive_seed(test_seed, "noise"))
    losses = [np.empty(n_test) for _ in thetas]
    start = 0
    for Z in covariate_blocks(model, n_test, derive_seed(test_seed, "x"), _TEST_BLOCK):
        block = featurize(model, Z.astype(np.float32)).astype(np.float64)
        stop = start + block.shape[0]
        labels = labels_from_noise(problem, block, eps[start:stop])
        for theta, out in zip(thetas, losses):
            out[start:stop] = _risk_on(problem, theta, block, labels)
        start = stop
    return losses


def _risk_on(problem, theta, batch, labels) -> np.ndarray:
    """Per-row losses of theta on a labelled test batch."""
    return problem.loss.value(problem.scores(theta, batch), labels)


# The cells of the pool running the current task, which pool tasks name by
# index: set once in each forked worker by its initializer, and around each
# task a pool runs in the calling process.
_cells: Sequence[FamilyInstance] = ()


def _serve_cells(cells: Sequence[FamilyInstance]) -> None:
    global _cells
    _cells = cells


def _run_serving(cells: Sequence[FamilyInstance], fn, task):
    """``fn(task)`` in this process, with ``cells`` served for its duration."""
    saved = _cells
    _serve_cells(cells)
    try:
        return fn(task)
    finally:
        _serve_cells(saved)


def _trial_chunk(args):
    """The results of one chunk of a cell's trials, a list; trial 0 runs the stages."""
    cell, trials, master_seed, solver_cfg, n_test, stages = args
    instance = _cells[cell]
    return [
        run_single_trial(instance, t, master_seed, solver_cfg, n_test, stages if t == 0 else None)
        for t in trials
    ]


class WorkerPool:
    """Up to ``threads`` worker processes, shared by every batch of tasks it is given.

    The pool has ``workers`` = min(``threads``, usable cores) workers, the
    cores counted by ``os.sched_getaffinity`` or, on a platform without it,
    ``os.cpu_count()``: a fork executor starts all of its workers at the
    first submit, and more workers than cores would only share them. All
    workers are forked at the first batch of two or more tasks, before the
    pool starts its own manager thread; with one worker, or with only
    one-task batches, nothing is forked and ``map`` runs the tasks in the
    calling process. Forked workers see the caller's module state as it
    was at that first batch. ``close``, or leaving the ``with`` block (also
    on an exception), stops and joins the workers.

    ``cells`` are the (family, size) cells the tasks work on. Each worker
    receives them once, at fork, through the executor's initializer (a
    forked worker inherits them, nothing is pickled). A task names its cell
    by its index in ``cells``, in the task's first element, so a task stays
    a few bytes whatever the cell's size, and the pool prices each task by
    its cell's n·p. A task run in the calling process finds the same cells.
    """

    def __init__(self, threads: int, cells: Sequence[FamilyInstance] = ()):
        affinity = getattr(os, "sched_getaffinity", None)
        self.workers = min(threads, len(affinity(0)) if affinity else os.cpu_count() or 1)
        self.cells = cells
        self._executor: Optional[ProcessPoolExecutor] = None

    def map(self, fn, tasks: Sequence) -> Iterator:
        """``fn(task)`` for each task, yielded in task order.

        A pool with cells submits the tasks of its largest-n·p cells first
        (ties in task order), so the longest task does not start last; a
        pool without cells submits them in task order. Each result is
        released once yielded. ``fn`` and the tasks must be picklable.
        """
        if self.workers <= 1 or len(tasks) <= 1:
            for task in tasks:
                yield _run_serving(self.cells, fn, task)
            return
        if self._executor is None:
            self._executor = ProcessPoolExecutor(
                max_workers=self.workers,
                mp_context=multiprocessing.get_context("fork"),
                initializer=_serve_cells,
                initargs=(self.cells,),
            )
        order = range(len(tasks))
        if self.cells:
            cells = [self.cells[task[0]] for task in tasks]
            order = sorted(order, key=lambda i: -cells[i].n * cells[i].p)
        futures = {i: self._executor.submit(fn, tasks[i]) for i in order}
        for i in range(len(tasks)):
            yield futures.pop(i).result()

    def close(self) -> None:
        if self._executor is not None:
            self._executor.shutdown(wait=True, cancel_futures=True)
            self._executor = None

    def __enter__(self) -> "WorkerPool":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


def run_trials(
    pool: WorkerPool,
    trials: int,
    master_seed: int,
    solver_cfg: SolverConfig = SolverConfig(),
    n_test: int = 2000,
    stages: Optional[tuple] = None,
):
    """All trials of every cell of ``pool``, deterministically ordered.

    Each cell's trials are split into chunks, one per worker of the pool;
    rows come out in (cell, trial, arm) order, so the output stream does
    not depend on scheduling. With ``stages`` (see ``run_single_trial``),
    returns the rows and each cell's ``StageRows``, in cell order.
    """
    if trials < 1:
        raise InvalidArgumentError("trials must be >= 1")
    chunk = max(1, math.ceil(trials / max(1, pool.workers)))
    tasks = [
        (i, list(range(start, min(trials, start + chunk))), master_seed, solver_cfg, n_test, stages)
        for i in range(len(pool.cells))
        for start in range(0, trials, chunk)
    ]
    rows, cell_stages = [], []
    for results in pool.map(_trial_chunk, tasks):
        for row_x, row_g, *stage_rows in results:
            rows += (row_x, row_g)
            cell_stages += stage_rows
    return rows if stages is None else (rows, cell_stages)


# ---------------------------------------------------------------------------
# Perturbed risks and near-minimizer sweeps
# ---------------------------------------------------------------------------


class FrozenTestRisk(EmpiricalRisk):
    """Monte Carlo surrogate for the twin test risk: the empirical risk on a
    frozen Gaussian batch and noise draw, so it is deterministic in theta.
    ``TwinTestRisk`` is the exact term the campaign uses.
    """

    def __init__(self, problem: ErmProblem, equiv: GaussianEquivalent, n_test: int, seed: int):
        if n_test < 1:
            raise InvalidArgumentError("n_test must be positive for a frozen surrogate")
        G = sample_gaussian(equiv, n_test, derive_seed(seed, "frozen-g"))
        eps = problem.labeler.draw_noise(n_test, derive_seed(seed, "frozen-eps"))
        super().__init__(problem, G, labels_from_noise(problem, G, eps))


@dataclass
class PerturbedRiskSweep:
    s_values: list[float]
    opt_values: dict[float, float]
    D: dict[float, float]
    test_at_theta0: float
    solver_gap: float
    # Per solved s: the non-convergence flags of the base solve and the s-solve,
    # since D(s) depends on both.
    flags: dict[float, list[str]] = field(default_factory=dict)

    def sandwich_ok(self, slack: float = 0.0) -> bool:
        for s in self.s_values:
            if s <= 0 or s not in self.D or -s not in self.D:
                continue
            if not (self.D[s] <= self.test_at_theta0 + slack):
                return False
            if not (self.D[-s] >= self.test_at_theta0 - slack):
                return False
        return True


def _validate_s_grid(s_grid: Sequence[float]) -> list[float]:
    values = sorted(float(s) for s in s_grid)
    if any(s == 0.0 for s in values):
        raise InvalidArgumentError("s grid must exclude zero")
    pos = sorted(s for s in values if s > 0)
    neg = sorted(-s for s in values if s < 0)
    if pos != neg:
        raise InvalidArgumentError("s grid must be symmetric around zero")
    return values


# perfbench/spans.py rebinds this name; perturbed solves call solve_erm directly.
_solve_composite = solve_erm


def perturbed_sweep(
    problem: ErmProblem,
    X: np.ndarray,
    y: np.ndarray,
    base: ErmSolution,
    test_risk,
    s_grid: Sequence[float],
    cfg: SolverConfig = SolverConfig(),
) -> PerturbedRiskSweep:
    """Minimize train risk + s * test risk over a symmetric s grid.

    ``base`` is the solution of the unperturbed problem on (X, y).
    ``test_risk`` is any term with ``value(theta)`` and ``grad(theta)``, such
    as the twin's ``TwinTestRisk``. D(s) = (opt_s - opt_0) / s.
    Every perturbed solve is warm-started at the base solution, and a solve
    never ends above its start, so the convex sandwich
    D(s) <= test_risk(theta_0) <= D(-s) holds by construction up to solver
    tolerance.
    """
    s_values = _validate_s_grid(s_grid)
    theta0 = base.theta_hat
    test_ref = test_risk.value(theta0)
    solver_gap = base.suboptimality_bound(problem.constraint)
    opt_values: dict[float, float] = {}
    D: dict[float, float] = {}
    flags: dict[float, list[str]] = {}
    for s in s_values:
        try:
            sol = solve_erm(problem, X, y, cfg, theta0, extra=(s, test_risk))
            opt_values[s] = sol.objective
            D[s] = (sol.objective - base.objective) / s
            flags[s] = list(dict.fromkeys(base.flags + sol.flags))
            solver_gap = max(solver_gap, sol.suboptimality_bound(problem.constraint))
        except SolverDivergedError:
            continue  # no optimum: s stays out of opt_values, D and flags
    return PerturbedRiskSweep(s_values, opt_values, D, test_ref, solver_gap, flags)


_PENALTY_WEIGHTS = (10.0, 100.0, 1000.0, 10000.0)
_RESIDUAL_TOL = 1e-3


@dataclass
class NearMinimizerResult:
    t_level: float
    achieved_test: float
    residual: float
    feasible: bool
    base_train_opt: float


def min_test_over_near_minimizers(
    problem: ErmProblem,
    X: np.ndarray,
    y: np.ndarray,
    test_risk,
    t_levels: Sequence[float],
    cfg: SolverConfig = SolverConfig(),
) -> list[NearMinimizerResult]:
    """Approximately minimize ``test_risk`` subject to train risk <= t.

    ``test_risk`` is any term with ``value(theta)`` and ``grad(theta)``.
    Quadratic-penalty continuation over ``_PENALTY_WEIGHTS``, warm-started at
    the unconstrained ERM solution; levels are processed in ascending order
    and each level also inherits the previous level's point, which keeps the
    reported minima monotone in t up to solver tolerance. A point counts as
    feasible when its train risk exceeds t by at most ``_RESIDUAL_TOL``.
    """
    base = solve_erm(problem, X, y, cfg)
    theta_hat = base.theta_hat
    train = EmpiricalRisk(problem, X, y, regularized=True)
    results: list[NearMinimizerResult] = []
    carried: Optional[np.ndarray] = None

    def project(theta):
        return project_constraint(problem.constraint, theta)

    for t in sorted(float(t) for t in t_levels):
        if t < base.objective - 1e-12:
            results.append(
                NearMinimizerResult(
                    t_level=t,
                    achieved_test=float("nan"),
                    residual=float("nan"),
                    feasible=False,
                    base_train_opt=base.objective,
                )
            )
            continue
        candidates = [theta_hat] if carried is None else [carried, theta_hat]
        best_point = None
        for x0 in candidates:
            point = np.asarray(x0, dtype=np.float64).copy()
            for w in _PENALTY_WEIGHTS:

                def objective(theta, _w=w):
                    excess = max(0.0, train.value(theta) - t)
                    return test_risk.value(theta) + _w * excess * excess

                def gradient(theta, _w=w):
                    excess = max(0.0, train.value(theta) - t)
                    g = test_risk.grad(theta)
                    if excess > 0.0:
                        g = g + (2.0 * _w * excess) * train.grad(theta)
                    return g

                state = pgd_minimize(objective, gradient, project, point, cfg)
                point = state.theta_hat
            test_val = test_risk.value(point)
            residual = max(0.0, train.value(point) - t)
            if residual <= _RESIDUAL_TOL and (best_point is None or test_val < best_point[0]):
                best_point = (test_val, residual, point)
        # theta_hat itself is feasible whenever t >= base objective.
        base_test = test_risk.value(theta_hat)
        if best_point is None or base_test < best_point[0]:
            best_point = (base_test, 0.0, theta_hat)
        test_val, residual, point = best_point
        carried = point
        results.append(
            NearMinimizerResult(
                t_level=t,
                achieved_test=test_val,
                residual=residual,
                feasible=residual <= _RESIDUAL_TOL,
                base_train_opt=base.objective,
            )
        )
    return results
