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
import warnings
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
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
    Labeler,
    Loss,
    Regularizer,
    data_risk_grad,  # rebound by perfbench/spans.py
    labels_from_noise,
    project_constraint,
    solve_erm,
    mean_with_jackknife_se,
)
from ermu.errors import InvalidArgumentError, SolverDivergedError, check, check_one_of
from ermu.features import (
    ACTIVATION_KINDS,
    ENTRY_LAWS,
    Activation,
    FeatureModel,
    draw_features,
    linear_model,
    neural_tangent_model,
    random_features_model,
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
        for key in ("nu", "gamma_p", "gamma_d_over_p", "gamma_tilde", "radius"):
            check(getattr(self, key) > 0, f"{key} must be positive")
        for key in ("hermite_order", "cov_samples_per_dim"):
            check(getattr(self, key) >= 1, f"{key} must be >= 1")
        check(self.jitter_rel >= 0, "jitter_rel must be >= 0")
        for size in self.sizes:
            check(
                set(size) <= {"n", "d"} and all(type(v) is int and v > 0 for v in size.values()),
                "sizes entries must be objects with keys n and/or d and positive integer values",
            )
            check(self.kind != "neural-tangent" or "d" in size, "neural-tangent sizes need d")

    def build_activation(self) -> Optional[Activation]:
        if self.kind in ("linear-independent", "control-gaussian"):
            return None
        if self.activation == "custom-hermite":
            return Activation(kind="custom-hermite", hermite_coeffs=self.hermite_coeffs)
        return Activation(kind=self.activation)

    def resolve_size(self, base: int) -> dict:
        """Resolve (n, p, d, m) from a ladder entry.

        RF and linear ladders are in n; the neural-tangent ladder is in d
        (m = round(gamma_tilde d), p = m d, n = round(p / gamma_p)). Explicit
        ``sizes`` entries override the derived n.
        """
        if self.kind == "neural-tangent":
            d = int(base)
            m = max(1, round(self.gamma_tilde * d))
            p = m * d
            n = max(1, round(p / self.gamma_p))
        else:
            n = int(base)
            p = max(1, round(self.gamma_p * n))
            d = max(2, round(self.gamma_d_over_p * p)) if self.kind == "random-features" else p
            m = 0
        for override in self.sizes:
            if (self.kind == "neural-tangent" and override.get("d") == base) or (
                self.kind != "neural-tangent" and override.get("n") == base
            ):
                n = int(override.get("n", n))
                d = int(override.get("d", d))
                if self.kind == "neural-tangent":
                    m = max(1, round(self.gamma_tilde * d))
                    p = m * d
        return {"n": n, "p": p, "d": d, "m": m}


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
        return empirical_equivalent(X, self.spec.jitter_rel)


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


class TwinTestRisk:
    """Exact test risk E[loss(u, y)] under the Gaussian twin, and its gradient.

    For g ~ N(0, Sigma) with Sigma = L L^T + s^2 I, the student score
    u = w^T g (w = theta) and the teacher score v = t^T g (t = theta_star)
    are jointly Gaussian. Their covariances c_uu, c_uv and c_vv cost one
    product L^T w per theta. The label is y = eta(v) + tau eps. With a
    linear eta and Gaussian noise, eps folds into v, whose variance becomes
    c_vv + tau^2. Rademacher noise is the mean of the eps = -1 and +1
    integrals, and Gaussian noise with a nonlinear eta is a third node axis.
    The label side sits on fixed nodes, v = sqrt(c_vv) z1, with panel edges
    at the kinks of a clipped eta and at v = 0, +-smoothing, ...,
    +-4 smoothing for a sign-smooth eta, and u = alpha z1 + beta z2 with
    alpha = c_uv / sqrt(c_vv) and beta = sqrt(c_uu - alpha^2). So the labels
    do not depend on theta, and ``grad`` is the exact gradient of ``value``,
    the quadrature sum. For a convex loss that sum is convex in theta, since
    the z2 nodes come in +- pairs.
    """

    def __init__(self, problem: ErmProblem, equiv: GaussianEquivalent):
        self.problem = problem
        self.factor = equiv.factor
        self.iso2 = equiv.iso_scale**2
        t = problem.theta_star
        self.sigma_t = self.factor @ (self.factor.T @ t) + self.iso2 * t
        labeler = problem.labeler
        fold = labeler.eta_kind == "linear" and labeler.noise_law == "gaussian"
        c_vv = float(t @ self.sigma_t) + (labeler.tau**2 if fold else 0.0)
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
        self._theta: Optional[np.ndarray] = None
        self._kept: tuple = ()

    def _overlaps(self, theta: np.ndarray):
        """(w, L^T w, alpha, beta) at theta, kept for the last point evaluated."""
        if self._theta is None or not np.array_equal(theta, self._theta):
            w = np.array(theta, dtype=np.float64)
            Lw = self.factor.T @ w
            alpha = float(w @ self.sigma_t) / self.root_vv
            beta = math.sqrt(max(float(Lw @ Lw) + self.iso2 * float(w @ w) - alpha * alpha, 0.0))
            self._kept = (w, Lw, alpha, beta)
            self._theta = w
        return self._kept

    def _scores(self, alpha: float, beta: float) -> np.ndarray:
        return alpha * self.z1[:, None, None] + beta * self.z2[None, :, None]

    def value(self, theta: np.ndarray) -> float:
        _, _, alpha, beta = self._overlaps(theta)
        return float(np.vdot(self.weights, self.problem.loss.value(self._scores(alpha, beta), self.y)))

    def grad(self, theta: np.ndarray) -> np.ndarray:
        w, Lw, alpha, beta = self._overlaps(theta)
        lw = self.weights * self.problem.loss.grad(self._scores(alpha, beta), self.y)
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


def run_single_trial(
    instance: FamilyInstance,
    trial: int,
    master_seed: int,
    solver_cfg: SolverConfig,
    n_test: int,
) -> tuple[TrialRow, TrialRow]:
    """Run the coupled X/G pair for one trial; never raises on solver failure."""
    spec, n, p = instance.spec, instance.n, instance.p
    problem = instance.problem
    trial_seed = derive_seed(master_seed, spec.id, n, trial)
    eps = problem.labeler.draw_noise(n, derive_seed(trial_seed, "eps"))

    X = draw_features(instance.model, n, derive_seed(trial_seed, "covariates"))
    equiv = instance.twin(X)
    G = sample_gaussian(equiv, n, derive_seed(trial_seed, "gaussian-arm"))

    y_x = labels_from_noise(problem, X, eps)
    y_g = labels_from_noise(problem, G, eps)

    test_seed = derive_seed(trial_seed, "test")
    X_test = y_test = twin_risk = None
    if n_test > 0:
        X_test = draw_features(instance.model, n_test, derive_seed(test_seed, "x"))
        eps_test = problem.labeler.draw_noise(n_test, derive_seed(test_seed, "noise"))
        y_test = labels_from_noise(problem, X_test, eps_test)
        twin_risk = TwinTestRisk(problem, equiv)

    rows = []
    for arm, data, labels in (("x", X, y_x), ("g", G, y_g)):
        flags = [f"arm:{arm}"]
        try:
            sol = solve_erm(
                problem, data, labels, solver_cfg, seed=derive_seed(trial_seed, "solver", arm)
            )
            train_opt = sol.objective
            iters = sol.iterations
            flags.extend(sol.flags)
            if n_test > 0:
                tx, tx_se = _risk_on(problem, sol.theta_hat, X_test, y_test)
                tg, tg_se = twin_risk.value(sol.theta_hat), 0.0
            else:
                tx = tx_se = tg = tg_se = float("nan")
                flags.append("no-test")
        except SolverDivergedError as exc:
            train_opt = tx = tx_se = tg = tg_se = float("nan")
            iters = exc.iteration
            flags.append("quarantined")
        rows.append(
            TrialRow(
                family=spec.id,
                n=n,
                p=p,
                trial=trial,
                seed=trial_seed,
                train_opt=train_opt,
                test_x=tx,
                test_x_se=tx_se,
                test_g=tg,
                test_g_se=tg_se,
                iters=iters,
                flags=";".join(flags),
            )
        )
    return rows[0], rows[1]


def _risk_on(problem, theta, batch, labels) -> tuple[float, float]:
    """Mean loss of theta on a labelled test batch, and its standard error."""
    vals = problem.loss.value(problem.scores(theta, batch), labels)
    return mean_with_jackknife_se(vals)


def _trial_chunk(args):
    instance, trials, master_seed, solver_cfg, n_test = args
    out = []
    for t in trials:
        out.append((t, run_single_trial(instance, t, master_seed, solver_cfg, n_test)))
    return out


class WorkerPool:
    """``threads`` worker processes, shared by every batch of tasks it is given.

    All workers are forked at the first batch of two or more tasks, before
    the pool starts its own manager thread; with ``threads`` <= 1, or with
    only one-task batches, nothing is forked and ``map`` runs the tasks in
    the calling process. Forked workers see the caller's module state as it
    was at that first batch. ``close``, or leaving the ``with`` block (also
    on an exception), stops and joins the workers.
    """

    def __init__(self, threads: int):
        self.threads = threads
        self._executor: Optional[ProcessPoolExecutor] = None

    def map(self, fn, tasks: Sequence, costs: Optional[Sequence[float]] = None) -> Iterator:
        """``fn(task)`` for each task, yielded in task order.

        Workers take the tasks with the largest ``costs`` first (in task order
        when no costs are given), so the longest task does not start last.
        Each result is released once yielded. ``fn`` and the tasks must be
        picklable.
        """
        if self.threads <= 1 or len(tasks) <= 1:
            for task in tasks:
                yield fn(task)
            return
        if self._executor is None:
            self._executor = ProcessPoolExecutor(
                max_workers=self.threads, mp_context=multiprocessing.get_context("fork")
            )
        order = range(len(tasks))
        if costs is not None:
            order = sorted(order, key=lambda i: -costs[i])
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
    instances: Sequence[FamilyInstance],
    trials: int,
    master_seed: int,
    solver_cfg: SolverConfig = SolverConfig(),
    n_test: int = 2000,
    pool: Optional[WorkerPool] = None,
) -> list[TrialRow]:
    """All trials for all instances, deterministically ordered.

    Work is split into per-instance trial chunks, one per worker of ``pool``
    (in this process when there is no pool); rows come out in (instance
    order, trial, arm) order, so the output stream does not depend on
    scheduling.
    """
    if trials < 1:
        raise InvalidArgumentError("trials must be >= 1")
    pool = pool or WorkerPool(1)
    chunk = max(1, math.ceil(trials / max(1, pool.threads)))
    tasks = [
        (inst, list(range(start, min(trials, start + chunk))), master_seed, solver_cfg, n_test)
        for inst in instances
        for start in range(0, trials, chunk)
    ]
    costs = [task[0].n * task[0].p for task in tasks]
    rows: list[TrialRow] = []
    for chunk_result in pool.map(_trial_chunk, tasks, costs):
        for _, pair in chunk_result:
            rows.extend(pair)
    return rows


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
    test_risk,
    s_grid: Sequence[float],
    cfg: SolverConfig = SolverConfig(),
    seed: int = 0,
) -> PerturbedRiskSweep:
    """Minimize train risk + s * test risk over a symmetric s grid.

    ``test_risk`` is any term with ``value(theta)`` and ``grad(theta)``, such
    as the twin's ``TwinTestRisk``. D(s) = (opt_s - opt_0) / s.
    Every perturbed solve is warm-started at the base solution, and a solve
    never ends above its start, so the convex sandwich
    D(s) <= test_risk(theta_0) <= D(-s) holds by construction up to solver
    tolerance.
    """
    s_values = _validate_s_grid(s_grid)
    base = solve_erm(problem, X, y, cfg, seed=derive_seed(seed, "solve-base"))
    theta0 = base.theta_hat
    test_ref = test_risk.value(theta0)
    solver_gap = base.suboptimality_bound(problem.constraint)
    opt_values: dict[float, float] = {}
    D: dict[float, float] = {}
    flags: dict[float, list[str]] = {}
    for s in s_values:
        try:
            sol = solve_erm(
                problem, X, y, cfg, theta0, derive_seed(seed, "solve-s", repr(s)),
                extra=(s, test_risk),
            )
            opt_values[s] = sol.objective
            D[s] = (sol.objective - base.objective) / s
            flags[s] = list(dict.fromkeys(base.flags + sol.flags))
            solver_gap = max(solver_gap, sol.suboptimality_bound(problem.constraint))
        except SolverDivergedError:
            continue  # no optimum: s stays out of opt_values, D and flags
    return PerturbedRiskSweep(
        s_values=s_values,
        opt_values=opt_values,
        D=D,
        test_at_theta0=test_ref,
        solver_gap=solver_gap,
        flags=flags,
    )


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
    seed: int = 0,
) -> list[NearMinimizerResult]:
    """Approximately minimize ``test_risk`` subject to train risk <= t.

    ``test_risk`` is any term with ``value(theta)`` and ``grad(theta)``.
    Quadratic-penalty continuation over ``_PENALTY_WEIGHTS``, warm-started at
    the unconstrained ERM solution; levels are processed in ascending order
    and each level also inherits the previous level's point, which keeps the
    reported minima monotone in t up to solver tolerance. A point counts as
    feasible when its train risk exceeds t by at most ``_RESIDUAL_TOL``.
    """
    base = solve_erm(problem, X, y, cfg, seed=derive_seed(seed, "solve-base"))
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
                point = state.x
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
