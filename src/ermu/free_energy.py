"""Softmin free energy over finite candidate sets and interpolation paths.

The free energy of a candidate set {theta_1..theta_M} at inverse temperature
beta is

    f = -(1 / (n beta)) * log sum_m exp(-beta n R_n(theta_m))

computed with a max shift so the exponent never overflows. The n-scaled
exponent is the convention under which the finite-set bound
min - log(M)/(n beta) <= f <= min closes, and f is non-decreasing in beta
with derivative H / (beta^2 n) for H the Shannon entropy of the softmin
weights.

A true covering net of the constraint set is exponentially large; candidate
sets here are random nets or clouds around a solver solution. Every property
asserted holds for arbitrary finite candidate sets, so the substitution is
sound for testing.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from ermu.erm import (
    ErmProblem,
    labels_from_noise,  # rebound by perfbench/spans.py
    project_constraint,
)
from ermu.errors import InvalidArgumentError
from ermu.seeds import rng_from

CANDIDATE_KINDS = ("solution-cloud", "random-net")


@dataclass(frozen=True)
class CandidateSet:
    """Finite set of feasible parameter vectors (M x p array, one point per row)."""

    points: np.ndarray

    def __post_init__(self):
        pts = np.asarray(self.points, dtype=np.float64)
        if pts.ndim != 2 or pts.shape[0] < 1:
            raise InvalidArgumentError("candidate set needs at least one length-p point")
        object.__setattr__(self, "points", pts)

    @property
    def M(self) -> int:
        return self.points.shape[0]


def random_net(problem: ErmProblem, M: int, seed: int, scale: float = 1.0) -> CandidateSet:
    """M projected Gaussian draws inside the constraint set."""
    if M < 1:
        raise InvalidArgumentError("M must be >= 1")
    rng = rng_from(seed, "random-net")
    pts = np.empty((M, problem.p))
    for i in range(M):
        draw = scale * rng.standard_normal(problem.p) / math.sqrt(problem.p)
        pts[i] = project_constraint(problem.constraint, draw)
    return CandidateSet(points=pts)


def solution_cloud(
    problem: ErmProblem, theta_hat: np.ndarray, M: int, alpha: float, seed: int
) -> CandidateSet:
    """The solution plus M-1 perturbations at radii alpha, alpha/2, alpha/4, ...

    The radius schedule cycles so the cloud probes several resolutions around
    the solver solution; every point is projected back into the set.
    """
    if M < 1:
        raise InvalidArgumentError("M must be >= 1")
    theta_hat = np.asarray(theta_hat, dtype=np.float64)
    rng = rng_from(seed, "solution-cloud")
    pts = np.empty((M, theta_hat.shape[0]))
    pts[0] = project_constraint(problem.constraint, theta_hat)
    n_levels = 8
    for i in range(1, M):
        radius = alpha / (2.0 ** ((i - 1) % n_levels))
        direction = rng.standard_normal(theta_hat.shape)
        norm = np.linalg.norm(direction)
        if norm > 0:
            direction *= radius / norm
        pts[i] = project_constraint(problem.constraint, theta_hat + direction)
    return CandidateSet(points=pts)


def candidate_risks(
    candidates: CandidateSet, problem: ErmProblem, X: np.ndarray, y: np.ndarray
) -> np.ndarray:
    """Empirical risk of every candidate, vectorized over the set."""
    X = np.asarray(X, dtype=np.float64)
    return _risks_from_scores(candidates, problem, _candidate_scores(candidates, X), y)


def _candidate_scores(candidates: CandidateSet, X: np.ndarray) -> np.ndarray:
    """scores[m, i] = theta_m^T x_i, an M x n matrix."""
    return np.einsum("ip,mp->mi", X, candidates.points, optimize=True)


def _risks_from_scores(
    candidates: CandidateSet, problem: ErmProblem, scores: np.ndarray, y: np.ndarray
) -> np.ndarray:
    """Mean loss of each row of ``scores`` against y, plus each candidate's regularizer."""
    y = np.asarray(y, dtype=np.float64)
    pts = candidates.points
    losses = problem.loss.value(scores, y[None, :]).mean(axis=1)
    regs = problem.regularizer.lam * np.einsum("mp->m", pts * pts) if problem.regularizer.kind == "ridge" else np.zeros(len(pts))
    return losses + regs


def softmin_free_energy(values: np.ndarray, n: int, beta: float) -> float:
    """Max-shifted log-sum-exp softmin of risk values."""
    if beta <= 0:
        raise InvalidArgumentError("beta must be positive")
    values = np.asarray(values, dtype=np.float64)
    if values.size == 0:
        raise InvalidArgumentError("empty candidate set")
    vmin = float(values.min())
    logsum = float(np.log(np.sum(np.exp(-beta * n * (values - vmin)))))
    return vmin - logsum / (n * beta)


@dataclass(frozen=True)
class InterpolationPath:
    """Sine/cosine interpolation U_t = sin(t) X + cos(t) G on [0, pi/2].

    The label noise is drawn once and reused at every point so the labels
    vary only through U_t. ``coefficients`` gives (sin t, cos t) with values
    below 1e-15 snapped to 0, so both ends of ``matrix_at`` and of
    ``free_energy_path`` are the pure models, G at t = 0 and X at t = pi/2,
    bit for bit.
    """

    X: np.ndarray
    G: np.ndarray
    grid: tuple[float, ...]
    eps: np.ndarray

    def __post_init__(self):
        X = np.asarray(self.X, dtype=np.float64)
        G = np.asarray(self.G, dtype=np.float64)
        if X.shape != G.shape:
            raise InvalidArgumentError("X and G must share a shape")
        grid = tuple(float(t) for t in self.grid)
        if any(b < a for a, b in zip(grid, grid[1:])):
            raise InvalidArgumentError("grid must be sorted ascending")
        if grid and (grid[0] < -1e-12 or grid[-1] > math.pi / 2 + 1e-12):
            raise InvalidArgumentError("grid must lie in [0, pi/2]")
        eps = np.asarray(self.eps, dtype=np.float64)
        if eps.shape[0] != X.shape[0]:
            raise InvalidArgumentError("noise vector must match the row count")
        object.__setattr__(self, "X", X)
        object.__setattr__(self, "G", G)
        object.__setattr__(self, "grid", grid)
        object.__setattr__(self, "eps", eps)

    @staticmethod
    def coefficients(t: float) -> tuple[float, float]:
        s, c = math.sin(t), math.cos(t)
        # sin/cos of the float nearest pi/2 are not exactly (1, 0); snap so
        # the endpoints reproduce the pure matrices bit-for-bit.
        if abs(s) < 1e-15:
            s = 0.0
        if abs(c) < 1e-15:
            c = 0.0
        return s, c

    def matrix_at(self, t: float) -> np.ndarray:
        s, c = self.coefficients(t)
        return s * self.X + c * self.G


def free_energy_path(
    path: InterpolationPath,
    candidates: CandidateSet,
    problem: ErmProblem,
    beta: float,
) -> list[tuple[float, float]]:
    """Free energy along the path, with labels regenerated at each t.

    U_t is never formed: scores and labels are linear in U_t, so the
    candidate scores at t are sin t * (X theta) + cos t * (G theta) and the
    target scores sin t * (X theta*) + cos t * (G theta*), from two score
    matrices and two target vectors computed once. Both ends equal
    ``candidate_risks`` on G and on X bit for bit; interior points match the
    per-point products up to rounding.
    """
    SX = _candidate_scores(candidates, path.X)
    SG = _candidate_scores(candidates, path.G)
    TX, TG = problem.target_scores(path.X), problem.target_scores(path.G)
    out = []
    n = path.X.shape[0]
    for t in path.grid:
        s, c = path.coefficients(t)
        y_t = problem.labeler.label(s * TX + c * TG, path.eps)
        values = _risks_from_scores(candidates, problem, s * SX + c * SG, y_t)
        out.append((t, softmin_free_energy(values, n, beta)))
    return out


@dataclass
class SandwichReport:
    betas: list[float]
    values: list[float]
    minimum: float
    lower_bounds: list[float]
    sandwich_ok: bool
    monotone_ok: bool
    offending_betas: list[float] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return self.sandwich_ok and self.monotone_ok


def entropy_sandwich_check(
    candidates: CandidateSet,
    problem: ErmProblem,
    X: np.ndarray,
    y: np.ndarray,
    beta_grid: Sequence[float],
) -> SandwichReport:
    """Check min - log(M)/(n beta) <= f(beta) <= min and monotonicity in beta."""
    betas = [float(b) for b in beta_grid]
    if any(b2 < b1 for b1, b2 in zip(betas, betas[1:])):
        raise InvalidArgumentError("beta grid must be ascending")
    values = candidate_risks(candidates, problem, X, y)
    n = np.asarray(X).shape[0]
    vmin = float(values.min())
    logM = math.log(candidates.M)
    fs, lowers, offending = [], [], []
    for beta in betas:
        f = softmin_free_energy(values, n, beta)
        lower = vmin - logM / (n * beta)
        fs.append(f)
        lowers.append(lower)
        if not (lower <= f <= vmin):
            offending.append(beta)
    monotone_ok = all(f2 >= f1 - 1e-13 for f1, f2 in zip(fs, fs[1:]))
    return SandwichReport(
        betas=betas,
        values=fs,
        minimum=vmin,
        lower_bounds=lowers,
        sandwich_ok=not offending,
        monotone_ok=monotone_ok,
        offending_betas=offending,
    )
