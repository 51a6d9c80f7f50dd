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

Candidate risks are taken over blocks of candidate rows of at most
``_BLOCK_SCORES`` scores each, so the loss temporaries stay the size of one
block whatever M is; each block's row means are written into the length-M
result. The loss is elementwise and every row mean reduces one contiguous
row, so the blocks change no number.
"""

from __future__ import annotations

import math
from typing import Callable, Sequence

import numpy as np

from ermu.erm import (
    ErmProblem,
    labels_from_noise,  # rebound by perfbench/spans.py
    project_constraint,
)
from ermu.errors import InvalidArgumentError
from ermu.seeds import rng_from

CANDIDATE_KINDS = ("solution-cloud", "random-net")

# Scores per block of candidate rows in ``_risks_from_scores``.
_BLOCK_SCORES = 2**13


def random_net(problem: ErmProblem, M: int, seed: int, scale: float = 1.0) -> np.ndarray:
    """M projected Gaussian draws inside the constraint set, an M x p array."""
    if M < 1:
        raise InvalidArgumentError("M must be >= 1")
    rng = rng_from(seed, "random-net")
    pts = np.empty((M, problem.p))
    for i in range(M):
        draw = scale * rng.standard_normal(problem.p) / math.sqrt(problem.p)
        pts[i] = project_constraint(problem.constraint, draw)
    return pts


def solution_cloud(
    problem: ErmProblem, theta_hat: np.ndarray, M: int, alpha: float, seed: int
) -> np.ndarray:
    """The solution plus M-1 perturbations at radii alpha, alpha/2, alpha/4, ...,
    an M x p array.

    The radius schedule cycles so the cloud probes several resolutions around
    the solver solution; every point is projected back into the set. The M-1
    directions are drawn into the cloud's last M-1 rows at once, which reads
    the stream in the order of M-1 draws of p; each is scaled by its own row
    norm, shifted by the solution and projected in place.
    """
    if M < 1:
        raise InvalidArgumentError("M must be >= 1")
    theta_hat = np.asarray(theta_hat, dtype=np.float64)
    rng = rng_from(seed, "solution-cloud")
    pts = np.empty((M, theta_hat.shape[0]))
    pts[0] = project_constraint(problem.constraint, theta_hat)
    n_levels = 8
    cloud = rng.standard_normal(out=pts[1:])  # the directions, then the points
    for i, direction in enumerate(cloud):
        norm = np.linalg.norm(direction)
        if norm > 0:
            direction *= (alpha / (2.0 ** (i % n_levels))) / norm
    cloud += theta_hat
    for point in cloud:
        point[:] = project_constraint(problem.constraint, point)
    return pts


def candidate_risks(
    points: np.ndarray, problem: ErmProblem, X: np.ndarray, y: np.ndarray
) -> np.ndarray:
    """Empirical risk of every row of the M x p array ``points``, vectorized over the set."""
    X = np.asarray(X, dtype=np.float64)
    scores = _candidate_scores(points, X)
    return _risks_from_scores(points, problem, lambda rows: scores[rows], y)


def _candidate_scores(points: np.ndarray, X: np.ndarray) -> np.ndarray:
    """scores[m, i] = theta_m^T x_i, an M x n matrix."""
    return np.einsum("ip,mp->mi", X, points, optimize=True)


def _risks_from_scores(
    points: np.ndarray,
    problem: ErmProblem,
    block_scores: Callable[[slice], np.ndarray],
    y: np.ndarray,
) -> np.ndarray:
    """Mean loss of each candidate's scores against y, plus its regularizer.

    ``block_scores(rows)`` gives the scores of the candidate rows ``rows``
    (a slice), a C-ordered block of the M x n score matrix. It is called
    once per block of ``max(1, _BLOCK_SCORES // n)`` rows, and the block's
    regularizers are taken from its rows of ``points``.
    """
    y = np.asarray(y, dtype=np.float64)
    M, n = points.shape[0], y.shape[0]
    step = max(1, _BLOCK_SCORES // max(n, 1))
    risks = np.empty(M)
    for start in range(0, M, step):
        rows = slice(start, start + step)
        risks[rows] = problem.loss.value(block_scores(rows), y[None, :]).mean(axis=1)
        risks[rows] += problem.regularizer.values(points[rows])
    return risks


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


def path_coefficients(t: float) -> tuple[float, float]:
    """(sin t, cos t), each snapped to 0 below 1e-15.

    sin/cos of the float nearest pi/2 are not exactly (1, 0); with the snap,
    s X + c G is G at t = 0 and X at t = pi/2 bit for bit.
    """
    s, c = math.sin(t), math.cos(t)
    return (0.0 if abs(s) < 1e-15 else s), (0.0 if abs(c) < 1e-15 else c)


def free_energy_path(
    X: np.ndarray,
    G: np.ndarray,
    eps: np.ndarray,
    grid: Sequence[float],
    points: np.ndarray,
    problem: ErmProblem,
    beta: float,
) -> tuple[list[tuple[float, float]], np.ndarray]:
    """Free energy of the candidates ``points`` along U_t = sin(t) X + cos(t) G.

    ``grid`` is an ascending sequence of t in [0, pi/2]. The label noise
    ``eps`` is reused at every t, so the labels vary only through U_t.
    Returns the (t, f) trace and the candidate risks at the last grid point.

    U_t is never formed: scores and labels are linear in U_t, so the
    candidate scores at t are s * (X theta) + c * (G theta) and the target
    scores s * (X theta*) + c * (G theta*), with (s, c) from
    ``path_coefficients``, from two M x n score matrices and two target
    vectors computed once. The scores at t are combined one block of
    candidate rows at a time (see ``_risks_from_scores``), so beside X, G
    and the two score matrices a call holds O(``_BLOCK_SCORES``)
    temporaries, not an M x n matrix per term. Both ends equal
    ``candidate_risks`` on G and on X bit for bit; interior points match the
    per-point products up to rounding.
    """
    X = np.asarray(X, dtype=np.float64)
    G = np.asarray(G, dtype=np.float64)
    if X.shape != G.shape:
        raise InvalidArgumentError("X and G must share a shape")
    grid = [float(t) for t in grid]
    if any(b < a for a, b in zip(grid, grid[1:])):
        raise InvalidArgumentError("grid must be sorted ascending")
    if grid and (grid[0] < -1e-12 or grid[-1] > math.pi / 2 + 1e-12):
        raise InvalidArgumentError("grid must lie in [0, pi/2]")
    eps = np.asarray(eps, dtype=np.float64)
    if eps.shape[0] != X.shape[0]:
        raise InvalidArgumentError("noise vector must match the row count")
    SX, SG = _candidate_scores(points, X), _candidate_scores(points, G)
    TX, TG = problem.target_scores(X), problem.target_scores(G)
    out = []
    values = None
    for t in grid:
        s, c = path_coefficients(t)
        y_t = problem.labeler.label(s * TX + c * TG, eps)
        values = _risks_from_scores(
            points, problem, lambda rows: s * SX[rows] + c * SG[rows], y_t
        )
        out.append((t, softmin_free_energy(values, X.shape[0], beta)))
    return out, values


def entropy_sandwich_check(values: np.ndarray, n: int, beta_grid: Sequence[float]) -> dict:
    """Check min - log(M)/(n beta) <= f(beta) <= min and monotonicity in beta.

    ``values`` are the risks of the M candidates on an n-row batch, as
    ``candidate_risks`` gives them. Returns the free_energy_checks.json
    fields: ``betas``, ``free_energies`` f(beta), ``minimum``,
    ``sandwich_ok``, ``monotone_ok`` and the ``offending_betas`` whose f
    leaves the sandwich.
    """
    betas = [float(b) for b in beta_grid]
    if any(b2 < b1 for b1, b2 in zip(betas, betas[1:])):
        raise InvalidArgumentError("beta grid must be ascending")
    values = np.asarray(values, dtype=np.float64)
    vmin = float(values.min())
    logM = math.log(values.size)
    fs = [softmin_free_energy(values, n, beta) for beta in betas]
    offending = [beta for beta, f in zip(betas, fs) if not (vmin - logM / (n * beta) <= f <= vmin)]
    return {
        "betas": betas,
        "free_energies": fs,
        "minimum": vmin,
        "sandwich_ok": not offending,
        "monotone_ok": all(f2 >= f1 - 1e-13 for f1, f2 in zip(fs, fs[1:])),
        "offending_betas": offending,
    }
