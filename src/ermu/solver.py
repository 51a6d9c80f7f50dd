"""Nonmonotone spectral projected gradient, and its config.

Each iteration tries a first step and shrinks it by ``ARMIJO_SHRINK`` until
the Armijo test holds. The first step of the first iteration is
``INIT_STEP``; later ones are the Barzilai-Borwein step s's / s'y from the
last change in point and gradient (Barzilai & Borwein, IMA J. Numer. Anal.
1988; spectral projected gradient: Birgin, Martinez & Raydan, SIAM J. Optim.
2000), or the last accepted step times ``STEP_GROWTH`` when s'y <= 0 gives
no curvature estimate. The Armijo test is nonmonotone (Grippo, Lampariello
& Lucidi, SIAM J. Numer. Anal. 1986): it measures descent from the largest
of the last ``NONMONOTONE_WINDOW`` accepted objective values, so a
Barzilai-Borwein step that rises a little above the current value is taken
as it stands instead of being backtracked. That reference never exceeds the
value at the start, so a solve never ends above its initial point.

The line-search settings are constants; a config sets only the stop rule,
``max_iters`` and ``tol``.

Kept generic: the ERM layer (plain and perturbed solves) and the
near-minimizer penalty objectives all funnel through ``pgd_minimize`` with
their own closures. ``erm.solve_erm`` calls it twice per solve: on a
float32 copy of its batch to a gradient-mapping norm of 1e-6, then in
float64 to ``tol`` with the iterations left. The solver itself sees only
float64 points and values, whatever precision the closures compute in.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from ermu.errors import SolverDivergedError, check

_MIN_STEP = 1e-18
_MAX_STEP = 1e12
# Accepted objective values the nonmonotone Armijo reference is the maximum of.
NONMONOTONE_WINDOW = 10
# Factor a rejected trial step is multiplied by.
ARMIJO_SHRINK = 0.5
# Sufficient-decrease slope of the Armijo test.
ARMIJO_SLOPE = 1e-4
# First trial step of a solve.
INIT_STEP = 1.0
# Growth of the last accepted step when s'y <= 0 gives no curvature estimate.
STEP_GROWTH = 2.0


@dataclass(frozen=True)
class SolverConfig:
    """PGD stop rule: at most ``max_iters`` iterations, or a gradient-mapping norm <= ``tol``."""

    max_iters: int = 5000
    tol: float = 1e-8

    def __post_init__(self):
        check(self.max_iters >= 1, "max_iters must be >= 1")
        # No gradient-map norm is below a negative tol: every solve would
        # run to max_iters.
        check(self.tol >= 0, "tol must be >= 0")


@dataclass
class ErmSolution:
    """A PGD solve: its point, objective, gradient-mapping norm, iterations and flags."""

    theta_hat: np.ndarray
    objective: float
    grad_map_norm: float
    iterations: int
    flags: list[str] = field(default_factory=list)

    def suboptimality_bound(self, cset) -> float:
        """First-order bound on the objective gap for a convex problem over ``cset``."""
        return self.grad_map_norm * cset.diameter() + 1e-14


def pgd_minimize(
    fun: Callable[[np.ndarray], float],
    grad: Callable[[np.ndarray], np.ndarray],
    project: Callable[[np.ndarray], np.ndarray],
    x0: np.ndarray,
    cfg: SolverConfig = SolverConfig(),
) -> ErmSolution:
    """Minimize a smooth function over a convex set by projected gradient.

    The first trial step is ``INIT_STEP``, then the Barzilai-Borwein step
    s's / s'y with s = x_k - x_{k-1} and y = g_k - g_{k-1}, capped at 1e12;
    when s'y <= 0 it is the last accepted step times ``STEP_GROWTH``.
    Armijo backtracking from there measures descent from f_ref, the largest
    of the last ``NONMONOTONE_WINDOW`` accepted values (f(x0) first): a step
    is accepted when f_new <= f_ref - ARMIJO_SLOPE * ||x - x_new||^2 / step.
    The objective never rises above f_ref, so a solve never ends above
    f(x0); a step that does raises ``SolverDivergedError``. Convergence is
    declared on the gradient-mapping norm ||x - P(x - s g)|| / s at the
    accepted step. A converged solve returns its last point. A solve that
    ends in ``maxiter`` or ``step-underflow`` returns the accepted point
    with the lowest objective, since a nonmonotone run may end above it,
    with the gradient-mapping norm of the step that reached that point.
    """
    x = np.asarray(x0, dtype=np.float64).copy()
    fx = float(fun(x))
    if not np.isfinite(fx):
        raise SolverDivergedError("non-finite objective at the initial point", 0)
    step = INIT_STEP
    grad_map_norm = np.inf
    flags: list[str] = []
    iterations = 0
    x_prev = g_prev = None
    window = deque([fx], maxlen=NONMONOTONE_WINDOW)
    best = None  # (value, point, grad_map_norm) of the lowest accepted point
    for it in range(1, cfg.max_iters + 1):
        iterations = it
        g = grad(x)
        if x_prev is not None:
            s, dg = x - x_prev, g - g_prev
            sy = float(np.add.reduce(s * dg))
            step = float(np.add.reduce(s * s)) / sy if sy > 0 else step * STEP_GROWTH
            step = min(step, _MAX_STEP)
        f_ref = max(window)
        accepted = False
        while step >= _MIN_STEP:
            x_new = project(x - step * g)
            delta = x - x_new
            sq = float(np.add.reduce(delta * delta))
            f_new = float(fun(x_new))
            if not np.isfinite(f_new):
                raise SolverDivergedError("non-finite objective", it)
            if f_new <= f_ref - ARMIJO_SLOPE * sq / step:
                accepted = True
                break
            step *= ARMIJO_SHRINK
        if not accepted:
            # Step underflow: no descent direction at numerical resolution.
            flags.append("step-underflow")
            grad_map_norm = 0.0
            break
        grad_map_norm = np.sqrt(sq) / step
        # The Armijo test keeps every value at or below f_ref <= f(x0); keep
        # that invariant hard.
        if f_new > f_ref + 1e-12 * max(1.0, abs(f_ref)):
            raise SolverDivergedError("objective increased", it)
        x_prev, g_prev = x, g
        x, fx = x_new, f_new
        window.append(fx)
        if grad_map_norm <= cfg.tol:
            break
        if best is None or fx < best[0]:
            best = (fx, x, grad_map_norm)
    else:
        flags.append("maxiter")
    if flags and best is not None and best[0] < fx:
        fx, x, grad_map_norm = best
    return ErmSolution(theta_hat=x, objective=fx, grad_map_norm=float(grad_map_norm),
                       iterations=iterations, flags=flags)
