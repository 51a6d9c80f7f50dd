"""Nonmonotone spectral projected gradient, and its config.

Each iteration tries a first step and shrinks it by ``armijo_shrink`` until
the Armijo test holds. The first step of the first iteration is
``init_step``; later ones are the Barzilai-Borwein step s's / s'y from the
last change in point and gradient (Barzilai & Borwein, IMA J. Numer. Anal.
1988; spectral projected gradient: Birgin, Martinez & Raydan, SIAM J. Optim.
2000), or the last accepted step times ``step_growth`` when s'y <= 0 gives
no curvature estimate. The Armijo test is nonmonotone (Grippo, Lampariello
& Lucidi, SIAM J. Numer. Anal. 1986): it measures descent from the largest
of the last ``NONMONOTONE_WINDOW`` accepted objective values, so a
Barzilai-Borwein step that rises a little above the current value is taken
as it stands instead of being backtracked. That reference never exceeds the
value at the start, so a solve never ends above its initial point.

Kept generic: the ERM layer (plain and perturbed solves) and the
near-minimizer penalty objectives all funnel through ``pgd_minimize`` with
their own closures.
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


@dataclass(frozen=True)
class SolverConfig:
    """PGD settings; ``restarts`` is read by the ERM restart loop only."""

    max_iters: int = 5000
    tol: float = 1e-8
    restarts: int = 1
    armijo_shrink: float = 0.5
    armijo_slope: float = 1e-4
    init_step: float = 1.0
    step_growth: float = 2.0

    def __post_init__(self):
        check(self.max_iters >= 1, "max_iters must be >= 1")
        # A shrink factor of 1 or more never ends the backtracking loop.
        check(0 < self.armijo_shrink < 1, "armijo_shrink must be in (0, 1)")
        # A slope of 1 or more fails every step, so every solve ends in
        # step-underflow; a negative one accepts uphill steps.
        check(0 < self.armijo_slope < 1, "armijo_slope must be in (0, 1)")
        check(self.init_step > 0, "init_step must be positive")
        check(self.step_growth >= 1, "step_growth must be >= 1")


@dataclass
class PgdState:
    x: np.ndarray
    value: float
    grad_map_norm: float
    iterations: int
    flags: list[str] = field(default_factory=list)


def pgd_minimize(
    fun: Callable[[np.ndarray], float],
    grad: Callable[[np.ndarray], np.ndarray],
    project: Callable[[np.ndarray], np.ndarray],
    x0: np.ndarray,
    cfg: SolverConfig = SolverConfig(),
) -> PgdState:
    """Minimize a smooth function over a convex set by projected gradient.

    The first trial step is ``init_step``, then the Barzilai-Borwein step
    s's / s'y with s = x_k - x_{k-1} and y = g_k - g_{k-1}, capped at 1e12;
    when s'y <= 0 it is the last accepted step times ``step_growth``.
    Armijo backtracking from there measures descent from f_ref, the largest
    of the last ``NONMONOTONE_WINDOW`` accepted values (f(x0) first): a step
    is accepted when f_new <= f_ref - armijo_slope * ||x - x_new||^2 / step.
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
    step = cfg.init_step
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
            sy = float(np.sum(s * dg))
            step = float(np.sum(s * s)) / sy if sy > 0 else step * cfg.step_growth
            step = min(step, _MAX_STEP)
        f_ref = max(window)
        accepted = False
        while step >= _MIN_STEP:
            x_new = project(x - step * g)
            delta = x - x_new
            sq = float(np.sum(delta * delta))
            f_new = float(fun(x_new))
            if not np.isfinite(f_new):
                raise SolverDivergedError("non-finite objective", it)
            if f_new <= f_ref - cfg.armijo_slope * sq / step:
                accepted = True
                break
            step *= cfg.armijo_shrink
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
    return PgdState(x=x, value=fx, grad_map_norm=float(grad_map_norm), iterations=iterations, flags=flags)
