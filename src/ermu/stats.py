"""Bootstrap intervals, two-sample KS, and the bounded-Lipschitz gap.

The bounded-Lipschitz dictionary contains the ramp functions

    u_{delta,rho}(t) = clip((t - rho) / delta, 0, 1)

on a (delta, rho) grid derived from the pooled samples, plus a clipped
identity and a clipped quadratic.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from ermu.errors import InvalidArgumentError
from ermu.seeds import rng_from


def bootstrap_mean_ci(
    values: np.ndarray,
    n_boot: int = 2000,
    seed: int = 0,
    level: float = 0.95,
) -> tuple[float, float, float, float]:
    """Percentile bootstrap of the mean: (mean, lo, hi, se)."""
    values = np.asarray(values, dtype=np.float64)
    if values.size == 0:
        raise InvalidArgumentError("empty sample")
    mean = float(values.mean())
    if values.size == 1:
        return mean, mean, mean, 0.0
    rng = rng_from(seed, "bootstrap")
    idx = rng.integers(0, values.size, size=(n_boot, values.size))
    means = values[idx].mean(axis=1)
    alpha = 0.5 * (1.0 - level)
    lo, hi = np.quantile(means, [alpha, 1.0 - alpha])
    return mean, float(lo), float(hi), float(means.std(ddof=1))


def ks_statistic(a: np.ndarray, b: np.ndarray) -> float:
    """Two-sample Kolmogorov-Smirnov statistic via a merge scan."""
    a = np.sort(np.asarray(a, dtype=np.float64))
    b = np.sort(np.asarray(b, dtype=np.float64))
    if a.size == 0 or b.size == 0:
        raise InvalidArgumentError("samples must be nonempty")
    pooled = np.concatenate([a, b])
    pooled.sort(kind="mergesort")
    cdf_a = np.searchsorted(a, pooled, side="right") / a.size
    cdf_b = np.searchsorted(b, pooled, side="right") / b.size
    return float(np.abs(cdf_a - cdf_b).max())


def ks_null_quantile(
    n_a: int, n_b: int, level: float = 0.99, n_sims: int = 2000, seed: int = 0
) -> float:
    """Simulated null quantile of the two-sample KS statistic.

    Each simulation is one row of normals, the first ``n_a`` for sample a
    and the rest for b. Its statistic is the largest gap between the two
    running empirical CDFs along the row's sorted order, which equals
    ``ks_statistic`` of the two samples when they have no ties.
    """
    rng = rng_from(seed, "ks-null", n_a, n_b)
    order = np.argsort(rng.standard_normal((n_sims, n_a + n_b)), axis=1)
    is_a = order < n_a
    gaps = np.cumsum(is_a, axis=1) / n_a - np.cumsum(~is_a, axis=1) / n_b
    return float(np.quantile(np.abs(gaps).max(axis=1), level))


@dataclass(frozen=True)
class PsiFunction:
    name: str
    fn: Callable[[np.ndarray], np.ndarray]


def ramp(delta: float, rho: float) -> PsiFunction:
    """The ramp 0 below rho, linear on [rho, rho + delta), 1 above."""
    if delta <= 0:
        raise InvalidArgumentError("delta must be positive")

    def fn(t: np.ndarray) -> np.ndarray:
        return np.clip((np.asarray(t, dtype=np.float64) - rho) / delta, 0.0, 1.0)

    return PsiFunction(name=f"ramp(d={delta:.6g},r={rho:.6g})", fn=fn)


def default_psi_dictionary(pooled: np.ndarray) -> list[PsiFunction]:
    """Ramps on a quantile grid of the pooled samples plus clipped polynomials."""
    pooled = np.asarray(pooled, dtype=np.float64)
    if pooled.size == 0:
        raise InvalidArgumentError("empty pooled sample")
    center = float(np.median(pooled))
    spread = float(pooled.std())
    if spread <= 0:
        spread = max(1e-8, abs(center) * 1e-3 + 1e-8)
    rhos = np.quantile(pooled, [0.1, 0.25, 0.5, 0.75, 0.9])
    deltas = [0.5 * spread, spread, 2.0 * spread]
    psis = [ramp(d, float(r)) for d in deltas for r in rhos]
    bound = abs(center) + 4.0 * spread

    def clipped_identity(t):
        return np.clip(t, -bound, bound)

    def clipped_quadratic(t):
        c = np.clip(t - center, -bound, bound)
        return c * c / (2.0 * bound)

    psis.append(PsiFunction("clipped-identity", clipped_identity))
    psis.append(PsiFunction("clipped-quadratic", clipped_quadratic))
    return psis


@dataclass
class BlGapResult:
    per_psi: dict[str, float]
    max_gap: float
    argmax: str
    ci_lo: float
    ci_hi: float
    se: float


def bl_gap(
    a: np.ndarray,
    b: np.ndarray,
    psi_dictionary: Sequence[PsiFunction] | None = None,
    n_boot: int = 2000,
    seed: int = 0,
    level: float = 0.95,
) -> BlGapResult:
    """Max over the dictionary of |mean psi(a) - mean psi(b)|, with a percentile
    bootstrap CI at ``level``.

    ``a`` and ``b`` have the same size T. All resample indices are drawn at
    once as an (n_boot, 2, T) array: row r holds resample r of a, then of b.
    Each resample mean adds its T values in index order.
    """
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    if a.size == 0 or b.size == 0:
        raise InvalidArgumentError("samples must be nonempty")
    if a.size != b.size:
        raise InvalidArgumentError(f"samples must have the same size, got {a.size} and {b.size}")
    if psi_dictionary is None:
        psi_dictionary = default_psi_dictionary(np.concatenate([a, b]))
    per_psi: dict[str, float] = {}
    psi_a = np.empty((len(psi_dictionary), a.size))
    psi_b = np.empty((len(psi_dictionary), b.size))
    for i, psi in enumerate(psi_dictionary):
        psi_a[i] = psi.fn(a)
        psi_b[i] = psi.fn(b)
        per_psi[psi.name] = float(abs(psi_a[i].mean() - psi_b[i].mean()))
    gaps = np.abs(psi_a.mean(axis=1) - psi_b.mean(axis=1))
    best = int(np.argmax(gaps))
    idx = rng_from(seed, "bl-bootstrap").integers(0, a.size, size=(n_boot, 2, a.size))

    def resample_means(values, rows):  # each mean sums its T values in index order
        return values[rows].cumsum(axis=1)[:, -1] / a.size

    boot = np.max(
        [np.abs(resample_means(fa, idx[:, 0]) - resample_means(fb, idx[:, 1]))
         for fa, fb in zip(psi_a, psi_b)],
        axis=0,
    )
    alpha = 0.5 * (1.0 - level)
    lo, hi = np.quantile(boot, [alpha, 1.0 - alpha])
    return BlGapResult(
        per_psi=per_psi,
        max_gap=float(gaps[best]),
        argmax=psi_dictionary[best].name,
        ci_lo=float(lo),
        ci_hi=float(hi),
        se=float(boot.std(ddof=1)) if n_boot > 1 else 0.0,
    )
