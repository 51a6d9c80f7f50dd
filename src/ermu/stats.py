"""Bootstrap intervals, two-sample KS, and the bounded-Lipschitz gap.

The bounded-Lipschitz dictionary contains the ramp functions

    u_{delta,rho}(t) = clip((t - rho) / delta, 0, 1)

on a (delta, rho) grid derived from the pooled samples, plus a clipped
identity and a clipped quadratic.
"""

from __future__ import annotations

from dataclasses import dataclass

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


# The dictionary's functions, in row order: 15 ramps, then two clipped polynomials.
BL_NAMES = tuple(f"ramp{k}" for k in range(15)) + ("clipped-identity", "clipped-quadratic")


def bl_dictionary(pooled: np.ndarray, t: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The (delta, rho) of each ramp of the dictionary built from ``pooled``, a
    15×2 array, and the dictionary's K×T values at ``t``, one row per name in
    ``BL_NAMES``.

    Rows 0-14 are the ramps on the (delta, rho) grid, delta-major: rho runs
    over the 0.1, 0.25, 0.5, 0.75 and 0.9 quantiles of the pooled samples
    and delta over 0.5, 1 and 2 times their spread. Rows 15 and 16 are the
    clipped identity and the clipped quadratic.
    """
    pooled = np.asarray(pooled, dtype=np.float64)
    t = np.asarray(t, dtype=np.float64)
    if pooled.size == 0:
        raise InvalidArgumentError("empty pooled sample")
    center = float(np.median(pooled))
    spread = float(pooled.std())
    if spread <= 0:
        spread = max(1e-8, abs(center) * 1e-3 + 1e-8)
    rhos = np.quantile(pooled, [0.1, 0.25, 0.5, 0.75, 0.9])
    deltas = np.array([0.5 * spread, spread, 2.0 * spread])
    ramps = np.column_stack([np.repeat(deltas, 5), np.tile(rhos, 3)])
    values = np.clip((t - ramps[:, 1:]) / ramps[:, :1], 0.0, 1.0)
    bound = abs(center) + 4.0 * spread
    c = np.clip(t - center, -bound, bound)
    return ramps, np.vstack([values, np.clip(t, -bound, bound), c * c / (2.0 * bound)])


@dataclass
class BlGapResult:
    per_psi: dict[str, float]  # keyed by BL_NAMES
    ramps: dict[str, dict[str, float]]  # each ramp's {"delta", "rho"}
    max_gap: float
    argmax: str
    ci_lo: float
    ci_hi: float
    se: float


def bl_gap(
    a: np.ndarray,
    b: np.ndarray,
    n_boot: int = 2000,
    seed: int = 0,
    level: float = 0.95,
) -> BlGapResult:
    """Max over the dictionary of |mean psi(a) - mean psi(b)|, with a percentile
    bootstrap CI at ``level``.

    ``a`` and ``b`` have the same size T. All resample indices are drawn at
    once as an (n_boot, 2, T) array: row r holds resample r of a, then of b.
    Each resample mean adds its T values in index order: one K×n_boot
    gather of each arm's dictionary values per sample position.
    """
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    if a.size == 0 or b.size == 0:
        raise InvalidArgumentError("samples must be nonempty")
    if a.size != b.size:
        raise InvalidArgumentError(f"samples must have the same size, got {a.size} and {b.size}")
    pooled = np.concatenate([a, b])
    ramps, psi = bl_dictionary(pooled, pooled)
    psi_a, psi_b = psi[:, : a.size], psi[:, a.size :]
    gaps = np.abs(psi_a.mean(axis=1) - psi_b.mean(axis=1))
    best = int(np.argmax(gaps))
    idx = rng_from(seed, "bl-bootstrap").integers(0, a.size, size=(n_boot, 2, a.size))

    def resample_means(values, rows):
        total = values[:, rows[:, 0]]
        for column in range(1, a.size):
            total += values[:, rows[:, column]]
        return total / a.size

    boot = np.abs(resample_means(psi_a, idx[:, 0]) - resample_means(psi_b, idx[:, 1])).max(axis=0)
    alpha = 0.5 * (1.0 - level)
    lo, hi = np.quantile(boot, [alpha, 1.0 - alpha])
    return BlGapResult(
        per_psi={name: float(gap) for name, gap in zip(BL_NAMES, gaps)},
        ramps={name: {"delta": float(d), "rho": float(r)} for name, (d, r) in zip(BL_NAMES, ramps)},
        max_gap=float(gaps[best]),
        argmax=BL_NAMES[best],
        ci_lo=float(lo),
        ci_hi=float(hi),
        se=float(boot.std(ddof=1)) if n_boot > 1 else 0.0,
    )
