"""Quadrature helpers for expectations under N(0, 1).

numpy's ``hermgauss`` targets the weight e^{-x^2}; the change of variables
x = sqrt(2) t and weight division by sqrt(pi) turn it into an expectation
against the standard normal density. ``normal_panel_nodes`` is a composite
Gauss-Legendre rule against that density, for integrands with kinks.
"""

from __future__ import annotations

import math
from functools import lru_cache
from typing import Callable

import numpy as np
from numpy.polynomial.hermite import hermgauss
from numpy.polynomial.legendre import leggauss


@lru_cache(maxsize=16)
def gaussian_nodes(n_nodes: int) -> tuple[np.ndarray, np.ndarray]:
    """Nodes and weights such that sum(w * f(x)) ~= E[f(G)], G ~ N(0,1)."""
    x, w = hermgauss(n_nodes)
    return np.sqrt(2.0) * x, w / np.sqrt(np.pi)


def normal_panel_nodes(edges: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Nodes and weights such that sum(w * f(x)) ~= E[f(G); edges[0] <= G <= edges[-1]].

    An 8-point Gauss-Legendre rule on each panel between consecutive
    ``edges``, with the standard normal density folded into the weights. A
    kink of f at an edge costs no accuracy; symmetric edges give nodes in
    +- pairs.
    """
    x, w = leggauss(8)
    edges = np.asarray(edges, dtype=np.float64)
    half = 0.5 * np.diff(edges)[:, None]
    nodes = (half * x + (edges[:-1, None] + half)).ravel()
    weights = (half * w).ravel() * np.exp(-0.5 * nodes * nodes) / math.sqrt(2.0 * math.pi)
    return nodes, weights


def gaussian_expectation(f: Callable[[np.ndarray], np.ndarray], n_nodes: int = 100) -> float:
    """E[f(G)] for G ~ N(0,1) by Gauss-Hermite quadrature."""
    x, w = gaussian_nodes(n_nodes)
    return float(np.dot(w, f(x)))


def gaussian_expectation_pair(
    f: Callable[[np.ndarray], np.ndarray],
    g: Callable[[np.ndarray], np.ndarray],
    rho: float,
    n_nodes: int = 200,
) -> float:
    """E[f(U) g(V)] for (U, V) standard bivariate normal with correlation rho.

    Tensor-product quadrature on the representation V = rho U + sqrt(1-rho^2) Z
    with Z independent of U.
    """
    x, w = gaussian_nodes(n_nodes)
    u = x[:, None]
    v = rho * x[:, None] + np.sqrt(max(0.0, 1.0 - rho * rho)) * x[None, :]
    vals = f(u) * g(v)
    return float(w @ vals @ w)


def hermite_coefficients(
    f: Callable[[np.ndarray], np.ndarray], order: int, n_nodes: int = 200
) -> np.ndarray:
    """Coefficients c_k = E[f(G) he_k(G)], k = 0..order, in the orthonormal basis."""
    x, w = gaussian_nodes(n_nodes)
    wf = w * f(x)
    out = np.empty(order + 1)
    he_prev, he = np.zeros_like(x), np.ones_like(x)
    for k in range(order + 1):  # he_k = He_k / sqrt(k!) by its three-term recurrence
        out[k] = float(np.dot(wf, he))
        he_prev, he = he, (x * he - math.sqrt(k) * he_prev) / math.sqrt(k + 1)
    return out
