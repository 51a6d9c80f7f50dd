"""Fast property suite behind ``ermu selftest``.

Covers every module with desk-scale instances (n <= 400), printing one
PASS/FAIL line per check. The whole suite takes well under a second
(about 0.3 s on a 2-core machine).
"""

from __future__ import annotations

import math
import tempfile
import time
from dataclasses import replace
from pathlib import Path

import numpy as np

from ermu.config import config_from_dict
from ermu.erm import (
    ConstraintSet,
    ErmProblem,
    Labeler,
    Loss,
    Regularizer,
    SolverConfig,
    generate_labels,
    solve_erm,
    solve_ridge_closed_form,
    train_risk,
    train_risk_grad,
)
from ermu.features import Activation, FeatureModel, nt_theta_matrix, sample_sphere_weights
from ermu.free_energy import candidate_risks, entropy_sandwich_check, random_net
from ermu.gaussian import (
    GaussianEquivalent,
    factor_covariance,
    mc_covariance,
    rf_covariance_hermite,
)
from ermu.quadrature import gaussian_expectation_pair
from ermu.seeds import rng_from
from ermu.stats import ks_statistic
from ermu.universality import (
    FamilySpec,
    ProblemSpec,
    TwinTestRisk,
    build_instance,
    run_single_trial,
)


def _check(name: str, fn) -> bool:
    t0 = time.monotonic()
    try:
        fn()
        print(f"PASS {name} ({time.monotonic() - t0:.2f} s)")
        return True
    except Exception as exc:  # noqa: BLE001 - report and continue
        print(f"FAIL {name}: {exc} ({time.monotonic() - t0:.2f} s)")
        return False


def _activation_moments():
    tanh = Activation("tanh-rf").moment_checks()
    assert abs(tanh["mean_sigma"]) <= 1e-10
    nt = Activation("shifted-sine-nt").moment_checks()
    assert abs(nt["mean_sigma_prime"]) <= 1e-10
    assert abs(nt["mean_g_sigma_prime"]) <= 1e-10


def _sphere_weights():
    W = sample_sphere_weights(50, 50, seed=7)
    norms = np.linalg.norm(W, axis=0)
    assert np.abs(norms - 1.0).max() <= 1e-12
    corr = np.abs(W.T @ W - np.eye(50))
    assert corr[np.triu_indices(50, 1)].mean() <= 0.2


def _covariance_triangle():
    act = Activation("custom-hermite", hermite_coeffs=(0.0, 0.6, 0.3, 0.1))
    W = sample_sphere_weights(16, 16, seed=3)
    sigma_h = rf_covariance_hermite(W, np.array(act.hermite_coeffs), order=3)
    model = FeatureModel(family="random-features", d=16, p=16, W=W, activation=act)
    sigma_mc = mc_covariance(model, 30000, seed=11)
    assert np.abs(sigma_h - sigma_mc).max() <= 4e-2
    rho = float(W[:, 0] @ W[:, 1])
    quad = gaussian_expectation_pair(act.value, act.value, rho, n_nodes=120)
    assert abs(quad - sigma_h[0, 1]) <= 1e-6
    L = factor_covariance(sigma_h, 1e-10)
    target = sigma_h + (1e-10 * np.trace(sigma_h) / 16) * np.eye(16)
    assert np.array_equal(L, np.tril(L)), "factor is not lower-triangular"
    assert np.abs(L @ L.T - target).max() <= 1e-12 * np.abs(target).max()


def _ridge_exactness():
    rng = rng_from(5, "selftest-ridge")
    X = rng.standard_normal((120, 40))
    y = rng.standard_normal(120)
    theta, obj = solve_ridge_closed_form(X, y, 0.1)
    problem = ErmProblem(
        loss=Loss("squared"),
        labeler=Labeler(),
        theta_star=np.zeros(40),
        regularizer=Regularizer("ridge", 0.1),
        constraint=ConstraintSet("l2-ball", R=float("inf")),
    )
    sol = solve_erm(problem, X, y, SolverConfig(tol=1e-10))
    assert abs(sol.objective - obj) / obj <= 1e-6


def _gradient_check():
    rng = rng_from(9, "selftest-grad")
    X = rng.standard_normal((30, 12))
    problem = ErmProblem(
        loss=Loss("huber", delta=1.0),
        labeler=Labeler(tau=0.3),
        theta_star=rng.standard_normal(12) / math.sqrt(12),
        regularizer=Regularizer("ridge", 0.05),
        constraint=ConstraintSet("l2-ball", R=10.0),
    )
    y = generate_labels(problem, X, seed=4)
    theta = rng.standard_normal(12) * 0.3
    g = train_risk_grad(problem, theta, X, y)
    h = 1e-5
    for _ in range(5):
        direction = rng.standard_normal(12)
        direction /= np.linalg.norm(direction)
        fd = (
            train_risk(problem, theta + h * direction, X, y)
            - train_risk(problem, theta - h * direction, X, y)
        ) / (2 * h)
        assert abs(fd - float(np.sum(g * direction))) <= 1e-5 * max(1.0, abs(fd))


def _projections():
    rng = rng_from(13, "selftest-proj")
    cset = ConstraintSet("l2-ball", R=1.0)
    for _ in range(25):
        a, b = rng.standard_normal(8), rng.standard_normal(8)
        pa, pb = cset.project_column(a), cset.project_column(b)
        assert np.linalg.norm(pa - pb) <= np.linalg.norm(a - b) + 1e-12
        assert np.allclose(cset.project_column(pa), pa)
    nt = ConstraintSet("nt-operator-ball", R=1.0, d=4, m=3, p=12)
    v = rng.standard_normal(12) * 5
    proj = nt.project_column(v)
    top = np.linalg.svd(nt_theta_matrix(proj, nt.d, nt.m), compute_uv=False)[0]
    assert top <= nt.R / math.sqrt(nt.d) + 1e-10


def _free_energy_props():
    rng = rng_from(17, "selftest-fe")
    problem = ErmProblem(
        loss=Loss("huber"),
        labeler=Labeler(tau=0.5),
        theta_star=rng.standard_normal(10) / math.sqrt(10),
        regularizer=Regularizer("ridge", 0.1),
        constraint=ConstraintSet("l2-ball", R=2.0),
    )
    X = rng.standard_normal((64, 10))
    y = generate_labels(problem, X, seed=2)
    candidates = random_net(problem, 64, seed=23)
    risks = candidate_risks(candidates, problem, X, y)
    check = entropy_sandwich_check(risks, X.shape[0], [0.1, 1.0, 10.0, 100.0])
    assert check["sandwich_ok"] and check["monotone_ok"], f"offending betas {check['offending_betas']}"


def _twin_risk_paths():
    # Huber loss with linear labels takes the twin test risk in closed form;
    # the node grid every other case takes must agree within its 2e-4.
    rng = rng_from(19, "selftest-twin-risk")
    p = 12
    problem = ErmProblem(
        loss=Loss("huber"),
        labeler=Labeler(tau=0.5),
        theta_star=rng.standard_normal(p) / math.sqrt(p),
        regularizer=Regularizer("ridge", 0.1),
        constraint=ConstraintSet("l2-ball", R=3.0),
    )
    risk = TwinTestRisk(problem, GaussianEquivalent(factor=rng.standard_normal((p, p)) / math.sqrt(p)))
    assert risk.closed_form
    for scale in (0.3, 1.5, 4.0):
        theta = 0.7 * problem.theta_star + scale * rng.standard_normal(p) / math.sqrt(p)
        exact, grid = risk.value(theta), risk._grid_value(theta)
        assert abs(exact - grid) <= 2e-4 * exact, f"closed form {exact!r}, grid {grid!r}"


def _null_trial_gap():
    spec = FamilySpec(id="control", kind="control-gaussian", radius=3.0)
    prob = ProblemSpec(loss="huber", tau=0.5, lam=0.1)
    inst = build_instance(spec, prob, 120, master_seed=999)
    gaps = []
    for t in range(8):
        rx, rg = run_single_trial(inst, t, 999, SolverConfig(), n_test=64)
        gaps.append(rx.train_opt - rg.train_opt)
    gaps = np.array(gaps)
    se = gaps.std(ddof=1) / math.sqrt(len(gaps))
    assert abs(gaps.mean()) <= 5 * se + 1e-3, f"gap {gaps.mean():.4g} vs se {se:.4g}"


def _determinism(threads: int):
    from ermu.campaign import run_campaign

    cfg = config_from_dict(
        {
            "master_seed": 77,
            "trials": 3,
            "ladder": [60],
            "families": [{"id": "lin", "kind": "linear-independent"}],
            "problem": {"loss": "huber", "tau": 0.5, "lambda": 0.1},
            "test_risk": {"n_test": 50},
        }
    )
    with tempfile.TemporaryDirectory() as tmp:
        a, b = Path(tmp) / "a", Path(tmp) / "b"
        run_campaign(cfg, a)
        run_campaign(replace(cfg, threads=threads), b)
        assert (a / "trials.csv").read_bytes() == (b / "trials.csv").read_bytes()


def _ks_sanity():
    rng = rng_from(29, "selftest-ks")
    a = rng.standard_normal(500)
    assert ks_statistic(a, a) == 0.0
    assert ks_statistic(np.zeros(4), np.ones(4)) == 1.0


def run_selftest(threads: int = 1) -> bool:
    checks = [
        ("activation-moments", _activation_moments),
        ("sphere-weights", _sphere_weights),
        ("covariance-triangle", _covariance_triangle),
        ("ridge-exactness", _ridge_exactness),
        ("gradient-finite-differences", _gradient_check),
        ("projections", _projections),
        ("free-energy-sandwich", _free_energy_props),
        ("twin-risk-closed-form", _twin_risk_paths),
        ("null-trial-gap", _null_trial_gap),
        ("ks-statistic", _ks_sanity),
        ("determinism", lambda: _determinism(max(1, threads))),
    ]
    t0 = time.monotonic()
    ok = all([_check(name, fn) for name, fn in checks])
    print(f"{'OK' if ok else 'FAILED'} selftest in {time.monotonic() - t0:.1f} s")
    return ok


if __name__ == "__main__":
    raise SystemExit(0 if run_selftest() else 1)
