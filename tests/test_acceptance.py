"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s``. The campaign used by
criteria 6, 7 and 10 is executed once per session and cached in a module
fixture; criterion 10 reruns it from scratch to compare bytes.

Criteria are statistical trend checks at desk scale and run at a fixed
master seed, so the suite is deterministic.
"""

import json
import math
import time

import numpy as np
import pytest

from ermu.campaign import run_campaign
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
from ermu.features import Activation, FeatureModel, sample_sphere_weights
from ermu.free_energy import (
    candidate_risks,
    entropy_sandwich_check,
    random_net,
    solution_cloud,
)
from ermu.gaussian import GaussianEquivalent, mc_covariance, rf_covariance_hermite
from ermu.quadrature import gaussian_expectation, gaussian_expectation_pair
from ermu.report import build_report
from ermu.seeds import derive_seed, rng_from
from ermu.universality import (
    FamilySpec,
    FrozenTestRisk,
    ProblemSpec,
    build_instance,
    perturbed_sweep,
    run_single_trial,
)

MASTER_SEED = 20260809
THREADS = 4


def _verdict(criterion: int, ok: bool, detail: str) -> None:
    print(f"\n[criterion {criterion:2d}] {'PASS' if ok else 'FAIL'}: {detail}")
    assert ok, detail


# ---------------------------------------------------------------------------
# Criterion 1: activation moment conditions by quadrature
# ---------------------------------------------------------------------------


def test_criterion_01_activation_moments():
    t0 = time.monotonic()
    e_tanh = gaussian_expectation(np.tanh, 100)
    nt = Activation("shifted-sine-nt")
    e_sp = gaussian_expectation(nt.derivative, 100)
    e_gsp = gaussian_expectation(lambda x: x * nt.derivative(x), 100)
    elapsed = time.monotonic() - t0
    ok = abs(e_tanh) <= 1e-10 and abs(e_sp) <= 1e-10 and abs(e_gsp) <= 1e-10 and elapsed < 1.0
    _verdict(
        1,
        ok,
        f"|E tanh|={abs(e_tanh):.2e}, |E s'|={abs(e_sp):.2e}, "
        f"|E G s'|={abs(e_gsp):.2e} (all <= 1e-10), {elapsed:.2f} s < 1 s",
    )


# ---------------------------------------------------------------------------
# Criterion 2: covariance oracle triangle at d = p = 32
# ---------------------------------------------------------------------------


def test_criterion_02_covariance_triangle():
    t0 = time.monotonic()
    coeffs = np.array([0.0, 0.6, 0.3, 0.1])
    act = Activation("custom-hermite", hermite_coeffs=tuple(coeffs))
    W = sample_sphere_weights(32, 32, seed=MASTER_SEED)
    sigma_h = rf_covariance_hermite(W, coeffs, order=3)

    rho = np.clip(W.T @ W, -1.0, 1.0)
    sigma_q = np.empty((32, 32))
    for i in range(32):
        sigma_q[i, i] = gaussian_expectation(lambda x: act.value(x) ** 2, 200)
        for j in range(i + 1, 32):
            sigma_q[i, j] = sigma_q[j, i] = gaussian_expectation_pair(
                act.value, act.value, float(rho[i, j]), n_nodes=200
            )

    model = FeatureModel(family="random-features", d=32, p=32, W=W, activation=act)
    sigma_mc = mc_covariance(model, 100_000, seed=MASTER_SEED + 1)

    d_hq = float(np.abs(sigma_h - sigma_q).max())
    d_hm = float(np.abs(sigma_h - sigma_mc).max())
    d_qm = float(np.abs(sigma_q - sigma_mc).max())
    elapsed = time.monotonic() - t0
    ok = d_hq <= 1e-3 and d_hm <= 2e-2 and d_qm <= 2e-2 and elapsed < 30.0
    _verdict(
        2,
        ok,
        f"hermite-quadrature {d_hq:.2e} <= 1e-3, hermite-MC {d_hm:.2e} <= 2e-2, "
        f"quadrature-MC {d_qm:.2e} <= 2e-2, {elapsed:.1f} s < 30 s",
    )


# ---------------------------------------------------------------------------
# Criterion 3: ridge exactness and gradient finite differences
# ---------------------------------------------------------------------------


def test_criterion_03_ridge_exactness_and_gradients():
    t0 = time.monotonic()
    rng = rng_from(MASTER_SEED, "ridge-exact")
    n, p, lam = 200, 100, 0.1
    X = rng.standard_normal((n, p))
    theta_true = rng.standard_normal(p) / math.sqrt(p)
    y = X @ theta_true + 0.5 * rng.standard_normal(n)
    theta_cf, obj_cf = solve_ridge_closed_form(X, y, lam)
    problem = ErmProblem(
        loss=Loss("squared"),
        labeler=Labeler(),
        theta_star=np.zeros(p),
        regularizer=Regularizer("ridge", lam),
        constraint=ConstraintSet("l2-ball", R=float("inf")),
    )
    sol = solve_erm(problem, X, y, SolverConfig(tol=1e-10))
    rel_gap = abs(sol.objective - obj_cf) / obj_cf

    # gradient finite-difference suite over every differentiable combination
    max_rel_err = 0.0
    for loss in ("logistic", "huber", "squared", "pseudo-huber"):
        for lam_g in (0.0, 0.2):
            for eta in ("linear", "clipped-linear", "sign-smooth"):
                pg = 9
                rng_g = rng_from(MASTER_SEED, "fd", loss, eta, int(10 * lam_g))
                prob_g = ErmProblem(
                    loss=Loss(loss),
                    labeler=Labeler(eta_kind=eta, tau=0.4),
                    theta_star=rng_g.standard_normal(pg) / 3,
                    regularizer=Regularizer("ridge" if lam_g else "none", lam_g),
                    constraint=ConstraintSet("l2-ball", R=float("inf")),
                )
                Xg = rng_g.standard_normal((20, pg))
                yg = generate_labels(prob_g, Xg, seed=3)
                h = 1e-5
                for _ in range(20):
                    theta = rng_g.standard_normal(pg) * 0.5
                    g = train_risk_grad(prob_g, theta, Xg, yg)
                    d = rng_g.standard_normal(pg)
                    d /= np.linalg.norm(d)
                    fd = (
                        train_risk(prob_g, theta + h * d, Xg, yg)
                        - train_risk(prob_g, theta - h * d, Xg, yg)
                    ) / (2 * h)
                    rel = abs(fd - float(np.sum(g * d))) / max(1.0, abs(fd))
                    max_rel_err = max(max_rel_err, rel)
    elapsed = time.monotonic() - t0
    ok = rel_gap <= 1e-6 and max_rel_err <= 1e-5 and elapsed < 10.0
    _verdict(
        3,
        ok,
        f"PGD vs closed form rel gap {rel_gap:.2e} <= 1e-6, "
        f"max FD rel err {max_rel_err:.2e} <= 1e-5, {elapsed:.1f} s < 10 s",
    )


# ---------------------------------------------------------------------------
# Criterion 4: free-energy sandwich and monotonicity on random instances
# ---------------------------------------------------------------------------


def test_criterion_04_free_energy_sandwich():
    t0 = time.monotonic()
    betas = [0.1, 1.0, 10.0, 100.0]
    all_ok = True
    worst = ""
    for inst_idx in range(20):
        rng = rng_from(MASTER_SEED, "fe", inst_idx)
        n = int(rng.integers(16, 129))
        p = int(rng.integers(4, 33))
        M = int(rng.integers(2, 513))
        problem = ErmProblem(
            loss=Loss("huber"),
            labeler=Labeler(tau=0.5),
            theta_star=rng.standard_normal(p) / math.sqrt(p),
            regularizer=Regularizer("ridge", 0.1),
            constraint=ConstraintSet("l2-ball", R=2.0),
        )
        X = rng.standard_normal((n, p))
        y = generate_labels(problem, X, seed=inst_idx)
        if inst_idx % 2 == 0:
            candidates = random_net(problem, M, seed=inst_idx)
        else:
            sol = solve_erm(problem, X, y, SolverConfig())
            candidates = solution_cloud(problem, sol.theta_hat, M, alpha=0.5, seed=inst_idx)
        check = entropy_sandwich_check(candidate_risks(candidates, problem, X, y), n, betas)
        if not (check["sandwich_ok"] and check["monotone_ok"]):
            all_ok = False
            worst = f"instance {inst_idx}: offending betas {check['offending_betas']}"
    elapsed = time.monotonic() - t0
    ok = all_ok and elapsed < 20.0
    _verdict(
        4,
        ok,
        f"sandwich and monotonicity exact on 20 instances (n<=128, M<=512), "
        f"{elapsed:.1f} s < 20 s" + (f"; {worst}" if worst else ""),
    )


# ---------------------------------------------------------------------------
# Criterion 5: null calibration over 20 campaign repetitions
# ---------------------------------------------------------------------------


def test_criterion_05_null_calibration():
    t0 = time.monotonic()
    from ermu.stats import bootstrap_mean_ci

    spec = FamilySpec(id="control", kind="control-gaussian", gamma_p=0.75, radius=3.0)
    prob = ProblemSpec(loss="huber", tau=0.5, lam=0.1)
    covered = 0
    T = 50
    for rep in range(20):
        master = MASTER_SEED + 3000 + rep
        inst = build_instance(spec, prob, 400, master_seed=master)
        assert inst.p == 300
        gaps = []
        for t in range(T):
            rx, rg = run_single_trial(inst, t, master, SolverConfig(), n_test=0)
            gaps.append(rx.train_opt - rg.train_opt)
        idx = rng_from(master, "bootstrap").integers(0, T, size=(2000, T))
        _, lo, hi, _ = bootstrap_mean_ci(np.asarray(gaps), idx)
        if lo <= 0.0 <= hi:
            covered += 1
    elapsed = time.monotonic() - t0
    ok = covered >= 18 and elapsed < 600.0
    _verdict(
        5,
        ok,
        f"95% CI of null train gap covers 0 in {covered}/20 reps (need >= 18), "
        f"n=400 p=300 T=50, {elapsed:.0f} s < 600 s",
    )


# ---------------------------------------------------------------------------
# Criteria 6, 7, 10: the trend campaign (RF tanh + linear rademacher)
# ---------------------------------------------------------------------------


CAMPAIGN_RAW = {
    "master_seed": MASTER_SEED,
    "trials": 50,
    "ladder": [200, 400, 800],
    "threads": THREADS,
    "families": [
        {
            "id": "rf",
            "kind": "random-features",
            "activation": "tanh-rf",
            "gamma_p": 0.75,
            "gamma_d_over_p": 0.5,
            "radius": 3.0,
            "cov_mode": "hermite-exact",
            "hermite_order": 41,
        },
        {
            "id": "lin",
            "kind": "linear-independent",
            "entry_law": "rademacher",
            "gamma_p": 0.75,
            "radius": 3.0,
        },
    ],
    "problem": {"loss": "huber", "tau": 0.5, "lambda": 0.1},
    "solver": {"tol": 1e-8},
    "test_risk": {"n_test": 2000},
    "bootstrap": {"resamples": 2000},
}


@pytest.fixture(scope="module")
def trend_campaign(tmp_path_factory):
    out = tmp_path_factory.mktemp("trend") / "run1"
    config = config_from_dict(json.loads(json.dumps(CAMPAIGN_RAW)))
    t0 = time.monotonic()
    run_campaign(config, out)
    elapsed = time.monotonic() - t0
    from ermu.report import read_trials_csv

    rows = read_trials_csv(out / "trials.csv")
    report = build_report(rows, n_boot=2000, level=0.95)
    return {"out": out, "rows": rows, "report": report, "elapsed": elapsed, "config": config}


def test_criterion_06_train_error_trend(trend_campaign):
    report = trend_campaign["report"]
    elapsed = trend_campaign["elapsed"]
    details = []
    ok = elapsed < 1800.0
    for family in ("rf", "lin"):
        fam = report["families"][family]
        sizes = fam["sizes"]
        gaps = [abs(s["train_gap"]["mean"]) for s in sizes]
        ses = [s["train_gap"]["se"] for s in sizes]
        trend_ok = fam["trend"]["non_increasing_ok"]
        last = sizes[-1]
        within_3se = gaps[-1] <= 3.0 * ses[-1]
        ks_ok = last["ks"]["below_null"]
        ok = ok and trend_ok and within_3se and ks_ok
        details.append(
            f"{family}: |gap| ladder {[f'{g:.2e}' for g in gaps]} trend_ok={trend_ok}, "
            f"n=800 |gap|={gaps[-1]:.2e} <= 3se={3 * ses[-1]:.2e}: {within_3se}, "
            f"KS {last['ks']['statistic']:.3f} < q99 {last['ks']['null_q99']:.3f}: {ks_ok}"
        )
    _verdict(6, ok, f"campaign {elapsed:.0f} s < 1800 s; " + " | ".join(details))


def test_criterion_07_test_error_universality(trend_campaign):
    report = trend_campaign["report"]
    details = []
    ok = True
    for family in ("rf", "lin"):
        last = report["families"][family]["sizes"][-1]
        tg = last["test_gap"]
        within = abs(tg["mean"]) <= 3.0 * tg["se"]
        ok = ok and within
        details.append(
            f"{family}: |test gap|={abs(tg['mean']):.2e} <= 3se={3 * tg['se']:.2e}: {within}"
        )
    _verdict(7, ok, "strongly convex ridge, n=800: " + " | ".join(details))


def test_criterion_10_determinism(trend_campaign, tmp_path_factory):
    out2 = tmp_path_factory.mktemp("trend") / "run2"
    run_campaign(trend_campaign["config"], out2)
    b1 = (trend_campaign["out"] / "trials.csv").read_bytes()
    b2 = (out2 / "trials.csv").read_bytes()
    _verdict(
        10,
        b1 == b2,
        f"two campaign runs with master seed {MASTER_SEED} produce byte-identical "
        f"trials.csv ({len(b1)} bytes)",
    )


# ---------------------------------------------------------------------------
# Criterion 8: convex sandwich of the perturbed risks
# ---------------------------------------------------------------------------


def test_criterion_08_convex_sandwich():
    t0 = time.monotonic()
    all_ok = True
    details = []
    shrink_violations = 0
    for inst_idx in range(20):
        rng = rng_from(MASTER_SEED, "sandwich", inst_idx)
        n, p = 80, 60
        problem = ErmProblem(
            loss=Loss("huber"),
            labeler=Labeler(tau=0.5),
            theta_star=rng.standard_normal(p) / math.sqrt(p),
            regularizer=Regularizer("ridge", 0.2),
            constraint=ConstraintSet("l2-ball", R=3.0),
        )
        X = rng.standard_normal((n, p))
        y = generate_labels(problem, X, seed=inst_idx)
        equiv = GaussianEquivalent(factor=np.eye(p))
        seed = MASTER_SEED + inst_idx
        cfg = SolverConfig(tol=1e-10)
        sweep = perturbed_sweep(
            problem,
            X,
            y,
            solve_erm(problem, X, y, cfg),
            FrozenTestRisk(problem, equiv, 500, derive_seed(seed, "surrogate")),
            [0.01, -0.01, 0.1, -0.1],
            cfg=cfg,
        )
        slack = 2.0 * sweep.solver_gap
        if not sweep.sandwich_ok(slack):
            all_ok = False
            details.append(f"instance {inst_idx}: sandwich violated beyond slack {slack:.1e}")
        for s in (0.01, 0.1):
            if sweep.D[-s] - sweep.D[s] < -slack:
                all_ok = False
                details.append(f"instance {inst_idx}: D(-s)-D(s) negative at s={s}")
        if (sweep.D[-0.01] - sweep.D[0.01]) > (sweep.D[-0.1] - sweep.D[0.1]) + slack:
            shrink_violations += 1
    if shrink_violations > 2:
        all_ok = False
        details.append(f"{shrink_violations}/20 instances fail D-gap shrinkage")
    elapsed = time.monotonic() - t0
    ok = all_ok and elapsed < 300.0
    _verdict(
        8,
        ok,
        f"D(s) <= test(theta_0) <= D(-s) with slack <= 2x solver gap on 20 ridge "
        f"instances, gap shrinking with s ({shrink_violations}/20 exceptions), "
        f"{elapsed:.0f} s < 300 s" + ("; " + "; ".join(details) if details else ""),
    )


# ---------------------------------------------------------------------------
# Criterion 9: neural tangent smoke universality
# ---------------------------------------------------------------------------


def test_criterion_09_nt_smoke():
    t0 = time.monotonic()
    spec = FamilySpec(
        id="nt",
        kind="neural-tangent",
        cov_mode="empirical",
        gamma_tilde=1.0,
        radius=3.0,
        sizes=({"d": 28, "n": 1046},),
    )
    prob = ProblemSpec(loss="huber", tau=0.5, lam=0.3)
    inst = build_instance(spec, prob, 28, master_seed=MASTER_SEED)
    assert (inst.d, inst.m, inst.p, inst.n) == (28, 28, 784, 1046)
    gaps = []
    for t in range(20):
        rx, rg = run_single_trial(inst, t, MASTER_SEED, SolverConfig(), n_test=1000)
        gaps.append(rx.train_opt - rg.train_opt)
    from ermu.stats import bootstrap_mean_ci

    idx = rng_from(MASTER_SEED, "bootstrap").integers(0, len(gaps), size=(2000, len(gaps)))
    mean, lo, hi, se = bootstrap_mean_ci(np.asarray(gaps), idx)
    covers = lo <= 0.0 <= hi
    miss = 0.0 if covers else min(abs(lo), abs(hi))
    elapsed = time.monotonic() - t0
    hard_ok = covers or miss <= 3.0 * se
    soft = "covers 0" if covers else f"misses 0 by {miss:.2e} ({miss / se:.1f} se)"
    _verdict(
        9,
        hard_ok and elapsed < 1200.0,
        f"NT d=28 m=28 p=784 n=1046 T=20 empirical twin: mean gap {mean:+.2e}, "
        f"CI ({lo:+.2e}, {hi:+.2e}) {soft}; hard bound 3 se, {elapsed:.0f} s < 1200 s",
    )
