"""Campaign configs for the benchmark workloads.

Each workload is an ``ermu run`` config, built from the workload seed, which
becomes the config's ``master_seed``. ``smoke=True`` shrinks the sizes so the
benchmark's own tests can run every code path in seconds; it is never used
for measurement. README.md in this directory explains why each workload was
chosen and which layers it stresses.
"""

from __future__ import annotations

NAMES = ("campaign-mixed", "rf-large", "nt-trainonly")

_PROBLEM = {"loss": "huber", "labeler": "linear", "tau": 0.5, "regularizer": "ridge"}


def _campaign_mixed(seed: int, smoke: bool) -> dict:
    # The README example config, at a trial count that fits a timed run.
    return {
        "master_seed": seed,
        "trials": 2 if smoke else 4,
        "ladder": [40, 80] if smoke else [200, 400, 800],
        "threads": 2,
        "families": [
            {"id": "rf", "kind": "random-features", "activation": "tanh-rf",
             "gamma_p": 0.75, "gamma_d_over_p": 0.5, "radius": 3.0,
             "cov_mode": "hermite-exact", "hermite_order": 41},
            {"id": "lin", "kind": "linear-independent", "entry_law": "rademacher",
             "gamma_p": 0.75, "radius": 3.0},
            {"id": "control", "kind": "control-gaussian"},
        ],
        "problem": {**_PROBLEM, "lambda": 0.1},
        "test_risk": {"n_test": 200 if smoke else 2000},
        "free_energy": {"enabled": True, "M": 32 if smoke else 256,
                        "beta_grid": [0.1, 1, 10, 100]},
        "perturbed": {"enabled": True, "s_values": [0.01, 0.1],
                      "n_test": 200 if smoke else 2000},
    }


def _rf_large(seed: int, smoke: bool) -> dict:
    # n=1600 gives p=1200, d=600; the monte-carlo twin uses n_cov = 50 p.
    return {
        "master_seed": seed,
        "trials": 2 if smoke else 4,
        "ladder": [160] if smoke else [1600],
        "threads": 2,
        "families": [
            {"id": "rf", "kind": "random-features", "gamma_p": 0.75, "gamma_d_over_p": 0.5,
             "cov_mode": "monte-carlo"},
        ],
        "problem": {**_PROBLEM, "lambda": 0.1},
        "test_risk": {"n_test": 200 if smoke else 2000},
    }


def _nt_trainonly(seed: int, smoke: bool) -> dict:
    # Acceptance criterion 9's cell: d = m = 28, p = 784, n = 1046.
    d, n = (6, 60) if smoke else (28, 1046)
    return {
        "master_seed": seed,
        "trials": 2 if smoke else 16,
        "ladder": [d],
        "threads": 1,
        "families": [
            {"id": "nt", "kind": "neural-tangent", "cov_mode": "empirical",
             "constraint": "nt-operator-ball", "gamma_tilde": 1.0, "radius": 3.0,
             "sizes": [{"d": d, "n": n}]},
        ],
        "problem": {**_PROBLEM, "lambda": 0.3},
        "test_risk": {"n_test": 0},
    }


_CONFIGS = {
    "campaign-mixed": _campaign_mixed,
    "rf-large": _rf_large,
    "nt-trainonly": _nt_trainonly,
}


def config(name: str, seed: int, smoke: bool = False) -> dict:
    """The raw config dict of workload ``name`` for ``seed``."""
    return _CONFIGS[name](seed, smoke)
