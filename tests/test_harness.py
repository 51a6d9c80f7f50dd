"""Config validation and hashing, campaign artifacts, report, CLI."""

import csv
import hashlib
import io
import json
import math
import multiprocessing
import os
import pickle
import re
import struct
import subprocess
import sys
from concurrent.futures import Future
from dataclasses import astuple, fields, replace
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

from ermu import blas, campaign, erm, features, gaussian, universality
from ermu.campaign import run_campaign
from ermu.cli import main as cli_main
from ermu.config import ExperimentConfig, config_from_dict, load_config
from ermu.errors import ConfigError, InvalidArgumentError, SolverDivergedError
from ermu.gaussian import empirical_equivalent
from ermu.matio import load_matrix
from ermu.report import build_report, read_trials_csv, write_report
from ermu.seeds import derive_seed
from ermu.solver import SolverConfig
from ermu.universality import FamilySpec, TrialRow, WorkerPool, run_single_trial, run_trials

BASE = {
    "master_seed": 31,
    "trials": 3,
    "ladder": [40, 60],
    "families": [
        {"id": "lin", "kind": "linear-independent"},
        {"id": "control", "kind": "control-gaussian"},
    ],
    "problem": {"loss": "huber", "tau": 0.5, "lambda": 0.1},
    "test_risk": {"n_test": 30},
    "bootstrap": {"resamples": 200},
}


# The README example config; its hash is pinned below.
README_CONFIG = {
    "master_seed": 20260809,
    "trials": 50,
    "ladder": [200, 400, 800],
    "families": [
        {"id": "rf", "kind": "random-features", "activation": "tanh-rf",
         "gamma_p": 0.75, "gamma_d_over_p": 0.5, "radius": 3.0,
         "cov_mode": "hermite-exact", "hermite_order": 41},
        {"id": "lin", "kind": "linear-independent", "entry_law": "rademacher",
         "gamma_p": 0.75, "radius": 3.0},
        {"id": "control", "kind": "control-gaussian"},
    ],
    "problem": {"loss": "huber", "labeler": "linear", "tau": 0.5,
                "regularizer": "ridge", "lambda": 0.1},
    "test_risk": {"n_test": 2000},
    "free_energy": {"enabled": True, "M": 256, "beta_grid": [0.1, 1, 10, 100]},
    "perturbed": {"enabled": True, "s_values": [0.01, 0.1]},
}

# Every key of every section, each set to a value other than its default,
# but for smoothing, lambda and alpha: a key the run never reads must keep
# its default, and its clipped-linear labeler, regularizer none and
# random-net candidates read none of the three. Each family sets only keys
# that its kind and cov_mode read.
EVERY_KEY_CONFIG = {
    "master_seed": 11,
    "trials": 5,
    "ladder": [50, 100],
    "threads": 2,
    "save_matrices": True,
    "families": [
        {"id": "rf", "kind": "random-features", "activation": "custom-hermite",
         "hermite_coeffs": [0.0, 1.0, 0.25], "gamma_p": 0.5, "gamma_d_over_p": 0.25,
         "radius": 4.0, "constraint": "l2-ball", "cov_mode": "monte-carlo",
         "cov_samples_per_dim": 20, "jitter_rel": 1e-8, "theta_star_scale": 0.5},
        {"id": "rf-hermite", "kind": "random-features", "cov_mode": "hermite-exact",
         "hermite_order": 31},
        {"id": "lin", "kind": "linear-independent", "entry_law": "uniform", "nu": 2.0},
        {"id": "nt", "kind": "neural-tangent", "gamma_tilde": 2.0,
         "sizes": [{"n": 100, "d": 30}]},
    ],
    "problem": {"loss": "pseudo-huber", "loss_delta": 0.5, "labeler": "clipped-linear",
                "tau": 0.25, "noise_law": "rademacher", "clip_bound": 2.0,
                "regularizer": "none"},
    "solver": {"max_iters": 300, "tol": 1e-6},
    "test_risk": {"n_test": 100},
    "bootstrap": {"resamples": 300, "level": 0.9},
    "free_energy": {"enabled": True, "M": 16, "beta_grid": [0.5, 5.0], "path_points": 4,
                    "candidates": "random-net"},
    "perturbed": {"enabled": True, "s_values": [0.05], "n_test": 100},
}

# The three keys EVERY_KEY_CONFIG leaves at their defaults, each set where
# it is read: smoothing by sign-smooth, lambda by ridge, alpha by the
# solution cloud.
OTHER_KEYS_CONFIG = {
    **EVERY_KEY_CONFIG,
    "problem": {"labeler": "sign-smooth", "smoothing": 0.2, "lambda": 0.3},
    "free_energy": {"enabled": True, "alpha": 0.25},
}


# JSON floats that Python's json module reads but no float key accepts.
NON_FINITE_CASES = [
    (("problem", "lambda"), math.nan, "config.problem.lambda"),
    (("solver", "tol"), math.inf, "config.solver.tol"),
    (("free_energy", "beta_grid"), [0.1, math.inf], "config.free_energy.beta_grid[1]"),
    (("perturbed", "s_values"), [math.inf], "config.perturbed.s_values[0]"),
    (("families", 0, "radius"), math.inf, "config.families[0].radius"),
    (("families", 0, "radius"), -math.inf, "config.families[0].radius"),
]

# Solver keys that no longer exist: a solve runs once from its warm start and
# its line search is fixed by constants of ermu.solver, so the config sets
# only the stop rule.
REMOVED_SOLVER_KEYS = ("restarts", "armijo_shrink", "armijo_slope", "init_step", "step_growth")


def base_config(**overrides) -> ExperimentConfig:
    raw = json.loads(json.dumps(BASE))
    raw.update(overrides)
    return config_from_dict(raw)


def base_with(path: tuple, value) -> dict:
    """BASE with the value at ``path`` (keys and list indices) replaced."""
    raw = json.loads(json.dumps(BASE))
    for section in ("solver", "free_energy", "perturbed"):
        raw.setdefault(section, {})
    node = raw
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = value
    return raw


class TestSeeds:
    def test_order_and_content_sensitivity(self):
        a = derive_seed(1, "fam", 200, 3)
        assert a == derive_seed(1, "fam", 200, 3)
        assert a != derive_seed(1, "fam", 200, 4)
        assert a != derive_seed(1, 200, "fam", 3)
        assert a != derive_seed(2, "fam", 200, 3)

    def test_string_tags_stable(self):
        assert derive_seed(0, "eps") == derive_seed(0, "eps")
        assert derive_seed(0, "eps") != derive_seed(0, "epz")


class TestMatio:
    def test_roundtrip(self, tmp_path):
        arr = np.arange(12, dtype=float).reshape(3, 4) / 7.0
        path = tmp_path / "m.ermumat"
        campaign._save_matrix(path, arr)
        header = b"ERMUMAT1" + struct.pack("<QQ", 3, 4)
        assert path.read_bytes() == header + arr.astype("<f8").tobytes()
        assert np.array_equal(load_matrix(path), arr)

    def test_bad_magic_rejected(self, tmp_path):
        path = tmp_path / "bad.bin"
        path.write_bytes(b"NOTMAGIC" + b"\x00" * 16)
        with pytest.raises(InvalidArgumentError):
            load_matrix(path)

    def test_truncated_payload_rejected(self, tmp_path):
        path = tmp_path / "trunc.bin"
        campaign._save_matrix(path, np.ones((2, 2)))
        data = path.read_bytes()
        path.write_bytes(data[:-8])
        with pytest.raises(InvalidArgumentError):
            load_matrix(path)

    def test_vector_rejected(self, tmp_path):
        with pytest.raises(InvalidArgumentError):
            campaign._save_matrix(tmp_path / "v.bin", np.ones(3))
        assert list(tmp_path.iterdir()) == []


class TestConfig:
    def test_valid_config_parses(self):
        cfg = base_config()
        assert cfg.trials == 3
        assert cfg.families[0].id == "lin"
        assert cfg.problem.lam == 0.1

    def test_empty_ladder_names_field(self):
        with pytest.raises(ConfigError, match="ladder"):
            base_config(ladder=[])

    def test_non_increasing_ladder_rejected(self):
        with pytest.raises(ConfigError, match="ladder"):
            base_config(ladder=[100, 100])

    def test_unknown_top_key_rejected(self):
        with pytest.raises(ConfigError, match="workerz"):
            config_from_dict({**BASE, "workerz": 4})

    def test_unknown_family_key_rejected(self):
        raw = json.loads(json.dumps(BASE))
        raw["families"][0]["actvation"] = "tanh-rf"
        with pytest.raises(ConfigError, match="actvation"):
            config_from_dict(raw)

    def test_unknown_problem_key_rejected(self):
        raw = json.loads(json.dumps(BASE))
        raw["problem"]["los"] = "huber"
        with pytest.raises(ConfigError, match="los"):
            config_from_dict(raw)

    def test_k_is_an_unknown_problem_key(self):
        # Parameters are length-p vectors: there is no number of parameter vectors to set.
        raw = json.loads(json.dumps(BASE))
        raw["problem"]["k"] = 1
        with pytest.raises(ConfigError, match="problem: unknown key 'k'"):
            config_from_dict(raw)

    def test_duplicate_family_ids_rejected(self):
        raw = json.loads(json.dumps(BASE))
        raw["families"].append({"id": "lin", "kind": "control-gaussian"})
        with pytest.raises(ConfigError, match="duplicate"):
            config_from_dict(raw)

    def test_negative_ratio_rejected(self):
        raw = json.loads(json.dumps(BASE))
        raw["families"][0]["gamma_p"] = -0.5
        with pytest.raises(ConfigError, match="gamma_p"):
            config_from_dict(raw)

    def test_json_error_carries_line_info(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text('{\n  "master_seed": 1,\n  oops\n}')
        with pytest.raises(ConfigError, match="line 3"):
            load_config(path)

    def test_hash_ignores_whitespace_and_key_order(self, tmp_path):
        a = tmp_path / "a.json"
        b = tmp_path / "b.json"
        a.write_text(json.dumps(BASE, indent=4))
        compact = {k: BASE[k] for k in reversed(list(BASE))}
        b.write_text(json.dumps(compact, separators=(",", ":")))
        assert load_config(a).canonical_hash() == load_config(b).canonical_hash()

    def test_hash_ignores_explicit_defaults(self):
        explicit = json.loads(json.dumps(BASE))
        explicit["threads"] = 1  # the default
        # A disabled stage accepts its settings at their defaults.
        explicit["free_energy"] = {"enabled": False, "M": 256, "beta_grid": [0.1, 1, 10, 100],
                                   "path_points": 10, "alpha": 0.5, "candidates": "solution-cloud"}
        explicit["perturbed"] = {"enabled": False, "s_values": [0.01, 0.1], "n_test": 2000}
        assert config_from_dict(explicit).canonical_hash() == base_config().canonical_hash()

    def test_hash_ignores_threads(self):
        # The worker count changes no artifact byte, so it names no new experiment.
        assert base_config(threads=4).canonical_hash() == base_config().canonical_hash()
        assert "threads" not in base_config(threads=4).normalized()

    def test_hash_changes_on_semantic_change(self):
        assert base_config(trials=4).canonical_hash() != base_config().canonical_hash()
        raw = json.loads(json.dumps(BASE))
        raw["problem"]["lambda"] = 0.2
        assert config_from_dict(raw).canonical_hash() != base_config().canonical_hash()

    def test_roundtrip_through_normalized(self):
        cfg = base_config()
        again = config_from_dict(json.loads(json.dumps({
            k: v for k, v in cfg.normalized().items()
        })))
        assert again.canonical_hash() == cfg.canonical_hash()

    def test_golden_hashes(self):
        # Pinned: any edit that moves a config's hash must fail here.
        assert config_from_dict(README_CONFIG).canonical_hash() == (
            "0512bc4c58f1693bc2cca461ad281a0c6d6fde9ede0881e9208e7ce203ad816f"
        )
        assert config_from_dict(EVERY_KEY_CONFIG).canonical_hash() == (
            "681a7bb77fbae022ddcc1031f7cb92894d1daec8b43057accbd628c6bb27de96"
        )
        assert config_from_dict(OTHER_KEYS_CONFIG).canonical_hash() == (
            "1d011ed3ae16c4353dab79cba373f961a503873d91628361d3a5d9ffc8b2cafc"
        )

    def test_every_key_config_sets_every_field(self):
        normalized = config_from_dict(EVERY_KEY_CONFIG).normalized()
        default = base_config().normalized()
        for section, value in normalized.items():
            if isinstance(value, dict):
                set_keys = set()
                for raw in (EVERY_KEY_CONFIG, OTHER_KEYS_CONFIG):
                    got = config_from_dict(raw).normalized()[section]
                    assert all(got[k] != default[section][k] for k in raw[section]), section
                    set_keys |= set(raw[section])
                assert set_keys == set(value), section
        specs = config_from_dict(EVERY_KEY_CONFIG).families
        set_keys = {k for family in EVERY_KEY_CONFIG["families"] for k in family}
        assert set_keys == {f.name for f in fields(FamilySpec)}
        for spec, family in zip(specs, EVERY_KEY_CONFIG["families"]):
            for f in fields(FamilySpec):
                assert f.name not in family or getattr(spec, f.name) != f.default, f.name
        assert set(normalized) | {"threads"} == set(EVERY_KEY_CONFIG)

    @pytest.mark.parametrize("path, int_value", [
        (("families", 0, "radius"), 3),
        (("problem", "lambda"), 1),
        (("solver", "tol"), 0),
        (("free_energy", "beta_grid"), [1, 10]),
    ])
    def test_float_fields_hash_int_literals_as_floats(self, path, int_value):
        as_float = json.loads(json.dumps(int_value), parse_int=float)
        raw_int, raw_float = base_with(path, int_value), base_with(path, as_float)
        for raw in (raw_int, raw_float):  # a disabled stage must keep its defaults
            raw["free_energy"]["enabled"] = True
        a = config_from_dict(raw_int)
        b = config_from_dict(raw_float)
        assert a == b
        assert a.canonical_hash() == b.canonical_hash()

    @pytest.mark.parametrize("path, value", [
        (("families", 0, "activation"), "relu"),
        (("families", 0, "constraint"), "l1-ball"),
        (("families", 0, "cov_mode"), "exact"),
        (("families", 0, "entry_law"), "cauchy"),
        (("problem", "loss"), "hinge"),
        (("problem", "labeler"), "sign"),
        (("problem", "noise_law"), "laplace"),
        (("problem", "regularizer"), "lasso"),
        (("free_energy", "candidates"), "solution_cloud"),
    ])
    def test_unknown_kind_rejected_at_parse_time(self, path, value):
        with pytest.raises(ConfigError, match=path[-1]):
            config_from_dict(base_with(path, value))

    def test_unknown_candidates_names_both_constructions(self):
        with pytest.raises(ConfigError, match="solution-cloud, random-net"):
            config_from_dict(base_with(("free_energy", "candidates"), "random_net"))

    @pytest.mark.parametrize("path, value", [
        (("free_energy", "M"), 0),
        (("free_energy", "beta_grid"), []),
        (("free_energy", "beta_grid"), [0.0, 1.0]),
        (("free_energy", "beta_grid"), [10.0, 1.0]),
        (("free_energy", "beta_grid"), [1.0, 1.0]),
        (("free_energy", "path_points"), 1),
        (("perturbed", "s_values"), []),
        (("perturbed", "s_values"), [0.0]),
        (("perturbed", "s_values"), [0.1, -0.1]),
        (("perturbed", "s_values"), [0.1, 0.1]),
        (("perturbed", "n_test"), 0),
        (("test_risk", "n_test"), -5),
        (("bootstrap", "resamples"), 0),
        (("bootstrap", "level"), 1.5),
        (("solver", "max_iters"), 0),
        (("bootstrap", "resamples"), 1),
        (("threads",), -2),
        (("families", 0, "cov_mode"), "hermite-exact"),
        (("families", 1, "cov_mode"), "hermite-exact"),
        (("families", 0, "constraint"), "nt-operator-ball"),
        (("families", 1, "constraint"), "nt-operator-ball"),
        (("families", 0, "hermite_order"), 0),
        (("families", 0, "cov_samples_per_dim"), 0),
        (("families", 0, "jitter_rel"), -1e-3),
        (("families", 0, "theta_star_scale"), -0.5),
        (("problem", "clip_bound"), 0.0),
        (("free_energy", "alpha"), 0.0),
        (("free_energy", "alpha"), -0.5),
        (("solver", "tol"), -1e-8),
    ])
    def test_out_of_range_value_rejected_at_parse_time(self, path, value):
        with pytest.raises(ConfigError, match=path[-1]):
            config_from_dict(base_with(path, value))

    @pytest.mark.parametrize("family, key", [
        ({"kind": "random-features", "cov_mode": "linear-exact"}, "cov_mode"),
        ({"kind": "random-features", "constraint": "nt-operator-ball"}, "constraint"),
        ({"kind": "neural-tangent", "cov_mode": "hermite-exact"}, "cov_mode"),
        ({"kind": "neural-tangent", "cov_mode": "linear-exact"}, "cov_mode"),
        # A sizes entry names an NT cell by its d and may set its n; nothing else.
        ({"kind": "random-features", "sizes": [{"n": 40, "d": 7}]}, "sizes"),
        ({"kind": "linear-independent", "sizes": [{"n": 40, "d": 7}]}, "sizes"),
        ({"kind": "control-gaussian", "sizes": [{"n": 40, "d": 7}]}, "sizes"),
        # Only a custom-hermite activation reads the coefficients.
        ({"kind": "random-features", "activation": "tanh-rf", "hermite_coeffs": [0.0, 1.0]},
         "hermite_coeffs"),
        ({"kind": "neural-tangent", "hermite_coeffs": [0.0, 1.0], "sizes": [{"d": 6}]},
         "hermite_coeffs"),
        ({"kind": "linear-independent", "hermite_coeffs": [0.0, 1.0]}, "hermite_coeffs"),
        # A key the family never reads, at a value other than its default,
        # would change the config hash and nothing that the run writes.
        *(({"kind": "control-gaussian", key: value}, key) for key, value in (
            ("nu", 4.0), ("entry_law", "laplace"), ("activation", "tanh-rf"),
            ("gamma_d_over_p", 0.3), ("gamma_tilde", 2.0), ("hermite_order", 9))),
        *(({"kind": "linear-independent", key: value}, key) for key, value in (
            ("activation", "tanh-rf"), ("gamma_d_over_p", 0.3), ("gamma_tilde", 2.0),
            ("hermite_order", 9), ("jitter_rel", 1e-3))),
        *(({"kind": "random-features", "cov_mode": "hermite-exact", key: value}, key)
          for key, value in (("entry_law", "laplace"), ("nu", 4.0), ("gamma_tilde", 2.0),
                             ("cov_samples_per_dim", 9))),
        *(({"kind": "neural-tangent", "cov_mode": "empirical", key: value}, key)
          for key, value in (("entry_law", "laplace"), ("nu", 4.0), ("gamma_d_over_p", 0.3),
                             ("hermite_order", 9), ("cov_samples_per_dim", 9),
                             ("jitter_rel", 1e-3))),
        # Every sizes entry sets n, so no cell takes its n from gamma_p.
        ({"kind": "neural-tangent", "gamma_p": 0.5, "sizes": [{"d": 6, "n": 40}]}, "gamma_p"),
        ({"kind": "neural-tangent", "gamma_p": 0.5,
          "sizes": [{"d": 6, "n": 40}, {"d": 8, "n": 70}]}, "gamma_p"),
    ])
    def test_family_setting_outside_its_kind_rejected(self, family, key):
        with pytest.raises(ConfigError, match=rf"config\.families\[0\]: {key} "):
            base_config(families=[{"id": "f", **family}])

    @pytest.mark.parametrize("cov_mode", ["hermite-exact", "monte-carlo", "empirical"])
    def test_non_centred_random_features_activation_rejected(self, cov_mode):
        # Every twin is zero-mean; features with mean c_0 would not match it.
        rf = {"id": "rf", "kind": "random-features", "activation": "custom-hermite",
              "hermite_coeffs": [0.5, 0.8], "cov_mode": cov_mode}
        with pytest.raises(ConfigError, match=r"families\[0\]: hermite_coeffs\[0\] must be 0"):
            base_config(families=[rf])
        rf["hermite_coeffs"] = [0.0, 0.8]
        assert base_config(families=[rf]).families[0].hermite_coeffs == (0.0, 0.8)

    @pytest.mark.parametrize("coeffs", [[0.0, 0.5, 0.5], [0.0, 0.5], [0.0, 0.0, 0.5]])
    def test_neural_tangent_activation_breaking_moment_conditions_rejected(self, coeffs):
        # NT features need E[sigma'(G)] = c_1 = 0 and E[G sigma'(G)] = sqrt(2) c_2 = 0.
        nt = {"id": "nt", "kind": "neural-tangent", "activation": "custom-hermite",
              "hermite_coeffs": coeffs, "cov_mode": "empirical", "sizes": [{"d": 6, "n": 40}]}
        with pytest.raises(ConfigError, match=r"families\[0\]: hermite_coeffs\[1\] and"):
            base_config(ladder=[6], families=[nt])
        nt["hermite_coeffs"] = [0.3, 0.0, 0.0, 0.5]
        spec = base_config(ladder=[6], families=[nt]).families[0]
        checks = spec.build_activation().moment_checks()
        assert abs(checks["mean_sigma_prime"]) <= 1e-10
        assert abs(checks["mean_g_sigma_prime"]) <= 1e-10

    @pytest.mark.parametrize("sizes", [[{"n": 40, "d": 7}], [{"n": 40}], [{"d": 0}]])
    def test_random_features_sizes_rejected_at_parse_time(self, sizes):
        # gamma_d_over_p sets an RF cell's d; sizes lists neural-tangent cells only.
        rf = {"id": "rf", "kind": "random-features", "sizes": sizes}
        with pytest.raises(ConfigError, match=r"families\[0\]: sizes applies to neural-tangent only"):
            base_config(families=[rf])
        rf["sizes"] = []
        assert base_config(families=[rf]) == base_config(families=[{"id": "rf", "kind": rf["kind"]}])

    @pytest.mark.parametrize("sizes, message", [
        ([{"d": 0}], "positive integer values"),
        ([{"d": 6.0}], "positive integer values"),
        ([{"d": True}], "positive integer values"),
        ([{"d": 6, "p": 30}], "keys n and/or d"),
        ([{"n": 40}], "neural-tangent sizes need d"),
        ([{"d": 6, "n": 40}, {"d": 6, "n": 50}], "must name distinct d values"),  # one cell twice
    ])
    def test_neural_tangent_sizes_entries_checked_at_parse_time(self, sizes, message):
        nt = {"id": "nt", "kind": "neural-tangent", "sizes": sizes}
        with pytest.raises(ConfigError, match=message):
            base_config(ladder=[6], families=[nt])
        nt["sizes"] = [{"d": 6, "n": 40}]
        spec = base_config(ladder=[6], families=[nt]).families[0]
        assert spec.bases((40, 60)) == (6,)
        assert spec.resolve_size(6) == {"n": 40, "p": 36, "d": 6, "m": 6}

    @pytest.mark.parametrize("family, key", [
        ({"kind": "control-gaussian", "nu": 1.0}, "nu"),
        ({"kind": "linear-independent", "jitter_rel": 1e-10}, "jitter_rel"),
        ({"kind": "random-features", "cov_mode": "hermite-exact", "cov_samples_per_dim": 50},
         "cov_samples_per_dim"),
        ({"kind": "neural-tangent", "cov_mode": "empirical", "hermite_order": 41}, "hermite_order"),
        ({"kind": "neural-tangent", "gamma_p": 0.75, "sizes": [{"d": 6, "n": 40}]}, "gamma_p"),
    ])
    def test_unread_family_key_at_its_default_keeps_the_hash(self, family, key):
        with_key = base_config(families=[{"id": "f", **family}])
        without = base_config(families=[{"id": "f", **{k: family[k] for k in family if k != key}}])
        assert with_key.canonical_hash() == without.canonical_hash()

    @pytest.mark.parametrize("family, accepted_order", [
        # The features carry c_3 and c_4; a twin cut at order 2 would miss them.
        ({"activation": "custom-hermite", "hermite_coeffs": [0.0, 0.5, 0.0, 0.6, 0.5],
          "hermite_order": 2}, 4),
        ({"activation": "custom-hermite", "hermite_coeffs": [0.0, 0.5] + [0.0] * 40 + [0.1]},
         42),
        # The coefficients' 200-node quadrature rule is exact up to order 199.
        ({"hermite_order": 200}, 199),
    ], ids=["below-last-coeff", "default-below-last-coeff", "above-quadrature-rule"])
    def test_hermite_order_outside_the_series_rejected(self, family, accepted_order):
        rf = {"id": "rf", "kind": "random-features", "cov_mode": "hermite-exact", **family}
        with pytest.raises(ConfigError, match=r"config\.families\[0\]: hermite_order must be"):
            base_config(families=[rf])
        rf["hermite_order"] = accepted_order
        assert base_config(families=[rf]).families[0].hermite_order == accepted_order

    def test_neural_tangent_gamma_p_read_while_a_sizes_entry_sets_no_n(self):
        nt = {"id": "nt", "kind": "neural-tangent", "gamma_p": 0.5,
              "sizes": [{"d": 6, "n": 40}, {"d": 8}]}
        spec = base_config(families=[nt]).families[0]
        assert spec.resolve_size(8)["n"] == 128  # round(m d / gamma_p), m = d = 8

    @pytest.mark.parametrize("section, key, value", [
        ("free_energy", "M", 8),
        ("free_energy", "beta_grid", [1, 10]),
        ("free_energy", "path_points", 4),
        ("free_energy", "alpha", 0.25),
        ("free_energy", "candidates", "random-net"),
        ("perturbed", "s_values", [0.3]),
        ("perturbed", "n_test", 50),
    ])
    def test_disabled_stage_setting_rejected(self, section, key, value):
        # A disabled stage reads none of its settings; one set to another
        # value than its default would change the hash and nothing else.
        with pytest.raises(ConfigError, match=rf"config\.{section}: {key} applies to an enabled"):
            config_from_dict(base_with((section, key), value))
        enabled = base_with((section, key), value)
        enabled[section]["enabled"] = True
        config_from_dict(enabled)  # the same setting parses once its stage runs

    @pytest.mark.parametrize("section, settings, key", [
        ("problem", {"loss": "squared", "loss_delta": 7.0}, "loss_delta"),
        ("problem", {"loss": "logistic", "loss_delta": 7.0}, "loss_delta"),
        ("problem", {"clip_bound": 3.0}, "clip_bound"),
        ("problem", {"labeler": "sign-smooth", "clip_bound": 3.0}, "clip_bound"),
        ("problem", {"smoothing": 0.5}, "smoothing"),
        ("problem", {"labeler": "clipped-linear", "smoothing": 0.5}, "smoothing"),
        ("problem", {"regularizer": "none", "lambda": 9.0}, "lambda"),
        ("problem", {"tau": 0.0, "noise_law": "rademacher"}, "noise_law"),
        ("free_energy", {"enabled": True, "candidates": "random-net", "alpha": 0.25}, "alpha"),
    ])
    def test_unread_setting_rejected(self, section, settings, key):
        # A key the run never reads, set to another value than its default,
        # would change the hash and nothing else.
        raw = json.loads(json.dumps(BASE))
        raw[section] = {**raw.get(section, {}), **settings}
        with pytest.raises(ConfigError, match=rf"config\.{section}: {key} applies to "):
            config_from_dict(raw)

    def test_unread_problem_keys_at_their_defaults_keep_the_hash(self):
        bare = {"loss": "squared", "labeler": "linear", "tau": 0, "regularizer": "none"}
        explicit = {**bare, "loss_delta": 1, "clip_bound": 1, "smoothing": 0.1, "lambda": 0.1,
                    "noise_law": "gaussian"}
        assert base_config(problem=explicit).canonical_hash() == (
            base_config(problem=bare).canonical_hash()
        )

    @pytest.mark.parametrize("path, where", [
        (("perturbed", "s_values"), r"config\.perturbed\.s_values\[0\]"),
        (("free_energy", "beta_grid"), r"config\.free_energy\.beta_grid\[0\]"),
    ])
    def test_non_numeric_list_entry_names_element(self, path, where):
        with pytest.raises(ConfigError, match=where):
            config_from_dict(base_with(path, ["x"]))

    @pytest.mark.parametrize("path, value", [
        (("trials",), True),
        (("trials",), 3.0),
        (("families", 0, "radius"), True),
        (("families", 0, "id"), 7),
        (("free_energy", "enabled"), 1),
        (("problem",), []),
    ])
    def test_wrong_json_type_rejected(self, path, value):
        with pytest.raises(ConfigError, match=r"\." + str(path[-1]) + ": expected"):
            config_from_dict(base_with(path, value))

    @pytest.mark.parametrize("path, value, where", NON_FINITE_CASES)
    def test_non_finite_float_rejected_at_parse_time(self, path, value, where):
        with pytest.raises(ConfigError, match=re.escape(where) + ": expected a finite number"):
            config_from_dict(base_with(path, value))

    def test_float_literal_beyond_range_rejected(self):
        text = json.dumps(base_with(("problem", "lambda"), 0.123456))
        text = text.replace("0.123456", "1" + "0" * 400)  # an integer literal
        with pytest.raises(ConfigError, match=r"config\.problem\.lambda: expected a finite"):
            config_from_dict(json.loads(text))

    def test_missing_required_key_named(self):
        raw = json.loads(json.dumps(BASE))
        del raw["problem"]
        with pytest.raises(ConfigError, match="missing required key 'problem'"):
            config_from_dict(raw)
        raw = json.loads(json.dumps(BASE))
        del raw["families"][1]["kind"]
        with pytest.raises(ConfigError, match=r"families\[1\]: missing required key 'kind'"):
            config_from_dict(raw)


# The log file, OpenBLAS's get_num_threads and the wrapped functions of
# test_forked_workers_run_blas_on_one_thread, set before its pools fork.
_BLAS_PROBE = {}


def _probe(name, task):
    """Log this process's pid and BLAS thread count, then run the real ``name``."""
    with open(_BLAS_PROBE["log"], "a") as fh:
        fh.write(f"{name} {os.getpid()} {_BLAS_PROBE['get_threads']()}\n")
    return _BLAS_PROBE[name](task)


def _probed_chunk_gram(task):
    return _probe("_chunk_gram", task)


def _probed_trial_chunk(task):
    return _probe("_trial_chunk", task)


class TestCampaign:
    def test_rerun_byte_identical(self, tmp_path):
        cfg = base_config()
        run_campaign(cfg, tmp_path / "a")
        run_campaign(cfg, tmp_path / "b")
        assert (tmp_path / "a/trials.csv").read_bytes() == (tmp_path / "b/trials.csv").read_bytes()

    def test_thread_count_does_not_change_output(self, tmp_path):
        # Three families x two sizes: six cells, whose trial 0 runs both
        # stages. The monte-carlo RF twin needs 420 p rows, four or more
        # 4096-row covariance chunks at p = 30, so the set-up runs on the pool too.
        cfg = base_config(
            families=BASE["families"] + [
                {"id": "rf", "kind": "random-features", "cov_mode": "monte-carlo",
                 "cov_samples_per_dim": 420},
            ],
            free_energy={"enabled": True, "M": 16, "path_points": 4},
            perturbed={"enabled": True, "s_values": [0.1], "n_test": 50},
        )
        run_campaign(cfg, tmp_path / "a")
        run_campaign(replace(cfg, threads=3), tmp_path / "b")
        for name in ("trials.csv", "perturbed.csv", "free_energy_paths.csv",
                     "free_energy_checks.json"):
            a, b = (tmp_path / "a" / name).read_bytes(), (tmp_path / "b" / name).read_bytes()
            assert a == b, name

    def test_pool_tasks_carry_no_array(self):
        # Trial chunks name their cell by index and carry the stage settings:
        # none holds an ndarray, and a p = 600 cell's chunk pickles to the same
        # size as a p = 30 cell's. The stages need no pool tasks of their own.
        cfg = base_config(
            ladder=[40, 800],
            families=[{"id": "lin", "kind": "linear-independent"}],
            free_energy={"enabled": True, "M": 8, "path_points": 3},
            perturbed={"enabled": True, "s_values": [0.1], "n_test": 20},
        )
        instances = campaign.build_instances(cfg)
        assert [inst.p for inst in instances] == [30, 600]
        mapped = []

        class RecordingPool(WorkerPool):
            def map(self, fn, tasks):
                mapped.append((fn.__name__, list(tasks)))
                return iter(())

        class ArrayFinder(pickle.Pickler):
            def reducer_override(self, obj):
                assert not isinstance(obj, np.ndarray), "a pool task carries an array"
                return NotImplemented

        def pickled_size(task):
            buf = io.BytesIO()
            ArrayFinder(buf).dump(task)
            return len(buf.getvalue())

        pool = RecordingPool(1, instances)
        run_trials(pool, cfg.trials, cfg.master_seed, cfg.solver, 10,
                   (cfg.free_energy, cfg.perturbed))
        ((name, tasks),) = mapped
        assert name == "_trial_chunk" and len(tasks) == 2
        small, large = map(pickled_size, tasks)
        assert small == large

    def test_tasks_find_the_pools_cells(self):
        cfg = base_config(ladder=[40])
        instances = campaign.build_instances(cfg)
        direct = [
            row
            for inst in instances
            for t in range(2)
            for row in run_single_trial(inst, t, cfg.master_seed, SolverConfig(), 10)
        ]
        assert run_trials(WorkerPool(1, instances), 2, cfg.master_seed, n_test=10) == direct
        with WorkerPool(2, instances) as pool:
            assert run_trials(pool, 2, cfg.master_seed, n_test=10) == direct

    def test_pool_submits_the_largest_cells_tasks_first(self):
        # Each task names its cell by index in its first element; the pool
        # prices it by that cell's n·p, with ties in task order.
        submitted = []

        class RecordingExecutor:
            def submit(self, fn, task):
                submitted.append(task)
                future = Future()
                future.set_result(fn(task))
                return future

            def shutdown(self, **kwargs):
                pass

        small, large = SimpleNamespace(n=40, p=30), SimpleNamespace(n=800, p=600)
        pool = WorkerPool(2, [small, large, small])
        pool._executor = RecordingExecutor()
        tasks = [(0, "a"), (1, "b"), (2, "c"), (1, "d")]
        assert list(pool.map(str, tasks)) == list(map(str, tasks))
        assert submitted == [(1, "b"), (1, "d"), (0, "a"), (2, "c")]

        submitted.clear()
        setup = WorkerPool(2)  # no cells: task order
        setup._executor = RecordingExecutor()
        assert list(setup.map(str, ["b", "a"])) == ["b", "a"]
        assert submitted == ["b", "a"]

    def test_pool_counts_cores_without_sched_getaffinity(self, monkeypatch):
        # Only Linux has os.sched_getaffinity; elsewhere the pool counts
        # os.cpu_count() cores, or one when that count is unknown.
        monkeypatch.delattr(os, "sched_getaffinity", raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: 3)
        assert [WorkerPool(threads).workers for threads in (1, 2, 500)] == [1, 2, 3]
        monkeypatch.setattr(os, "cpu_count", lambda: None)
        assert WorkerPool(500).workers == 1
        cfg = base_config(ladder=[20], families=[{"id": "lin", "kind": "linear-independent"}])
        (instance,) = campaign.build_instances(cfg)
        with WorkerPool(500, [instance]) as pool:
            rows = run_trials(pool, 1, cfg.master_seed, n_test=10)
        assert [row.arm for row in rows] == ["x", "g"]
        assert rows == list(run_single_trial(instance, 0, cfg.master_seed, SolverConfig(), 10))

    def test_pool_forks_no_more_workers_than_cores(self, monkeypatch):
        # A fork executor starts all of its max_workers at the first submit,
        # so a pool asks for at most one worker per usable core, and
        # run_trials splits each cell's trials into that many chunks. The
        # recording executor runs nothing and starts no process.
        started, submitted = [], []

        class RecordingExecutor:
            def __init__(self, max_workers, **kwargs):
                started.append(max_workers)

            def submit(self, fn, task):
                submitted.append(task)
                future = Future()
                future.set_result([])
                return future

            def shutdown(self, **kwargs):
                pass

        monkeypatch.setattr(universality, "ProcessPoolExecutor", RecordingExecutor)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
        assert [WorkerPool(threads).workers for threads in (1, 2, 3, 500)] == [1, 2, 2, 2]
        cell = SimpleNamespace(n=40, p=30)
        with WorkerPool(500, [cell, cell]) as pool:
            assert run_trials(pool, 5, master_seed=1) == []
        assert started == [2]
        assert [task[:2] for task in submitted] == [
            (0, [0, 1, 2]), (0, [3, 4]), (1, [0, 1, 2]), (1, [3, 4])
        ]

    def test_stages_run_on_the_trials_own_batches(self, monkeypatch):
        # An empirical-twin cell builds its twin from its batch alone, the
        # float32 factor of X / sqrt(n) with no isotropic term. Trial 0's
        # stages draw nothing: the free-energy path runs on the trial's X and
        # G, and the perturbed sweep's test risk is that of the trial's twin.
        cfg = base_config(
            ladder=[40],
            families=[{"id": "lin", "kind": "linear-independent", "cov_mode": "empirical"}],
            free_energy={"enabled": True, "M": 8, "path_points": 3},
            perturbed={"enabled": True, "s_values": [0.1], "n_test": 50},
        )
        seen = {"X": [], "twin": [], "G": [], "path": [], "risk": []}

        def record(key, fn):
            def recording(*args):
                result = fn(*args)
                seen[key].append((args, result))
                return result
            return recording

        monkeypatch.setattr(universality, "draw_features", record("X", features.draw_features))
        monkeypatch.setattr(universality, "sample_gaussian", record("G", gaussian.sample_gaussian))
        monkeypatch.setattr(universality, "free_energy_path",
                            record("path", universality.free_energy_path))
        monkeypatch.setattr(universality, "TwinTestRisk", record("risk", universality.TwinTestRisk))
        monkeypatch.setattr(universality, "empirical_equivalent",
                            record("twin", gaussian.empirical_equivalent))
        (inst,) = campaign.build_instances(cfg)
        run_single_trial(inst, 0, cfg.master_seed, SolverConfig(), 0,
                         (cfg.free_energy, cfg.perturbed))
        (_, X), = seen["X"]
        ((batch,), equiv), = seen["twin"]
        ((twin, *_), G), = seen["G"]
        ((path_X, path_G, *_), _), = seen["path"]
        ((_, risk_twin), _), = seen["risk"]
        assert batch is X and twin is equiv and risk_twin is equiv
        assert path_X is X and path_G is G
        assert equiv.factor.dtype == np.float32
        assert np.array_equal(equiv.factor, empirical_equivalent(X).factor)
        assert equiv.iso_scale == 0.0

    def test_empirical_twins_never_factor_a_covariance(self, tmp_path, monkeypatch):
        # An empirical twin samples Z X / sqrt(n) directly: neither the trials
        # nor the free-energy and perturbed stages eigendecompose a covariance.
        calls = []
        factor = gaussian.factor_covariance

        def counting_factor(*args, **kwargs):
            calls.append(1)
            return factor(*args, **kwargs)

        monkeypatch.setattr(gaussian, "factor_covariance", counting_factor)
        cfg = base_config(
            ladder=[6],
            trials=2,
            families=[{"id": "nt", "kind": "neural-tangent", "cov_mode": "empirical",
                       "sizes": [{"d": 6, "n": 40}]}],
            free_energy={"enabled": True, "M": 8, "path_points": 3},
            perturbed={"enabled": True, "s_values": [0.1], "n_test": 20},
        )
        run_campaign(cfg, tmp_path / "out")
        assert (tmp_path / "out/free_energy_paths.csv").exists()
        assert len((tmp_path / "out/perturbed.csv").read_text().splitlines()) == 1 + 2
        assert calls == []

    def test_manifest_links_config_hash(self, tmp_path):
        cfg = base_config()
        run_campaign(cfg, tmp_path / "out")
        manifest = json.loads((tmp_path / "out/manifest.json").read_text())
        assert manifest["config_hash"] == cfg.canonical_hash()
        assert manifest["quarantined"] == 0
        assert manifest["families"]["control"]["kind"] == "control-gaussian"

    def test_blas_runs_on_one_thread_and_its_old_count_comes_back(self, tmp_path, monkeypatch):
        # OpenBLAS defaults to the core count, which moves the last bits of
        # some products; a campaign pins it to one thread while it runs.
        found = blas._openblas()
        if found is None:
            pytest.skip("no OpenBLAS loaded")
        _, set_threads, get_threads, _ = found
        old, seen = get_threads(), []
        real_run_trials = campaign.run_trials

        def recording(*args, **kwargs):
            seen.append(get_threads())
            return real_run_trials(*args, **kwargs)

        def failing(*args, **kwargs):
            seen.append(get_threads())
            raise SolverDivergedError("diverged", 3)

        set_threads(2)
        try:
            monkeypatch.setattr(campaign, "run_trials", recording)
            run_campaign(base_config(), tmp_path / "out")
            assert (seen, get_threads()) == ([1], 2)
            manifest = json.loads((tmp_path / "out/manifest.json").read_text())
            assert manifest["blas"]["pinned"] and manifest["blas"]["threads"] == 1
            assert manifest["blas"]["config"].startswith("OpenBLAS")
            monkeypatch.setattr(campaign, "run_trials", failing)
            with pytest.raises(SolverDivergedError):
                run_campaign(base_config(), tmp_path / "out")
            assert (seen, get_threads()) == ([1, 1], 2)
        finally:
            set_threads(old)

    def test_forked_workers_run_blas_on_one_thread(self, tmp_path, monkeypatch):
        # The workers fork inside the pinned block, so they inherit one thread.
        # Both pools fork: the monte-carlo twin has four 4096-row covariance
        # chunks at p = 30, and three trials on two workers make two chunks.
        found = blas._openblas()
        if found is None:
            pytest.skip("no OpenBLAS loaded")
        if len(os.sched_getaffinity(0)) < 2:
            pytest.skip("fewer than 2 usable cores: no pool forks")
        _, set_threads, get_threads, _ = found
        log = tmp_path / "blas.log"
        monkeypatch.setattr(sys.modules[__name__], "_BLAS_PROBE", {
            "log": log, "get_threads": get_threads,
            "_chunk_gram": gaussian._chunk_gram, "_trial_chunk": universality._trial_chunk,
        })
        monkeypatch.setattr(gaussian, "_chunk_gram", _probed_chunk_gram)
        monkeypatch.setattr(universality, "_trial_chunk", _probed_trial_chunk)
        cfg = base_config(
            ladder=[40], threads=2,
            families=[{"id": "rf", "kind": "random-features", "cov_mode": "monte-carlo",
                       "cov_samples_per_dim": 420}],
        )
        old = get_threads()
        set_threads(2)
        try:
            run_campaign(cfg, tmp_path / "out")
            assert get_threads() == 2
        finally:
            set_threads(old)
        calls = [line.split() for line in log.read_text().splitlines()]
        assert {name for name, _, _ in calls} == {"_chunk_gram", "_trial_chunk"}
        assert all(int(pid) != os.getpid() for _, pid, _ in calls)
        assert {threads for _, _, threads in calls} == {"1"}

    def test_blas_not_found_is_recorded_and_reported(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setattr(blas, "_openblas", lambda: None)
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(BASE))
        assert cli_main(["run", "--config", str(cfg_path), "--out", str(tmp_path / "out")]) == 0
        manifest = json.loads((tmp_path / "out/manifest.json").read_text())
        assert manifest["blas"] == {"library": None, "config": None, "threads": None,
                                    "pinned": False}
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and err.startswith("warning: no OpenBLAS found")

    def test_stage_outputs_written_when_enabled(self, tmp_path):
        cfg = base_config(
            ladder=[40],
            free_energy={"enabled": True, "M": 16, "path_points": 4},
            perturbed={"enabled": True, "s_values": [0.1], "n_test": 50},
        )
        run_campaign(cfg, tmp_path / "out")
        paths = (tmp_path / "out/free_energy_paths.csv").read_text().splitlines()
        assert paths[0] == "t,f,n,beta,family,seed"
        assert len(paths) == 1 + 4 * 2  # grid points x families
        pert = (tmp_path / "out/perturbed.csv").read_text().splitlines()
        assert pert[0].startswith("family,n,p,seed,s,opt_s,D_s")
        assert len(pert) == 1 + 2 * 2  # +/- s for each family
        checks = json.loads((tmp_path / "out/free_energy_checks.json").read_text())
        assert all(c["sandwich_ok"] and c["monotone_ok"] for c in checks)

    def test_stages_read_trial_zero(self, tmp_path):
        # The stages run on each cell's trial 0: its seed, its x-arm solution
        # and so its exact twin test risk; more trials change no stage byte.
        stages = {"free_energy": {"enabled": True, "M": 8, "path_points": 3},
                  "perturbed": {"enabled": True, "s_values": [0.1]}}
        run_campaign(base_config(trials=1, **stages), tmp_path / "one")
        run_campaign(base_config(threads=2, **stages), tmp_path / "three")
        for name in ("free_energy_paths.csv", "free_energy_checks.json", "perturbed.csv"):
            assert (tmp_path / "one" / name).read_bytes() == (tmp_path / "three" / name).read_bytes()
        with open(tmp_path / "three/trials.csv", newline="") as fh:
            x_rows = {(row["family"], row["n"]): row for row in csv.DictReader(fh)
                      if row["trial"] == "0" and "arm:x" in row["flags"].split(";")}
        with open(tmp_path / "three/perturbed.csv", newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 2 * len(x_rows) == 2 * 2 * 2
        for row in rows:
            trial = x_rows[(row["family"], row["n"])]
            assert row["seed"] == trial["seed"]
            assert row["test_at_theta0"] == trial["test_g"]  # 17 digits: bit for bit
        with open(tmp_path / "three/free_energy_paths.csv", newline="") as fh:
            assert {(row["family"], row["n"], row["seed"]) for row in csv.DictReader(fh)} == {
                (*cell, trial["seed"]) for cell, trial in x_rows.items()
            }

    def test_perturbed_rows_show_nonconverged_solves(self, tmp_path):
        # Three iterations stop every solve short; D(s) depends on the base
        # solve and the row's s-solve, so each row carries their flags.
        cfg = base_config(
            ladder=[40],
            solver={"max_iters": 3},
            perturbed={"enabled": True, "s_values": [0.1], "n_test": 50},
        )
        run_campaign(cfg, tmp_path / "out")
        trials = (tmp_path / "out/trials.csv").read_text().splitlines()[1:]
        assert all(row.endswith("maxiter") for row in trials)
        with open(tmp_path / "out/perturbed.csv", newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 2 * 2
        assert all(row["flags"] == "maxiter" for row in rows)

    def test_no_partial_files_left_on_failure(self, tmp_path, monkeypatch):
        cfg = base_config(trials=1, ladder=[40])
        out = tmp_path / "out"
        run_campaign(cfg, out)
        assert not list(out.glob("*.tmp"))

        def broken(*args):
            raise RuntimeError("writer failed")

        # The number formatter of write_csv fails after the file is opened.
        monkeypatch.setattr("ermu.campaign._fmt", broken)
        with pytest.raises(RuntimeError, match="writer failed"):
            write_report(out)
        assert not (out / "gap_vs_n.csv").exists()
        assert not list(out.glob("*.tmp"))

        failed = tmp_path / "failed"
        with pytest.raises(RuntimeError, match="writer failed"):
            run_campaign(cfg, failed)
        assert not (failed / "trials.csv").exists()
        assert not list(failed.glob("*.tmp"))
        monkeypatch.undo()

        def broken_matrix(fh, arr):
            fh.write(b"ERMUMAT1")  # a header cut short
            raise RuntimeError("matrix write failed")

        monkeypatch.setattr("ermu.campaign.write_matrix", broken_matrix)
        matrices = tmp_path / "matrices" / "matrices"
        with pytest.raises(RuntimeError, match="matrix write failed"):
            run_campaign(base_config(trials=1, ladder=[40], save_matrices=True), matrices.parent)
        assert list(matrices.iterdir()) == []

    def test_no_worker_outlives_a_failed_run(self, tmp_path, monkeypatch):
        cfg = base_config(trials=1, ladder=[40])
        alive_at_failure = []

        def broken(*args):
            alive_at_failure.append(len(multiprocessing.active_children()))
            raise RuntimeError("writer failed")

        monkeypatch.setattr("ermu.campaign._fmt", broken)
        with pytest.raises(RuntimeError, match="writer failed"):
            run_campaign(replace(cfg, threads=2), tmp_path / "failed")
        assert alive_at_failure == [2]  # the campaign's pool ran the two trial chunks
        assert multiprocessing.active_children() == []

    def test_solver_diverged_error_pickles(self):
        exc = pickle.loads(pickle.dumps(SolverDivergedError("objective increased", 7)))
        assert str(exc) == "objective increased (iteration 7)"
        assert exc.iteration == 7

    def test_diverged_x_arm_quarantines_its_stages(self, tmp_path, monkeypatch):
        # Every plain solve diverges in the workers: the trials quarantine
        # their rows, and so do the stages that start from trial 0's x arm.
        # The run finishes and writes every artifact.
        def diverging(*args, **kwargs):
            raise SolverDivergedError("non-finite objective", 3)

        monkeypatch.setattr("ermu.universality.solve_erm", diverging)
        cfg = base_config(
            free_energy={"enabled": True, "M": 8, "path_points": 3},
            perturbed={"enabled": True, "s_values": [0.1], "n_test": 50},
        )
        out = tmp_path / "out"
        run_campaign(replace(cfg, threads=2), out)
        write_report(out)
        assert multiprocessing.active_children() == []
        assert sorted(f.name for f in out.iterdir()) == [
            "free_energy_checks.json", "free_energy_paths.csv", "gap_vs_n.csv",
            "manifest.json", "perturbed.csv", "report.json", "trials.csv",
        ]
        assert all(row.quarantined for row in read_trials_csv(out / "trials.csv"))
        cells = [(family, n) for family in ("lin", "control") for n in cfg.ladder]
        checks = json.loads((out / "free_energy_checks.json").read_text())
        assert checks == [{"family": f, "n": n, "quarantined": True} for f, n in cells]
        assert (out / "free_energy_paths.csv").read_bytes() == b"t,f,n,beta,family,seed\r\n"
        with open(out / "perturbed.csv", newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert [(row["family"], int(row["n"])) for row in rows] == [c for c in cells for _ in "+-"]
        for row in rows:
            assert [row[k] for k in ("opt_s", "D_s", "test_at_theta0", "solver_gap", "flags")] == [
                "nan", "nan", "nan", "nan", "quarantined"
            ]
        assert json.loads((out / "manifest.json").read_text())["quarantined"] == 2 * 2 * 3 * 2

    def test_perturbed_row_of_a_diverged_s_solve(self, tmp_path, monkeypatch):
        def diverging_s_solves(*args, extra=None, **kwargs):
            if extra is not None:
                raise SolverDivergedError("non-finite objective", 1)
            return erm.solve_erm(*args, **kwargs)

        monkeypatch.setattr("ermu.universality.solve_erm", diverging_s_solves)
        cfg = base_config(
            ladder=[40], perturbed={"enabled": True, "s_values": [0.1], "n_test": 50}
        )
        run_campaign(cfg, tmp_path / "out")
        with open(tmp_path / "out/perturbed.csv", newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 2 * 2
        for row in rows:
            assert (row["opt_s"], row["D_s"], row["flags"]) == ("nan", "nan", "quarantined")
            assert math.isfinite(float(row["test_at_theta0"]))

    @pytest.mark.parametrize("n_test", [30, 0])
    def test_trials_csv_round_trips_exactly(self, tmp_path, monkeypatch, n_test):
        written = []
        run_trials = campaign.run_trials

        def recording(*args, **kwargs):
            rows, cell_stages = run_trials(*args, **kwargs)
            written.extend(rows)
            return rows, cell_stages

        monkeypatch.setattr(campaign, "run_trials", recording)
        cfg = base_config(ladder=[40], test_risk={"n_test": n_test})
        run_campaign(cfg, tmp_path / "out")
        read = read_trials_csv(tmp_path / "out/trials.csv")
        assert len(read) == len(written) == 2 * 2 * 3

        def same(a, b):  # exact equality; NaN (the no-test columns) matches NaN
            return a == b or (isinstance(a, float) and math.isnan(a) and math.isnan(b))

        for r, w in zip(read, written):
            assert all(same(a, b) for a, b in zip(astuple(r), astuple(w))), (r, w)
        if n_test == 0:
            assert all(math.isnan(r.test_x) and "no-test" in r.flags for r in read)

    def test_trials_header_is_the_benchmark_gates(self, tmp_path):
        # perfbench's correctness gate pins the trials.csv header; a renamed or
        # reordered TrialRow field fails here, not first in the benchmark.
        from perfbench.checks import TRIALS_HEADER

        run_campaign(base_config(trials=1, ladder=[40]), tmp_path / "out")
        with open(tmp_path / "out/trials.csv", newline="") as fh:
            assert fh.readline() == TRIALS_HEADER + "\r\n"

    def test_rerun_removes_the_earlier_runs_stage_files(self, tmp_path):
        # A rerun into a used directory with both stages and the matrices off
        # leaves only its own files, so the report passes no stale file on,
        # and no report of the earlier run's trials is left beside its own.
        out, report = tmp_path / "out", tmp_path / "report"
        stages = {"free_energy": {"enabled": True, "M": 8, "path_points": 3},
                  "perturbed": {"enabled": True, "s_values": [0.1]}}
        run_campaign(base_config(ladder=[40], save_matrices=True, **stages), out)
        write_report(out)  # into the results directory, as `ermu report` does by default
        assert (out / "perturbed.csv").exists() and list((out / "matrices").iterdir())
        assert (out / "report.json").exists() and (out / "gap_vs_n.csv").exists()
        (out / "notes.txt").write_text("kept")  # not an artifact name
        run_campaign(base_config(ladder=[40], master_seed=32), out)
        assert sorted(f.name for f in out.iterdir()) == [
            "manifest.json", "matrices", "notes.txt", "trials.csv"
        ]
        assert list((out / "matrices").iterdir()) == []
        write_report(out, report)
        assert sorted(f.name for f in report.iterdir()) == ["gap_vs_n.csv", "report.json"]

    def test_rerun_saves_only_its_own_cells_matrices(self, tmp_path):
        run_campaign(base_config(trials=1, ladder=[40], save_matrices=True), tmp_path)
        run_campaign(base_config(trials=1, ladder=[60], save_matrices=True), tmp_path)
        names = sorted(f.name for f in (tmp_path / "matrices").iterdir())
        assert names and all("_n60_" in name for name in names)

    def test_save_matrices_roundtrip(self, tmp_path):
        cfg = base_config(
            ladder=[40],
            save_matrices=True,
            families=[{"id": "rf", "kind": "random-features", "gamma_d_over_p": 0.5}],
        )
        run_campaign(cfg, tmp_path / "out")
        (inst,) = campaign.build_instances(cfg)
        W = load_matrix(tmp_path / "out/matrices/rf_n40_weights.ermumat")
        assert np.array_equal(W, inst.model.W)
        L = load_matrix(tmp_path / "out/matrices/rf_n40_factor.ermumat")
        assert np.array_equal(L, inst.equiv.factor)


def trial_row(trial, arm, train_opt, flags=""):
    """One lin n=40 trials.csv row of the given arm."""
    return TrialRow(
        family="lin", n=40, p=30, trial=trial, seed=trial, train_opt=train_opt,
        test_x=0.5, test_x_se=0.01, test_g=0.5, test_g_se=0.01, iters=10,
        flags=";".join([f"arm:{arm}"] + ([flags] if flags else [])),
    )


def edge_case_rows():
    """Crafted trials.csv rows that reach the report's edge cases.

    Family ``zeta`` comes first, so first-row order is not alphabetical. Its
    n=40 cell lists its trials and arms out of order and holds a quarantined
    arm, a missing arm, ``maxiter``/``step-underflow`` pairs and tied train
    values; its n=20 cell has one kept pair (T = 1) and its n=10 cell none
    (T = 0). Family ``alpha`` has NaN test columns flagged ``no-test``, and
    family ``mid`` one cell without a kept pair.
    """
    nan = float("nan")

    def row(family, n, trial, arm, train, test=(0.5, 0.01), flags=()):
        test_value, test_se = test
        return TrialRow(
            family=family, n=n, p=n // 2 + 7, trial=trial, seed=100 * n + trial,
            train_opt=train, test_x=test_value + 0.01 * trial, test_x_se=test_se,
            test_g=test_value - 0.02 * trial, test_g_se=2 * test_se, iters=12,
            flags=";".join([f"arm:{arm}", *flags]),
        )

    no_test = dict(test=(nan, nan), flags=("no-test",))
    return [
        row("zeta", 40, 5, "g", 0.75), row("zeta", 40, 5, "x", 0.8),
        row("zeta", 40, 0, "x", 1.0), row("zeta", 40, 0, "g", 0.9),
        row("zeta", 40, 1, "x", 1.2, flags=("maxiter",)), row("zeta", 40, 1, "g", 1.0),
        row("zeta", 40, 2, "x", 0.8, flags=("maxiter",)),
        row("zeta", 40, 2, "g", 0.9, flags=("step-underflow",)),
        row("zeta", 40, 3, "x", nan, flags=("quarantined",)), row("zeta", 40, 3, "g", 1.1),
        row("zeta", 40, 4, "x", 0.9),  # its g arm is missing
        row("zeta", 40, 6, "x", 0.9), row("zeta", 40, 6, "g", 0.9),
        row("zeta", 20, 0, "g", 0.65, flags=("step-underflow",)), row("zeta", 20, 0, "x", 0.68),
        row("zeta", 20, 1, "x", nan, flags=("quarantined",)),
        row("zeta", 10, 0, "x", 0.4), row("zeta", 10, 0, "g", nan, flags=("quarantined",)),
        *(row("alpha", 60, t, arm, value, **no_test)
          for t, (vx, vg) in enumerate([(0.3, 0.35), (0.32, 0.3), (0.3, 0.3), (0.41, 0.28)])
          for arm, value in (("x", vx), ("g", vg))),
        row("alpha", 30, 0, "x", 0.5, **no_test), row("alpha", 30, 0, "g", 0.45, **no_test),
        row("alpha", 30, 1, "x", 0.55, **no_test), row("alpha", 30, 1, "g", 0.5, **no_test),
        row("mid", 50, 0, "g", 0.3), row("mid", 50, 0, "x", nan, flags=("quarantined",)),
    ]


# SHA-256 of the report of edge_case_rows() with 300 resamples, dumped with
# sorted keys, without and with family kinds. Re-pinned when each ramp's
# name gained its grid index: the tied quantiles of family alpha's n=60 cell
# had given three pairs of ramps one name each, and per_psi kept 14 of 17.
# Re-pinned again when test_gap lost combined_se, which counted the test
# rows' Monte Carlo noise twice, and when the ramps were named by their grid
# index alone, with each ramp's delta and rho written as numbers in ramps.
# Re-pinned again when each cell drew one resample of its trial pairs for
# all three CIs (bl_gap and test_gap CIs moved; train_gap kept its bits),
# and when each trend inversion was named by its n in place of an index
# that skipped family zeta's empty n=10 cell.
EDGE_CASE_REPORT_PINS = {
    "no-kinds": "fd645932c858aa5428b1a40dc7c399c6af5c0666903c4ddca6808fd1ec4eb214",
    "kinds": "daaf527e25621298236f84957a44b8d3abf4990257ef87fe1f17be3a3b6c636c",
}


class TestReport:
    @pytest.mark.parametrize("kinds", sorted(EDGE_CASE_REPORT_PINS))
    def test_edge_case_report_matches_its_pin(self, kinds):
        family_kinds = {"alpha": "control-gaussian", "mid": "control-gaussian",
                        "zeta": "random-features"}
        report = build_report(
            edge_case_rows(), n_boot=300, family_kinds=family_kinds if kinds == "kinds" else None
        )
        digest = hashlib.sha256(json.dumps(report, sort_keys=True).encode()).hexdigest()
        assert digest == EDGE_CASE_REPORT_PINS[kinds]

    def test_tied_quantiles_keep_every_dictionary_function(self):
        # Family alpha's n=60 cell has tied train values, so two of the
        # quantiles its ramps start from coincide.
        (cell,) = [size for size in build_report(edge_case_rows(), n_boot=300)
                   ["families"]["alpha"]["sizes"] if size["n"] == 60]
        per_psi, ramps = cell["bl_gap"]["per_psi"], cell["bl_gap"]["ramps"]
        assert list(per_psi) == [f"ramp{k}" for k in range(15)] + [
            "clipped-identity", "clipped-quadratic"]
        assert list(ramps) == list(per_psi)[:15]
        assert ramps["ramp1"] == ramps["ramp2"]  # the tied 0.25 and 0.5 quantiles
        assert cell["bl_gap"]["argmax"] in per_psi

    def test_report_structure(self, tmp_path):
        cfg = base_config()
        run_campaign(cfg, tmp_path / "out")
        report_path = write_report(tmp_path / "out")
        report = json.loads(report_path.read_text())
        assert report["family_order"] == ["lin", "control"]
        lin = report["families"]["lin"]
        assert len(lin["sizes"]) == 2
        for s in lin["sizes"]:
            tg = s["train_gap"]
            assert tg["ci_lo"] <= tg["mean"] <= tg["ci_hi"]
            assert 0.0 <= s["ks"]["statistic"] <= 1.0
        assert "null_calibration" in report["families"]["control"]
        assert (tmp_path / "out/gap_vs_n.csv").exists()

    def test_single_trial_degenerate_ci_flagged(self, tmp_path):
        cfg = base_config(trials=1, ladder=[40])
        run_campaign(cfg, tmp_path / "out")
        report = json.loads(write_report(tmp_path / "out").read_text())
        s = report["families"]["lin"]["sizes"][0]
        assert s["train_gap"]["degenerate_ci"]

    def test_nonconverged_pairs_counted_not_dropped(self):
        rows = [
            trial_row(0, "x", 1.0), trial_row(0, "g", 0.9),
            trial_row(1, "x", 1.2, "maxiter"), trial_row(1, "g", 1.0),
            trial_row(2, "x", 0.8, "maxiter"), trial_row(2, "g", 0.9, "step-underflow"),
            trial_row(3, "x", float("nan"), "quarantined"), trial_row(3, "g", 1.1, "maxiter"),
        ]
        (entry,) = build_report(rows, n_boot=50)["families"]["lin"]["sizes"]
        assert entry["trials"] == 3
        assert entry["quarantined"] == 1
        assert entry["nonconverged"] == 2
        assert entry["train_gap"]["mean"] == pytest.approx((0.1 + 0.2 - 0.1) / 3)

    def test_all_quarantined_size_keeps_its_p(self):
        rows = [
            trial_row(0, "x", float("nan"), "quarantined"), trial_row(0, "g", 0.9),
            trial_row(1, "x", 1.2), trial_row(1, "g", float("nan"), "quarantined"),
            trial_row(2, "x", 0.8),
        ]
        (entry,) = build_report(rows, n_boot=50)["families"]["lin"]["sizes"]
        assert (entry["n"], entry["p"], entry["trials"]) == (40, 30, 0)
        assert entry["quarantined"] == 3
        assert entry["empty"]

    def test_nonconverged_pairs_warned(self, tmp_path):
        rows = [
            trial_row(0, "x", 1.0), trial_row(0, "g", 0.9),
            trial_row(1, "x", 1.2, "maxiter"), trial_row(1, "g", 1.0),
        ]
        campaign.write_csv(
            tmp_path / "trials.csv", [f.name for f in fields(TrialRow)], map(astuple, rows)
        )
        report = json.loads(write_report(tmp_path).read_text())
        assert report["families"]["lin"]["sizes"][0]["nonconverged"] == 1
        assert report["warnings"] == ["lin n=40: 1 non-converged pairs averaged into the gaps"]

    def test_clean_run_has_no_warnings(self, tmp_path):
        cfg = base_config(trials=2, ladder=[40])
        run_campaign(cfg, tmp_path / "out")
        report = json.loads(write_report(tmp_path / "out").read_text())
        assert all(s["nonconverged"] == 0 for f in report["families"].values() for s in f["sizes"])
        assert "warnings" not in report

    def test_cis_of_a_cell_read_one_resample_of_its_pairs(self):
        # Each pair's test gap equals its train gap, so the two CIs agree
        # exactly only when they read the same resample rows.
        rows = []
        for t, (vx, vg) in enumerate([(1.0, 0.9), (1.2, 1.0), (0.8, 0.9), (1.05, 1.1)]):
            rows += [replace(trial_row(t, "x", vx), test_x=vx),
                     replace(trial_row(t, "g", vg), test_g=vg)]
        (entry,) = build_report(rows, n_boot=50)["families"]["lin"]["sizes"]
        assert entry["test_gap"] == entry["train_gap"]

    def test_inversion_names_the_size_where_the_gap_rose(self):
        # The middle size has no kept pair, so the rise from n=10 to n=30
        # is the second step among the kept sizes but the third size.
        gaps = {10: [(1.0, 0.95), (1.1, 1.0)], 30: [(1.2, 1.0), (1.3, 1.0)]}
        rows = [replace(trial_row(t, arm, value), n=n)
                for n, pairs in gaps.items() for t, pair in enumerate(pairs)
                for arm, value in zip("xg", pair)]
        rows += [replace(trial_row(0, "x", float("nan"), "quarantined"), n=20),
                 replace(trial_row(0, "g", 0.9), n=20)]
        family = build_report(rows, n_boot=50)["families"]["lin"]
        assert [s["n"] for s in family["sizes"]] == [10, 20, 30]
        assert family["sizes"][1]["empty"]
        (inversion,) = family["trend"]["inversions"]
        assert inversion["n"] == 30
        assert inversion["excess"] == pytest.approx(0.25 - 0.075)

    def test_report_elsewhere_copies_stage_outputs_byte_for_byte(self, tmp_path):
        cfg = base_config(
            ladder=[40],
            free_energy={"enabled": True, "M": 16, "path_points": 4},
            perturbed={"enabled": True, "s_values": [0.1], "n_test": 50},
        )
        results, out = tmp_path / "results", tmp_path / "report"
        run_campaign(cfg, results)
        write_report(results, out)
        for name in ("free_energy_paths.csv", "perturbed.csv"):
            copied = (out / name).read_bytes()
            assert b"\r\n" in copied, name  # csv.writer line ends survive the copy
            assert copied == (results / name).read_bytes(), name
        assert not list(out.glob("*.tmp"))

    def test_report_elsewhere_removes_stage_files_of_another_run(self, tmp_path):
        stages = {"free_energy": {"enabled": True, "M": 8, "path_points": 3},
                  "perturbed": {"enabled": True, "s_values": [0.1]}}
        with_stages, without, out = tmp_path / "a", tmp_path / "b", tmp_path / "report"
        run_campaign(base_config(trials=1, ladder=[40], **stages), with_stages)
        run_campaign(base_config(trials=1, ladder=[40]), without)
        write_report(with_stages, out)
        assert (out / "perturbed.csv").exists() and (out / "free_energy_paths.csv").exists()
        (out / "notes.txt").write_text("kept")  # not an artifact name
        write_report(without, out)
        assert sorted(f.name for f in out.iterdir()) == ["gap_vs_n.csv", "notes.txt", "report.json"]

    def test_null_calibration_comes_from_the_family_kind_only(self):
        rows = [replace(row, family=family) for family in ("control-rf", "null")
                for row in (trial_row(0, "x", 1.0), trial_row(0, "g", 0.9),
                            trial_row(1, "x", 1.2), trial_row(1, "g", 1.0))]
        families = build_report(rows, n_boot=50)["families"]
        assert not any("null_calibration" in entry for entry in families.values())
        kinds = {"control-rf": "random-features", "null": "control-gaussian"}
        families = build_report(rows, n_boot=50, family_kinds=kinds)["families"]
        assert "null_calibration" not in families["control-rf"]
        assert families["null"]["null_calibration"]["covers_zero_per_size"] == [
            families["null"]["sizes"][0]["train_gap"]["covers_zero"]
        ]

    def test_missing_csv_reports_filename(self, tmp_path):
        with pytest.raises(InvalidArgumentError, match="trials.csv"):
            write_report(tmp_path)

    def test_corrupt_row_reports_line(self, tmp_path):
        cfg = base_config(trials=1, ladder=[40])
        run_campaign(cfg, tmp_path / "out")
        path = tmp_path / "out/trials.csv"
        lines = path.read_text().splitlines()
        lines[1] = lines[1].replace(",", ";", 3)
        path.write_text("\n".join(lines))
        with pytest.raises(InvalidArgumentError, match="line 2"):
            read_trials_csv(path)


    def test_repeated_trial_row_fails_the_report(self, tmp_path, capsys):
        rows = [trial_row(0, "x", 1.0), trial_row(0, "g", 0.9),
                trial_row(1, "x", 1.2), trial_row(1, "g", 1.0), trial_row(0, "x", 0.5)]
        campaign.write_csv(
            tmp_path / "trials.csv", [f.name for f in fields(TrialRow)], map(astuple, rows)
        )
        assert cli_main(["report", "--results", str(tmp_path)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("report failed: ")
        assert "line 6: repeats (family, n, trial, arm) ('lin', 40, 0, 'x') of line 2" in err
        assert not (tmp_path / "report.json").exists()

    @pytest.mark.parametrize("flags", ["arm:q", "quarantined"])
    def test_row_naming_no_arm_fails_the_report(self, tmp_path, capsys, flags):
        # Read as a cell with one arm, the row would count as a quarantined trial.
        rows = [trial_row(0, "x", 1.0), trial_row(0, "g", 0.9),
                trial_row(1, "x", 1.2), replace(trial_row(1, "g", 1.0), flags=flags)]
        campaign.write_csv(
            tmp_path / "trials.csv", [f.name for f in fields(TrialRow)], map(astuple, rows)
        )
        assert cli_main(["report", "--results", str(tmp_path)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("report failed: ")
        assert f"line 5: flags '{flags}' name no arm x or g" in err
        assert not (tmp_path / "report.json").exists()


class TestCli:
    def test_run_and_report(self, tmp_path, capsys):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({**BASE, "ladder": [40]}))
        out = tmp_path / "results"
        assert cli_main(["run", "--config", str(cfg_path), "--out", str(out)]) == 0
        assert (out / "trials.csv").exists()
        assert cli_main(["report", "--results", str(out)]) == 0
        assert (out / "report.json").exists()

    def test_report_of_a_manifest_config_that_does_not_parse(self, tmp_path, capsys):
        # The report reads the run's config through the config reader: an
        # unknown key is a report failure naming it, not a traceback.
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({**BASE, "ladder": [40]}))
        out = tmp_path / "results"
        assert cli_main(["run", "--config", str(cfg_path), "--out", str(out)]) == 0
        manifest = json.loads((out / "manifest.json").read_text())
        manifest["config"]["bootstrap"]["margin_rel"] = 0.1
        (out / "manifest.json").write_text(json.dumps(manifest))
        capsys.readouterr()
        assert cli_main(["report", "--results", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("report failed: ")
        assert "config.bootstrap: unknown key 'margin_rel'" in err
        assert not (out / "report.json").exists()

    @pytest.mark.parametrize("text, message", [
        ('{"config": ', "manifest.json: line 1, column 12: Expecting value"),
        ("[1, 2]", "manifest.json: expected an object, got list"),
        ('{"config": {}, "config": {}}', "manifest.json: repeated key 'config'"),
    ])
    def test_report_of_a_manifest_that_does_not_parse(self, tmp_path, capsys, text, message):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({**BASE, "ladder": [40]}))
        out = tmp_path / "results"
        assert cli_main(["run", "--config", str(cfg_path), "--out", str(out)]) == 0
        (out / "manifest.json").write_text(text)
        capsys.readouterr()
        assert cli_main(["report", "--results", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("report failed: ")
        assert message in err
        assert not (out / "report.json").exists()

    def test_invalid_config_exit_code(self, tmp_path, capsys):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({**BASE, "ladder": []}))
        assert cli_main(["run", "--config", str(cfg_path), "--out", str(tmp_path / "o")]) == 2
        assert "ladder" in capsys.readouterr().err

    @pytest.mark.parametrize("old, new, key", [
        ('"trials": 3', '"trials": 1, "trials": 3', "trials"),
        ('"tau": 0.5', '"tau": 0.5, "tau": 0.0', "tau"),
    ])
    def test_repeated_key_exit_code(self, tmp_path, capsys, old, new, key):
        # json keeps the last value of a repeated key; the config reader refuses it.
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(BASE).replace(old, new, 1))
        assert cli_main(["run", "--config", str(cfg_path), "--out", str(tmp_path / "o")]) == 2
        assert f"config error: {cfg_path}: repeated key '{key}'" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("make", [
        lambda path: None,
        lambda path: path.mkdir(),
        lambda path: path.write_bytes(b"\xff\xfe{}"),
    ], ids=["missing", "directory", "not-utf8"])
    def test_unreadable_config_exit_code(self, tmp_path, capsys, make):
        cfg_path = tmp_path / "cfg.json"
        make(cfg_path)
        assert cli_main(["run", "--config", str(cfg_path), "--out", str(tmp_path / "o")]) == 2
        assert capsys.readouterr().err.startswith(f"config error: {cfg_path}: ")
        assert not (tmp_path / "o").exists()

    def test_run_out_is_a_file_exit_code(self, tmp_path, capsys):
        cfg_path, out = tmp_path / "cfg.json", tmp_path / "out"
        cfg_path.write_text(json.dumps({**BASE, "ladder": [40]}))
        out.write_text("not a directory")
        assert cli_main(["run", "--config", str(cfg_path), "--out", str(out)]) == 1
        assert capsys.readouterr().err.startswith("run failed: ")
        assert out.read_text() == "not a directory"

    def test_report_path_errors_exit_code(self, tmp_path, capsys):
        a_file, missing = tmp_path / "a-file", tmp_path / "missing"
        a_file.write_text("not a directory")
        for args in (["--results", str(a_file)], ["--results", str(missing)]):
            assert cli_main(["report", *args]) == 1
            assert capsys.readouterr().err.startswith("report failed: ")
        assert not missing.exists()  # the rows are read before the output directory is made
        cfg_path, results = tmp_path / "cfg.json", tmp_path / "results"
        cfg_path.write_text(json.dumps({**BASE, "ladder": [40]}))
        assert cli_main(["run", "--config", str(cfg_path), "--out", str(results)]) == 0
        capsys.readouterr()
        assert cli_main(["report", "--results", str(results), "--out", str(a_file)]) == 1
        assert capsys.readouterr().err.startswith("report failed: ")

    def test_k_exit_code(self, tmp_path, capsys):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(base_with(("problem", "k"), 2)))
        assert cli_main(["run", "--config", str(cfg_path), "--out", str(tmp_path / "o")]) == 2
        assert "config.problem: unknown key 'k'" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    def test_non_numeric_list_entry_exit_code(self, tmp_path, capsys):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(base_with(("perturbed", "s_values"), ["x"])))
        assert cli_main(["run", "--config", str(cfg_path), "--out", str(tmp_path / "o")]) == 2
        assert "config.perturbed.s_values[0]" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("path, value, where", NON_FINITE_CASES + [
        (("free_energy", "alpha"), 0.0, "config.free_energy: alpha"),
        (("solver", "tol"), -1.0, "config.solver: tol"),
    ])
    def test_bad_float_exit_code(self, tmp_path, capsys, path, value, where):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(base_with(path, value)))  # NaN and Infinity as json writes them
        assert cli_main(["run", "--config", str(cfg_path), "--out", str(tmp_path / "o")]) == 2
        assert where in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("path, value, where", [
        *((("solver", key), 1, f"config.solver: unknown key '{key}'") for key in REMOVED_SOLVER_KEYS),
        (("output_dir",), "results", "config: unknown key 'output_dir'"),
        (("families", 0), {"id": "nt", "kind": "neural-tangent",
                           "sizes": [{"d": 4, "n": 20}, {"d": 4, "n": 30}]},
         "config.families[0]: sizes entries must name distinct d values"),
        (("families", 0), {"id": "rf", "kind": "random-features", "activation": "custom-hermite",
                           "hermite_coeffs": [0.5, 0.8], "cov_mode": "empirical"},
         "config.families[0]: hermite_coeffs[0] must be 0"),
        (("families", 0), {"id": "nt", "kind": "neural-tangent", "activation": "custom-hermite",
                           "hermite_coeffs": [0.0, 0.5, 0.5], "cov_mode": "empirical",
                           "sizes": [{"d": 6, "n": 40}]},
         "config.families[0]: hermite_coeffs[1] and hermite_coeffs[2] must be 0"),
        (("families", 0), {"id": "rf", "kind": "random-features", "activation": "tanh-rf",
                           "hermite_coeffs": [0.0, 1.0]},
         "config.families[0]: hermite_coeffs applies to activation 'custom-hermite' only"),
        (("families", 0, "sizes"), [{"n": 40, "d": 7}],
         "config.families[0]: sizes applies to neural-tangent only"),
        (("families", 0), {"id": "rf", "kind": "random-features", "sizes": [{"n": 40, "d": 7}]},
         "config.families[0]: sizes applies to neural-tangent only"),
        (("families", 1, "nu"), 4,
         "config.families[1]: nu applies to linear-independent only; got kind 'control-gaussian'"),
        (("free_energy", "M"), 8, "config.free_energy: M applies to an enabled stage only"),
        (("perturbed", "s_values"), [0.3],
         "config.perturbed: s_values applies to an enabled stage only"),
        (("perturbed", "n_test"), 50, "config.perturbed: n_test applies to an enabled stage only"),
        (("families", 0), {"id": "nt", "kind": "neural-tangent", "gamma_p": 0.5,
                           "sizes": [{"d": 6, "n": 40}]},
         "config.families[0]: gamma_p applies to a neural-tangent cell whose sizes entry sets no n"),
        (("families", 0), {"id": "rf", "kind": "random-features", "activation": "custom-hermite",
                           "hermite_coeffs": [0.0, 0.5, 0.0, 0.6, 0.5],
                           "cov_mode": "hermite-exact", "hermite_order": 2},
         "config.families[0]: hermite_order must be >= 4"),
        (("families", 0), {"id": "rf", "kind": "random-features", "cov_mode": "hermite-exact",
                           "hermite_order": 200},
         "config.families[0]: hermite_order must be <= 199"),
        (("problem",), {"regularizer": "none", "lambda": 0.3},
         "config.problem: lambda applies to regularizer 'ridge' only; got 'none'"),
        (("free_energy",), {"enabled": True, "candidates": "random-net", "alpha": 0.25},
         "config.free_energy: alpha applies to candidates 'solution-cloud' only"),
        # Each of the next three would run the same trials as an accepted
        # config under a second hash: the sweep sorts its s grid, ridge at
        # lambda 0 is regularizer none, and c_k past the list are 0.
        (("perturbed",), {"enabled": True, "s_values": [0.1, 0.01]},
         "config.perturbed: s_values must be a nonempty, positive, strictly ascending list"),
        (("problem", "lambda"), 0,
         "config.problem: lambda must be > 0 under regularizer 'ridge'; "
         "for no penalty set regularizer 'none'"),
        (("families", 0), {"id": "rf", "kind": "random-features", "activation": "custom-hermite",
                           "hermite_coeffs": [0, 1, 0.25, 0, 0], "cov_mode": "hermite-exact",
                           "hermite_order": 5},
         "config.families[0]: hermite_coeffs must end in a nonzero entry"),
    ], ids=[*REMOVED_SOLVER_KEYS, "output_dir", "repeated-sizes", "non-centred-hermite", "nt-hermite-c2",
            "unused-hermite-coeffs", "linear-sizes", "rf-sizes", "control-nu",
            "disabled-free-energy-M", "disabled-perturbed-s-values", "disabled-perturbed-n-test",
            "nt-gamma-p-every-n-set", "hermite-order-below-last-coeff",
            "hermite-order-above-quadrature-rule", "lambda-without-ridge", "random-net-alpha",
            "descending-s-values", "ridge-lambda-zero", "hermite-coeffs-trailing-zero"])
    def test_rejected_setting_exit_code(self, tmp_path, capsys, path, value, where):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(base_with(path, value)))
        assert cli_main(["run", "--config", str(cfg_path), "--out", str(tmp_path / "o")]) == 2
        assert where in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    def test_family_setting_outside_its_kind_exit_code(self, tmp_path, capsys):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(base_with(("families", 0, "constraint"), "nt-operator-ball")))
        assert cli_main(["run", "--config", str(cfg_path), "--out", str(tmp_path / "o")]) == 2
        assert "config.families[0]: constraint 'nt-operator-ball'" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    def test_run_needs_out(self, tmp_path, capsys):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(BASE))
        with pytest.raises(SystemExit) as exc:
            cli_main(["run", "--config", str(cfg_path)])
        assert exc.value.code == 2
        assert "--out" in capsys.readouterr().err

    def test_threads_flag_sets_the_pool_not_the_hash(self, tmp_path):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({**BASE, "ladder": [40]}))
        a, b = tmp_path / "a", tmp_path / "b"
        assert cli_main(["run", "--config", str(cfg_path), "--out", str(a)]) == 0
        assert cli_main(["run", "--config", str(cfg_path), "--out", str(b), "--threads", "3"]) == 0
        ma, mb = (json.loads((out / "manifest.json").read_text()) for out in (a, b))
        assert (ma["threads"], mb["threads"]) == (1, 3)
        assert ma["config_hash"] == mb["config_hash"]
        assert ma["config"] == mb["config"] and "threads" not in mb["config"]

    def test_seed_override_changes_outputs(self, tmp_path):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({**BASE, "ladder": [40]}))
        a, b = tmp_path / "a", tmp_path / "b"
        assert cli_main(["run", "--config", str(cfg_path), "--out", str(a)]) == 0
        assert cli_main(
            ["run", "--config", str(cfg_path), "--out", str(b), "--seed-override", "99"]
        ) == 0
        assert (a / "trials.csv").read_bytes() != (b / "trials.csv").read_bytes()

    @pytest.mark.parametrize("threads", ["-3", "0", "two"])
    def test_threads_below_one_rejected_at_parse_time(self, tmp_path, capsys, threads):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({**BASE, "ladder": [40]}))
        out = tmp_path / "o"
        with pytest.raises(SystemExit) as exc:
            cli_main(["run", "--config", str(cfg_path), "--out", str(out), "--threads", threads])
        assert exc.value.code == 2
        assert "--threads" in capsys.readouterr().err
        assert not out.exists()


class TestDiff:
    HEADER = [f.name for f in fields(TrialRow)]
    ROWS = [
        ["rf", "40", "30", "0", "11", "0.25", "0.5", "0.01", "0.75", "0", "40", "arm:x"],
        ["rf", "40", "30", "0", "11", "0.125", "nan", "nan", "nan", "nan", "7", "arm:g;no-test"],
        ["lin", "80", "60", "1", "12", "2", "3", "0.5", "4", "0", "9", "arm:x"],
    ]
    REPORT = {"families": {"rf": {"sizes": [
        {"n": 40, "train_gap": {"mean": 0.5, "ci_contains_zero": True},
         "per_psi": {"ramp0": 0.1}},
        {"n": 80, "train_gap": {"mean": -0.25, "ci_contains_zero": True},
         "per_psi": {"ramp0": 0.2}},
    ]}}}

    def write(self, root: Path, rows, report, matrix):
        root.mkdir()
        campaign.write_csv(root / "trials.csv", self.HEADER, rows)
        (root / "report.json").write_text(json.dumps(report, indent=2))
        (root / "gap_vs_n.csv").write_text("family,n\nrf,40\n")
        (root / "matrices").mkdir()
        campaign._save_matrix(root / "matrices" / "rf_n40_factor.ermumat", matrix)

    def crafted(self, tmp_path):
        matrix = np.arange(6.0).reshape(2, 3)
        self.write(tmp_path / "a", self.ROWS, self.REPORT, matrix)
        rows = [list(r) for r in self.ROWS]
        rows[0][5] = "0.2500000001"  # train_opt: abs 1e-10
        rows[2][5] = "2.5"  # train_opt: abs 0.5, rel 0.2
        rows[0][10] = "44"  # iters 40 -> 44
        rows[2][11] = "arm:x;maxiter"
        report = json.loads(json.dumps(self.REPORT))
        sizes = report["families"]["rf"]["sizes"]
        sizes[1]["train_gap"]["mean"] = -0.5
        sizes[1]["train_gap"]["ci_contains_zero"] = False
        sizes[0]["per_psi"] = {"ramp1": 0.1}
        matrix = matrix.copy()
        matrix[1, 2] = 5.5
        self.write(tmp_path / "b", rows, report, matrix)
        (tmp_path / "b" / "perturbed.csv").write_text("s\n0.1\n")
        return tmp_path / "a", tmp_path / "b"

    def test_identical_directories(self, tmp_path, capsys):
        a, _ = self.crafted(tmp_path)
        assert cli_main(["diff", str(a), str(a)]) == 0
        assert capsys.readouterr().out.splitlines() == [
            "gap_vs_n.csv: identical",
            "matrices/rf_n40_factor.ermumat: identical",
            "report.json: identical",
            "trials.csv: identical",
        ]

    def test_changes_by_column_leaf_and_cell(self, tmp_path, capsys):
        a, b = self.crafted(tmp_path)
        assert cli_main(["diff", str(a), str(b)]) == 1
        out = capsys.readouterr().out.splitlines()
        assert out[0] == "gap_vs_n.csv: identical"
        matrix = out.index("matrices/rf_n40_factor.ermumat: differs")
        assert out[matrix + 1] == "  entries: 1 of 6 changed, max abs 0.5, max rel 0.0909, sum 15 -> 15.5"
        assert "perturbed.csv: only in B" in out
        report = out[out.index("report.json: differs") + 1 : out.index("trials.csv: differs")]
        assert sorted(report) == sorted([
            "  only in A: families.rf.sizes[n=40].per_psi.ramp0",
            "  only in B: families.rf.sizes[n=40].per_psi.ramp1",
            "  families.rf.sizes[n=80].train_gap.ci_contains_zero: true -> false",
            "  families.rf.sizes[].train_gap.mean: 1 of 2 changed, max abs 0.25, max rel 0.5, "
            "sum 0.25 -> 0",
        ])
        trials = out[out.index("trials.csv: differs") + 1 :]
        assert trials[0].startswith("  train_opt: 2 of 3 changed, max abs 0.5, max rel 0.2, sum ")
        assert "  iters: 1 of 3 changed, max abs 4, max rel 0.0909, sum 56 -> 60" in trials
        assert "  flags [family=lin n=80 trial=1 arm:x]: arm:x -> arm:x;maxiter" in trials
        # NaN against NaN is no change: the no-test columns are not listed.
        assert not any(line.startswith(("  test_", "  family", "  seed")) for line in trials)
        assert len(trials) == 3

    def test_a_value_that_turns_nan_is_an_infinite_change(self, tmp_path, capsys):
        a, _ = self.crafted(tmp_path)
        rows = [list(r) for r in self.ROWS]
        rows[0][6] = "nan"
        self.write(tmp_path / "c", rows, self.REPORT, np.arange(6.0).reshape(2, 3))
        assert cli_main(["diff", str(a), str(tmp_path / "c")]) == 1
        out = capsys.readouterr().out.splitlines()
        assert out[-1] == "  test_x: 1 of 3 changed, max abs inf, max rel inf, sum nan -> nan"

    def test_a_zero_that_turns_nan_is_an_infinite_change(self, tmp_path, capsys):
        # max(|0|, |nan|) is 0: the relative change must not divide by it.
        report = json.loads(json.dumps(self.REPORT))
        report["families"]["rf"]["sizes"][0]["per_psi"]["ramp0"] = 0.0
        self.write(tmp_path / "a", self.ROWS, report, np.arange(6.0).reshape(2, 3))
        rows = [list(r) for r in self.ROWS]
        rows[0][9] = "nan"  # test_g_se: 0 -> nan
        report["families"]["rf"]["sizes"][0]["per_psi"]["ramp0"] = math.nan
        self.write(tmp_path / "b", rows, report, np.arange(6.0).reshape(2, 3))
        assert cli_main(["diff", str(tmp_path / "a"), str(tmp_path / "b")]) == 1
        out = capsys.readouterr().out.splitlines()
        assert out[3].startswith(
            "  families.rf.sizes[].per_psi.ramp0: 1 of 2 changed, max abs inf, max rel inf, sum ")
        assert out[-1] == "  test_g_se: 1 of 3 changed, max abs inf, max rel inf, sum nan -> nan"

    def test_ragged_rows_are_reported_not_compared(self, tmp_path, capsys):
        # A row with fewer or more fields than the header is named with both
        # field counts and left out of the columns; the other rows still are.
        a, _ = self.crafted(tmp_path)
        rows = [list(r) for r in self.ROWS]
        rows[0][5] = "0.5"  # train_opt of a row both sides keep whole
        rows[1] = rows[1][:9]
        rows[2] = rows[2] + ["extra"]
        self.write(tmp_path / "c", rows, self.REPORT, np.arange(6.0).reshape(2, 3))
        assert cli_main(["diff", str(a), str(tmp_path / "c")]) == 1
        out = capsys.readouterr().out.splitlines()
        assert out[out.index("trials.csv: differs") + 1 :] == [
            "  row 2 [family=rf n=40 trial=0 arm:g]: 12 fields -> 9 fields",
            "  row 3 [family=lin n=80 trial=1 arm:x]: 12 fields -> 13 fields",
            "  train_opt: 1 of 1 changed, max abs 0.25, max rel 0.5, sum 0.25 -> 0.5",
        ]

    def test_moved_quantiles_pair_every_dictionary_function(self, tmp_path, capsys):
        # The dictionary's functions are named by their grid index, so two
        # reports whose ramp quantiles differ pair every function.
        rows = edge_case_rows()
        moved = [replace(row, train_opt=row.train_opt ** 2) for row in rows]
        for name, trial_rows in (("a", rows), ("b", moved)):
            (tmp_path / name).mkdir()
            (tmp_path / name / "report.json").write_text(
                json.dumps(build_report(trial_rows, n_boot=50)))
        assert cli_main(["diff", str(tmp_path / "a"), str(tmp_path / "b")]) == 1
        out = capsys.readouterr().out.splitlines()
        assert not any("only in" in line for line in out)
        assert any(line.startswith("  families.zeta.sizes[].bl_gap.ramps.ramp0.rho: ")
                   for line in out)
        assert any(line.startswith("  families.zeta.sizes[].bl_gap.per_psi.ramp0: ")
                   for line in out)

    def test_missing_directory_exit_code(self, tmp_path, capsys):
        a, _ = self.crafted(tmp_path)
        assert cli_main(["diff", str(a), str(tmp_path / "nowhere")]) == 2
        assert "is not a directory" in capsys.readouterr().err


class TestBenchmarkHooks:
    @pytest.mark.parametrize("smoke", [False, True])
    def test_perfbench_workload_configs_parse(self, smoke):
        # perfbench/workloads.py writes raw configs; a key deleted from the
        # schema that a workload still sets fails here, not first in the benchmark.
        from perfbench import workloads

        for name in workloads.NAMES:
            config_from_dict(workloads.config(name, 7, smoke))

    def test_perfbench_spans_install_finds_every_name(self):
        # perfbench/spans.py rebinds ermu functions and methods by name; a
        # name deleted from src/ makes install() raise. It runs in a fresh
        # process because install() rebinds them for the whole process.
        root = Path(__file__).resolve().parent.parent
        env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(root / "src"), str(root)]))
        proc = subprocess.run(
            [sys.executable, "-c", "from perfbench import spans; spans.install()"],
            cwd=root, env=env, capture_output=True, text=True, timeout=120,
        )
        assert proc.returncode == 0, proc.stderr
