"""Config validation and hashing, campaign artifacts, report, CLI."""

import csv
import json
import math
import multiprocessing
import os
import pickle
import subprocess
import sys
from dataclasses import astuple
from pathlib import Path

import numpy as np
import pytest

from ermu import campaign, erm, gaussian
from ermu.campaign import run_campaign
from ermu.cli import main as cli_main
from ermu.config import ExperimentConfig, config_from_dict, load_config
from ermu.errors import ConfigError, InvalidArgumentError, SolverDivergedError
from ermu.gaussian import empirical_equivalent
from ermu.matio import load_matrix, save_matrix
from ermu.report import build_report, read_trials_csv, write_report
from ermu.seeds import derive_seed
from ermu.universality import TrialRow

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

# Every key of every section, each set to a value other than its default.
EVERY_KEY_CONFIG = {
    "master_seed": 11,
    "trials": 5,
    "ladder": [50, 100],
    "threads": 2,
    "output_dir": "results",
    "save_matrices": True,
    "families": [
        {"id": "rf", "kind": "random-features", "activation": "custom-hermite",
         "hermite_coeffs": [0.0, 1.0, 0.25], "entry_law": "uniform", "nu": 2.0,
         "gamma_p": 0.5, "gamma_d_over_p": 0.25, "gamma_tilde": 2.0, "radius": 4.0,
         "constraint": "l2-ball", "cov_mode": "monte-carlo", "hermite_order": 31,
         "cov_samples_per_dim": 20, "jitter_rel": 1e-8, "theta_star_scale": 0.5,
         "sizes": [{"n": 100, "d": 30}]},
    ],
    "problem": {"loss": "pseudo-huber", "loss_delta": 0.5, "labeler": "clipped-linear",
                "tau": 0.25, "noise_law": "rademacher", "clip_bound": 2.0, "smoothing": 0.2,
                "regularizer": "none", "lambda": 0.3},
    "solver": {"max_iters": 300, "tol": 1e-6, "restarts": 2, "armijo_shrink": 0.25,
               "armijo_slope": 1e-3, "init_step": 0.5, "step_growth": 1.5},
    "test_risk": {"n_test": 100},
    "bootstrap": {"resamples": 300, "level": 0.9},
    "free_energy": {"enabled": True, "M": 16, "beta_grid": [0.5, 5.0], "path_points": 4,
                    "alpha": 0.25, "candidates": "random-net"},
    "perturbed": {"enabled": True, "s_values": [0.05], "n_test": 100},
}


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
        save_matrix(path, arr)
        assert np.array_equal(load_matrix(path), arr)

    def test_bad_magic_rejected(self, tmp_path):
        path = tmp_path / "bad.bin"
        path.write_bytes(b"NOTMAGIC" + b"\x00" * 16)
        with pytest.raises(InvalidArgumentError):
            load_matrix(path)

    def test_truncated_payload_rejected(self, tmp_path):
        path = tmp_path / "trunc.bin"
        save_matrix(path, np.ones((2, 2)))
        data = path.read_bytes()
        path.write_bytes(data[:-8])
        with pytest.raises(InvalidArgumentError):
            load_matrix(path)

    def test_vector_rejected(self, tmp_path):
        with pytest.raises(InvalidArgumentError):
            save_matrix(tmp_path / "v.bin", np.ones(3))


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
        assert config_from_dict(explicit).canonical_hash() == base_config().canonical_hash()

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
            "d21ad701797944e0b61ec6e94b765d260ad84dcbc527a25dbf1cf581bb114e82"
        )
        assert config_from_dict(EVERY_KEY_CONFIG).canonical_hash() == (
            "74d745dfcb030976fd341b695d02dc6cfb682b9ed0c205d79f7b80d06535a111"
        )

    def test_every_key_config_sets_every_field(self):
        normalized = config_from_dict(EVERY_KEY_CONFIG).normalized()
        default = base_config().normalized()
        for section, value in normalized.items():
            if isinstance(value, dict):
                assert set(value) == set(EVERY_KEY_CONFIG[section]), section
                assert all(value[k] != default[section][k] for k in value), section
        assert set(normalized["families"][0]) == set(EVERY_KEY_CONFIG["families"][0])
        assert set(normalized) | {"output_dir"} == set(EVERY_KEY_CONFIG)

    @pytest.mark.parametrize("path, int_value", [
        (("families", 0, "radius"), 3),
        (("problem", "lambda"), 0),
        (("solver", "init_step"), 2),
        (("free_energy", "beta_grid"), [1, 10]),
    ])
    def test_float_fields_hash_int_literals_as_floats(self, path, int_value):
        as_float = json.loads(json.dumps(int_value), parse_int=float)
        a = config_from_dict(base_with(path, int_value))
        b = config_from_dict(base_with(path, as_float))
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
        (("families", 0, "sizes"), [{"n": 0}]),
        (("families", 0, "sizes"), [{"n": 40.0}]),
        (("families", 0, "sizes"), [{"d": True}]),
        (("families", 0, "sizes"), [{"n": 40, "p": 30}]),
        (("test_risk", "n_test"), -5),
        (("bootstrap", "resamples"), 0),
        (("bootstrap", "level"), 1.5),
        (("solver", "max_iters"), 0),
        (("solver", "armijo_shrink"), 1.5),
        (("solver", "init_step"), 0.0),
        (("solver", "step_growth"), 0.5),
        (("bootstrap", "resamples"), 1),
        (("threads",), -2),
        (("families", 0, "cov_mode"), "hermite-exact"),
        (("families", 1, "cov_mode"), "hermite-exact"),
        (("families", 0, "constraint"), "nt-operator-ball"),
        (("families", 1, "constraint"), "nt-operator-ball"),
        (("families", 0, "hermite_order"), 0),
        (("families", 0, "cov_samples_per_dim"), 0),
        (("families", 0, "jitter_rel"), -1e-3),
        (("solver", "armijo_slope"), -1.0),
        (("solver", "armijo_slope"), 0.0),
        (("solver", "armijo_slope"), 2.0),
        (("problem", "clip_bound"), 0.0),
        (("families", 0, "sizes"), [{"d": 7}]),
        (("families", 0, "sizes"), [{"n": 50}]),
    ])
    def test_out_of_range_value_rejected_at_parse_time(self, path, value):
        with pytest.raises(ConfigError, match=path[-1]):
            config_from_dict(base_with(path, value))

    @pytest.mark.parametrize("family, key", [
        ({"kind": "random-features", "cov_mode": "linear-exact"}, "cov_mode"),
        ({"kind": "random-features", "constraint": "nt-operator-ball"}, "constraint"),
        ({"kind": "neural-tangent", "cov_mode": "hermite-exact"}, "cov_mode"),
        ({"kind": "neural-tangent", "cov_mode": "linear-exact"}, "cov_mode"),
    ])
    def test_family_setting_outside_its_kind_rejected(self, family, key):
        with pytest.raises(ConfigError, match=rf"config\.families\[0\]: {key} "):
            base_config(families=[{"id": "f", **family}])

    def test_neural_tangent_sizes_need_d(self):
        nt = {"id": "nt", "kind": "neural-tangent", "sizes": [{"n": 60}]}
        with pytest.raises(ConfigError, match="sizes need d"):
            base_config(ladder=[6], families=[nt])

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

    def test_missing_required_key_named(self):
        raw = json.loads(json.dumps(BASE))
        del raw["problem"]
        with pytest.raises(ConfigError, match="missing required key 'problem'"):
            config_from_dict(raw)
        raw = json.loads(json.dumps(BASE))
        del raw["families"][1]["kind"]
        with pytest.raises(ConfigError, match=r"families\[1\]: missing required key 'kind'"):
            config_from_dict(raw)


class TestCampaign:
    def test_rerun_byte_identical(self, tmp_path):
        cfg = base_config()
        run_campaign(cfg, tmp_path / "a", threads=1)
        run_campaign(cfg, tmp_path / "b", threads=1)
        assert (tmp_path / "a/trials.csv").read_bytes() == (tmp_path / "b/trials.csv").read_bytes()

    def test_thread_count_does_not_change_output(self, tmp_path):
        # Three families x two sizes: each stage runs six tasks on the pool.
        # The monte-carlo RF twin needs 420 p rows, four or more 4096-row
        # covariance chunks at p = 30, so the set-up runs on the pool too.
        cfg = base_config(
            families=BASE["families"] + [
                {"id": "rf", "kind": "random-features", "cov_mode": "monte-carlo",
                 "cov_samples_per_dim": 420},
            ],
            free_energy={"enabled": True, "M": 16, "path_points": 4},
            perturbed={"enabled": True, "s_values": [0.1], "n_test": 50},
        )
        run_campaign(cfg, tmp_path / "a", threads=1)
        run_campaign(cfg, tmp_path / "b", threads=3)
        for name in ("trials.csv", "perturbed.csv", "free_energy_paths.csv",
                     "free_energy_checks.json"):
            a, b = (tmp_path / "a" / name).read_bytes(), (tmp_path / "b" / name).read_bytes()
            assert a == b, name

    def test_stage_twins_use_family_jitter(self, monkeypatch):
        # An empirical-twin cell builds each draw's twin with the family's
        # jitter_rel in the free-energy and perturbed stages, as in its trials.
        # The jitter lives in the isotropic scale, so the whole twin is compared.
        cfg = base_config(
            ladder=[40],
            families=[{"id": "lin", "kind": "linear-independent", "cov_mode": "empirical",
                       "jitter_rel": 1e-3}],
            perturbed={"enabled": True, "s_values": [0.1], "n_test": 50},
        )

        def assert_family_twin(equiv, X):
            twin = empirical_equivalent(X, 1e-3)
            assert np.array_equal(equiv.factor, twin.factor)
            assert equiv.iso_scale == twin.iso_scale
            assert equiv.iso_scale != empirical_equivalent(X).iso_scale

        (inst,) = campaign.build_instances(cfg)
        seen = []
        sample = campaign.sample_gaussian

        def recording_sample(equiv, *args):
            seen.append(equiv)
            return sample(equiv, *args)

        monkeypatch.setattr(campaign, "sample_gaussian", recording_sample)
        _, X, _, _ = campaign._free_energy_data(inst, cfg.master_seed)
        (equiv,) = seen
        assert_family_twin(equiv, X)

        seen = []
        twin_risk, sweep = campaign.TwinTestRisk, campaign.perturbed_sweep

        def recording_twin_risk(problem, equiv, *args):
            seen.append(equiv)
            return twin_risk(problem, equiv, *args)

        def recording_sweep(problem, X, *args, **kwargs):
            seen.append(X)
            return sweep(problem, X, *args, **kwargs)

        monkeypatch.setattr(campaign, "TwinTestRisk", recording_twin_risk)
        monkeypatch.setattr(campaign, "perturbed_sweep", recording_sweep)
        campaign._perturbed_task((cfg, inst))
        equiv, X = seen
        assert_family_twin(equiv, X)

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
        run_campaign(cfg, tmp_path / "out", threads=1)
        assert (tmp_path / "out/free_energy_paths.csv").exists()
        assert len((tmp_path / "out/perturbed.csv").read_text().splitlines()) == 1 + 2
        assert calls == []

    def test_manifest_links_config_hash(self, tmp_path):
        cfg = base_config()
        run_campaign(cfg, tmp_path / "out", threads=1)
        manifest = json.loads((tmp_path / "out/manifest.json").read_text())
        assert manifest["config_hash"] == cfg.canonical_hash()
        assert manifest["quarantined"] == 0
        assert manifest["families"]["control"]["kind"] == "control-gaussian"

    def test_stage_outputs_written_when_enabled(self, tmp_path):
        cfg = base_config(
            ladder=[40],
            free_energy={"enabled": True, "M": 16, "path_points": 4},
            perturbed={"enabled": True, "s_values": [0.1], "n_test": 50},
        )
        run_campaign(cfg, tmp_path / "out", threads=1)
        paths = (tmp_path / "out/free_energy_paths.csv").read_text().splitlines()
        assert paths[0] == "t,f,n,beta,family,seed"
        assert len(paths) == 1 + 4 * 2  # grid points x families
        pert = (tmp_path / "out/perturbed.csv").read_text().splitlines()
        assert pert[0].startswith("family,n,p,seed,s,opt_s,D_s")
        assert len(pert) == 1 + 2 * 2  # +/- s for each family
        checks = json.loads((tmp_path / "out/free_energy_checks.json").read_text())
        assert all(c["sandwich_ok"] and c["monotone_ok"] for c in checks)

    def test_perturbed_rows_show_nonconverged_solves(self, tmp_path):
        # Three iterations stop every solve short; D(s) depends on the base
        # solve and the row's s-solve, so each row carries their flags.
        cfg = base_config(
            ladder=[40],
            solver={"max_iters": 3},
            perturbed={"enabled": True, "s_values": [0.1], "n_test": 50},
        )
        run_campaign(cfg, tmp_path / "out", threads=1)
        trials = (tmp_path / "out/trials.csv").read_text().splitlines()[1:]
        assert all(row.endswith("maxiter") for row in trials)
        with open(tmp_path / "out/perturbed.csv", newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 2 * 2
        assert all(row["flags"] == "maxiter" for row in rows)

    def test_no_partial_files_left_on_failure(self, tmp_path, monkeypatch):
        cfg = base_config(trials=1, ladder=[40])
        out = tmp_path / "out"
        run_campaign(cfg, out, threads=1)
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
            run_campaign(cfg, failed, threads=1)
        assert not (failed / "trials.csv").exists()
        assert not list(failed.glob("*.tmp"))

    def test_no_worker_outlives_a_failed_run(self, tmp_path, monkeypatch):
        cfg = base_config(trials=1, ladder=[40])
        alive_at_failure = []

        def broken(*args):
            alive_at_failure.append(len(multiprocessing.active_children()))
            raise RuntimeError("writer failed")

        monkeypatch.setattr("ermu.campaign._fmt", broken)
        with pytest.raises(RuntimeError, match="writer failed"):
            run_campaign(cfg, tmp_path / "failed", threads=2)
        assert alive_at_failure == [2]  # the campaign's pool ran the two trial chunks
        assert multiprocessing.active_children() == []

    def test_solver_diverged_error_pickles(self):
        exc = pickle.loads(pickle.dumps(SolverDivergedError("objective increased", 7)))
        assert str(exc) == "objective increased (iteration 7)"
        assert exc.iteration == 7

    def test_divergence_in_a_worker_reaches_the_caller(self, tmp_path, monkeypatch):
        # Every plain solve diverges: the trials quarantine their rows, and
        # the perturbed stage's base solve raises in a worker. The error must
        # come back through the pool as itself, not as a broken pool.
        def diverging(*args, **kwargs):
            raise SolverDivergedError("non-finite objective", 3)

        monkeypatch.setattr("ermu.universality.solve_erm", diverging)
        cfg = base_config(perturbed={"enabled": True, "s_values": [0.1], "n_test": 50})
        with pytest.raises(SolverDivergedError, match=r"non-finite objective \(iteration 3\)") as info:
            run_campaign(cfg, tmp_path / "out", threads=2)
        assert info.value.iteration == 3
        assert multiprocessing.active_children() == []

    def test_perturbed_row_of_a_diverged_s_solve(self, tmp_path, monkeypatch):
        def diverging_s_solves(*args, extra=None, **kwargs):
            if extra is not None:
                raise SolverDivergedError("non-finite objective", 1)
            return erm.solve_erm(*args, **kwargs)

        monkeypatch.setattr("ermu.universality.solve_erm", diverging_s_solves)
        cfg = base_config(
            ladder=[40], perturbed={"enabled": True, "s_values": [0.1], "n_test": 50}
        )
        run_campaign(cfg, tmp_path / "out", threads=1)
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
            written.extend(run_trials(*args, **kwargs))
            return written

        monkeypatch.setattr(campaign, "run_trials", recording)
        cfg = base_config(ladder=[40], test_risk={"n_test": n_test})
        run_campaign(cfg, tmp_path / "out", threads=1)
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

        run_campaign(base_config(trials=1, ladder=[40]), tmp_path / "out", threads=1)
        with open(tmp_path / "out/trials.csv", newline="") as fh:
            assert fh.readline() == TRIALS_HEADER + "\r\n"

    def test_save_matrices_roundtrip(self, tmp_path):
        cfg = base_config(
            ladder=[40],
            save_matrices=True,
            families=[{"id": "rf", "kind": "random-features", "gamma_d_over_p": 0.5}],
        )
        run_campaign(cfg, tmp_path / "out", threads=1)
        (inst,) = campaign.build_instances(cfg)
        W = load_matrix(tmp_path / "out/matrices/rf_n40_weights.ermumat")
        assert np.array_equal(W, inst.model.W)
        L = load_matrix(tmp_path / "out/matrices/rf_n40_factor.ermumat")
        assert np.array_equal(L, inst.equiv.factor)


class TestReport:
    def test_report_structure(self, tmp_path):
        cfg = base_config()
        run_campaign(cfg, tmp_path / "out", threads=1)
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
        run_campaign(cfg, tmp_path / "out", threads=1)
        report = json.loads(write_report(tmp_path / "out").read_text())
        s = report["families"]["lin"]["sizes"][0]
        assert s["train_gap"]["degenerate_ci"]

    def test_nonconverged_pairs_counted_not_dropped(self):
        def row(trial, arm, train_opt, flags=""):
            return TrialRow(
                family="lin", n=40, p=30, trial=trial, seed=trial, train_opt=train_opt,
                test_x=0.5, test_x_se=0.01, test_g=0.5, test_g_se=0.01, iters=10,
                flags=";".join([f"arm:{arm}"] + ([flags] if flags else [])),
            )

        rows = [
            row(0, "x", 1.0), row(0, "g", 0.9),
            row(1, "x", 1.2, "maxiter"), row(1, "g", 1.0),
            row(2, "x", 0.8, "maxiter"), row(2, "g", 0.9, "step-underflow"),
            row(3, "x", float("nan"), "quarantined"), row(3, "g", 1.1, "maxiter"),
        ]
        (entry,) = build_report(rows, n_boot=50)["families"]["lin"]["sizes"]
        assert entry["trials"] == 3
        assert entry["quarantined"] == 1
        assert entry["nonconverged"] == 2
        assert entry["train_gap"]["mean"] == pytest.approx((0.1 + 0.2 - 0.1) / 3)

    def test_report_elsewhere_copies_stage_outputs_byte_for_byte(self, tmp_path):
        cfg = base_config(
            ladder=[40],
            free_energy={"enabled": True, "M": 16, "path_points": 4},
            perturbed={"enabled": True, "s_values": [0.1], "n_test": 50},
        )
        results, out = tmp_path / "results", tmp_path / "report"
        run_campaign(cfg, results, threads=1)
        write_report(results, out)
        for name in ("free_energy_paths.csv", "perturbed.csv"):
            copied = (out / name).read_bytes()
            assert b"\r\n" in copied, name  # csv.writer line ends survive the copy
            assert copied == (results / name).read_bytes(), name
        assert not list(out.glob("*.tmp"))

    def test_missing_csv_reports_filename(self, tmp_path):
        with pytest.raises(InvalidArgumentError, match="trials.csv"):
            write_report(tmp_path)

    def test_corrupt_row_reports_line(self, tmp_path):
        cfg = base_config(trials=1, ladder=[40])
        run_campaign(cfg, tmp_path / "out", threads=1)
        path = tmp_path / "out/trials.csv"
        lines = path.read_text().splitlines()
        lines[1] = lines[1].replace(",", ";", 3)
        path.write_text("\n".join(lines))
        with pytest.raises(InvalidArgumentError, match="line 2"):
            read_trials_csv(path)


class TestSelftest:
    def test_property_suite_passes_within_budget(self, capsys):
        # Budget is five minutes on four cores, asserted loosely at 3x.
        import time

        from ermu.selftest import run_selftest

        t0 = time.monotonic()
        ok = run_selftest(threads=2)
        elapsed = time.monotonic() - t0
        out = capsys.readouterr().out
        assert ok
        assert elapsed < 900.0
        assert out.count("PASS") >= 10


class TestCli:
    def test_run_and_report(self, tmp_path, capsys):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({**BASE, "ladder": [40]}))
        out = tmp_path / "results"
        assert cli_main(["run", "--config", str(cfg_path), "--out", str(out)]) == 0
        assert (out / "trials.csv").exists()
        assert cli_main(["report", "--results", str(out)]) == 0
        assert (out / "report.json").exists()

    def test_invalid_config_exit_code(self, tmp_path, capsys):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({**BASE, "ladder": []}))
        assert cli_main(["run", "--config", str(cfg_path), "--out", str(tmp_path / "o")]) == 2
        assert "ladder" in capsys.readouterr().err

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

    def test_family_setting_outside_its_kind_exit_code(self, tmp_path, capsys):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(base_with(("families", 0, "constraint"), "nt-operator-ball")))
        assert cli_main(["run", "--config", str(cfg_path), "--out", str(tmp_path / "o")]) == 2
        assert "config.families[0]: constraint 'nt-operator-ball'" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    def test_seed_override_changes_outputs(self, tmp_path):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({**BASE, "ladder": [40]}))
        a, b = tmp_path / "a", tmp_path / "b"
        assert cli_main(["run", "--config", str(cfg_path), "--out", str(a)]) == 0
        assert cli_main(
            ["run", "--config", str(cfg_path), "--out", str(b), "--seed-override", "99"]
        ) == 0
        assert (a / "trials.csv").read_bytes() != (b / "trials.csv").read_bytes()

    def test_env_threads_fallback(self, tmp_path, monkeypatch):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({**BASE, "ladder": [40]}))
        monkeypatch.setenv("ERMU_THREADS", "2")
        out = tmp_path / "env"
        assert cli_main(["run", "--config", str(cfg_path), "--out", str(out)]) == 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["threads"] == 2

    @pytest.mark.parametrize("command", ["run", "selftest"])
    @pytest.mark.parametrize("threads", ["-3", "0", "two"])
    def test_threads_below_one_rejected_at_parse_time(
        self, tmp_path, capsys, monkeypatch, command, threads
    ):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({**BASE, "ladder": [40]}))
        out = tmp_path / "o"
        extra = ["--config", str(cfg_path), "--out", str(out)] if command == "run" else []
        with pytest.raises(SystemExit) as exc:
            cli_main([command, *extra, "--threads", threads])
        assert exc.value.code == 2
        assert "--threads" in capsys.readouterr().err
        # The environment fallback is held to the same rule and named.
        monkeypatch.setenv("ERMU_THREADS", threads)
        with pytest.raises(SystemExit) as exc:
            cli_main([command, *extra])
        assert exc.value.code == 2
        assert "ERMU_THREADS" in capsys.readouterr().err
        assert not out.exists()


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
