"""Turn trial CSVs into a universality report plus plot-ready CSVs.

Per family and size the report carries the signed mean train gap with a
bootstrap CI, the bounded-Lipschitz gap over the test-function dictionary,
the two-sample KS statistic against its simulated null quantile, and the
test-risk gap with its bootstrap CI and standard error over trials (each
trial draws its own test rows, so that spread holds the Monte Carlo noise
of the test risk). All three CIs of a cell read one resample of its trial
pairs. The campaign-level verdict is the operational criterion: the CI
covers zero at the largest size and the absolute mean gap does not
increase along the ladder (one inversion within one standard error is
tolerated).
"""

from __future__ import annotations

import csv
import json
import typing
from dataclasses import fields
from pathlib import Path

import numpy as np

from ermu.campaign import _atomic_write, write_csv
from ermu.config import BootstrapSettings, config_from_dict, read_json
from ermu.errors import ConfigError, InvalidArgumentError
from ermu.seeds import derive_seed, rng_from
from ermu.stats import bl_gap, bootstrap_mean_ci, ks_null_quantile, ks_statistic
from ermu.universality import TrialRow

_REPORT_SEED = 0x52505254  # fixed; reports must be reproducible from CSVs alone

# Solver flags of a solve that stopped before its convergence test passed.
_NONCONVERGED = ("maxiter", "step-underflow")


def read_trials_csv(path: str | Path) -> list[TrialRow]:
    """The rows of a trials.csv, each column read as its ``TrialRow`` field's type;
    a row whose flags name no arm ``x`` or ``g``, or that repeats an earlier
    row's (family, n, trial, arm), is an error."""
    path = Path(path)
    if not path.exists():
        raise InvalidArgumentError(f"{path}: no such file")
    names = [f.name for f in fields(TrialRow)]
    types = typing.get_type_hints(TrialRow)
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header != names:
            raise InvalidArgumentError(f"{path}: unexpected header {header}")
        rows, lines = [], {}
        for i, values in enumerate(reader, start=2):
            if len(values) != len(names):
                raise InvalidArgumentError(
                    f"{path}: line {i}: expected {len(names)} fields, got {len(values)}"
                )
            try:
                row = TrialRow(*(types[name](v) for name, v in zip(names, values)))
            except ValueError as exc:
                raise InvalidArgumentError(f"{path}: line {i}: {exc}") from exc
            if row.arm not in ("x", "g"):
                raise InvalidArgumentError(
                    f"{path}: line {i}: flags {row.flags!r} name no arm x or g"
                )
            key = (row.family, row.n, row.trial, row.arm)
            if key in lines:
                raise InvalidArgumentError(
                    f"{path}: line {i}: repeats (family, n, trial, arm) {key} of line {lines[key]}"
                )
            lines[key] = i
            rows.append(row)
    return rows


def _paired_table(trials: dict[int, dict[str, TrialRow]]) -> tuple[np.ndarray, int, int]:
    """A cell's kept trial pairs, in trial order, as a T×4 table.

    Its columns are ``train_x``, ``train_g``, the x row's ``test_x`` and
    the g row's ``test_g``. A pair with a missing or quarantined arm is left
    out and counted as quarantined; a kept pair with a ``maxiter`` or
    ``step-underflow`` arm is counted as non-converged.
    """
    table, quarantined, nonconverged = [], 0, 0
    for t in sorted(trials):
        x, g = trials[t].get("x"), trials[t].get("g")
        if x is None or g is None or x.quarantined or g.quarantined:
            quarantined += 1
            continue
        nonconverged += any(
            flag in _NONCONVERGED for row in (x, g) for flag in row.flags.split(";")
        )
        table.append((x.train_opt, g.train_opt, x.test_x, g.test_g))
    return np.array(table, dtype=np.float64).reshape(-1, 4), quarantined, nonconverged


def _trend_verdict(ladder: list[tuple[int, float, float]]) -> dict:
    """The inversions of a family's (n, |mean train gap|, se) ladder, each named by its n."""
    inversions = [
        {"n": n, "excess": gap - prev, "se": se}
        for (_, prev, _), (n, gap, se) in zip(ladder, ladder[1:])
        if gap - prev > 0
    ]
    ok = len(inversions) == 0 or (
        len(inversions) == 1 and inversions[0]["excess"] <= inversions[0]["se"]
    )
    return {"non_increasing_ok": ok, "inversions": inversions}


def _ci_entry(values: np.ndarray, idx: np.ndarray, level: float) -> dict:
    """The mean of ``values`` with its bootstrap CI over the resample rows ``idx``."""
    mean, lo, hi, se = bootstrap_mean_ci(values, idx, level)
    return {
        "mean": mean,
        "ci_lo": lo,
        "ci_hi": hi,
        "se": se,
        "covers_zero": lo <= 0.0 <= hi,
        "degenerate_ci": hi == lo,
    }


def _cell_statistics(
    table: np.ndarray, seed: int, n_boot: int, level: float, null_quantiles: dict[int, float]
) -> dict:
    """The gap statistics of a cell's paired table with T >= 1 rows; each CI
    reads the same (n_boot, T) draw of trial-pair indices."""
    train_x, train_g, test_x, test_g = table.T
    T = len(table)
    idx = rng_from(seed, "bootstrap").integers(0, T, size=(n_boot, T))
    entry: dict = {"train_gap": _ci_entry(train_x - train_g, idx, level)}
    if T >= 2:
        entry["bl_gap"] = bl_gap(train_x, train_g, idx, level)
        if T not in null_quantiles:
            null_quantiles[T] = ks_null_quantile(
                T, T, level=0.99, seed=derive_seed(_REPORT_SEED, "ks-null")
            )
        ks = ks_statistic(train_x, train_g)
        entry["ks"] = {
            "statistic": ks,
            "null_q99": null_quantiles[T],
            "below_null": ks < null_quantiles[T],
        }
    test_gaps = test_x - test_g
    if np.all(np.isfinite(test_gaps)):
        entry["test_gap"] = _ci_entry(test_gaps, idx, level)
    return entry


def build_report(
    rows: list[TrialRow],
    n_boot: int = 2000,
    level: float = 0.95,
    family_kinds: dict[str, str] | None = None,
) -> dict:
    """Aggregate trial rows into the universality report structure.

    Families keep the order of their first rows and sizes ascend. A family
    is a null calibration when ``family_kinds`` names it ``control-gaussian``.
    """
    cells: dict[str, dict[int, dict[int, dict[str, TrialRow]]]] = {}
    for row in rows:
        trials = cells.setdefault(row.family, {}).setdefault(row.n, {})
        trials.setdefault(row.trial, {})[row.arm] = row
    family_kinds = family_kinds or {}
    report: dict = {"families": {}, "family_order": list(cells)}
    null_quantiles: dict[int, float] = {}
    for family, sizes in cells.items():
        fam_entry: dict = {"kind": family_kinds.get(family, ""), "sizes": []}
        ladder = []
        for n in sorted(sizes):
            table, quarantined, nonconverged = _paired_table(sizes[n])
            entry: dict = {
                "n": n,
                # Any row of the size carries its p, kept or quarantined.
                "p": next(row.p for pair in sizes[n].values() for row in pair.values()),
                "trials": len(table),
                "quarantined": quarantined,
                "nonconverged": nonconverged,
            }
            if len(table) == 0:
                entry["empty"] = True
            else:
                seed = derive_seed(_REPORT_SEED, family, n)
                entry.update(_cell_statistics(table, seed, n_boot, level, null_quantiles))
                ladder.append((n, abs(entry["train_gap"]["mean"]), entry["train_gap"]["se"]))
            fam_entry["sizes"].append(entry)
        fam_entry["trend"] = _trend_verdict(ladder)
        if "train_gap" in fam_entry["sizes"][-1]:
            last = fam_entry["sizes"][-1]["train_gap"]
            fam_entry["universality_pass"] = bool(
                last["covers_zero"] and fam_entry["trend"]["non_increasing_ok"]
            )
            fam_entry["largest_n_covers_zero"] = bool(last["covers_zero"])
        if fam_entry["kind"] == "control-gaussian":
            covered = [
                s["train_gap"]["covers_zero"] for s in fam_entry["sizes"] if "train_gap" in s
            ]
            fam_entry["null_calibration"] = {
                "covers_zero_per_size": covered,
                "pass": bool(covered and covered[-1]),
            }
        report["families"][family] = fam_entry
    return report


def write_report(results_dir: str | Path, out_dir: str | Path | None = None) -> Path:
    """Build report.json and plot-ready CSVs from a results directory.

    The bootstrap settings and family kinds are the run's, parsed from the
    config in its manifest.json like any config, so a manifest or config
    that does not parse raises ``ConfigError``; a directory without a
    manifest is reported with the default ``BootstrapSettings`` and no
    family kinds. ``out_dir`` is made only once the rows and the manifest
    have been read, and ends up holding the stage files of this run only.
    """
    results = Path(results_dir)
    out = Path(out_dir) if out_dir is not None else results
    trials_path = results / "trials.csv"
    rows = read_trials_csv(trials_path)
    if not rows:
        raise InvalidArgumentError(f"{trials_path}: contains no trial rows")

    family_kinds = {}
    warnings_list = []
    bootstrap = BootstrapSettings()
    manifest_path = results / "manifest.json"
    if manifest_path.exists():
        manifest = read_json(manifest_path)
        if not isinstance(manifest, dict):
            got = type(manifest).__name__
            raise ConfigError(f"{manifest_path}: expected an object, got {got}")
        try:
            config = config_from_dict(manifest.get("config"))
        except ConfigError as exc:
            raise ConfigError(f"{manifest_path}: {exc}") from exc
        family_kinds = {spec.id: spec.kind for spec in config.families}
        bootstrap = config.bootstrap
        if config.problem.loss == "squared":
            warnings_list.append(
                "squared loss is not globally Lipschitz; results use the ridge baseline regime"
            )

    report = build_report(
        rows, n_boot=bootstrap.resamples, level=bootstrap.level, family_kinds=family_kinds
    )
    warnings_list += [
        f"{family} n={s['n']}: {s['nonconverged']} non-converged pairs averaged into the gaps"
        for family in report["family_order"]
        for s in report["families"][family]["sizes"] if s["nonconverged"] > 0
    ]
    if warnings_list:
        report["warnings"] = warnings_list

    out.mkdir(parents=True, exist_ok=True)
    report_path = out / "report.json"
    _atomic_write(report_path, lambda fh: json.dump(report, fh, indent=2, sort_keys=True))

    write_csv(
        out / "gap_vs_n.csv",
        ["family", "n", "p", "trials", "mean_gap", "ci_lo", "ci_hi", "se"],
        (
            [family, s["n"], s["p"], s["trials"]]
            + [s["train_gap"][k] for k in ("mean", "ci_lo", "ci_hi", "se")]
            for family in report["family_order"]
            for s in report["families"][family]["sizes"]
            if "train_gap" in s
        ),
    )

    # Pass through plot-ready stage outputs when the run produced them, and
    # delete those of another run that an earlier report left in ``out``.
    # newline="" on both sides keeps write_csv's \r\n line ends byte for byte.
    for name in ("free_energy_paths.csv", "perturbed.csv"):
        src = results / name
        if not src.exists():
            (out / name).unlink(missing_ok=True)
        elif out != results:
            with open(src, newline="") as fh:
                text = fh.read()
            _atomic_write(out / name, lambda fh: fh.write(text))
    return report_path
