"""Campaign orchestration: run all enabled stages and persist artifacts.

Artifacts written into the output directory:

* ``trials.csv``      one row per (family, size, trial, arm)
* ``free_energy_paths.csv``  interpolation traces, when enabled
* ``free_energy_checks.json`` sandwich/monotonicity diagnostics, when enabled
* ``perturbed.csv``   perturbed-risk sweeps D(s) of the exact twin test risk,
  when enabled
* ``manifest.json``   config hash, code version, wall time, quarantine count,
  and the BLAS library with its thread count (``ermu.blas``)

A run first deletes the files of a disabled stage, the saved matrices and
the ``ermu report`` output that an earlier run left in the output
directory. It then sets BLAS to one thread (``ermu.blas``) until it ends,
also on an error, and builds the (family, size) cells that each
``FamilySpec`` names, running any monte-carlo covariance chunks on a set-up
pool that is closed once the cells exist. It then opens its worker pool
(see ``universality.WorkerPool``), whose workers receive the cells when
they are forked. Each pool has ``config.threads`` processes, or one per
usable core if there are fewer cores. The worker pool runs the trial
chunks, each naming its cell by index, largest n·p cell first, and is shut
down when the campaign ends, also on an error. Each cell's trial 0 also
runs the enabled stages on its own draws and x-arm solution, and its chunk
brings their rows back. Results are assembled in chunk and cell order, so
every artifact is byte-identical for any worker count.
Files are written to a temporary name and renamed on completion, so a run
never leaves a partial file behind. Every CSV artifact, the report's too,
goes through ``write_csv``, the one place that formats numbers.
"""

from __future__ import annotations

import csv
import json
import os
import time
from dataclasses import astuple, dataclass, fields
from pathlib import Path

import numpy as np

from ermu import __version__
from ermu.blas import one_blas_thread
from ermu.config import ExperimentConfig
from ermu.erm import labels_from_noise, solve_erm  # rebound by perfbench/spans.py
from ermu.features import draw_features  # rebound by perfbench/spans.py
from ermu.gaussian import sample_gaussian  # rebound by perfbench/spans.py
from ermu.matio import write_matrix
from ermu.universality import (
    FamilyInstance,
    StageRows,
    TrialRow,
    WorkerPool,
    build_instance,
    run_trials,
)


def _atomic_write(path: Path, writer, binary: bool = False) -> None:
    """``writer(fh)`` on a temporary file, which then replaces ``path``; text unless ``binary``."""
    tmp = path.with_name(path.name + ".tmp")
    try:
        with (open(tmp, "wb") if binary else open(tmp, "w", newline="")) as fh:
            writer(fh)
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def _fmt(x: float) -> str:
    return f"{x:.17g}"


def write_csv(path: Path, header: list[str], rows) -> None:
    """Write ``header`` and then ``rows`` to the CSV file ``path``, atomically.

    Every artifact CSV goes through here: each ``float`` is written with 17
    significant digits, so it reads back exactly; other values as ``str``.
    """

    def write(fh):
        w = csv.writer(fh)
        w.writerow(header)
        for row in rows:
            w.writerow([_fmt(v) if isinstance(v, float) else v for v in row])

    _atomic_write(path, write)


@dataclass
class CampaignSummary:
    out_dir: Path
    n_rows: int
    quarantined: int
    wall_time_s: float
    blas_pinned: bool


def build_instances(config: ExperimentConfig) -> list[FamilyInstance]:
    """Every (family, size) cell of the config, in config order.

    Monte-carlo covariance chunks run on a set-up pool of up to
    ``config.threads`` workers, opened for this call and closed before it
    returns.
    """
    with WorkerPool(config.threads) as pool:
        return [
            build_instance(spec, config.problem, base, config.master_seed, pool.map)
            for spec in config.families
            for base in spec.bases(config.ladder)
        ]


def run_campaign(config: ExperimentConfig, out_dir: str | Path) -> CampaignSummary:
    t0 = time.monotonic()
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    _remove_stale_artifacts(config, out)

    # BLAS is pinned before set-up, so that every forked worker inherits one
    # thread. The cells are built before the campaign's pool, so that its
    # workers receive them at fork and no task pickles a cell.
    with one_blas_thread() as blas:
        instances = build_instances(config)
        with WorkerPool(config.threads, instances) as pool:
            rows, cell_stages = run_trials(
                pool, config.trials, config.master_seed, config.solver, config.test_risk.n_test,
                (config.free_energy, config.perturbed),
            )
            quarantined = sum(1 for r in rows if r.quarantined)
            write_csv(out / "trials.csv", [f.name for f in fields(TrialRow)], map(astuple, rows))

            if config.save_matrices:
                _save_matrices(instances, out)
            if config.free_energy.enabled:
                _run_free_energy_stage(out, cell_stages)
            if config.perturbed.enabled:
                _run_perturbed_stage(out, cell_stages)

    wall = time.monotonic() - t0
    manifest = {
        "config_hash": config.canonical_hash(),
        "version": __version__,
        "wall_time_s": wall,
        "created_unix": time.time(),
        "trials": config.trials,
        "threads": config.threads,
        "quarantined": quarantined,
        "families": {
            spec.id: {
                "kind": spec.kind,
                "sizes": [[inst.n, inst.p] for inst in instances if inst.spec.id == spec.id],
            }
            for spec in config.families
        },
        "config": config.normalized(),
        "blas": blas,
    }
    _atomic_write(out / "manifest.json", lambda fh: json.dump(manifest, fh, indent=2, sort_keys=True))
    return CampaignSummary(
        out_dir=out,
        n_rows=len(rows),
        quarantined=quarantined,
        wall_time_s=wall,
        blas_pinned=blas["pinned"],
    )


def _remove_stale_artifacts(config: ExperimentConfig, out: Path) -> None:
    """Delete the stage files, matrices and report an earlier run left in ``out``.

    A stage file goes when this run's stage is disabled, and every matrix
    goes: this run saves its own cells' matrices anew, or none. So does an
    ``ermu report`` of the earlier run, which would describe its trials.
    """
    stale = list((out / "matrices").glob("*.ermumat"))
    stale += [out / "report.json", out / "gap_vs_n.csv"]
    if not config.free_energy.enabled:
        stale += [out / "free_energy_paths.csv", out / "free_energy_checks.json"]
    if not config.perturbed.enabled:
        stale.append(out / "perturbed.csv")
    for path in stale:
        path.unlink(missing_ok=True)


def _save_matrices(instances, out: Path) -> None:
    """Dump frozen weights and twin factors in the flat binary container."""
    mat_dir = out / "matrices"
    mat_dir.mkdir(exist_ok=True)
    for inst in instances:
        stem = f"{inst.spec.id}_n{inst.n}"
        if inst.model.W is not None:
            _save_matrix(mat_dir / f"{stem}_weights.ermumat", inst.model.W)
        if inst.equiv is not None:
            _save_matrix(mat_dir / f"{stem}_factor.ermumat", inst.equiv.factor)


def _save_matrix(path: Path, arr: np.ndarray) -> None:
    _atomic_write(path, lambda fh: write_matrix(fh, arr), binary=True)


def _run_free_energy_stage(out: Path, cell_stages: list[StageRows]) -> None:
    write_csv(
        out / "free_energy_paths.csv",
        ["t", "f", "n", "beta", "family", "seed"],
        (row for stages in cell_stages for row in stages.trace),
    )
    checks = [stages.check for stages in cell_stages]
    _atomic_write(
        out / "free_energy_checks.json", lambda fh: json.dump(checks, fh, indent=2, sort_keys=True)
    )


def _run_perturbed_stage(out: Path, cell_stages: list[StageRows]) -> None:
    write_csv(
        out / "perturbed.csv",
        ["family", "n", "p", "seed", "s", "opt_s", "D_s", "test_at_theta0", "solver_gap", "flags"],
        (row for stages in cell_stages for row in stages.perturbed),
    )
