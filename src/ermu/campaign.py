"""Campaign orchestration: run all enabled stages and persist artifacts.

Artifacts written into the output directory:

* ``trials.csv``      one row per (family, size, trial, arm)
* ``free_energy_paths.csv``  interpolation traces, when enabled
* ``free_energy_checks.json`` sandwich/monotonicity diagnostics, when enabled
* ``perturbed.csv``   perturbed-risk sweeps D(s) of the exact twin test risk,
  when enabled
* ``manifest.json``   config hash, code version, wall time, quarantine count

A run first deletes the files of a disabled stage, the saved matrices and
the ``ermu report`` output that an earlier run left in the output
directory. It then builds the (family, size) cells that each
``FamilySpec`` names, running any monte-carlo covariance chunks on a set-up
pool that is closed once the cells exist. It then opens its worker pool
(see ``universality.WorkerPool``), whose workers receive the cells when
they are forked. Each pool has ``config.threads`` processes, or one per
usable core if there are fewer cores. The worker pool runs the trial
chunks and the per-cell stage tasks, each naming its cell by index,
largest n·p cell first, and is shut down when the campaign ends, also on
an error. Results are assembled in chunk and cell order, so every artifact
is byte-identical for any thread count.
Files are written to a temporary name and renamed on completion, so a run
never leaves a partial file behind. Every CSV artifact, the report's too,
goes through ``write_csv``, the one place that formats numbers.
"""

from __future__ import annotations

import csv
import json
import math
import os
import time
from dataclasses import astuple, dataclass, fields
from pathlib import Path

import numpy as np

from ermu import __version__
from ermu.config import ExperimentConfig
from ermu.erm import labels_from_noise, solve_erm
from ermu.features import draw_features
from ermu.free_energy import (
    InterpolationPath,
    entropy_sandwich_check,
    free_energy_path,
    random_net,
    solution_cloud,
)
from ermu.gaussian import sample_gaussian
from ermu.matio import write_matrix
from ermu.seeds import derive_seed
from ermu.universality import (
    FamilyInstance,
    TrialRow,
    TwinTestRisk,
    WorkerPool,
    build_instance,
    perturbed_sweep,
    run_trials,
    served_cell,
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

    # The cells are built before the campaign's pool, so that its workers
    # receive them at fork and no task pickles a cell.
    instances = build_instances(config)
    with WorkerPool(config.threads, instances) as pool:
        rows = run_trials(
            pool, config.trials, config.master_seed, config.solver, config.test_risk.n_test
        )
        quarantined = sum(1 for r in rows if r.quarantined)
        write_csv(out / "trials.csv", [f.name for f in fields(TrialRow)], map(astuple, rows))

        if config.save_matrices:
            _save_matrices(instances, out)
        if config.free_energy.enabled:
            _run_free_energy_stage(config, out, pool)
        if config.perturbed.enabled:
            _run_perturbed_stage(config, out, pool)

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
    }
    _atomic_write(out / "manifest.json", lambda fh: json.dump(manifest, fh, indent=2, sort_keys=True))
    return CampaignSummary(
        out_dir=out,
        n_rows=len(rows),
        quarantined=quarantined,
        wall_time_s=wall,
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


def _free_energy_data(instance: FamilyInstance, master_seed: int):
    """One coupled (X, G, eps) draw dedicated to free-energy diagnostics."""
    seed = derive_seed(master_seed, instance.spec.id, instance.n, "free-energy")
    problem = instance.problem
    X = draw_features(instance.model, instance.n, derive_seed(seed, "covariates"))
    equiv = instance.twin(X)
    G = sample_gaussian(equiv, instance.n, derive_seed(seed, "gaussian-arm"))
    eps = problem.labeler.draw_noise(instance.n, derive_seed(seed, "eps"))
    return seed, X, G, eps


def _free_energy_task(args):
    """Interpolation trace rows and sandwich checks of one (family, n) cell.

    ``args`` is (cell, config), the cell as its index among the pool's cells.
    """
    cell, config = args
    instance = served_cell(cell)
    settings = config.free_energy
    seed, X, G, eps = _free_energy_data(instance, config.master_seed)
    problem = instance.problem
    if settings.candidates == "solution-cloud":
        sol = solve_erm(problem, X, labels_from_noise(problem, X, eps), config.solver)
        candidates = solution_cloud(
            problem, sol.theta_hat, settings.M, settings.alpha, derive_seed(seed, "cloud")
        )
    else:
        candidates = random_net(problem, settings.M, derive_seed(seed, "net"))
    grid = tuple(np.linspace(0.0, math.pi / 2.0, settings.path_points))
    path = InterpolationPath(X=X, G=G, grid=grid, eps=eps)
    beta_ref = settings.beta_grid[-1]
    trace, risks_x = free_energy_path(path, candidates, problem, beta_ref)
    trace_rows = [[t, f, instance.n, beta_ref, instance.spec.id, seed] for t, f in trace]
    # The grid ends at pi/2, so the path's last risks are the candidates' risks on X.
    report = entropy_sandwich_check(risks_x, instance.n, settings.beta_grid)
    check = {
        "family": instance.spec.id,
        "n": instance.n,
        "betas": report.betas,
        "free_energies": report.values,
        "minimum": report.minimum,
        "sandwich_ok": report.sandwich_ok,
        "monotone_ok": report.monotone_ok,
        "offending_betas": report.offending_betas,
    }
    return trace_rows, check


def _run_free_energy_stage(config: ExperimentConfig, out: Path, pool: WorkerPool) -> None:
    results = list(pool.map(_free_energy_task, [(i, config) for i in range(len(pool.cells))]))
    write_csv(
        out / "free_energy_paths.csv",
        ["t", "f", "n", "beta", "family", "seed"],
        (row for trace_rows, _ in results for row in trace_rows),
    )
    checks = [check for _, check in results]
    _atomic_write(
        out / "free_energy_checks.json", lambda fh: json.dump(checks, fh, indent=2, sort_keys=True)
    )


def _perturbed_task(args):
    """perturbed.csv rows of one (family, n) cell: one per s, negative s included.

    ``args`` is (cell, config), the cell as its index among the pool's cells.
    """
    cell, config = args
    instance = served_cell(cell)
    settings = config.perturbed
    seed = derive_seed(config.master_seed, instance.spec.id, instance.n, "perturbed")
    problem = instance.problem
    X = draw_features(instance.model, instance.n, derive_seed(seed, "covariates"))
    test_risk = TwinTestRisk(problem, instance.twin(X))
    eps = problem.labeler.draw_noise(instance.n, derive_seed(seed, "eps"))
    y = labels_from_noise(problem, X, eps)
    s_grid = settings.s_values + tuple(-s for s in settings.s_values)
    sweep = perturbed_sweep(problem, X, y, test_risk, s_grid, cfg=config.solver)
    # An s whose solve diverged has no optimum: nan in opt_s and D_s.
    return [
        [instance.spec.id, instance.n, instance.p, seed, s,
         sweep.opt_values.get(s, math.nan), sweep.D.get(s, math.nan), sweep.test_at_theta0,
         sweep.solver_gap, ";".join(sweep.flags.get(s, ["quarantined"]))]
        for s in sweep.s_values
    ]


def _run_perturbed_stage(config: ExperimentConfig, out: Path, pool: WorkerPool) -> None:
    results = list(pool.map(_perturbed_task, [(i, config) for i in range(len(pool.cells))]))
    write_csv(
        out / "perturbed.csv",
        ["family", "n", "p", "seed", "s", "opt_s", "D_s", "test_at_theta0", "solver_gap", "flags"],
        (row for rows in results for row in rows),
    )
