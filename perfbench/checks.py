"""Correctness gate on one campaign's artifacts (stdlib only).

The gate covers what a user reads: ``trials.csv`` (the 12-field schema, two
arms per (cell, trial), finite numbers outside quarantined rows, NaN test
risks only with ``no-test``), ``report.json`` (a train gap for every cell,
a null calibration for the control family) and ``perturbed.csv``. It also
counts the solves attempted and the ones that failed.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
from dataclasses import dataclass, field
from pathlib import Path

TRIALS_HEADER = "family,n,p,trial,seed,train_opt,test_x,test_x_se,test_g,test_g_se,iters,flags"
_NUMERIC = ("train_opt", "test_x", "test_x_se", "test_g", "test_g_se")
_TEST_COLUMNS = ("test_x", "test_x_se", "test_g", "test_g_se")
# A solve failed if its row carries one of these flags.
FAILED_FLAGS = frozenset({"quarantined", "maxiter", "step-underflow"})


@dataclass
class Outcome:
    attempted: int = 0
    failed: int = 0
    trials_sha256: str = ""
    cells: int = 0
    trials: int = 0
    problems: list[str] = field(default_factory=list)


def check_outputs(results: Path) -> Outcome:
    """Check a results directory written by ``run_campaign`` + ``write_report``."""
    out = Outcome()
    try:
        manifest = json.loads((results / "manifest.json").read_text())
        report = json.loads((results / "report.json").read_text())
        trials_bytes = (results / "trials.csv").read_bytes()
    except (OSError, ValueError) as exc:
        out.problems.append(f"missing or unreadable artifact: {exc}")
        return out
    out.trials_sha256 = hashlib.sha256(trials_bytes).hexdigest()
    out.trials = manifest["trials"]
    expected = {
        (family, n): set()
        for family, entry in manifest["families"].items()
        for n, _ in entry["sizes"]
    }
    out.cells = len(expected)

    lines = trials_bytes.decode().splitlines()
    if not lines or lines[0] != TRIALS_HEADER:
        out.problems.append(f"trials.csv header is {lines[:1]}")
        return out
    columns = TRIALS_HEADER.split(",")
    for lineno, fields in enumerate(csv.reader(lines[1:]), start=2):
        if len(fields) != len(columns):
            out.problems.append(f"trials.csv line {lineno}: {len(fields)} fields")
            continue
        row = dict(zip(columns, fields))
        flags = set(row["flags"].split(";"))
        arms = expected.get((row["family"], int(row["n"])))
        if arms is None:
            out.problems.append(f"trials.csv line {lineno}: unknown cell")
            continue
        arms.update((int(row["trial"]), flag) for flag in flags if flag.startswith("arm:"))
        out.attempted += 1
        out.failed += bool(flags & FAILED_FLAGS)
        if "quarantined" in flags:
            continue
        for name in _NUMERIC:
            if not math.isfinite(float(row[name])):
                if name in _TEST_COLUMNS and "no-test" in flags and math.isnan(float(row[name])):
                    continue
                out.problems.append(f"trials.csv line {lineno}: {name}={row[name]}")
    want = {(t, arm) for t in range(out.trials) for arm in ("arm:x", "arm:g")}
    for (family, n), arms in expected.items():
        if arms != want:
            out.problems.append(f"cell {family} n={n}: arms {len(arms)} of {len(want)}")
    if out.attempted != out.cells * len(want):
        out.problems.append(f"trials.csv has {out.attempted} rows, want {out.cells * len(want)}")

    for family, entry in report["families"].items():
        for size in entry["sizes"]:
            if "train_gap" not in size:
                out.problems.append(f"report: {family} n={size['n']} has no train_gap")
        kind = manifest["families"].get(family, {}).get("kind")
        if kind == "control-gaussian" and "null_calibration" not in entry:
            out.problems.append(f"report: control family {family} has no null_calibration")
    if set(report["families"]) != set(manifest["families"]):
        out.problems.append("report families differ from the manifest")

    perturbed = results / "perturbed.csv"
    if perturbed.exists():
        rows = list(csv.DictReader(perturbed.read_text().splitlines()))
        for lineno, row in enumerate(rows, start=2):
            out.attempted += 1
            if row["flags"] == "quarantined":
                out.failed += 1
            elif not all(math.isfinite(float(row[name])) for name in ("opt_s", "D_s")):
                out.problems.append(f"perturbed.csv line {lineno}: non-finite opt_s or D_s")
    return out
