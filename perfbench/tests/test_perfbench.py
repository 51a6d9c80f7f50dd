"""Tests of the benchmark itself: span arithmetic, the correctness gate, and
a tiny-size run of every workload that must emit every declared metric.

Run from the repository root: ``python3 -m pytest perfbench/tests -q``.
"""

from __future__ import annotations

import csv
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from perfbench import workloads
from perfbench.checks import TRIALS_HEADER, check_outputs
from perfbench.spans import Span, Tracer, layer_metrics, self_times

ROOT = Path(__file__).resolve().parents[2]
DECLARED = json.loads((ROOT / "BENCHMARK.json").read_text())


def _span(sid, parent, name, start, end, pid=1, attrs=None):
    return Span(pid, sid, parent, name, start, end, attrs)


def test_self_time_subtracts_children():
    spans = [
        _span(1, 0, "root", 0.0, 10.0),
        _span(2, 1, "a", 1.0, 4.0),
        _span(3, 2, "a.leaf", 2.0, 3.0),
        _span(4, 1, "b", 5.0, 9.0),
    ]
    got = self_times(spans)
    assert got[(1, 1)] == pytest.approx(10.0 - 3.0 - 4.0)
    assert got[(1, 2)] == pytest.approx(3.0 - 1.0)
    assert got[(1, 3)] == pytest.approx(1.0)
    assert got[(1, 4)] == pytest.approx(4.0)


def test_self_time_counts_overlap_once_and_clips_to_parent():
    spans = [
        _span(1, 0, "root", 0.0, 10.0),
        _span(2, 1, "x", 1.0, 5.0),
        _span(3, 1, "y", 3.0, 6.0),  # overlaps x on [3, 5]
        _span(4, 1, "z", 8.0, 12.0),  # runs past the parent's end
    ]
    assert self_times(spans)[(1, 1)] == pytest.approx(10.0 - 5.0 - 2.0)


def test_self_time_keeps_processes_apart():
    # Span ids restart in every worker; a child belongs to its own process.
    spans = [
        _span(1, 0, "campaign.chunk", 0.0, 4.0, pid=7),
        _span(2, 1, "universality.trial", 0.0, 3.0, pid=7),
        _span(1, 0, "campaign.chunk", 0.0, 4.0, pid=8),
    ]
    got = self_times(spans)
    assert got[(7, 1)] == pytest.approx(1.0)
    assert got[(8, 1)] == pytest.approx(4.0)


def test_layer_metrics_pool_balance_and_coverage():
    tracer = Tracer()
    home = tracer.home_pid
    tracer.spans = [
        _span(1, 0, "campaign.setup", 0.0, 1.0, pid=home),
        _span(2, 0, "campaign.trials", 1.0, 5.0, pid=home),
    ]
    tracer.absorb(
        [
            tuple(_span(1, 0, "universality.trial", 1.0, 4.0, pid=home + 1,
                        attrs={"family": "rf", "n": 8, "trial": 0})),
            tuple(_span(1, 0, "universality.trial", 1.0, 3.0, pid=home + 2,
                        attrs={"family": "rf", "n": 8, "trial": 1})),
        ],
        {"x_passes": 3},
    )
    got = layer_metrics(tracer, verdict_s=6.0, workers=2)
    assert got["campaign.trials_ms"] == pytest.approx(4000.0)
    assert got["campaign.pool_busy_frac"] == pytest.approx(5.0 / (2 * 4.0))
    assert got["universality.trials"] == 2
    assert got["universality.trial_ms"] == pytest.approx(2500.0)
    assert got["erm.x_passes"] == 3
    assert got["trace.coverage"] == pytest.approx(5.0 / 6.0)


def _write_results(path: Path, rows, control_calibrated=True):
    path.mkdir()
    manifest = {
        "trials": 1,
        "families": {"lin": {"kind": "linear-independent", "sizes": [[10, 8]]},
                     "control": {"kind": "control-gaussian", "sizes": [[10, 8]]}},
    }
    report = {"families": {
        "lin": {"sizes": [{"n": 10, "train_gap": {}}]},
        "control": {"sizes": [{"n": 10, "train_gap": {}}]},
    }}
    if control_calibrated:
        report["families"]["control"]["null_calibration"] = {}
    (path / "manifest.json").write_text(json.dumps(manifest))
    (path / "report.json").write_text(json.dumps(report))
    with open(path / "trials.csv", "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(TRIALS_HEADER.split(","))
        w.writerows(rows)


def _row(family, arm, train="0.5", test="0.6", flags=""):
    return [family, 10, 8, 0, 1, train, test, "0.01", test, "0.01", 9, f"arm:{arm}{flags}"]


GOOD_ROWS = [_row(f, a) for f in ("lin", "control") for a in ("x", "g")]


def test_gate_passes_complete_artifacts(tmp_path):
    _write_results(tmp_path / "r", GOOD_ROWS)
    out = check_outputs(tmp_path / "r")
    assert out.problems == []
    assert (out.attempted, out.failed, out.cells, out.trials) == (4, 0, 2, 1)


@pytest.mark.parametrize(
    "rows, control_calibrated, fragment",
    [
        (GOOD_ROWS[:-1], True, "arms"),
        (GOOD_ROWS[:-1] + [_row("control", "g", train="nan")], True, "train_opt"),
        (GOOD_ROWS[:-1] + [_row("control", "g", test="nan")], True, "test_x"),
        (GOOD_ROWS, False, "null_calibration"),
    ],
)
def test_gate_flags_bad_artifacts(tmp_path, rows, control_calibrated, fragment):
    _write_results(tmp_path / "r", rows, control_calibrated)
    problems = check_outputs(tmp_path / "r").problems
    assert any(fragment in p for p in problems), problems


def test_gate_allows_nan_test_risk_only_without_test_and_counts_failures(tmp_path):
    rows = GOOD_ROWS[:-1] + [_row("control", "g", test="nan", flags=";maxiter;no-test")]
    _write_results(tmp_path / "r", rows)
    out = check_outputs(tmp_path / "r")
    assert out.problems == []
    assert out.failed == 1


def _bench(cwd: Path, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(cwd / "perfbench" / "run.py"), *args],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


@pytest.mark.parametrize("trace", ["0", "1"])
@pytest.mark.parametrize("workload", workloads.NAMES)
def test_smoke_run_emits_every_declared_metric(workload, trace):
    proc = _bench(ROOT, "--workload", workload, "--seed", "5", "--seconds", "1",
                  "--trace", trace, "--smoke")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["attempted"] >= 1
    declared = DECLARED["per_layer" if trace == "1" else "end_to_end"]
    assert list(result["metrics"]) == [m["name"] for m in declared]
    for metric in declared:
        assert result["metrics"][metric["name"]]["unit"] == metric["unit"]


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = _bench(tmp_path, "--workload", "rf-large", "--seed", "1", "--seconds", "1",
                  "--trace", "0")
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""


def test_child_refuses_unpinned_blas(tmp_path):
    env = {k: v for k, v in os.environ.items() if k not in ("OPENBLAS_NUM_THREADS",)}
    env["PYTHONPATH"] = str(ROOT / "src")
    proc = subprocess.run(
        [sys.executable, "-m", "perfbench.child", "--workload", "nt-trainonly", "--seed", "1",
         "--out", str(tmp_path / "out"), "--result", str(tmp_path / "r.json"), "--smoke"],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 3
    assert "not pinned" in proc.stderr
    assert not (tmp_path / "r.json").exists()
