"""ermu benchmark: time to a universality verdict, end to end and per layer.

Run from the root of an ermu checkout:

    python3 perfbench/run.py --workload rf-large --seed 1 --seconds 30 --trace 0

Each repetition runs one workload the way ``ermu run`` + ``ermu report``
would (``campaign.run_campaign`` then ``report.write_report``) in a fresh
process with BLAS pinned to one thread, and repetitions continue until
``--seconds`` are used up. ``--trace 0`` reports the end-to-end metrics
(medians over the repetitions); ``--trace 1`` alternates untraced and traced
repetitions and reports the per-layer metrics of the traced ones. Every
repetition's artifacts pass the correctness gate in ``checks.py``. The last
line of standard output is one JSON object: ``correct``, ``attempted`` and
``failed`` (solves) and ``metrics``, named and with units as declared in
``BENCHMARK.json``. The exit code is 0 only if every check passed.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT))

from perfbench import workloads  # noqa: E402
from perfbench.checks import check_outputs  # noqa: E402
from perfbench.child import PINNED  # noqa: E402

# A run starts no repetition that would end after this much time, so that it
# ends within its 180 s limit whatever --seconds asks for.
RUN_BUDGET_S = 150.0
CHILD_TIMEOUT_S = 170.0
MAX_REPS = 40

_TABLE_COLUMNS = (
    ("featurize", "featurize"),
    ("twin_sample", "twin sample"),
    ("twin_factor", "twin factor"),
    ("solve", "one solve"),
    ("iters", "iters"),
    ("test_featurize", "test featurize"),
    ("test_twin_sample", "test twin sample"),
)


class BenchError(Exception):
    pass


def run_rep(root: Path, rep_dir: Path, args, traced: bool) -> dict:
    """One repetition in a fresh process; returns its result and checked artifacts."""
    rep_dir.mkdir()
    out, result_file = rep_dir / "out", rep_dir / "result.json"
    cmd = [
        sys.executable, "-m", "perfbench.child",
        "--workload", args.workload, "--seed", str(args.seed),
        "--out", str(out), "--result", str(result_file), "--trace", str(int(traced)),
    ] + (["--smoke"] if args.smoke else [])
    env = dict(os.environ, PYTHONPATH=str(root / "src"), **{var: "1" for var in PINNED})
    proc = subprocess.Popen(cmd, cwd=root, env=env, stdout=sys.stderr, start_new_session=True)
    try:
        code = proc.wait(timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        raise BenchError(f"repetition exceeded {CHILD_TIMEOUT_S:.0f} s") from None
    if code != 0:
        raise BenchError(f"repetition exited with code {code}")
    result = json.loads(result_file.read_text())
    result["traced"] = traced
    result["outcome"] = check_outputs(out)
    return result


def measure(root: Path, work: Path, args) -> list[dict]:
    """Repetitions until the next one would end after ``--seconds``; at least one."""
    start = time.monotonic()
    plan = (False, True) if args.trace else (False,)
    reps: list[dict] = []
    durations: list[float] = []
    while True:
        for traced in plan:
            t0 = time.monotonic()
            reps.append(run_rep(root, work / f"rep{len(reps)}", args, traced))
            durations.append(time.monotonic() - t0)
        next_end = time.monotonic() - start + len(plan) * statistics.median(durations)
        if next_end > min(args.seconds, RUN_BUDGET_S) or len(reps) >= MAX_REPS:
            return reps


def verify(reps: list[dict]) -> list[str]:
    """Problems found in the artifacts and traces of one run's repetitions."""
    problems = [p for rep in reps for p in rep["outcome"].problems]
    if len({rep["outcome"].trials_sha256 for rep in reps}) > 1:
        problems.append("trials.csv differs between repetitions of one seed (traced or not)")
    for rep in reps:
        if rep["traced"]:
            want = rep["outcome"].cells * rep["outcome"].trials
            got = rep["layers"]["universality.trials"]
            if got != want:
                problems.append(f"trace recorded {got} trial spans, want {want}")
    return problems


def summarize(reps: list[dict], trace: bool) -> dict[str, float]:
    untraced = [rep for rep in reps if not rep["traced"]]
    if not trace:
        outcome = reps[0]["outcome"]
        return {
            "verdict_s": statistics.median(rep["verdict_s"] for rep in untraced),
            "setup_s": statistics.median(t for rep in untraced for t in rep["setup_s"]),
            "peak_rss_mb": statistics.median(rep["peak_rss_mb"] for rep in untraced),
            "solved_frac": 1.0 - outcome.failed / outcome.attempted,
        }
    traced = [rep for rep in reps if rep["traced"]]
    values = {
        name: statistics.median(rep["layers"][name] for rep in traced)
        for name in traced[0]["layers"]
    }
    values["trace.overhead"] = (
        statistics.median(rep["verdict_s"] for rep in traced)
        / statistics.median(rep["verdict_s"] for rep in untraced)
        - 1.0
    )
    return values


def print_cells(cells: list[dict]) -> None:
    print("per-cell medians over trials, ms (one traced run):")
    print("  " + " | ".join(["family", "n"] + [title for _, title in _TABLE_COLUMNS]))
    for cell in cells:
        values = [
            f"{cell[key]:.0f}" if key == "iters" else f"{cell[key]:.1f}" if key in cell else "-"
            for key, _ in _TABLE_COLUMNS
        ]
        print("  " + " | ".join([cell["family"], str(cell["n"])] + values))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="ermu benchmark")
    parser.add_argument("--workload", required=True, choices=workloads.NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="tiny sizes, for the tests only")
    args = parser.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "ermu" / "__init__.py").is_file():
        print("error: run from the root of an ermu checkout (no src/ermu here)", file=sys.stderr)
        return 2
    declared = json.loads((root / "BENCHMARK.json").read_text())
    units = {m["name"]: m["unit"] for m in declared["per_layer" if args.trace else "end_to_end"]}

    work_root = root / ".perfbench_runs"
    work_root.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(dir=work_root))
    started = time.monotonic()
    try:
        reps = measure(root, work, args)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work_root.rmdir()
        except OSError:
            pass

    problems = verify(reps)
    values = summarize(reps, bool(args.trace))
    missing = sorted(set(units) - set(values))
    if missing:
        problems.append(f"declared metrics not measured: {missing}")

    facts = reps[0]["facts"]
    print(f"workload {args.workload}, seed {args.seed}: {len(reps)} repetitions "
          f"in {time.monotonic() - started:.1f} s")
    print(f"machine: nproc {facts['nproc']}, cpu {facts['cpu']}, "
          f"last-level cache {facts['last_level_cache']}, python {facts['python']}, "
          f"numpy {facts['numpy']}, blas {facts['blas']}, pinned {facts['pinned']}; "
          f"not controlled: {facts['uncontrolled']}")
    for traced in sorted({rep["traced"] for rep in reps}):
        group = [rep for rep in reps if rep["traced"] == traced]
        setups = [t for rep in group for t in rep["setup_s"]]
        print(f"{'traced' if traced else 'untraced'} repetitions: verdict_s "
              f"{[round(rep['verdict_s'], 3) for rep in group]}; setup_s median "
              f"{statistics.median(setups):.4g} of {len(setups)}")
    print(f"trials_sha256 {args.workload} seed {args.seed}: {reps[0]['outcome'].trials_sha256}")
    if args.trace:
        print_cells(next(rep for rep in reps if rep["traced"])["cells"])
    for name, unit in units.items():
        if name in values:
            print(f"  {name} = {values[name]} {unit}")
    for problem in problems:
        print(f"check failed: {problem}", file=sys.stderr)

    outcome = reps[0]["outcome"]
    print(json.dumps({
        "correct": not problems,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": {
            name: {"value": values[name], "unit": unit}
            for name, unit in units.items() if name in values
        },
    }))
    return 0 if not problems else 1


if __name__ == "__main__":
    sys.exit(main())
