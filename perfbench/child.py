"""One benchmark repetition, in a fresh process: set up, then run to a verdict.

Run by ``perfbench/run.py`` as ``python -m perfbench.child`` from the root of
an ermu checkout with ``src`` on PYTHONPATH. Writes a JSON result file; the
campaign artifacts land in ``--out`` for the caller to check.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import sys
import time
from pathlib import Path

# BLAS reads these once, when numpy loads; each must be 1 by then so that
# the campaign's worker processes never run more threads than cores.
PINNED = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

# Set-up is timed several times per process when it is cheap: repeat until
# this much set-up time has been spent, at most SETUP_MAX_REPEATS times.
SETUP_BUDGET_S = 0.5
SETUP_MAX_REPEATS = 200


def machine_facts() -> dict:
    import numpy

    cpu, llc = "unknown", "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                key, _, value = line.partition(":")
                key = key.strip()
                if key == "model name" and cpu == "unknown":
                    cpu = value.strip()
                elif key == "cache size" and llc == "unknown":
                    llc = value.strip()
    except OSError:
        pass
    blas = numpy.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "last_level_cache": llc,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": f"{blas.get('name', 'unknown')} {blas.get('version', '')}".strip(),
        "pinned": {var: os.environ[var] for var in PINNED},
        "uncontrolled": "CPU frequency, shared caches and load from other tenants",
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", required=True, help="campaign results directory")
    parser.add_argument("--result", required=True, help="where to write this run's JSON")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true")
    args = parser.parse_args(argv)

    unpinned = [var for var in PINNED if os.environ.get(var) != "1"]
    if unpinned or "numpy" in sys.modules:
        print(f"refusing to run: BLAS threads not pinned to 1 before numpy loads ({unpinned})",
              file=sys.stderr)
        return 3

    import ermu
    from ermu import campaign, report
    from ermu.config import config_from_dict

    from perfbench import spans, workloads

    src = Path.cwd() / "src"
    if not Path(ermu.__file__).resolve().is_relative_to(src.resolve()):
        print(f"refusing to run: ermu imported from {ermu.__file__}, not from {src}",
              file=sys.stderr)
        return 3

    config = config_from_dict(workloads.config(args.workload, args.seed, args.smoke))

    setup_s: list[float] = []
    while not setup_s or (sum(setup_s) < SETUP_BUDGET_S and len(setup_s) < SETUP_MAX_REPEATS):
        t0 = time.perf_counter()
        instances = campaign.build_instances(config)
        setup_s.append(time.perf_counter() - t0)
        del instances

    tracer = spans.install() if args.trace else None
    t0 = time.perf_counter()
    campaign.run_campaign(config, args.out)
    report.write_report(args.out)
    verdict_s = time.perf_counter() - t0

    peak_kb = max(
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss,
    )
    result = {
        "setup_s": setup_s,
        "verdict_s": verdict_s,
        "peak_rss_mb": peak_kb / 1024.0,
        "facts": machine_facts(),
    }
    if tracer is not None:
        result["layers"] = spans.layer_metrics(tracer, verdict_s, workers=config.threads)
        result["cells"] = spans.cell_table(tracer)
    Path(args.result).write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
