"""Layer spans recorded from outside ermu.

``install`` rebinds the public functions each ermu module calls (for example
``ermu.erm.project_constraint`` or ``ermu.campaign.run_trials``) to wrappers
that record a span around every call, so the program itself is not edited.
A span is a name, a start, an end, the span that caused it and a few
attributes; counts that need no timing (passes over a design matrix) are
plain counters.

Pool workers are forked after ``install`` and inherit the wrappers. Each
worker records the spans of the trial chunk it runs and ships them back
inside the chunk's pickled result; unpickling that result in the campaign
process hands the spans to the active tracer. A pool that stops inheriting
the wrappers ships nothing, which the trial-span count check catches.
"""

from __future__ import annotations

import functools
import itertools
import os
import statistics
import time
from collections import Counter, defaultdict
from typing import Callable, NamedTuple, Optional


class Span(NamedTuple):
    pid: int
    sid: int
    parent: int  # 0 for a top-level span of its process
    name: str
    start: float
    end: float
    attrs: Optional[dict]


class Tracer:
    """Spans and counters of the campaign process and its pool workers."""

    def __init__(self) -> None:
        self.home_pid = os.getpid()
        self.remote: list[Span] = []
        self.remote_counts: Counter = Counter()
        self._reset()

    def _reset(self) -> None:
        self.pid = os.getpid()
        self.spans: list[Span] = []
        self.counts: Counter = Counter()
        self._stack: list[tuple[int, str, float]] = []
        self._ids = itertools.count(1)

    def begin(self, name: str) -> None:
        self._stack.append((next(self._ids), name, time.perf_counter()))

    def end(self, attrs: Optional[dict] = None) -> None:
        end = time.perf_counter()
        sid, name, start = self._stack.pop()
        parent = self._stack[-1][0] if self._stack else 0
        self.spans.append(Span(self.pid, sid, parent, name, start, end, attrs))

    def wrap(self, name: str, fn: Callable, attrs: Optional[Callable] = None) -> Callable:
        """``fn`` recording a span ``name``; ``attrs(args, result)`` annotates it."""

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self.begin(name)
            result = None
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                self.end(attrs(args, result) if attrs is not None and result is not None else None)

        return wrapper

    def all_spans(self) -> list[Span]:
        return self.spans + self.remote

    def all_counts(self) -> Counter:
        return self.counts + self.remote_counts

    def absorb(self, spans: list, counts: dict) -> None:
        self.remote.extend(Span(*s) for s in spans)
        self.remote_counts.update(counts)


# The tracer that receives worker spans when a chunk result is unpickled in
# the campaign process; set by ``install``.
_active: Optional[Tracer] = None


class _Shipment(list):
    """A chunk result that carries the worker's spans back to the campaign process."""

    def __init__(self, items, spans, counts):
        super().__init__(items)
        self.spans = spans
        self.counts = counts

    def __reduce__(self):
        return (_receive, (list(self), [tuple(s) for s in self.spans], dict(self.counts)))


def _receive(items, spans, counts):
    if _active is not None:
        _active.absorb(spans, counts)
    return items


def _wrap_chunk(tracer: Tracer, fn: Callable) -> Callable:
    inner = tracer.wrap("campaign.chunk", fn)

    @functools.wraps(fn)
    def chunk(args):
        if os.getpid() != tracer.pid:  # first chunk in a forked worker
            tracer._reset()
        result = inner(args)
        if tracer.pid == tracer.home_pid:
            return result
        shipment = _Shipment(result, tracer.spans, tracer.counts)
        tracer.spans, tracer.counts = [], Counter()
        return shipment

    return chunk


def _wrap_pgd(tracer: Tracer, fn: Callable) -> Callable:
    """pgd_minimize with its objective and gradient callbacks counted."""

    @functools.wraps(fn)
    def pgd(fun, grad, project, x0, *rest, **kwargs):
        calls = Counter()

        def counted_fun(x):
            calls["fun"] += 1
            return fun(x)

        def counted_grad(x):
            calls["grad"] += 1
            return grad(x)

        tracer.begin("solver.pgd")
        state = None
        try:
            state = fn(counted_fun, counted_grad, project, x0, *rest, **kwargs)
            return state
        finally:
            attrs = {"fun": calls["fun"], "grad": calls["grad"]}
            if state is not None:
                attrs["iters"] = state.iterations
                attrs["accepted"] = state.iterations - ("step-underflow" in state.flags)
            tracer.end(attrs)

    return pgd


def _count_pass(tracer: Tracer, fn: Callable, batch_arg: int) -> Callable:
    """Count a pass over the batch in positional argument ``batch_arg``."""

    @functools.wraps(fn)
    def counted(*args, **kwargs):
        X = args[batch_arg]
        tracer.counts["x_passes"] += 1
        tracer.counts["bytes_computed"] += X.shape[0] * X.shape[1] * 8
        return fn(*args, **kwargs)

    return counted


def install() -> Tracer:
    """Wrap ermu's layer boundaries; returns the tracer that records them."""
    global _active
    from ermu import campaign, erm, free_energy, gaussian, report, universality

    tracer = Tracer()
    wrap = tracer.wrap
    rows = lambda args, result: {"rows": int(args[1])}  # noqa: E731
    iters = lambda args, result: {"iters": result.iterations}  # noqa: E731

    campaign.build_instances = wrap("campaign.setup", campaign.build_instances)
    campaign.run_trials = wrap("campaign.trials", campaign.run_trials)
    campaign._run_free_energy_stage = wrap("campaign.free_energy", campaign._run_free_energy_stage)
    campaign._run_perturbed_stage = wrap("campaign.perturbed", campaign._run_perturbed_stage)

    universality._trial_chunk = _wrap_chunk(tracer, universality._trial_chunk)
    universality.run_single_trial = wrap(
        "universality.trial",
        universality.run_single_trial,
        lambda args, result: {"family": args[0].spec.id, "n": args[0].n, "trial": args[1]},
    )
    universality._risk_on = wrap(
        "universality.test_risk", universality._risk_on,
        lambda args, result: {"rows": int(args[2].shape[0])},
    )
    frozen = universality.FrozenTestRisk
    frozen.value = wrap("universality.surrogate", frozen.value)
    frozen.grad = wrap("universality.surrogate", frozen.grad)
    universality._solve_composite = wrap("erm.solve", universality._solve_composite)

    for mod in (campaign, universality):
        mod.draw_features = wrap("features.draw", mod.draw_features, rows)
        mod.sample_gaussian = wrap("gaussian.sample", mod.sample_gaussian, rows)
        mod.solve_erm = wrap("erm.solve", mod.solve_erm, iters)
    for mod in (campaign, universality, free_energy):
        mod.labels_from_noise = wrap("erm.labels", mod.labels_from_noise)
    for mod in (erm, universality, free_energy):
        mod.project_constraint = wrap("erm.project", mod.project_constraint)
    for mod in (erm, universality):
        mod.pgd_minimize = _wrap_pgd(tracer, mod.pgd_minimize)
        mod.data_risk_grad = _count_pass(tracer, mod.data_risk_grad, 2)
    erm.ErmProblem.scores = _count_pass(tracer, erm.ErmProblem.scores, 2)
    gaussian.factor_covariance = wrap("gaussian.factor", gaussian.factor_covariance)
    free_energy.candidate_risks = wrap(
        "free_energy.candidate_risks", free_energy.candidate_risks,
        lambda args, result: {"rows": int(args[0].points.shape[0])},
    )

    report.write_report = wrap("report.write", report.write_report)
    report.build_report = wrap("report.build", report.build_report)
    report.bootstrap_mean_ci = wrap("stats.bootstrap", report.bootstrap_mean_ci)
    report.bl_gap = wrap("stats.bl_gap", report.bl_gap)
    report.ks_null_quantile = wrap("stats.ks_null", report.ks_null_quantile)

    _active = tracer
    return tracer


def self_times(spans: list[Span]) -> dict[tuple[int, int], float]:
    """Each span's duration minus the part of its interval its children cover."""
    children: dict[tuple[int, int], list[tuple[float, float]]] = defaultdict(list)
    for s in spans:
        if s.parent:
            children[(s.pid, s.parent)].append((s.start, s.end))
    out = {}
    for s in spans:
        covered, cursor = 0.0, s.start
        for a, b in sorted(children[(s.pid, s.sid)]):
            a, b = max(a, cursor), min(b, s.end)
            if b > a:
                covered += b - a
                cursor = b
        out[(s.pid, s.sid)] = (s.end - s.start) - covered
    return out


def _attr_sum(spans: list[Span], name: str, key: str) -> int:
    return sum(s.attrs[key] for s in spans if s.name == name and s.attrs and key in s.attrs)


def layer_metrics(tracer: Tracer, verdict_s: float, workers: int) -> dict[str, float]:
    """Per-layer metrics of one traced campaign (see README.md for definitions)."""
    spans = tracer.all_spans()
    counts = tracer.all_counts()
    selfs = self_times(spans)
    self_ms: Counter = Counter()
    calls: Counter = Counter()
    incl_ms: Counter = Counter()
    for s in spans:
        self_ms[s.name] += 1e3 * selfs[(s.pid, s.sid)]
        incl_ms[s.name] += 1e3 * (s.end - s.start)
        calls[s.name] += 1

    trials = [s for s in spans if s.name == "universality.trial"]
    largest = max((s.attrs["n"] for s in trials), default=0)
    trials_ms = incl_ms["campaign.trials"]
    iters = _attr_sum(spans, "solver.pgd", "iters")
    fun_evals = _attr_sum(spans, "solver.pgd", "fun")
    top = [s for s in spans if s.pid == tracer.home_pid and not s.parent]

    return {
        "campaign.setup_ms": incl_ms["campaign.setup"],
        "campaign.trials_ms": trials_ms,
        "campaign.free_energy_ms": incl_ms["campaign.free_energy"],
        "campaign.perturbed_ms": incl_ms["campaign.perturbed"],
        "campaign.pool_tasks": calls["campaign.chunk"],
        "campaign.pool_busy_frac": (
            incl_ms["universality.trial"] / (workers * trials_ms) if trials_ms else 0.0
        ),
        "universality.trials": len(trials),
        "universality.trial_ms": statistics.median(
            [1e3 * (s.end - s.start) for s in trials if s.attrs["n"] == largest] or [0.0]
        ),
        "universality.test_risk_ms": self_ms["universality.test_risk"],
        "universality.test_rows": _attr_sum(spans, "universality.test_risk", "rows"),
        "universality.surrogate_ms": self_ms["universality.surrogate"],
        "universality.surrogate_evals": calls["universality.surrogate"],
        "features.draw_ms": self_ms["features.draw"],
        "features.rows": _attr_sum(spans, "features.draw", "rows"),
        "gaussian.factor_ms": self_ms["gaussian.factor"],
        "gaussian.factors": calls["gaussian.factor"],
        "gaussian.sample_ms": self_ms["gaussian.sample"],
        "gaussian.rows": _attr_sum(spans, "gaussian.sample", "rows"),
        "erm.solve_ms": self_ms["erm.solve"],
        "erm.solves": calls["erm.solve"],
        "erm.labels_ms": self_ms["erm.labels"],
        "erm.x_passes": counts["x_passes"],
        "erm.bytes_computed": counts["bytes_computed"],
        "erm.project_ms": self_ms["erm.project"],
        "erm.projections": calls["erm.project"],
        "solver.pgd_ms": self_ms["solver.pgd"],
        "solver.iters": iters,
        "solver.ms_per_iter": incl_ms["solver.pgd"] / iters if iters else 0.0,
        "solver.fun_evals": fun_evals,
        "solver.grad_evals": _attr_sum(spans, "solver.pgd", "grad"),
        "solver.accept_ratio": (
            _attr_sum(spans, "solver.pgd", "accepted") / (fun_evals - calls["solver.pgd"])
            if fun_evals > calls["solver.pgd"] else 0.0
        ),
        "free_energy.candidate_risks_ms": self_ms["free_energy.candidate_risks"],
        "free_energy.candidate_evals": _attr_sum(spans, "free_energy.candidate_risks", "rows"),
        "report.build_ms": self_ms["report.build"],
        "stats.bootstrap_ms": self_ms["stats.bootstrap"],
        "stats.bl_gap_ms": self_ms["stats.bl_gap"],
        "stats.ks_null_ms": self_ms["stats.ks_null"],
        "trace.coverage": sum(s.end - s.start for s in top) / verdict_s,
    }


def cell_table(tracer: Tracer) -> list[dict]:
    """Median per-trial layer times for each (family, n) cell.

    Within a trial the first features.draw and gaussian.sample are the
    training batch and the second the test batch; solves are both arms.
    """
    spans = tracer.all_spans()
    children: dict[tuple[int, int], list[Span]] = defaultdict(list)
    for s in sorted(spans, key=lambda s: s.start):
        if s.parent:
            children[(s.pid, s.parent)].append(s)
    cells: dict[tuple[str, int], dict[str, list[float]]] = {}
    for trial in spans:
        if trial.name != "universality.trial":
            continue
        cell = cells.setdefault((trial.attrs["family"], trial.attrs["n"]), defaultdict(list))
        kids = children[(trial.pid, trial.sid)]
        draws = [k for k in kids if k.name == "features.draw"]
        samples = [k for k in kids if k.name == "gaussian.sample"]
        for column, batch in (("featurize", draws), ("twin_sample", samples)):
            for label, span in zip(("", "test_"), batch):
                cell[label + column].append(1e3 * (span.end - span.start))
        for k in kids:
            if k.name == "gaussian.factor":
                cell["twin_factor"].append(1e3 * (k.end - k.start))
            elif k.name == "erm.solve" and k.attrs:
                cell["solve"].append(1e3 * (k.end - k.start))
                cell["iters"].append(k.attrs["iters"])
    return [
        {"family": family, "n": n, **{k: statistics.median(v) for k, v in cols.items()}}
        for (family, n), cols in cells.items()
    ]
