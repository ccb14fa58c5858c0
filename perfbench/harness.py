"""Measurement loops: the untimed set-up, the timed closed loop, the trace.

``measure`` runs one workload in this process.  With ``trace=False`` it
times the calls with no wrapper installed and returns the end-to-end
metrics.  With ``trace=True`` it alternates an untraced and a traced call
on the same input, installs the wrappers only around the traced call, and
returns the per-layer metrics plus the tracing overhead.
"""

from __future__ import annotations

import math
import resource
import shutil
import time
from dataclasses import dataclass, field
from pathlib import Path

import layers
from spans import Tracer, check_nesting, self_times, wrapped_names
from stats import summary

# maximum share of traced wall time by which the summed self times may
# differ from it.  ``self_times`` makes the two equal up to float rounding,
# so this is an identity the report shows, not a check of the trace; the
# checks that can fail are ``check_nesting`` and ``wrapped_names``.
SELF_SUM_TOLERANCE = 1e-9


@dataclass
class Result:
    workload: str
    seed: int
    calls: int
    attempted: int
    failed: int
    problems: list[str]
    metrics: dict[str, float]
    details: dict = field(default_factory=dict)

    @property
    def correct(self) -> bool:
        return not self.problems


def _loop(workload, state, seconds: float, call, problems: list[str]):
    """Call inputs 0, 1, ... in turn until ``seconds`` have passed and every
    input was used once; later outputs of an input must repeat the first."""
    first: dict[int, object] = {}
    outcomes = []
    start = time.perf_counter()
    i = 0
    while i < workload.inputs or time.perf_counter() - start < seconds:
        k = i % workload.inputs
        outcome, wall = call(k)
        if k not in first:
            first[k] = outcome
        elif outcome.digests != first[k].digests:
            problems.append(f"call {i} on input {k}: outputs differ from the first call")
        problems.extend(f"call {i}: {p}" for p in outcome.problems)
        outcomes.append((k, outcome, wall))
        i += 1
    return first, outcomes


def _timed_call(workload, state, k):
    t0 = time.perf_counter()
    raw = workload.run(state, k)
    wall = time.perf_counter() - t0
    return workload.check(state, k, raw), wall


def measure(workload, seed: int, seconds: float, trace: bool, workdir: Path) -> Result:
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        if trace:
            return _measure_traced(workload, seed, seconds, workdir)
        return _measure_untraced(workload, seed, seconds, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _measure_untraced(workload, seed, seconds, workdir) -> Result:
    problems: list[str] = []
    setup_times, digests = [], set()
    for _ in range(workload.setup_repeats):
        state = None  # one set of inputs alive at a time, so the peak RSS holds one
        t0 = time.perf_counter()
        state = workload.setup(seed, workdir)
        setup_times.append(time.perf_counter() - t0)
        digests.add(state["digest"])
    if len(digests) != 1:
        problems.append("set-up made different inputs from the same seed")
    setup_rss_mb = _peak_rss_mb()

    first, outcomes = _loop(
        workload, state, seconds, lambda k: _timed_call(workload, state, k), problems
    )
    walls = [wall for _, _, wall in outcomes]
    rates = [o.items / wall for _, o, wall in outcomes]
    quality = [first[k].quality for k in sorted(first)]
    attempted = sum(o.attempted for _, o, _ in outcomes)
    failed = sum(o.failed for _, o, _ in outcomes)
    metrics = {
        "setup_s": summary(setup_times)["median"],
        # the per-call rate that three calls in four meet or beat: a shared
        # machine drifts between a fast and a slow state for seconds at a
        # time, which moves a mean or median between runs far more than this
        "throughput_per_s": summary(rates)["q1"],
        "mae": sum(quality) / len(quality),
        "peak_rss_mb": _peak_rss_mb(),
    }
    if not all(math.isfinite(v) and v > 0 for v in metrics.values()):
        problems.append(f"end-to-end metrics must be finite and positive: {metrics}")
    return Result(
        workload=workload.name, seed=seed, calls=len(outcomes),
        attempted=attempted, failed=failed, problems=problems, metrics=metrics,
        details={
            "setup_s": setup_times,
            "peak_rss_after_setup_mb": setup_rss_mb,
            "items": {str(k): first[k].items for k in sorted(first)},
            "per_call_rate": summary(rates),
            "mean_rate": sum(o.items for _, o, _ in outcomes) / sum(walls),
            "call_s": walls,
            "quality_per_input": quality,
            "digests": {str(k): first[k].digests for k in sorted(first)},
            "input_digest": state["digest"],
            "failed_frac": failed / attempted if attempted else 1.0,
        },
    )


def _measure_traced(workload, seed, seconds, workdir) -> Result:
    tracer = Tracer()
    problems: list[str] = []

    with tracer.tracing(layers.TARGETS):
        state = tracer.timed(layers.ROOT_SETUP, workload.setup, seed, workdir)
    n_setup = len(tracer.spans)

    walls = {"untraced": [], "traced": []}
    ref_end = None  # spans up to here cover the first traced call of every input

    def pair(k):
        nonlocal ref_end
        untraced, wall_u = _timed_call(workload, state, k)
        walls["untraced"].append(wall_u)
        root = len(tracer.spans)
        with tracer.tracing(layers.TARGETS):
            raw = tracer.timed(layers.ROOT_CALL, workload.run, state, k)
        span = tracer.spans[root]
        walls["traced"].append(span.end - span.start)
        traced = workload.check(state, k, raw)
        if traced.digests != untraced.digests:
            problems.append(f"input {k}: tracing changed the outputs")
        if ref_end is None and len(walls["traced"]) == workload.inputs:
            ref_end = len(tracer.spans)
        return traced, wall_u

    first, outcomes = _loop(workload, state, seconds, pair, problems)
    problems.extend(f"wrapper left installed: {n}" for n in wrapped_names())
    problems.extend(check_nesting(tracer.spans))

    spans, own = tracer.spans, self_times(tracer.spans)
    n_traced = len(walls["traced"])
    metrics = layers.per_layer(
        calls=layers.totals(spans[n_setup:], own[n_setup:]), n_calls=n_traced,
        ref=layers.totals(spans[n_setup:ref_end], own[n_setup:ref_end]),
        n_ref=workload.inputs,
        setup=layers.totals(spans[:n_setup], own[:n_setup]),
    )
    traced_med = summary(walls["traced"])["median"]
    untraced_med = summary(walls["untraced"])["median"]
    metrics["trace.overhead_s"] = traced_med - untraced_med

    self_sum = sum(own[n_setup:])
    wall_sum = sum(walls["traced"])
    if abs(self_sum - wall_sum) > SELF_SUM_TOLERANCE * wall_sum:
        problems.append(f"self times sum to {self_sum!r} s, traced wall is {wall_sum!r} s")
    attempted = sum(o.attempted for _, o, _ in outcomes)
    return Result(
        workload=workload.name, seed=seed, calls=n_traced,
        attempted=attempted, failed=sum(o.failed for _, o, _ in outcomes),
        problems=problems, metrics=metrics,
        details={
            "traced_wall_s": wall_sum,
            "self_time_sum_s": self_sum,
            "traced_call_s": summary(walls["traced"]),
            "untraced_call_s": summary(walls["untraced"]),
            "overhead_share": traced_med / untraced_med - 1.0,
            "setup_wall_s": spans[0].end - spans[0].start,
            "items": {str(k): first[k].items for k in sorted(first)},
            "digests": {str(k): first[k].digests for k in sorted(first)},
        },
    )

